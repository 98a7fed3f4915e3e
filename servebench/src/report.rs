//! Result assembly: order statistics, the metric list, provenance, and
//! the one-line JSON object that ends every run's standard output.

use std::time::Duration;

/// Nearest-rank percentile (`0 < p ≤ 100`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Milliseconds of a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Lowers this process's `VmHWM` to its current resident size, so that
/// [`rss_peak_mib`] afterwards counts only what came later. `false`
/// when the kernel refused (the peak then includes everything before).
pub fn reset_rss_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The commit the checkout was taken from, read from `.git` in the
/// working directory when there is one (a source export has none).
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Every answer matched its reference.
    pub correct: bool,
    /// Operations the load generator attempted in the measured window.
    pub attempted: u64,
    /// Attempted operations that errored, were shed, came back wrong,
    /// or were never answered.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `key=value` provenance pairs printed ahead of the metrics.
    pub provenance: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Prints the provenance line, one `name value unit` line per
    /// metric, and the JSON object as the last line of standard output.
    pub fn print(&self) {
        let prov: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("provenance {}", prov.join(" "));
        for m in &self.metrics {
            println!("metric {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The measured window's operations, as the end-to-end metrics count
/// them.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub correct: u64,
    /// `(traced, latency in ms)` of every correct query answer.
    pub latencies: Vec<(bool, f64)>,
    pub passes_max: usize,
    pub space_max: usize,
}

impl Tally {
    /// An operation that failed or came back wrong.
    pub fn failed(&mut self) {
        self.attempted += 1;
    }

    /// A correct operation that is not a query (a `!reload`).
    pub fn ok(&mut self) {
        self.attempted += 1;
        self.correct += 1;
    }

    /// A correct query answer.
    pub fn answered(&mut self, traced: bool, latency: Duration, passes: usize, space: usize) {
        self.ok();
        self.latencies.push((traced, ms(latency)));
        self.passes_max = self.passes_max.max(passes);
        self.space_max = self.space_max.max(space);
    }

    /// Every answer's latency in ms.
    pub fn all(&self) -> Vec<f64> {
        self.latencies.iter().map(|l| l.1).collect()
    }

    /// Answers given while telemetry was on.
    pub fn traced(&self) -> usize {
        self.latencies.iter().filter(|l| l.0).count()
    }

    /// Adds the end-to-end metrics of this window to `rep`: `setups`
    /// are the set-up times in seconds and `metrics` the service's
    /// accounting over the window.
    pub fn emit(
        &self,
        rep: &mut Report,
        setups: &[f64],
        throughput_qps: f64,
        metrics: &sc_service::ServiceMetrics,
        rss_peak_mib: f64,
    ) {
        let all = self.all();
        let scans = ratio(
            metrics.physical_scans as f64,
            metrics.queries_completed as f64,
        );
        rep.metric("setup_s", median(setups), "s");
        rep.metric("throughput_qps", throughput_qps, "1/s");
        rep.metric("latency_p50_ms", percentile(&all, 50.0), "ms");
        rep.metric("latency_p95_ms", percentile(&all, 95.0), "ms");
        let ok = ratio(self.correct as f64, self.attempted as f64);
        rep.metric("ok_share", ok, "share");
        rep.metric("scans_per_query", scans, "count");
        rep.metric("logical_passes_max", self.passes_max as f64, "count");
        rep.metric("space_words_max", self.space_max as f64, "words");
        rep.metric("rss_peak_mib", rss_peak_mib, "MiB");
    }

    /// A report of this window; `clean` is false when anything outside
    /// the window (a warm-up answer) came back wrong.
    pub fn report(&self, clean: bool) -> Report {
        Report {
            correct: clean && self.correct == self.attempted,
            attempted: self.attempted,
            failed: self.attempted - self.correct,
            ..Report::default()
        }
    }
}

/// The per-layer metrics of the traced run. Every workload reports
/// every one of them; a layer the workload bypasses reads 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub latency_p99_ms: f64,
    pub load_ms: f64,
    pub fingerprint_ms: f64,
    pub parse_ns: f64,
    pub render_ns: f64,
    pub ping_rtt_us: f64,
    pub frontdoor_p50_ms: f64,
    pub frontdoor_p99_ms: f64,
    pub net_accepted: f64,
    pub net_shed: f64,
    pub queue_wait_p50_ms: f64,
    pub queue_wait_p99_ms: f64,
    pub reload_rtt_ms: f64,
    pub cache_hit_share: f64,
    pub mid_stream_share: f64,
    pub aligned_joins: f64,
    pub core: crate::layers::CoreSplit,
    pub service_ms: f64,
    pub overhead_ms: f64,
    pub parallel_efficiency: f64,
    pub feed_ms: f64,
    pub shard_grants: f64,
    pub tenant_p99_max_over_min: f64,
    pub kernel_calls_per_query: f64,
    pub telemetry_overhead_share: f64,
    pub unattributed_share: f64,
}

impl Layers {
    pub fn emit(&self, rep: &mut Report) {
        let c = &self.core;
        for (name, value, unit) in [
            ("latency.p99_ms", self.latency_p99_ms, "ms"),
            ("setsystem.load_ms", self.load_ms, "ms"),
            ("cache.fingerprint_ms", self.fingerprint_ms, "ms"),
            ("protocol.parse_ns", self.parse_ns, "ns"),
            ("protocol.render_ns", self.render_ns, "ns"),
            ("net.ping_rtt_us", self.ping_rtt_us, "us"),
            ("net.frontdoor_p50_ms", self.frontdoor_p50_ms, "ms"),
            ("net.frontdoor_p99_ms", self.frontdoor_p99_ms, "ms"),
            ("net.accepted", self.net_accepted, "count"),
            ("net.shed", self.net_shed, "count"),
            ("admission.queue_wait_p50_ms", self.queue_wait_p50_ms, "ms"),
            ("admission.queue_wait_p99_ms", self.queue_wait_p99_ms, "ms"),
            ("reload.rtt_p50_ms", self.reload_rtt_ms, "ms"),
            ("cache.hit_share", self.cache_hit_share, "share"),
            ("alignment.mid_stream_share", self.mid_stream_share, "share"),
            ("alignment.aligned_joins", self.aligned_joins, "count"),
            ("core.solo_ms", c.solo_ms, "ms"),
            ("core.begin_scan_ms", c.begin_scan_ms, "ms"),
            ("core.absorb_ms", c.absorb_ms, "ms"),
            ("core.end_scan_ms", c.end_scan_ms, "ms"),
            ("core.end_scan_share", c.end_scan_share, "share"),
            ("core.iter.solo_ms", c.kind_solo_ms[0], "ms"),
            ("core.partial.solo_ms", c.kind_solo_ms[1], "ms"),
            ("core.greedy.solo_ms", c.kind_solo_ms[2], "ms"),
            ("execution.service_ms", self.service_ms, "ms"),
            ("execution.overhead_ms", self.overhead_ms, "ms"),
            (
                "execution.parallel_efficiency",
                self.parallel_efficiency,
                "share",
            ),
            ("stream.feed_ms", self.feed_ms, "ms"),
            ("fairness.shard_grants", self.shard_grants, "count"),
            (
                "fairness.tenant_p99_max_over_min",
                self.tenant_p99_max_over_min,
                "ratio",
            ),
            (
                "bitset.kernel_calls_per_query",
                self.kernel_calls_per_query,
                "count",
            ),
            (
                "telemetry.overhead_share",
                self.telemetry_overhead_share,
                "share",
            ),
            (
                "reconcile.unattributed_share",
                self.unattributed_share,
                "share",
            ),
        ] {
            rep.metric(name, value, unit);
        }
    }
}
