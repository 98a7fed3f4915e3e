//! The service's live telemetry: cached handles into the process-wide
//! [`sc_telemetry`] registry, and the `!stats` / `!metrics` text
//! surfaces.
//!
//! Stage and counter lookups take the registry lock; the hot paths
//! must not. [`tel`] resolves every name the pipeline records exactly
//! once (behind a `OnceLock`) and hands out `'static` references, so an
//! instrumentation site costs one relaxed gate load when telemetry is
//! off. Query-lifecycle events are not counted here: each tenant's
//! query ledger ([`TenantCounters`](crate::TenantCounters)) is their
//! one source of truth, and [`expose`] renders it next to the
//! registry.

use crate::tenants::{LedgerEvent, Tenant, TenantRegistry};
use sc_telemetry::{Counter, StageHistogram, BUCKETS};
use std::sync::OnceLock;

/// The stage histograms the pipeline records and the front door's
/// counters.
pub(crate) struct Tel {
    /// Connections the TCP front-end accepted into sessions
    /// ([`NetStats::accepted`](crate::NetStats::accepted)).
    pub net_accepted: &'static Counter,
    /// Load shed at the front door — connections refused over
    /// `max_conns` plus queries answered `err msg=busy`
    /// ([`NetStats::shed`](crate::NetStats::shed)).
    pub net_shed: &'static Counter,
    /// Request lines discarded for overflowing the per-session read
    /// buffer
    /// ([`NetStats::buffer_overflows`](crate::NetStats::buffer_overflows)).
    pub net_buffer_overflows: &'static Counter,
    /// Stage 1 — boundary admission work (excludes idle channel waits).
    pub stage_admission: &'static StageHistogram,
    /// Stage 2 — the mid-stream splice at a scan boundary.
    pub stage_alignment: &'static StageHistogram,
    /// Stage 3 — one scan's fan-out across the worker pool, including
    /// the `end_scan` work its workers run at the scan boundary.
    pub stage_execution: &'static StageHistogram,
    /// Stage 4 — retirement rounds that actually retired a job.
    pub stage_retirement: &'static StageHistogram,
}

/// The resolved handles, looked up once per process.
pub(crate) fn tel() -> &'static Tel {
    static TEL: OnceLock<Tel> = OnceLock::new();
    TEL.get_or_init(|| Tel {
        net_accepted: sc_telemetry::counter("sc_net_accepted_total"),
        net_shed: sc_telemetry::counter("sc_net_shed_total"),
        net_buffer_overflows: sc_telemetry::counter("sc_net_buffer_overflows_total"),
        stage_admission: sc_telemetry::stage("admission"),
        stage_alignment: sc_telemetry::stage("alignment"),
        stage_execution: sc_telemetry::stage("execution"),
        stage_retirement: sc_telemetry::stage("retirement"),
    })
}

/// The two text surfaces [`expose`] renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// `!stats`: `key=value` fields for one line — the registry's
    /// counters, the ledger summed over the tenants, the journal
    /// totals, and per-stage observation counts with p50/p90/p99 in µs.
    Stats,
    /// `!metrics`: Prometheus-style lines — the registry's counters,
    /// the ledger as one `name{tenant="…"} value` series per tenant,
    /// the journal as gauges, and every stage histogram as cumulative
    /// `sc_stage_<name>_us_bucket{le="…"}` lines plus `_sum` and
    /// `_count`.
    Metrics,
}

/// Renders one text surface from the [`sc_telemetry`] registry plus
/// the tenants' query ledgers: the `!stats` fields (join them with
/// spaces for the one line) or the `!metrics` lines.
///
/// # Examples
///
/// ```
/// use sc_service::{expose, ServiceBuilder, Surface};
///
/// let service = ServiceBuilder::new()
///     .tenant("a-b", sc_setsystem::gen::planted(64, 64, 4, 1).system)
///     .build();
/// let stats = expose(service.tenants(), Surface::Stats).join(" ");
/// assert!(stats.contains(" sc_queries_completed_total=0"));
/// let metrics = expose(service.tenants(), Surface::Metrics);
/// assert!(metrics.contains(&r#"sc_query_jobs_total{tenant="a-b"} 0"#.to_string()));
/// ```
pub fn expose(tenants: &TenantRegistry, surface: Surface) -> Vec<String> {
    let stats = surface == Surface::Stats;
    let pick = |stats_name, metrics_name| if stats { stats_name } else { metrics_name };
    let mut out = Vec::new();
    let mut sample = |name: &str, value: u64| {
        out.push(format!("{name}{}{value}", pick("=", " ")));
    };
    let enabled = u64::from(sc_telemetry::enabled());
    sample(pick("enabled", "sc_telemetry_enabled"), enabled);
    for (name, value) in sc_telemetry::registered_counters() {
        sample(name, value);
    }
    for event in LedgerEvent::ALL {
        let name = event.metric_name();
        let count = |t: &Tenant| t.meta().counters().get(event);
        if stats {
            sample(name, tenants.iter().map(count).sum());
            continue;
        }
        for t in tenants.iter() {
            let tenant = label_value(t.name());
            sample(&format!("{name}{{tenant=\"{tenant}\"}}"), count(t));
        }
    }
    let (events, retained) = sc_telemetry::journal_stats();
    sample(pick("journal_events", "sc_journal_events_total"), events);
    sample(
        pick("journal_retained", "sc_journal_retained"),
        retained as u64,
    );
    for (name, snap) in sc_telemetry::registered_stages() {
        if stats {
            sample(&format!("stage_{name}_n"), snap.count);
            for p in [50u32, 90, 99] {
                let value = snap.percentile_us(f64::from(p));
                sample(&format!("stage_{name}_p{p}_us"), value);
            }
            continue;
        }
        // Bucket `i` holds durations below `2^i` µs; the last bucket
        // is the overflow that only `+Inf` bounds.
        let bucket = |le: &str| format!("sc_stage_{name}_us_bucket{{le=\"{le}\"}}");
        let mut cumulative = 0;
        for (i, &n) in snap.buckets[..BUCKETS - 1].iter().enumerate() {
            cumulative += n;
            sample(&bucket(&(1u64 << i).to_string()), cumulative);
        }
        sample(&bucket("+Inf"), snap.count);
        sample(&format!("sc_stage_{name}_us_sum"), snap.sum_us);
        sample(&format!("sc_stage_{name}_us_count"), snap.count);
    }
    out
}

/// Escapes a Prometheus label value: backslash, double quote, and
/// newline.
fn label_value(raw: &str) -> String {
    raw.replace('\\', r"\\")
        .replace('"', "\\\"")
        .replace('\n', r"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenants::TenantMeta;
    use sc_setsystem::SetSystem;

    fn registry(names: &[&str]) -> std::sync::Arc<TenantRegistry> {
        TenantRegistry::build(
            names
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let system = SetSystem::from_sets(2, vec![vec![0, 1]]);
                    Tenant::new(TenantMeta::new(i as u64, name, 4), system)
                })
                .collect(),
        )
    }

    #[test]
    fn label_values_escape_quotes_backslashes_and_newlines() {
        assert_eq!(label_value(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(label_value("x\ny"), r"x\ny");
        let reg = registry(&[r#"q"\t"#]);
        reg.tenant(0).meta().counters().add(LedgerEvent::Job, 3);
        let lines = expose(&reg, Surface::Metrics);
        assert!(
            lines.contains(&r#"sc_query_jobs_total{tenant="q\"\\t"} 3"#.to_string()),
            "{lines:?}"
        );
    }

    #[test]
    fn stage_buckets_are_cumulative_and_end_at_the_count() {
        let _g = sc_telemetry::test_hold();
        let was = sc_telemetry::enabled();
        sc_telemetry::set_enabled(true);
        let stage = sc_telemetry::stage("test_expose_buckets");
        for us in [0u64, 1, 3, 900, 900, 1 << 45] {
            stage.record_us(us);
        }
        let lines = expose(&registry(&["default"]), Surface::Metrics);
        sc_telemetry::set_enabled(was);
        let value = |l: &String| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap();
        let buckets: Vec<&String> = lines
            .iter()
            .filter(|l| l.starts_with("sc_stage_test_expose_buckets_us_bucket{"))
            .collect();
        assert_eq!(buckets.len(), BUCKETS);
        assert!(buckets.windows(2).all(|w| value(w[0]) <= value(w[1])));
        let last = buckets.last().unwrap();
        assert!(last.contains(r#"le="+Inf""#));
        let count = lines
            .iter()
            .find(|l| l.starts_with("sc_stage_test_expose_buckets_us_count "))
            .unwrap();
        assert_eq!(value(last), value(count));
        assert!(value(count) >= 6);
        assert!(!lines.iter().any(|l| l.contains("_us_p50")));
    }
}
