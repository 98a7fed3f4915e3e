//! Per-layer measurements taken from outside the program: timed calls
//! into a layer's public functions, and the traced run's telemetry
//! phases and reconciliation table.

use crate::oracle::Solved;
use crate::report::{median, ms, percentile, ratio, reset_rss_peak, rss_peak_mib, Layers, Tally};
use sc_service::protocol::Request;
use sc_service::{OutcomeCache, QueryOutcome, QuerySpec, Service, ServiceMetrics};
use sc_setsystem::SetSystem;
use sc_stream::{Claim, SetStream};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Where solo compute goes, averaged per query over a workload's
/// fresh (non-cached) queries.
#[derive(Debug, Default, Clone)]
pub struct CoreSplit {
    pub solo_ms: f64,
    pub begin_scan_ms: f64,
    pub absorb_ms: f64,
    pub end_scan_ms: f64,
    pub end_scan_share: f64,
    /// Mean solo time per kind: iter, partial, greedy (0 for a kind
    /// the workload does not send).
    pub kind_solo_ms: [f64; 3],
}

impl CoreSplit {
    /// Averages the replays of the given queries (one entry per query
    /// answered, so a spec asked twice weighs twice).
    pub fn of<'a>(queries: impl IntoIterator<Item = (&'a QuerySpec, &'a Solved)>) -> CoreSplit {
        let mut n = 0.0;
        let mut split = CoreSplit::default();
        let mut kind_sum = [0.0f64; 3];
        let mut kind_n = [0.0f64; 3];
        for (spec, solved) in queries {
            let t = &solved.timing;
            n += 1.0;
            split.solo_ms += ms(t.total);
            split.begin_scan_ms += ms(t.begin_scan);
            split.absorb_ms += ms(t.absorb);
            split.end_scan_ms += ms(t.end_scan);
            let k = kind_index(spec);
            kind_sum[k] += ms(t.total);
            kind_n[k] += 1.0;
        }
        split.end_scan_share = ratio(split.end_scan_ms, split.solo_ms);
        split.solo_ms = ratio(split.solo_ms, n);
        split.begin_scan_ms = ratio(split.begin_scan_ms, n);
        split.absorb_ms = ratio(split.absorb_ms, n);
        split.end_scan_ms = ratio(split.end_scan_ms, n);
        split.kind_solo_ms = std::array::from_fn(|k| ratio(kind_sum[k], kind_n[k]));
        split
    }
}

fn kind_index(spec: &QuerySpec) -> usize {
    match spec {
        QuerySpec::IterCover { .. } => 0,
        QuerySpec::PartialCover { .. } => 1,
        QuerySpec::GreedyBaseline => 2,
    }
}

/// Repeats `f` over `items` until at least 20 ms have passed and
/// returns nanoseconds per item.
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut done = 0usize;
    while start.elapsed() < Duration::from_millis(20) {
        for item in items {
            f(item);
        }
        done += items.len();
    }
    start.elapsed().as_secs_f64() * 1e9 / done as f64
}

/// `Request::parse` per request line, and `Request::render` plus
/// `QueryOutcome::protocol_line` per answered query, in nanoseconds.
fn codec_ns(queries: &[Served<'_>]) -> (f64, f64) {
    let parse = ns_per_item(queries, |q| {
        black_box(Request::parse(black_box(&q.line)).ok());
    });
    let render = ns_per_item(queries, |q| {
        let request = Request::Query {
            repo: None,
            spec: q.outcome.spec,
        };
        black_box(request.render());
        black_box(q.outcome.protocol_line());
    });
    (parse, render)
}

/// Median of three `OutcomeCache::fingerprint` calls, in ms.
fn fingerprint_ms(system: &SetSystem) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(OutcomeCache::fingerprint(black_box(system)));
            ms(t.elapsed())
        })
        .collect();
    median(&times)
}

/// One physical scan of `system` as a `ShardedPass`, walked through
/// `FeedCursor` claims by `workers` threads feeding `consumers` no-op
/// consumers (each sums its items' lengths): the feed's own cost with
/// no job work behind it. Median of five walks, in ms.
fn feed_ms(system: &SetSystem, consumers: usize, workers: usize) -> f64 {
    let root = SetStream::new(system);
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let forks: Vec<SetStream<'_>> = (0..consumers).map(|_| root.fork()).collect();
            let participants: Vec<&SetStream<'_>> = forks.iter().collect();
            let feed = root.sharded_pass(&participants, 256);
            let start = Instant::now();
            let cursor = feed.cursor(consumers);
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {
                        let mut items = 0usize;
                        loop {
                            match cursor.claim() {
                                Claim::Shard { consumer, shard } => {
                                    for (_, elems) in feed.shard(shard) {
                                        items += elems.len();
                                    }
                                    cursor.complete(consumer, shard);
                                }
                                Claim::Retry => std::hint::spin_loop(),
                                Claim::Done => break,
                            }
                        }
                        black_box(items);
                    });
                }
            });
            ms(start.elapsed())
        })
        .collect();
    median(&times)
}

/// The measured window: telemetry phases, the kernel-call count, and
/// the peak RSS. A traced run switches telemetry on for the middle
/// half of the window (off, on, on, off over four equal quarters), so
/// the traced and untraced halves see the same drift; an untraced run
/// keeps it off.
pub struct Window {
    trace: bool,
    seconds: f64,
    kernel_before: u64,
    start: Instant,
}

/// What a window measured once it closed.
pub struct Closed {
    pub wall: Duration,
    /// Kernel calls the telemetry registry counted while it was on.
    pub kernel_calls: u64,
    /// Peak RSS in MiB since the window opened.
    pub rss_peak_mib: f64,
}

impl Window {
    /// Opens the window: telemetry off (its registry cleared in a
    /// traced run) and the peak RSS reset, so set-up, warm-up, and the
    /// oracle do not count in it.
    pub fn open(trace: bool, seconds: f64) -> Window {
        sc_telemetry::set_enabled(false);
        if trace {
            sc_telemetry::reset();
        }
        if !reset_rss_peak() {
            eprintln!("servebench: cannot reset VmHWM; rss_peak_mib includes set-up");
        }
        Window {
            trace,
            seconds,
            kernel_before: kernel_calls(),
            start: Instant::now(),
        }
    }

    /// The window has not run its length yet.
    pub fn is_open(&self) -> bool {
        self.start.elapsed().as_secs_f64() < self.seconds
    }

    /// Switches telemetry for the quarter the window is in and reports
    /// whether it is on.
    pub fn sync(&self) -> bool {
        let quarter = (4.0 * self.start.elapsed().as_secs_f64() / self.seconds) as u32;
        let on = self.trace && (quarter == 1 || quarter == 2);
        if on != sc_telemetry::enabled() {
            sc_telemetry::set_enabled(on);
        }
        on
    }

    pub fn close(self) -> Closed {
        let wall = self.start.elapsed();
        sc_telemetry::set_enabled(false);
        Closed {
            wall,
            kernel_calls: kernel_calls() - self.kernel_before,
            rss_peak_mib: rss_peak_mib(),
        }
    }
}

/// Kernel calls the telemetry registry counted while it was on.
fn kernel_calls() -> u64 {
    sc_telemetry::registered_counters()
        .into_iter()
        .filter(|(name, _)| name.starts_with("sc_kernel_calls_"))
        .map(|(_, v)| v)
        .sum()
}

/// `p50(traced) / p50(untraced) - 1` over the latencies of each phase.
fn overhead_share(latencies: &[(bool, f64)]) -> f64 {
    let on: Vec<f64> = latencies.iter().filter(|l| l.0).map(|l| l.1).collect();
    let off: Vec<f64> = latencies.iter().filter(|l| !l.0).map(|l| l.1).collect();
    ratio(median(&on), median(&off)) - 1.0
}

/// One query's round trip split into the layers the benchmark sees
/// from outside, in ms: `rtt = frontdoor + queue_wait + service`, and
/// for a fresh query the solo compute the service time contains.
struct Split {
    kind: &'static str,
    rtt: f64,
    frontdoor: f64,
    queue_wait: f64,
    service: f64,
    /// Solo replay time of the same spec (fresh queries only).
    solo: Option<f64>,
}

/// Prints the reconciliation table (one line per query, then a
/// summary naming the largest layer) to standard error and returns
/// the unattributed share: the part of fresh queries' round trips that
/// is neither front door, queue wait, nor the query's own solo compute.
fn reconcile(workload: &str, rows: &[Split]) -> f64 {
    eprintln!("reconcile workload={workload} columns: q kind rtt_ms = frontdoor_ms + queue_wait_ms + service_ms | solo_ms");
    let mut sums = [0.0f64; 3];
    let (mut fresh_rtt, mut fresh_solo, mut fresh_known) = (0.0, 0.0, 0.0);
    for (q, r) in rows.iter().enumerate() {
        let solo = r.solo.map_or_else(|| "-".into(), |s| format!("{s:.3}"));
        eprintln!(
            "reconcile q={q} kind={} {:.3} = {:.3} + {:.3} + {:.3} | {solo}",
            r.kind, r.rtt, r.frontdoor, r.queue_wait, r.service
        );
        sums[0] += r.frontdoor;
        sums[1] += r.queue_wait;
        sums[2] += r.service;
        if let Some(s) = r.solo {
            fresh_rtt += r.rtt;
            fresh_solo += s.min(r.service);
            fresh_known += r.frontdoor + r.queue_wait;
        }
    }
    let total: f64 = sums.iter().sum();
    let names = ["frontdoor", "queue_wait", "service"];
    let largest = (0..3)
        .max_by(|&a, &b| sums[a].total_cmp(&sums[b]))
        .expect("three layers");
    let unattributed = ratio(fresh_rtt - fresh_known - fresh_solo, fresh_rtt);
    eprintln!(
        "reconcile summary workload={workload} queries={} largest_layer={} frontdoor={:.1}% queue_wait={:.1}% service={:.1}% fresh_solo_of_rtt={:.1}% unattributed={:.1}%",
        rows.len(),
        names[largest],
        100.0 * ratio(sums[0], total),
        100.0 * ratio(sums[1], total),
        100.0 * ratio(sums[2], total),
        100.0 * ratio(fresh_solo, fresh_rtt),
        100.0 * unattributed,
    );
    for (stage, snap) in sc_telemetry::registered_stages() {
        eprintln!(
            "reconcile registry stage={stage} count={} sum_ms={:.3}",
            snap.count,
            snap.sum_us as f64 / 1e3
        );
    }
    unattributed
}

/// One answered query, as the per-layer split sees it.
pub struct Served<'a> {
    /// The request line (as sent, or as a client would send it).
    pub line: String,
    /// The outcome as the server reported it.
    pub outcome: QueryOutcome,
    /// Client-side round trip; in-process, the outcome's own latency.
    pub rtt: Duration,
    /// The solo replay of the same spec on the same repository.
    pub solved: &'a Solved,
}

/// The per-layer metrics every workload takes the same way: the tail,
/// the set-up loads, the fingerprint and feed of `system` (`consumers`
/// queries per scan), the service's cache and alignment counters over
/// the window (`metrics`), the tenants' shard grants, kernel calls, and
/// the telemetry overhead.
pub fn common(
    tally: &Tally,
    loads: &[f64],
    system: &SetSystem,
    consumers: usize,
    service: &Service,
    metrics: &ServiceMetrics,
    kernel_calls: u64,
) -> Layers {
    Layers {
        latency_p99_ms: percentile(&tally.all(), 99.0),
        load_ms: median(loads),
        fingerprint_ms: fingerprint_ms(system),
        feed_ms: feed_ms(system, consumers, service.config().workers),
        cache_hit_share: ratio(metrics.cache_hits as f64, metrics.queries_completed as f64),
        mid_stream_share: ratio(metrics.mid_stream_admissions as f64, metrics.jobs as f64),
        aligned_joins: metrics.aligned_joins as f64,
        shard_grants: service
            .tenants()
            .iter()
            .map(|t| t.meta().counters().snapshot().4 as f64)
            .sum(),
        tenant_p99_max_over_min: 1.0,
        kernel_calls_per_query: ratio(kernel_calls as f64, tally.traced() as f64),
        telemetry_overhead_share: overhead_share(&tally.latencies),
        ..Layers::default()
    }
}

/// The per-layer numbers derived from the answered queries — front
/// door, queue wait, service and its overhead over solo compute, the
/// core split of the fresh (uncached) ones, codec cost on their own
/// lines — plus the reconciliation table. `busy` is the time the
/// service was kept busy and `workers` its worker count.
pub fn served(
    workload: &str,
    queries: &[Served<'_>],
    busy: Duration,
    workers: usize,
    l: &mut Layers,
) {
    let mut frontdoor = Vec::new();
    let mut waits = Vec::new();
    let mut services = Vec::new();
    let mut overheads = Vec::new();
    let mut fresh = Vec::new();
    let mut rows = Vec::new();
    for q in queries {
        let o = &q.outcome;
        let split = Split {
            kind: o.spec.kind(),
            rtt: ms(q.rtt),
            frontdoor: ms(q.rtt) - ms(o.latency),
            queue_wait: ms(o.queue_wait),
            service: ms(o.latency.saturating_sub(o.queue_wait)),
            solo: (!o.cached).then(|| ms(q.solved.timing.total)),
        };
        frontdoor.push(split.frontdoor);
        waits.push(split.queue_wait);
        services.push(split.service);
        if let Some(solo) = split.solo {
            overheads.push(split.service - solo);
            fresh.push((&o.spec, q.solved));
        }
        rows.push(split);
    }
    (l.parse_ns, l.render_ns) = codec_ns(queries);
    l.frontdoor_p50_ms = percentile(&frontdoor, 50.0);
    l.frontdoor_p99_ms = percentile(&frontdoor, 99.0);
    l.queue_wait_p50_ms = percentile(&waits, 50.0);
    l.queue_wait_p99_ms = percentile(&waits, 99.0);
    l.service_ms = median(&services);
    l.overhead_ms = median(&overheads);
    let solo_total: f64 = fresh.iter().map(|(_, s)| ms(s.timing.total)).sum();
    l.parallel_efficiency = ratio(solo_total, ms(busy) * workers as f64);
    l.core = CoreSplit::of(fresh);
    l.unattributed_share = reconcile(workload, &rows);
}
