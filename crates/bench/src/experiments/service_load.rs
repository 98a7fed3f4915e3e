//! E18 — cover-query service under load: latency percentiles, outcome
//! cache, and mid-stream admission.
//!
//! Not a paper artifact: this experiment turns E17's scan-sharing
//! table into a load test. Three deterministic batch workloads and one
//! staggered serve workload run against one planted repository,
//! reporting physical scans, cache hits, mid-stream joins, and the
//! log-bucketed queue-wait / latency percentiles of
//! `ServiceMetrics` (recorded in `BENCH_service_load.json`):
//!
//! * **unique seeds** — every query distinct: pure scan sharing, no
//!   cache traffic.
//! * **repeats** — `max_inflight` unique queries then nothing but
//!   repeats: everything past the first wave is answered from the
//!   outcome cache in zero additional physical scans.
//! * **mixed tenants** — iter/partial/greedy mix with recurring specs:
//!   hits happen exactly when a repeat arrives after its original
//!   retired (slots free mid-run as short queries finish).
//! * **staggered burst (serve)** — one query opens a fresh epoch
//!   group, the rest of the burst arrives while its first scan is in
//!   flight and joins mid-stream (pass-aligned), cutting queue wait to
//!   near zero instead of a full epoch.
//!
//! The scans / hits columns of the batch rows are deterministic given
//! the seeds and are what the CI perf gate (`repro --check`)
//! re-verifies; the joins column and every timing column
//! (`… ms`, `qps`) are load-dependent and excluded from the check.

use crate::{Scale, Table};
use sc_service::{QueryOutcome, QuerySpec, Service, ServiceBuilder, ServiceConfig, ServiceMetrics};
use sc_setsystem::{gen, SetSystem};
use std::time::Duration;

fn iter(seed: u64) -> QuerySpec {
    QuerySpec::IterCover { delta: 0.5, seed }
}

fn row_cells(
    workload: &str,
    queries: usize,
    scans: String,
    metrics: &ServiceMetrics,
) -> Vec<String> {
    vec![
        workload.into(),
        queries.to_string(),
        scans,
        metrics.cache_hits.to_string(),
        metrics.mid_stream_admissions.to_string(),
        format!("{:.1}", metrics.queue_wait.percentile_us(90.0) as f64 / 1e3),
        format!("{:.1}", metrics.latency.percentile_us(50.0) as f64 / 1e3),
        format!("{:.1}", metrics.latency.percentile_us(90.0) as f64 / 1e3),
        format!("{:.1}", metrics.latency.percentile_us(99.0) as f64 / 1e3),
        format!(
            "{:.1}",
            queries as f64 / metrics.elapsed.as_secs_f64().max(1e-9)
        ),
    ]
}

fn fresh_service(system: &SetSystem, cfg: ServiceConfig) -> Service {
    // One service (and thus one outcome cache) per workload row keeps
    // every row's hit counts independent of row order.
    ServiceBuilder::new()
        .config(cfg)
        .tenant("default", system.clone())
        .build()
}

/// Runs the four load workloads and tabulates scans, cache traffic,
/// mid-stream joins, and latency percentiles.
pub fn service_load(scale: Scale) -> Table {
    let mut table = Table::new(
        "E18 — cover-query service under load: cache, mid-stream joins, latency percentiles",
        &[
            "workload",
            "queries",
            "scans",
            "hits",
            "joins",
            "wait p90 ms",
            "p50 ms",
            "p90 ms",
            "p99 ms",
            "qps",
        ],
    );
    let (n, m, k) = scale.pick((1 << 11, 1 << 10, 16), (1 << 14, 1 << 13, 32));
    let (unique_q, wave, repeat_q) = scale.pick((12, 4, 16), (32, 8, 48));
    let inst = gen::planted(n, m, k, 42);

    // Workload 1: all-unique batch — scan sharing only.
    let specs: Vec<QuerySpec> = (0..unique_q as u64).map(iter).collect();
    let service = fresh_service(&inst.system, ServiceConfig::default());
    let (outcomes, metrics) = service.run_batch(&specs);
    let max_passes = outcomes.iter().map(|o| o.logical_passes).max().unwrap();
    assert_eq!(metrics.physical_scans, max_passes);
    assert_eq!(metrics.cache_hits, 0);
    table.row(row_cells(
        "unique iter seeds (batch)",
        specs.len(),
        metrics.physical_scans.to_string(),
        &metrics,
    ));

    // Workload 2: one identical spec throughout — wave 1 (the
    // `max_inflight` slots) runs and retires together, everything
    // after is answered from the cache in zero additional scans.
    let specs: Vec<QuerySpec> = (0..repeat_q).map(|_| iter(0)).collect();
    let service = fresh_service(
        &inst.system,
        ServiceConfig {
            max_inflight: wave,
            ..Default::default()
        },
    );
    let (outcomes, metrics) = service.run_batch(&specs);
    assert_eq!(metrics.cache_misses, wave, "wave 1 runs before any retire");
    assert_eq!(metrics.cache_hits, specs.len() - wave);
    assert_eq!(
        metrics.physical_scans, outcomes[0].logical_passes,
        "hits must not cost scans"
    );
    for o in &outcomes[wave..] {
        assert!(o.cached);
        assert_eq!(o.cover, outcomes[0].cover, "hit is bit-identical");
        assert_eq!(o.logical_passes, outcomes[0].logical_passes);
        assert_eq!(o.space_words, outcomes[0].space_words);
    }
    table.row(row_cells(
        "repeats beyond wave 1 (batch)",
        specs.len(),
        metrics.physical_scans.to_string(),
        &metrics,
    ));

    // Workload 3: mixed tenants with recurring specs.
    let specs: Vec<QuerySpec> = (0..repeat_q as u64)
        .map(|i| match i % 3 {
            0 => iter(i % 6),
            1 => QuerySpec::PartialCover {
                epsilon: 0.2,
                delta: 0.5,
                seed: i % 6,
            },
            _ => QuerySpec::GreedyBaseline,
        })
        .collect();
    let service = fresh_service(
        &inst.system,
        ServiceConfig {
            max_inflight: wave,
            ..Default::default()
        },
    );
    let (_, metrics) = service.run_batch(&specs);
    table.row(row_cells(
        "mixed iter/partial/greedy (batch)",
        specs.len(),
        metrics.physical_scans.to_string(),
        &metrics,
    ));

    // Workload 4: staggered burst in serve mode — the head opens a
    // fresh epoch group, the rest arrives while its first scan is in
    // flight and joins mid-stream.
    let burst = wave;
    let service = fresh_service(
        &inst.system,
        ServiceConfig {
            admission_window: Duration::from_secs(30),
            ..Default::default()
        },
    );
    let (outcomes, metrics) = service.serve(|handle| {
        let head = handle.submit(iter(100)).expect("open");
        std::thread::sleep(Duration::from_millis(30));
        let rest: Vec<_> = (1..burst as u64)
            .map(|i| handle.submit(iter(100 + i)).expect("open"))
            .collect();
        let mut outcomes: Vec<QueryOutcome> = vec![head.wait().expect("served")];
        outcomes.extend(rest.into_iter().map(|t| t.wait().expect("served")));
        outcomes
    });
    assert!(outcomes.iter().all(|o| o.goal_met()));
    table.row(row_cells(
        "staggered burst (serve)",
        burst,
        // Physical scans here depend on which side of the scan
        // boundary each straggler lands on; the deterministic version
        // of this claim is pinned by `service_scan_sharing`.
        "-".into(),
        &metrics,
    ));

    table.note(format!(
        "planted n={n}, m={m}, k={k}; batch workloads are deterministic given the seeds"
    ));
    table.note(format!(
        "repeats: wave 1 = {wave} copies of one spec (max_inflight slots), every later copy cache-hits"
    ));
    table.note("staggered burst: head submitted first, the rest 30 ms later join its first scan mid-stream");
    table.note("joins and timing columns (… ms, qps) are load-dependent; repro --check skips them");
    table
}
