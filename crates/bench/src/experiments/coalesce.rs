//! E19 — in-flight query coalescing: K identical queries, one job.
//!
//! Not a paper artifact: this experiment measures the serving layer's
//! in-flight coalescing, which is always on. Scan
//! sharing (E17) already makes N identical concurrent queries cost one
//! query's *physical scans*; coalescing makes them cost one query's
//! *CPU* as well — duplicates of an in-flight spec attach to its job
//! as followers, the job's retirement fans one reply out per follower,
//! and the outcome cache is populated once. The headline column is the
//! **coalescing ratio** (queries per job actually run), recorded in
//! `BENCH_coalesce.json`.
//!
//! Three workloads against one planted repository:
//!
//! * **identical (batch)** — K copies of one spec: one job, K−1
//!   followers, ratio K.
//! * **duplicate groups (batch)** — G distinct specs × D duplicates
//!   interleaved: one job per distinct spec, ratio D.
//! * **staggered dup burst (serve)** — the head opens a fresh epoch
//!   group (the admission window holds its first scan open), the
//!   duplicates arrive while that job is in flight and coalesce
//!   mid-stream: still one job, and the followers' queue waits
//!   collapse to the window's reaction time.
//!
//! The uncoalesced contrast row (K copies as K jobs) is gone with the
//! switch that selected it; its last committed cells are a table note.
//!
//! The queries / jobs / coalesced / scans / ratio columns are
//! deterministic given the seeds (the experiment asserts the
//! structural claims before tabulating them) and are what the CI perf
//! gate (`repro --check`) re-verifies; the timing columns (`… ms`,
//! `qps`) are load-dependent and excluded from the check.

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
        metrics.jobs.to_string(),
        metrics.coalesced.to_string(),
        scans,
        format!("{:.1}x", queries as f64 / metrics.jobs.max(1) as f64),
        format!("{:.1}", metrics.latency.percentile_us(50.0) as f64 / 1e3),
        format!(
            "{:.1}",
            queries as f64 / metrics.elapsed.as_secs_f64().max(1e-9)
        ),
    ]
}

fn fresh(system: &SetSystem) -> Service {
    ServiceBuilder::new()
        .tenant("default", system.clone())
        .build()
}

/// Runs the three coalescing workloads and tabulates jobs, followers,
/// physical scans, and the coalescing ratio.
pub fn coalesce(scale: Scale) -> Table {
    let mut table = Table::new(
        "E19 — in-flight query coalescing: K identical queries, one job",
        &[
            "workload",
            "queries",
            "jobs",
            "coalesced",
            "scans",
            "ratio",
            "p50 ms",
            "qps",
        ],
    );
    let (n, m, k) = scale.pick((1 << 11, 1 << 10, 16), (1 << 14, 1 << 13, 32));
    let (dups, groups) = scale.pick((8, 4), (16, 4));
    let inst = gen::planted(n, m, k, 42);

    // Workload 1: K identical queries — one job.
    let specs = vec![iter(7); dups];
    let service = fresh(&inst.system);
    let (outcomes, metrics) = service.run_batch(&specs);
    assert_eq!(metrics.jobs, 1, "K identical in-flight queries, one job");
    assert_eq!(metrics.coalesced, dups - 1);
    assert_eq!(metrics.physical_scans, outcomes[0].logical_passes);
    assert!(outcomes.iter().all(|o| o.cover == outcomes[0].cover));
    table.row(row_cells(
        "identical (batch)",
        specs.len(),
        metrics.physical_scans.to_string(),
        &metrics,
    ));

    // Workload 2: G distinct specs × D duplicates, interleaved the way
    // concurrent clients would submit them.
    let specs: Vec<QuerySpec> = (0..(groups * dups) as u64)
        .map(|i| iter(i % groups as u64))
        .collect();
    let service = fresh(&inst.system);
    let (outcomes, metrics) = service.run_batch(&specs);
    assert_eq!(metrics.jobs, groups, "one job per distinct spec");
    assert_eq!(metrics.coalesced, groups * (dups - 1));
    let max_passes = outcomes.iter().map(|o| o.logical_passes).max().unwrap();
    assert_eq!(metrics.physical_scans, max_passes, "leaders share scans");
    table.row(row_cells(
        "duplicate groups (batch)",
        specs.len(),
        metrics.physical_scans.to_string(),
        &metrics,
    ));

    // Workload 3: staggered duplicates in serve mode — the head opens
    // a fresh epoch group (the admission window holds its first scan
    // open until company arrives), the duplicates coalesce mid-stream.
    // The leader cannot retire before the first duplicate arrives (the
    // window blocks its first scan), so the structure is deterministic
    // even though the timings are not.
    let service = ServiceBuilder::new()
        .config(ServiceConfig {
            admission_window: Duration::from_secs(30),
            ..Default::default()
        })
        .tenant("default", inst.system.clone())
        .build();
    let (outcomes, metrics) = service.serve(|handle| {
        let head = handle.submit(iter(100)).expect("open");
        std::thread::sleep(Duration::from_millis(30));
        let rest: Vec<_> = (1..dups)
            .map(|_| handle.submit(iter(100)).expect("open"))
            .collect();
        let mut outcomes: Vec<QueryOutcome> = vec![head.wait().expect("served")];
        outcomes.extend(rest.into_iter().map(|t| t.wait().expect("served")));
        outcomes
    });
    assert_eq!(metrics.jobs, 1, "duplicates never run as their own jobs");
    assert_eq!(metrics.coalesced, dups - 1);
    assert_eq!(metrics.physical_scans, outcomes[0].logical_passes);
    assert!(outcomes.iter().all(|o| o.goal_met()));
    table.row(row_cells(
        "staggered dup burst (serve)",
        dups,
        metrics.physical_scans.to_string(),
        &metrics,
    ));

    table.note(format!(
        "planted n={n}, m={m}, k={k}; {dups} duplicates per spec, {groups} groups in workload 2"
    ));
    table.note("ratio = queries / jobs actually run (followers ride their leader's scans and CPU)");
    table.note(
        "serve burst: head submitted first, duplicates 30 ms later coalesce onto its in-flight job",
    );
    table.note(
        "recorded baseline (until coalescing became unconditional; full scale, available_parallelism 2): \
         the same 16 identical queries uncoalesced — 16 jobs, 0 coalesced, 5 scans, ratio 1.0x, \
         p50 1048.6 ms, 19.6 qps (the coalesced row of that run: p50 65.5 ms, 346.6 qps)",
    );
    table.note("timing columns (… ms, qps) are load-dependent; repro --check skips them");
    table
}
