//! E22 — telemetry overhead: the same service workloads with the
//! process-wide gate off and on.
//!
//! Not a paper artifact: this experiment prices the observability layer
//! (`sc_telemetry` counters, stage spans, and the query journal wired
//! through `sc_service`, `sc_stream`, and the `sc_bitset` kernels).
//! Each workload row runs its batch `reps` times with telemetry
//! disabled (timing phase A), then — after a registry reset — `reps`
//! times with telemetry enabled (phase B), and reports both wall-clocks
//! plus their ratio. The design target is ≤2% overhead at full scale:
//! an un-enabled site costs one relaxed atomic load, an enabled one a
//! sharded relaxed fetch-add (counters), a clock read (spans), or a
//! short mutex push (journal events, bounded per query lifecycle).
//! The per-tenant query ledger is always on, so both phases pay it.
//!
//! The deterministic columns — scans, jobs, hits, coalesced, the
//! journal event total, and the kernel-call total — are what the CI
//! gate re-verifies; they double as an end-to-end proof that the
//! ledger reconciles with `ServiceMetrics` exactly. Kernel calls are
//! reported as avx2+scalar combined, which is backend-independent (the
//! dispatch count does not depend on which arm serves it), so the
//! committed baseline holds on runners without AVX2. Timing columns
//! (`… ms`, the `speedup` ratio) are machine-dependent and skipped by
//! `repro --check` as usual.

use crate::{Scale, Table};
use sc_service::{QuerySpec, ServiceBuilder, ServiceConfig, ServiceMetrics};
use sc_setsystem::{gen, SetSystem};
use std::time::Instant;

fn iter(seed: u64) -> QuerySpec {
    QuerySpec::IterCover { delta: 0.5, seed }
}

/// Counter values summed into a comparable snapshot.
fn counters() -> std::collections::BTreeMap<&'static str, u64> {
    sc_telemetry::registered_counters().into_iter().collect()
}

/// Runs `reps` fresh services, each over every batch of `batches` in
/// turn, returning the elapsed wall-clock and the last service's
/// merged metrics, after checking that each service's query ledger
/// counted exactly its runs' completions, jobs, cache hits, followers,
/// and shard grants. Each service runs on a thread of its own, as
/// `run_batch` works its lane on the calling thread: the join waits
/// for that thread's exit, which flushes its thread-local
/// kernel-counter batch, so the registry holds every call by the time
/// the caller reads it (a batch left on a long-lived thread would
/// shift the count by up to 1023 calls).
fn run_phase(
    system: &SetSystem,
    cfg: &ServiceConfig,
    batches: &[Vec<QuerySpec>],
    reps: usize,
) -> (f64, ServiceMetrics) {
    let start = Instant::now();
    let mut last = None;
    for _ in 0..reps {
        let rep = || {
            let service = ServiceBuilder::new()
                .config(*cfg)
                .tenant("default", system.clone())
                .build();
            let mut m = ServiceMetrics::default();
            for batch in batches {
                m.merge(&service.run_batch(batch).1);
            }
            let ledger = service.tenants().default_tenant().meta().counters();
            let counted = [
                m.queries_completed,
                m.jobs,
                m.cache_hits,
                m.coalesced,
                m.shard_grants,
            ];
            assert_eq!(
                <[u64; 5]>::from(ledger.snapshot()),
                counted.map(|n| n as u64)
            );
            m
        };
        last = Some(std::thread::scope(|s| {
            s.spawn(rep).join().expect("rep panicked")
        }));
    }
    (
        start.elapsed().as_secs_f64() * 1e3,
        last.expect("reps >= 1"),
    )
}

/// Prices the telemetry layer: disabled-vs-enabled wall-clock per
/// workload, with the enabled run's ledger tabulated alongside.
pub fn observability(scale: Scale) -> Table {
    let mut table = Table::new(
        "E22 — telemetry overhead: gate off vs on over the service workloads",
        &[
            "workload",
            "queries",
            "scans",
            "jobs",
            "hits",
            "coalesced",
            "events",
            "kernel calls",
            "off ms",
            "on ms",
            "on/off speedup",
        ],
    );
    let (n, m, k) = scale.pick((1 << 10, 1 << 9, 8), (1 << 13, 1 << 12, 16));
    let (reps, unique_q, wave, repeat_q) = scale.pick((2, 6, 3, 10), (3, 16, 8, 32));
    let inst = gen::planted(n, m, k, 42);

    // Repeats: a first batch (wave 1) runs one job that its copies
    // coalesce onto and fills the cache; the second batch's copies all
    // hit it.
    let workloads: Vec<(&str, Vec<Vec<QuerySpec>>, ServiceConfig)> = vec![
        (
            "unique iter seeds",
            vec![(0..unique_q as u64).map(iter).collect()],
            ServiceConfig::default(),
        ),
        (
            "repeats beyond wave 1",
            vec![vec![iter(0); wave], vec![iter(0); repeat_q - wave]],
            ServiceConfig::default(),
        ),
        (
            "duplicates, cache off",
            vec![(0..repeat_q as u64).map(|i| iter(i % 3)).collect()],
            ServiceConfig {
                cache_capacity: 0,
                ..Default::default()
            },
        ),
    ];

    let mut worst_ratio = 1.0f64;
    for (name, batches, cfg) in &workloads {
        sc_telemetry::set_enabled(false);
        // Untimed warm-up: first touch of the cloned repository and the
        // thread pool would otherwise land entirely on the off phase.
        run_phase(&inst.system, cfg, batches, 1);
        let (off_ms, quiet) = run_phase(&inst.system, cfg, batches, reps);

        sc_telemetry::reset();
        sc_telemetry::set_enabled(true);
        let before = counters();
        let (on_ms, metrics) = run_phase(&inst.system, cfg, batches, reps);
        let (events, _) = sc_telemetry::journal_stats();
        let after = counters();
        sc_telemetry::set_enabled(false);

        // Recording is observational only: both phases ran the exact
        // same schedule.
        assert_eq!(quiet.physical_scans, metrics.physical_scans);
        assert_eq!(quiet.jobs, metrics.jobs);
        assert_eq!(quiet.cache_hits, metrics.cache_hits);
        let delta = |name: &str| {
            after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
        };
        let queries: usize = batches.iter().map(Vec::len).sum();
        assert_eq!(metrics.queries_completed, queries);
        assert_eq!(
            metrics.queries_completed,
            metrics.jobs + metrics.cache_hits + metrics.coalesced
        );
        if *name == "repeats beyond wave 1" {
            assert_eq!(metrics.jobs, 1, "wave 1 is one job");
            assert_eq!(metrics.cache_hits, repeat_q - wave, "every later copy hits");
        }
        let kernel_calls =
            delta("sc_kernel_calls_avx2_total") + delta("sc_kernel_calls_scalar_total");

        let ratio = off_ms / on_ms.max(1e-9);
        worst_ratio = worst_ratio.min(ratio);
        table.row(vec![
            name.to_string(),
            queries.to_string(),
            metrics.physical_scans.to_string(),
            metrics.jobs.to_string(),
            metrics.cache_hits.to_string(),
            metrics.coalesced.to_string(),
            events.to_string(),
            kernel_calls.to_string(),
            format!("{off_ms:.1}"),
            format!("{on_ms:.1}"),
            format!("{ratio:.2}x"),
        ]);
    }

    table.note(format!(
        "planted n={n}, m={m}, k={k}; each phase runs its batches {reps}× on a fresh service"
    ));
    table.note(format!(
        "repeats: a batch of {wave} copies of one spec, then {} more that hit the cache; \
         scans/jobs/hits/coalesced are the last enabled service's ServiceMetrics; \
         events and kernel calls are enabled-phase totals across all reps",
        repeat_q - wave
    ));
    table.note(format!(
        "on/off speedup < 1.00x is telemetry overhead; worst this run: {:.1}% \
         (target ≤ 2% at full scale)",
        (1.0 / worst_ratio.max(1e-9) - 1.0) * 100.0
    ));
    table.note("timing columns (… ms, speedup) are machine-dependent; repro --check skips them");
    table
}
