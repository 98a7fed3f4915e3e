//! E17 — cover-query service: throughput and physical scans vs
//! concurrency.
//!
//! Not a paper artifact: this experiment tracks the serving layer's
//! scan sharing. `sc_service` admits concurrent queries into shared
//! scan epochs, so a group of queries costs the *maximum* of their
//! logical pass counts in physical repository scans rather than the
//! sum — the model's parallel-branch accounting
//! (`SetStream::absorb_parallel`), realised across independent
//! queries. Each query's own observables (cover, logical passes, space
//! peak) stay bit-identical to a solo run, pinned here by assertion and
//! in `sc-service`'s `service_equivalence` test. The headline columns
//! are physical scans (vs the sum of passes a non-batching server
//! would pay) and queries/second at concurrency 1 / 4 / 16, recorded in
//! `BENCH_service.json`. The concurrency rows run distinct seeds: the
//! service coalesces identical in-flight queries into one job, so
//! copies of one spec would measure coalescing (E19), not scan sharing
//! across jobs.

use crate::{Scale, Table};
use sc_core::{IterSetCover, IterSetCoverConfig};
use sc_service::{QuerySpec, ServiceBuilder, ServiceConfig};
use sc_setsystem::gen;
use sc_stream::{run_reported, RunReport};

/// The solo `iterSetCover(δ = 0.5)` run of `seed` — the reference each
/// service outcome must match bit for bit.
fn solo(system: &sc_setsystem::SetSystem, seed: u64) -> RunReport {
    let mut alg = IterSetCover::new(IterSetCoverConfig {
        delta: 0.5,
        seed,
        ..Default::default()
    });
    let report = run_reported(&mut alg, system);
    assert!(report.verified.is_ok());
    report
}

/// Runs distinct-seed `iterSetCover` queries at increasing concurrency
/// plus one mixed workload, measuring throughput and scan sharing.
pub fn service(scale: Scale) -> Table {
    let mut table = Table::new(
        "E17 — cover-query service: scan sharing and throughput vs concurrency",
        &[
            "workload",
            "clients",
            "physical scans",
            "naive scans",
            "sharing",
            "qps",
            "ms",
        ],
    );
    let (n, m, k) = scale.pick((1 << 12, 1 << 11, 16), (1 << 14, 1 << 13, 32));
    let inst = gen::planted(n, m, k, 42);
    let solos: Vec<RunReport> = (0..16).map(|seed| solo(&inst.system, seed)).collect();
    // Outcome cache off: this experiment measures *scan sharing*, so
    // every batch must actually run (the cache would answer the later
    // concurrency rows in zero scans — that effect is E18's subject).
    let service = ServiceBuilder::new()
        .config(ServiceConfig {
            cache_capacity: 0,
            ..Default::default()
        })
        .tenant("default", inst.system.clone())
        .build();

    for clients in [1usize, 4, 16] {
        let specs: Vec<QuerySpec> = (0..clients as u64)
            .map(|seed| QuerySpec::IterCover { delta: 0.5, seed })
            .collect();
        let (outcomes, metrics) = service.run_batch(&specs);
        assert_eq!(metrics.jobs, clients, "distinct seeds never coalesce");
        for (outcome, solo) in outcomes.iter().zip(&solos) {
            assert_eq!(outcome.cover, solo.cover, "service must match solo");
            assert_eq!(outcome.logical_passes, solo.passes);
            assert_eq!(outcome.space_words, solo.space_words);
        }
        let longest = outcomes.iter().map(|o| o.logical_passes).max().unwrap();
        assert_eq!(metrics.physical_scans, longest, "the group costs its max");
        let naive: usize = outcomes.iter().map(|o| o.logical_passes).sum();
        table.row(vec![
            "distinct-seed iter δ=0.5".into(),
            clients.to_string(),
            metrics.physical_scans.to_string(),
            naive.to_string(),
            format!(
                "{:.1}x",
                naive as f64 / metrics.physical_scans.max(1) as f64
            ),
            format!(
                "{:.1}",
                clients as f64 / metrics.elapsed.as_secs_f64().max(1e-9)
            ),
            format!("{:.1}", metrics.elapsed.as_secs_f64() * 1e3),
        ]);
    }

    // Mixed tenants: the group still costs its max, not its sum.
    let mixed: Vec<QuerySpec> = (0..12)
        .map(|i| match i % 3 {
            0 => QuerySpec::IterCover {
                delta: 0.5,
                seed: i,
            },
            1 => QuerySpec::PartialCover {
                epsilon: 0.2,
                delta: 0.5,
                seed: i,
            },
            _ => QuerySpec::GreedyBaseline,
        })
        .collect();
    let (outcomes, metrics) = service.run_batch(&mixed);
    let max_passes = outcomes.iter().map(|o| o.logical_passes).max().unwrap();
    let sum_passes: usize = outcomes.iter().map(|o| o.logical_passes).sum();
    assert_eq!(metrics.physical_scans, max_passes);
    table.row(vec![
        "mixed iter/partial/greedy".into(),
        mixed.len().to_string(),
        metrics.physical_scans.to_string(),
        sum_passes.to_string(),
        format!(
            "{:.1}x",
            sum_passes as f64 / metrics.physical_scans.max(1) as f64
        ),
        format!(
            "{:.1}",
            mixed.len() as f64 / metrics.elapsed.as_secs_f64().max(1e-9)
        ),
        format!("{:.1}", metrics.elapsed.as_secs_f64() * 1e3),
    ]);

    let (fewest, most) = (
        solos.iter().map(|r| r.passes).min().unwrap(),
        solos.iter().map(|r| r.passes).max().unwrap(),
    );
    let passes = if fewest == most {
        format!("{most}")
    } else {
        format!("{fewest}–{most}")
    };
    table.note(format!(
        "planted n={n}, m={m}, k={k}; the concurrency rows run iterSetCover(δ=0.5) seeds \
         0..clients, whose solo runs take {passes} logical passes each"
    ));
    table.note("naive scans = what a server running each query's scans separately would pay");
    table.note("every outcome is asserted bit-identical to its solo run (cover, passes, space)");
    table.note(
        "recorded baseline (until coalescing became unconditional; full scale): 1 / 4 / 16 \
         identical seed-7 queries cost 5 physical scans against 5 / 20 / 80 naive (1.0x / 4.0x / 16.0x)",
    );
    table.note(format!(
        "this run: available_parallelism {}, default workers {}, kernel backend {}; \
         qps and ms are timing columns, skipped by repro --check",
        std::thread::available_parallelism().map_or(1, usize::from),
        ServiceConfig::default().workers,
        sc_bitset::kernels::backend_name()
    ));
    table
}
