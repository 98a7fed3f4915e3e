//! E23 — multi-tenant serving: cross-tenant admission fairness under
//! hot/cold load.
//!
//! Not a paper artifact: this experiment prices the PR 8 tenancy layer.
//! One process hosts two named repositories — a large "hot" tenant
//! flooded with multi-pass `iter` jobs and a small "cold" tenant asked
//! one query at a time — and the deficit-round-robin fairness gate must
//! keep the cold tenant's queue-wait p99 within 10× of its unloaded
//! baseline while the hot backlog is still draining. Without the gate
//! (or with a single shared lane), the cold probe would queue behind
//! the entire hot flood. The gate meters `(tenant, shard)` work units,
//! so both lanes' scans share the worker pool while it arbitrates.
//!
//! Three rows: the cold tenant served alone (the unloaded baseline),
//! the hot tenant under its own self-inflicted flood (the contrast —
//! its waits are the backlog's), and the cold tenant probed mid-flood.
//! The deterministic columns (tenants, queries, jobs, hits) are what
//! the CI gate re-verifies; every `wait …` column is timing-dependent
//! and skipped by `repro --check` as usual. The fairness bound and the
//! non-starvation check (the hot flood had not finished when the first
//! cold answer arrived) are asserted at runtime, so a regression fails
//! the run itself, not just the table diff.

use crate::{Scale, Table};
use sc_service::{QuerySpec, ServiceBuilder};
use sc_setsystem::gen;
use std::time::Duration;

fn iter(seed: u64) -> QuerySpec {
    QuerySpec::IterCover { delta: 0.5, seed }
}

/// Millisecond percentile over a batch of queue waits (nearest-rank).
fn pctl_ms(waits: &mut [Duration], q: f64) -> f64 {
    waits.sort_unstable();
    let rank = ((waits.len() as f64 * q / 100.0).ceil() as usize).max(1);
    waits[rank.min(waits.len()) - 1].as_secs_f64() * 1e3
}

/// Queue-wait floor for the fairness ratio: below this, both sides of
/// the division are scheduler noise and the ratio is meaningless.
const FLOOR_MS: f64 = 5.0;

/// Hot/cold fairness: a flooded tenant's backlog must not leak into a
/// quiet tenant's queue waits.
pub fn tenants(scale: Scale) -> Table {
    let mut table = Table::new(
        "E23 — multi-tenant serving: cold-tenant queue wait under a hot tenant's flood",
        &[
            "workload",
            "tenants",
            "queries",
            "jobs",
            "hits",
            "wait p50 ms",
            "wait p99 ms",
            "wait blowup vs unloaded",
        ],
    );
    let (hn, hm, hk) = scale.pick((1 << 9, 1 << 10, 8), (1 << 11, 1 << 12, 16));
    let (cn, cm, ck) = scale.pick((1 << 6, 1 << 7, 4), (1 << 7, 1 << 8, 4));
    let (hot_total, hot_quota, probes) = scale.pick((24usize, 8usize, 8usize), (96, 8, 16));
    let hot_inst = gen::planted(hn, hm, hk, 7);
    let cold_inst = gen::planted(cn, cm, ck, 9);

    // Unloaded baseline: the cold repository served alone, probed one
    // query at a time from a standing start.
    let solo = ServiceBuilder::new()
        .tenant("cold", cold_inst.system.clone())
        .build();
    let (mut unloaded, _) = solo.serve(|handle| {
        (0..probes as u64)
            .map(|seed| {
                handle
                    .submit(iter(seed))
                    .expect("submit")
                    .wait()
                    .expect("answered")
                    .queue_wait
            })
            .collect::<Vec<_>>()
    });
    let unloaded_p50 = pctl_ms(&mut unloaded, 50.0);
    let unloaded_p99 = pctl_ms(&mut unloaded, 99.0);
    table.row(vec![
        "cold tenant, unloaded".into(),
        "1".into(),
        probes.to_string(),
        probes.to_string(),
        "0".into(),
        format!("{unloaded_p50:.2}"),
        format!("{unloaded_p99:.2}"),
        "1.0x".into(),
    ]);

    // The contested run: flood the hot tenant, then probe the cold one
    // while the backlog drains.
    let service = ServiceBuilder::new()
        .tenant_with_quota("hot", hot_inst.system, hot_quota)
        .tenant("cold", cold_inst.system)
        .build();
    let ((mut hot_waits, mut cold_waits, hot_done_at_first_cold), metrics) =
        service.serve(|handle| {
            let cold = handle.with_tenant("cold").expect("tenant exists");
            let hot_tickets: Vec<_> = (0..hot_total as u64)
                .map(|seed| handle.submit(iter(seed)).expect("submit hot"))
                .collect();
            let mut cold_waits = Vec::with_capacity(probes);
            let mut hot_done_at_first_cold = 0u64;
            for seed in 0..probes as u64 {
                let outcome = cold
                    .submit(iter(seed))
                    .expect("submit cold")
                    .wait()
                    .expect("cold answered");
                if seed == 0 {
                    // How much of the flood had completed when the first
                    // cold answer landed — the non-starvation witness.
                    let (completed, _, _, _, _) = handle
                        .tenants()
                        .get("hot")
                        .expect("tenant exists")
                        .meta()
                        .counters()
                        .snapshot();
                    hot_done_at_first_cold = completed;
                }
                cold_waits.push(outcome.queue_wait);
            }
            let hot_waits: Vec<_> = hot_tickets
                .into_iter()
                .map(|t| t.wait().expect("hot answered").queue_wait)
                .collect();
            (hot_waits, cold_waits, hot_done_at_first_cold)
        });
    assert_eq!(metrics.queries_completed, hot_total + probes);
    assert_eq!(metrics.jobs, hot_total + probes, "distinct seeds never hit");
    assert!(
        (hot_done_at_first_cold as usize) < hot_total,
        "the flood drained before the first cold probe returned \
         ({hot_done_at_first_cold}/{hot_total}) — the contest never happened"
    );

    let hot_p50 = pctl_ms(&mut hot_waits, 50.0);
    let hot_p99 = pctl_ms(&mut hot_waits, 99.0);
    table.row(vec![
        "hot tenant, self-flooded".into(),
        "2".into(),
        hot_total.to_string(),
        hot_total.to_string(),
        "0".into(),
        format!("{hot_p50:.2}"),
        format!("{hot_p99:.2}"),
        format!("{:.1}x", hot_p99 / unloaded_p99.max(FLOOR_MS)),
    ]);

    let cold_p50 = pctl_ms(&mut cold_waits, 50.0);
    let cold_p99 = pctl_ms(&mut cold_waits, 99.0);
    let blowup = cold_p99.max(FLOOR_MS) / unloaded_p99.max(FLOOR_MS);
    assert!(
        blowup <= 10.0,
        "cold-tenant queue-wait p99 blew up {blowup:.1}x under the hot flood \
         (cold {cold_p99:.2} ms vs unloaded {unloaded_p99:.2} ms; bound 10x)"
    );
    table.row(vec![
        "cold tenant, mid-flood".into(),
        "2".into(),
        probes.to_string(),
        probes.to_string(),
        "0".into(),
        format!("{cold_p50:.2}"),
        format!("{cold_p99:.2}"),
        format!("{blowup:.1}x"),
    ]);

    table.note(format!(
        "hot planted n={hn}, m={hm}, k={hk} (quota {hot_quota}, {hot_total} queries); \
         cold planted n={cn}, m={cm}, k={ck} ({probes} sequential probes)"
    ));
    table.note(format!(
        "runtime-asserted: cold p99 within 10x of unloaded (floored at {FLOOR_MS} ms) \
         while the flood is live — {hot_done_at_first_cold}/{hot_total} hot queries \
         had finished when the first cold answer arrived"
    ));
    table.note("every `wait …` column is timing-dependent; repro --check skips them");
    table
}
