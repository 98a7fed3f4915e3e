//! E25 — shard-granular cross-tenant interleaving: aggregate
//! throughput of K narrow tenants whose fan-outs run concurrently.
//!
//! Not a paper artifact: this experiment prices the PR 10 scheduling
//! change. The fairness gate's unit is one `(tenant, shard)` work item:
//! each granted lane's scan runs its own workers over its own feed
//! cursor (`sc_stream::FeedCursor`), the deficit-round-robin gate meters
//! shard units across lanes, and K narrow tenants (quota 1) advance
//! concurrently instead of serializing into K single-consumer
//! fan-outs.
//!
//! Three rows: the K-tenant flood, then the E23-style cold-tenant probe
//! — unloaded baseline and mid-flood — to re-assert the starvation
//! bound under the shard grant unit. The deterministic columns
//! (tenants, queries, jobs, passes) are what the CI gate re-verifies;
//! `wall ms` / `agg qps` / `wait p99 ms` / `wait blowup` columns are
//! timing-dependent and skipped by `repro --check` as usual.
//! Bit-identity against solo runs, the per-tenant shard-grant
//! accounting, and the 10x cold-wait bound are asserted at runtime, so
//! a regression fails the run itself, not just the table diff.

use crate::{Scale, Table};
use sc_service::{QuerySpec, ServiceBuilder};
use sc_setsystem::{gen, Instance};
use std::time::{Duration, Instant};

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

/// Distinct per-tenant query batch: tenant `t` asks seeds
/// `t*q .. t*q+q`, so no two jobs in the flood coalesce or hit cache.
fn tenant_specs(t: usize, q: usize) -> Vec<QuerySpec> {
    (0..q).map(|i| iter((t * q + i) as u64)).collect()
}

/// `(cover, logical passes, space words)` per query, run solo through
/// `run_batch` on a fresh single-tenant service — the bit-identity
/// reference the flood must reproduce exactly.
fn solo_reference(inst: &Instance, specs: &[QuerySpec]) -> Vec<(Vec<u32>, usize, usize)> {
    let service = ServiceBuilder::new()
        .tenant("solo", inst.system.clone())
        .build();
    let (outcomes, _) = service.run_batch(specs);
    outcomes
        .into_iter()
        .map(|o| (o.cover, o.logical_passes, o.space_words))
        .collect()
}

/// Floods K narrow tenants concurrently and returns `(wall, aggregate
/// logical passes, shard grants)`, asserting every answer bit-identical
/// to its solo reference.
fn flood(
    insts: &[Instance],
    q: usize,
    reference: &[Vec<(Vec<u32>, usize, usize)>],
) -> (Duration, usize, usize) {
    let mut builder = ServiceBuilder::new();
    for (t, inst) in insts.iter().enumerate() {
        builder = builder.tenant_with_quota(format!("t{t}"), inst.system.clone(), 1);
    }
    let service = builder.build();
    let (elapsed, metrics) = {
        let (answered, metrics) = service.serve(|handle| {
            let lanes: Vec<_> = (0..insts.len())
                .map(|t| handle.with_tenant(&format!("t{t}")).expect("tenant exists"))
                .collect();
            let start = Instant::now();
            // Submit round-robin across tenants so every lane's queue
            // fills before the first epoch retires.
            let tickets: Vec<_> = (0..q)
                .flat_map(|i| {
                    lanes
                        .iter()
                        .enumerate()
                        .map(move |(t, lane)| {
                            (t, lane.submit(iter((t * q + i) as u64)).expect("submit"))
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            let answered: Vec<_> = tickets
                .into_iter()
                .map(|(t, ticket)| (t, ticket.wait().expect("answered")))
                .collect();
            (start.elapsed(), answered)
        });
        let (elapsed, answered) = answered;
        let mut passes = 0usize;
        for (t, outcome) in answered {
            let i = outcome.spec_seed_index(t, q);
            let (cover, solo_passes, solo_space) = &reference[t][i];
            assert_eq!(&outcome.cover, cover, "t{t} seed {i}: cover drifted");
            assert_eq!(outcome.logical_passes, *solo_passes, "t{t} seed {i}");
            assert_eq!(outcome.space_words, *solo_space, "t{t} seed {i}");
            passes += outcome.logical_passes;
        }
        (elapsed, (passes, metrics))
    };
    let (passes, metrics) = metrics;
    assert_eq!(metrics.jobs, insts.len() * q, "distinct seeds never hit");
    assert!(metrics.shard_grants > 0, "shard granting metered no units");
    // Every tenant absorbed at least one unit through the shared
    // cursor — the per-tenant counter surface E25 pins.
    for t in 0..insts.len() {
        let (_, _, _, _, grants) = service
            .tenants()
            .get(&format!("t{t}"))
            .expect("tenant exists")
            .meta()
            .counters()
            .snapshot();
        assert!(grants > 0, "t{t} recorded no shard grants");
    }
    (elapsed, passes, metrics.shard_grants)
}

/// Maps an outcome back to its index in the tenant's spec batch.
trait SeedIndex {
    fn spec_seed_index(&self, tenant: usize, q: usize) -> usize;
}

impl SeedIndex for sc_service::QueryOutcome {
    fn spec_seed_index(&self, tenant: usize, q: usize) -> usize {
        match self.spec {
            QuerySpec::IterCover { seed, .. } => seed as usize - tenant * q,
            _ => unreachable!("the flood submits IterCover only"),
        }
    }
}

/// Shard-granular interleaving: K narrow tenants, their fan-outs
/// metered per shard by one gate.
pub fn interleave(scale: Scale) -> Table {
    let mut table = Table::new(
        "E25 — shard-granular cross-tenant interleaving: K narrow tenants, one fan-out",
        &[
            "workload",
            "tenants",
            "queries",
            "jobs",
            "passes",
            "wall ms",
            "agg qps",
            "wait p99 ms",
            "wait blowup",
        ],
    );
    let (k, q) = scale.pick((3usize, 8usize), (8, 6));
    let (n, m, sets_k) = scale.pick((1 << 8, 1 << 9, 8), (1 << 10, 1 << 11, 16));
    let insts: Vec<Instance> = (0..k)
        .map(|t| gen::planted(n, m, sets_k, 100 + t as u64))
        .collect();
    let reference: Vec<Vec<(Vec<u32>, usize, usize)>> = insts
        .iter()
        .enumerate()
        .map(|(t, inst)| solo_reference(inst, &tenant_specs(t, q)))
        .collect();

    let (wall, passes, shard_grants) = flood(&insts, q, &reference);
    let total = k * q;
    table.row(vec![
        format!("{k}-tenant flood"),
        k.to_string(),
        total.to_string(),
        total.to_string(),
        passes.to_string(),
        format!("{:.1}", wall.as_secs_f64() * 1e3),
        format!("{:.0}", total as f64 / wall.as_secs_f64().max(1e-9)),
        "-".into(),
        "-".into(),
    ]);

    // The E23 starvation bound, re-asserted under the finer grant
    // unit: a cold tenant probed mid-flood must stay within 10x of
    // its unloaded queue-wait p99.
    let (cn, cm, ck) = scale.pick((1 << 6, 1 << 7, 4), (1 << 7, 1 << 8, 4));
    let probes = scale.pick(8usize, 16);
    let cold_inst = gen::planted(cn, cm, ck, 9);
    let solo = ServiceBuilder::new()
        .tenant("cold", cold_inst.system.clone())
        .build();
    let ((mut unloaded, unloaded_passes), _) = solo.serve(|handle| {
        let mut passes = 0usize;
        let waits = (0..probes as u64)
            .map(|seed| {
                let o = handle
                    .submit(iter(seed))
                    .expect("submit")
                    .wait()
                    .expect("answered");
                passes += o.logical_passes;
                o.queue_wait
            })
            .collect::<Vec<_>>();
        (waits, passes)
    });
    let unloaded_p99 = pctl_ms(&mut unloaded, 99.0);
    table.row(vec![
        "cold tenant, unloaded".into(),
        "1".into(),
        probes.to_string(),
        probes.to_string(),
        unloaded_passes.to_string(),
        "-".into(),
        "-".into(),
        format!("{unloaded_p99:.2}"),
        "1.0x".into(),
    ]);

    let mut builder = ServiceBuilder::new();
    for (t, inst) in insts.iter().enumerate() {
        builder = builder.tenant_with_quota(format!("t{t}"), inst.system.clone(), 1);
    }
    let service = builder.tenant("cold", cold_inst.system).build();
    let ((mut cold_waits, cold_passes, flood_done_at_first), metrics) = service.serve(|handle| {
        let cold = handle.with_tenant("cold").expect("tenant exists");
        let flood_tickets: Vec<_> = (0..k)
            .flat_map(|t| {
                let lane = handle.with_tenant(&format!("t{t}")).expect("tenant exists");
                tenant_specs(t, q)
                    .into_iter()
                    .map(move |spec| lane.submit(spec).expect("submit flood"))
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut waits = Vec::with_capacity(probes);
        let mut passes = 0usize;
        let mut flood_done_at_first = 0u64;
        for seed in 0..probes as u64 {
            let outcome = cold
                .submit(iter(seed))
                .expect("submit cold")
                .wait()
                .expect("cold answered");
            if seed == 0 {
                // How much of the flood had completed when the first
                // cold answer landed — the non-starvation witness.
                flood_done_at_first = (0..k)
                    .map(|t| {
                        handle
                            .tenants()
                            .get(&format!("t{t}"))
                            .expect("tenant exists")
                            .meta()
                            .counters()
                            .snapshot()
                            .0
                    })
                    .sum();
            }
            passes += outcome.logical_passes;
            waits.push(outcome.queue_wait);
        }
        for t in flood_tickets {
            assert!(t.wait().expect("flood answered").goal_met());
        }
        (waits, passes, flood_done_at_first)
    });
    assert_eq!(metrics.queries_completed, total + probes);
    assert!(
        (flood_done_at_first as usize) < total,
        "the flood drained before the first cold probe returned \
         ({flood_done_at_first}/{total}) — the contest never happened"
    );
    let cold_p99 = pctl_ms(&mut cold_waits, 99.0);
    let blowup = cold_p99.max(FLOOR_MS) / unloaded_p99.max(FLOOR_MS);
    assert!(
        blowup <= 10.0,
        "cold-tenant queue-wait p99 blew up {blowup:.1}x under the shard-interleaved \
         flood (cold {cold_p99:.2} ms vs unloaded {unloaded_p99:.2} ms; bound 10x)"
    );
    table.row(vec![
        "cold tenant, mid-flood".into(),
        (k + 1).to_string(),
        probes.to_string(),
        probes.to_string(),
        cold_passes.to_string(),
        "-".into(),
        "-".into(),
        format!("{cold_p99:.2}"),
        format!("{blowup:.1}x"),
    ]);

    table.note(format!(
        "{k} narrow tenants (quota 1) over planted n={n}, m={m}, k={sets_k}, \
         {q} distinct iter queries each; cold planted n={cn}, m={cm}, k={ck} \
         ({probes} sequential probes); {shard_grants} shard units metered in the shard flood"
    ));
    table.note(format!(
        "runtime-asserted: every flood answer bit-identical to its solo run; >0 shard \
         units metered per tenant; cold p99 within 10x of unloaded (floored at \
         {FLOOR_MS} ms) while the flood is live — {flood_done_at_first}/{total} flood \
         queries had finished when the first cold answer arrived"
    ));
    table.note(
        "recorded baseline (live code until e0a6bf3; run once there, full scale, \
         available_parallelism 2, kernel backend avx2): the same 8-tenant flood under \
         epoch-granular granting (one tenant's whole epoch holds the gate) — 48 queries, \
         240 passes, 325.9 ms wall, 147 agg qps; the shard flood of that run: 359.8 ms, \
         133 agg qps (0.9x of epoch)",
    );
    table.note("every `wall/qps/wait` column is timing-dependent and skipped by repro --check");
    table
}
