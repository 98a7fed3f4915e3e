//! Pass-aligned, non-blocking mid-stream admission: a query spliced
//! into a *later* pass of an in-flight epoch group (pass-2 joins
//! pass-2) must return the bit-identical cover, logical pass count,
//! and space peak as its solo run — under the default worker pool and
//! under single-set-shard work-stealing stress alike.

use sc_core::partial::{run_partial, PartialIterSetCover};
use sc_core::{IterSetCover, IterSetCoverConfig};
use sc_service::{
    LedgerEvent, QueryOutcome, QuerySpec, Service, ServiceBuilder, ServiceConfig, ServiceMetrics,
};
use sc_setsystem::{gen, SetSystem};
use sc_stream::run_reported;
use std::time::Duration;

/// (cover, logical passes, space words) of a query run solo.
fn solo(spec: &QuerySpec, system: &SetSystem) -> (Vec<u32>, usize, usize) {
    match *spec {
        QuerySpec::IterCover { delta, seed } => {
            let mut alg = IterSetCover::new(IterSetCoverConfig {
                delta,
                seed,
                ..Default::default()
            });
            let r = run_reported(&mut alg, system);
            (r.cover, r.passes, r.space_words)
        }
        QuerySpec::PartialCover {
            epsilon,
            delta,
            seed,
        } => {
            let mut alg = PartialIterSetCover::new(IterSetCoverConfig {
                delta,
                seed,
                ..Default::default()
            });
            let r = run_partial(&mut alg, system, epsilon);
            (r.cover, r.passes, r.space_words)
        }
        QuerySpec::GreedyBaseline => {
            let r = run_reported(&mut sc_core::baselines::StoreAllGreedy, system);
            (r.cover, r.passes, r.space_words)
        }
    }
}

fn assert_matches_solo(outcome: &QueryOutcome, system: &SetSystem, label: &str) {
    let (cover, passes, space) = solo(&outcome.spec, system);
    assert_eq!(outcome.cover, cover, "{label}: covers differ");
    assert_eq!(
        outcome.logical_passes, passes,
        "{label}: pass counts differ"
    );
    assert_eq!(outcome.space_words, space, "{label}: space peaks differ");
}

/// Staggered three-query serve run: the head opens a fresh group (the
/// window holds its first scan boundary), a helper splices into scan 1
/// and releases the window, and the late query lands somewhere inside
/// the now-running multi-pass group — a pass-aligned (group pass ≥ 2)
/// splice when the race is won. Returns the outcomes and metrics.
fn staggered_run(service: &Service, late_gap: Duration) -> (Vec<QueryOutcome>, ServiceMetrics) {
    let specs = [
        // Multi-pass head: keeps the group alive across many scans.
        QuerySpec::IterCover {
            delta: 0.3,
            seed: 7,
        },
        // Scan-1 splicer: releases the admission window.
        QuerySpec::GreedyBaseline,
        // The pass-aligned candidate: arrives while the group is past
        // its first scan.
        QuerySpec::IterCover {
            delta: 0.5,
            seed: 8,
        },
    ];
    service.serve(|handle| {
        let head = handle.submit(specs[0]).expect("open");
        std::thread::sleep(Duration::from_millis(100));
        let helper = handle.submit(specs[1]).expect("open");
        std::thread::sleep(late_gap);
        let late = handle.submit(specs[2]).expect("open");
        vec![
            head.wait().expect("served"),
            helper.wait().expect("served"),
            late.wait().expect("served"),
        ]
    })
}

#[test]
fn pass_2_joiner_is_bit_identical_to_its_solo_run() {
    // A wide repository (many sets over a small universe) makes the
    // scan fan-out the bulk of every epoch, so closed-loop
    // resubmissions keep landing while later scans of the long-lived
    // group are in flight — pass-aligned splices, at debug and
    // release speeds alike (the E20 workload shape). Retry rather
    // than flake on a starved runner; the solo-equivalence assertions
    // run on the accepted attempt.
    let inst = gen::planted(512, 16384, 8, 11);
    let deltas = [0.5, 0.7, 1.0];
    let (clients, per_client) = (3u64, 6u64);
    let (outcomes, metrics) = (0..10)
        .find_map(|attempt| {
            let service = ServiceBuilder::new()
                .config(ServiceConfig {
                    workers: 1,
                    shard_size: 64,
                    ..Default::default()
                })
                .tenant("default", inst.system.clone())
                .build();
            let (outcomes, metrics) = service.serve(|handle| {
                std::thread::scope(|s| {
                    let joins: Vec<_> = (0..clients)
                        .map(|c| {
                            let handle = handle.clone();
                            let delta = deltas[c as usize % deltas.len()];
                            s.spawn(move || {
                                (0..per_client)
                                    .map(|q| {
                                        // Deterministic think time
                                        // decorrelates arrivals from
                                        // epoch boundaries.
                                        std::thread::sleep(Duration::from_millis(
                                            (c * 7 + q * 5) % 9,
                                        ));
                                        handle
                                            .submit(QuerySpec::IterCover {
                                                delta,
                                                seed: c * 1000 + q,
                                            })
                                            .expect("open")
                                            .wait()
                                            .expect("served")
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    joins
                        .into_iter()
                        .flat_map(|j| j.join().expect("client thread"))
                        .collect::<Vec<_>>()
                })
            });
            if metrics.aligned_joins >= 1 {
                Some((outcomes, metrics))
            } else {
                eprintln!("attempt {attempt}: no pass-aligned join this round");
                None
            }
        })
        .expect("a resubmission spliced into pass ≥ 2 in one of ten attempts");
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_matches_solo(
            outcome,
            &inst.system,
            &format!("query {i} ({})", outcome.spec),
        );
        // No query ever rode an epoch without advancing a pass: a
        // spliced joiner's first epoch is the very scan it joined.
        assert_eq!(outcome.epochs_joined, outcome.logical_passes);
        assert!(!outcome.cached && !outcome.coalesced);
    }
    assert_eq!(outcomes.len(), (clients * per_client) as usize);
    assert!(metrics.mid_stream_admissions >= metrics.aligned_joins);
}

#[test]
fn spliced_joiners_under_single_set_shard_stealing_stay_bit_identical() {
    // shard_size=1 maximises work-stealing interleavings while the
    // non-blocking accept drains and splices arrivals; observables
    // must stay solo bit for bit regardless of where each arrival
    // lands (spliced or boundary).
    let inst = gen::planted_noisy(400, 800, 10, 9);
    let specs: Vec<QuerySpec> = vec![
        QuerySpec::IterCover {
            delta: 0.4,
            seed: 1,
        },
        QuerySpec::PartialCover {
            epsilon: 0.1,
            delta: 0.5,
            seed: 2,
        },
        QuerySpec::GreedyBaseline,
        QuerySpec::IterCover {
            delta: 0.5,
            seed: 3,
        },
        QuerySpec::PartialCover {
            epsilon: 0.3,
            delta: 0.5,
            seed: 4,
        },
    ];
    let (outcomes, metrics) = (0..10)
        .find_map(|attempt| {
            let service = ServiceBuilder::new()
                .config(ServiceConfig {
                    workers: 8,
                    shard_size: 1,
                    admission_window: Duration::from_secs(30),
                    ..Default::default()
                })
                .tenant("default", inst.system.clone())
                .build();
            let (outcomes, metrics) = service.serve(|handle| {
                let head = handle.submit(specs[0]).expect("open");
                std::thread::sleep(Duration::from_millis(80));
                let rest: Vec<_> = specs[1..]
                    .iter()
                    .map(|s| handle.submit(*s).expect("open"))
                    .collect();
                let mut outcomes = vec![head.wait().expect("served")];
                outcomes.extend(rest.into_iter().map(|t| t.wait().expect("served")));
                outcomes
            });
            for (i, outcome) in outcomes.iter().enumerate() {
                assert_matches_solo(outcome, &inst.system, &format!("query {i} ({})", specs[i]));
            }
            if metrics.mid_stream_admissions >= 1 {
                Some((outcomes, metrics))
            } else {
                eprintln!("attempt {attempt}: scheduler outpaced, all joined at the boundary");
                None
            }
        })
        .expect("at least one arrival spliced mid-stream in one of ten attempts");
    assert_eq!(outcomes.len(), specs.len());
    assert!(metrics.queries_completed == specs.len());
}

#[test]
fn telemetry_ledger_bounds_aligned_joins_by_mid_stream_admissions() {
    // Process-global telemetry: hold the lock while the gate is on (see
    // the identical note in the coalesce suite). Observables must stay
    // solo-identical with telemetry recording — the layer is
    // observational only.
    let _hold = sc_telemetry::test_hold();
    let was = sc_telemetry::enabled();
    sc_telemetry::set_enabled(true);

    let inst = gen::planted(512, 1024, 16, 3);
    let service = ServiceBuilder::new()
        .config(ServiceConfig {
            admission_window: Duration::from_secs(30),
            ..Default::default()
        })
        .tenant("default", inst.system.clone())
        .build();
    let (outcomes, metrics) = staggered_run(&service, Duration::ZERO);
    sc_telemetry::set_enabled(was);

    for (i, outcome) in outcomes.iter().enumerate() {
        assert_matches_solo(
            outcome,
            &inst.system,
            &format!("telemetry-on query {i} ({})", outcome.spec),
        );
    }
    // The run's own ledger: a pass-aligned join IS a mid-stream
    // admission that landed past pass 1, so it can never outnumber
    // them; and every completion is accounted for.
    assert!(metrics.aligned_joins <= metrics.mid_stream_admissions);
    assert_eq!(
        metrics.queries_completed,
        metrics.jobs + metrics.cache_hits + metrics.coalesced
    );

    // The service's ledger saw exactly this run.
    let ledger = service.tenants().default_tenant().meta().counters();
    assert_eq!(
        ledger.get(LedgerEvent::MidStreamAdmission),
        metrics.mid_stream_admissions as u64
    );
    assert_eq!(
        ledger.get(LedgerEvent::AlignedJoin),
        metrics.aligned_joins as u64
    );
    assert_eq!(
        ledger.get(LedgerEvent::Completed),
        metrics.queries_completed as u64
    );
}

#[test]
fn full_window_with_armed_deadline_defers_without_livelock() {
    // One slot + an armed admission window + a distinct (neither
    // cached nor coalescible) arrival: the arrival must be deferred to
    // the next boundary once, not cycled between the backlog and the
    // splice until the end of time. The deadline watch pulls from the
    // channel only, so the window expires normally and both queries
    // complete.
    let inst = gen::planted(256, 512, 8, 3);
    let service = ServiceBuilder::new()
        .config(ServiceConfig {
            max_inflight: 1,
            admission_window: Duration::from_millis(250),
            ..Default::default()
        })
        .tenant("default", inst.system.clone())
        .build();
    let (outcomes, metrics) = service.serve(|handle| {
        let a = handle
            .submit(QuerySpec::IterCover {
                delta: 0.5,
                seed: 1,
            })
            .expect("open");
        let b = handle.submit(QuerySpec::GreedyBaseline).expect("open");
        vec![a.wait().expect("served"), b.wait().expect("served")]
    });
    assert_eq!(metrics.queries_completed, 2);
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_matches_solo(outcome, &inst.system, &format!("deferred query {i}"));
    }
    assert!(metrics.max_inflight_seen <= 1, "the slot bound held");
}

#[test]
fn a_freed_slot_is_refilled_before_the_next_scan() {
    // Two slots, three queries: the one-pass greedy query retires after
    // scan 1, and the deferred third query takes its slot for scan 2 —
    // not a scan later. A batch runs the serve lane's loop, so this
    // pins the serve-mode refill deterministically.
    let inst = gen::planted(256, 512, 8, 3);
    let service = ServiceBuilder::new()
        .tenant("default", inst.system.clone())
        .max_inflight(2)
        .build();
    let specs = [
        QuerySpec::GreedyBaseline,
        QuerySpec::IterCover {
            delta: 0.5,
            seed: 1,
        },
        QuerySpec::IterCover {
            delta: 0.3,
            seed: 2,
        },
    ];
    let (outcomes, metrics) = service.run_batch(&specs);
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_matches_solo(outcome, &inst.system, &format!("query {i}"));
    }
    let (greedy, head, deferred) = (&outcomes[0], &outcomes[1], &outcomes[2]);
    assert_eq!(greedy.logical_passes, 1);
    assert!(
        deferred.logical_passes >= head.logical_passes,
        "the deferred query outlives the head, so its start shows in the scan count"
    );
    assert_eq!(metrics.physical_scans, 1 + deferred.logical_passes);
    assert_eq!(metrics.max_inflight_seen, 2);
}
