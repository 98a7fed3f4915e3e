//! Every query solved through `sc_service` must return the
//! bit-identical cover, logical pass count, and space peak as the same
//! query run solo via `IterSetCover` / `PartialIterSetCover` /
//! `StoreAllGreedy`.

use sc_core::baselines::StoreAllGreedy;
use sc_core::partial::{run_partial, PartialIterSetCover};
use sc_core::{IterSetCover, IterSetCoverConfig};
use sc_service::{QueryOutcome, QuerySpec, ServiceBuilder, ServiceConfig};
use sc_setsystem::{gen, SetSystem};
use sc_stream::run_reported;

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
            let r = run_reported(&mut StoreAllGreedy, system);
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

#[test]
fn single_queries_match_their_solo_runs() {
    let inst = gen::planted(512, 1024, 16, 11);
    let service = ServiceBuilder::new()
        .config(ServiceConfig::default())
        .tenant("default", inst.system.clone())
        .build();
    for spec in [
        QuerySpec::IterCover {
            delta: 0.5,
            seed: 7,
        },
        QuerySpec::IterCover {
            delta: 0.25,
            seed: 3,
        },
        QuerySpec::PartialCover {
            epsilon: 0.2,
            delta: 0.5,
            seed: 5,
        },
        QuerySpec::GreedyBaseline,
    ] {
        let (outcomes, _) = service.run_batch(&[spec]);
        assert_matches_solo(&outcomes[0], &inst.system, &spec.to_string());
        assert!(outcomes[0].goal_met(), "{spec}");
    }
}

#[test]
fn mixed_concurrent_batch_matches_solo_per_query() {
    let inst = gen::planted_noisy(300, 600, 10, 9);
    let service = ServiceBuilder::new()
        .config(ServiceConfig::default())
        .tenant("default", inst.system.clone())
        .build();
    let specs = vec![
        QuerySpec::IterCover {
            delta: 0.5,
            seed: 1,
        },
        QuerySpec::PartialCover {
            epsilon: 0.1,
            delta: 0.5,
            seed: 2,
        },
        QuerySpec::GreedyBaseline,
        QuerySpec::IterCover {
            delta: 0.25,
            seed: 4,
        },
        QuerySpec::PartialCover {
            epsilon: 0.4,
            delta: 1.0,
            seed: 6,
        },
        QuerySpec::IterCover {
            delta: 1.0,
            seed: 8,
        },
    ];
    let (outcomes, metrics) = service.run_batch(&specs);
    assert_eq!(outcomes.len(), specs.len());
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_eq!(outcome.spec, specs[i], "outcome order is submission order");
        assert_matches_solo(outcome, &inst.system, &format!("query {i} ({})", specs[i]));
    }
    // One shared walk per epoch: the group costs the max logical pass
    // count, not the sum.
    let max_passes = outcomes.iter().map(|o| o.logical_passes).max().unwrap();
    let sum_passes: usize = outcomes.iter().map(|o| o.logical_passes).sum();
    assert_eq!(metrics.physical_scans, max_passes);
    assert!(metrics.physical_scans < sum_passes);
}

#[test]
fn single_threaded_and_threaded_epochs_agree() {
    let inst = gen::planted(256, 512, 8, 3);
    let specs: Vec<QuerySpec> = (0..6)
        .map(|i| QuerySpec::IterCover {
            delta: 0.5,
            seed: i,
        })
        .collect();
    let threaded = ServiceBuilder::new()
        .config(ServiceConfig {
            workers: 4,
            ..Default::default()
        })
        .tenant("default", inst.system.clone())
        .build();
    let sequential = ServiceBuilder::new()
        .config(ServiceConfig {
            workers: 1,
            ..Default::default()
        })
        .tenant("default", inst.system.clone())
        .build();
    let (a, a_metrics) = threaded.run_batch(&specs);
    let (b, b_metrics) = sequential.run_batch(&specs);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cover, y.cover);
        assert_eq!(x.logical_passes, y.logical_passes);
        assert_eq!(x.space_words, y.space_words);
    }
    // Batch runs meter `(tenant, shard)` units on both fan-out paths:
    // every job absorbs every shard once per scan it rides, and the
    // tenant's live counter agrees with the run's metrics.
    let shards = inst
        .system
        .num_sets()
        .div_ceil(ServiceConfig::default().shard_size);
    let units: usize = a.iter().map(|o| o.logical_passes * shards).sum();
    for (service, metrics) in [(&threaded, &a_metrics), (&sequential, &b_metrics)] {
        assert_eq!(metrics.shard_grants, units);
        let (.., tenant_grants) = service
            .tenants()
            .default_tenant()
            .meta()
            .counters()
            .snapshot();
        assert_eq!(tenant_grants, units as u64);
    }
}

#[test]
fn single_set_shards_under_heavy_stealing_agree_with_solo() {
    // The smallest possible shard (one set) maximises work-stealing
    // interleavings across the worker pool; every observable must
    // still match the solo run bit for bit.
    let inst = gen::planted_noisy(300, 600, 10, 9);
    let service = ServiceBuilder::new()
        .config(ServiceConfig {
            workers: 8,
            shard_size: 1,
            ..Default::default()
        })
        .tenant("default", inst.system.clone())
        .build();
    let specs = vec![
        QuerySpec::IterCover {
            delta: 0.5,
            seed: 1,
        },
        QuerySpec::PartialCover {
            epsilon: 0.1,
            delta: 0.5,
            seed: 2,
        },
        QuerySpec::GreedyBaseline,
        QuerySpec::IterCover {
            delta: 0.25,
            seed: 4,
        },
    ];
    let (outcomes, _) = service.run_batch(&specs);
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_matches_solo(outcome, &inst.system, &format!("query {i} ({})", specs[i]));
    }
}

#[test]
fn mid_stream_admission_and_cache_hits_preserve_solo_observables() {
    let inst = gen::planted_noisy(300, 600, 10, 9);
    let specs = [
        QuerySpec::IterCover {
            delta: 0.5,
            seed: 1,
        },
        // Staggered into the head's first scan: a mid-stream join.
        QuerySpec::PartialCover {
            epsilon: 0.1,
            delta: 0.5,
            seed: 2,
        },
        // Submitted back-to-back with the joiner: after the first
        // join the scheduler drains without blocking, so this one
        // lands on whichever side of the scan the race yields —
        // mid-stream or boundary, the observables must be solo.
        QuerySpec::GreedyBaseline,
        // Repeat of the first spec: once query 0 retires, this is a
        // cache hit and must still report the solo observables.
        QuerySpec::IterCover {
            delta: 0.5,
            seed: 1,
        },
    ];
    // The stagger races the scheduler thread (a starved runner can let
    // the submissions land at the epoch boundary instead); retry a
    // couple of times rather than flake. Every attempt uses a fresh
    // service, so the solo-equivalence assertions below hold on
    // whichever attempt is accepted.
    let (outcomes, metrics) = (0..3)
        .find_map(|attempt| {
            let service = ServiceBuilder::new()
                .config(ServiceConfig {
                    // Catch the staggered submissions below inside the
                    // first scan of the fresh epoch group.
                    admission_window: std::time::Duration::from_secs(30),
                    ..Default::default()
                })
                .tenant("default", inst.system.clone())
                .build();
            let (outcomes, metrics) = service.serve(|handle| {
                let head = handle.submit(specs[0]).expect("open");
                std::thread::sleep(std::time::Duration::from_millis(150));
                let joiner = handle.submit(specs[1]).expect("open");
                let straggler = handle.submit(specs[2]).expect("open");
                let mut outcomes = vec![head.wait().expect("served")];
                outcomes.push(joiner.wait().expect("served"));
                outcomes.push(straggler.wait().expect("served"));
                // The repeat goes in only after query 0 completed, so
                // it is answered from the cache.
                outcomes.push(
                    handle
                        .submit(specs[3])
                        .expect("open")
                        .wait()
                        .expect("served"),
                );
                outcomes
            });
            if metrics.mid_stream_admissions >= 1 {
                Some((outcomes, metrics))
            } else {
                eprintln!("attempt {attempt}: scheduler outpaced, no mid-stream join");
                None
            }
        })
        .expect("a staggered query rode the in-flight scan in one of three attempts");
    assert_eq!(metrics.cache_hits, 1, "the repeat hit the cache");
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_matches_solo(outcome, &inst.system, &format!("query {i} ({})", specs[i]));
    }
    assert!(outcomes[3].cached);
    assert!(!outcomes[0].cached);
}

#[test]
fn telemetry_recording_never_perturbs_observables() {
    // Telemetry is observational only: the same batch with the gate off
    // and on must produce bit-identical covers, pass counts, and space
    // peaks, and each must match the solo run.
    let inst = gen::planted_noisy(300, 600, 10, 9);
    let specs = vec![
        QuerySpec::IterCover {
            delta: 0.5,
            seed: 1,
        },
        QuerySpec::PartialCover {
            epsilon: 0.1,
            delta: 0.5,
            seed: 2,
        },
        QuerySpec::GreedyBaseline,
        QuerySpec::IterCover {
            delta: 0.25,
            seed: 4,
        },
    ];
    let run = || {
        let service = ServiceBuilder::new()
            .config(ServiceConfig::default())
            .tenant("default", inst.system.clone())
            .build();
        service.run_batch(&specs).0
    };
    let quiet = run();
    let watched = {
        // The gate is process-global: serialize with other
        // gate-flipping tests while it is on.
        let _hold = sc_telemetry::test_hold();
        let was = sc_telemetry::enabled();
        sc_telemetry::set_enabled(true);
        let outcomes = run();
        sc_telemetry::set_enabled(was);
        outcomes
    };
    for (i, (q, w)) in quiet.iter().zip(&watched).enumerate() {
        assert_eq!(q.cover, w.cover, "query {i}: telemetry changed the cover");
        assert_eq!(q.logical_passes, w.logical_passes, "query {i}");
        assert_eq!(q.space_words, w.space_words, "query {i}");
        assert_eq!(q.covered, w.covered, "query {i}");
        assert_matches_solo(w, &inst.system, &format!("watched query {i}"));
    }
}

#[test]
fn uncoverable_instances_fail_cleanly() {
    let system = SetSystem::from_sets(4, vec![vec![0, 1], vec![1, 2]]);
    let service = ServiceBuilder::new()
        .config(ServiceConfig::default())
        .tenant("default", system.clone())
        .build();
    let (outcomes, _) = service.run_batch(&[
        QuerySpec::IterCover {
            delta: 0.5,
            seed: 0,
        },
        QuerySpec::PartialCover {
            epsilon: 0.3,
            delta: 0.5,
            seed: 0,
        },
    ]);
    assert!(!outcomes[0].goal_met(), "full cover cannot exist");
    assert_matches_solo(&outcomes[0], &system, "uncoverable full");
    // Whether the ε-partial run reaches its goal here depends on the
    // sampled elements (a sampled uncoverable element aborts a guess);
    // what matters is that the service reproduces the solo behaviour.
    assert_matches_solo(&outcomes[1], &system, "uncoverable partial");
    let (solo_cover, _, _) = solo(&outcomes[1].spec, &system);
    assert_eq!(outcomes[1].cover, solo_cover);
}

#[test]
fn repositories_smaller_than_one_shard_match_solo() {
    // A repository with no sets yields a scan with zero shards, so no
    // worker ever absorbs a last shard: every job's scan must still
    // end. One with fewer sets than a shard runs the whole scan as a
    // single unit per job.
    let specs = [
        QuerySpec::IterCover {
            delta: 0.5,
            seed: 3,
        },
        QuerySpec::PartialCover {
            epsilon: 0.2,
            delta: 0.5,
            seed: 4,
        },
        QuerySpec::GreedyBaseline,
    ];
    let repositories = [
        ("zero sets", SetSystem::from_sets(8, vec![])),
        (
            "three sets",
            SetSystem::from_sets(8, vec![vec![0, 1, 2, 3], vec![3, 4, 5], vec![5, 6, 7]]),
        ),
    ];
    for (name, system) in &repositories {
        for workers in [1, 2] {
            let service = ServiceBuilder::new()
                .config(ServiceConfig {
                    workers,
                    ..Default::default()
                })
                .tenant("default", system.clone())
                .build();
            let (outcomes, _) = service.run_batch(&specs);
            for outcome in &outcomes {
                assert_matches_solo(
                    outcome,
                    system,
                    &format!("{name}, run_batch, workers={workers}: {}", outcome.spec),
                );
            }
        }
        let service = ServiceBuilder::new()
            .config(ServiceConfig::default())
            .tenant("default", system.clone())
            .build();
        let (outcomes, _) = service.serve(|handle| {
            let tickets: Vec<_> = specs
                .iter()
                .map(|&spec| handle.submit(spec).expect("open"))
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().expect("served"))
                .collect::<Vec<_>>()
        });
        for outcome in &outcomes {
            assert_matches_solo(outcome, system, &format!("{name}, serve: {}", outcome.spec));
        }
    }
}
