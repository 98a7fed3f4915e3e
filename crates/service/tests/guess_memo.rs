//! The per-generation guess memo: `iterSetCover` jobs replay the
//! seed-free guesses earlier queries on the same repository generation
//! recorded, every answer stays bit-identical to its solo run, replayed
//! guesses still ride their scans, and the memo is scoped to one
//! generation and bounded.

use sc_core::partial::{run_partial, PartialIterSetCover};
use sc_core::{IterSetCover, IterSetCoverConfig};
use sc_service::{LedgerEvent, QueryOutcome, QuerySpec, Service, ServiceBuilder, ServiceConfig};
use sc_setsystem::{gen, SetSystem};
use sc_stream::run_reported;

fn service(system: &SetSystem) -> Service {
    ServiceBuilder::new()
        .config(ServiceConfig {
            cache_capacity: 0,
            ..Default::default()
        })
        .tenant("default", system.clone())
        .build()
}

fn cfg(delta: f64, seed: u64) -> IterSetCoverConfig {
    IterSetCoverConfig {
        delta,
        seed,
        ..Default::default()
    }
}

fn assert_matches_solo(outcome: &QueryOutcome, system: &SetSystem) {
    let (cover, passes, space) = match outcome.spec {
        QuerySpec::IterCover { delta, seed } => {
            let r = run_reported(&mut IterSetCover::new(cfg(delta, seed)), system);
            (r.cover, r.passes, r.space_words)
        }
        QuerySpec::PartialCover {
            epsilon,
            delta,
            seed,
        } => {
            let mut alg = PartialIterSetCover::new(cfg(delta, seed));
            let r = run_partial(&mut alg, system, epsilon);
            (r.cover, r.passes, r.space_words)
        }
        QuerySpec::GreedyBaseline => unreachable!("no greedy queries here"),
    };
    let label = outcome.spec.to_string();
    assert_eq!(outcome.cover, cover, "{label}: covers differ");
    assert_eq!(outcome.logical_passes, passes, "{label}: passes differ");
    assert_eq!(outcome.space_words, space, "{label}: space peaks differ");
}

/// One full-cover and one ε-partial query per δ, all on `seed`.
fn batch(seed: u64) -> Vec<QuerySpec> {
    [0.25, 0.5, 1.0]
        .into_iter()
        .flat_map(|delta| {
            [
                QuerySpec::IterCover { delta, seed },
                QuerySpec::PartialCover {
                    epsilon: 0.1,
                    delta,
                    seed,
                },
            ]
        })
        .collect()
}

#[test]
fn a_second_batch_replays_and_still_matches_solo() {
    let inst = gen::planted(512, 1024, 16, 11);
    let service = service(&inst.system);
    let (first, m1) = service.run_batch(&batch(1));
    assert_eq!(m1.guess_replays, 0, "the memo starts empty");
    assert!(
        !service.generation().memo.is_empty(),
        "the first batch records"
    );
    let (second, m2) = service.run_batch(&batch(2));
    assert!(
        m2.guess_replays > 0,
        "distinct seeds replay seed-free guesses"
    );
    for outcome in first.iter().chain(&second) {
        assert_matches_solo(outcome, &inst.system);
    }
    let max_passes = second.iter().map(|o| o.logical_passes).max().unwrap();
    assert_eq!(
        m2.physical_scans, max_passes,
        "replayed guesses ride the batch's shared scans"
    );
    for outcome in &second {
        assert_eq!(outcome.epochs_joined, outcome.logical_passes);
    }
    let ledger = service.tenants().default_tenant().meta().counters();
    assert_eq!(
        ledger.get(LedgerEvent::GuessReplay),
        m2.guess_replays as u64
    );
}

#[test]
fn a_hot_swap_starts_the_new_generation_with_an_empty_memo() {
    let repo1 = gen::planted(512, 1024, 16, 5);
    let repo2 = gen::planted(512, 1024, 16, 6);
    let service = service(&repo1.system);
    service.run_batch(&batch(1));
    let old = service.generation();
    assert!(!old.memo.is_empty());
    service.install_repository(repo2.system.clone());
    let fresh = service.generation();
    assert_eq!(fresh.id, old.id + 1);
    assert!(
        fresh.memo.is_empty(),
        "a new generation records from scratch"
    );
    // The old generation's recorded guesses would replay this batch;
    // the new generation has none, so every guess runs live.
    let (outcomes, metrics) = service.run_batch(&batch(2));
    assert_eq!(metrics.guess_replays, 0);
    for outcome in &outcomes {
        assert_eq!(outcome.generation, fresh.id);
        assert_matches_solo(outcome, &repo2.system);
    }
    assert!(!fresh.memo.is_empty());
}

#[test]
fn a_flood_of_distinct_deltas_shares_one_entry_per_guess() {
    // n = 64 and δ just under 1: every one of the 7 guesses of every
    // query samples its whole residual. A seed-free guess's outcome
    // does not depend on δ, and neither does its memo key, so 200
    // distinct δ values record 7 entries, not 1400: the memo holds one
    // entry per guess, which bounds its size without any eviction.
    let inst = gen::planted(64, 96, 4, 3);
    let service = service(&inst.system);
    let specs: Vec<QuerySpec> = (0..200)
        .map(|i| QuerySpec::IterCover {
            delta: 1.0 - f64::from(i) * 1e-6,
            seed: 0,
        })
        .collect();
    let (outcomes, _) = service.run_batch(&specs);
    for outcome in &outcomes {
        assert_matches_solo(outcome, &inst.system);
    }
    assert_eq!(service.generation().memo.len(), 7);
    let (again, metrics) = service.run_batch(&specs[199..]);
    assert_eq!(metrics.guess_replays, 7);
    assert_matches_solo(&again[0], &inst.system);
}
