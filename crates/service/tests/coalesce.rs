//! In-flight query coalescing: K identical concurrent queries must run
//! as ONE job — one job's per-scan CPU, K replies, one cache insert —
//! with every reply carrying the bit-identical solo observables, and
//! the cache always taking precedence over coalescing.

use sc_core::{IterSetCover, IterSetCoverConfig};
use sc_service::{
    CachedAnswer, LedgerEvent, OutcomeCache, QuerySpec, ServiceBuilder, ServiceConfig,
};
use sc_setsystem::gen;
use sc_stream::run_reported;
use std::sync::Arc;
use std::time::Duration;

fn iter(seed: u64) -> QuerySpec {
    QuerySpec::IterCover { delta: 0.5, seed }
}

fn coalescing() -> ServiceConfig {
    ServiceConfig {
        coalesce: true,
        ..Default::default()
    }
}

#[test]
fn k_identical_inflight_queries_run_as_one_job() {
    let inst = gen::planted(512, 1024, 16, 11);
    let mut solo_alg = IterSetCover::new(IterSetCoverConfig {
        delta: 0.5,
        seed: 7,
        ..Default::default()
    });
    let solo = run_reported(&mut solo_alg, &inst.system);

    let k = 8;
    let service = ServiceBuilder::new()
        .config(coalescing())
        .tenant("default", inst.system.clone())
        .build();
    let (outcomes, metrics) = service.run_batch(&vec![iter(7); k]);

    // One job's per-scan CPU: a single job ran, everyone else rode it.
    assert_eq!(metrics.jobs, 1, "K identical queries must run as one job");
    assert_eq!(metrics.coalesced, k - 1);
    assert_eq!(metrics.cache_hits, 0);
    assert_eq!(
        metrics.cache_misses, 1,
        "only the leader looked up as a job"
    );
    assert_eq!(metrics.queries_completed, k);
    assert_eq!(
        metrics.physical_scans, solo.passes,
        "the group costs one query's physical scans"
    );
    // One cache insert: the job retired once, so exactly one entry.
    assert_eq!(service.cache().len(), 1);

    // K replies, each bit-identical to the solo run.
    assert_eq!(outcomes.len(), k);
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.id, i as u64, "outcomes stay in submission order");
        assert_eq!(o.cover, solo.cover, "query {i}: cover differs from solo");
        assert_eq!(o.logical_passes, solo.passes);
        assert_eq!(o.space_words, solo.space_words);
        assert!(o.goal_met());
        assert!(!o.cached);
        assert_eq!(o.coalesced, i > 0, "only followers are flagged coalesced");
    }
}

#[test]
fn distinct_specs_coalesce_per_group() {
    let inst = gen::planted(256, 512, 8, 5);
    let service = ServiceBuilder::new()
        .config(coalescing())
        .tenant("default", inst.system.clone())
        .build();
    // 3 groups × 4 duplicates, interleaved the way concurrent clients
    // would submit them.
    let specs: Vec<QuerySpec> = (0..12u64).map(|i| iter(i % 3)).collect();
    let (outcomes, metrics) = service.run_batch(&specs);
    assert_eq!(metrics.jobs, 3, "one job per distinct spec");
    assert_eq!(metrics.coalesced, 9);
    assert!(outcomes.iter().all(|o| o.goal_met()));
    // Duplicates mirror their group's leader exactly.
    for (i, o) in outcomes.iter().enumerate() {
        let leader = &outcomes[i % 3];
        assert_eq!(o.cover, leader.cover);
        assert_eq!(o.logical_passes, leader.logical_passes);
        assert_eq!(o.space_words, leader.space_words);
    }
    // Scan sharing still holds across the three leaders.
    let max_passes = outcomes.iter().map(|o| o.logical_passes).max().unwrap();
    assert_eq!(metrics.physical_scans, max_passes);
}

#[test]
fn mid_stream_identical_joiner_coalesces_never_double_runs() {
    let inst = gen::planted(512, 1024, 16, 11);
    let mut solo_alg = IterSetCover::new(IterSetCoverConfig {
        delta: 0.5,
        seed: 7,
        ..Default::default()
    });
    let solo = run_reported(&mut solo_alg, &inst.system);

    let service = ServiceBuilder::new()
        .config(ServiceConfig {
            coalesce: true,
            // Hold the head's first scan open so the duplicate below
            // arrives while the head's job is in flight.
            admission_window: Duration::from_secs(30),
            ..Default::default()
        })
        .tenant("default", inst.system.clone())
        .build();
    let ((a, b), metrics) = service.serve(|handle| {
        let ta = handle.submit(iter(7)).expect("open");
        std::thread::sleep(Duration::from_millis(100));
        // Identical spec while the first is in flight: must coalesce
        // (or, had the scheduler not started yet, coalesce at the
        // boundary) — in no interleaving may it run as a second job.
        let tb = handle.submit(iter(7)).expect("open");
        (ta.wait().expect("served"), tb.wait().expect("served"))
    });
    assert_eq!(metrics.jobs, 1, "the duplicate never runs as its own job");
    assert_eq!(metrics.coalesced, 1);
    assert_eq!(metrics.cache_hits, 0, "nothing had retired to hit");
    assert_eq!(metrics.queries_completed, 2);
    assert_eq!(metrics.physical_scans, solo.passes);
    for o in [&a, &b] {
        assert_eq!(o.cover, solo.cover);
        assert_eq!(o.logical_passes, solo.passes);
        assert_eq!(o.space_words, solo.space_words);
    }
    assert!(!a.coalesced);
    assert!(b.coalesced);
}

#[test]
fn cache_hit_takes_precedence_over_coalescing() {
    let inst = gen::planted(256, 512, 8, 3);
    let cache = Arc::new(OutcomeCache::new(16));
    let service = ServiceBuilder::new()
        .config(coalescing())
        .shared_cache(cache.clone())
        .tenant("default", inst.system.clone())
        .build();

    let ((), metrics) = service.serve(|handle| {
        // Leader admitted on a cache miss; the window below would hold
        // its scan open, but no window is configured, so it just runs.
        let ta = handle.submit(iter(9)).expect("open");
        let first = ta.wait().expect("served");
        assert!(!first.cached);
        // The entry now exists; an identical query must be answered
        // from the cache in zero scans, not coalesced onto anything.
        let tb = handle.submit(iter(9)).expect("open");
        let second = tb.wait().expect("served");
        assert!(second.cached, "a retired answer beats every other path");
        assert!(!second.coalesced);
        assert_eq!(second.cover, first.cover);
    });
    assert_eq!(metrics.cache_hits, 1);
    assert_eq!(metrics.coalesced, 0);
    assert_eq!(metrics.jobs, 1);
}

#[test]
fn shared_cache_answer_beats_an_inflight_identical_job() {
    // The only way an identical spec can be BOTH in flight and in the
    // cache is a cache shared with another service (the in-flight job
    // itself required a miss to start). Stage exactly that and pin the
    // precedence: the cached answer wins, the in-flight job is not
    // grown.
    let inst = gen::planted(512, 1024, 16, 11);
    let cache = Arc::new(OutcomeCache::new(16));
    let service = ServiceBuilder::new()
        .config(ServiceConfig {
            coalesce: true,
            // Keep the head's first scan open so the job is still in
            // flight when the duplicate arrives. A cache hit does not
            // close the window (only joiners and followers do), so the
            // scheduler waits out the rest of it — keep it short.
            admission_window: Duration::from_millis(1500),
            ..Default::default()
        })
        .shared_cache(cache.clone())
        .tenant("default", inst.system.clone())
        .build();
    let mut solo_alg = IterSetCover::new(IterSetCoverConfig {
        delta: 0.5,
        seed: 7,
        ..Default::default()
    });
    let solo = run_reported(&mut solo_alg, &inst.system);

    let ((a, b), metrics) = service.serve(|handle| {
        let ta = handle.submit(iter(7)).expect("open");
        std::thread::sleep(Duration::from_millis(100));
        // Another service (here: the test) publishes the answer into
        // the shared cache while our job is mid-flight.
        let generation = service.generation();
        cache.insert(
            generation.tenant.id(),
            generation.fingerprint,
            generation.system.universe(),
            generation.system.num_sets(),
            &iter(7),
            CachedAnswer {
                cover: solo.cover.clone(),
                covered: generation.system.universe(),
                required: generation.system.universe(),
                logical_passes: solo.passes,
                space_words: solo.space_words,
            },
        );
        let tb = handle.submit(iter(7)).expect("open");
        (ta.wait().expect("served"), tb.wait().expect("served"))
    });
    assert!(b.cached, "the shared-cache answer wins over coalescing");
    assert!(!b.coalesced);
    assert_eq!(b.cover, solo.cover);
    assert_eq!(metrics.coalesced, 0);
    assert_eq!(metrics.jobs, 1);
    assert_eq!(
        a.cover, solo.cover,
        "the in-flight job still completes solo"
    );
}

#[test]
fn coalescing_is_off_by_default() {
    let inst = gen::planted(256, 512, 8, 5);
    // Cache off so repeats cannot be answered that way either: every
    // copy must run as its own job, exactly the pre-coalescing path.
    let service = ServiceBuilder::new()
        .config(ServiceConfig {
            cache_capacity: 0,
            ..Default::default()
        })
        .tenant("default", inst.system.clone())
        .build();
    let (outcomes, metrics) = service.run_batch(&[iter(1); 4]);
    assert_eq!(metrics.jobs, 4);
    assert_eq!(metrics.coalesced, 0);
    assert!(outcomes.iter().all(|o| !o.coalesced));
    // Scan sharing (not coalescing) still makes the group cheap.
    assert_eq!(metrics.physical_scans, outcomes[0].logical_passes);
}

#[test]
fn telemetry_ledger_reconciles_with_coalescing_metrics() {
    // The gate, stages, and journal are process-global: hold the
    // telemetry lock while the gate is on. The query ledger is the
    // service's own, so it is asserted exactly against both runs.
    let _hold = sc_telemetry::test_hold();
    let was = sc_telemetry::enabled();
    sc_telemetry::set_enabled(true);

    let inst = gen::planted(256, 512, 8, 5);
    let service = ServiceBuilder::new()
        .config(coalescing())
        .tenant("default", inst.system.clone())
        .build();
    let specs: Vec<QuerySpec> = (0..12u64).map(|i| iter(i % 3)).collect();
    // First wave: 3 leaders + 9 followers. Second wave: all 12 answered
    // from the cache — every completion class is exercised.
    let (_, wave1) = service.run_batch(&specs);
    let (_, wave2) = service.run_batch(&specs);

    sc_telemetry::set_enabled(was);

    for (label, m) in [("wave 1", &wave1), ("wave 2", &wave2)] {
        assert_eq!(
            m.queries_completed,
            m.jobs + m.cache_hits + m.coalesced,
            "{label}: every completion is exactly one of job / cache hit / follower"
        );
    }
    assert_eq!((wave1.jobs, wave1.coalesced, wave1.cache_hits), (3, 9, 0));
    assert_eq!((wave2.jobs, wave2.coalesced, wave2.cache_hits), (0, 0, 12));

    let ledger = service.tenants().default_tenant().meta().counters();
    let runs = |f: fn(&sc_service::ServiceMetrics) -> usize| (f(&wave1) + f(&wave2)) as u64;
    assert_eq!(
        ledger.get(LedgerEvent::Submitted),
        runs(|m| m.queries_completed)
    );
    assert_eq!(
        ledger.get(LedgerEvent::Completed),
        runs(|m| m.queries_completed)
    );
    assert_eq!(ledger.get(LedgerEvent::Job), runs(|m| m.jobs));
    assert_eq!(ledger.get(LedgerEvent::Coalesced), runs(|m| m.coalesced));
    assert_eq!(ledger.get(LedgerEvent::CacheHit), runs(|m| m.cache_hits));
}

#[test]
fn followers_beyond_max_inflight_do_not_occupy_slots() {
    let inst = gen::planted(256, 512, 8, 5);
    let service = ServiceBuilder::new()
        .config(ServiceConfig {
            max_inflight: 2,
            coalesce: true,
            cache_capacity: 0,
            ..Default::default()
        })
        .tenant("default", inst.system.clone())
        .build();
    // Two distinct leaders fill both slots; every duplicate coalesces
    // without needing a slot of its own, so the whole batch clears in
    // one admission wave.
    let specs: Vec<QuerySpec> = (0..10u64).map(|i| iter(i % 2)).collect();
    let (outcomes, metrics) = service.run_batch(&specs);
    assert_eq!(metrics.jobs, 2);
    assert_eq!(metrics.coalesced, 8);
    assert!(metrics.max_inflight_seen <= 2);
    assert!(outcomes.iter().all(|o| o.goal_met()));
}
