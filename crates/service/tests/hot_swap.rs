//! Repository lifecycle: hot swaps serve the new generation to new
//! queries, drain in-flight queries on their original generation, and
//! never leak an answer across generations — the dead generation's
//! cache entries are reaped and every outcome is tagged with the
//! generation it was answered from.

use sc_core::{IterSetCover, IterSetCoverConfig};
use sc_service::{
    CachedAnswer, LedgerEvent, OutcomeCache, QuerySpec, Service, ServiceBuilder, ServiceConfig,
    ServiceMetrics,
};
use sc_setsystem::{gen, SetSystem};
use sc_stream::run_reported;
use std::sync::Arc;

fn iter(seed: u64) -> QuerySpec {
    QuerySpec::IterCover { delta: 0.5, seed }
}

fn solo_cover(system: &SetSystem, seed: u64) -> Vec<u32> {
    let mut alg = IterSetCover::new(IterSetCoverConfig {
        delta: 0.5,
        seed,
        ..Default::default()
    });
    run_reported(&mut alg, system).cover
}

#[test]
fn hot_swap_answers_from_the_new_generation_with_zero_stale_answers() {
    // Same dimensions, different content: a stale answer would be
    // wrong (and, being a different planted instance, visibly so).
    let repo1 = gen::planted(512, 1024, 16, 5);
    let repo2 = gen::planted(512, 1024, 16, 6);
    let (solo1, solo2) = (solo_cover(&repo1.system, 9), solo_cover(&repo2.system, 9));
    assert_ne!(solo1, solo2, "the two generations answer differently");

    let service = ServiceBuilder::new()
        .config(ServiceConfig::default())
        .tenant("default", repo1.system.clone())
        .build();
    let ((before, generation, after), metrics) = service.serve(|handle| {
        let before = handle
            .submit(iter(9))
            .expect("open")
            .wait()
            .expect("served");
        let generation = handle
            .reload(repo2.system.clone())
            .expect("open")
            .wait()
            .expect("swapped");
        let after = handle
            .submit(iter(9))
            .expect("open")
            .wait()
            .expect("served");
        (before, generation, after)
    });

    assert_eq!(before.generation, 1);
    assert_eq!(before.cover, solo1);
    assert_eq!(generation, 2, "the reload ticket names the new generation");
    assert_eq!(after.generation, 2);
    assert_eq!(after.cover, solo2, "answered from the new repository");
    assert!(
        !after.cached,
        "the identical spec must not hit the dead generation's entry"
    );
    assert_eq!(metrics.reloads, 1);
    // The dead generation's cache entry was reaped eagerly.
    assert_eq!(metrics.reload_evictions, 1);
    assert_eq!(metrics.evictions, 1, "the reap is the run's only eviction");
    assert_eq!(service.cache().len(), 1, "only the new generation's entry");
    assert_eq!(service.generation().id, 2);
}

#[test]
fn in_flight_queries_drain_on_their_original_generation() {
    let repo1 = gen::planted(1024, 2048, 16, 5);
    let repo2 = gen::planted(1024, 2048, 16, 6);
    let (solo1, solo2) = (solo_cover(&repo1.system, 3), solo_cover(&repo2.system, 3));

    let service = ServiceBuilder::new()
        .config(ServiceConfig::default())
        .tenant("default", repo1.system.clone())
        .build();
    let ((a, b), metrics) = service.serve(|handle| {
        // A enters the pipeline, then the reload lands right behind it
        // (with overwhelming probability while A is still scanning),
        // then B with the identical spec. Whatever the interleaving, A
        // was submitted before the reload and B after it — the
        // pipeline guarantees A answers from generation 1 and B from
        // generation 2.
        let ta = handle.submit(iter(3)).expect("open");
        let reload = handle.reload(repo2.system.clone()).expect("open");
        let tb = handle.submit(iter(3)).expect("open");
        assert_eq!(reload.wait().expect("swapped"), 2);
        (ta.wait().expect("served"), tb.wait().expect("served"))
    });

    assert_eq!((a.generation, b.generation), (1, 2));
    assert_eq!(a.cover, solo1, "drained on its original generation");
    assert_eq!(b.cover, solo2, "served by the new generation");
    assert!(!b.cached, "no answer crossed the swap");
    assert_eq!(metrics.reloads, 1);
    assert_eq!(metrics.queries_completed, 2);
}

#[test]
fn telemetry_ledger_tracks_reloads_and_survives_a_swap() {
    // Process-global telemetry: hold the lock while the gate is on (see
    // the identical note in the coalesce suite).
    let _hold = sc_telemetry::test_hold();
    let was = sc_telemetry::enabled();
    sc_telemetry::set_enabled(true);

    let repo1 = gen::planted(512, 1024, 16, 5);
    let repo2 = gen::planted(512, 1024, 16, 6);
    let (solo1, solo2) = (solo_cover(&repo1.system, 9), solo_cover(&repo2.system, 9));
    let service = ServiceBuilder::new()
        .config(ServiceConfig::default())
        .tenant("default", repo1.system.clone())
        .build();
    let ((a, b), metrics) = service.serve(|handle| {
        let a = handle
            .submit(iter(9))
            .expect("open")
            .wait()
            .expect("served");
        assert_eq!(
            handle.reload(repo2.system.clone()).expect("open").wait(),
            Ok(2)
        );
        let b = handle
            .submit(iter(9))
            .expect("open")
            .wait()
            .expect("served");
        (a, b)
    });

    sc_telemetry::set_enabled(was);

    // Recording changed nothing about the answers.
    assert_eq!(a.cover, solo1);
    assert_eq!(b.cover, solo2, "answered from the new repository");
    assert_eq!(
        metrics.queries_completed,
        metrics.jobs + metrics.cache_hits + metrics.coalesced
    );
    assert_eq!(metrics.reloads, 1);

    let ledger = service.tenants().default_tenant().meta().counters();
    assert_eq!(ledger.get(LedgerEvent::Reload), 1);
    // The swap reaped generation 1's cache entry, and the reap is on
    // the ledger.
    assert_eq!(
        ledger.get(LedgerEvent::ReloadEviction),
        metrics.reload_evictions as u64
    );
    assert!(metrics.reload_evictions >= 1);
    assert_eq!(
        ledger.get(LedgerEvent::Completed),
        metrics.queries_completed as u64
    );
    assert_eq!(ledger.get(LedgerEvent::Job), metrics.jobs as u64);
}

#[test]
fn install_repository_swaps_between_batches_and_reaps_the_cache() {
    let repo1 = gen::planted(256, 512, 8, 5);
    let repo2 = gen::planted(256, 512, 8, 6);
    let service = ServiceBuilder::new()
        .config(ServiceConfig::default())
        .tenant("default", repo1.system.clone())
        .build();

    let (first, m1) = service.run_batch(&[iter(1)]);
    assert_eq!(first[0].generation, 1);
    assert_eq!((m1.cache_hits, m1.cache_misses), (0, 1));
    assert_eq!(service.cache().len(), 1);

    let fresh = service.install_repository(repo2.system.clone());
    assert_eq!(fresh.id, 2);
    assert!(service.cache().is_empty(), "generation 1's entry reaped");

    let (second, m2) = service.run_batch(&[iter(1)]);
    assert_eq!(second[0].generation, 2);
    assert!(m2.physical_scans > 0, "no stale zero-scan answer");
    assert_eq!(second[0].cover, solo_cover(&repo2.system, 1));
}

#[test]
fn swapping_does_not_reap_a_shared_cache() {
    use sc_service::OutcomeCache;
    use std::sync::Arc;
    // Two services share one cache and serve the same repository; one
    // of them swapping away must not delete the entries the other is
    // still hitting — its generation keeps the fingerprint alive.
    let repo = gen::planted(256, 512, 8, 5);
    let other = gen::planted(256, 512, 8, 6);
    let cache = Arc::new(OutcomeCache::new(16));
    let a = ServiceBuilder::new()
        .config(ServiceConfig::default())
        .shared_cache(cache.clone())
        .tenant("default", repo.system.clone())
        .build();
    let b = ServiceBuilder::new()
        .config(ServiceConfig::default())
        .shared_cache(cache.clone())
        .tenant("default", repo.system.clone())
        .build();

    let (_, mb) = b.run_batch(&[iter(4)]);
    assert_eq!(mb.cache_misses, 1);
    a.install_repository(other.system.clone());
    assert_eq!(cache.len(), 1, "B's entry survives A's swap");
    let (again, mb2) = b.run_batch(&[iter(4)]);
    assert!(again[0].cached, "B still hits after A swapped away");
    assert_eq!(mb2.physical_scans, 0);
    assert_eq!((mb.evictions, mb2.evictions), (0, 0), "nothing was evicted");
}

#[test]
fn reloading_identical_content_keeps_the_cache_warm() {
    let repo = gen::planted(256, 512, 8, 5);
    let service = ServiceBuilder::new()
        .config(ServiceConfig::default())
        .tenant("default", repo.system.clone())
        .build();
    let (_, m1) = service.run_batch(&[iter(2)]);
    assert_eq!(m1.cache_misses, 1);

    // Same content ⇒ same fingerprint: the generation id advances but
    // the cached answers stay valid (and reachable).
    let fresh = service.install_repository(repo.system.clone());
    assert_eq!(fresh.id, 2);
    assert_eq!(service.cache().len(), 1, "nothing reaped");

    let (again, m2) = service.run_batch(&[iter(2)]);
    assert!(again[0].cached, "the entry survived the same-content swap");
    assert_eq!(m2.physical_scans, 0);
    assert_eq!(again[0].generation, 2, "reported under the live generation");
}

/// Every count a run reports, plus its physical scans.
fn counts(m: &ServiceMetrics) -> [usize; 13] {
    [
        m.queries_completed,
        m.jobs,
        m.cache_hits,
        m.cache_misses,
        m.coalesced,
        m.mid_stream_admissions,
        m.aligned_joins,
        m.shard_grants,
        m.reloads,
        m.evictions,
        m.capacity_evictions,
        m.reload_evictions,
        m.physical_scans,
    ]
}

#[test]
fn each_run_reports_only_its_own_share_of_the_ledger() {
    let repo1 = gen::planted(256, 512, 8, 5);
    let repo2 = gen::planted(256, 512, 8, 6);
    let repo3 = gen::planted(256, 512, 8, 7);
    // One slot: a duplicate behind the leader
    // follows it, and a duplicate behind a different job waits for a
    // slot and then hits the leader's cached answer.
    let cfg = ServiceConfig {
        max_inflight: 1,
        ..Default::default()
    };
    let build = |system: &SetSystem, cache: Option<OutcomeCache>| {
        let builder = ServiceBuilder::new()
            .config(cfg)
            .tenant("default", system.clone());
        match cache {
            Some(cache) => builder.shared_cache(Arc::new(cache)),
            None => builder,
        }
        .build()
    };
    let wave1 = [iter(1), iter(1), iter(2), iter(1)];
    let serve_with_reload = |service: &Service| {
        service
            .serve(|handle| {
                handle
                    .submit(iter(3))
                    .expect("open")
                    .wait()
                    .expect("served");
                let swap = handle.reload(repo2.system.clone()).expect("open");
                assert_eq!(swap.wait(), Ok(2));
                handle
                    .submit(iter(3))
                    .expect("open")
                    .wait()
                    .expect("served");
            })
            .1
    };
    let wave4 = [iter(4), iter(4), iter(5)];

    let service = build(&repo1.system, None);
    let (answers1, m1) = service.run_batch(&wave1);
    let m2 = serve_with_reload(&service);
    service.install_repository(repo3.system.clone());
    let (_, m4) = service.run_batch(&wave4);
    assert_eq!((m1.jobs, m1.coalesced, m1.cache_hits), (2, 1, 1));
    assert_eq!((m2.jobs, m2.reloads), (2, 1));
    assert!(
        m2.reload_evictions >= 3,
        "the swap reaped wave 1's entries too"
    );
    assert_eq!((m4.jobs, m4.coalesced), (2, 1));

    // The same runs, each alone on a fresh service in the same state:
    // the serve starts from wave 1's cache entries, and the last batch
    // starts on the installed repository, whose fingerprint nothing
    // cached.
    let (_, alone1) = build(&repo1.system, None).run_batch(&wave1);
    let warm = OutcomeCache::new(cfg.cache_capacity);
    let fingerprint = OutcomeCache::fingerprint(&repo1.system);
    for o in answers1.iter().filter(|o| !o.cached && !o.coalesced) {
        let answer = CachedAnswer {
            cover: o.cover.clone(),
            covered: o.covered,
            required: o.required,
            logical_passes: o.logical_passes,
            space_words: o.space_words,
        };
        let (n, m) = (repo1.system.universe(), repo1.system.num_sets());
        warm.insert(0, fingerprint, n, m, &o.spec, answer);
    }
    let alone2 = serve_with_reload(&build(&repo1.system, Some(warm)));
    let (_, alone4) = build(&repo3.system, None).run_batch(&wave4);
    assert_eq!(counts(&m1), counts(&alone1), "batch");
    assert_eq!(counts(&m2), counts(&alone2), "serve with a reload");
    assert_eq!(counts(&m4), counts(&alone4), "batch after an install");

    // `!repos` reports the tenant's ledger: the sum over the runs.
    let mut out = Vec::new();
    let (_, idle) = service.serve(|handle| {
        sc_service::net::pump_queries(&b"!repos\n"[..], &mut out, &handle).expect("pump")
    });
    assert_eq!(
        counts(&idle)[..13],
        [0; 13],
        "a run without queries counts nothing"
    );
    let runs = [&m1, &m2, &m4];
    let sum = |f: fn(&ServiceMetrics) -> usize| runs.iter().map(|m| f(m)).sum::<usize>();
    let expected = format!(
        "completed={} jobs={} cache_hits={} coalesced={} shard_grants={}",
        sum(|m| m.queries_completed),
        sum(|m| m.jobs),
        sum(|m| m.cache_hits),
        sum(|m| m.coalesced),
        sum(|m| m.shard_grants),
    );
    let listing = String::from_utf8(out).expect("utf-8");
    assert!(listing.contains(&expected), "{expected} not in {listing:?}");
}
