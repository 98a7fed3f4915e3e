//! The cross-query outcome cache: repeats answer in zero physical
//! scans with bit-identical observables, and the repository
//! fingerprint in the cache key keeps different repositories apart.

use sc_service::{OutcomeCache, QuerySpec, ServiceBuilder, ServiceConfig};
use sc_setsystem::gen;
use std::sync::Arc;

fn spec(seed: u64) -> QuerySpec {
    QuerySpec::IterCover { delta: 0.5, seed }
}

#[test]
fn repeat_queries_hit_in_zero_physical_scans_with_identical_results() {
    let inst = gen::planted(512, 1024, 16, 11);
    let service = ServiceBuilder::new()
        .config(ServiceConfig::default())
        .tenant("default", inst.system.clone())
        .build();

    let (first, m1) = service.run_batch(&[spec(7)]);
    assert_eq!((m1.cache_hits, m1.cache_misses), (0, 1));
    assert!(m1.physical_scans > 0);
    assert!(!first[0].cached);

    // The same query again: answered from the cache — the run's
    // ScanLedger never performs a physical scan.
    let (again, m2) = service.run_batch(&[spec(7)]);
    assert_eq!((m2.cache_hits, m2.cache_misses), (1, 0));
    assert_eq!(m2.physical_scans, 0, "a cache hit costs zero scans");
    assert!(again[0].cached);
    assert_eq!(again[0].cover, first[0].cover, "bit-identical cover");
    assert_eq!(again[0].logical_passes, first[0].logical_passes);
    assert_eq!(again[0].space_words, first[0].space_words);
    assert_eq!(again[0].covered, first[0].covered);
    assert_eq!(again[0].required, first[0].required);
    assert_eq!(again[0].epochs_joined, 0);
}

#[test]
fn later_waves_of_a_batch_hit_the_cache() {
    let inst = gen::planted(256, 512, 8, 5);
    let service = ServiceBuilder::new()
        .config(ServiceConfig {
            max_inflight: 2,
            ..Default::default()
        })
        .tenant("default", inst.system.clone())
        .build();
    // Wave 1 fills both slots with two distinct specs, so the third
    // spec finds neither a slot nor an identical in-flight leader and
    // defers the rest of the batch. By the time the repeats behind it
    // are disposed of, their originals have retired: all three are
    // answered from the cache instead of coalescing.
    let specs = [spec(3), spec(4), spec(5), spec(3), spec(4), spec(3)];
    let (outcomes, metrics) = service.run_batch(&specs);
    assert_eq!(metrics.cache_misses, 3);
    assert_eq!(metrics.cache_hits, 3);
    assert_eq!(metrics.coalesced, 0);
    assert_eq!(metrics.queries_completed, 6);
    for o in &outcomes[3..] {
        let original = &outcomes[specs.iter().position(|s| *s == o.spec).unwrap()];
        assert!(o.cached);
        assert_eq!(o.cover, original.cover);
        assert_eq!(o.logical_passes, original.logical_passes);
        assert_eq!(o.space_words, original.space_words);
    }
    assert!(outcomes[..3].iter().all(|o| !o.cached));
}

#[test]
fn differing_repository_fingerprint_misses() {
    let a = gen::planted(256, 512, 8, 5);
    let b = gen::planted(256, 512, 8, 6); // same shape, different data
    assert_ne!(
        OutcomeCache::fingerprint(&a.system),
        OutcomeCache::fingerprint(&b.system)
    );
    let shared = Arc::new(OutcomeCache::new(64));
    let service_a = ServiceBuilder::new()
        .config(ServiceConfig::default())
        .shared_cache(shared.clone())
        .tenant("default", a.system.clone())
        .build();
    let service_b = ServiceBuilder::new()
        .config(ServiceConfig::default())
        .shared_cache(shared.clone())
        .tenant("default", b.system.clone())
        .build();

    let (from_a, _) = service_a.run_batch(&[spec(9)]);
    // The same spec against a different repository must not reuse A's
    // answer: the fingerprint differs, so it is a miss and runs fresh.
    let (from_b, mb) = service_b.run_batch(&[spec(9)]);
    assert_eq!((mb.cache_hits, mb.cache_misses), (0, 1));
    assert!(mb.physical_scans > 0, "B really scanned its repository");
    assert!(!from_b[0].cached);
    assert_ne!(from_a[0].cover, from_b[0].cover, "different repositories");

    // Same repository + shared cache across service instances: hit.
    let service_a2 = ServiceBuilder::new()
        .config(ServiceConfig::default())
        .shared_cache(shared)
        .tenant("default", a.system.clone())
        .build();
    let (again, ma2) = service_a2.run_batch(&[spec(9)]);
    assert_eq!((ma2.cache_hits, ma2.cache_misses), (1, 0));
    assert_eq!(ma2.physical_scans, 0);
    assert_eq!(again[0].cover, from_a[0].cover);
}

#[test]
fn serve_mode_answers_repeats_from_the_cache() {
    let inst = gen::planted(256, 512, 8, 3);
    let service = ServiceBuilder::new()
        .config(ServiceConfig::default())
        .tenant("default", inst.system.clone())
        .build();
    let (outcomes, metrics) = service.serve(|handle| {
        let first = handle
            .submit(spec(4))
            .expect("open")
            .wait()
            .expect("served");
        let second = handle
            .submit(spec(4))
            .expect("open")
            .wait()
            .expect("served");
        [first, second]
    });
    assert_eq!(metrics.cache_hits, 1);
    assert_eq!(metrics.queries_completed, 2);
    assert!(!outcomes[0].cached && outcomes[1].cached);
    assert_eq!(outcomes[0].cover, outcomes[1].cover);
    assert_eq!(outcomes[0].logical_passes, outcomes[1].logical_passes);
    assert_eq!(outcomes[0].space_words, outcomes[1].space_words);
}

#[test]
fn zero_capacity_disables_caching() {
    let inst = gen::planted(128, 256, 4, 2);
    let service = ServiceBuilder::new()
        .config(ServiceConfig {
            cache_capacity: 0,
            ..Default::default()
        })
        .tenant("default", inst.system.clone())
        .build();
    let (_, m1) = service.run_batch(&[spec(1)]);
    let (again, m2) = service.run_batch(&[spec(1)]);
    assert_eq!(m1.cache_hits + m2.cache_hits, 0);
    assert!(m2.physical_scans > 0, "repeat re-ran");
    assert!(!again[0].cached);
}
