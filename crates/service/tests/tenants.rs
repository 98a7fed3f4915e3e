//! Multi-tenant serving invariants.
//!
//! One process hosts many named repositories, but tenancy must be
//! invisible to any single tenant's clients: every query answers
//! bit-identically to a solo service over that tenant's repository,
//! identical repositories under different tenants never share cache
//! entries, a hot tenant cannot starve a cold one, and a hot swap of
//! one tenant leaves every other tenant's in-flight work untouched.

use sc_core::baselines::StoreAllGreedy;
use sc_core::partial::{run_partial, PartialIterSetCover};
use sc_core::{IterSetCover, IterSetCoverConfig};
use sc_service::{QuerySpec, ServiceBuilder, ServiceConfig};
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

/// The bit-identity suite body: however the fairness gate interleaves
/// the tenants' `(tenant, shard)` units, every answer must match a solo
/// run exactly. `shard_size` sets the sets per shard, so `1` makes both
/// lanes' concurrent fan-outs claim once per set.
fn bit_identity_under_interleaved_load(shard_size: usize) {
    let alpha = gen::planted(256, 512, 8, 11);
    let beta = gen::planted(192, 384, 6, 22);
    let specs: Vec<QuerySpec> = (0..4)
        .flat_map(|seed| {
            [
                QuerySpec::IterCover { delta: 0.5, seed },
                QuerySpec::PartialCover {
                    epsilon: 0.1,
                    delta: 0.5,
                    seed,
                },
                QuerySpec::GreedyBaseline,
            ]
        })
        .collect();
    let service = ServiceBuilder::new()
        .shard_size(shard_size)
        .tenant("alpha", alpha.system.clone())
        .tenant("beta", beta.system.clone())
        .build();
    let (answered, _metrics) = service.serve(|handle| {
        let beta_handle = handle.with_tenant("beta").expect("tenant exists");
        // Interleave the two tenants' submissions so their lanes run
        // their epochs concurrently.
        let tickets: Vec<_> = specs
            .iter()
            .flat_map(|spec| {
                [
                    (0usize, handle.submit(*spec).expect("submit alpha")),
                    (1usize, beta_handle.submit(*spec).expect("submit beta")),
                ]
            })
            .collect();
        tickets
            .into_iter()
            .map(|(lane, t)| (lane, t.wait().expect("answered")))
            .collect::<Vec<_>>()
    });
    for (lane, outcome) in answered {
        let (name, system) = if lane == 0 {
            ("alpha", &alpha.system)
        } else {
            ("beta", &beta.system)
        };
        let (cover, passes, space) = solo(&outcome.spec, system);
        assert_eq!(&*outcome.tenant, name);
        let at = format!("{name}, shard_size {shard_size}: {:?}", outcome.spec);
        assert_eq!(outcome.cover, cover, "{at}");
        assert_eq!(outcome.logical_passes, passes, "{at}");
        assert_eq!(outcome.space_words, space, "{at}");
    }
}

#[test]
fn each_tenant_answers_bit_identically_to_solo_under_shard_interleaving() {
    for shard_size in [ServiceConfig::default().shard_size, 1] {
        bit_identity_under_interleaved_load(shard_size);
    }
}

#[test]
fn identical_repositories_under_different_tenants_never_share_cache_entries() {
    // Two tenants load byte-identical repositories: a cache entry
    // retired under one must not answer the other (the partition key
    // is the tenant id, not just the content fingerprint).
    let inst = gen::planted(128, 256, 8, 5);
    let spec = QuerySpec::IterCover {
        delta: 0.5,
        seed: 3,
    };
    let service = ServiceBuilder::new()
        .tenant("left", inst.system.clone())
        .tenant("right", inst.system.clone())
        .build();
    let (_, metrics) = service.serve(|handle| {
        let right = handle.with_tenant("right").expect("tenant exists");
        let first = handle.submit(spec).expect("submit").wait().expect("answer");
        assert!(!first.cached, "cold cache on the left tenant");
        // Same bytes, same fingerprint — but the right tenant's cache
        // partition is its own, so this must run, not hit.
        let twin = right.submit(spec).expect("submit").wait().expect("answer");
        assert!(
            !twin.cached,
            "a twin tenant's identical repository must not hit the left tenant's entries"
        );
        // Each tenant *does* hit its own partition on a repeat.
        let repeat = handle.submit(spec).expect("submit").wait().expect("answer");
        assert!(repeat.cached, "the left tenant re-hits its own entry");
    });
    assert_eq!(metrics.jobs, 2, "one real job per tenant");
    assert_eq!(metrics.cache_misses, 2);
    assert_eq!(metrics.cache_hits, 1);
}

#[test]
fn a_hot_tenant_cannot_starve_a_cold_one() {
    // The hot tenant floods its lane with multi-pass jobs; the cold
    // tenant asks once, mid-flood. The fairness gate must grant the
    // cold lane's epochs while the hot backlog is still draining.
    let hot_inst = gen::planted(1024, 2048, 16, 7);
    let cold_inst = gen::planted(64, 128, 4, 9);
    const HOT_TOTAL: usize = 48;
    let service = ServiceBuilder::new()
        .tenant_with_quota("hot", hot_inst.system, 8)
        .tenant("cold", cold_inst.system)
        .build();
    let hot_seen_at_cold_done = service.serve(|handle| {
        let cold = handle.with_tenant("cold").expect("tenant exists");
        let hot_tickets: Vec<_> = (0..HOT_TOTAL)
            .map(|seed| {
                handle
                    .submit(QuerySpec::IterCover {
                        delta: 0.5,
                        seed: seed as u64,
                    })
                    .expect("submit hot")
            })
            .collect();
        let cold_outcome = cold
            .submit(QuerySpec::GreedyBaseline)
            .expect("submit cold")
            .wait()
            .expect("cold answered");
        assert!(cold_outcome.goal_met());
        // The hot tenant's live counter at the instant the cold answer
        // arrived: how much of the flood had completed.
        let (hot_completed, _, _, _, _) = handle
            .tenants()
            .get("hot")
            .expect("tenant exists")
            .meta()
            .counters()
            .snapshot();
        for t in hot_tickets {
            assert!(t.wait().expect("hot answered").goal_met());
        }
        hot_completed
    });
    let at_cold_done = hot_seen_at_cold_done.0;
    assert!(
        (at_cold_done as usize) < HOT_TOTAL,
        "the cold query waited out the whole hot flood ({at_cold_done}/{HOT_TOTAL} hot \
         queries had completed first)"
    );
}

#[test]
fn a_hot_swap_of_one_tenant_leaves_the_other_untouched() {
    let stay_inst = gen::planted(512, 1024, 16, 31);
    let swap_old = gen::planted(128, 256, 8, 1);
    let swap_new = gen::planted(128, 256, 8, 2);
    let service = ServiceBuilder::new()
        .tenant("stays", stay_inst.system)
        .tenant("swaps", swap_old.system)
        .build();
    let (_, metrics) = service.serve(|handle| {
        let swaps = handle.with_tenant("swaps").expect("tenant exists");
        // Keep the untouched tenant's lane busy across the swap.
        let busy: Vec<_> = (0..16)
            .map(|seed| {
                handle
                    .submit(QuerySpec::IterCover { delta: 0.5, seed })
                    .expect("submit")
            })
            .collect();
        let swapped_to = swaps
            .reload(swap_new.system.clone())
            .expect("reload")
            .wait()
            .expect("swap acknowledged");
        assert_eq!(swapped_to, 2, "the swapped tenant advanced a generation");
        for t in busy {
            let outcome = t.wait().expect("answered");
            assert_eq!(
                outcome.generation, 1,
                "the untouched tenant's in-flight work stays on its generation"
            );
            assert_eq!(&*outcome.tenant, "stays");
        }
    });
    assert_eq!(metrics.reloads, 1);
    assert_eq!(service.tenants().get("swaps").unwrap().generation().id, 2);
    assert_eq!(service.tenants().get("stays").unwrap().generation().id, 1);
}

#[test]
fn a_tenant_quota_caps_its_inflight_occupancy() {
    let inst = gen::planted(256, 512, 8, 13);
    let service = ServiceBuilder::new()
        .tenant_with_quota("narrow", inst.system, 2)
        .build();
    let (_, metrics) = service.serve(|handle| {
        let tickets: Vec<_> = (0..8)
            .map(|seed| {
                handle
                    .submit(QuerySpec::IterCover { delta: 0.5, seed })
                    .expect("submit")
            })
            .collect();
        for t in tickets {
            assert!(t.wait().expect("answered").goal_met());
        }
    });
    assert!(
        metrics.max_inflight_seen <= 2,
        "quota 2 exceeded: {} jobs were inflight at once",
        metrics.max_inflight_seen
    );
}

#[test]
fn tenants_whose_names_differ_only_in_punctuation_keep_separate_series() {
    use std::io::{BufRead, BufReader, Write};
    let service = ServiceBuilder::new()
        .tenant("a-b", gen::planted(64, 128, 4, 1).system)
        .tenant("a_b", gen::planted(64, 128, 4, 2).system)
        .build();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let lines = std::thread::scope(|s| {
        let server = s.spawn(|| sc_service::net::serve_tcp(&service, listener).expect("serve"));
        sc_service::net::wait_ready(&addr, std::time::Duration::from_secs(10)).expect("ready");
        let conn = std::net::TcpStream::connect(&addr).expect("connect");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut writer = &conn;
        let mut next = || {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            line.trim_end().to_string()
        };
        for (repo, queries) in [("a-b", 3u64), ("a_b", 5)] {
            for seed in 0..queries {
                writeln!(writer, "iter seed={seed} repo={repo}").unwrap();
            }
            writer.flush().unwrap();
            for _ in 0..queries {
                let reply = next();
                assert!(reply.ends_with(&format!("repo={repo}")), "{reply:?}");
            }
        }
        writeln!(writer, "!stats\n!metrics\nshutdown").unwrap();
        writer.flush().unwrap();
        let stats = next();
        assert!(
            stats
                .split(' ')
                .any(|f| f == "sc_queries_completed_total=8"),
            "!stats sums the tenants: {stats:?}"
        );
        let header = next();
        let n: usize = header
            .strip_prefix("ok metrics n=")
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("bad metrics header {header:?}"));
        let body: Vec<String> = (0..n).map(|_| next()).collect();
        server.join().expect("server thread");
        body
    });
    for series in [
        r#"sc_queries_completed_total{tenant="a-b"} 3"#,
        r#"sc_queries_completed_total{tenant="a_b"} 5"#,
    ] {
        assert!(
            lines.iter().any(|l| l == series),
            "{series} missing: {lines:?}"
        );
    }
}
