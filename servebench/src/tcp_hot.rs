//! `tcp-hot`: the front-door and cache path. A closed loop on two
//! connections through `net::serve_tcp_with`, one tenant, a small
//! planted repository. One third of the queries come from a hot set of
//! 16 iter/partial/greedy specs (cache hits, ~0.2 ms) and two thirds
//! are fresh iter/partial specs (misses that run a few milliseconds of
//! compute). The median query is a miss: with an even mix the median
//! sits in the gap between the two latency modes and jumps between
//! them from run to run, and with hits in the majority it lands in the
//! hits' long tail (the lane answers a hit only between its own scan
//! steps), which moved the median by a third between runs.
//! Connection 0 also sends `!reload` every `RELOAD_EVERY` of its
//! queries, alternating between two repository files, so the write
//! path (swap, drain, cache reap) runs beside the reads.

use crate::client::{self, Conn, Sample};
use crate::layers::{self, Window};
use crate::oracle;
use crate::report::{median, ms, Report, Tally};
use crate::{cores, timed_setups, Args, Files, SETUP_REPS};
use rand::RngExt;
use sc_service::protocol::Request;
use sc_service::{EvictionPolicy, QuerySpec, Service, ServiceBuilder};
use sc_setsystem::{gen, SetSystem};
use std::net::TcpListener;

const N: usize = 2048;
const M: usize = 1024;
const K: usize = 16;
/// The two repository files, the same for every `--seed`; the seed
/// picks the queries.
const INSTANCE_SEEDS: [u64; 2] = [23, 29];
const HOT: u64 = 16;
const CONNS: usize = 2;
/// Connection 0 sends a `!reload` after every this many of its queries.
const RELOAD_EVERY: usize = 400;

/// The 16 hot specs: one greedy, eight iter, seven partial.
fn hot_set(seed: u64) -> Vec<QuerySpec> {
    (0..HOT)
        .map(|i| {
            let seed = seed.wrapping_mul(7919).wrapping_add(i);
            match i {
                0 => QuerySpec::GreedyBaseline,
                1..=8 => QuerySpec::IterCover { delta: 0.5, seed },
                _ => QuerySpec::PartialCover {
                    epsilon: 0.1,
                    delta: 0.5,
                    seed,
                },
            }
        })
        .collect()
}

/// One connection's closed loop until the window closes.
fn drive_conn(
    conn: usize,
    mut c: Conn,
    args: &Args,
    hot: &[QuerySpec],
    reload_paths: &[String; 2],
    window: &Window,
) -> Result<Vec<Sample>, String> {
    let mut rng = crate::rng(args.seed, 1 + conn as u64);
    let mut samples = Vec::new();
    let mut queries = 0usize;
    let mut reloads = 0usize;
    let fresh_base = args
        .seed
        .wrapping_mul(1 << 20)
        .wrapping_add((conn as u64 + 1) << 40);
    while window.is_open() {
        let traced = window.sync();
        let reload_due = conn == 0
            && queries > 0
            && queries.is_multiple_of(RELOAD_EVERY)
            && samples.last().is_some_and(|s: &Sample| s.spec.is_some());
        if reload_due {
            // Generation 1 is file a; reload r starts generation 1 + r
            // on file r mod 2.
            reloads += 1;
            let path = reload_paths[reloads % 2].clone();
            samples.push(c.sample(Request::Reload { target: None, path }, 1 + reloads, traced)?);
            continue;
        }
        let spec = if rng.random_range(0..3) == 0 {
            hot[rng.random_range(0..hot.len())]
        } else {
            let seed = fresh_base + queries as u64;
            if rng.random_bool(0.5) {
                QuerySpec::IterCover { delta: 0.5, seed }
            } else {
                QuerySpec::PartialCover {
                    epsilon: 0.1,
                    delta: 0.5,
                    seed,
                }
            }
        };
        samples.push(c.sample(Request::Query { repo: None, spec }, 0, traced)?);
        queries += 1;
    }
    Ok(samples)
}

pub fn run(args: &Args, files: &mut Files) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut set_up =
        || -> Result<(Service, TcpListener, String, SetSystem, [String; 2]), String> {
            let a = gen::planted(N, M, K, INSTANCE_SEEDS[0]);
            let b = gen::planted(N, M, K, INSTANCE_SEEDS[1]);
            let (system_a, path_a, load) = files.write_and_load("tcp-hot-a", &a)?;
            let (system_b, path_b, _) = files.write_and_load("tcp-hot-b", &b)?;
            loads.push(ms(load));
            let service = ServiceBuilder::new()
                .tenant("default", system_a)
                .eviction(EvictionPolicy::Lru)
                .build();
            let (listener, addr) = client::listen()?;
            Ok((service, listener, addr, system_b, [path_a, path_b]))
        };
    let (service, listener, addr, system_b, paths) =
        timed_setups(SETUP_REPS, &mut setups, &mut set_up)?;
    let first = service.generation();
    let systems = [&first.system, &system_b];
    let hot = hot_set(args.seed);

    // Warm-up: every hot spec once, so the measured window starts with
    // the hot set cached.
    let warm_up = |c0: &mut Conn| -> Result<Vec<Sample>, String> {
        hot.iter()
            .map(|&spec| c0.sample(Request::Query { repo: None, spec }, 0, false))
            .collect()
    };
    let mut run = client::closed_loop(
        &service,
        listener,
        &addr,
        args,
        CONNS,
        warm_up,
        |i, c, w| drive_conn(i, c, args, &hot, &paths, w),
    )?;
    timed_setups(SETUP_REPS, &mut setups, &mut set_up)?;

    // The oracle: every (repository file, spec) pair solved solo.
    let warm = run.warm.len();
    let mut samples = std::mem::take(&mut run.warm);
    samples.append(&mut run.samples);
    let threads = if args.trace { 1 } else { cores() };
    let replayed = oracle::replay(&samples, &systems, |_, a| file_of(a.generation), threads);
    let mut tally = Tally::default();
    let mut wrong_warm = 0u64;
    let mut reload_rtts = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        let verdict = match s.spec {
            None if s.reply == format!("ok reload gen={}", s.target) => Ok(None),
            None => Err(format!("reload answered {:?}", s.reply)),
            Some(_) => replayed.check(i, s).map(Some),
        };
        match verdict {
            Err(e) => {
                eprintln!("tcp-hot: {}: {e}", s.line);
                if i < warm {
                    wrong_warm += 1;
                } else {
                    tally.failed();
                }
            }
            Ok(_) if i < warm => {}
            Ok(Some(a)) => tally.answered(s.traced, s.rtt, a.passes, a.space),
            Ok(None) => {
                tally.ok();
                reload_rtts.push(ms(s.rtt));
            }
        }
    }
    let throughput = tally.latencies.len() as f64 / run.window.wall.as_secs_f64();
    let mut rep = tally.report(wrong_warm == 0);
    rep.note("connections", CONNS);
    rep.note("queries", tally.latencies.len());
    rep.note("reloads", reload_rtts.len());
    rep.note("cache_hits", run.metrics.cache_hits);
    rep.note(
        "instances",
        format!("planted(n={N},m={M},k={K},seed={INSTANCE_SEEDS:?})"),
    );
    if !args.trace {
        tally.emit(
            &mut rep,
            &setups,
            throughput,
            &run.metrics,
            run.window.rss_peak_mib,
        );
        return Ok(rep);
    }

    let mut l = layers::common(
        &tally,
        &loads,
        systems[0],
        CONNS,
        &service,
        &run.metrics,
        run.window.kernel_calls,
    );
    run.front_door(&mut l);
    l.reload_rtt_ms = median(&reload_rtts);
    let served = replayed.served(&samples, warm, |_| "default".into());
    layers::served(
        "tcp-hot",
        &served,
        run.window.wall,
        service.config().workers,
        &mut l,
    );
    l.emit(&mut rep);
    Ok(rep)
}

/// The repository file a generation serves: generation 1 and every
/// odd one is file a (index 0), every even one file b.
fn file_of(generation: u64) -> usize {
    usize::from(generation.is_multiple_of(2))
}
