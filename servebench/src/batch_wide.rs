//! `batch-wide`: the compute-bound path. In-process `Service::run_batch`
//! of 16 distinct `iter delta=0.5` queries over one planted
//! repository, cache off, batch after batch for the whole window
//! (cycling through 8 such batches). Fan-out, `end_scan`, and the
//! bitset kernels do almost all the work; the front door, the codec,
//! the cache, and the fairness gate are bypassed.
//!
//! Runnable by hand but not listed in `BENCHMARK.json`: its throughput
//! follows the shared host's load, which drifts by a fifth or more over
//! tens of seconds, too wide to gate a change on (README.md, Steadiness).

use crate::layers::{self, Served, Window};
use crate::oracle::{self, Observed};
use crate::report::{median, Report, Tally};
use crate::{cores, timed_setups, Args, Files, SETUP_REPS};
use sc_service::protocol::Request;
use sc_service::{QueryOutcome, QuerySpec, Service, ServiceBuilder, ServiceMetrics};
use sc_setsystem::gen;
use std::time::{Duration, Instant};

/// Smaller than the 16384 x 8192 repository this workload was first
/// sized at: there the 16 jobs' ~190 MB working set made batch
/// throughput swing 15-20% between runs of identical inputs on a shared
/// two-core host (memory-bound; one query replayed alone stayed within
/// 5%). At this size the spread between runs is 5-20%, set mostly by
/// how busy the host's shared cache is; a 2048 x 1024 repository was
/// no steadier.
const N: usize = 4096;
const M: usize = 2048;
const K: usize = 32;
const QUERIES: u64 = 16;
/// Distinct batches the run cycles through. The work in 16 queries
/// depends on their seeds enough to move a single batch's wall by
/// ~15% from one `--seed` to the next; cycling 8 batches (128
/// queries) averages that out.
const BATCHES: u64 = 8;
/// The repository is the same for every `--seed`; the seed picks the
/// queries.
const INSTANCE_SEED: u64 = 17;

struct Batch {
    wall: Duration,
    traced: bool,
    outcomes: Vec<QueryOutcome>,
    metrics: ServiceMetrics,
}

pub fn run(args: &Args, files: &mut Files) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut set_up = || -> Result<Service, String> {
        let inst = gen::planted(N, M, K, INSTANCE_SEED);
        let (system, _, load) = files.write_and_load("batch-wide", &inst)?;
        loads.push(crate::report::ms(load));
        Ok(ServiceBuilder::new()
            .tenant("default", system)
            .cache_capacity(0)
            .build())
    };
    let service = timed_setups(SETUP_REPS, &mut setups, &mut set_up)?;
    let batch_specs: Vec<Vec<QuerySpec>> = (0..BATCHES)
        .map(|b| {
            (0..QUERIES)
                .map(|i| QuerySpec::IterCover {
                    delta: 0.5,
                    seed: args.seed.wrapping_mul(1000).wrapping_add(b * QUERIES + i),
                })
                .collect()
        })
        .collect();

    // One unmeasured batch first: page faults and lazy set-up land
    // there, not in the first measured batch.
    let (warm, _) = service.run_batch(&batch_specs[0]);
    let window = Window::open(args.trace, args.seconds);
    let mut batches = Vec::new();
    while window.is_open() {
        let traced = window.sync();
        let t = Instant::now();
        let (outcomes, metrics) = service.run_batch(&batch_specs[batches.len() % BATCHES as usize]);
        batches.push(Batch {
            wall: t.elapsed(),
            traced,
            outcomes,
            metrics,
        });
    }
    let closed = window.close();
    timed_setups(SETUP_REPS, &mut setups, &mut set_up)?;

    let generation = service.generation();
    let system = &generation.system;
    let specs: Vec<QuerySpec> = batch_specs.concat();
    let solved = oracle::solve_all(
        &[system],
        specs.iter().map(|s| (0, *s)).collect(),
        if args.trace { 1 } else { cores() },
    );
    let reference = |spec: &QuerySpec| &solved[&(0, oracle::key(spec))];
    let check = |o: &QueryOutcome| {
        oracle::check(&o.spec, &reference(&o.spec).reference, &Observed::of(o))
            .map_err(|e| eprintln!("batch-wide: {}: {e}", o.spec))
    };
    let wrong_warm = warm.iter().filter(|o| check(o).is_err()).count();
    let mut tally = Tally::default();
    let mut metrics = ServiceMetrics::default();
    let mut per_batch_qps = Vec::new();
    for b in &batches {
        let before = tally.correct;
        for o in &b.outcomes {
            match check(o) {
                Ok(()) => tally.answered(b.traced, o.latency, o.logical_passes, o.space_words),
                Err(()) => tally.failed(),
            }
        }
        per_batch_qps.push((tally.correct - before) as f64 / b.wall.as_secs_f64());
        metrics.merge(&b.metrics);
    }
    // The median batch, not the mean: a batch that catches a stall of
    // the shared host would otherwise move the whole run's figure.
    let throughput = median(&per_batch_qps);
    let mut rep = tally.report(wrong_warm == 0);
    rep.note("batches", batches.len());
    rep.note("queries_per_batch", QUERIES);
    rep.note("distinct_batches", BATCHES);
    rep.note(
        "instance",
        format!("planted(n={N},m={M},k={K},seed={INSTANCE_SEED})"),
    );
    if !args.trace {
        tally.emit(&mut rep, &setups, throughput, &metrics, closed.rss_peak_mib);
        return Ok(rep);
    }

    let mut l = layers::common(
        &tally,
        &loads,
        system,
        QUERIES as usize,
        &service,
        &metrics,
        closed.kernel_calls,
    );
    let served: Vec<Served<'_>> = batches
        .iter()
        .flat_map(|b| &b.outcomes)
        .map(|o| Served {
            line: Request::Query {
                repo: None,
                spec: o.spec,
            }
            .render(),
            outcome: o.clone(),
            rtt: o.latency,
            solved: reference(&o.spec),
        })
        .collect();
    let busy = batches.iter().map(|b| b.wall).sum();
    layers::served(
        "batch-wide",
        &served,
        busy,
        service.config().workers,
        &mut l,
    );
    l.emit(&mut rep);
    Ok(rep)
}
