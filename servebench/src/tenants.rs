//! `tenants-closed`: the fairness path. Eight quota-1 tenants, one
//! small planted repository each, behind `net::serve_tcp_with`; two
//! connections run a closed loop of distinct `iter` queries addressed
//! with `repo=tN`. Connection 0 cycles through the even slots of a
//! seeded tenant order and connection 1 through the odd ones, so the
//! two in-flight queries always belong to different tenants: their
//! scans interleave shard by shard through the fairness gate and the
//! shared `InterleavedCursor`, on two per-tenant lanes. Every query is
//! distinct, so the cache never answers.
//!
//! An open loop at a fixed arrival rate was tried first. On a shared
//! two-core host its tail swung by half or more between runs of one
//! seed: overlapping queries
//! oversubscribe the cores (lanes, per-scan fan-out threads, poller,
//! clients), a stall of tens of milliseconds backs up every query
//! scheduled behind it, and one run lost 1.7 s to a single stall. A
//! closed loop keeps the overlap (always exactly two tenants) while a
//! stall delays only the two queries in flight.

use crate::client::{self, Conn, Sample};
use crate::layers::{self, Window};
use crate::oracle;
use crate::report::{ms, percentile, ratio, Report, Tally};
use crate::{cores, timed_setups, Args, Files, SETUP_REPS};
use rand::seq::SliceRandom;
use sc_service::protocol::Request;
use sc_service::{QuerySpec, Service, ServiceBuilder};
use sc_setsystem::gen;
use std::net::TcpListener;

const N: usize = 1024;
const M: usize = 2048;
const K: usize = 16;
const TENANTS: usize = 8;
const CONNS: usize = 2;
/// The tenants' repositories are the same for every `--seed`; the seed
/// picks the queries and the tenant order.
const INSTANCE_SEED: u64 = 41;

/// One connection's closed loop until the window closes: connection
/// `conn` addresses `order[conn]`, `order[conn + 2]`, … in turn.
fn drive_conn(
    conn: usize,
    mut c: Conn,
    args: &Args,
    order: &[usize],
    window: &Window,
) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    let base = args
        .seed
        .wrapping_mul(1 << 24)
        .wrapping_add((conn as u64) << 40);
    while window.is_open() {
        let traced = window.sync();
        let j = samples.len();
        let tenant = order[(conn + CONNS * j) % TENANTS];
        let spec = QuerySpec::IterCover {
            delta: 0.5,
            seed: base + j as u64,
        };
        let repo = Some(format!("t{tenant}"));
        samples.push(c.sample(Request::Query { repo, spec }, tenant, traced)?);
    }
    Ok(samples)
}

pub fn run(args: &Args, files: &mut Files) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut set_up = || -> Result<(Service, TcpListener, String), String> {
        let mut builder = ServiceBuilder::new();
        for tenant in 0..TENANTS {
            let seed = INSTANCE_SEED.wrapping_mul(64).wrapping_add(tenant as u64);
            let inst = gen::planted(N, M, K, seed);
            let (system, _, load) = files.write_and_load(&format!("tenants-t{tenant}"), &inst)?;
            loads.push(ms(load));
            builder = builder.tenant_with_quota(format!("t{tenant}"), system, 1);
        }
        let service = builder.build();
        let (listener, addr) = client::listen()?;
        Ok((service, listener, addr))
    };
    let (service, listener, addr) = timed_setups(SETUP_REPS, &mut setups, &mut set_up)?;
    let generations: Vec<_> = service.tenants().iter().map(|t| t.generation()).collect();
    let systems: Vec<_> = generations.iter().map(|g| &g.system).collect();
    let mut order: Vec<usize> = (0..TENANTS).collect();
    order.shuffle(&mut crate::rng(args.seed, 99));

    let run = client::closed_loop(
        &service,
        listener,
        &addr,
        args,
        CONNS,
        |_| Ok(()),
        |i, c, w| drive_conn(i, c, args, &order, w),
    )?;
    timed_setups(SETUP_REPS, &mut setups, &mut set_up)?;

    let threads = if args.trace { 1 } else { cores() };
    let replayed = oracle::replay(&run.samples, &systems, |s, _| s.target, threads);
    let mut tally = Tally::default();
    let mut per_tenant: Vec<Vec<f64>> = vec![Vec::new(); TENANTS];
    for (i, s) in run.samples.iter().enumerate() {
        match replayed.check(i, s) {
            Ok(a) => {
                tally.answered(s.traced, s.rtt, a.passes, a.space);
                per_tenant[s.target].push(ms(s.rtt));
            }
            Err(e) => {
                eprintln!("tenants-closed: {}: {e}", s.line);
                tally.failed();
            }
        }
    }
    let throughput = tally.correct as f64 / run.window.wall.as_secs_f64();
    let mut rep = tally.report(true);
    rep.note("connections", CONNS);
    rep.note("queries", tally.attempted);
    rep.note(
        "instances",
        format!("{TENANTS}x planted(n={N},m={M},k={K})"),
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
        1,
        &service,
        &run.metrics,
        run.window.kernel_calls,
    );
    run.front_door(&mut l);
    let tenant_p99: Vec<f64> = per_tenant.iter().map(|l| percentile(l, 99.0)).collect();
    l.tenant_p99_max_over_min = ratio(
        tenant_p99.iter().copied().fold(f64::MIN, f64::max),
        tenant_p99.iter().copied().fold(f64::MAX, f64::min),
    );
    let served = replayed.served(&run.samples, 0, |s| format!("t{}", s.target));
    layers::served(
        "tenants-closed",
        &served,
        run.window.wall,
        service.config().workers,
        &mut l,
    );
    l.emit(&mut rep);
    Ok(rep)
}
