//! Where a warm-memo `iterSetCover` query spends its compute, scan by
//! scan.
//!
//! ```text
//! cargo run --release -p sc-core --example scan_profile [-- --quick]
//! ```
//!
//! Two repository shapes — servebench's `tcp-hot` repository
//! `planted(2048,1024,16,23)` and its first `tenants-closed` tenant
//! `planted(1024,2048,16,2624)` — each queried for a full cover and for
//! an ε = 0.1 partial cover at δ = 0.5. Every case first fills a
//! [`GuessMemo`] with warm-up queries, then runs `reps` rounds of
//! `queries` distinct-seed queries on replaying drivers, one at a time
//! on one thread, following the driver's scan protocol. The rounds of
//! the four cases interleave, so a slow spell of the machine spreads
//! over all of them.
//!
//! Each round yields the mean milliseconds per query: the whole solo
//! compute (driver construction to `finish_into`), and per scan index
//! the time in `begin_scan`, in `absorb_items` (which includes walking
//! the repository) and in `end_scan`. A query that needs fewer scans
//! adds zero to the later rows. The report gives each figure's median
//! over rounds, with the minimum and the interquartile range as its
//! noise.
//!
//! A paired backend A/B follows. Each of its rounds runs the same
//! queries of every case twice in one process, once with the bitset
//! kernels pinned to the portable scalar path
//! (`sc_bitset::kernels::force_scalar(true)`) and once on the detected
//! backend, alternating which goes first. The report gives the median
//! and IQR of the per-round differences, scalar minus detected, in
//! solo ms per query and in scan-1 absorb ms per query. A slow spell
//! hits both halves of a pair alike, so the difference resists the
//! drift that swamps comparisons between separate runs. On a scalar
//! machine, or under `SC_BITSET_FORCE_SCALAR=1`, both halves run the
//! same code and the difference reads about zero.
//!
//! `--quick` runs 2 rounds of 4 queries, enough to keep the example
//! building and running.

use sc_bitset::kernels;
use sc_core::{coverage_goal, GuessMemo, IterCoverDriver, IterSetCoverConfig};
use sc_setsystem::{gen, SetSystem};
use sc_stream::{SetStream, SpaceMeter};
use std::time::Instant;

/// Queries that fill the memo before anything is timed.
const WARM_UP: u64 = 2;

struct Case {
    label: String,
    system: SetSystem,
    epsilon: Option<f64>,
    memo: GuessMemo,
    /// Per round: mean solo ms per query.
    solo: Vec<f64>,
    /// Per round, per scan index: mean `[begin, absorb, end]` ms per query.
    scans: Vec<Vec<[f64; 3]>>,
}

/// Runs one query on a replaying driver. Returns its whole compute and
/// its per-scan `[begin, absorb, end]` split, all in milliseconds.
fn run_query(case: &Case, seed: u64) -> (f64, Vec<[f64; 3]>) {
    let cfg = IterSetCoverConfig {
        delta: 0.5,
        seed,
        ..Default::default()
    };
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    let start = Instant::now();
    let root = SetStream::new(&case.system);
    let meter = SpaceMeter::new();
    let required = case.epsilon.map(|eps| coverage_goal(root.universe(), eps));
    let mut driver = IterCoverDriver::replaying(&cfg, required, &root, &meter, &case.memo);
    let mut scans = Vec::new();
    while driver.wants_scan() {
        let t0 = Instant::now();
        driver.begin_scan();
        let t1 = Instant::now();
        driver.absorb_items(root.shared_pass(&driver.participants()));
        let t2 = Instant::now();
        driver.end_scan();
        let t3 = Instant::now();
        scans.push([ms(t0, t1), ms(t1, t2), ms(t2, t3)]);
    }
    let (cover, _) = driver.finish_into(&root, &meter);
    let solo = ms(start, Instant::now());
    assert!(
        !cover.is_empty(),
        "{}: seed {seed} found no cover",
        case.label
    );
    (solo, scans)
}

/// Runs `queries` queries with seeds from `first_seed` on. Returns the
/// mean solo ms per query and the mean `[begin, absorb, end]` ms per
/// query for each scan index.
fn run_round(case: &Case, first_seed: u64, queries: usize) -> (f64, Vec<[f64; 3]>) {
    let (mut solo, mut scans) = (0.0, Vec::<[f64; 3]>::new());
    for q in 0..queries as u64 {
        let (ms, per_scan) = run_query(case, first_seed + q);
        solo += ms;
        if scans.len() < per_scan.len() {
            scans.resize(per_scan.len(), [0.0; 3]);
        }
        for (row, t) in scans.iter_mut().zip(&per_scan) {
            for (cell, x) in row.iter_mut().zip(t) {
                *cell += x;
            }
        }
    }
    let per_query = |x: f64| x / queries as f64;
    (
        per_query(solo),
        scans.iter().map(|row| row.map(per_query)).collect(),
    )
}

/// `(median, min, interquartile range)` of a sample.
fn spread(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.5), v[0], at(0.75) - at(0.25))
}

fn main() {
    let quick = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--quick") => true,
        Some(other) => {
            eprintln!("scan_profile: unknown argument {other:?} (only --quick)");
            std::process::exit(2);
        }
    };
    let (reps, queries) = if quick { (2, 4) } else { (8, 100) };
    let shapes = [
        ("tcp-hot", (2048, 1024, 16, 23)),
        ("tenants-closed", (1024, 2048, 16, 2624)),
    ];
    let mut cases = Vec::new();
    for (workload, (n, m, k, seed)) in shapes {
        for epsilon in [None, Some(0.1)] {
            let kind = epsilon.map_or("iter".to_string(), |eps| format!("partial ε={eps}"));
            cases.push(Case {
                label: format!("{workload} planted({n},{m},{k},{seed}) {kind} δ=0.5"),
                system: gen::planted(n, m, k, seed).system,
                epsilon,
                memo: GuessMemo::new(),
                solo: Vec::new(),
                scans: Vec::new(),
            });
        }
    }
    for case in &cases {
        for seed in 0..WARM_UP {
            run_query(case, seed + 1);
        }
    }
    for rep in 0..reps {
        for case in &mut cases {
            let (solo, scans) = run_round(case, 1000 + (rep * queries) as u64, queries);
            case.solo.push(solo);
            case.scans.push(scans);
        }
    }
    for case in &cases {
        let (median, min, iqr) = spread(&case.solo);
        println!(
            "{}: solo {median:.3} ms/query (min {min:.3}, IQR {iqr:.3}; {reps} rounds × {queries} queries)",
            case.label
        );
        println!("  scan  begin_ms       absorb_ms      end_ms         (median, IQR over rounds)");
        let rows = case.scans.iter().map(Vec::len).max().unwrap_or(0);
        for s in 0..rows {
            let mut line = format!("  {:>4}", s + 1);
            for part in 0..3 {
                let column: Vec<f64> = case
                    .scans
                    .iter()
                    .map(|round| round.get(s).map_or(0.0, |row| row[part]))
                    .collect();
                let (median, _, iqr) = spread(&column);
                line.push_str(&format!("  {median:.3} ±{iqr:.3}"));
            }
            println!("{line}");
        }
    }
    backend_ab(&cases, reps, queries);
}

/// The paired backend A/B described in the module docs.
fn backend_ab(cases: &[Case], reps: usize, queries: usize) {
    let backend = kernels::backend_name();
    // Per case, per round: scalar minus detected, `[solo, scan-1 absorb]`.
    let mut diffs = vec![Vec::<[f64; 2]>::new(); cases.len()];
    for rep in 0..reps {
        for (case, diffs) in cases.iter().zip(&mut diffs) {
            let first_seed = 50_000 + (rep * queries) as u64;
            let run = |scalar: bool| {
                kernels::force_scalar(scalar);
                let (solo, scans) = run_round(case, first_seed, queries);
                kernels::force_scalar(false);
                [solo, scans.first().map_or(0.0, |scan| scan[1])]
            };
            let (scalar, detected) = if rep % 2 == 0 {
                let scalar = run(true);
                (scalar, run(false))
            } else {
                let detected = run(false);
                (run(true), detected)
            };
            diffs.push([scalar[0] - detected[0], scalar[1] - detected[1]]);
        }
    }
    println!(
        "backend A/B: scalar − {backend}, ms/query, median (IQR) over {reps} paired rounds × {queries} queries, order alternating"
    );
    for (case, diffs) in cases.iter().zip(&diffs) {
        let solo: Vec<f64> = diffs.iter().map(|d| d[0]).collect();
        let absorb: Vec<f64> = diffs.iter().map(|d| d[1]).collect();
        let ((solo, _, solo_iqr), (absorb, _, absorb_iqr)) = (spread(&solo), spread(&absorb));
        println!(
            "  {}: solo {solo:+.3} ({solo_iqr:.3}), scan-1 absorb {absorb:+.3} ({absorb_iqr:.3})",
            case.label
        );
    }
}
