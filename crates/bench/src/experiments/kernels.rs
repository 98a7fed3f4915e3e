//! E21 — vectorized bitset kernels + bucket-queue greedy oracle.
//!
//! Not a paper artifact: this experiment tracks the two perf levers of
//! PR 6 and pins their observational equivalence in the same breath.
//!
//! * **Kernel rows** A/B the dispatched bitset kernels against the
//!   forced-scalar path via [`kernels::force_scalar`] — same entry
//!   points, same inputs, one process — over dense, half-dense, and
//!   sparse sorted slices plus whole-word set algebra. On an AVX2
//!   machine the dispatched side runs the 256-bit paths; elsewhere both
//!   sides are scalar and the speedup column reads ~1x. The
//!   `intersect_into` rows instead use the classic per-candidate probe
//!   loop as base, since the emit kernel is shared by both backends.
//!   The `… short` rows use the scalar span walker as base and the
//!   dispatched entry point as opt: below 64 ids it probes one bit per
//!   id on every backend, the shape of the greedy oracle's projections.
//! * **Oracle rows** time the gain-indexed bucket-queue greedy
//!   ([`greedy_slices`]) against the retained `BinaryHeap` reference
//!   ([`greedy_slices_heap`]) on planted instances, asserting the
//!   covers are bit-identical.
//! * **End-to-end row** runs `iterSetCover` under both kernel
//!   backends and asserts cover, passes, and space all match.
//!
//! The `workload` / `size` / `identical` columns are deterministic and
//! CI-gated (`repro --check BENCH_kernels.json`); the timing columns
//! (`… ms`, `speedup`) are machine-dependent and skipped by the gate.
//! The acceptance bar recorded in EXPERIMENTS.md is a ≥ 2× kernel
//! speedup on dense slices on an AVX2 host.

use crate::{Scale, Table};
use sc_bitset::kernels;
use sc_core::{IterSetCover, IterSetCoverConfig};
use sc_offline::{greedy_slices, greedy_slices_heap};
use sc_setsystem::gen;
use sc_stream::run_reported;
use std::hint::black_box;
use std::time::Instant;

/// Minimum wall-clock of `repeats` timed runs of `f`, in seconds.
fn best_secs<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..repeats {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Times `f` once forced-scalar and once dispatched, returning
/// `(scalar secs, dispatched secs)`. The dispatched side runs first so
/// a panic inside `f` cannot leave the process pinned to scalar.
fn ab<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, f64) {
    let dispatched = best_secs(repeats, &mut f);
    kernels::force_scalar(true);
    let scalar = best_secs(repeats, &mut f);
    kernels::force_scalar(false);
    (scalar, dispatched)
}

fn timed_row(
    table: &mut Table,
    workload: &str,
    size: String,
    scalar: f64,
    opt: f64,
    identical: bool,
) {
    table.row(vec![
        workload.into(),
        size,
        format!("{:.2}", scalar * 1e3),
        format!("{:.2}", opt * 1e3),
        format!("{:.2}x", scalar / opt.max(1e-12)),
        identical.to_string(),
    ]);
}

/// Sorted ids over `words * 64` bits taking every `stride`-th element.
fn strided_ids(words: usize, stride: u32) -> Vec<u32> {
    (0..(words * 64) as u32).step_by(stride as usize).collect()
}

/// Deterministic pseudo-random word fill (splitmix64).
fn noise_words(len: usize, mut seed: u64) -> Vec<u64> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

/// `count` ascending slices of `len` distinct ids over `bitmap`'s
/// universe: scattered ids, or (`dense`) a run of consecutive ids
/// inside one word.
fn short_slices(bitmap: &[u64], count: usize, len: usize, dense: bool) -> Vec<Vec<u32>> {
    let bits = (bitmap.len() * 64) as u64;
    let mut draws = noise_words(count * (len + 1), 4).into_iter();
    let mut draw = |below: u64| (draws.next().expect("enough draws") % below) as u32;
    (0..count)
        .map(|_| {
            if dense {
                let start = draw(bits / 64) * 64 + draw(65 - len as u64);
                (start..start + len as u32).collect()
            } else {
                let mut ids = Vec::with_capacity(len);
                while ids.len() < len {
                    let e = draw(bits);
                    if !ids.contains(&e) {
                        ids.push(e);
                    }
                }
                ids.sort_unstable();
                ids
            }
        })
        .collect()
}

/// Benchmarks the kernel dispatch and the bucket-queue oracle, pinning
/// both against their reference paths.
pub fn kernels(scale: Scale) -> Table {
    let mut table = Table::new(
        "E21 — vectorized bitset kernels + bucket-queue greedy oracle",
        &[
            "workload",
            "size",
            "base ms",
            "opt ms",
            "speedup",
            "identical",
        ],
    );
    let words = scale.pick(1 << 10, 1 << 14); // 64 Kbit / 1 Mbit bitmaps
    let repeats = scale.pick(3, 20);
    let a = noise_words(words, 1);
    let b = noise_words(words, 2);

    // Whole-word algebra: the intersection-count inner loop of the
    // dense greedy and the multiplexer's residual updates.
    let (s, d) = ab(repeats, || kernels::and_popcount(&a, &b));
    kernels::force_scalar(true);
    let scalar_count = kernels::and_popcount(&a, &b);
    kernels::force_scalar(false);
    let identical = kernels::and_popcount(&a, &b) == scalar_count;
    timed_row(
        &mut table,
        "and_popcount words",
        format!("{words} w"),
        s,
        d,
        identical,
    );

    // Sorted-slice counting at three densities: stride 1 saturates the
    // mask fragments (vector popcount per 4 words), stride 2 still
    // rides the fragment path, stride 64 is one bit per word — the
    // sparse regime where the fragment splitter degrades to scalar.
    for (label, stride) in [("dense", 1u32), ("half", 2), ("sparse", 64)] {
        let ids = strided_ids(words, stride);
        let (s, d) = ab(repeats, || kernels::intersection_count_sorted(&a, &ids));
        kernels::force_scalar(true);
        let want = kernels::intersection_count_sorted(&a, &ids);
        kernels::force_scalar(false);
        let identical = kernels::intersection_count_sorted(&a, &ids) == want;
        timed_row(
            &mut table,
            &format!("count_sorted {label}"),
            format!("{} ids", ids.len()),
            s,
            d,
            identical,
        );
    }

    // Filtering emit (the projection builder's hot loop): base is the
    // classic per-candidate probe loop, opt the span walk that emits
    // ids straight from `word & mask` bits — the membership probes
    // vanish for everything the splitter classifies as a span. (The
    // walk is shared by both backends; a `vpgatherqq` probe was tried
    // for the AVX2 side and measured slower, see kernels.rs.)
    for (label, stride) in [("dense", 1u32), ("third", 3)] {
        let ids = strided_ids(words, stride);
        let mut out = Vec::with_capacity(ids.len());
        let probe = best_secs(repeats, || {
            out.clear();
            for &e in &ids {
                if a[(e >> 6) as usize] >> (e & 63) & 1 == 1 {
                    out.push(e);
                }
            }
            out.len()
        });
        let want = std::mem::take(&mut out);
        let kernel = best_secs(repeats, || {
            kernels::intersect_sorted_into(&a, &ids, &mut out);
            out.len()
        });
        kernels::intersect_sorted_into(&a, &ids, &mut out);
        timed_row(
            &mut table,
            &format!("intersect_into {label}"),
            format!("{} ids", ids.len()),
            probe,
            kernel,
            out == want,
        );
    }

    // Batched clear: uncovered-set maintenance after a greedy pick.
    let ids = strided_ids(words, 2);
    let mut scratch = vec![0u64; words];
    let (s, d) = ab(repeats, || {
        scratch.copy_from_slice(&a);
        kernels::remove_sorted(&mut scratch, &ids);
        scratch[0]
    });
    let mut got = a.clone();
    kernels::remove_sorted(&mut got, &ids);
    kernels::force_scalar(true);
    let mut want = a.clone();
    kernels::remove_sorted(&mut want, &ids);
    kernels::force_scalar(false);
    timed_row(
        &mut table,
        "remove_sorted half",
        format!("{} ids", ids.len()),
        s,
        d,
        got == want,
    );

    // Short slices: the greedy oracle's stored projections (~5 ids
    // spread over a planted n=1024 universe, or a run of ids inside one
    // word), tens of thousands of calls per query. Base is the scalar
    // span walker, opt the dispatched entry point, which probes one bit
    // per id below 64 ids.
    let bitmap = noise_words(16, 3);
    let nslices = scale.pick(1 << 12, 1 << 15);
    for (label, len) in [("sparse", 5usize), ("dense", 48)] {
        let slices = short_slices(&bitmap, nslices, len, label == "dense");
        let count_all = |count: fn(&[u64], &[u32]) -> usize| {
            slices.iter().map(|e| count(&bitmap, e)).sum::<usize>()
        };
        let walk = best_secs(repeats, || {
            count_all(kernels::scalar::intersection_count_sorted)
        });
        let probe = best_secs(repeats, || count_all(kernels::intersection_count_sorted));
        let identical = slices.iter().all(|e| {
            kernels::intersection_count_sorted(&bitmap, e)
                == kernels::scalar::intersection_count_sorted(&bitmap, e)
        });
        assert!(identical, "short-slice count diverged from the span walker");
        timed_row(
            &mut table,
            &format!("count_sorted short {label}"),
            format!("{nslices}x{len} ids"),
            walk,
            probe,
            identical,
        );

        let mut scratch = bitmap.clone();
        let mut remove_all = |remove: fn(&mut [u64], &[u32])| {
            for e in &slices {
                scratch.copy_from_slice(&bitmap);
                remove(&mut scratch, e);
            }
            scratch[0]
        };
        let walk = best_secs(repeats, || remove_all(kernels::scalar::remove_sorted));
        let probe = best_secs(repeats, || remove_all(kernels::remove_sorted));
        let identical = slices.iter().all(|e| {
            let mut got = bitmap.clone();
            kernels::remove_sorted(&mut got, e);
            let mut want = bitmap.clone();
            kernels::scalar::remove_sorted(&mut want, e);
            got == want
        });
        assert!(
            identical,
            "short-slice removal diverged from the span walker"
        );
        timed_row(
            &mut table,
            &format!("remove_sorted short {label}"),
            format!("{nslices}x{len} ids"),
            walk,
            probe,
            identical,
        );
    }

    // Oracle rows: bucket queue vs the retained heap on the stored
    // projections of planted instances (the shape `iterSetCover` and
    // the geometric solver actually feed the oracle).
    let oracle_grid: Vec<(usize, usize, usize)> = match scale {
        Scale::Quick => vec![(1 << 10, 1 << 9, 8)],
        Scale::Full => vec![(1 << 14, 1 << 12, 32), (1 << 15, 1 << 13, 32)],
    };
    for (n, m, k) in oracle_grid {
        let inst = gen::planted(n, m, k, 42);
        let sys = &inst.system;
        let target = sc_bitset::BitSet::full(n);
        let get = |i: usize| sys.set(i as u32);
        let heap = best_secs(repeats, || greedy_slices_heap(m, get, &target));
        let bucket = best_secs(repeats, || greedy_slices(m, get, &target));
        let identical = greedy_slices(m, get, &target) == greedy_slices_heap(m, get, &target);
        assert!(identical, "bucket-queue greedy diverged from the heap");
        timed_row(
            &mut table,
            "greedy oracle heap→bucket",
            format!("n={n} m={m}"),
            heap,
            bucket,
            identical,
        );
    }

    // End-to-end: the full streaming pipeline under both backends.
    let (n, m, k) = scale.pick((1 << 10, 1 << 9, 8), (1 << 14, 1 << 13, 32));
    let inst = gen::planted(n, m, k, 42);
    let mut run = || {
        let mut alg = IterSetCover::new(IterSetCoverConfig {
            delta: 0.5,
            ..Default::default()
        });
        run_reported(&mut alg, &inst.system)
    };
    let e2e_repeats = scale.pick(1, 3);
    black_box(run()); // untimed warmup: fault pages + warm caches once
    let dispatched_secs = best_secs(e2e_repeats, &mut run);
    let dispatched = run();
    kernels::force_scalar(true);
    let scalar_secs = best_secs(e2e_repeats, &mut run);
    let forced = run();
    kernels::force_scalar(false);
    assert!(dispatched.verified.is_ok(), "iterSetCover: not a cover");
    let identical = dispatched.cover == forced.cover
        && dispatched.passes == forced.passes
        && dispatched.space_words == forced.space_words;
    timed_row(
        &mut table,
        "iterSetCover end-to-end",
        format!("n={n} m={m}"),
        scalar_secs,
        dispatched_secs,
        identical,
    );

    table.note(format!(
        "dispatched kernel backend: {} (base = forced scalar via force_scalar, same process)",
        kernels::backend_name()
    ));
    table.note("short rows: base = scalar span walker, opt = dispatched per-id probe");
    table.note("oracle rows: base = BinaryHeap lazy greedy, opt = gain-indexed bucket queue");
    table.note(
        "`identical` = bit-identical results across the two paths (asserted, not just reported)",
    );
    table.note("timing columns (… ms, speedup) are machine-dependent; repro --check skips them");
    table
}
