//! Parity of the dispatched (possibly vector) kernels against the
//! portable scalar baselines in `sc_bitset::kernels::scalar`.
//!
//! On an AVX2 machine the dispatched entry points run the 256-bit
//! paths, so every case here pins vector == scalar bit-for-bit; on
//! other machines (or under `SC_BITSET_FORCE_SCALAR=1`, the CI
//! fallback lane) both sides run scalar and the suite still checks the
//! kernels against the `BTreeSet` model through `BitSet`.
//!
//! Word-boundary edge cases get dedicated deterministic tests: ids at
//! 0/63/64/127/128, whole saturated words, fragments longer than the
//! kernels' internal run buffer, and the 4-word vector chunk tails.

use proptest::prelude::*;
use sc_bitset::{kernels, BitSet};

const UNIVERSE: usize = 2048; // 32 words: several vector chunks + tail

fn sorted_ids() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..UNIVERSE as u32, 0..256).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

fn word_vec() -> impl Strategy<Value = Vec<u64>> {
    // Length varies so vector chunk counts and scalar tails both occur.
    (0usize..40).prop_flat_map(|len| proptest::collection::vec(any::<u64>(), len..=len))
}

type BitwiseKernel = fn(&mut [u64], &[u64]);

fn bitmap_words() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), UNIVERSE / 64..=UNIVERSE / 64)
}

proptest! {
    #[test]
    fn popcounts_match_scalar(a in word_vec()) {
        prop_assert_eq!(kernels::popcount(&a), kernels::scalar::popcount(&a));
    }

    #[test]
    fn pair_popcounts_match_scalar(a in word_vec()) {
        // Derive b from a so lengths agree without a dependent strategy.
        let b: Vec<u64> = a.iter().map(|w| w.rotate_left(17) ^ 0x5555_5555_5555_5555).collect();
        prop_assert_eq!(kernels::and_popcount(&a, &b), kernels::scalar::and_popcount(&a, &b));
        prop_assert_eq!(kernels::andnot_popcount(&a, &b), kernels::scalar::andnot_popcount(&a, &b));
    }

    #[test]
    fn bitwise_ops_match_scalar(a in word_vec()) {
        let b: Vec<u64> = a.iter().map(|w| w.rotate_right(29) ^ 0x0f0f_0f0f_0f0f_0f0f).collect();
        let pairs: [(BitwiseKernel, BitwiseKernel); 3] = [
            (kernels::or_into, kernels::scalar::or_into),
            (kernels::and_into, kernels::scalar::and_into),
            (kernels::andnot_into, kernels::scalar::andnot_into),
        ];
        for (dispatched, reference) in pairs {
            let mut x = a.clone();
            let mut y = a.clone();
            dispatched(&mut x, &b);
            reference(&mut y, &b);
            prop_assert_eq!(&x, &y);
        }
    }

    #[test]
    fn count_sorted_matches_scalar_and_model(words in bitmap_words(), elems in sorted_ids()) {
        let got = kernels::intersection_count_sorted(&words, &elems);
        prop_assert_eq!(got, kernels::scalar::intersection_count_sorted(&words, &elems));
        let model = elems
            .iter()
            .filter(|&&e| words[(e >> 6) as usize] >> (e & 63) & 1 == 1)
            .count();
        prop_assert_eq!(got, model);
    }

    #[test]
    fn intersect_sorted_into_matches_scalar_and_model(words in bitmap_words(), elems in sorted_ids()) {
        let mut got = vec![99; 3]; // stale content must be cleared
        kernels::intersect_sorted_into(&words, &elems, &mut got);
        let mut reference = Vec::new();
        kernels::scalar::intersect_sorted_into(&words, &elems, &mut reference);
        prop_assert_eq!(&got, &reference);
        let model: Vec<u32> = elems
            .iter()
            .copied()
            .filter(|&e| words[(e >> 6) as usize] >> (e & 63) & 1 == 1)
            .collect();
        prop_assert_eq!(got, model);
    }

    #[test]
    fn mutating_kernels_match_scalar(words in bitmap_words(), elems in sorted_ids()) {
        let mut removed = words.clone();
        let mut removed_ref = words.clone();
        kernels::remove_sorted(&mut removed, &elems);
        kernels::scalar::remove_sorted(&mut removed_ref, &elems);
        prop_assert_eq!(removed, removed_ref);

        let mut inserted = words.clone();
        let mut inserted_ref = words;
        kernels::insert_sorted(&mut inserted, &elems);
        kernels::scalar::insert_sorted(&mut inserted_ref, &elems);
        prop_assert_eq!(inserted, inserted_ref);
    }

    #[test]
    fn bitset_slice_kernels_match_model(a in sorted_ids(), b in sorted_ids()) {
        // End-to-end through BitSet: whatever backend is active must
        // agree with the per-element reference loops.
        let s = BitSet::from_iter(UNIVERSE, a.iter().copied());
        let want_count = b.iter().filter(|&&e| s.contains(e)).count();
        prop_assert_eq!(s.intersection_count_slice(&b), want_count);

        let mut gathered = Vec::new();
        s.intersect_sorted_into(&b, &mut gathered);
        let want: Vec<u32> = b.iter().copied().filter(|&e| s.contains(e)).collect();
        prop_assert_eq!(gathered, want);
    }
}

/// Ids packed around every word boundary plus saturated full words —
/// the masks exercise single-bit, partial, and all-ones cases, and the
/// trailing dense block is long enough to overflow the kernels'
/// internal fragment buffer (32 words) mid-run.
#[test]
fn word_boundary_and_long_run_edges() {
    let mut elems: Vec<u32> = vec![0, 1, 62, 63, 64, 65, 126, 127, 128, 191, 192];
    elems.extend(512..512 + 64 * 40); // 40 saturated words in one run
    elems.sort_unstable();
    elems.dedup();
    let words = vec![0xdead_beef_0123_4567u64; 64]; // ids reach word 47

    assert_eq!(
        kernels::intersection_count_sorted(&words, &elems),
        kernels::scalar::intersection_count_sorted(&words, &elems),
    );
    let model = elems
        .iter()
        .filter(|&&e| words[(e >> 6) as usize] >> (e & 63) & 1 == 1)
        .count();
    assert_eq!(kernels::intersection_count_sorted(&words, &elems), model);

    let mut removed = words.clone();
    let mut removed_ref = words.clone();
    kernels::remove_sorted(&mut removed, &elems);
    kernels::scalar::remove_sorted(&mut removed_ref, &elems);
    assert_eq!(removed, removed_ref);
    for &e in &elems {
        assert_eq!(removed[(e >> 6) as usize] >> (e & 63) & 1, 0);
    }

    let mut out = Vec::new();
    kernels::intersect_sorted_into(&words, &elems, &mut out);
    let want: Vec<u32> = elems
        .iter()
        .copied()
        .filter(|&e| words[(e >> 6) as usize] >> (e & 63) & 1 == 1)
        .collect();
    assert_eq!(out, want);
}

/// Short inputs hit every split of the emit path's span/fragment
/// classification: lengths 0..=9 cover empty, single-id, and
/// multi-fragment shapes.
#[test]
fn emit_tail_lengths() {
    let words = vec![!0u64; 4];
    for len in 0..=9u32 {
        let elems: Vec<u32> = (0..len).map(|i| i * 13 % 256).collect();
        let mut sorted = elems;
        sorted.sort_unstable();
        sorted.dedup();
        let mut out = Vec::new();
        kernels::intersect_sorted_into(&words, &sorted, &mut out);
        assert_eq!(out, sorted, "len {len}");
        assert_eq!(
            kernels::intersection_count_sorted(&words, &sorted),
            sorted.len()
        );
    }
}

/// An empty bitmap (universe 0) must be legal for every kernel.
#[test]
fn empty_bitmap_is_legal() {
    let mut none: Vec<u64> = Vec::new();
    assert_eq!(kernels::popcount(&none), 0);
    assert_eq!(kernels::and_popcount(&none, &[]), 0);
    assert_eq!(kernels::intersection_count_sorted(&none, &[]), 0);
    kernels::remove_sorted(&mut none, &[]);
    kernels::insert_sorted(&mut none, &[]);
    let mut out = vec![7];
    kernels::intersect_sorted_into(&none, &[], &mut out);
    assert!(out.is_empty());
}

/// Lane compaction, dispatched against scalar and a filter model: the
/// lanes at both ends of each 32-bit half, every length from 0 to 70
/// (so each 1–3 id tail follows each number of whole 4-id blocks), and
/// masks that are all zero, all one, random, or set only on lanes
/// other than the compacted one. The count and the hit prefix must
/// agree; the scratch past the prefix may differ.
#[test]
fn compact_lane_matches_scalar_and_model() {
    let mut seed = 0x5eed_u64;
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for lane in [0u32, 1, 31, 32, 62, 63] {
        for len in 0..=70usize {
            let elems: Vec<u32> = (0..len as u32).map(|i| i * 7 + 3).collect();
            let random: Vec<u64> = (0..len).map(|_| next()).collect();
            let shapes = [
                ("zero", vec![0u64; len]),
                ("ones", vec![!0u64; len]),
                ("random", random),
                ("other lanes", vec![!(1u64 << lane); len]),
            ];
            for (shape, masks) in &shapes {
                let model: Vec<u32> = elems
                    .iter()
                    .zip(masks)
                    .filter(|&(_, m)| (m >> lane) & 1 == 1)
                    .map(|(&e, _)| e)
                    .collect();
                let mut got = vec![u32::MAX; len];
                let mut want = vec![u32::MAX; len];
                let n = kernels::compact_lane(&elems, masks, lane, &mut got);
                let m = kernels::scalar::compact_lane(&elems, masks, lane, &mut want);
                let label = format!("lane {lane} len {len} {shape}");
                assert_eq!(n, m, "{label}: count");
                assert_eq!(&got[..n], &want[..m], "{label}: hits");
                assert_eq!(&got[..n], model.as_slice(), "{label}: model");
            }
        }
    }
}
