//! Bit-identity of the bucket-queue greedy against the retained
//! `BinaryHeap` reference, for both the dense and sparse entry points.
//!
//! The swap is only safe because the two disciplines pop in exactly the
//! same `(gain desc, index asc)` order and apply the same lazy
//! re-insert rule; these properties pin that on random instances plus
//! the adversarial shapes where an ordering bug would hide: all-ties
//! families (every set equal), zero-gain sets (disjoint from the
//! target), and infeasible instances (`None` must match too). The
//! known-gain entry point, which takes the lengths of the sets inside
//! the target as their gains instead of counting them, is pinned to
//! the counting one the same way.

use proptest::prelude::*;
use sc_bitset::BitSet;
use sc_offline::{
    greedy, greedy_heap, greedy_slices, greedy_slices_heap, greedy_slices_known_from,
};

const UNIVERSE: usize = 96;

fn sorted_set() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..UNIVERSE as u32, 0..48).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

fn family() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(sorted_set(), 0..24)
}

fn densify(raw: &[Vec<u32>]) -> Vec<BitSet> {
    raw.iter()
        .map(|s| BitSet::from_iter(UNIVERSE, s.iter().copied()))
        .collect()
}

proptest! {
    #[test]
    fn bucket_matches_heap_dense(raw in family(), tgt in sorted_set()) {
        // Covers feasible and infeasible draws alike: `None` on one
        // side must be `None` on the other.
        let sets = densify(&raw);
        let target = BitSet::from_iter(UNIVERSE, tgt.iter().copied());
        prop_assert_eq!(greedy(&sets, &target), greedy_heap(&sets, &target));
    }

    #[test]
    fn bucket_matches_heap_slices(raw in family(), tgt in sorted_set()) {
        let target = BitSet::from_iter(UNIVERSE, tgt.iter().copied());
        prop_assert_eq!(
            greedy_slices(raw.len(), |i| raw[i].as_slice(), &target),
            greedy_slices_heap(raw.len(), |i| raw[i].as_slice(), &target)
        );
    }

    #[test]
    fn known_gains_match_counting(raw in family(), tgt in sorted_set(), cut in 0usize..32) {
        // Sets from `known_from` on are clipped to the target, so their
        // lengths are their exact gains, as for projections stored
        // after a pass's last heavy pick; the earlier ones may reach
        // outside it and are counted.
        let target = BitSet::from_iter(UNIVERSE, tgt.iter().copied());
        let known_from = cut.min(raw.len());
        let sets: Vec<Vec<u32>> = raw
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let inside = s.iter().copied().filter(|&e| target.contains(e));
                if i < known_from { s.clone() } else { inside.collect() }
            })
            .collect();
        let get = |i: usize| sets[i].as_slice();
        let counted = greedy_slices(sets.len(), get, &target);
        prop_assert_eq!(
            greedy_slices_known_from(sets.len(), get, &target, known_from),
            counted.clone()
        );
        prop_assert_eq!(greedy_slices_heap(sets.len(), get, &target), counted);
    }

    #[test]
    fn all_ties_family_matches(copies in 1usize..16, set in sorted_set()) {
        // Every set identical: every pop is a tie, so this isolates the
        // index-ascending tie-break (and the duplicate-set fast path
        // where later copies collapse to gain 0).
        let raw: Vec<Vec<u32>> = (0..copies).map(|_| set.clone()).collect();
        let sets = densify(&raw);
        let target = BitSet::from_iter(UNIVERSE, set.iter().copied());
        let bucket = greedy(&sets, &target);
        prop_assert_eq!(bucket.clone(), greedy_heap(&sets, &target));
        if !set.is_empty() {
            prop_assert_eq!(bucket, Some(vec![0]), "first copy must win every tie");
        }
    }

    #[test]
    fn zero_gain_sets_are_inert(useful in sorted_set(), junk_count in 0usize..8) {
        // Sets disjoint from the target are filtered at queue build; a
        // bucket-queue bug around the 0 bucket would surface here.
        let mut raw: Vec<Vec<u32>> = Vec::new();
        let half: Vec<u32> = useful.iter().copied().filter(|&e| e < UNIVERSE as u32 / 2).collect();
        raw.push(half);
        raw.push(useful.clone());
        for _ in 0..junk_count {
            raw.push(Vec::new()); // gain 0 against any target
        }
        let sets = densify(&raw);
        let target = BitSet::from_iter(UNIVERSE, useful.iter().copied());
        let bucket = greedy(&sets, &target);
        prop_assert_eq!(bucket.clone(), greedy_heap(&sets, &target));
        prop_assert_eq!(
            greedy_slices(raw.len(), |i| raw[i].as_slice(), &target),
            bucket
        );
    }
}

/// Deterministic regression: the lazy re-insert path (stale pop, fresh
/// gain strictly below the next queued gain) must re-file into a lower
/// bucket and still come out in heap order.
#[test]
fn lazy_reinsert_sequence_matches_heap() {
    let raw: Vec<Vec<u32>> = vec![
        (0..40).collect(),            // big opener
        (30..60).collect(),           // overlaps the opener → goes stale
        (55..70).collect(),           // overlaps set 1
        (68..96).collect(),           // tail
        (0..96).step_by(3).collect(), // scattered, stale after any pick
    ];
    let sets: Vec<BitSet> = raw
        .iter()
        .map(|s| BitSet::from_iter(UNIVERSE, s.iter().copied()))
        .collect();
    let target = BitSet::full(UNIVERSE);
    let bucket = greedy(&sets, &target);
    assert_eq!(bucket, greedy_heap(&sets, &target));
    assert_eq!(
        bucket,
        greedy_slices(raw.len(), |i| raw[i].as_slice(), &target)
    );
}
