//! Lazy greedy set cover (ρ = ln n + 1).
//!
//! Two queue disciplines implement the same lazy-evaluation strategy:
//! the production path runs on a gain-indexed [`BucketQueue`] (gains
//! only shrink, so a cursor walking the buckets top-down does the work
//! of a max-heap in amortised `O(1)` per operation — `O(Σ|proj|)`
//! total for the sparse oracle), while the original `BinaryHeap`
//! implementations are retained as [`greedy_heap`] /
//! [`greedy_slices_heap`]: the reference the property suite pins the
//! bucket path against bit for bit, and the baseline the `kernels`
//! experiment (E21) measures the speedup over.

use crate::bucket_queue::BucketQueue;
use sc_bitset::BitSet;
use std::collections::BinaryHeap;

/// Greedy set cover over a sub-instance.
///
/// Repeatedly picks the set covering the most still-uncovered elements
/// of `target` until `target` is exhausted; returns indices into `sets`.
/// Classic `(ln n + 1)`-approximation (Johnson/Lovász/Chvátal).
///
/// Uses *lazy evaluation*: gains are monotone non-increasing as elements
/// get covered, so a queue entry holding a stale gain is still an upper
/// bound; on pop we re-count, and only re-file when the fresh gain lost
/// the top spot. Ties break toward the smaller index, which keeps the
/// output deterministic — and identical to [`greedy_heap`].
///
/// Returns `None` if some element of `target` is in no set.
///
/// # Examples
///
/// ```
/// use sc_bitset::BitSet;
/// use sc_offline::greedy;
///
/// let u = 6;
/// let sets = vec![
///     BitSet::from_iter(u, [0, 1, 2, 3]),
///     BitSet::from_iter(u, [0, 1]),
///     BitSet::from_iter(u, [4, 5]),
/// ];
/// let cover = greedy(&sets, &BitSet::full(u)).unwrap();
/// assert_eq!(cover, vec![0, 2]);
/// ```
pub fn greedy(sets: &[BitSet], target: &BitSet) -> Option<Vec<usize>> {
    let count = |i: usize, uncovered: &BitSet| sets[i].intersection_count(uncovered);
    greedy_bucket_core(
        counted_gains(sets.len(), count, target),
        count,
        |i, uncovered| uncovered.difference_with(&sets[i]),
        target,
    )
}

/// Every set's gain against `target`, counted — the initial gains of a
/// caller that knows none of them.
fn counted_gains(
    num_sets: usize,
    count: impl Fn(usize, &BitSet) -> usize,
    target: &BitSet,
) -> Vec<usize> {
    (0..num_sets).map(|i| count(i, target)).collect()
}

/// Greedy set cover over *sparse* sets given as sorted id slices —
/// `algOfflineSC` exactly as the streaming algorithms hold it in memory
/// (stored projections), without densifying anything.
///
/// Identical semantics to [`greedy`] (same lazy strategy, same
/// tie-breaking), but working memory beyond the caller's own structures
/// is one `target`-sized bitmap plus the bucket queue — the "linear
/// space" promise the paper makes for its offline oracle — and total
/// queue work is `O(Σ|proj|)`.
///
/// `get(i)` returns the sorted element ids of set `i`.
pub fn greedy_slices<'a, F>(num_sets: usize, get: F, target: &BitSet) -> Option<Vec<usize>>
where
    F: Fn(usize) -> &'a [u32],
{
    greedy_slices_known_from(num_sets, get, target, num_sets)
}

/// [`greedy_slices`] for a caller that already knows most initial
/// gains: every set at index `known_from` or later lies inside
/// `target`, so its gain is its length, and only the sets before
/// `known_from` are counted. The cover is the one [`greedy_slices`]
/// returns.
///
/// This is the shape of `iterSetCover`'s pass 1: a projection `r ∩ L`
/// stored after the iteration's last heavy pick still lies inside the
/// final `L`, because only heavy picks shrink `L` during the pass.
///
/// # Contract
///
/// The caller vouches for `get(i) ⊆ target` for every `i ≥
/// known_from`. A debug build recounts every supplied gain and panics
/// on a mismatch. A release build trusts them: an overstated gain is
/// still an upper bound, so the result is a valid cover, but ties can
/// resolve differently, so it may not be [`greedy_slices`]' cover.
///
/// # Examples
///
/// ```
/// use sc_bitset::BitSet;
/// use sc_offline::{greedy_slices, greedy_slices_known_from};
///
/// let sets: [&[u32]; 3] = [&[0, 1, 5], &[1, 2], &[3, 4]];
/// let target = BitSet::from_iter(6, [1, 2, 3, 4]);
/// // Sets 1 and 2 lie inside the target; set 0 does not.
/// let known = greedy_slices_known_from(3, |i| sets[i], &target, 1);
/// assert_eq!(known, greedy_slices(3, |i| sets[i], &target));
/// assert_eq!(known, Some(vec![1, 2]));
/// ```
pub fn greedy_slices_known_from<'a, F>(
    num_sets: usize,
    get: F,
    target: &BitSet,
    known_from: usize,
) -> Option<Vec<usize>>
where
    F: Fn(usize) -> &'a [u32],
{
    let count = |i: usize, uncovered: &BitSet| uncovered.intersection_count_slice(get(i));
    let known_from = known_from.min(num_sets);
    let mut gains = counted_gains(known_from, count, target);
    gains.extend((known_from..num_sets).map(|i| get(i).len()));
    greedy_bucket_core(
        gains,
        count,
        |i, uncovered| uncovered.remove_sorted_slice(get(i)),
        target,
    )
}

/// The shared lazy-greedy loop on the gain-indexed bucket queue.
///
/// Replicates the lazy heap's selection rule exactly: pop in `(gain
/// desc, index asc)` order; a popped entry whose fresh gain dropped is
/// re-filed only when it is *strictly* below the next queued gain —
/// when it merely ties, the popped entry wins, exactly as the heap
/// version kept it. `multiplex_equivalence` and `service_equivalence`
/// depend on covers staying bit-identical through this swap.
///
/// `gains[i]` is set `i`'s gain against `target`, supplied by the
/// caller (counted, or known without counting). It must be exact:
/// the tie rule above reads the queued gains, so an overstated one
/// can change which of two equal sets wins. A debug build recounts
/// every supplied gain.
fn greedy_bucket_core(
    gains: Vec<usize>,
    count: impl Fn(usize, &BitSet) -> usize,
    remove: impl Fn(usize, &mut BitSet),
    target: &BitSet,
) -> Option<Vec<usize>> {
    debug_assert!(
        gains
            .iter()
            .enumerate()
            .all(|(i, &g)| g == count(i, target)),
        "a supplied initial gain differs from its count"
    );
    let mut uncovered = target.clone();
    let mut solution = Vec::new();
    if uncovered.is_empty() {
        return Some(solution);
    }
    let mut queue = BucketQueue::new(&gains);
    while !uncovered.is_empty() {
        let (stale_gain, idx) = queue.pop()?;
        let idx = idx as usize;
        let fresh_gain = count(idx, &uncovered);
        debug_assert!(fresh_gain <= stale_gain, "gains must be monotone");
        if fresh_gain == 0 {
            continue;
        }
        if fresh_gain < stale_gain {
            if let Some(top_gain) = queue.peek_gain() {
                if fresh_gain < top_gain {
                    queue.push(fresh_gain, idx as u32);
                    continue;
                }
            }
        }
        solution.push(idx);
        remove(idx, &mut uncovered);
    }
    Some(solution)
}

/// The original `BinaryHeap` lazy greedy, retained as the reference
/// implementation: equivalence tests pin [`greedy`] against it, and
/// E21 measures the bucket queue's speedup over it.
pub fn greedy_heap(sets: &[BitSet], target: &BitSet) -> Option<Vec<usize>> {
    greedy_heap_core(
        sets.len(),
        |i, uncovered| sets[i].intersection_count(uncovered),
        |i, uncovered| uncovered.difference_with(&sets[i]),
        target,
    )
}

/// The original `BinaryHeap` sparse lazy greedy, retained as the
/// reference for [`greedy_slices`] (see [`greedy_heap`]).
pub fn greedy_slices_heap<'a, F>(num_sets: usize, get: F, target: &BitSet) -> Option<Vec<usize>>
where
    F: Fn(usize) -> &'a [u32],
{
    greedy_heap_core(
        num_sets,
        |i, uncovered| uncovered.intersection_count_slice(get(i)),
        |i, uncovered| uncovered.remove_sorted_slice(get(i)),
        target,
    )
}

/// The shared lazy-greedy loop on a max-heap of `(gain, !index)` —
/// larger gain first, *smaller* index first on ties.
fn greedy_heap_core(
    num_sets: usize,
    count: impl Fn(usize, &BitSet) -> usize,
    remove: impl Fn(usize, &mut BitSet),
    target: &BitSet,
) -> Option<Vec<usize>> {
    let mut uncovered = target.clone();
    let mut solution = Vec::new();
    if uncovered.is_empty() {
        return Some(solution);
    }
    let mut heap: BinaryHeap<(usize, usize)> = (0..num_sets)
        .map(|i| (count(i, &uncovered), !i))
        .filter(|&(g, _)| g > 0)
        .collect();
    while !uncovered.is_empty() {
        let (stale_gain, key) = heap.pop()?;
        let idx = !key;
        let fresh_gain = count(idx, &uncovered);
        if fresh_gain == 0 {
            continue;
        }
        if fresh_gain < stale_gain {
            // Entry was stale; only re-insert if it may still win.
            if let Some(&(top_gain, _)) = heap.peek() {
                if fresh_gain < top_gain {
                    heap.push((fresh_gain, key));
                    continue;
                }
            }
        }
        solution.push(idx);
        remove(idx, &mut uncovered);
    }
    Some(solution)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_cover(sets: &[BitSet], u: usize) -> Option<Vec<usize>> {
        greedy(sets, &BitSet::full(u))
    }

    #[test]
    fn picks_largest_first() {
        let u = 10;
        let sets = vec![
            BitSet::from_iter(u, [0, 1]),
            BitSet::from_iter(u, (0..7).collect::<Vec<_>>()),
            BitSet::from_iter(u, [7, 8, 9]),
        ];
        assert_eq!(full_cover(&sets, u).unwrap(), vec![1, 2]);
    }

    #[test]
    fn infeasible_returns_none() {
        let u = 3;
        let sets = vec![BitSet::from_iter(u, [0])];
        assert_eq!(full_cover(&sets, u), None);
        assert_eq!(greedy_heap(&sets, &BitSet::full(u)), None);
    }

    #[test]
    fn empty_target_is_empty_cover() {
        let u = 5;
        let sets = vec![BitSet::from_iter(u, [0])];
        assert_eq!(greedy(&sets, &BitSet::new(u)).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn covers_only_the_target() {
        let u = 6;
        let sets = vec![
            BitSet::from_iter(u, [0, 1]),
            BitSet::from_iter(u, [2, 3]),
            BitSet::from_iter(u, [4, 5]),
        ];
        let target = BitSet::from_iter(u, [0, 4]);
        let cover = greedy(&sets, &target).unwrap();
        assert_eq!(cover, vec![0, 2], "set 1 is irrelevant to the target");
    }

    #[test]
    fn tie_breaks_toward_smaller_index() {
        let u = 4;
        let sets = vec![
            BitSet::from_iter(u, [0, 1]),
            BitSet::from_iter(u, [0, 1]),
            BitSet::from_iter(u, [2, 3]),
        ];
        assert_eq!(full_cover(&sets, u).unwrap(), vec![0, 2]);
    }

    #[test]
    fn classic_log_gap_instance() {
        // Greedy takes the baits on the adversarial instance: the point
        // of the ρ = ln n label.
        let inst = sc_setsystem::gen::greedy_adversarial(5);
        let sets = inst.system.all_bitsets();
        let cover = full_cover(&sets, inst.system.universe()).unwrap();
        assert!(
            cover.len() >= 5,
            "greedy must fall for the baits, got {}",
            cover.len()
        );
        // Sanity: it is still a cover.
        let ids: Vec<u32> = cover.iter().map(|&i| i as u32).collect();
        assert!(inst.system.verify_cover(&ids).is_ok());
    }

    #[test]
    fn duplicate_sets_dont_loop() {
        let u = 2;
        let sets = vec![
            BitSet::from_iter(u, [0, 1]),
            BitSet::from_iter(u, [0, 1]),
            BitSet::from_iter(u, [0, 1]),
        ];
        assert_eq!(full_cover(&sets, u).unwrap(), vec![0]);
    }

    #[test]
    fn greedy_slices_matches_dense_greedy() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..30 {
            let u = rng.random_range(4..40);
            let m = rng.random_range(1..12);
            let mut raw: Vec<Vec<u32>> = (0..m)
                .map(|_| (0..u as u32).filter(|_| rng.random_bool(0.3)).collect())
                .collect();
            raw.push((0..u as u32).collect());
            let dense: Vec<BitSet> = raw
                .iter()
                .map(|s| BitSet::from_iter(u, s.iter().copied()))
                .collect();
            let target = BitSet::full(u);
            let a = greedy(&dense, &target).unwrap();
            let b = greedy_slices(raw.len(), |i| raw[i].as_slice(), &target).unwrap();
            assert_eq!(a, b, "sparse and dense greedy must agree");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "supplied initial gain")]
    fn an_overstated_known_gain_panics_in_debug() {
        // Set 0 reaches outside the target, so its length overstates
        // its gain: the caller broke the contract.
        let raw = [vec![0u32, 1, 2]];
        let target = BitSet::from_iter(4, [0, 1]);
        let _ = greedy_slices_known_from(1, |i| raw[i].as_slice(), &target, 0);
    }

    #[test]
    fn greedy_slices_infeasible_is_none() {
        let raw = [vec![0u32]];
        let target = BitSet::full(2);
        assert_eq!(greedy_slices(1, |i| raw[i].as_slice(), &target), None);
        assert_eq!(greedy_slices_heap(1, |i| raw[i].as_slice(), &target), None);
    }
}
