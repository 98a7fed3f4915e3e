//! Offline set cover solvers — the paper's `algOfflineSC`.
//!
//! `iterSetCover` (Figure 1.3) and `algGeomSC` (Figure 4.1) both invoke
//! an offline oracle on the instance held in memory. The paper
//! parameterises its bounds by the oracle quality ρ:
//!
//! * **ρ = ln n** — the classical greedy algorithm, here implemented as
//!   *lazy greedy* ([`greedy()`](greedy::greedy)): gains only shrink, so a stale priority
//!   entry can be re-evaluated on pop instead of rescanning the family.
//!   The priority structure is a gain-indexed [`BucketQueue`] whose
//!   cursor only moves down — amortised `O(1)` per queue operation
//!   versus the `O(log m)` of the retained heap reference
//!   ([`greedy_heap`]).
//! * **ρ = 1** — an exact solver, which the paper invokes under the
//!   "exponential computational power" assumption (Theorem 2.8 sets
//!   δ = c/log n with ρ = 1 to match Nisan's lower bound). Implemented
//!   as branch-and-bound ([`exact()`](exact::exact)) with dominance-free branching on the
//!   hardest element, greedy warm start, and a counting lower bound.
//!
//! Both operate on *sub-instances*: a slice of dense bitsets over a
//! compact local universe (the element sample of the moment), because
//! that is exactly what the streaming algorithms hold in memory when
//! they call the oracle. [`max_k_cover`] is the Max-k-Cover greedy that
//! the Saha–Getoor baseline needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket_queue;
pub mod exact;
pub mod greedy;
pub mod lp;
pub mod max_cover;
pub mod primal_dual;
mod solver;

pub use bucket_queue::BucketQueue;
pub use exact::{exact, ExactOutcome};
pub use greedy::{
    greedy, greedy_heap, greedy_slices, greedy_slices_heap, greedy_slices_known_from,
};
pub use lp::{
    fractional_coverage, fractional_mwu, randomized_rounding, FractionalCover, RoundedCover,
};
pub use max_cover::max_k_cover;
pub use primal_dual::{dual_lower_bound, max_frequency, primal_dual, PrimalDualOutcome};
pub use solver::{Infeasible, OfflineSolver};

use sc_bitset::BitSet;

/// Checks that `target ⊆ ⋃ sets` — the precondition of every solver.
pub fn is_feasible(sets: &[BitSet], target: &BitSet) -> bool {
    let mut reach = BitSet::new(target.universe());
    for s in sets {
        reach.union_with(s);
    }
    target.is_subset(&reach)
}

/// Dominance filter over sparse sets given as sorted id slices: returns
/// the indices of the inclusion-*maximal* sets (duplicates keep their
/// first occurrence).
///
/// Some optimal cover uses only maximal sets, so solvers may restrict
/// to the survivors. Streaming callers run this on their stored
/// projections before densifying anything — typically collapsing
/// thousands of dominated projections to a handful.
pub fn dominance_filter_slices<'a, F>(count: usize, get: F) -> Vec<usize>
where
    F: Fn(usize) -> &'a [u32],
{
    let mut order: Vec<usize> = (0..count).filter(|&i| !get(i).is_empty()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(get(i).len()), i));
    let mut kept: Vec<usize> = Vec::new();
    'cand: for i in order {
        let s = get(i);
        for &j in &kept {
            if sorted_subset(s, get(j)) {
                continue 'cand;
            }
        }
        kept.push(i);
    }
    kept.sort_unstable();
    kept
}

/// `a ⊆ b` for sorted, deduplicated slices (linear merge).
fn sorted_subset(a: &[u32], b: &[u32]) -> bool {
    let mut bi = 0usize;
    'outer: for &x in a {
        while bi < b.len() {
            match b[bi].cmp(&x) {
                std::cmp::Ordering::Less => bi += 1,
                std::cmp::Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasibility_check() {
        let u = 4;
        let sets = vec![BitSet::from_iter(u, [0, 1]), BitSet::from_iter(u, [2])];
        assert!(is_feasible(&sets, &BitSet::from_iter(u, [0, 2])));
        assert!(!is_feasible(&sets, &BitSet::from_iter(u, [3])));
        assert!(
            is_feasible(&sets, &BitSet::new(u)),
            "empty target always feasible"
        );
    }

    #[test]
    fn dominance_filter_keeps_maximal_only() {
        let sets: Vec<Vec<u32>> = vec![
            vec![1, 2, 3], // kept
            vec![1, 2],    // dominated by 0
            vec![4, 5],    // kept
            vec![],        // dropped (empty)
            vec![1, 2, 3], // duplicate of 0 — dropped
            vec![3, 4],    // kept (not a subset of anything)
        ];
        let kept = dominance_filter_slices(sets.len(), |i| sets[i].as_slice());
        assert_eq!(kept, vec![0, 2, 5]);
    }

    #[test]
    fn dominance_filter_union_is_preserved() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let m = rng.random_range(1..20);
            let sets: Vec<Vec<u32>> = (0..m)
                .map(|_| {
                    let mut v: Vec<u32> = (0..20u32).filter(|_| rng.random_bool(0.3)).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let kept = dominance_filter_slices(sets.len(), |i| sets[i].as_slice());
            let full: std::collections::BTreeSet<u32> = sets.iter().flatten().copied().collect();
            let reduced: std::collections::BTreeSet<u32> =
                kept.iter().flat_map(|&i| sets[i].iter().copied()).collect();
            assert_eq!(full, reduced, "filter lost coverage");
        }
    }

    #[test]
    fn sorted_subset_basics() {
        assert!(sorted_subset(&[], &[1, 2]));
        assert!(sorted_subset(&[2], &[1, 2, 3]));
        assert!(!sorted_subset(&[0], &[1, 2]));
        assert!(!sorted_subset(&[1, 4], &[1, 2, 3]));
        assert!(sorted_subset(&[1, 2, 3], &[1, 2, 3]));
    }
}
