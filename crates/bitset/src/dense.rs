//! Dense fixed-universe bitset.

use crate::heap_words::HeapWords;
use crate::{kernels, words_for};
use std::fmt;

/// A dense bitset over a fixed universe `{0, …, universe-1}`.
///
/// Backed by `Vec<u64>`; all bulk operations run word-at-a-time. The
/// universe size is fixed at construction: binary operations panic if the
/// operands' universes differ, which in this codebase always indicates a
/// logic error (mixing element ids from different ground sets).
///
/// # Examples
///
/// ```
/// use sc_bitset::BitSet;
///
/// let mut a = BitSet::new(100);
/// a.insert(3);
/// a.insert(97);
/// let b = BitSet::from_iter(100, [3, 5]);
/// assert_eq!(a.intersection_count(&b), 1);
/// assert_eq!(a.ones().collect::<Vec<_>>(), vec![3, 97]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    universe: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set over `{0, …, universe-1}`.
    pub fn new(universe: usize) -> Self {
        Self {
            universe,
            words: vec![0; words_for(universe)],
        }
    }

    /// Creates a set containing every element of the universe.
    pub fn full(universe: usize) -> Self {
        let mut s = Self::new(universe);
        s.fill();
        s
    }

    /// Creates a set from an iterator of element ids.
    ///
    /// # Panics
    ///
    /// Panics if any id is `>= universe`.
    pub fn from_iter<I: IntoIterator<Item = u32>>(universe: usize, iter: I) -> Self {
        let mut s = Self::new(universe);
        for e in iter {
            s.insert(e);
        }
        s
    }

    /// The universe size `n` this set ranges over (not the popcount).
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of elements currently in the set.
    pub fn count(&self) -> usize {
        kernels::popcount(&self.words)
    }

    /// `true` if no element is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Tests membership of `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= universe`.
    #[inline]
    pub fn contains(&self, e: u32) -> bool {
        let e = e as usize;
        assert!(
            e < self.universe,
            "element {e} outside universe {}",
            self.universe
        );
        self.words[e / 64] >> (e % 64) & 1 == 1
    }

    /// Inserts `e`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `e >= universe`.
    #[inline]
    pub fn insert(&mut self, e: u32) -> bool {
        let e = e as usize;
        assert!(
            e < self.universe,
            "element {e} outside universe {}",
            self.universe
        );
        let w = &mut self.words[e / 64];
        let mask = 1u64 << (e % 64);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes `e`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `e >= universe`.
    #[inline]
    pub fn remove(&mut self, e: u32) -> bool {
        let e = e as usize;
        assert!(
            e < self.universe,
            "element {e} outside universe {}",
            self.universe
        );
        let w = &mut self.words[e / 64];
        let mask = 1u64 << (e % 64);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Inserts every element of the universe.
    pub fn fill(&mut self) {
        self.words.fill(!0);
        self.trim_tail();
    }

    /// Zeroes the bits above `universe` in the last word.
    fn trim_tail(&mut self) {
        let tail = self.universe % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    fn assert_same_universe(&self, other: &Self) {
        assert_eq!(
            self.universe, other.universe,
            "bitset universes differ ({} vs {})",
            self.universe, other.universe
        );
    }

    /// `self ∪= other`.
    pub fn union_with(&mut self, other: &Self) {
        self.assert_same_universe(other);
        kernels::or_into(&mut self.words, &other.words);
    }

    /// `self ∩= other`.
    pub fn intersect_with(&mut self, other: &Self) {
        self.assert_same_universe(other);
        kernels::and_into(&mut self.words, &other.words);
    }

    /// `self \= other`.
    pub fn difference_with(&mut self, other: &Self) {
        self.assert_same_universe(other);
        kernels::andnot_into(&mut self.words, &other.words);
    }

    /// Overwrites `self` with the contents of `other`.
    pub fn copy_from(&mut self, other: &Self) {
        self.assert_same_universe(other);
        self.words.copy_from_slice(&other.words);
    }

    /// `|self ∩ other|` without materialising the intersection.
    pub fn intersection_count(&self, other: &Self) -> usize {
        self.assert_same_universe(other);
        kernels::and_popcount(&self.words, &other.words)
    }

    /// `|self \ other|` without materialising the difference.
    pub fn difference_count(&self, other: &Self) -> usize {
        self.assert_same_universe(other);
        kernels::andnot_popcount(&self.words, &other.words)
    }

    /// `true` if the two sets share no element.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.assert_same_universe(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        self.assert_same_universe(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Smallest element, if any.
    pub fn first(&self) -> Option<u32> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some((i * 64 + w.trailing_zeros() as usize) as u32);
            }
        }
        None
    }

    /// Iterates over the elements in increasing order.
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collects the elements into a sorted `Vec<u32>`.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.count());
        v.extend(self.ones());
        v
    }

    /// Direct read access to the backing words (for hashing / tests).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Validates a kernel input slice: ascending ids (debug builds) and
    /// in-universe (always, via the largest element — sufficient when
    /// sorted).
    #[inline]
    fn check_sorted(&self, elems: &[u32]) {
        debug_assert!(
            elems.windows(2).all(|w| w[0] <= w[1]),
            "slice kernels require ascending element ids"
        );
        if let Some(&last) = elems.last() {
            assert!(
                (last as usize) < self.universe,
                "element {last} outside universe {}",
                self.universe
            );
        }
    }

    /// `|self ∩ elems|` for an ascending slice of ids.
    ///
    /// Equivalent to `elems.iter().filter(|&&e| self.contains(e)).count()`,
    /// via [`kernels::intersection_count_sorted`]. Slices under 64 ids
    /// (the greedy oracle's stored projections) probe one bit per id;
    /// longer ones are word-batched: the ids are grouped into per-word
    /// membership masks (one `count_ones` per touched word instead of
    /// one shift/add per id), and contiguous word runs stream through
    /// the vector popcount on AVX2 machines.
    ///
    /// # Panics
    ///
    /// Panics if any id is `>= universe`. Ids must be strictly
    /// ascending (checked in debug builds only). Every caller passes
    /// repeat-free slices: `SetSystem::from_sets` dedups its sets, SCB1
    /// records are strictly ascending, and stored projections are
    /// filtered from those sets.
    pub fn intersection_count_slice(&self, elems: &[u32]) -> usize {
        self.check_sorted(elems);
        debug_assert!(
            elems.windows(2).all(|w| w[0] < w[1]),
            "intersection_count_slice requires strictly ascending ids"
        );
        kernels::intersection_count_sorted(&self.words, elems)
    }

    /// Removes every element of an ascending slice. Equivalent to
    /// `for &e in elems { self.remove(e); }`, via
    /// [`kernels::remove_sorted`]: slices under 64 ids clear one bit per
    /// id; longer ones build one mask per touched 64-bit word, then do a
    /// single read-modify-write per word instead of one per element.
    ///
    /// # Panics
    ///
    /// Panics if any id is `>= universe`. Ids must be ascending
    /// (checked in debug builds only).
    pub fn remove_sorted_slice(&mut self, elems: &[u32]) {
        self.check_sorted(elems);
        kernels::remove_sorted(&mut self.words, elems);
    }

    /// Clears the set, then inserts every element of an ascending
    /// slice — `*self = BitSet::from_iter(universe, elems)` without the
    /// allocation, so a scratch bitmap can be refilled in place.
    ///
    /// # Panics
    ///
    /// Panics if any id is `>= universe`. Ids must be ascending
    /// (checked in debug builds only).
    pub fn clear_and_set_from_sorted(&mut self, elems: &[u32]) {
        self.check_sorted(elems);
        self.words.fill(0);
        kernels::insert_sorted(&mut self.words, elems);
    }

    /// Overwrites `out` with `self ∩ elems` (ascending ids). Equivalent
    /// to `out = elems.iter().copied().filter(|&e| self.contains(e)).collect()`
    /// for strictly ascending input, with `out`'s allocation reused.
    /// There is no per-id membership probe: [`kernels::intersect_sorted_into`]
    /// turns the ids into per-word masks (free for runs covering whole
    /// words) and emits the set bits of `word & mask`, so the cost
    /// follows the hits, not the candidates. Both backends run this
    /// same scalar span walk (an AVX2 gather probe measured slower).
    ///
    /// # Panics
    ///
    /// Panics if any id is `>= universe`. Ids must be strictly
    /// ascending (checked in debug builds only).
    pub fn intersect_sorted_into(&self, elems: &[u32], out: &mut Vec<u32>) {
        self.check_sorted(elems);
        kernels::intersect_sorted_into(&self.words, elems, out);
    }
}

impl HeapWords for BitSet {
    fn heap_words(&self) -> usize {
        self.words.capacity()
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.ones()).finish()
    }
}

impl FromIterator<u32> for BitSet {
    /// Builds a set whose universe is `max(iter) + 1` (or 0 when empty).
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let items: Vec<u32> = iter.into_iter().collect();
        let universe = items.iter().max().map_or(0, |&m| m as usize + 1);
        BitSet::from_iter(universe, items)
    }
}

/// Iterator over the set bits of a [`BitSet`], in increasing order.
pub struct Ones<'a> {
    words: &'a [u64],
    index: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.index += 1;
            if self.index >= self.words.len() {
                return None;
            }
            self.current = self.words[self.index];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some((self.index * 64 + bit) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "double insert reports not-fresh");
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert!(s.remove(129));
        assert!(!s.remove(129), "double remove reports absent");
        assert_eq!(s.count(), 1);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn contains_out_of_universe_panics() {
        let s = BitSet::new(10);
        s.contains(10);
    }

    #[test]
    fn full_respects_universe_boundary() {
        for n in [1, 63, 64, 65, 127, 128, 200] {
            let s = BitSet::full(n);
            assert_eq!(s.count(), n, "universe {n}");
            assert_eq!(s.ones().count(), n);
            assert_eq!(s.first(), Some(0));
        }
    }

    #[test]
    fn empty_universe_is_legal() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
        assert_eq!(s.ones().count(), 0);
    }

    #[test]
    fn set_algebra_on_small_example() {
        let a = BitSet::from_iter(10, [1, 3, 5, 7]);
        let b = BitSet::from_iter(10, [3, 4, 5]);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 3, 4, 5, 7]);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![3, 5]);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), vec![1, 7]);

        assert_eq!(a.intersection_count(&b), 2);
        assert_eq!(a.difference_count(&b), 2);
        assert!(!a.is_disjoint(&b));
        assert!(i.is_subset(&a));
        assert!(i.is_subset(&b));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn disjointness_across_word_boundary() {
        let a = BitSet::from_iter(200, [63, 64]);
        let b = BitSet::from_iter(200, [65, 199]);
        assert!(a.is_disjoint(&b));
        let c = BitSet::from_iter(200, [64, 199]);
        assert!(!a.is_disjoint(&c));
    }

    #[test]
    #[should_panic(expected = "universes differ")]
    fn mixed_universe_ops_panic() {
        let mut a = BitSet::new(10);
        let b = BitSet::new(11);
        a.union_with(&b);
    }

    #[test]
    fn ones_iterator_matches_contains() {
        let elems = [0u32, 1, 62, 63, 64, 65, 126, 127, 128, 191];
        let s = BitSet::from_iter(192, elems);
        assert_eq!(s.to_vec(), elems.to_vec());
    }

    #[test]
    fn from_iterator_infers_universe() {
        let s: BitSet = [4u32, 9, 2].into_iter().collect();
        assert_eq!(s.universe(), 10);
        assert_eq!(s.to_vec(), vec![2, 4, 9]);
        let empty: BitSet = std::iter::empty().collect();
        assert_eq!(empty.universe(), 0);
    }

    #[test]
    fn heap_words_tracks_backing_storage() {
        let s = BitSet::new(640);
        assert_eq!(s.heap_words(), 10);
    }

    #[test]
    fn slice_kernels_match_per_element_loops() {
        let universe = 200;
        let s = BitSet::from_iter(universe, [0, 5, 63, 64, 65, 127, 128, 199]);
        let elems = [0u32, 3, 63, 64, 100, 128, 199];

        let want_count = elems.iter().filter(|&&e| s.contains(e)).count();
        assert_eq!(s.intersection_count_slice(&elems), want_count);

        let mut gathered = vec![7, 7, 7]; // stale content must be cleared
        s.intersect_sorted_into(&elems, &mut gathered);
        let want_gather: Vec<u32> = elems.iter().copied().filter(|&e| s.contains(e)).collect();
        assert_eq!(gathered, want_gather);

        let mut removed = s.clone();
        removed.remove_sorted_slice(&elems);
        let mut want_removed = s.clone();
        for &e in &elems {
            want_removed.remove(e);
        }
        assert_eq!(removed, want_removed);

        let mut refilled = BitSet::full(universe);
        refilled.clear_and_set_from_sorted(&elems);
        assert_eq!(refilled, BitSet::from_iter(universe, elems.iter().copied()));
        assert_eq!(refilled.heap_words(), BitSet::new(universe).heap_words());
    }

    #[test]
    fn slice_kernels_accept_empty_slices() {
        let mut s = BitSet::from_iter(10, [1, 2]);
        assert_eq!(s.intersection_count_slice(&[]), 0);
        s.remove_sorted_slice(&[]);
        assert_eq!(s.count(), 2);
        s.clear_and_set_from_sorted(&[]);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn slice_kernels_reject_out_of_universe_ids() {
        let s = BitSet::new(10);
        s.intersection_count_slice(&[3, 10]);
    }
}
