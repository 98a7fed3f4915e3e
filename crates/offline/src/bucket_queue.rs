//! Gain-indexed bucket queue for the lazy greedy oracle.
//!
//! The lazy-heap greedy pops sets in `(gain desc, index asc)` order,
//! re-inserting entries whose cached gain went stale. Gains only ever
//! *decrease* (covering elements can't grow another set's residual
//! coverage), so a `BinaryHeap`'s full ordering — `O(log m)` per
//! operation — is overkill: a vector of buckets indexed by gain with a
//! cursor that moves monotonically **down** supports the same access
//! pattern in amortised `O(1)` per operation. Every push lands
//! strictly below the cursor (a stale entry's fresh gain is strictly
//! smaller than the gain it was popped at), so each bucket is complete
//! by the time the cursor reaches it; total work is `O(max_gain + Σ
//! pushes)` — for the greedy oracle, `O(Σ|proj|)` overall.
//!
//! Tie-breaking matches the heap bit for bit: a bucket is sorted
//! ascending by set index exactly once, when the cursor first lands on
//! it, so equal-gain pops come out smallest-index-first just as the
//! heap's `(gain, !index)` ordering did. [`crate::greedy()`] and
//! [`crate::greedy_slices`] rely on that to keep covers identical to
//! the retained heap reference implementations.

/// A monotone bucket priority queue over `(gain, set index)` entries.
///
/// # Examples
///
/// ```
/// use sc_offline::BucketQueue;
///
/// let mut q = BucketQueue::new(5);
/// q.push(5, 2);
/// q.push(5, 0);
/// q.push(3, 1);
/// assert_eq!(q.pop(), Some((5, 0))); // equal gain: smallest index
/// assert_eq!(q.pop(), Some((5, 2)));
/// q.push(1, 2); // stale re-insert below the cursor
/// assert_eq!(q.peek_gain(), Some(3));
/// assert_eq!(q.pop(), Some((3, 1)));
/// assert_eq!(q.pop(), Some((1, 2)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct BucketQueue {
    /// `buckets[g]` holds the set indices whose cached gain is `g`.
    buckets: Vec<Vec<u32>>,
    /// Per-bucket drain position (entries before it were popped).
    heads: Vec<usize>,
    /// Highest bucket that may still hold entries; `buckets.len()`
    /// until the first pop settles it. Only ever moves down.
    cursor: usize,
    len: usize,
}

impl BucketQueue {
    /// Creates a queue accepting gains in `0..=max_gain`.
    pub fn new(max_gain: usize) -> Self {
        Self {
            buckets: vec![Vec::new(); max_gain + 1],
            heads: vec![0; max_gain + 1],
            cursor: max_gain + 1,
            len: 0,
        }
    }

    /// Number of entries not yet popped.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when every entry has been popped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry. Gains must not exceed the constructor's
    /// `max_gain`; once popping has begun, pushes must land strictly
    /// below the current cursor (guaranteed for the greedy oracle,
    /// where a re-pushed gain is strictly below the popped one).
    ///
    /// # Panics
    ///
    /// Panics if `gain > max_gain`; in debug builds, also if a push
    /// lands at or above the settled cursor (that bucket was already
    /// sorted and possibly drained — a caller bug).
    pub fn push(&mut self, gain: usize, idx: u32) {
        assert!(
            gain < self.buckets.len(),
            "gain {gain} exceeds max_gain {}",
            self.buckets.len() - 1
        );
        debug_assert!(
            gain < self.cursor || self.cursor == self.buckets.len(),
            "push at gain {gain} but the cursor already settled at {}",
            self.cursor
        );
        self.buckets[gain].push(idx);
        self.len += 1;
    }

    /// Moves the cursor down to the highest non-drained bucket,
    /// sorting each newly reached bucket so equal-gain entries pop
    /// smallest-index-first. Returns the settled gain.
    fn settle(&mut self) -> Option<usize> {
        loop {
            if self.cursor < self.buckets.len()
                && self.heads[self.cursor] < self.buckets[self.cursor].len()
            {
                return Some(self.cursor);
            }
            if self.cursor == 0 {
                return None;
            }
            self.cursor -= 1;
            // First arrival: nothing was drained from this bucket yet,
            // and no future push can reach it, so one sort fixes the
            // pop order for good.
            debug_assert_eq!(self.heads[self.cursor], 0);
            self.buckets[self.cursor].sort_unstable();
        }
    }

    /// The gain of the next entry [`pop`](Self::pop) would return.
    pub fn peek_gain(&mut self) -> Option<usize> {
        self.settle()
    }

    /// Removes and returns the entry with the highest gain, breaking
    /// ties toward the smallest set index.
    pub fn pop(&mut self) -> Option<(usize, u32)> {
        let gain = self.settle()?;
        let head = self.heads[gain];
        let idx = self.buckets[gain][head];
        self.heads[gain] = head + 1;
        self.len -= 1;
        Some((gain, idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_by_gain_then_index() {
        let mut q = BucketQueue::new(10);
        for (g, i) in [(3, 7), (10, 4), (10, 1), (0, 9), (3, 2)] {
            q.push(g, i);
        }
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, vec![(10, 1), (10, 4), (3, 2), (3, 7), (0, 9)]);
        assert!(q.is_empty());
    }

    #[test]
    fn lazy_reinserts_sort_into_their_bucket() {
        let mut q = BucketQueue::new(4);
        q.push(4, 0);
        q.push(4, 1);
        q.push(2, 5);
        assert_eq!(q.pop(), Some((4, 0)));
        // Stale entries re-filed below the cursor, out of index order.
        q.push(2, 9);
        q.push(2, 3);
        assert_eq!(q.pop(), Some((4, 1)));
        assert_eq!(q.peek_gain(), Some(2));
        assert_eq!(q.pop(), Some((2, 3)));
        assert_eq!(q.pop(), Some((2, 5)));
        assert_eq!(q.pop(), Some((2, 9)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_gain(), None);
    }

    #[test]
    fn zero_gain_entries_are_reachable() {
        let mut q = BucketQueue::new(0);
        q.push(0, 3);
        q.push(0, 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((0, 1)));
        assert_eq!(q.pop(), Some((0, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "exceeds max_gain")]
    fn gain_above_capacity_panics() {
        BucketQueue::new(3).push(4, 0);
    }
}
