//! Heap-footprint reporting in 64-bit machine words.

/// Types that can report how many 64-bit words of heap memory they own.
///
/// The streaming model of the paper measures an algorithm's working
/// memory in machine words (an element or set id is one word, `n` bits of
/// dense bitmap are `n/64` words). Containers that the space meter tracks
/// implement this trait; the meter charges `heap_words()` when a value is
/// stored and releases it when the value is dropped.
///
/// Implementations report *capacity*, not length, wherever the two can
/// differ: memory that has been reserved is memory the algorithm is
/// using, whether or not it currently holds live entries.
pub trait HeapWords {
    /// Heap memory owned by `self`, in 64-bit words.
    fn heap_words(&self) -> usize;
}

impl HeapWords for u32 {
    #[inline]
    fn heap_words(&self) -> usize {
        0
    }
}

impl HeapWords for u64 {
    #[inline]
    fn heap_words(&self) -> usize {
        0
    }
}

impl HeapWords for usize {
    #[inline]
    fn heap_words(&self) -> usize {
        0
    }
}

/// The vector's own buffer plus whatever its elements own. When `T`
/// owns heap memory (a `Vec<Vec<_>>`, a `Vec<BitSet>`), this walks every
/// element, so it is O(len), not O(1) — see the note on
/// `sc_stream::Tracked::mutate` about containers mutated once per
/// stream item.
impl<T: HeapWords> HeapWords for Vec<T> {
    fn heap_words(&self) -> usize {
        // Inline storage for the elements themselves…
        let inline = (self.capacity() * std::mem::size_of::<T>()).div_ceil(8);
        // …plus whatever the elements own on the heap.
        let owned: usize = self.iter().map(HeapWords::heap_words).sum();
        inline + owned
    }
}

impl<T: HeapWords> HeapWords for Option<T> {
    fn heap_words(&self) -> usize {
        self.as_ref().map_or(0, HeapWords::heap_words)
    }
}

impl<A: HeapWords, B: HeapWords> HeapWords for (A, B) {
    fn heap_words(&self) -> usize {
        self.0.heap_words() + self.1.heap_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_of_ids_counts_capacity() {
        let mut v: Vec<u32> = Vec::with_capacity(16);
        v.push(7);
        // 16 u32s = 64 bytes = 8 words, regardless of length.
        assert_eq!(v.heap_words(), 8);
    }

    #[test]
    fn nested_vec_counts_inner_heap() {
        let v: Vec<Vec<u64>> = vec![vec![1, 2, 3], vec![4]];
        // Outer: 2 * 24 bytes = 48 bytes = 6 words. Inner: 3 + 1 words.
        assert_eq!(v.heap_words(), 6 + 3 + 1);
    }

    #[test]
    fn scalars_are_free() {
        assert_eq!(5u32.heap_words(), 0);
        assert_eq!(5u64.heap_words(), 0);
        assert_eq!(5usize.heap_words(), 0);
    }

    #[test]
    fn option_delegates() {
        let some: Option<Vec<u64>> = Some(vec![1, 2]);
        let none: Option<Vec<u64>> = None;
        assert_eq!(some.heap_words(), 2);
        assert_eq!(none.heap_words(), 0);
    }
}
