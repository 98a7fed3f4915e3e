//! A container wrapper that keeps its space charge in sync with a meter.

use crate::SpaceMeter;
use sc_bitset::HeapWords;

/// A value whose heap footprint is charged to a [`SpaceMeter`] and kept
/// in sync across mutations.
///
/// `Tracked` owns the value; reads go through [`get`](Tracked::get) and
/// mutations through [`mutate`](Tracked::mutate), which re-measures the
/// footprint afterwards. Dropping the wrapper *does not* release the
/// charge automatically (a `Drop` impl cannot hold the meter reference
/// safely across scopes); call [`release`](Tracked::release) when the
/// structure dies — the meter's over-release panic catches forgotten
/// releases at the end of a run when the harness asserts `current == 0`.
///
/// # Examples
///
/// ```
/// use sc_stream::{SpaceMeter, Tracked};
///
/// let meter = SpaceMeter::new();
/// let mut buf: Tracked<Vec<u64>> = Tracked::new(Vec::new(), &meter);
/// buf.mutate(&meter, |v| v.extend_from_slice(&[1, 2, 3]));
/// assert!(meter.current() >= 3);
/// let v = buf.release(&meter);
/// assert_eq!(meter.current(), 0);
/// assert_eq!(v, vec![1, 2, 3]);
/// ```
#[derive(Debug)]
pub struct Tracked<T: HeapWords> {
    value: T,
    charged: usize,
}

impl<T: HeapWords> Tracked<T> {
    /// Wraps `value`, charging its current footprint to `meter`.
    pub fn new(value: T, meter: &SpaceMeter) -> Self {
        let charged = value.heap_words();
        meter.charge(charged);
        Self { value, charged }
    }

    /// Read access to the wrapped value.
    pub fn get(&self) -> &T {
        &self.value
    }

    /// Mutates the value, then re-syncs the meter with the (possibly
    /// changed) footprint.
    ///
    /// The footprint is recomputed with [`HeapWords::heap_words`] after
    /// *every* mutation. A container mutated once per stream item must
    /// therefore report its size in O(1), as `sc_core::ProjStore` (one
    /// CSR buffer) does. `HeapWords for Vec<T>` walks every element when
    /// `T` owns heap memory, so a `Tracked<Vec<Vec<_>>>` pushed to once
    /// per item costs O(P²) over P pushes.
    pub fn mutate<R>(&mut self, meter: &SpaceMeter, f: impl FnOnce(&mut T) -> R) -> R {
        let out = f(&mut self.value);
        meter.resync(&mut self.charged, self.value.heap_words());
        out
    }

    /// Releases the charge and returns the inner value.
    pub fn release(self, meter: &SpaceMeter) -> T {
        meter.release(self.charged);
        self.value
    }

    /// Words currently charged for this value.
    pub fn charged(&self) -> usize {
        self.charged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_and_shrink_keep_meter_in_sync() {
        let meter = SpaceMeter::new();
        let mut t: Tracked<Vec<u64>> = Tracked::new(Vec::new(), &meter);
        t.mutate(&meter, |v| v.extend(0..100));
        let grown = meter.current();
        assert_eq!(grown, t.charged());
        assert!(grown >= 100);
        t.mutate(&meter, |v| {
            v.clear();
            v.shrink_to_fit();
        });
        assert_eq!(meter.current(), 0);
        assert!(meter.peak() >= grown);
        let _ = t.release(&meter);
    }

    #[test]
    fn nested_structures_count_inner_heap() {
        let meter = SpaceMeter::new();
        let t = Tracked::new(vec![vec![0u64; 8], vec![0u64; 8]], &meter);
        assert!(t.charged() >= 16, "inner vec payloads charged");
        let _ = t.release(&meter);
        assert_eq!(meter.current(), 0);
    }
}
