//! Runtime-dispatched word kernels behind [`BitSet`](crate::BitSet).
//!
//! Every bulk operation of the dense bitset bottoms out in one of the
//! kernels here: whole-word set algebra (`or`/`and`/`and-not`, plus
//! their popcount-only variants) and the sorted-slice kernels that the
//! streaming hot paths run per element (`intersection_count_sorted`,
//! `intersect_sorted_into`, `remove_sorted`, `insert_sorted`). One
//! more kernel serves the guess executor's transposed-mask walk:
//! [`compact_lane`] keeps the ids whose mask has one lane's bit set.
//!
//! Two implementations exist for each kernel:
//!
//! * [`scalar`] — portable word-at-a-time baselines. The sorted-slice
//!   kernels classify ascending ids into *saturated spans* (runs of
//!   consecutive ids covering whole 64-bit words, found in `O(log)`
//!   comparisons and processed at pure word speed with no per-element
//!   work) and *mask fragments* (runs of consecutive words with a
//!   per-word membership mask built on the stack), so a dense slice
//!   costs at most one `count_ones` per word instead of one shift/add
//!   per element.
//! * `avx2` (x86-64 only, private) — explicit 256-bit vector paths:
//!   - 4-words-per-iteration set algebra;
//!   - a `vpshufb` nibble-table popcount for the counting kernels. The
//!     spans and mask fragments built by the shared splitter feed the
//!     same vector popcount, so dense slices hit the wide path while
//!     sparse slices degrade gracefully to the scalar tail;
//!   - span-walk removal and insertion on the 4-word set algebra;
//!   - lane compaction, 4 ids per step: shift the masks so the lane's
//!     bit is the sign bit, `vmovmskpd`, pack the hits with one
//!     `pshufb` from a 16-entry table, store 16 bytes unaligned and
//!     advance by the hit count. An 8-wide `vpermd` variant (a 256-entry
//!     table) saved at most ~1% of a query on the 32–66-id sets the
//!     service walks, mostly inside the noise, so the 4-wide one stays.
//!
//!   `intersect_sorted_into` stays on the shared scalar emit loop on
//!   every backend: it emits one id per set bit of `word & mask`, an
//!   output side that is serial below AVX-512 compress stores, and a
//!   gathered probe measured slower than the span walk.
//!
//! Dispatch is resolved **once** per process ([`backend`], an
//! [`OnceLock`]): AVX2 when the CPU reports it, scalar otherwise, and
//! scalar unconditionally when the `SC_BITSET_FORCE_SCALAR`
//! environment variable is set to anything but `0` (the CI fallback
//! lane) or after [`force_scalar`]`(true)` (the in-process A/B hook
//! used by benchmarks). Both paths are bit-identical by construction
//! and pinned against each other by the `prop_kernels` property suite.
//!
//! Sorted slices shorter than `SHORT_SLICE` (64 ids) never dispatch:
//! counting and removal probe one bit per id, insertion and the
//! filtering emit run the scalar span walk, on every backend.
//!
//! The functions take raw word slices rather than `BitSet` so that the
//! benchmarks and parity tests can drive them directly; `BitSet`
//! validates universes and sortedness before delegating here, and the
//! kernels re-assert the bounds they rely on (cheap: one comparison on
//! the largest id).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Which kernel implementation the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable word-at-a-time kernels.
    Scalar,
    /// 256-bit AVX2 kernels (x86-64 with runtime feature detection).
    Avx2,
}

impl Backend {
    /// Short lowercase label (`"scalar"` / `"avx2"`) for stats lines
    /// and bench metadata.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

static DETECTED: OnceLock<Backend> = OnceLock::new();
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

fn detect() -> Backend {
    if std::env::var_os("SC_BITSET_FORCE_SCALAR").is_some_and(|v| v != "0") {
        return Backend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Backend::Avx2;
    }
    Backend::Scalar
}

/// The backend every dispatched kernel routes to, resolved once per
/// process (environment override included).
pub fn backend() -> Backend {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        return Backend::Scalar;
    }
    *DETECTED.get_or_init(detect)
}

/// The active backend's label (`"scalar"` / `"avx2"`), for surfacing
/// in `repro --json` metadata and the `sctool serve` stats line.
pub fn backend_name() -> &'static str {
    backend().name()
}

/// In-process scalar override, for benchmarks that A/B the two paths
/// inside one run (the environment variable can only be read once).
/// `force_scalar(true)` pins every dispatched kernel to the scalar
/// path until `force_scalar(false)`; it never forces the vector path,
/// so it is safe on any machine.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Words per mask fragment: sorted-slice kernels split their input
/// into runs of at most this many *consecutive* words so the masks fit
/// in a fixed stack buffer that the vector kernels can stream over.
const RUN_WORDS: usize = 32;

/// Starts a saturated word span? Ids are strictly ascending, so 64 of
/// them spanning exactly 63 from a word boundary must be that word's
/// full population.
#[inline]
fn saturates_a_word(elems: &[u32], i: usize) -> bool {
    elems[i] & 63 == 0 && elems.get(i + 63) == Some(&(elems[i] + 63))
}

/// Length (in ids, a multiple of 64) of the saturated whole-word span
/// at position `i` — the longest run of consecutive ids starting on a
/// word boundary and covering complete 64-bit words. 0 when `elems[i]`
/// is unaligned or its word is not fully populated.
///
/// Strict ascent makes the probe O(log span): a stretch of `L` ids is
/// consecutive iff `elems[i + L - 1] == elems[i] + L - 1`, so the span
/// is found by doubling then binary search — a dense million-id slice
/// costs ~40 comparisons to classify instead of per-element work.
fn saturated_prefix(elems: &[u32], i: usize) -> usize {
    if !saturates_a_word(elems, i) {
        return 0;
    }
    let e = elems[i] as u64;
    let full = |nwords: usize| -> bool {
        let idx = i + nwords * 64 - 1;
        idx < elems.len() && elems[idx] as u64 == e + nwords as u64 * 64 - 1
    };
    let mut lo = 1usize;
    let mut hi = 2usize;
    while full(hi) {
        lo = hi;
        hi *= 2;
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if full(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo * 64
}

/// One piece of an ascending id slice, as classified by
/// [`for_each_span`].
enum Span<'a> {
    /// A run of consecutive ids covering `nwords` complete 64-bit
    /// words starting at `word0`, detected in `O(log len)` comparisons
    /// ([`saturated_prefix`]). Dense slices resolve almost entirely
    /// into these, so the kernels process them at whole-word speed
    /// with no per-element work at all.
    Saturated { word0: usize, nwords: usize },
    /// Up to [`RUN_WORDS`] consecutive words starting at `word0`, with
    /// per-word membership masks built on the stack. A gap in the word
    /// sequence ends the fragment, so sparse slices never pay for
    /// words they do not touch.
    Masked { word0: usize, masks: &'a [u64] },
}

/// Splits an ascending id slice into saturated spans and mask
/// fragments, calling `flush` once per [`Span`].
#[inline]
fn for_each_span(elems: &[u32], mut flush: impl FnMut(Span)) {
    let mut masks = [0u64; RUN_WORDS];
    let mut i = 0;
    while i < elems.len() {
        let word0 = (elems[i] >> 6) as usize;
        let sat = saturated_prefix(elems, i);
        if sat > 0 {
            flush(Span::Saturated {
                word0,
                nwords: sat / 64,
            });
            i += sat;
            continue;
        }
        let mut last = word0;
        let mut len = 1usize;
        masks[0] = 1u64 << (elems[i] & 63);
        i += 1;
        while i < elems.len() {
            let e = elems[i];
            let w = (e >> 6) as usize;
            if w == last {
                masks[len - 1] |= 1u64 << (e & 63);
            } else if w == last + 1 && len < RUN_WORDS && !saturates_a_word(elems, i) {
                // A saturated stretch starting mid-fragment ends the
                // fragment instead, handing back to the span probe.
                masks[len] = 1u64 << (e & 63);
                len += 1;
                last = w;
            } else {
                break;
            }
            i += 1;
        }
        flush(Span::Masked {
            word0,
            masks: &masks[..len],
        });
    }
}

/// Asserts the largest id of an ascending slice addresses a word
/// inside `words` — with sorted input this bounds every id.
#[inline]
fn check_bounds(words: &[u64], elems: &[u32]) {
    if let Some(&last) = elems.last() {
        assert!(
            ((last >> 6) as usize) < words.len(),
            "element {last} outside the {}-word bitmap",
            words.len()
        );
    }
}

/// Portable word-at-a-time kernels — the reference semantics for the
/// vector path, public so parity tests and microbenches can pin the
/// dispatched kernels against them.
pub mod scalar {
    use super::{for_each_span, Span};

    /// `popcount(words)`.
    #[inline]
    pub fn popcount(words: &[u64]) -> usize {
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `popcount(a & b)` over two equal-length word slices.
    #[inline]
    pub fn and_popcount(a: &[u64], b: &[u64]) -> usize {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    }

    /// `popcount(a & !b)` over two equal-length word slices.
    #[inline]
    pub fn andnot_popcount(a: &[u64], b: &[u64]) -> usize {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x & !y).count_ones() as usize)
            .sum()
    }

    /// `a |= b`, word by word.
    #[inline]
    pub fn or_into(a: &mut [u64], b: &[u64]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x |= y;
        }
    }

    /// `a &= b`, word by word.
    #[inline]
    pub fn and_into(a: &mut [u64], b: &[u64]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x &= y;
        }
    }

    /// `a &= !b`, word by word.
    #[inline]
    pub fn andnot_into(a: &mut [u64], b: &[u64]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x &= !y;
        }
    }

    /// `|bitmap ∩ elems|` for ascending ids: saturated spans cost one
    /// `count_ones` per word with no mask build at all; fragments pay
    /// the per-word mask build plus one `count_ones` per touched word.
    pub fn intersection_count_sorted(words: &[u64], elems: &[u32]) -> usize {
        let mut total = 0usize;
        for_each_span(elems, |span| match span {
            Span::Saturated { word0, nwords } => total += popcount(&words[word0..word0 + nwords]),
            Span::Masked { word0, masks } => {
                total += and_popcount(&words[word0..word0 + masks.len()], masks)
            }
        });
        total
    }

    /// Overwrites `out` with the ascending ids of `elems` present in
    /// the bitmap. Output-sensitive span walk: the candidate set is
    /// turned into per-word masks (free for saturated spans), and ids
    /// are emitted by iterating the set bits of `word & mask` — a
    /// dense slice costs one bit-loop per *hit* instead of a probe per
    /// candidate. An AVX2 `vpgatherqq` probe was tried here and
    /// measured slower than this walk (gathers don't pay off below
    /// AVX-512 compress stores), so both backends share it.
    pub fn intersect_sorted_into(words: &[u64], elems: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.reserve(elems.len());
        let mut emit = |word0: usize, k: usize, m: u64| {
            let base = ((word0 + k) * 64) as u32;
            let mut bits = words[word0 + k] & m;
            while bits != 0 {
                out.push(base + bits.trailing_zeros());
                bits &= bits - 1;
            }
        };
        for_each_span(elems, |span| match span {
            Span::Saturated { word0, nwords } => {
                for k in 0..nwords {
                    emit(word0, k, !0);
                }
            }
            Span::Masked { word0, masks } => {
                for (k, &m) in masks.iter().enumerate() {
                    emit(word0, k, m);
                }
            }
        });
    }

    /// Clears every id of an ascending slice: saturated spans zero
    /// whole words (a memset); fragments pay one read-modify-write per
    /// touched word.
    pub fn remove_sorted(words: &mut [u64], elems: &[u32]) {
        for_each_span(elems, |span| match span {
            Span::Saturated { word0, nwords } => words[word0..word0 + nwords].fill(0),
            Span::Masked { word0, masks } => {
                for (k, m) in masks.iter().enumerate() {
                    words[word0 + k] &= !m;
                }
            }
        });
    }

    /// Sets every id of an ascending slice: saturated spans fill whole
    /// words (a memset); fragments pay one read-modify-write per
    /// touched word.
    pub fn insert_sorted(words: &mut [u64], elems: &[u32]) {
        for_each_span(elems, |span| match span {
            Span::Saturated { word0, nwords } => words[word0..word0 + nwords].fill(!0),
            Span::Masked { word0, masks } => {
                for (k, m) in masks.iter().enumerate() {
                    words[word0 + k] |= m;
                }
            }
        });
    }

    /// Writes to the front of `out` the `elems[i]` whose `masks[i]`
    /// has bit `lane` set, in order, and returns how many. Branch-free:
    /// every id is stored at the write cursor, which advances only
    /// past hits, so `out[..elems.len()]` is scratch.
    pub fn compact_lane(elems: &[u32], masks: &[u64], lane: u32, out: &mut [u32]) -> usize {
        let mut c = 0;
        for (&e, &m) in elems.iter().zip(masks) {
            out[c] = e;
            c += ((m >> lane) & 1) as usize;
        }
        c
    }
}

/// Explicit 256-bit kernels. Private: reached only through the
/// dispatched entry points, which verify AVX2 support first.
///
/// The counting kernels use the `vpshufb` nibble-table popcount
/// (Muła's algorithm): 4 words per iteration, byte counts folded with
/// `vpsadbw` into four 64-bit lanes summed at the end.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::{for_each_span, Span};
    use std::arch::x86_64::*;

    /// Sums the four 64-bit lanes of an accumulator.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi64(v: __m256i) -> usize {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        lanes.iter().map(|&x| x as usize).sum()
    }

    /// Per-byte popcount of a 256-bit lane via two nibble lookups.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn byte_popcount(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let table = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
        _mm256_add_epi8(
            _mm256_shuffle_epi8(table, lo),
            _mm256_shuffle_epi8(table, hi),
        )
    }

    macro_rules! popcount_kernel {
        ($name:ident, |$x:ident, $y:ident| $combine:expr, |$sx:ident, $sy:ident| $scalar:expr) => {
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name(a: &[u64], b: &[u64]) -> usize {
                debug_assert_eq!(a.len(), b.len());
                let chunks = a.len() / 4;
                let mut acc = _mm256_setzero_si256();
                for i in 0..chunks {
                    let $x = _mm256_loadu_si256(a.as_ptr().add(i * 4) as *const __m256i);
                    let $y = _mm256_loadu_si256(b.as_ptr().add(i * 4) as *const __m256i);
                    let counts = byte_popcount($combine);
                    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(counts, _mm256_setzero_si256()));
                }
                let mut total = hsum_epi64(acc);
                for i in chunks * 4..a.len() {
                    let ($sx, $sy) = (a[i], b[i]);
                    total += ($scalar).count_ones() as usize;
                }
                total
            }
        };
    }

    popcount_kernel!(and_popcount, |x, y| _mm256_and_si256(x, y), |sx, sy| sx
        & sy);
    popcount_kernel!(
        andnot_popcount,
        // `vpandn` computes `!first & second`, so the operands swap.
        |x, y| _mm256_andnot_si256(y, x),
        |sx, sy| sx & !sy
    );

    #[target_feature(enable = "avx2")]
    pub unsafe fn popcount(words: &[u64]) -> usize {
        let chunks = words.len() / 4;
        let mut acc = _mm256_setzero_si256();
        for i in 0..chunks {
            let v = _mm256_loadu_si256(words.as_ptr().add(i * 4) as *const __m256i);
            let counts = byte_popcount(v);
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(counts, _mm256_setzero_si256()));
        }
        let mut total = hsum_epi64(acc);
        for &w in &words[chunks * 4..] {
            total += w.count_ones() as usize;
        }
        total
    }

    macro_rules! bitwise_kernel {
        ($name:ident, |$x:ident, $y:ident| $combine:expr, |$sx:ident, $sy:ident| $scalar:expr) => {
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name(a: &mut [u64], b: &[u64]) {
                debug_assert_eq!(a.len(), b.len());
                let chunks = a.len() / 4;
                for i in 0..chunks {
                    let $x = _mm256_loadu_si256(a.as_ptr().add(i * 4) as *const __m256i);
                    let $y = _mm256_loadu_si256(b.as_ptr().add(i * 4) as *const __m256i);
                    _mm256_storeu_si256(a.as_mut_ptr().add(i * 4) as *mut __m256i, $combine);
                }
                for i in chunks * 4..a.len() {
                    let ($sx, $sy) = (a[i], b[i]);
                    a[i] = $scalar;
                }
            }
        };
    }

    bitwise_kernel!(or_into, |x, y| _mm256_or_si256(x, y), |sx, sy| sx | sy);
    bitwise_kernel!(and_into, |x, y| _mm256_and_si256(x, y), |sx, sy| sx & sy);
    bitwise_kernel!(andnot_into, |x, y| _mm256_andnot_si256(y, x), |sx, sy| sx
        & !sy);

    #[target_feature(enable = "avx2")]
    pub unsafe fn intersection_count_sorted(words: &[u64], elems: &[u32]) -> usize {
        let mut total = 0usize;
        for_each_span(elems, |span| match span {
            Span::Saturated { word0, nwords } => total += popcount(&words[word0..word0 + nwords]),
            Span::Masked { word0, masks } => {
                total += and_popcount(&words[word0..word0 + masks.len()], masks)
            }
        });
        total
    }

    /// The emit loop is pure scalar bit iteration (nothing for 256-bit
    /// lanes to do without AVX-512 compress stores — a `vpgatherqq`
    /// probe was tried and measured slower), so this delegates to the
    /// shared span walk.
    #[target_feature(enable = "avx2")]
    pub unsafe fn intersect_sorted_into(words: &[u64], elems: &[u32], out: &mut Vec<u32>) {
        super::scalar::intersect_sorted_into(words, elems, out);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn remove_sorted(words: &mut [u64], elems: &[u32]) {
        for_each_span(elems, |span| match span {
            Span::Saturated { word0, nwords } => words[word0..word0 + nwords].fill(0),
            Span::Masked { word0, masks } => {
                andnot_into(&mut words[word0..word0 + masks.len()], masks)
            }
        });
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn insert_sorted(words: &mut [u64], elems: &[u32]) {
        for_each_span(elems, |span| match span {
            Span::Saturated { word0, nwords } => words[word0..word0 + nwords].fill(!0),
            Span::Masked { word0, masks } => or_into(&mut words[word0..word0 + masks.len()], masks),
        });
    }

    /// `PACK4[m]` is the `pshufb` control that moves the 32-bit lanes
    /// selected by the 4-bit mask `m` to the front, in order (the other
    /// bytes read zero); `PACK4_LEN[m]` is how many it moves.
    const PACK4: [[u8; 16]; 16] = pack4_table();
    const PACK4_LEN: [u8; 16] = [0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4];

    const fn pack4_table() -> [[u8; 16]; 16] {
        let mut table = [[0x80u8; 16]; 16];
        let mut m = 0;
        while m < 16 {
            let mut front = 0;
            let mut j = 0;
            while j < 4 {
                if (m >> j) & 1 == 1 {
                    let mut b = 0;
                    while b < 4 {
                        table[m][front * 4 + b] = (j * 4 + b) as u8;
                        b += 1;
                    }
                    front += 1;
                }
                j += 1;
            }
            m += 1;
        }
        table
    }

    /// Four ids per step: shift each mask left so bit `lane` lands in
    /// the sign bit, `vmovmskpd` the four sign bits, pack the hit ids
    /// to the front with one `pshufb`, store all 16 bytes at the write
    /// cursor and advance it by the hit count. The cursor never passes
    /// the read position, so a block's store ends at or before the
    /// block's own end: `out[..elems.len()]` holds every write. The
    /// 1–3 id tail runs the scalar loop.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `masks.len() == elems.len()`,
    /// `out.len() >= elems.len()` and `lane < 64` (the public
    /// `compact_lane` asserts all three).
    #[target_feature(enable = "avx2")]
    pub unsafe fn compact_lane(elems: &[u32], masks: &[u64], lane: u32, out: &mut [u32]) -> usize {
        let shift = _mm_cvtsi32_si128(63 - lane as i32);
        let blocks = elems.len() / 4;
        let mut c = 0usize;
        for b in 0..blocks {
            let i = b * 4;
            let m = _mm256_loadu_si256(masks.as_ptr().add(i) as *const __m256i);
            let signs = _mm256_castsi256_pd(_mm256_sll_epi64(m, shift));
            let hits = _mm256_movemask_pd(signs) as usize;
            let ids = _mm_loadu_si128(elems.as_ptr().add(i) as *const __m128i);
            let control = _mm_loadu_si128(PACK4[hits].as_ptr() as *const __m128i);
            // c ≤ i, so the four slots written end by i + 4 ≤ elems.len().
            _mm_storeu_si128(
                out.as_mut_ptr().add(c) as *mut __m128i,
                _mm_shuffle_epi8(ids, control),
            );
            c += PACK4_LEN[hits] as usize;
        }
        let tail = blocks * 4;
        c + super::scalar::compact_lane(&elems[tail..], &masks[tail..], lane, &mut out[c..])
    }
}

/// Telemetry backend-hit accounting. The kernels run per element under
/// the scans, so per-call atomic traffic is out of the question even
/// sharded: hits batch in a thread-local cell and flush to the
/// process-wide counters (`sc_kernel_calls_avx2_total` /
/// `sc_kernel_calls_scalar_total`) every [`hits::FLUSH_EVERY`] calls
/// and on thread exit (scoped worker pools flush when the scope joins).
/// Live values therefore trail the truth by up to `FLUSH_EVERY - 1`
/// calls per running thread — fine for a rate scrape, and the cost per
/// call when telemetry is off stays a single relaxed load.
///
/// Only *dispatched* calls are counted: whole-word operations and
/// sorted-slice calls of at least [`SHORT_SLICE`] ids. Shorter slices
/// return before dispatch and never reach [`hits::note`], so the
/// counters measure backend use, not kernel work — a traced
/// `tenants-closed` query counts ~110 dispatched calls against ~30 000
/// short-slice calls from the greedy oracle. Lane compaction
/// ([`compact_lane`]) dispatches without counting: it runs once per
/// item and touched lane of a shared scan, ~12 000 times per query,
/// so counting it would swamp the other kernels' figures (E22 records
/// them) and put a thread-local bump on every call of the walk.
mod hits {
    use super::Backend;
    use std::cell::Cell;
    use std::sync::OnceLock;

    const FLUSH_EVERY: u64 = 1024;

    fn counter(backend: Backend) -> &'static sc_telemetry::Counter {
        static AVX2: OnceLock<&'static sc_telemetry::Counter> = OnceLock::new();
        static SCALAR: OnceLock<&'static sc_telemetry::Counter> = OnceLock::new();
        match backend {
            Backend::Avx2 => {
                AVX2.get_or_init(|| sc_telemetry::counter("sc_kernel_calls_avx2_total"))
            }
            Backend::Scalar => {
                SCALAR.get_or_init(|| sc_telemetry::counter("sc_kernel_calls_scalar_total"))
            }
        }
    }

    /// One backend's pending batch; drops (thread exit) flush it.
    struct Pending {
        backend: Backend,
        n: Cell<u64>,
    }

    impl Pending {
        fn bump(&self) {
            let n = self.n.get() + 1;
            if n >= FLUSH_EVERY {
                counter(self.backend).add(n);
                self.n.set(0);
            } else {
                self.n.set(n);
            }
        }
    }

    impl Drop for Pending {
        fn drop(&mut self) {
            let n = self.n.get();
            if n > 0 {
                counter(self.backend).add(n);
            }
        }
    }

    thread_local! {
        static AVX2: Pending = const {
            Pending { backend: Backend::Avx2, n: Cell::new(0) }
        };
        static SCALAR: Pending = const {
            Pending { backend: Backend::Scalar, n: Cell::new(0) }
        };
    }

    /// Notes one dispatched kernel call on `backend`.
    #[inline]
    pub(super) fn note(backend: Backend) {
        if !sc_telemetry::enabled() {
            return;
        }
        let cell = match backend {
            Backend::Avx2 => &AVX2,
            Backend::Scalar => &SCALAR,
        };
        // A kernel call during thread teardown (after the thread-local
        // was destroyed) is silently uncounted rather than a panic.
        let _ = cell.try_with(|p| p.bump());
    }
}

/// Routes one kernel call to the resolved backend. On non-x86-64 the
/// vector arm compiles away and everything is scalar.
macro_rules! dispatch {
    ($name:ident ( $($arg:expr),* )) => {
        match backend() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Backend::Avx2` is only ever produced by
            // `detect()` after `is_x86_feature_detected!("avx2")`.
            #[allow(unsafe_code)]
            Backend::Avx2 => {
                hits::note(Backend::Avx2);
                unsafe { avx2::$name($($arg),*) }
            }
            _ => {
                hits::note(Backend::Scalar);
                scalar::$name($($arg),*)
            }
        }
    };
}

/// `popcount(words)` on the active backend.
pub fn popcount(words: &[u64]) -> usize {
    dispatch!(popcount(words))
}

/// `popcount(a & b)` on the active backend.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub fn and_popcount(a: &[u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len(), "word slices must have equal length");
    dispatch!(and_popcount(a, b))
}

/// `popcount(a & !b)` on the active backend.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub fn andnot_popcount(a: &[u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len(), "word slices must have equal length");
    dispatch!(andnot_popcount(a, b))
}

/// `a |= b` on the active backend.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub fn or_into(a: &mut [u64], b: &[u64]) {
    assert_eq!(a.len(), b.len(), "word slices must have equal length");
    dispatch!(or_into(a, b))
}

/// `a &= b` on the active backend.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub fn and_into(a: &mut [u64], b: &[u64]) {
    assert_eq!(a.len(), b.len(), "word slices must have equal length");
    dispatch!(and_into(a, b))
}

/// `a &= !b` on the active backend.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub fn andnot_into(a: &mut [u64], b: &[u64]) {
    assert_eq!(a.len(), b.len(), "word slices must have equal length");
    dispatch!(andnot_into(a, b))
}

/// Sorted slices shorter than this skip vector dispatch entirely.
/// Counting and removal probe one bit per id instead of walking spans:
/// below 64 ids no saturated span can occur, and the walker's per-call
/// setup (span probes, a zeroed mask buffer, data-dependent branches)
/// costs 2–10× a plain `words[e >> 6] >> (e & 63)` count on a 16-word
/// bitmap at lengths 4 to 63 (E21 `… short` rows). That is the shape
/// of the greedy oracle's stored projections: ~5 ids each, tens of
/// thousands of calls per query. Insertion and the filtering emit keep
/// the scalar span walk here: insertion runs once per iteration, on
/// the sample, and the emit's branchy probe loses on dense few-id
/// slices. Slices long enough for the vector path to win are far
/// above this bar.
const SHORT_SLICE: usize = 64;

/// `|bitmap ∩ elems|` for ascending ids, on the active backend.
///
/// # Panics
///
/// Panics if the largest id addresses a word outside `words`. Ids
/// must be strictly ascending (callers check; violations only degrade
/// the count — a repeated id counts once in the span walk but once per
/// copy in the short-slice probe — never memory safety, because every
/// id is bounds-asserted through the largest one and unsorted input
/// with a small last id panics in the kernels' slice indexing).
pub fn intersection_count_sorted(words: &[u64], elems: &[u32]) -> usize {
    check_bounds(words, elems);
    if elems.len() < SHORT_SLICE {
        return elems
            .iter()
            .map(|&e| (words[(e >> 6) as usize] >> (e & 63)) as usize & 1)
            .sum();
    }
    dispatch!(intersection_count_sorted(words, elems))
}

/// Overwrites `out` with the ascending ids present in the bitmap, on
/// the active backend.
///
/// # Panics
///
/// Panics if the largest id addresses a word outside `words`.
pub fn intersect_sorted_into(words: &[u64], elems: &[u32], out: &mut Vec<u32>) {
    check_bounds(words, elems);
    dispatch!(intersect_sorted_into(words, elems, out))
}

/// Clears every id of an ascending slice, on the active backend.
///
/// # Panics
///
/// Panics if the largest id addresses a word outside `words`.
pub fn remove_sorted(words: &mut [u64], elems: &[u32]) {
    check_bounds(words, elems);
    if elems.len() < SHORT_SLICE {
        for &e in elems {
            words[(e >> 6) as usize] &= !(1u64 << (e & 63));
        }
        return;
    }
    dispatch!(remove_sorted(words, elems))
}

/// Sets every id of an ascending slice, on the active backend.
///
/// # Panics
///
/// Panics if the largest id addresses a word outside `words`.
pub fn insert_sorted(words: &mut [u64], elems: &[u32]) {
    check_bounds(words, elems);
    if elems.len() < SHORT_SLICE {
        return scalar::insert_sorted(words, elems);
    }
    dispatch!(insert_sorted(words, elems))
}

/// Writes to the front of `out` the `elems[i]` whose `masks[i]` has
/// bit `lane` set, in order, and returns how many, on the active
/// backend. `out[..elems.len()]` is scratch: past the returned count
/// it holds leftovers. This is the lane compaction of a transposed
/// mask walk, where `masks[i]` says which lanes hold `elems[i]`.
///
/// # Examples
///
/// ```
/// use sc_bitset::kernels::compact_lane;
///
/// let elems = [3, 8, 9, 20, 41];
/// let masks = [0b10, 0b01, 0b11, 0b00, 0b10];
/// let mut out = [0; 5];
/// let hits = compact_lane(&elems, &masks, 1, &mut out);
/// assert_eq!(&out[..hits], &[3, 9, 41]);
/// ```
///
/// # Panics
///
/// Panics if `masks` and `elems` differ in length, if `out` is
/// shorter than `elems`, or if `lane` is not below 64.
pub fn compact_lane(elems: &[u32], masks: &[u64], lane: u32, out: &mut [u32]) -> usize {
    assert_eq!(masks.len(), elems.len(), "one mask per id");
    assert!(out.len() >= elems.len(), "output shorter than the ids");
    assert!(lane < 64, "lane {lane} is not a bit of a u64 mask");
    // Routed like `dispatch!`, minus the hit count (see `hits`).
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only ever produced by `detect()`
        // after `is_x86_feature_detected!("avx2")`, and the three
        // asserts above are the slice conditions `avx2::compact_lane`
        // documents.
        #[allow(unsafe_code)]
        Backend::Avx2 => unsafe { avx2::compact_lane(elems, masks, lane, out) },
        _ => scalar::compact_lane(elems, masks, lane, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic splittable-mix word generator (no external rng).
    fn mix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn words(n: usize, seed: u64) -> Vec<u64> {
        let mut s = seed;
        (0..n).map(|_| mix(&mut s)).collect()
    }

    #[test]
    fn backend_resolves_and_names() {
        let b = backend();
        assert!(matches!(b, Backend::Scalar | Backend::Avx2));
        assert_eq!(backend_name(), b.name());
    }

    #[test]
    fn force_scalar_pins_the_dispatch() {
        force_scalar(true);
        assert_eq!(backend(), Backend::Scalar);
        force_scalar(false);
    }

    #[test]
    fn dispatched_counts_match_scalar_on_random_words() {
        for len in [0, 1, 3, 4, 7, 8, 33, 100] {
            let a = words(len, 1);
            let b = words(len, 2);
            assert_eq!(popcount(&a), scalar::popcount(&a), "len {len}");
            assert_eq!(and_popcount(&a, &b), scalar::and_popcount(&a, &b));
            assert_eq!(andnot_popcount(&a, &b), scalar::andnot_popcount(&a, &b));
        }
    }

    #[test]
    fn dispatched_bitwise_match_scalar_on_random_words() {
        for len in [0, 1, 5, 8, 31, 64] {
            let base = words(len, 3);
            let b = words(len, 4);
            for (dispatched, reference) in [
                (
                    or_into as fn(&mut [u64], &[u64]),
                    scalar::or_into as fn(&mut [u64], &[u64]),
                ),
                (and_into, scalar::and_into),
                (andnot_into, scalar::andnot_into),
            ] {
                let mut x = base.clone();
                let mut y = base.clone();
                dispatched(&mut x, &b);
                reference(&mut y, &b);
                assert_eq!(x, y, "len {len}");
            }
        }
    }

    #[test]
    fn spans_cover_every_element_once() {
        // Ids spanning word boundaries, gaps, an unaligned head running
        // into a saturated stretch, and a consecutive run longer than
        // RUN_WORDS (which must resolve to one saturated span, not
        // fragment splits).
        let mut elems: Vec<u32> = vec![0, 1, 63, 64, 65, 127, 128, 300];
        elems.extend(1000..1000 + 200); // starts mid-word, saturates words
        elems.extend(4096..4096 + 64 * (RUN_WORDS as u32 + 3));
        let mut seen = Vec::new();
        let mut saturated_spans = 0usize;
        for_each_span(&elems, |span| match span {
            Span::Saturated { word0, nwords } => {
                saturated_spans += 1;
                seen.extend((word0 * 64) as u32..((word0 + nwords) * 64) as u32);
            }
            Span::Masked { word0, masks } => {
                for (k, &m) in masks.iter().enumerate() {
                    let mut bits = m;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        seen.push(((word0 + k) * 64) as u32 + b);
                        bits &= bits - 1;
                    }
                }
            }
        });
        assert_eq!(seen, elems);
        assert!(
            saturated_spans >= 2,
            "both dense stretches must hit the saturated path"
        );
    }

    #[test]
    fn saturated_prefix_probes_exact_lengths() {
        for nwords in [1usize, 2, 3, 5, 31, 32, 33, 100] {
            // Exactly nwords saturated words, then a gap.
            let mut elems: Vec<u32> = (0..(nwords * 64) as u32).collect();
            elems.push((nwords * 64) as u32 + 7);
            assert_eq!(saturated_prefix(&elems, 0), nwords * 64, "{nwords} words");
        }
        assert_eq!(saturated_prefix(&[1, 2, 3], 0), 0, "unaligned head");
        let partial: Vec<u32> = (0..63).collect();
        assert_eq!(saturated_prefix(&partial, 0), 0, "63 bits is not a word");
    }

    /// Sweeps every slice length across the short-slice threshold, so
    /// both sides of the `SHORT_SLICE` branch (the per-id probe and the
    /// dispatched span walk) are pinned to the scalar walker and to a
    /// per-bit model on the same shapes: sparse ids over many words, a
    /// dense run inside one word, and a prefix of an aligned full-word
    /// run (the walker's saturated span at exactly 64 ids).
    #[test]
    fn short_slice_boundary_sweep() {
        const WORDS: usize = 40;
        let universe = (WORDS * 64) as u32;
        let edges = [0, 63, 64, universe - 1];
        let mut sparse_pool: Vec<u32> = edges.to_vec();
        sparse_pool.extend(
            (0..)
                .map(|k: u32| (k * 97 + 5) % universe)
                .filter(|e| !edges.contains(e))
                .take(SHORT_SLICE + 1),
        );
        let aligned: Vec<u32> = (64..128).chain([universe - 1]).collect();
        let bitmaps = [words(WORDS, 5), vec![!0u64; WORDS]];
        for len in 0..=SHORT_SLICE + 1 {
            let mut sparse = sparse_pool[..len].to_vec();
            sparse.sort_unstable();
            // A run of `len` ids inside the last word, ending on the
            // universe's last id (it spills into the previous word only
            // once `len` exceeds one word).
            let dense: Vec<u32> = (universe - len as u32..universe).collect();
            let shapes = [
                ("sparse", sparse),
                ("dense", dense),
                ("aligned", aligned[..len].to_vec()),
            ];
            for (shape, elems) in &shapes {
                assert!(elems.windows(2).all(|w| w[0] < w[1]), "{shape} {len}");
                for bitmap in &bitmaps {
                    let bit = |e: u32| bitmap[(e >> 6) as usize] >> (e & 63) & 1 == 1;
                    let model = elems.iter().filter(|&&e| bit(e)).count();
                    let got = intersection_count_sorted(bitmap, elems);
                    assert_eq!(got, model, "count {shape} len {len}");
                    assert_eq!(
                        got,
                        scalar::intersection_count_sorted(bitmap, elems),
                        "count {shape} len {len}"
                    );

                    let mut removed = bitmap.clone();
                    remove_sorted(&mut removed, elems);
                    let mut removed_ref = bitmap.clone();
                    scalar::remove_sorted(&mut removed_ref, elems);
                    let mut model = bitmap.clone();
                    for &e in elems {
                        model[(e >> 6) as usize] &= !(1u64 << (e & 63));
                    }
                    assert_eq!(removed, model, "remove {shape} len {len}");
                    assert_eq!(removed, removed_ref, "remove {shape} len {len}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn out_of_bounds_ids_panic() {
        intersection_count_sorted(&[0u64; 2], &[5, 128]);
    }
}
