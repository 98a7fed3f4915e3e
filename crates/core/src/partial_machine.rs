//! The ε-partial `iterSetCover` as a pass state machine.
//!
//! [`crate::partial::PartialIterSetCover`] executes its guesses
//! sequentially, each performing its own physical scans.
//! [`PartialCoverDriver`] is the driver-API form of the same query: it
//! runs the full-cover guess machine of [`crate::multiplex`] with a
//! residual goal — each guess stops iterating once at most
//! `n − required` elements are uncovered, and its straggler pass (the
//! goal sweep) emits nothing once the goal is met — so ε-partial
//! queries share that machine's traversal sharing, slice kernels and
//! CSR projection store. Each guess keeps its own forked [`SetStream`]
//! counter, forked [`SpaceMeter`], and seeded RNG, and performs the
//! operations of the sequential reference in the same order, so covers,
//! logical pass counts, and space peaks are identical — the
//! `partial_machine_equivalence` integration test pins all three, and
//! pins covers and pass counts to recorded figures.
//!
//! The driver exists for the serving layer: `sc_service` admits partial
//! queries into the same scan epochs as full-cover and baseline
//! queries, so one physical walk of the repository feeds them all.

use crate::multiplex::IterCoverDriver;
use crate::IterSetCoverConfig;
use sc_setsystem::{ElemId, SetId};
use sc_stream::{SetStream, SpaceMeter};

/// Drives all guesses of one ε-partial `iterSetCover` query through
/// shared physical scans: a thin wrapper over
/// [`IterCoverDriver::partial`].
///
/// Of [`IterSetCoverConfig`], the fields that apply are `delta`,
/// `seed`, `sample_constant` and `paper_constants`. The partial variant
/// fixes the rest: the greedy oracle (`solver`), the size test on
/// (`disable_size_test = false`), and the goal sweep always
/// (`final_cleanup_pass = true`); `executor` does not apply.
///
/// Same scan protocol as [`IterCoverDriver`]:
/// [`begin_scan`](Self::begin_scan), hand
/// [`participants`](Self::participants) to
/// [`SetStream::shared_pass`], [`absorb`](Self::absorb) every item,
/// [`end_scan`](Self::end_scan); once [`wants_scan`](Self::wants_scan)
/// turns false, [`finish_into`](Self::finish_into) merges the guesses
/// and absorbs pass/space accounting into the query's parent handles.
pub struct PartialCoverDriver<'a> {
    inner: IterCoverDriver<'a>,
}

impl<'a> PartialCoverDriver<'a> {
    /// Spawns the guess machines for a query that must cover at least
    /// `required` elements. With `required == 0` (or an empty universe)
    /// no guess is spawned and the query finishes with an empty cover,
    /// exactly as the sequential path returns early.
    pub fn new(
        cfg: &IterSetCoverConfig,
        required: usize,
        stream: &SetStream<'a>,
        meter: &SpaceMeter,
    ) -> Self {
        Self {
            inner: IterCoverDriver::partial(cfg, required, stream, meter),
        }
    }

    /// `true` while at least one guess still needs a physical scan.
    pub fn wants_scan(&self) -> bool {
        self.inner.wants_scan()
    }

    /// The 1-based index of the logical pass the query needs next (see
    /// [`crate::ScanDriver::pass_index`]) — what a pass-aligned
    /// scheduler matches against the scan it splices this query into.
    pub fn pass_index(&self) -> usize {
        self.inner.pass_index()
    }

    /// Collects the guesses participating in the next scan and builds
    /// the shared-traversal masks.
    pub fn begin_scan(&mut self) {
        self.inner.begin_scan();
    }

    /// The forked streams of the participating guesses — hand these to
    /// [`SetStream::shared_pass`] so each logs its logical pass. Valid
    /// after [`begin_scan`](Self::begin_scan).
    pub fn participants(&self) -> Vec<&SetStream<'a>> {
        self.inner.participants()
    }

    /// Feeds one stream item to every participating guess.
    pub fn absorb(&mut self, id: SetId, elems: &[ElemId]) {
        self.inner.absorb(id, elems);
    }

    /// Feeds a run of stream items (see
    /// [`crate::ScanDriver::absorb_items`]); items must arrive in
    /// repository order across the calls of one scan.
    pub fn absorb_items(&mut self, items: impl IntoIterator<Item = (SetId, &'a [ElemId])>) {
        self.inner.absorb_items(items);
    }

    /// Runs every participating guess's between-scan transition.
    pub fn end_scan(&mut self) {
        self.inner.end_scan();
    }

    /// Merges the finished guesses (k ascending, first minimal cover
    /// wins — the sequential tie-break) and absorbs pass counts (max)
    /// and space peaks (sum) into the parent stream and meter. See
    /// [`crate::ScanDriver::finish_into`] for the single-source merge
    /// rule.
    pub fn finish_into(self, stream: &SetStream<'a>, meter: &SpaceMeter) -> Vec<SetId> {
        self.inner.finish_into(stream, meter).0
    }
}
