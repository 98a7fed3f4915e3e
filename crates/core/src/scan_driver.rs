//! The generic scan-protocol driver shared by every multi-guess pass
//! machine.
//!
//! [`crate::multiplex::IterCoverDriver`] (and its ε-partial form,
//! [`crate::partial_machine::PartialCoverDriver`]) advances a family of
//! per-guess state machines through **shared physical scans**: collect
//! the guesses that still want a pass, hand their forked streams to
//! [`SetStream::shared_pass`] so each logs its logical pass, feed every
//! item to every participant, run the between-scan transitions, and —
//! once everyone finished — merge results (first minimal cover wins,
//! in guess order) and absorb pass counts (max) and space peaks (sum)
//! into the query's parent handles. That scaffolding used to be
//! duplicated per driver; [`ScanDriver`] makes it single-source, so the
//! merge/absorb rule is written exactly once before a third machine
//! appears.
//!
//! A machine family plugs in through [`GuessMachine`]: the per-guess
//! surface (`wants_scan` / `absorb` / `end_scan` / `into_outcome`) plus
//! two optional *group hooks* ([`GuessMachine::begin_scan_group`],
//! [`GuessMachine::absorb_group`]) for families that share per-item
//! work across guesses — the multiplexed `iterSetCover` uses them for
//! its transposed-residual-mask traversal sharing, for full-cover and
//! ε-partial queries alike; the defaults (each guess absorbs every item
//! itself) serve families without shared per-item work.
//!
//! # Scan protocol
//!
//! ```text
//! while driver.wants_scan() {
//!     driver.begin_scan();                      // rebuild the scanning list
//!     let items = stream.shared_pass(&driver.participants());
//!     for (id, elems) in items { driver.absorb(id, elems); }
//!     driver.end_scan();                        // between-scan work
//! }
//! let (cover, traces) = driver.finish_into(&stream, &meter);
//! ```
//!
//! [`SetStream::shared_pass`]: sc_stream::SetStream::shared_pass

use crate::IterationTrace;
use sc_setsystem::{ElemId, SetId};
use sc_stream::{SetStream, SpaceMeter};
use std::marker::PhantomData;

/// What one finished guess machine reports back to the driver.
#[derive(Debug)]
pub struct MachineOutcome {
    /// `Some(cover)` when the guess met its goal, `None` when it
    /// failed or aborted.
    pub result: Option<Vec<SetId>>,
    /// Per-iteration diagnostics (empty for families that record none).
    pub traces: Vec<IterationTrace>,
    /// The guess's logical pass count (its forked stream's counter).
    pub passes: usize,
    /// The guess's peak working memory in words (its forked meter).
    pub peak: usize,
}

/// One guess of a multi-guess streaming algorithm, runnable one stream
/// item at a time, drivable by [`ScanDriver`].
///
/// Each machine owns a forked [`SetStream`] (its logical pass counter)
/// and performs exactly the operations of its sequential reference in
/// exactly the same order, so driving a family of machines through
/// shared scans changes *physical* work only — covers, logical pass
/// counts, and space peaks stay bit-identical.
pub trait GuessMachine<'a>: Sized {
    /// Driver-lifetime scratch shared across all machines of the family
    /// during a scan (e.g. the transposed residual masks of the
    /// multiplexed executor). Families without shared per-item state
    /// use `()`.
    type Shared;

    /// Builds the family's shared scratch once, at driver creation.
    fn make_shared(machines: &[Self]) -> Self::Shared;

    /// `true` while this guess needs to join the next physical scan.
    fn wants_scan(&self) -> bool;

    /// The guess's forked stream — handed to
    /// [`SetStream::shared_pass`](sc_stream::SetStream::shared_pass) so
    /// it logs one logical pass per scan it joins.
    fn stream(&self) -> &SetStream<'a>;

    /// Feeds one stream item to this machine alone (the solo path).
    fn absorb(&mut self, id: SetId, elems: &[ElemId]);

    /// Runs the between-scan transition after a scan's items end.
    fn end_scan(&mut self);

    /// Consumes the finished machine and reports its outcome.
    fn into_outcome(self) -> MachineOutcome;

    /// Group hook run once per scan after the driver rebuilt `scanning`
    /// (indices into `machines` of the guesses joining this scan).
    /// Families that share per-item traversal set up their scratch
    /// here; the default does nothing.
    fn begin_scan_group(machines: &mut [Self], scanning: &[usize], shared: &mut Self::Shared) {
        let _ = (machines, scanning, shared);
    }

    /// Group hook feeding one stream item to every scanning machine.
    /// The default calls [`absorb`](Self::absorb) per machine in
    /// `scanning` order; families with shared traversal override it.
    fn absorb_group(
        machines: &mut [Self],
        scanning: &[usize],
        shared: &mut Self::Shared,
        id: SetId,
        elems: &[ElemId],
    ) {
        let _ = shared;
        for &g in scanning {
            machines[g].absorb(id, elems);
        }
    }
}

/// Drives a family of [`GuessMachine`]s through shared physical scans
/// and merges their outcomes exactly as the sequential executors do.
///
/// The driver owns the scan-protocol scaffolding every machine family
/// needs — the scanning list, the participant collection, the
/// between-scan fan-out, and the merge/absorb accounting — while the
/// family supplies the per-guess state machines and (optionally) the
/// shared-traversal group hooks.
pub struct ScanDriver<'a, M: GuessMachine<'a>> {
    machines: Vec<M>,
    /// Machines joining the current scan (indices into `machines`),
    /// rebuilt by [`begin_scan`](Self::begin_scan).
    scanning: Vec<usize>,
    /// Scans this driver has fully completed (`end_scan` calls) — the
    /// driver-side half of pass-index tagging: the next scan it joins
    /// is logical pass `finished_scans + 1` of the query.
    finished_scans: usize,
    shared: M::Shared,
    _repo: PhantomData<&'a ()>,
}

impl<'a, M: GuessMachine<'a>> ScanDriver<'a, M> {
    /// Wraps an already-spawned machine family.
    pub fn new(machines: Vec<M>) -> Self {
        let shared = M::make_shared(&machines);
        Self {
            machines,
            scanning: Vec::new(),
            finished_scans: 0,
            shared,
            _repo: PhantomData,
        }
    }

    /// The 1-based index of the logical pass the driver needs next —
    /// the tag a pass-aligned scheduler matches against the scan it
    /// plans to splice this driver into (a fresh driver reports `1`).
    /// Meaningful while [`wants_scan`](Self::wants_scan) is `true`; it
    /// stops advancing once every machine finished.
    pub fn pass_index(&self) -> usize {
        self.finished_scans + 1
    }

    /// `true` while at least one machine still needs a physical scan.
    /// Every scan the driver joins must include every machine that
    /// wants one, so physical scans = max logical passes.
    pub fn wants_scan(&self) -> bool {
        self.machines.iter().any(M::wants_scan)
    }

    /// Prepares the next scan: rebuilds the scanning list and runs the
    /// family's [`begin_scan_group`](GuessMachine::begin_scan_group)
    /// hook.
    pub fn begin_scan(&mut self) {
        self.scanning.clear();
        self.scanning
            .extend((0..self.machines.len()).filter(|&g| self.machines[g].wants_scan()));
        debug_assert!(!self.scanning.is_empty(), "begin_scan on a finished driver");
        M::begin_scan_group(&mut self.machines, &self.scanning, &mut self.shared);
    }

    /// The forked streams of the machines joining the current scan, in
    /// guess order — hand these to
    /// [`SetStream::shared_pass`](sc_stream::SetStream::shared_pass)
    /// (or [`sc_stream::ScanLedger::scan`]) so each logs its logical
    /// pass. Valid after [`begin_scan`](Self::begin_scan).
    pub fn participants(&self) -> Vec<&SetStream<'a>> {
        self.scanning
            .iter()
            .map(|&g| self.machines[g].stream())
            .collect()
    }

    /// Feeds one stream item to every participating machine through the
    /// family's [`absorb_group`](GuessMachine::absorb_group) hook.
    pub fn absorb(&mut self, id: SetId, elems: &[ElemId]) {
        M::absorb_group(
            &mut self.machines,
            &self.scanning,
            &mut self.shared,
            id,
            elems,
        );
    }

    /// Feeds a run of stream items — the batch form of
    /// [`absorb`](Self::absorb), used by callers that hold the scan as
    /// an iterator or a sharded zero-copy feed
    /// ([`sc_stream::ShardedPass`]) rather than item by item. Items
    /// must arrive in repository order across the calls of one scan;
    /// feeding a scan as consecutive shard iterators satisfies that.
    pub fn absorb_items(&mut self, items: impl IntoIterator<Item = (SetId, &'a [ElemId])>) {
        for (id, elems) in items {
            self.absorb(id, elems);
        }
    }

    /// Runs every participating machine's between-scan transition
    /// (offline solves, iteration bookkeeping, phase changes) after the
    /// caller exhausted the scan's items.
    pub fn end_scan(&mut self) {
        for &g in &self.scanning {
            self.machines[g].end_scan();
        }
        self.finished_scans += 1;
    }

    /// Merges the finished machines exactly as the sequential executors
    /// do and absorbs their pass counts (max) and space peaks (sum)
    /// into the parent stream and meter the family was forked from.
    /// Returns the best cover and the concatenated iteration traces.
    ///
    /// Merge order is machine order (guess `k` ascending, matching the
    /// sequential paths): traces concatenate to the identical sequence,
    /// ties in the best-cover comparison resolve identically (first
    /// minimal cover wins), and the parent absorbs the same per-child
    /// pass counts and space peaks.
    pub fn finish_into(
        self,
        stream: &SetStream<'a>,
        meter: &SpaceMeter,
    ) -> (Vec<SetId>, Vec<IterationTrace>) {
        let mut best: Option<Vec<SetId>> = None;
        let mut traces = Vec::new();
        let mut child_passes = Vec::with_capacity(self.machines.len());
        let mut child_peaks = Vec::with_capacity(self.machines.len());
        for machine in self.machines {
            let outcome = machine.into_outcome();
            traces.extend(outcome.traces);
            if let Some(sol) = outcome.result {
                if best.as_ref().is_none_or(|b| sol.len() < b.len()) {
                    best = Some(sol);
                }
            }
            child_passes.push(outcome.passes);
            child_peaks.push(outcome.peak);
        }
        stream.absorb_parallel(child_passes);
        meter.absorb_parallel(child_peaks);
        (best.unwrap_or_default(), traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_setsystem::SetSystem;

    /// A machine that wants `want` scans and records what it saw.
    struct Probe<'a> {
        stream: SetStream<'a>,
        want: usize,
        seen: Vec<SetId>,
        ended: usize,
        cover: Vec<SetId>,
    }

    impl<'a> GuessMachine<'a> for Probe<'a> {
        type Shared = ();

        fn make_shared(_machines: &[Self]) -> Self::Shared {}

        fn wants_scan(&self) -> bool {
            self.ended < self.want
        }

        fn stream(&self) -> &SetStream<'a> {
            &self.stream
        }

        fn absorb(&mut self, id: SetId, _elems: &[ElemId]) {
            self.seen.push(id);
        }

        fn end_scan(&mut self) {
            self.ended += 1;
        }

        fn into_outcome(self) -> MachineOutcome {
            MachineOutcome {
                result: Some(self.cover),
                traces: Vec::new(),
                passes: self.stream.passes(),
                peak: self.want, // stands in for a meter peak
            }
        }
    }

    #[test]
    fn drives_machines_to_their_individual_pass_counts() {
        let sys = SetSystem::from_sets(3, vec![vec![0, 1], vec![2]]);
        let root = SetStream::new(&sys);
        let meter = SpaceMeter::new();
        let mk = |want: usize, cover: Vec<SetId>| Probe {
            stream: root.fork(),
            want,
            seen: Vec::new(),
            ended: 0,
            cover,
        };
        let mut driver = ScanDriver::new(vec![mk(1, vec![0, 1]), mk(3, vec![2])]);
        let mut physical = 0;
        while driver.wants_scan() {
            driver.begin_scan();
            let items = root.shared_pass(&driver.participants());
            for (id, elems) in items {
                driver.absorb(id, elems);
            }
            driver.end_scan();
            physical += 1;
        }
        assert_eq!(physical, 3, "one shared scan per round, max over machines");
        let (cover, traces) = driver.finish_into(&root, &meter);
        // First minimal cover wins: the single-set cover of machine 2.
        assert_eq!(cover, vec![2]);
        assert!(traces.is_empty());
        assert_eq!(root.passes(), 3, "parent absorbed the max logical count");
        assert_eq!(meter.peak(), 1 + 3, "parent absorbed the summed peaks");
    }

    #[test]
    fn finished_machines_leave_the_scanning_list() {
        let sys = SetSystem::from_sets(2, vec![vec![0], vec![1]]);
        let root = SetStream::new(&sys);
        let short = Probe {
            stream: root.fork(),
            want: 1,
            seen: Vec::new(),
            ended: 0,
            cover: vec![0, 1],
        };
        let long = Probe {
            stream: root.fork(),
            want: 2,
            seen: Vec::new(),
            ended: 0,
            cover: vec![0, 1],
        };
        let mut driver = ScanDriver::new(vec![short, long]);
        driver.begin_scan();
        assert_eq!(driver.participants().len(), 2);
        for (id, elems) in root.shared_pass(&driver.participants()) {
            driver.absorb(id, elems);
        }
        driver.end_scan();
        driver.begin_scan();
        assert_eq!(driver.participants().len(), 1, "short machine retired");
    }
}
