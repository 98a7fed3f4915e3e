//! Multi-owner shared-scan accounting for a driver that serves many
//! independent streaming computations over one repository.

use crate::{SetStream, ShardedPass};
use std::cell::Cell;
use std::sync::OnceLock;

/// Process-wide telemetry counter of physical scans started through
/// *any* ledger — the live-surface mirror of per-ledger
/// [`physical_scans`](ScanLedger::physical_scans) (resolved once; the
/// per-scan cost is one relaxed gate load when telemetry is off).
fn scans_counter() -> &'static sc_telemetry::Counter {
    static C: OnceLock<&'static sc_telemetry::Counter> = OnceLock::new();
    C.get_or_init(|| sc_telemetry::counter("sc_scans_physical_total"))
}

/// Process-wide telemetry counter of pass owners joined onto in-flight
/// scans through [`join`](ScanLedger::join).
fn joins_counter() -> &'static sc_telemetry::Counter {
    static C: OnceLock<&'static sc_telemetry::Counter> = OnceLock::new();
    C.get_or_init(|| sc_telemetry::counter("sc_scan_joins_total"))
}

/// Counts the *physical* scans a multiplexing driver performs on behalf
/// of many logically independent pass owners.
///
/// [`SetStream::shared_pass`] already lets one parent execute a single
/// scan for several of its own parallel branches; a serving layer goes
/// one level up — branches of *different* queries, each with its own
/// pass meter, join the same physical walk of the repository. The
/// ledger is the driver-side record of that sharing: every call to
/// [`scan`](ScanLedger::scan) performs exactly one physical pass
/// (whoever joined it), so `physical_scans()` is the number the
/// hardware paid for, while each participant's own
/// [`passes`](SetStream::passes) counter keeps charging the logical
/// passes its query's analysis is billed for.
///
/// The ledger deliberately does *not* touch any [`SetStream`] counter
/// itself: logical accounting stays with the per-query forks (absorbed
/// into their parents via [`SetStream::absorb_parallel`] as usual), and
/// the physical count lives here, so "how much scan sharing happened"
/// is always `max logical / physical` per epoch group rather than an
/// estimate.
///
/// # Examples
///
/// ```
/// use sc_setsystem::SetSystem;
/// use sc_stream::{ScanLedger, SetStream};
///
/// let system = SetSystem::from_sets(3, vec![vec![0, 1], vec![2]]);
/// let root = SetStream::new(&system);
/// let (a, b) = (root.fork(), root.fork());
/// let ledger = ScanLedger::new();
/// // Two queries' passes ride one physical scan, fed in shards of 2.
/// let feed = ledger.scan(&root, &[&a, &b], 2);
/// assert_eq!(feed.num_shards(), 1);
/// assert_eq!(ledger.physical_scans(), 1);
/// assert_eq!((a.passes(), b.passes()), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct ScanLedger {
    physical: Cell<usize>,
}

impl ScanLedger {
    /// Fresh ledger with zero physical scans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of physical scans performed through this ledger — which
    /// is also the 1-based index of the scan most recently started
    /// through it, the tag a scheduler aligns joiners against (`0`
    /// before any scan). Every scan of an immutable repository yields
    /// the same item sequence, so *which* index a joiner splices into
    /// never changes what it observes; the tag exists so the scheduler
    /// can record (and tests can pin) that a splice landed on the scan
    /// it planned for.
    pub fn physical_scans(&self) -> usize {
        self.physical.get()
    }

    /// Performs one physical scan of `stream`'s repository on behalf of
    /// `participants`, exposed as a zero-copy sharded feed
    /// ([`ShardedPass`]): one physical scan is counted for the feed as a
    /// whole and each participant logs one logical pass, no matter how
    /// many shards or worker threads consume the feed.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is empty, if any participant is not a
    /// fork of `stream`'s repository, or if `shard_size` is zero.
    pub fn scan<'a>(
        &self,
        stream: &SetStream<'a>,
        participants: &[&SetStream<'a>],
        shard_size: usize,
    ) -> ShardedPass<'a> {
        self.physical.set(self.physical.get() + 1);
        scans_counter().incr();
        stream.sharded_pass(participants, shard_size)
    }

    /// Registers `participants` as mid-stream joiners of the physical
    /// scan most recently started through this ledger: each logs one
    /// logical pass ([`SetStream::join_shared_pass`]) while the
    /// physical count stays untouched — the walk already happened (or
    /// is in flight), and the driver replays its items to the joiners
    /// through [`ShardedPass::replay`], so the hardware pays nothing
    /// extra. Returns the index of the scan joined (its
    /// [`physical_scans`](ScanLedger::physical_scans) count), so the
    /// caller can tag the splice with the pass it aligned to.
    ///
    /// # Panics
    ///
    /// Panics if no scan was ever performed through this ledger (there
    /// is nothing to join), or if any participant is not a fork of
    /// `stream`'s repository.
    pub fn join<'a>(&self, stream: &SetStream<'a>, participants: &[&SetStream<'a>]) -> usize {
        assert!(
            self.physical.get() > 0,
            "mid-stream join needs a scan in flight"
        );
        stream.join_shared_pass(participants);
        joins_counter().add(participants.len() as u64);
        self.physical.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_setsystem::SetSystem;

    fn system() -> SetSystem {
        SetSystem::from_sets(4, vec![vec![0], vec![1, 2], vec![3]])
    }

    #[test]
    fn physical_count_is_per_scan_not_per_participant() {
        let sys = system();
        let root = SetStream::new(&sys);
        let queries: Vec<SetStream> = (0..8).map(|_| root.fork()).collect();
        let ledger = ScanLedger::new();
        let participants: Vec<&SetStream> = queries.iter().collect();
        assert_eq!(ledger.physical_scans(), 0, "no scan tagged yet");
        for s in 0..3 {
            let items: Vec<_> = ledger.scan(&root, &participants, 2).replay().collect();
            assert_eq!(items.len(), 3);
            assert_eq!(ledger.physical_scans(), s + 1, "scans are pass-tagged");
        }
        assert_eq!(ledger.physical_scans(), 3);
        for q in &queries {
            assert_eq!(q.passes(), 3, "each owner logged one pass per scan");
        }
        assert_eq!(root.passes(), 0, "the root is never charged directly");
    }

    #[test]
    fn late_joiners_log_only_their_scans() {
        let sys = system();
        let root = SetStream::new(&sys);
        let early = root.fork();
        let late = root.fork();
        let ledger = ScanLedger::new();
        for (_id, _e) in ledger.scan(&root, &[&early], 2).replay() {}
        for (_id, _e) in ledger.scan(&root, &[&early, &late], 2).replay() {}
        assert_eq!(ledger.physical_scans(), 2);
        assert_eq!((early.passes(), late.passes()), (2, 1));
    }

    #[test]
    fn mid_stream_joins_cost_no_physical_scan() {
        let sys = system();
        let root = SetStream::new(&sys);
        let early = root.fork();
        let late = root.fork();
        let ledger = ScanLedger::new();
        let feed = ledger.scan(&root, &[&early], 2);
        // A query arrives while that scan is still being fanned out: it
        // joins the in-flight scan and replays its items.
        assert_eq!(ledger.join(&root, &[&late]), 1, "joined scan #1");
        assert_eq!(feed.replay().count(), 3);
        assert_eq!(ledger.physical_scans(), 1, "no second walk");
        assert_eq!((early.passes(), late.passes()), (1, 1));
    }

    #[test]
    fn sharded_scans_count_one_physical_walk() {
        let sys = system();
        let root = SetStream::new(&sys);
        let (a, b) = (root.fork(), root.fork());
        let ledger = ScanLedger::new();
        let feed = ledger.scan(&root, &[&a, &b], 2);
        let ids: Vec<_> = (0..feed.num_shards())
            .flat_map(|s| feed.shard(s).map(|(id, _)| id))
            .collect();
        assert_eq!(ids, vec![0, 1, 2], "shards tile the repository");
        assert_eq!(ledger.physical_scans(), 1, "one scan per feed");
        assert_eq!((a.passes(), b.passes()), (1, 1));
    }

    #[test]
    #[should_panic(expected = "scan in flight")]
    fn joining_before_any_scan_is_rejected() {
        let sys = system();
        let root = SetStream::new(&sys);
        let late = root.fork();
        ScanLedger::new().join(&root, &[&late]);
    }

    #[test]
    #[should_panic(expected = "at least one participating branch")]
    fn empty_scan_groups_are_rejected() {
        let sys = system();
        let root = SetStream::new(&sys);
        let ledger = ScanLedger::new();
        let _ = ledger.scan(&root, &[], 2);
    }
}
