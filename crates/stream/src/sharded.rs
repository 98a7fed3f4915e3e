//! The sharded repository feed: zero-copy shard access over one shared
//! physical scan, plus the work-stealing cursor that hands shards to a
//! pool of workers.
//!
//! The epoch scheduler in `sc_service` used to materialise every scan
//! as a `Vec<(id, &[elems])>` before fanning it out to worker threads —
//! an `O(m)` copy per epoch that exists only because a `shared_pass`
//! iterator can be consumed once while several workers each need the
//! whole item sequence. [`ShardedPass`] removes the copy: the
//! repository is partitioned into contiguous shards of set ids, and any
//! number of workers read any shard directly from the repository slices
//! ([`ShardedPass::shard`] borrows with the repository lifetime, so a
//! shard iterator is free to construct and free to re-create).
//!
//! [`FeedCursor`] is the scheduling half: a work-stealing cursor over
//! the `(consumer, shard)` grid for feeds where every consumer (a query
//! job in `sc_service`) must observe **every shard in repository
//! order** — the property that keeps per-query observables bit-identical
//! to a solo run. Each consumer advances through its shards strictly in
//! order with at most one shard in flight, while *which worker* carries
//! a given `(consumer, shard)` unit is decided dynamically by atomic
//! claim — so a heavy query no longer pins the static chunk of queries
//! that happened to be scheduled beside it.
//!
//! [`InterleavedCursor`] lifts the same claim protocol to many
//! concurrent feeds: independent *lanes* (one per tenant epoch in
//! `sc_service`) attach their own grids to a shared registry, so a
//! machine-wide scheduler can meter `(tenant, shard)` units across
//! tenants while each lane keeps the exact per-consumer
//! exactly-once-in-order guarantee of a solo [`FeedCursor`].
//!
//! Accounting is unchanged from [`SetStream::shared_pass`]: creating a
//! sharded pass logs one logical pass per participant, and
//! [`ScanLedger::scan_sharded`](crate::ScanLedger::scan_sharded) counts
//! one physical scan per feed, no matter how many shards or workers
//! consume it.

use crate::SetStream;
use sc_setsystem::{ElemId, SetId, SetSystem};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A zero-copy sharded view of one shared physical scan.
///
/// Created by [`SetStream::sharded_pass`] (which performs the logical
/// pass accounting for every participant, exactly like
/// [`SetStream::shared_pass`]) or
/// [`ScanLedger::scan_sharded`](crate::ScanLedger::scan_sharded) (which
/// additionally counts the physical scan). The view is `Sync`: shard
/// iterators borrow the repository directly, so many workers can read
/// disjoint — or even the same — shards concurrently without any
/// buffering.
///
/// # Examples
///
/// ```
/// use sc_setsystem::SetSystem;
/// use sc_stream::SetStream;
///
/// let system = SetSystem::from_sets(4, vec![vec![0], vec![1, 2], vec![3]]);
/// let root = SetStream::new(&system);
/// let q = root.fork();
/// let feed = root.sharded_pass(&[&q], 2);
/// assert_eq!(q.passes(), 1, "one logical pass, however many shards");
/// assert_eq!(feed.num_shards(), 2);
/// let ids: Vec<_> = (0..feed.num_shards())
///     .flat_map(|s| feed.shard(s).map(|(id, _)| id))
///     .collect();
/// assert_eq!(ids, vec![0, 1, 2], "shards tile the repository in order");
/// ```
#[derive(Debug)]
pub struct ShardedPass<'a> {
    system: &'a SetSystem,
    shard_size: usize,
    num_shards: usize,
}

impl<'a> ShardedPass<'a> {
    pub(crate) fn new(system: &'a SetSystem, shard_size: usize) -> Self {
        assert!(shard_size > 0, "shards must hold at least one set");
        Self {
            system,
            shard_size,
            num_shards: system.num_sets().div_ceil(shard_size),
        }
    }

    /// Number of contiguous shards the repository is partitioned into
    /// (zero for an empty family).
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Sets per shard (the last shard may be shorter).
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Family size `m` of the underlying repository.
    pub fn num_sets(&self) -> usize {
        self.system.num_sets()
    }

    /// The items of shard `index`, in repository order, borrowed
    /// straight from the repository — no buffering, no copy, free to
    /// call any number of times from any thread.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_shards()`.
    pub fn shard(&self, index: usize) -> impl Iterator<Item = (SetId, &'a [ElemId])> + use<'a> {
        assert!(index < self.num_shards, "shard {index} out of range");
        let start = index * self.shard_size;
        let end = (start + self.shard_size).min(self.system.num_sets());
        let system = self.system;
        (start..end).map(move |id| (id as SetId, system.set(id as SetId)))
    }

    /// Every item of the scan in repository order — the single-consumer
    /// replay, equivalent to what [`SetStream::shared_pass`] yields.
    pub fn replay(&self) -> impl Iterator<Item = (SetId, &'a [ElemId])> + use<'a> {
        self.system.iter()
    }

    /// A fresh work-stealing cursor scheduling this feed's shards to
    /// `consumers` independent consumers (each must observe every shard
    /// in order; see [`FeedCursor`]).
    pub fn cursor(&self, consumers: usize) -> FeedCursor {
        FeedCursor::new(consumers, self.num_shards)
    }
}

/// One unit of feed work, or the reason none is available right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// Feed shard `shard` to consumer `consumer`, then call
    /// [`FeedCursor::complete`].
    Shard {
        /// Index of the consumer to feed (exclusively claimed until
        /// completed).
        consumer: usize,
        /// The shard to feed it — always the consumer's next unseen
        /// shard.
        shard: usize,
    },
    /// Work remains but every consumer with shards left is claimed by
    /// another worker; yield and claim again.
    Retry,
    /// Every consumer has observed every shard; the worker can exit.
    Done,
}

/// A work-stealing cursor over the `(consumer, shard)` grid of a
/// sharded feed.
///
/// Invariants the cursor guarantees (and `debug_assert`s):
///
/// * each consumer is handed shards `0, 1, …, num_shards−1` strictly in
///   order — so a consumer that must see items in repository order
///   (every cover-query job) stays bit-identical to a solo run;
/// * at most one shard per consumer is in flight at a time —
///   [`Claim::Shard`] grants the worker exclusive access to that
///   consumer until [`complete`](FeedCursor::complete);
/// * every `(consumer, shard)` unit is handed out exactly once.
///
/// Workers loop on [`claim`](FeedCursor::claim): `Shard` carries work,
/// `Retry` means spin (another worker holds every consumer that still
/// has shards left — the tail of an epoch), `Done` terminates. The
/// cursor is lock-free (per-consumer atomics plus a remaining-unit
/// counter), so claims cost two atomic operations on the hot path.
///
/// # Examples
///
/// ```
/// use sc_stream::{Claim, FeedCursor};
///
/// let cursor = FeedCursor::new(1, 3);
/// for expect in 0..3 {
///     match cursor.claim() {
///         Claim::Shard { consumer: 0, shard } => {
///             assert_eq!(shard, expect, "shards arrive in order");
///             cursor.complete(0, shard);
///         }
///         other => panic!("unexpected claim {other:?}"),
///     }
/// }
/// assert_eq!(cursor.claim(), Claim::Done);
/// ```
#[derive(Debug)]
pub struct FeedCursor {
    grid: Grid,
}

/// The lock-free `(consumer, shard)` claim grid shared by
/// [`FeedCursor`] (one lane) and [`InterleavedCursor`] (one grid per
/// attached lane). Both cursors route every claim and completion
/// through this single implementation, so the per-consumer
/// exactly-once-in-order invariant is the same object in both modes.
#[derive(Debug)]
struct Grid {
    /// `claimed[c]` — consumer `c` is exclusively held by some worker.
    claimed: Vec<AtomicBool>,
    /// `next[c]` — the next shard consumer `c` has not yet observed.
    /// Written only by the worker holding the claim (or pre-claim by
    /// nobody), read under `Acquire` after winning the claim.
    next: Vec<AtomicUsize>,
    /// `(consumer, shard)` units not yet completed; `0` means done.
    remaining: AtomicUsize,
    /// Set by `abort`: every further claim returns [`Claim::Done`]
    /// even with units outstanding.
    aborted: AtomicBool,
    num_shards: usize,
}

impl Grid {
    fn new(consumers: usize, num_shards: usize) -> Self {
        Self {
            claimed: (0..consumers).map(|_| AtomicBool::new(false)).collect(),
            next: (0..consumers).map(|_| AtomicUsize::new(0)).collect(),
            remaining: AtomicUsize::new(consumers * num_shards),
            aborted: AtomicBool::new(false),
            num_shards,
        }
    }

    fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }

    fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
    }

    fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    fn claim(&self) -> Claim {
        if self.aborted.load(Ordering::Acquire) || self.remaining() == 0 {
            return Claim::Done;
        }
        for (consumer, flag) in self.claimed.iter().enumerate() {
            // Cheap read first; the swap below arbitrates actual races.
            if flag.load(Ordering::Relaxed) {
                continue;
            }
            if flag.swap(true, Ordering::Acquire) {
                continue; // lost the race
            }
            let shard = self.next[consumer].load(Ordering::Acquire);
            if shard < self.num_shards {
                return Claim::Shard { consumer, shard };
            }
            // This consumer is exhausted; release and keep sweeping.
            flag.store(false, Ordering::Release);
        }
        if self.remaining() == 0 {
            Claim::Done
        } else {
            Claim::Retry
        }
    }

    fn complete(&self, consumer: usize, shard: usize) {
        debug_assert!(
            self.claimed[consumer].load(Ordering::Acquire),
            "completing a unit of an unclaimed consumer"
        );
        debug_assert_eq!(
            self.next[consumer].load(Ordering::Acquire),
            shard,
            "completing a shard out of order"
        );
        debug_assert!(self.remaining() > 0, "completing on an exhausted feed");
        self.next[consumer].store(shard + 1, Ordering::Release);
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        self.claimed[consumer].store(false, Ordering::Release);
    }
}

impl FeedCursor {
    /// A cursor over `consumers × num_shards` units, all unclaimed.
    pub fn new(consumers: usize, num_shards: usize) -> Self {
        Self {
            grid: Grid::new(consumers, num_shards),
        }
    }

    /// `(consumer, shard)` units not yet completed.
    pub fn remaining(&self) -> usize {
        self.grid.remaining()
    }

    /// Shuts the feed down: every further [`claim`](FeedCursor::claim)
    /// returns [`Claim::Done`] even though units remain outstanding.
    ///
    /// This is the worker pool's panic escape hatch. A worker that
    /// unwinds mid-unit (a firing `debug_assert`, a poisoned slot)
    /// leaves its consumer claimed forever; without an abort its
    /// siblings would spin on [`Claim::Retry`] until the end of time
    /// and the pool's scope would never unwind to propagate the
    /// panic. Call it from an unwind guard so the death of one worker
    /// releases the rest.
    pub fn abort(&self) {
        self.grid.abort();
    }

    /// `true` once [`abort`](FeedCursor::abort) was called — lets a
    /// driver thread polling [`remaining`](FeedCursor::remaining) for
    /// the feed's end distinguish a clean drain from a pool that died
    /// with units outstanding (and stop waiting for them).
    pub fn is_aborted(&self) -> bool {
        self.grid.is_aborted()
    }

    /// Claims the next available unit of work (see [`Claim`]).
    pub fn claim(&self) -> Claim {
        self.grid.claim()
    }

    /// Marks a claimed unit as fed, releasing the consumer for the next
    /// shard (possibly to another worker).
    ///
    /// # Panics
    ///
    /// Debug builds assert the unit was the one actually claimed: the
    /// consumer must be held, `shard` must be its next shard, and the
    /// feed must have had work remaining.
    pub fn complete(&self, consumer: usize, shard: usize) {
        self.grid.complete(consumer, shard);
    }
}

/// A multi-lane generalisation of [`FeedCursor`]: one long-lived
/// work-stealing registry that any number of independent *lanes* (one
/// per tenant scan epoch, in `sc_service`) attach their `(consumer,
/// shard)` grids to and detach from dynamically.
///
/// Each attached lane gets its own `Grid` — the exact structure
/// behind [`FeedCursor`] — so the per-lane scheduling semantics are
/// *identical* to a solo `FeedCursor`: every consumer of a lane
/// observes every shard of **its own lane's** repository exactly once,
/// strictly in repository order, with at most one shard in flight per
/// consumer. What the shared registry adds is visibility: a scheduler
/// can ask how many units remain across *all* live lanes
/// ([`remaining`](InterleavedCursor::remaining)) and how many lanes are
/// currently attached ([`live_lanes`](InterleavedCursor::live_lanes)),
/// which is what lets a machine-wide arbiter meter shard units across
/// tenants instead of running one tenant's epoch to completion at a
/// time.
///
/// Aborts are **lane-scoped**: a worker pool that dies aborts only its
/// own lane's feed. A cross-lane abort would let a healthy lane's
/// fan-out return normally with an incomplete scan — silently wrong
/// answers — whereas a lane-scoped abort unwinds exactly the lane that
/// panicked.
///
/// # Examples
///
/// ```
/// use sc_stream::{Claim, InterleavedCursor};
///
/// let cursor = InterleavedCursor::new();
/// let a = cursor.attach(1, 2); // lane a: 1 consumer × 2 shards
/// let b = cursor.attach(2, 1); // lane b: 2 consumers × 1 shard
/// assert_eq!(cursor.live_lanes(), 2);
/// assert_eq!(cursor.remaining(), 4);
/// while let Claim::Shard { consumer, shard } = a.claim() {
///     a.complete(consumer, shard);
/// }
/// drop(a); // lane detaches; its slot is recycled
/// assert_eq!(cursor.live_lanes(), 1);
/// assert_eq!(cursor.remaining(), 2);
/// drop(b);
/// assert_eq!(cursor.live_lanes(), 0);
/// ```
#[derive(Debug, Default)]
pub struct InterleavedCursor {
    /// Slot registry: `Some` while a lane is attached, recycled on
    /// detach. Locked only on attach/detach (twice per epoch), never
    /// on the claim/complete hot path.
    lanes: Mutex<Vec<Option<Arc<Grid>>>>,
    /// Units not yet completed across all live lanes.
    remaining_total: AtomicUsize,
    /// Number of currently attached lanes.
    live: AtomicUsize,
}

impl InterleavedCursor {
    /// An empty registry with no lanes attached.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a fresh lane of `consumers × num_shards` units and
    /// returns its feed handle. The lane detaches (and its slot is
    /// recycled) when the handle drops.
    pub fn attach(&self, consumers: usize, num_shards: usize) -> LaneFeed<'_> {
        let grid = Arc::new(Grid::new(consumers, num_shards));
        let mut lanes = self.lanes.lock().expect("lane registry poisoned");
        let lane = match lanes.iter().position(Option::is_none) {
            Some(slot) => {
                lanes[slot] = Some(Arc::clone(&grid));
                slot
            }
            None => {
                lanes.push(Some(Arc::clone(&grid)));
                lanes.len() - 1
            }
        };
        self.remaining_total
            .fetch_add(consumers * num_shards, Ordering::AcqRel);
        self.live.fetch_add(1, Ordering::AcqRel);
        LaneFeed {
            cursor: self,
            grid,
            lane,
        }
    }

    /// `(consumer, shard)` units not yet completed across all live
    /// lanes. Units of a lane that detaches early (abort) leave the
    /// total with it.
    pub fn remaining(&self) -> usize {
        self.remaining_total.load(Ordering::Acquire)
    }

    /// Number of currently attached lanes.
    pub fn live_lanes(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }
}

/// One lane's feed handle into an [`InterleavedCursor`] — the moral
/// equivalent of an owned [`FeedCursor`], scoped to the lane's
/// lifetime. Claims and completions have exactly `FeedCursor`
/// semantics; [`abort`](LaneFeed::abort) shuts down **this lane
/// only**. Dropping the handle detaches the lane and returns any
/// unabsorbed units (an aborted feed) to the registry's books.
#[derive(Debug)]
pub struct LaneFeed<'c> {
    cursor: &'c InterleavedCursor,
    grid: Arc<Grid>,
    lane: usize,
}

impl LaneFeed<'_> {
    /// The registry slot this lane occupies while attached.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// `(consumer, shard)` units of **this lane** not yet completed.
    pub fn remaining(&self) -> usize {
        self.grid.remaining()
    }

    /// Shuts down this lane's feed: further claims return
    /// [`Claim::Done`] with units outstanding. Other lanes are
    /// untouched — see the type docs for why aborts must not cross
    /// lanes.
    pub fn abort(&self) {
        self.grid.abort();
    }

    /// `true` once [`abort`](LaneFeed::abort) was called on this lane.
    pub fn is_aborted(&self) -> bool {
        self.grid.is_aborted()
    }

    /// Claims this lane's next available unit (see [`Claim`]).
    pub fn claim(&self) -> Claim {
        self.grid.claim()
    }

    /// Marks a claimed unit of this lane as fed — identical contract
    /// (and debug assertions) to [`FeedCursor::complete`].
    pub fn complete(&self, consumer: usize, shard: usize) {
        self.grid.complete(consumer, shard);
        self.cursor.remaining_total.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Drop for LaneFeed<'_> {
    fn drop(&mut self) {
        let mut lanes = self.cursor.lanes.lock().expect("lane registry poisoned");
        lanes[self.lane] = None;
        // An aborted lane detaches with units never completed; take
        // them off the shared books so the registry total stays the
        // sum over live lanes.
        let leftover = self.grid.remaining();
        drop(lanes);
        if leftover > 0 {
            self.cursor
                .remaining_total
                .fetch_sub(leftover, Ordering::AcqRel);
        }
        self.cursor.live.fetch_sub(1, Ordering::AcqRel);
    }
}

impl<'a> SetStream<'a> {
    /// One physical scan executed on behalf of several parallel
    /// branches, exposed as a sharded zero-copy feed instead of a
    /// single-consumer iterator — the fan-out half of
    /// [`shared_pass`](SetStream::shared_pass).
    ///
    /// The accounting is identical to `shared_pass`: each participant
    /// logs one logical pass up front, the caller performs (and is
    /// responsible for counting) the single underlying physical scan,
    /// however many shards and worker threads end up consuming it.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is empty, if any participant is not a
    /// fork of the same repository, or if `shard_size` is zero.
    pub fn sharded_pass(
        &self,
        participants: &[&SetStream<'a>],
        shard_size: usize,
    ) -> ShardedPass<'a> {
        assert!(
            !participants.is_empty(),
            "a shared pass needs at least one participating branch"
        );
        self.join_shared_pass(participants);
        ShardedPass::new(self.repository(), shard_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    fn system(m: usize) -> SetSystem {
        SetSystem::from_sets(m.max(1), (0..m).map(|i| vec![i as ElemId]).collect())
    }

    #[test]
    fn shards_tile_the_repository_in_order() {
        for (m, size) in [(0, 3), (1, 3), (5, 2), (6, 2), (7, 8)] {
            let sys = system(m);
            let feed = ShardedPass::new(&sys, size);
            assert_eq!(feed.num_shards(), m.div_ceil(size));
            let ids: Vec<SetId> = (0..feed.num_shards())
                .flat_map(|s| feed.shard(s).map(|(id, _)| id))
                .collect();
            let expect: Vec<SetId> = (0..m as SetId).collect();
            assert_eq!(ids, expect, "m={m} size={size}");
            let replay: Vec<SetId> = feed.replay().map(|(id, _)| id).collect();
            assert_eq!(replay, expect);
        }
    }

    #[test]
    fn shard_items_borrow_the_repository() {
        let sys = SetSystem::from_sets(4, vec![vec![0, 1], vec![2, 3]]);
        let feed = ShardedPass::new(&sys, 1);
        let (id, elems) = feed.shard(1).next().expect("one set");
        assert_eq!((id, elems), (1, &[2u32, 3][..]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_shard_panics() {
        let sys = system(4);
        let feed = ShardedPass::new(&sys, 2);
        let _ = feed.shard(2);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_shard_size_is_rejected() {
        let sys = system(4);
        let _ = ShardedPass::new(&sys, 0);
    }

    #[test]
    fn sharded_pass_accounts_like_shared_pass() {
        let sys = system(6);
        let root = SetStream::new(&sys);
        let (a, b) = (root.fork(), root.fork());
        let feed = root.sharded_pass(&[&a, &b], 4);
        assert_eq!((a.passes(), b.passes()), (1, 1));
        assert_eq!(root.passes(), 0, "parent charged via absorb_parallel");
        assert_eq!(feed.num_shards(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one participating branch")]
    fn sharded_pass_rejects_empty_groups() {
        let sys = system(3);
        let root = SetStream::new(&sys);
        let _ = root.sharded_pass(&[], 2);
    }

    #[test]
    fn cursor_hands_each_unit_exactly_once_in_consumer_order() {
        let cursor = FeedCursor::new(3, 4);
        let mut seen: Vec<Vec<usize>> = vec![Vec::new(); 3];
        loop {
            match cursor.claim() {
                Claim::Shard { consumer, shard } => {
                    seen[consumer].push(shard);
                    cursor.complete(consumer, shard);
                }
                Claim::Retry => unreachable!("single worker never races"),
                Claim::Done => break,
            }
        }
        for shards in &seen {
            assert_eq!(shards, &[0, 1, 2, 3]);
        }
        assert_eq!(cursor.remaining(), 0);
        assert_eq!(cursor.claim(), Claim::Done);
    }

    #[test]
    fn empty_feeds_are_done_immediately() {
        assert_eq!(FeedCursor::new(0, 5).claim(), Claim::Done);
        assert_eq!(FeedCursor::new(3, 0).claim(), Claim::Done);
    }

    #[test]
    fn abort_drains_the_pool_with_units_outstanding() {
        let cursor = FeedCursor::new(2, 4);
        // A worker dies holding consumer 0 (never completes the unit).
        assert_eq!(
            cursor.claim(),
            Claim::Shard {
                consumer: 0,
                shard: 0
            }
        );
        cursor.abort();
        // Siblings see Done instead of spinning on Retry forever.
        assert_eq!(cursor.claim(), Claim::Done);
        assert!(cursor.remaining() > 0, "abort is not completion");
    }

    #[test]
    fn claimed_consumers_force_retry_until_released() {
        let cursor = FeedCursor::new(1, 2);
        let unit = cursor.claim();
        assert_eq!(
            unit,
            Claim::Shard {
                consumer: 0,
                shard: 0
            }
        );
        // The lone consumer is held, but a shard remains outstanding.
        assert_eq!(cursor.claim(), Claim::Retry);
        cursor.complete(0, 0);
        assert_eq!(
            cursor.claim(),
            Claim::Shard {
                consumer: 0,
                shard: 1
            }
        );
    }

    /// Many workers, many consumers: every consumer must still observe
    /// every shard exactly once and strictly in order.
    #[test]
    fn concurrent_workers_preserve_per_consumer_order() {
        let (consumers, shards, workers) = (5, 16, 4);
        let cursor = FeedCursor::new(consumers, shards);
        let logs: Vec<Mutex<Vec<usize>>> = (0..consumers).map(|_| Mutex::new(Vec::new())).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    match cursor.claim() {
                        Claim::Shard { consumer, shard } => {
                            logs[consumer].lock().expect("log").push(shard);
                            cursor.complete(consumer, shard);
                        }
                        Claim::Retry => std::thread::yield_now(),
                        Claim::Done => break,
                    }
                });
            }
        });
        for log in &logs {
            let log = log.lock().expect("log");
            let expect: Vec<usize> = (0..shards).collect();
            assert_eq!(*log, expect, "in order, exactly once");
        }
    }

    /// Shard-granular stealing stress across 3 lanes (shard_size=1 —
    /// every set is its own unit): a pool of workers per lane races
    /// over a shared registry, and every job must still observe every
    /// shard of **its own tenant's** repository exactly once, in
    /// repository order.
    #[test]
    fn interleaved_lanes_keep_per_lane_consumer_order() {
        let cursor = InterleavedCursor::new();
        // Three lanes of different shapes: (consumers, shards).
        let shapes = [(3usize, 17usize), (1, 29), (4, 11)];
        let feeds: Vec<LaneFeed<'_>> = shapes.iter().map(|&(c, s)| cursor.attach(c, s)).collect();
        assert_eq!(cursor.live_lanes(), 3);
        assert_eq!(
            cursor.remaining(),
            shapes.iter().map(|&(c, s)| c * s).sum::<usize>()
        );
        let logs: Vec<Vec<Mutex<Vec<usize>>>> = shapes
            .iter()
            .map(|&(c, _)| (0..c).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        std::thread::scope(|s| {
            for (lane, feed) in feeds.iter().enumerate() {
                for _ in 0..3 {
                    let logs = &logs;
                    s.spawn(move || loop {
                        match feed.claim() {
                            Claim::Shard { consumer, shard } => {
                                logs[lane][consumer].lock().expect("log").push(shard);
                                feed.complete(consumer, shard);
                            }
                            Claim::Retry => std::thread::yield_now(),
                            Claim::Done => break,
                        }
                    });
                }
            }
        });
        for (lane, &(_, shards)) in shapes.iter().enumerate() {
            for log in &logs[lane] {
                let log = log.lock().expect("log");
                let expect: Vec<usize> = (0..shards).collect();
                assert_eq!(*log, expect, "lane {lane}: in order, exactly once");
            }
        }
        assert_eq!(cursor.remaining(), 0);
        drop(feeds);
        assert_eq!(cursor.live_lanes(), 0);
    }

    /// Lanes attach and detach dynamically; slots are recycled and the
    /// registry totals track only live lanes.
    #[test]
    fn interleaved_lanes_attach_and_detach_dynamically() {
        let cursor = InterleavedCursor::new();
        let a = cursor.attach(2, 3);
        let b = cursor.attach(1, 5);
        assert_eq!((a.lane(), b.lane()), (0, 1));
        assert_eq!(cursor.remaining(), 11);
        drop(a);
        assert_eq!(cursor.live_lanes(), 1);
        assert_eq!(cursor.remaining(), 5, "a detached with all units open");
        let c = cursor.attach(1, 1);
        assert_eq!(c.lane(), 0, "detached slot is recycled");
        assert_eq!(cursor.remaining(), 6);
        drop((b, c));
        assert_eq!((cursor.live_lanes(), cursor.remaining()), (0, 0));
    }

    /// An abort is lane-scoped: the dying lane drains, its siblings
    /// keep claiming, and its unabsorbed units leave the shared total
    /// when it detaches.
    #[test]
    fn interleaved_abort_is_lane_scoped() {
        let cursor = InterleavedCursor::new();
        let sick = cursor.attach(1, 4);
        let healthy = cursor.attach(1, 2);
        assert_eq!(
            sick.claim(),
            Claim::Shard {
                consumer: 0,
                shard: 0
            }
        );
        sick.abort();
        assert_eq!(sick.claim(), Claim::Done, "aborted lane drains");
        assert!(sick.is_aborted());
        assert!(!healthy.is_aborted(), "abort does not cross lanes");
        assert_eq!(
            healthy.claim(),
            Claim::Shard {
                consumer: 0,
                shard: 0
            },
            "healthy lane keeps feeding"
        );
        healthy.complete(0, 0);
        assert_eq!(cursor.remaining(), 4 + 1);
        drop(sick);
        assert_eq!(cursor.remaining(), 1, "abort's leftovers leave with it");
    }

    /// The units a concurrent run completes are exactly the full grid.
    #[test]
    fn concurrent_workers_cover_the_grid() {
        let (consumers, shards) = (3, 9);
        let cursor = FeedCursor::new(consumers, shards);
        let done: Mutex<BTreeSet<(usize, usize)>> = Mutex::new(BTreeSet::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| loop {
                    match cursor.claim() {
                        Claim::Shard { consumer, shard } => {
                            assert!(
                                done.lock().expect("set").insert((consumer, shard)),
                                "unit handed out twice"
                            );
                            cursor.complete(consumer, shard);
                        }
                        Claim::Retry => std::thread::yield_now(),
                        Claim::Done => break,
                    }
                });
            }
        });
        assert_eq!(done.lock().expect("set").len(), consumers * shards);
    }
}
