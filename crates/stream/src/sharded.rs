//! The sharded repository feed: zero-copy shard access over one shared
//! physical scan, plus the work-stealing cursor that hands shards to a
//! pool of workers.
//!
//! [`ShardedPass`] partitions the repository into contiguous shards of
//! set ids, and any number of workers read any shard directly from the
//! repository slices ([`ShardedPass::shard`] borrows with the
//! repository lifetime, so a shard iterator is free to construct and
//! free to re-create). No scan is ever materialised into a buffer.
//!
//! [`FeedCursor`] is the scheduling half: a work-stealing cursor over
//! the `(consumer, shard)` grid for feeds where every consumer (a query
//! job in `sc_service`) must observe **every shard in repository
//! order** — the property that keeps per-query observables bit-identical
//! to a solo run. Each consumer advances through its shards strictly in
//! order with at most one shard in flight, while *which worker* carries
//! a given `(consumer, shard)` unit is decided dynamically by atomic
//! claim — so a heavy query does not pin the static chunk of queries
//! that happened to be scheduled beside it.
//!
//! Each scan owns its cursor ([`ShardedPass::cursor`]), so the claims,
//! completions and abort of one scan never touch another's: concurrent
//! scans (one per tenant lane in `sc_service`) share nothing here, and
//! a worker pool that dies aborts exactly the scan it was feeding.
//!
//! Accounting is unchanged from [`SetStream::shared_pass`]: creating a
//! sharded pass logs one logical pass per participant, and
//! [`ScanLedger::scan`](crate::ScanLedger::scan) counts one physical
//! scan per feed, no matter how many shards or workers consume it.

use crate::SetStream;
use sc_setsystem::{ElemId, SetId, SetSystem};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A zero-copy sharded view of one shared physical scan.
///
/// Created by [`SetStream::sharded_pass`] (which performs the logical
/// pass accounting for every participant, exactly like
/// [`SetStream::shared_pass`]) or
/// [`ScanLedger::scan`](crate::ScanLedger::scan) (which
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
/// has shards left — the tail of a scan), `Done` terminates. The
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

impl FeedCursor {
    /// A cursor over `consumers × num_shards` units, all unclaimed.
    pub fn new(consumers: usize, num_shards: usize) -> Self {
        Self {
            claimed: (0..consumers).map(|_| AtomicBool::new(false)).collect(),
            next: (0..consumers).map(|_| AtomicUsize::new(0)).collect(),
            remaining: AtomicUsize::new(consumers * num_shards),
            aborted: AtomicBool::new(false),
            num_shards,
        }
    }

    /// `(consumer, shard)` units not yet completed.
    pub fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
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
        self.aborted.store(true, Ordering::Release);
    }

    /// Claims the next available unit of work (see [`Claim`]).
    pub fn claim(&self) -> Claim {
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

    /// Marks a claimed unit as fed, releasing the consumer for the next
    /// shard (possibly to another worker).
    ///
    /// # Panics
    ///
    /// Debug builds assert the unit was the one actually claimed: the
    /// consumer must be held, `shard` must be its next shard, and the
    /// feed must have had work remaining.
    pub fn complete(&self, consumer: usize, shard: usize) {
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
