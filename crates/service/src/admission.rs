//! Pipeline stage 1 — **admission**: intake from the submission
//! channel, cache probe, coalesce-or-build disposition.
//!
//! Every submission is disposed of exactly once, through
//! [`Service::admit_or_answer`]: answered from the outcome cache in
//! zero scans, attached to an identical in-flight job as a follower
//! ([`ServiceConfig::coalesce`](crate::ServiceConfig)), or built into a
//! fresh [`Inflight`] job the scheduler owns until retirement. The
//! [`Intake`] wraps the channel with the two pieces of state admission
//! threads through the pipeline: a *backlog* of query submissions
//! already pulled but deferred (a full inflight window, or a whole
//! batch submitted up front), and the pending [`ReloadRequest`] that
//! ends the current repository generation — once one is captured, no
//! further channel pulls happen until the scheduler swaps generations,
//! so every query keeps running against the repository it was
//! submitted under.

use crate::job::{make_job, CoverJob};
use crate::metrics::ServiceMetrics;
use crate::query::{QueryOutcome, QuerySpec};
use crate::service::Service;
use crate::tenants::{LedgerEvent, RepositoryGeneration};
use sc_setsystem::SetSystem;
use sc_stream::SetStream;
use sc_telemetry::EventKind;
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SendError, SyncSender, TryRecvError};
use std::time::Instant;

/// What clients push down the submission channel.
pub(crate) enum Submission {
    /// A cover query to answer.
    Query(QuerySubmission),
    /// A repository hot swap
    /// ([`ServiceHandle::reload`](crate::ServiceHandle::reload)).
    Reload(ReloadRequest),
}

/// One submitted query, as carried by the channel.
pub(crate) struct QuerySubmission {
    pub id: u64,
    pub spec: QuerySpec,
    pub submitted: Instant,
    pub reply: ReplyTx<QueryOutcome>,
}

/// A pending repository swap: the next generation's content plus the
/// channel the new generation id is announced on once in-flight work
/// drained.
pub(crate) struct ReloadRequest {
    pub system: SetSystem,
    pub reply: ReplyTx<u64>,
}

/// The sending half of one ticket: the ticket's channel plus the
/// optional wake channel of the front door that holds the ticket
/// ([`ServiceHandle::with_waker`](crate::ServiceHandle::with_waker)).
/// A delivery puts the value in the ticket's channel *first* and only
/// then signals the wake, so a woken poller always finds the value.
/// The wake channel holds one token, so wakes that pile up while the
/// poller is busy merge into one.
pub(crate) struct ReplyTx<T> {
    tx: SyncSender<T>,
    wake: Option<SyncSender<()>>,
}

impl<T> ReplyTx<T> {
    pub fn new(tx: SyncSender<T>, wake: Option<SyncSender<()>>) -> Self {
        Self { tx, wake }
    }

    /// Delivers `value`, then wakes the front door. A dropped ticket
    /// wakes nobody: there is nothing left to flush.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.tx.send(value)?;
        if let Some(wake) = &self.wake {
            let _ = wake.try_send(());
        }
        Ok(())
    }
}

/// One admitted query inside the epoch loop.
pub(crate) struct Inflight<'a> {
    pub id: u64,
    pub spec: QuerySpec,
    pub job: Box<dyn CoverJob<'a> + 'a>,
    pub submitted: Instant,
    pub admitted: Instant,
    /// Where retirement delivers the outcome (the submitter's ticket).
    pub reply: ReplyTx<QueryOutcome>,
    /// Identical queries coalesced onto this job
    /// ([`ServiceConfig::coalesce`](crate::ServiceConfig)); retirement
    /// fans a reply out per follower.
    pub followers: Vec<Follower>,
}

/// A query riding an identical in-flight job instead of running.
pub(crate) struct Follower {
    pub id: u64,
    pub submitted: Instant,
    /// When the query attached to the job (its queue wait ends here).
    pub attached: Instant,
    /// Where retirement delivers the follower's fanned outcome.
    pub reply: ReplyTx<QueryOutcome>,
}

/// How one submission was disposed of by
/// [`Service::admit_or_answer`].
pub(crate) enum Admitted<'a> {
    /// A fresh job the caller must admit into the scan epochs.
    Job(Inflight<'a>),
    /// Attached to an identical in-flight job as a follower; that
    /// job's retirement answers it.
    Coalesced,
    /// Answered immediately from the outcome cache.
    Answered,
}

/// A lane's intake: the submission channel plus the deferred-work
/// state admission threads through the pipeline stages.
pub(crate) struct Intake {
    rx: Receiver<Submission>,
    /// `false` once every [`ServiceHandle`](crate::ServiceHandle)
    /// clone was dropped — the channel yields nothing further.
    pub open: bool,
    /// A captured reload: ends the current generation. While set, no
    /// further channel pulls happen (submissions behind the reload wait
    /// for the next generation), but the backlog — pulled *before* the
    /// reload — still drains on the current one.
    pub reload: Option<ReloadRequest>,
    /// Query submissions waiting for an epoch boundary: deferred by a
    /// full inflight window, or a batch submitted up front. Consumed
    /// before the channel so arrival order is preserved, and only at
    /// boundaries — the mid-scan drain reads the channel alone.
    pub backlog: VecDeque<QuerySubmission>,
}

impl Intake {
    pub fn new(rx: Receiver<Submission>) -> Self {
        Self {
            rx,
            open: true,
            reload: None,
            backlog: VecDeque::new(),
        }
    }

    /// A closed intake holding `batch` in its backlog: every query is
    /// already submitted and nothing further can arrive, so each one
    /// is admitted at an epoch boundary, in order.
    pub fn prefilled(batch: VecDeque<QuerySubmission>) -> Self {
        let (_, rx) = mpsc::sync_channel(0);
        Self {
            open: false,
            backlog: batch,
            ..Self::new(rx)
        }
    }

    /// `true` while the channel may still yield submissions for the
    /// *current* generation (open, and no reload pending).
    pub fn draining_rx(&self) -> bool {
        self.open && self.reload.is_none()
    }

    /// Routes one received submission: queries come back, a reload is
    /// captured into [`reload`](Intake::reload) (ending channel pulls).
    fn route(&mut self, sub: Submission) -> Option<QuerySubmission> {
        match sub {
            Submission::Query(q) => Some(q),
            Submission::Reload(r) => {
                self.reload = Some(r);
                None
            }
        }
    }

    /// Takes the next query off the *channel* without blocking, never
    /// from the backlog. `None` when nothing is immediately available
    /// (or the channel closed / a reload was captured).
    fn try_channel(&mut self) -> Option<QuerySubmission> {
        if !self.draining_rx() {
            return None;
        }
        match self.rx.try_recv() {
            Ok(sub) => self.route(sub),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                self.open = false;
                None
            }
        }
    }

    /// Takes the next query off the *channel*, blocking while it can
    /// still yield one. `None` when the channel closed or a reload was
    /// captured.
    fn recv_channel(&mut self) -> Option<QuerySubmission> {
        if !self.draining_rx() {
            return None;
        }
        match self.rx.recv() {
            Ok(sub) => self.route(sub),
            Err(_) => {
                self.open = false;
                None
            }
        }
    }

    /// Pulls the next query without blocking: backlog first, then the
    /// channel.
    pub fn pull_nonblocking(&mut self) -> Option<QuerySubmission> {
        self.backlog.pop_front().or_else(|| self.try_channel())
    }

    /// Pulls the next query, backlog first, then blocking on the
    /// channel (an idle scheduler waiting for work).
    pub fn pull_blocking(&mut self) -> Option<QuerySubmission> {
        self.backlog.pop_front().or_else(|| self.recv_channel())
    }

    /// Pulls the next query from the *channel only*, blocking until
    /// `deadline` at most — the admission-window wait. `None` on
    /// timeout, channel close, or a captured reload (the caller
    /// distinguishes timeout by the clock). The backlog is left
    /// untouched: its entries wait for the next boundary, so only a
    /// genuinely new arrival can release the window.
    pub fn pull_channel_deadline(&mut self, deadline: Instant) -> Option<QuerySubmission> {
        if !self.draining_rx() {
            return None;
        }
        match self
            .rx
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            Ok(sub) => self.route(sub),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                self.open = false;
                None
            }
        }
    }

    /// Drains arrivals into `pending` while a scan's fan-out runs — the
    /// non-blocking accept path, a pure `try_recv` drain between the
    /// lane thread's claims. It reads the channel only: a backlog
    /// entry waits for the next boundary, where it is admitted ahead
    /// of anything newer (a deferred query is never re-probed once per
    /// epoch it waits, and a batch keeps its boundary-only admission).
    /// Stops on an empty channel, on close/reload, and once `pending`
    /// and the backlog together hold `limit` queries — so a lane that
    /// falls behind leaves the rest in the bounded channel, where they
    /// push back on submitters, instead of moving them to the
    /// unbounded backlog.
    pub fn poll_into(&mut self, pending: &mut Vec<PendingArrival>, limit: usize) {
        while pending.len() + self.backlog.len() < limit {
            let Some(sub) = self.try_channel() else {
                return;
            };
            pending.push(PendingArrival {
                drained: Instant::now(),
                sub,
            });
        }
    }
}

/// A query that arrived while a scan's fan-out was running, committed
/// to that scan and waiting to be spliced at its boundary
/// ([`alignment::splice_pending`](crate::alignment::splice_pending)).
pub(crate) struct PendingArrival {
    pub sub: QuerySubmission,
    /// When the scheduler accepted it into the in-flight scan — the
    /// end of its queue wait (the scan it will observe, via the
    /// boundary replay, is already running on its behalf).
    pub drained: Instant,
}

impl Service {
    /// Attaches a query to an identical in-flight job as a follower
    /// (when [`ServiceConfig::coalesce`](crate::ServiceConfig) is on
    /// and such a job exists); `attached` ends its queue wait. A
    /// coalesced query is answered by that job's retirement; without
    /// a leader the submission comes back to become a job of its own.
    /// The cache is consulted *before* this (a retired answer in zero
    /// scans beats waiting for an in-flight job), so coalescing only
    /// ever sees cache misses.
    pub(crate) fn try_coalesce(
        &self,
        gen: &RepositoryGeneration,
        sub: QuerySubmission,
        attached: Instant,
        inflight: &mut [Inflight<'_>],
    ) -> Result<(), QuerySubmission> {
        if !self.config().coalesce {
            return Err(sub);
        }
        let Some(leader) = inflight.iter_mut().find(|fl| fl.spec == sub.spec) else {
            return Err(sub);
        };
        debug_assert_eq!(
            leader.spec.to_string(),
            sub.spec.to_string(),
            "coalesce keys must agree on the canonical spec"
        );
        gen.tenant.counters().bump(LedgerEvent::Coalesced);
        sc_telemetry::event(EventKind::Coalesced, sub.id, gen.id, 0, 0);
        leader.followers.push(Follower {
            id: sub.id,
            submitted: sub.submitted,
            attached,
            reply: sub.reply,
        });
        Ok(())
    }

    /// Answers one submission from the cache (delivering the outcome
    /// immediately), coalesces it onto an identical in-flight job, or
    /// builds its job; only the last case hands work back to the
    /// caller. `at` is the admission instant recorded for the query —
    /// "now" at an epoch boundary, the drain instant for an arrival
    /// committed to an in-flight scan.
    pub(crate) fn admit_or_answer<'g>(
        &self,
        gen: &'g RepositoryGeneration,
        sub: QuerySubmission,
        root: &SetStream<'g>,
        inflight: &mut [Inflight<'g>],
        metrics: &mut ServiceMetrics,
        at: Instant,
    ) -> Admitted<'g> {
        let Err(sub) = self.answer_from_cache(gen, sub, metrics) else {
            return Admitted::Answered;
        };
        let Err(sub) = self.try_coalesce(gen, sub, at, inflight) else {
            return Admitted::Coalesced;
        };
        self.count_job(gen);
        Admitted::Job(Inflight {
            id: sub.id,
            spec: sub.spec,
            job: make_job(&sub.spec, gen, root),
            submitted: sub.submitted,
            admitted: at,
            reply: sub.reply,
            followers: Vec::new(),
        })
    }

    /// Disposes of one submission that found the inflight window full:
    /// a duplicate of an in-flight leader still answers — from the
    /// cache first (a *shared* cache can hold a retired answer even
    /// while a twin job is in flight, and zero scans beats waiting on
    /// it), else by coalescing onto the leader. Returns `Err(sub)`
    /// when there is no leader (the submission must wait for a slot);
    /// the side-effecting cache lookup only runs when a leader
    /// guarantees disposal either way, so a deferred submission is
    /// never counted as a miss twice. `Ok(true)` means the query
    /// coalesced (the window's company arrived).
    pub(crate) fn dispose_past_full_window(
        &self,
        gen: &RepositoryGeneration,
        sub: QuerySubmission,
        inflight: &mut [Inflight<'_>],
        metrics: &mut ServiceMetrics,
        attached: Instant,
    ) -> Result<bool, QuerySubmission> {
        let has_leader = self.config().coalesce && inflight.iter().any(|fl| fl.spec == sub.spec);
        if !has_leader {
            return Err(sub);
        }
        let Err(sub) = self.answer_from_cache(gen, sub, metrics) else {
            return Ok(false);
        };
        let coalesced = self.try_coalesce(gen, sub, attached, inflight);
        debug_assert!(coalesced.is_ok(), "the leader cannot vanish mid-disposal");
        Ok(true)
    }

    /// Answers the cache hits among the arrivals drained at indices
    /// `from..` right away — a hit needs neither an inflight slot nor
    /// the scan, so making it wait for the splice at the scan boundary
    /// would add an epoch of latency for nothing. Each arrival is
    /// probed exactly once here; misses stay pending (the splice
    /// probes once more at the boundary, which can even catch an entry
    /// a twin job populated in the meantime; that second probe is a
    /// lookup only, never a ledger count).
    pub(crate) fn answer_drained_hits(
        &self,
        gen: &RepositoryGeneration,
        pending: &mut Vec<PendingArrival>,
        from: usize,
        metrics: &mut ServiceMetrics,
    ) {
        if !self.cache_enabled() || from >= pending.len() {
            return;
        }
        for PendingArrival { sub, drained } in pending.split_off(from) {
            if let Err(sub) = self.answer_from_cache(gen, sub, metrics) {
                pending.push(PendingArrival { sub, drained });
            }
        }
    }

    /// Answers `sub` from the outcome cache: the stored solo
    /// observables (bit-identical to the run that populated the entry)
    /// under the submission's own id and timing, in zero physical
    /// scans, delivered at once and recorded in the run's latency
    /// histograms and the tenant's ledger. A miss hands `sub` back.
    fn answer_from_cache(
        &self,
        gen: &RepositoryGeneration,
        sub: QuerySubmission,
        metrics: &mut ServiceMetrics,
    ) -> Result<(), QuerySubmission> {
        let Some(answer) = self.cache_lookup(gen, &sub.spec) else {
            return Err(sub);
        };
        let outcome = QueryOutcome {
            id: sub.id,
            spec: sub.spec,
            cover: answer.cover,
            covered: answer.covered,
            required: answer.required,
            logical_passes: answer.logical_passes,
            space_words: answer.space_words,
            epochs_joined: 0,
            queue_wait: sub.submitted.elapsed(),
            latency: sub.submitted.elapsed(),
            cached: true,
            coalesced: false,
            generation: gen.id,
            tenant: gen.tenant.name_handle(),
        };
        metrics.queue_wait.record(outcome.queue_wait);
        metrics.latency.record(outcome.latency);
        gen.tenant.counters().bump(LedgerEvent::CacheHit);
        gen.tenant.counters().bump(LedgerEvent::Completed);
        sc_telemetry::event(EventKind::CacheHit, outcome.id, outcome.generation, 0, 0);
        // The client may have dropped its ticket; that is fine.
        let _ = sub.reply.send(outcome);
        Ok(())
    }

    /// Counts a fresh job (and, with the cache on, the miss that made
    /// it) in the tenant's ledger.
    fn count_job(&self, gen: &RepositoryGeneration) {
        if self.cache_enabled() {
            gen.tenant.counters().bump(LedgerEvent::CacheMiss);
        }
        gen.tenant.counters().bump(LedgerEvent::Job);
    }

    /// Cache lookup under a generation's repository identity (the
    /// owning tenant's cache partition, keyed by fingerprint, plus the
    /// dimension cross-check).
    fn cache_lookup(
        &self,
        gen: &RepositoryGeneration,
        spec: &QuerySpec,
    ) -> Option<crate::cache::CachedAnswer> {
        self.cache().lookup(
            gen.tenant.id(),
            gen.fingerprint,
            gen.system.universe(),
            gen.system.num_sets(),
            spec,
        )
    }

    /// `true` when this service actually caches outcomes — a disabled
    /// cache neither stores answers nor counts traffic
    /// ([`ServiceMetrics::cache_misses`] stays zero).
    pub(crate) fn cache_enabled(&self) -> bool {
        self.cache().capacity() > 0
    }
}

#[cfg(test)]
mod tests {
    //! Every place that answers a query delivers the value before it
    //! wakes the front door, so a woken poller always finds a resolved
    //! ticket.

    use super::*;
    use crate::service::ServiceBuilder;
    use sc_setsystem::gen;
    use std::sync::mpsc;
    use std::time::Duration;

    fn iter(seed: u64) -> QuerySpec {
        QuerySpec::IterCover { delta: 0.5, seed }
    }

    /// Two tenants, coalescing on, a cache; the default tenant's jobs
    /// run for several passes, so a duplicate submitted right behind
    /// its leader finds it still in flight.
    fn service() -> Service {
        ServiceBuilder::new()
            .tenant("default", gen::planted(1024, 2048, 16, 3).system)
            .tenant("b", gen::planted(64, 128, 4, 5).system)
            .cache_capacity(64)
            .coalesce(true)
            .build()
    }

    /// Waits for the wake of the one delivery in flight, then requires
    /// its answer to be in place already and no second wake.
    fn woken<T>(wake: &mpsc::Receiver<()>, answer: impl FnOnce() -> Option<T>) -> T {
        wake.recv_timeout(Duration::from_secs(10))
            .expect("the delivery wakes the front door");
        let value = answer().expect("the answer lands before the wake");
        assert!(wake.try_recv().is_err(), "one delivery, one wake");
        value
    }

    #[test]
    fn a_reply_wakes_only_once_its_value_is_in_the_channel() {
        // A rendezvous channel holds the sender inside `send` until the
        // value is taken, so a wake sent ahead of the value would show.
        let (tx, rx) = mpsc::sync_channel(0);
        let (wake_tx, wake) = mpsc::sync_channel(1);
        let reply = ReplyTx::new(tx, Some(wake_tx));
        // Assert only after the scope: a panic inside it would wait
        // forever on the sender still parked in the rendezvous.
        let (early, value, woke) = std::thread::scope(|s| {
            s.spawn(move || reply.send(7u64).expect("delivered"));
            let early = wake.recv_timeout(Duration::from_millis(100)).is_ok();
            let value = rx.recv().expect("value");
            let woke = early || wake.recv_timeout(Duration::from_secs(10)).is_ok();
            (early, value, woke)
        });
        assert!(!early, "no wake before the value is delivered");
        assert_eq!(value, 7);
        assert!(woke, "the delivery wakes");
        // A dropped ticket wakes nobody.
        let (tx, rx) = mpsc::sync_channel(1);
        let (wake_tx, wake) = mpsc::sync_channel(1);
        drop(rx);
        assert!(ReplyTx::new(tx, Some(wake_tx)).send(7u64).is_err());
        assert!(wake.try_recv().is_err());
    }

    #[test]
    fn scheduler_deliveries_wake_after_the_answer_is_in_place() {
        let service = service();
        let (wake_tx, wake) = mpsc::sync_channel(1);
        service.serve(|handle| {
            let h = handle.with_waker(wake_tx);
            // The leader's reply in retirement.
            let t = h.submit(iter(1)).expect("submit");
            let first = woken(&wake, || t.try_wait()).expect("answered");
            assert!(!first.cached && !first.coalesced);
            // An idle lane pulls the repeat at the boundary: the cache
            // hit in `admit_or_answer`.
            let t = h.submit(iter(1)).expect("submit");
            assert!(woken(&wake, || t.try_wait()).expect("answered").cached);
            // A follower's reply in retirement. The leader's ticket is
            // dropped, so the follower's delivery is the only wake.
            drop(h.submit(iter(2)).expect("submit"));
            let t = h.submit(iter(2)).expect("submit");
            assert!(woken(&wake, || t.try_wait()).expect("answered").coalesced);
            // A query sent through a `with_tenant` handle.
            let b = h.with_tenant("b").expect("tenant b");
            let t = b.submit(iter(1)).expect("submit");
            assert!(!woken(&wake, || t.try_wait()).expect("answered").cached);
            // The reload acknowledgement.
            let t = h
                .reload(gen::planted(64, 128, 4, 9).system)
                .expect("reload");
            woken(&wake, || t.try_wait()).expect("swapped");
        });
    }

    /// The two cache-hit sites a lane reaches only while a scan is in
    /// flight, called directly: no outside timing can steer an arrival
    /// into them.
    #[test]
    fn mid_scan_cache_hits_wake_after_the_answer_is_in_place() {
        let service = service();
        let (outcomes, _) = service.run_batch(&[iter(1)]);
        assert!(!outcomes[0].cached, "the batch fills the cache");
        let gen = service.generation();
        let root = SetStream::new(&gen.system);
        let mut metrics = ServiceMetrics::default();
        let (wake_tx, wake) = mpsc::sync_channel(1);
        let submission = |id| {
            let (tx, rx) = mpsc::sync_channel(1);
            let sub = QuerySubmission {
                id,
                spec: iter(1),
                submitted: Instant::now(),
                reply: ReplyTx::new(tx, Some(wake_tx.clone())),
            };
            (sub, rx)
        };

        let (sub, rx) = submission(10);
        let mut pending = vec![PendingArrival {
            sub,
            drained: Instant::now(),
        }];
        service.answer_drained_hits(&gen, &mut pending, 0, &mut metrics);
        assert!(pending.is_empty(), "the hit needs no splice");
        assert!(woken(&wake, || rx.try_recv().ok()).cached);

        let (sub, rx) = submission(11);
        // The leader is never retired here, so its reply never fires.
        let (leader, _leader_rx) = submission(0);
        let mut inflight = vec![Inflight {
            id: leader.id,
            spec: leader.spec,
            job: make_job(&leader.spec, &gen, &root),
            submitted: leader.submitted,
            admitted: Instant::now(),
            reply: leader.reply,
            followers: Vec::new(),
        }];
        let disposed = service.dispose_past_full_window(
            &gen,
            sub,
            &mut inflight,
            &mut metrics,
            Instant::now(),
        );
        assert!(matches!(disposed, Ok(false)), "answered from the cache");
        assert!(woken(&wake, || rx.try_recv().ok()).cached);
    }

    /// A submission whose ticket is dropped: the drain test looks only
    /// at where submissions sit, never at replies.
    fn unanswered(id: u64) -> QuerySubmission {
        let (tx, _) = mpsc::sync_channel(1);
        QuerySubmission {
            id,
            spec: iter(id),
            submitted: Instant::now(),
            reply: ReplyTx::new(tx, None),
        }
    }

    #[test]
    fn the_mid_scan_drain_reads_only_the_channel() {
        let (tx, rx) = mpsc::sync_channel(4);
        let mut intake = Intake::new(rx);
        intake.backlog.push_back(unanswered(1));
        tx.send(Submission::Query(unanswered(2))).expect("open");
        let mut pending = Vec::new();
        intake.poll_into(&mut pending, 8);
        let drained: Vec<u64> = pending.iter().map(|a| a.sub.id).collect();
        assert_eq!(drained, [2], "only the channel entry is drained");
        let waiting: Vec<u64> = intake.backlog.iter().map(|s| s.id).collect();
        assert_eq!(waiting, [1], "the deferred entry stays in the backlog");
        // The next boundary still takes the backlog first.
        assert_eq!(intake.pull_nonblocking().map(|s| s.id), Some(1));
        assert!(intake.open, "the channel is still open");
    }

    #[test]
    fn a_full_backlog_stops_the_mid_scan_drain() {
        let (tx, rx) = mpsc::sync_channel(4);
        let mut intake = Intake::new(rx);
        intake.backlog.extend((1..=3).map(unanswered));
        tx.send(Submission::Query(unanswered(4))).expect("open");
        let mut pending = Vec::new();
        intake.poll_into(&mut pending, 3);
        assert!(pending.is_empty(), "the backlog already holds `limit`");
        intake.backlog.pop_front();
        intake.poll_into(&mut pending, 3);
        let drained: Vec<u64> = pending.iter().map(|a| a.sub.id).collect();
        assert_eq!(drained, [4], "a freed place takes one channel entry");
    }
}
