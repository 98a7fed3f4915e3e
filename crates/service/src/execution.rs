//! Pipeline stage 3 — **execution**: the sharded work-stealing fan-out
//! of one shared physical scan across the worker pool, scan boundary
//! included.
//!
//! The feed ([`sc_stream::ShardedPass`]) exposes the repository as
//! zero-copy contiguous shards. Every scan owns one
//! [`sc_stream::FeedCursor`] over its `(job, shard)` grid, which hands
//! units to whichever of the scan's workers is free with every job
//! observing every shard in repository order — so per-query state
//! evolves exactly as in a solo run while a heavy query does not pin a
//! static chunk of the pool. Each absorbed shard holds one [`FairGate`]
//! unit ([`ShardInterleave`]). Tenant lanes advance their scans
//! concurrently, each on its own threads over its own cursor; the
//! gate's capacity and deficit round robin, charged per `(tenant,
//! shard)` unit, are what they share. A batch run is a lane like any
//! other, on a one-lane gate whose solo fast path skips arbitration.
//!
//! The worker that absorbs a job's last shard runs that job's
//! `end_scan` on the spot, outside its gate unit, so the scan boundary
//! of disjoint jobs runs in parallel instead of serially after the
//! fan-out.
//!
//! The lane thread is one of the workers. Between its claims it runs
//! the lane's drain, which moves channel arrivals into the
//! pending-arrival buffer (the **non-blocking accept** half of the
//! pipeline — see [`alignment`](crate::alignment) for the splice that
//! happens at the scan boundary).

use crate::admission::Inflight;
use crate::fairness::FairGate;
use crate::tenants::{LedgerEvent, TenantCounters};
use sc_stream::{Claim, FeedCursor, ShardedPass};
use std::sync::Mutex;

/// What the fan-out needs to meter this lane's scan against its
/// neighbours': the machine-wide [`FairGate`] metering `(tenant,
/// shard)` units, and the tenant's ledger, which counts every granted
/// unit.
pub(crate) struct ShardInterleave<'x> {
    pub gate: &'x FairGate,
    pub lane: usize,
    pub counters: &'x TenantCounters,
}

/// Runs one scan's fan-out to completion, scan boundary included: the
/// scan's own [`FeedCursor`] hands out its `(job, shard)` units, and
/// every absorbed shard holds one RAII unit from the machine-wide gate
/// — other lanes run their own scans on their own threads meanwhile,
/// with DRR deciding whose units go next. Claim before acquire: a
/// worker blocked on the gate already holds its consumer's claim, so
/// its siblings steal other consumers instead of racing it for this
/// one, and no grant is ever wasted on a worker with nothing to feed.
/// The worker that absorbs a job's last shard releases the unit and
/// then runs the job's `end_scan`.
///
/// The calling lane thread is one of the `workers` and runs the same
/// claim loop as the `workers − 1` scoped threads beside it, calling
/// `drain` (the lane's arrival drain) between its claims. Every
/// granted unit is counted in the tenant's ledger as a shard grant (a
/// dying worker propagates its panic instead of returning).
///
/// Every job sees every shard of its own tenant's repository exactly
/// once, in order — [`FeedCursor`]'s invariants, which is what keeps
/// per-query observables bit-identical to a solo run.
pub(crate) fn fan_out<'g>(
    feed: &ShardedPass<'g>,
    inflight: &mut [Inflight<'g>],
    workers: usize,
    drain: &mut dyn FnMut(),
    il: &ShardInterleave<'_>,
) {
    let shards = feed.num_shards();
    if shards == 0 {
        // An empty repository has no last shard to end the scan on.
        for fl in inflight.iter_mut() {
            fl.job.end_scan();
        }
        return;
    }
    let workers = workers.min(inflight.len());
    let cursor = feed.cursor(inflight.len());
    let slots: Vec<Mutex<&mut Inflight<'g>>> = inflight.iter_mut().map(Mutex::new).collect();
    /// Aborts the scan's cursor if the owning worker unwinds mid-unit:
    /// its consumer would stay claimed forever, and siblings would
    /// spin on `Retry` instead of letting the scope join and propagate
    /// the panic. The cursor is this scan's own, so no other lane's
    /// scan is touched.
    struct AbortOnUnwind<'c>(&'c FeedCursor);
    impl Drop for AbortOnUnwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.abort();
            }
        }
    }
    let work = |between_units: &mut dyn FnMut()| {
        let _guard = AbortOnUnwind(&cursor);
        loop {
            match cursor.claim() {
                Claim::Shard { consumer, shard } => {
                    let unit = il.gate.acquire_unit(il.lane);
                    let mut fl = slots[consumer].lock().expect("job slot poisoned");
                    fl.job.absorb_shard(&mut feed.shard(shard));
                    drop(unit);
                    il.counters.bump(LedgerEvent::ShardGrant);
                    if shard + 1 == shards {
                        fl.job.end_scan();
                    }
                    drop(fl);
                    cursor.complete(consumer, shard);
                }
                Claim::Retry => std::thread::yield_now(),
                Claim::Done => break,
            }
            between_units();
        }
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(|| work(&mut || {}));
        }
        work(drain);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::ReplyTx;
    use crate::job::{CoverJob, JobResult};
    use crate::query::QuerySpec;
    use crate::tenants::TenantMeta;
    use sc_setsystem::{ElemId, SetId, SetSystem};
    use sc_stream::SetStream;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// Shards absorbed and scan boundaries entered by one stub job.
    #[derive(Default)]
    struct Tally {
        absorbed: AtomicUsize,
        ended: AtomicUsize,
    }

    /// What the stub jobs of both lanes wait on.
    #[derive(Default)]
    struct Signals {
        /// The faulty lane's own thread is holding an absorb.
        lane_holding: AtomicBool,
        /// The worker whose `end_scan` panicked has unwound and exited,
        /// so its abort guard has run.
        worker_exited: AtomicBool,
    }

    /// Sets [`Signals::worker_exited`] from a thread-local destructor, which
    /// runs only once the panicking worker has finished unwinding.
    struct OnWorkerExit(Arc<Signals>);

    impl Drop for OnWorkerExit {
        fn drop(&mut self) {
            self.0.worker_exited.store(true, Ordering::Release);
        }
    }

    thread_local! {
        static ON_EXIT: std::cell::RefCell<Option<OnWorkerExit>> =
            const { std::cell::RefCell::new(None) };
    }

    /// Waits (bounded, so a broken fan-out fails instead of hanging)
    /// until `flag` is set.
    fn wait_for(flag: &AtomicBool) {
        let t0 = Instant::now();
        while !flag.load(Ordering::Acquire) && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A job whose absorbs wait on [`Signals`] and whose `end_scan` can
    /// panic.
    struct StubJob {
        tally: Arc<Tally>,
        signals: Arc<Signals>,
        lane_thread: ThreadId,
        /// On the lane thread, holds its absorb until the panicking
        /// worker exited; elsewhere, absorbs once the lane thread holds
        /// and panics in `end_scan`. A healthy job holds every absorb
        /// until that exit and never panics itself.
        faulty: bool,
    }

    impl<'a> CoverJob<'a> for StubJob {
        fn wants_scan(&self) -> bool {
            true
        }
        fn next_pass(&self) -> usize {
            1
        }
        fn begin_scan(&mut self) {}
        fn participants(&self) -> Vec<&SetStream<'a>> {
            Vec::new()
        }
        fn absorb_shard(&mut self, items: &mut dyn Iterator<Item = (SetId, &'a [ElemId])>) {
            items.for_each(drop);
            let on_lane = std::thread::current().id() == self.lane_thread;
            if self.faulty && !on_lane {
                wait_for(&self.signals.lane_holding);
            } else {
                if self.faulty {
                    self.signals.lane_holding.store(true, Ordering::Release);
                }
                wait_for(&self.signals.worker_exited);
            }
            self.tally.absorbed.fetch_add(1, Ordering::AcqRel);
        }
        fn end_scan(&mut self) {
            self.tally.ended.fetch_add(1, Ordering::AcqRel);
            if self.faulty && std::thread::current().id() != self.lane_thread {
                let signal = OnWorkerExit(Arc::clone(&self.signals));
                ON_EXIT.with(|slot| *slot.borrow_mut() = Some(signal));
                panic!("injected end_scan panic on a spawned worker");
            }
        }
        fn finish(self: Box<Self>) -> JobResult {
            unreachable!("fan_out never finishes a job")
        }
    }

    fn lane_jobs<'a>(
        n: usize,
        signals: &Arc<Signals>,
        lane_thread: ThreadId,
        faulty: bool,
    ) -> (Vec<Inflight<'a>>, Vec<Arc<Tally>>) {
        let tallies: Vec<Arc<Tally>> = (0..n).map(|_| Arc::default()).collect();
        let jobs = tallies
            .iter()
            .enumerate()
            .map(|(i, tally)| {
                let now = Instant::now();
                let job = StubJob {
                    tally: Arc::clone(tally),
                    signals: Arc::clone(signals),
                    lane_thread,
                    faulty,
                };
                Inflight {
                    id: i as u64,
                    spec: QuerySpec::GreedyBaseline,
                    job: Box::new(job),
                    submitted: now,
                    admitted: now,
                    // Never retired here: nothing is ever sent.
                    reply: ReplyTx::new(mpsc::sync_channel(1).0, None),
                    followers: Vec::new(),
                }
            })
            .collect();
        (jobs, tallies)
    }

    #[test]
    fn a_boundary_panic_on_a_spawned_worker_aborts_only_its_lane() {
        // Two sets at one set per shard: every job has two shards.
        let system = SetSystem::from_sets(2, vec![vec![0], vec![1]]);
        let root = SetStream::new(&system);
        let fork = root.fork();
        let feed = root.sharded_pass(&[&fork], 1);
        assert_eq!(feed.num_shards(), 2);
        let gate = FairGate::new(2, 1, 4);
        let meta = TenantMeta::new(0, "execution_panic_probe", 1);
        let healthy_meta = TenantMeta::new(1, "execution_healthy_lane", 1);
        let signals = Arc::new(Signals::default());
        let healthy_entered = AtomicBool::new(false);
        let healthy_tallies = std::thread::scope(|s| {
            // Lane 1 enters the gate first; its absorbs hold until lane
            // 0's panicking worker has exited, so it is mid-scan
            // throughout.
            let healthy = s.spawn(|| {
                let me = std::thread::current().id();
                let (mut jobs, tallies) = lane_jobs(2, &signals, me, false);
                let il = ShardInterleave {
                    gate: &gate,
                    lane: 1,
                    counters: healthy_meta.counters(),
                };
                let _session = gate.enter(1);
                healthy_entered.store(true, Ordering::Release);
                fan_out(&feed, &mut jobs, 2, &mut || {}, &il);
                tallies
            });
            wait_for(&healthy_entered);
            // Lane 0: the lane thread holds its first absorb until the
            // spawned worker has fed the other job both shards, panicked
            // in that job's `end_scan`, and exited; the spawned worker
            // starts only once the lane thread holds, so neither can
            // take both jobs. Without the abort, the lane thread would
            // spin on `Retry` for the dead worker's claimed job.
            let me = std::thread::current().id();
            let (mut jobs, tallies) = lane_jobs(2, &signals, me, true);
            let il = ShardInterleave {
                gate: &gate,
                lane: 0,
                counters: meta.counters(),
            };
            let outcome = {
                let _session = gate.enter(0);
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fan_out(&feed, &mut jobs, 2, &mut || {}, &il)
                }))
            };
            assert!(outcome.is_err(), "the boundary panic must propagate");
            assert!(
                signals.worker_exited.load(Ordering::Acquire),
                "the panic came from end_scan"
            );
            let mut absorbed: Vec<usize> = tallies
                .iter()
                .map(|t| t.absorbed.load(Ordering::Acquire))
                .collect();
            absorbed.sort_unstable();
            // The lane thread finished its held unit, then found its
            // scan's cursor aborted instead of claiming the job's
            // second shard.
            assert_eq!(absorbed, [1, 2], "the panicking lane's feed was aborted");
            healthy.join().expect("the healthy lane must not panic")
        });
        assert_eq!(
            healthy_meta.counters().get(LedgerEvent::ShardGrant),
            4,
            "the healthy lane granted every unit"
        );
        for tally in &healthy_tallies {
            assert_eq!(tally.absorbed.load(Ordering::Acquire), 2);
            assert_eq!(tally.ended.load(Ordering::Acquire), 1);
        }
    }
}
