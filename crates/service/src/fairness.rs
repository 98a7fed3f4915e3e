//! Cross-tenant admission fairness: a deficit-round-robin gate over
//! `(tenant, shard)` work units.
//!
//! Every tenant runs its own scheduler lane (its own generation loop,
//! intake, and epoch pipeline), but the lanes share one machine — so a
//! hot tenant flooding the service with heavy queries could starve a
//! cold one of CPU even though their queues are separate. The
//! [`FairGate`] is the arbiter: a DRR-arbitrated counting semaphore
//! over `(tenant, shard)` work units. A lane
//! [`enter`](FairGate::enter)s the execution stage (no exclusivity;
//! every lane with an in-flight epoch is *live* at once) and each
//! worker takes an [`acquire_unit`](FairGate::acquire_unit) RAII hold
//! per shard it absorbs, bounded by `capacity` concurrent units
//! machine-wide. The ring arbitration funds each lane's turn with
//! `quantum` units; a turn cut short by capacity resumes where it left
//! off, so a lane bursts up to `quantum` units per ring visit. A box
//! serving K narrow tenants saturates its cores instead of running one
//! narrow epoch at a time.
//!
//! **Idleness is not a savings account**: every arbitration zeroes the
//! bank of *every* lane with nothing waiting — including lanes the ring
//! walk never reaches. A lane that sheds its whole queue (quota-full
//! `err msg=busy`) therefore re-arrives with an empty bank and pays
//! full freight, instead of burst-starving its neighbours with credit
//! banked before it went quiet.
//!
//! When only one lane is live, the gate skips the arbiter entirely (a
//! single atomic read per unit — the single-tenant fast path), so a
//! solo service — and [`Service::run_batch`](crate::Service::run_batch),
//! whose prefilled intake runs the same lane loop on a one-lane gate —
//! pays no gate overhead.
//!
//! Everything *outside* the epoch runs ungated: stage-1 admission,
//! cache hits, retirement replies, and the idle blocking wait on the
//! submission channel — so a cold tenant's queue wait (submission →
//! admission) stays flat no matter how hot its neighbours are; the
//! gate shows up only in execution latency, bounded by the work in
//! front of it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

#[derive(Debug)]
struct GateInner {
    /// Units currently held via the arbitrated slow path.
    in_use: u64,
    /// Per-lane workers blocked waiting for a unit grant.
    waiting: Vec<u64>,
    /// Per-lane grants issued but not yet picked up by a waiting
    /// worker.
    granted: Vec<u64>,
    /// Per-lane banked credit (deficit-round-robin state): the unspent
    /// remainder of the lane's current `quantum`-unit turn. Zeroed for
    /// every idle lane on every arbitration.
    deficit: Vec<u64>,
    /// Ring position the next arbitration round starts from.
    cursor: usize,
}

impl GateInner {
    /// Idleness is not a savings account: zero the bank of every lane
    /// with nothing waiting — visited by the ring walk or not. This is
    /// what stops a lane that shed its whole queue from returning with
    /// banked credit and burst-starving its neighbours.
    fn forfeit_idle_banks(&mut self) {
        for (deficit, &waiting) in self.deficit.iter_mut().zip(&self.waiting) {
            if waiting == 0 {
                *deficit = 0;
            }
        }
    }
}

/// The deficit-round-robin scan arbiter shared by a service's tenant
/// lanes. See the module docs for the policy.
#[derive(Debug)]
pub(crate) struct FairGate {
    quantum: u64,
    /// Max concurrent units machine-wide (the worker budget).
    capacity: u64,
    /// Lanes currently inside the execution stage. Read without the
    /// lock on the unit fast path.
    engaged: AtomicUsize,
    /// Units that took the arbitrated slow path — the witness that the
    /// single-live-lane fast path really skips the arbiter.
    slow_units: AtomicU64,
    inner: Mutex<GateInner>,
    cv: Condvar,
}

/// RAII mark that a lane is inside the execution stage. Dropping it
/// forfeits whatever remains of the lane's current turn — a lane
/// cannot carry mid-turn credit from one epoch to the next.
pub(crate) struct LaneSession<'g> {
    gate: &'g FairGate,
    lane: usize,
}

impl Drop for LaneSession<'_> {
    fn drop(&mut self) {
        self.gate.leave(self.lane);
    }
}

/// RAII hold on one `(tenant, shard)` work unit. `None` inside means
/// the unit was granted on the single-live-lane fast path and there is
/// nothing to give back.
pub(crate) struct UnitHold<'g> {
    gate: Option<&'g FairGate>,
}

impl Drop for UnitHold<'_> {
    fn drop(&mut self) {
        if let Some(gate) = self.gate {
            gate.release_unit();
        }
    }
}

impl FairGate {
    /// A gate over `lanes` tenant lanes: up to `capacity` concurrent
    /// `(tenant, shard)` units machine-wide, arbitrated by DRR in turns
    /// of `quantum` units per lane per ring visit.
    pub fn new(lanes: usize, quantum: u64, capacity: u64) -> Self {
        assert!(lanes > 0, "a gate needs at least one lane");
        Self {
            quantum: quantum.max(1),
            capacity: capacity.max(1),
            engaged: AtomicUsize::new(0),
            slow_units: AtomicU64::new(0),
            inner: Mutex::new(GateInner {
                in_use: 0,
                waiting: vec![0; lanes],
                granted: vec![0; lanes],
                deficit: vec![0; lanes],
                cursor: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Units granted via the arbitrated slow path since construction.
    /// Stays zero while at most one lane is ever live — the witness
    /// for the single-tenant fast path.
    #[cfg(test)]
    pub fn slow_unit_acquires(&self) -> u64 {
        self.slow_units.load(Ordering::Relaxed)
    }

    /// Marks this lane live inside the execution stage. While exactly
    /// one lane is live, unit acquisition short-circuits to a single
    /// atomic read. Dropping the session forfeits the lane's remaining
    /// turn credit.
    pub fn enter(&self, lane: usize) -> LaneSession<'_> {
        self.engaged.fetch_add(1, Ordering::SeqCst);
        LaneSession { gate: self, lane }
    }

    /// Blocks until this lane is granted one `(tenant, shard)` work
    /// unit; the unit is returned to the pool when the hold drops.
    /// Called between [`enter`](FairGate::enter) and the session's
    /// drop.
    ///
    /// Fast path: with at most one lane live there is nobody to be
    /// fair to, so the unit is granted on a single atomic read — no
    /// lock, no arbitration, no bookkeeping. (The check is racy by
    /// design: a lane entering concurrently may let a handful of units
    /// through unmetered, bounded by the in-flight worker count, and
    /// metering self-heals on the next unit.)
    pub fn acquire_unit(&self, lane: usize) -> UnitHold<'_> {
        if self.engaged.load(Ordering::SeqCst) <= 1 {
            return UnitHold { gate: None };
        }
        self.slow_units.fetch_add(1, Ordering::Relaxed);
        let mut g = self.inner.lock().expect("gate poisoned");
        g.waiting[lane] += 1;
        loop {
            Self::arbitrate_shard(&mut g, self.quantum, self.capacity);
            if g.granted.iter().any(|&n| n > 0) {
                // Grants may have landed on other lanes' waiters too.
                self.cv.notify_all();
            }
            if g.granted[lane] > 0 {
                g.granted[lane] -= 1;
                return UnitHold { gate: Some(self) };
            }
            g = self.cv.wait(g).expect("gate poisoned");
        }
    }

    /// One deficit-round-robin arbitration: while capacity remains and
    /// workers wait, fund the cursor lane's turn with `quantum` units
    /// (once per ring visit — `deficit` holds the unspent remainder)
    /// and convert as much of it into grants as the lane's waiters and
    /// the capacity allow. A turn cut short by capacity keeps the
    /// cursor, so the lane resumes its turn on the next release; a
    /// spent or emptied turn advances the ring.
    fn arbitrate_shard(g: &mut GateInner, quantum: u64, capacity: u64) {
        g.forfeit_idle_banks();
        while g.in_use < capacity && g.waiting.iter().any(|&w| w > 0) {
            let lane = g.cursor;
            if g.waiting[lane] == 0 {
                g.deficit[lane] = 0;
                g.cursor = (lane + 1) % g.waiting.len();
                continue;
            }
            if g.deficit[lane] == 0 {
                g.deficit[lane] = quantum; // fund the turn, once per visit
            }
            let grant = g.deficit[lane]
                .min(g.waiting[lane])
                .min(capacity - g.in_use);
            g.deficit[lane] -= grant;
            g.waiting[lane] -= grant;
            g.granted[lane] += grant;
            g.in_use += grant;
            if g.waiting[lane] == 0 {
                // Emptied its queue mid-turn: leftover credit is
                // forfeit, not banked for a burst later.
                g.deficit[lane] = 0;
                g.cursor = (lane + 1) % g.waiting.len();
            } else if g.deficit[lane] == 0 {
                // Turn fully spent: next lane's turn.
                g.cursor = (lane + 1) % g.waiting.len();
            }
            // else: capacity cut the turn short — keep the cursor so
            // the lane resumes its turn when a unit frees up.
        }
    }

    fn release_unit(&self) {
        let mut g = self.inner.lock().expect("gate poisoned");
        debug_assert!(g.in_use > 0, "unit release without a hold");
        g.in_use -= 1;
        Self::arbitrate_shard(&mut g, self.quantum, self.capacity);
        if g.granted.iter().any(|&n| n > 0) {
            self.cv.notify_all();
        }
    }

    fn leave(&self, lane: usize) {
        self.engaged.fetch_sub(1, Ordering::SeqCst);
        let mut g = self.inner.lock().expect("gate poisoned");
        debug_assert_eq!(
            g.waiting[lane], 0,
            "a lane cannot leave with workers still waiting"
        );
        // The departing lane's unspent turn credit dies with it.
        g.deficit[lane] = 0;
        Self::arbitrate_shard(&mut g, self.quantum, self.capacity);
        if g.granted.iter().any(|&n| n > 0) {
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Regression for burst starvation: a lane that sheds its whole
    /// queue must forfeit banked deficit even when the ring walk never
    /// reaches it (the walk stops once capacity is spent, so "reset on
    /// visit" alone left unvisited idle lanes with stale banks), and
    /// when it returns it gets exactly one `quantum` turn.
    #[test]
    fn a_lane_shedding_its_queries_forfeits_banked_deficit() {
        let gate = FairGate::new(3, 3, 1);
        let mut g = gate.inner.lock().unwrap();
        // Lane 2 banked credit mid-turn, then shed everything
        // (quota-full busy replies) before spending it.
        g.deficit[2] = 50;
        g.waiting[0] = 1;
        g.cursor = 0; // capacity runs out at lane 0; lane 2 is never visited
        FairGate::arbitrate_shard(&mut g, 3, 1);
        assert_eq!(g.granted[0], 1);
        assert_eq!(g.deficit[2], 0, "unvisited idle lane forfeits its bank");
        // The unit completes.
        g.granted[0] = 0;
        g.in_use -= 1;
        // Lane 2 comes back contending with lane 1 and is funded at the
        // normal DRR rate: one `quantum` turn, then lane 1's.
        g.waiting[1] = 5;
        g.waiting[2] = 5;
        g.cursor = 2;
        let mut grants = Vec::new();
        for _ in 0..6 {
            FairGate::arbitrate_shard(&mut g, 3, 1);
            let lane = (0..3).find(|&l| g.granted[l] > 0).expect("a grant");
            g.granted[lane] -= 1;
            grants.push(lane);
            g.in_use -= 1;
        }
        assert_eq!(grants, vec![2, 2, 2, 1, 1, 1], "exactly one quantum turn");
    }

    /// Quantum 1, capacity 1: lanes alternate strictly,
    /// one unit per turn — the quantum can be smaller than a lane's
    /// appetite and the ring still shares by work.
    #[test]
    fn shard_units_alternate_under_unit_quantum() {
        let gate = FairGate::new(2, 1, 1);
        let mut g = gate.inner.lock().unwrap();
        g.waiting[0] = 3;
        g.waiting[1] = 3;
        let mut grants = Vec::new();
        for _ in 0..6 {
            FairGate::arbitrate_shard(&mut g, 1, 1);
            let lane = (0..2).find(|&l| g.granted[l] > 0).expect("a grant");
            g.granted[lane] -= 1;
            grants.push(lane);
            g.in_use -= 1; // the unit completes
        }
        assert_eq!(grants, vec![0, 1, 0, 1, 0, 1], "strict alternation");
        assert_eq!(g.in_use, 0);
    }

    /// A turn cut short by capacity carries its unspent
    /// credit across releases — the lane finishes its `quantum`-unit
    /// turn before the ring moves on.
    #[test]
    fn shard_deficit_carries_over_when_capacity_cuts_a_turn() {
        let gate = FairGate::new(2, 3, 2);
        let mut g = gate.inner.lock().unwrap();
        g.waiting[0] = 5;
        g.waiting[1] = 5;
        FairGate::arbitrate_shard(&mut g, 3, 2);
        assert_eq!(g.granted[0], 2, "capacity caps the first instalment");
        assert_eq!(g.deficit[0], 1, "turn credit carried, not forfeited");
        assert_eq!(g.cursor, 0, "the lane keeps its turn");
        g.granted[0] = 0;
        g.in_use -= 1; // one unit completes
        FairGate::arbitrate_shard(&mut g, 3, 2);
        assert_eq!(g.granted[0], 1, "the turn's last unit lands first");
        assert_eq!(g.deficit[0], 0);
        assert_eq!(g.cursor, 1, "only now does lane 1 get its turn");
        // Lane 0 got exactly its quantum (3 units) before lane 1 ran.
        g.granted[0] = 0;
        g.in_use -= 1;
        FairGate::arbitrate_shard(&mut g, 3, 2);
        assert_eq!(g.granted[1], 1, "lane 1's turn begins");
    }

    /// A lane whose queue empties mid-turn forfeits the
    /// leftover credit instead of banking it for a later burst.
    #[test]
    fn a_lane_emptying_mid_grant_banks_nothing() {
        let gate = FairGate::new(2, 4, 4);
        let mut g = gate.inner.lock().unwrap();
        g.waiting[0] = 2; // less than a full turn
        g.waiting[1] = 3;
        FairGate::arbitrate_shard(&mut g, 4, 4);
        assert_eq!(g.granted[0], 2, "lane 0 drained entirely");
        assert_eq!(g.deficit[0], 0, "its leftover turn credit is forfeit");
        assert_eq!(g.granted[1], 2, "lane 1 fills the remaining capacity");
        assert_eq!(g.deficit[1], 2, "lane 1's turn is merely cut short");
        assert_eq!(g.in_use, 4);
    }

    /// With one live lane, units are granted on the fast path: no
    /// arbitration, no lock — the slow-path counter stays zero. A
    /// second live lane engages the arbiter.
    #[test]
    fn a_single_live_lane_skips_arbitration_entirely() {
        let gate = FairGate::new(2, 4, 2);
        {
            let _session = gate.enter(0);
            for _ in 0..100 {
                let unit = gate.acquire_unit(0);
                drop(unit);
            }
            assert_eq!(gate.slow_unit_acquires(), 0, "solo lane pays no toll");
        }
        {
            let _s0 = gate.enter(0);
            let _s1 = gate.enter(1);
            let unit = gate.acquire_unit(0);
            drop(unit);
            assert!(
                gate.slow_unit_acquires() > 0,
                "two live lanes arbitrate for real"
            );
        }
    }

    /// End-to-end under real threads: two lanes hammer the
    /// gate concurrently under a small capacity; both finish, and the
    /// semaphore books balance.
    #[test]
    fn shard_lanes_make_progress_under_contention() {
        let gate = FairGate::new(2, 2, 2);
        let done = [AtomicUsize::new(0), AtomicUsize::new(0)];
        std::thread::scope(|s| {
            for lane in 0..2 {
                let gate = &gate;
                let done = &done;
                s.spawn(move || {
                    let _session = gate.enter(lane);
                    for _ in 0..50 {
                        let unit = gate.acquire_unit(lane);
                        std::thread::sleep(std::time::Duration::from_micros(10));
                        drop(unit);
                        done[lane].fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(done[0].load(Ordering::SeqCst), 50);
        assert_eq!(done[1].load(Ordering::SeqCst), 50);
        let g = gate.inner.lock().unwrap();
        assert_eq!(g.in_use, 0, "every unit returned");
        assert!(g.waiting.iter().all(|&w| w == 0));
        assert!(g.granted.iter().all(|&n| n == 0));
    }

    /// Leaving the execution stage forfeits the lane's unspent turn.
    #[test]
    fn leaving_a_shard_lane_forfeits_its_turn() {
        let gate = FairGate::new(2, 8, 1);
        let session = gate.enter(0);
        gate.inner.lock().unwrap().deficit[0] = 5; // mid-turn leftovers
        drop(session);
        assert_eq!(gate.inner.lock().unwrap().deficit[0], 0);
    }
}
