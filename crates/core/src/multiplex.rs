//! The pass-multiplexed guess executor.
//!
//! Figure 1.3 runs all `log₂ n` guesses of `|OPT|` "in parallel": every
//! guess reads the same stream, so one physical scan of the repository
//! can feed them all. The accounting layer has always charged for that
//! ([`SetStream::absorb_parallel`] takes the *maximum* child pass
//! count), but the original executor replayed the scans sequentially —
//! a factor `log₂ n` more physical work than the model implies.
//!
//! This module closes the gap. Each guess becomes an explicit state
//! machine ([`GuessRun`]) whose phases mirror the algorithm:
//!
//! ```text
//! ┌─> Pass1 ──(offline solve)──> Pass2 ─┐     (× ⌈1/δ⌉ iterations, or
//! └─────────────<──────────────────────-┘      until the goal is met)
//!        └──> Cleanup ──> Finished(Done | Failed)
//! ```
//!
//! The same machine runs both query kinds. A full-cover guess stops
//! when nothing is uncovered; an ε-partial guess
//! ([`IterCoverDriver::partial`]) carries a residual goal `n − required`,
//! stops iterating once at most that many elements are uncovered, and
//! its straggler pass (the goal sweep) emits nothing once the goal is
//! met.
//!
//! The driver ([`IterCoverDriver`]) repeatedly asks which guesses still
//! want a scan, performs **one** shared physical pass via
//! [`SetStream::shared_pass`], and hands every item to every
//! participating guess. Between scans each guess does its non-streaming
//! work (sampling, the offline solve, iteration bookkeeping). Because
//! every guess keeps its own forked [`SetStream`] counter, forked
//! [`SpaceMeter`], and seeded RNG, and performs exactly the operations
//! of the sequential executor in exactly the same order, covers,
//! logical pass counts, and per-guess space peaks are identical to the
//! sequential path — the `multiplex_equivalence` integration test pins
//! all three. Wall-clock improves twice over: the repository is walked
//! `max` instead of `sum` times (and stays cache-hot across guesses
//! within a scan), and the per-item hot paths run on the word-batched
//! `sc_bitset` slice kernels instead of per-element loops.
//!
//! The driver is public so that a scheduler serving *many* queries can
//! apply the same trick one level up: `sc_service` admits several
//! [`IterCoverDriver`]s (and its other query machines) into shared
//! *scan epochs*, concatenating their [`participants`]
//! lists into one [`SetStream::shared_pass`] per epoch — physical scans
//! per epoch group = the maximum logical pass count over all admitted
//! queries, not the sum.
//!
//! [`participants`]: IterCoverDriver::participants
//!
//! [`SetStream::absorb_parallel`]: sc_stream::SetStream::absorb_parallel
//! [`SetStream::shared_pass`]: sc_stream::SetStream::shared_pass
//! [`SetStream`]: sc_stream::SetStream
//! [`SpaceMeter`]: sc_stream::SpaceMeter

use crate::iter_set_cover::{iterations_for, offline_solve, sample_size_for, Goal};
use crate::partial::partial_setup;
use crate::projstore::ProjStore;
use crate::sampling::sample_from_bitset_into;
use crate::scan_driver::{GuessMachine, MachineOutcome, ScanDriver};
use crate::{IterSetCover, IterSetCoverConfig, IterationTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sc_bitset::{BitSet, HeapWords};
use sc_setsystem::{ElemId, SetId};
use sc_stream::{SetStream, SpaceMeter, Tracked};

/// What a guess is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Consuming a scan: size test + projection storage (Figure 1.3).
    Pass1,
    /// Consuming a scan: recompute the uncovered set from emitted ids.
    Pass2,
    /// Consuming a scan: one arbitrary covering set per straggler.
    Cleanup,
    /// Released all state; `result` holds the outcome.
    Finished,
}

/// One guess `k`, runnable one stream item at a time.
struct GuessRun<'a> {
    k: usize,
    cfg: IterSetCoverConfig,
    goal: Goal,
    universe: usize,
    max_iterations: usize,
    /// `sample_size(k, n, m)` — constant across iterations.
    sample_want: usize,
    stream: SetStream<'a>,
    meter: SpaceMeter,
    rng: StdRng,
    phase: Phase,
    iteration: usize,
    traces: Vec<IterationTrace>,
    /// `Some(cover)` when the guess finished, `None` when it failed;
    /// populated at `Finished`.
    result: Option<Vec<SetId>>,

    // Guess-lifetime tracked state (alive until `finish`).
    live: Option<Tracked<BitSet>>,
    in_sol: Option<Tracked<BitSet>>,
    sol: Option<Tracked<Vec<SetId>>>,
    /// Set once the straggler pass met the goal: the rest of the scan
    /// emits nothing (the sequential executor breaks out of the scan).
    swept: bool,

    // Pass-1 state (alive from `begin_iteration` to `finish_pass1`).
    sample: Option<Tracked<Vec<ElemId>>>,
    l_sample: Option<Tracked<BitSet>>,
    projections: Option<Tracked<ProjStore>>,
    threshold: f64,

    // Trace fields carried from pass 1 into the pass-2 trace push.
    uncovered_before: usize,
    sample_len: usize,
    heavy_picked: usize,
    small_stored: usize,
    projection_words: usize,
    offline_picked: usize,

    // Reused allocations. `spare_sample` / `spare_bitmap` hold the
    // released (uncharged) buffers between iterations so the next
    // `Tracked::new` recharges the same capacity a fresh allocation
    // would have; `scratch` is the unmetered projection gather buffer,
    // exactly as in the sequential executor.
    spare_sample: Vec<ElemId>,
    spare_bitmap: Option<BitSet>,
    scratch: Vec<ElemId>,
}

impl<'a> GuessRun<'a> {
    fn new(
        cfg: &IterSetCoverConfig,
        goal: Goal,
        k: usize,
        stream: &SetStream<'a>,
        meter: &SpaceMeter,
    ) -> Self {
        let n = stream.universe();
        let m = stream.num_sets();
        let child_stream = stream.fork();
        let child_meter = meter.fork();
        let rng = StdRng::seed_from_u64((goal.seed)(cfg.seed, k));
        // Same charges, same order as the sequential executor: the
        // residual bitmap U, the membership mask of emitted sets, and
        // the emitted ids (read back during pass 2, so they stay
        // charged — Lemma 2.2).
        let live = Tracked::new(BitSet::full(n), &child_meter);
        let in_sol = Tracked::new(BitSet::new(m), &child_meter);
        let sol = Tracked::new(Vec::new(), &child_meter);
        let mut run = Self {
            k,
            cfg: *cfg,
            goal,
            universe: n,
            max_iterations: iterations_for(cfg),
            sample_want: sample_size_for(cfg, k, n, m),
            stream: child_stream,
            meter: child_meter,
            rng,
            phase: Phase::Pass1, // placeholder; begin_iteration decides
            iteration: 0,
            traces: Vec::new(),
            result: None,
            live: Some(live),
            in_sol: Some(in_sol),
            sol: Some(sol),
            swept: false,
            sample: None,
            l_sample: None,
            projections: None,
            threshold: 0.0,
            uncovered_before: 0,
            sample_len: 0,
            heavy_picked: 0,
            small_stored: 0,
            projection_words: 0,
            offline_picked: 0,
            spare_sample: Vec::new(),
            spare_bitmap: None,
            scratch: Vec::new(),
        };
        run.begin_iteration();
        run
    }

    /// `true` while the guess needs to join the next shared scan.
    fn wants_scan(&self) -> bool {
        self.phase != Phase::Finished
    }

    /// Feeds one stream item to the current phase.
    fn absorb(&mut self, id: SetId, elems: &[ElemId]) {
        match self.phase {
            Phase::Pass1 => self.pass1_item(id, elems),
            Phase::Pass2 => self.pass2_item(id, elems),
            Phase::Cleanup => self.cleanup_item(id, elems),
            Phase::Finished => unreachable!("finished guesses leave the scan group"),
        }
    }

    /// Runs the between-scan transition after a shared scan ends.
    fn end_scan(&mut self) {
        match self.phase {
            Phase::Pass1 => self.finish_pass1(),
            Phase::Pass2 => self.finish_pass2(),
            Phase::Cleanup => self.finish(),
            Phase::Finished => unreachable!("finished guesses leave the scan group"),
        }
    }

    /// Starts iteration `self.iteration`: draws the sample `S`, builds
    /// the leftover bitmap `L ← S`, and readies the projection store.
    fn begin_iteration(&mut self) {
        let live = self.live.as_ref().expect("live until finish");
        let uncovered = live.get().count();
        if self.iteration >= self.max_iterations || self.goal.met(uncovered) {
            self.maybe_cleanup();
            return;
        }
        self.uncovered_before = uncovered;
        let want = self.sample_want.min(self.uncovered_before);
        let mut buf = std::mem::take(&mut self.spare_sample);
        sample_from_bitset_into(live.get(), want, &mut self.rng, &mut buf);
        let sample = Tracked::new(buf, &self.meter);
        self.sample_len = sample.get().len();
        // L ← S, as a dense bitmap for O(1) membership tests; the spare
        // bitmap has the same capacity a fresh `from_iter` would.
        let mut bitmap = self
            .spare_bitmap
            .take()
            .unwrap_or_else(|| BitSet::new(self.universe));
        bitmap.clear_and_set_from_sorted(sample.get());
        let l_sample = Tracked::new(bitmap, &self.meter);
        self.threshold = self.sample_len as f64 / self.k as f64;
        self.projections = Some(Tracked::new(ProjStore::default(), &self.meter));
        self.sample = Some(sample);
        self.l_sample = Some(l_sample);
        self.heavy_picked = 0;
        self.phase = Phase::Pass1;
    }

    /// Pass 1, one set, solo path: compute the projection with the
    /// branch-free gather kernel, then run the size test. Used when
    /// this guess is the only one in pass 1 this round (the transposed
    /// mask would cost more to build than it saves).
    fn pass1_item(&mut self, id: SetId, elems: &[ElemId]) {
        // One kernel pass replaces the `contains`-filtered scratch
        // loop; the projection doubles as the size-test count.
        self.l_sample
            .as_ref()
            .expect("pass-1 state")
            .get()
            .intersect_sorted_into(elems, &mut self.scratch);
        if self.scratch.is_empty() {
            return;
        }
        if self.is_heavy(self.scratch.len()) {
            self.pass1_emit_heavy(id, elems);
        } else {
            let covered = std::mem::take(&mut self.scratch);
            self.pass1_store(id, &covered);
            self.scratch = covered;
        }
    }

    /// The size test of Figure 1.3 on a precomputed `|elems ∩ L|`.
    fn is_heavy(&self, count: usize) -> bool {
        !self.cfg.disable_size_test && count as f64 >= self.threshold
    }

    /// Emits one set into the solution: the id is pushed to the emitted
    /// list and recorded in the membership mask, in the exact order the
    /// sequential executor charges them.
    fn emit(&mut self, id: SetId) {
        self.sol
            .as_mut()
            .expect("live until finish")
            .mutate(&self.meter, |s| s.push(id));
        self.in_sol
            .as_mut()
            .expect("live until finish")
            .mutate(&self.meter, |s| {
                s.insert(id);
            });
    }

    /// Pass 1 heavy pick: emit the set and batch-remove it from `L`.
    /// Removing the whole set is equivalent to removing its covered
    /// elements — ids outside `L` are no-ops — so the caller never has
    /// to materialise the hit list.
    fn pass1_emit_heavy(&mut self, id: SetId, elems: &[ElemId]) {
        self.emit(id);
        self.heavy_picked += 1;
        self.l_sample
            .as_mut()
            .expect("pass-1 state")
            .mutate(&self.meter, |l| l.remove_sorted_slice(elems));
    }

    /// Pass 1 small set: store its projection `covered = elems ∩ L`
    /// (non-empty, ascending).
    fn pass1_store(&mut self, id: SetId, covered: &[ElemId]) {
        debug_assert!(!covered.is_empty());
        self.projections
            .as_mut()
            .expect("pass-1 state")
            .mutate(&self.meter, |p| p.push(id, covered));
    }

    /// After pass 1: offline solve on the residual sample, then release
    /// the iteration's stores (keeping the raw buffers for reuse).
    fn finish_pass1(&mut self) {
        let sample = self.sample.take().expect("pass-1 state");
        let l_sample = self.l_sample.take().expect("pass-1 state");
        let projections = self.projections.take().expect("pass-1 state");
        self.projection_words = projections.get().heap_words();
        self.small_stored = projections.get().len();
        match offline_solve(self.cfg.solver, &projections, &l_sample, &self.meter) {
            Some(picks) => {
                self.offline_picked = picks.len();
                for idx in picks {
                    let id = projections.get().set_id(idx);
                    self.emit(id);
                }
                let mut buf = sample.release(&self.meter);
                buf.clear();
                self.spare_sample = buf;
                self.spare_bitmap = Some(l_sample.release(&self.meter));
                let _ = projections.release(&self.meter);
                self.phase = Phase::Pass2;
            }
            None => {
                // Some sampled element is in no set at all: the
                // instance is not coverable. Abort the guess.
                let _ = sample.release(&self.meter);
                let _ = l_sample.release(&self.meter);
                let _ = projections.release(&self.meter);
                let _ = self
                    .live
                    .take()
                    .expect("live until finish")
                    .release(&self.meter);
                let _ = self
                    .in_sol
                    .take()
                    .expect("live until finish")
                    .release(&self.meter);
                let _ = self
                    .sol
                    .take()
                    .expect("live until finish")
                    .release(&self.meter);
                self.result = None;
                self.phase = Phase::Finished;
            }
        }
    }

    /// Pass 2, one set: recompute the uncovered set from emitted ids.
    fn pass2_item(&mut self, id: SetId, elems: &[ElemId]) {
        if self
            .in_sol
            .as_ref()
            .expect("live until finish")
            .get()
            .contains(id)
        {
            self.live
                .as_mut()
                .expect("live until finish")
                .mutate(&self.meter, |l| l.remove_sorted_slice(elems));
        }
    }

    /// After pass 2: record the iteration trace and advance.
    fn finish_pass2(&mut self) {
        self.traces.push(IterationTrace {
            k: self.k,
            iteration: self.iteration,
            uncovered_before: self.uncovered_before,
            sample_size: self.sample_len,
            heavy_picked: self.heavy_picked,
            small_stored: self.small_stored,
            projection_words: self.projection_words,
            offline_picked: self.offline_picked,
            uncovered_after: self.live.as_ref().expect("live until finish").get().count(),
        });
        self.iteration += 1;
        self.begin_iteration();
    }

    /// Cleanup, one set already known to cover at least one straggler
    /// (the caller's mask lookup found `elems ∩ live` non-empty) while
    /// the goal is unmet: emit it, remove its elements, and note
    /// whether the goal is met now. Returns `true` — the residual
    /// shrank — so the caller clears this guess's mask lane.
    fn cleanup_hit(&mut self, id: SetId, elems: &[ElemId]) -> bool {
        if self
            .in_sol
            .as_ref()
            .expect("live until finish")
            .get()
            .contains(id)
        {
            // Unreachable in practice: a set in the solution had its
            // elements removed from `live` in pass 2, so it cannot hit.
            return false;
        }
        self.emit(id);
        let live = self.live.as_mut().expect("live until finish");
        live.mutate(&self.meter, |l| l.remove_sorted_slice(elems));
        self.swept = self.goal.met(live.get().count());
        true
    }

    /// Decides between the Section 4.2 straggler pass and finishing.
    fn maybe_cleanup(&mut self) {
        let live = self.live.as_ref().expect("live until finish");
        if !self.goal.met(live.get().count()) && self.cfg.final_cleanup_pass {
            self.phase = Phase::Cleanup;
        } else {
            self.finish();
        }
    }

    /// Cleanup pass, one set, solo path: test for a straggler hit with
    /// the count kernel, then defer to [`cleanup_hit`](Self::cleanup_hit).
    fn cleanup_item(&mut self, id: SetId, elems: &[ElemId]) {
        if self.swept {
            return; // mirrors the sequential executor's early break
        }
        let live = self.live.as_ref().expect("live until finish");
        if live.get().intersection_count_slice(elems) > 0 {
            self.cleanup_hit(id, elems);
        }
    }

    /// Releases everything and records the outcome.
    fn finish(&mut self) {
        let live = self.live.take().expect("live until finish");
        let done = self.goal.met(live.get().count());
        let _ = live.release(&self.meter);
        let _ = self
            .in_sol
            .take()
            .expect("live until finish")
            .release(&self.meter);
        let sol = self
            .sol
            .take()
            .expect("live until finish")
            .release(&self.meter);
        self.result = done.then_some(sol);
        self.phase = Phase::Finished;
    }
}

/// The multi-guess pass machine behind [`GuessExecutor::Multiplexed`](crate::GuessExecutor),
/// exposed so drivers other than [`IterSetCover::run`] — notably the
/// `sc_service` scan scheduler — can advance an `iterSetCover` query
/// one shared physical scan at a time while interleaving it with other
/// queries on the same repository.
///
/// The driver owns one [`GuessRun`] state machine per guess `k = 2^i`
/// (each with its own forked stream counter, forked space meter, and
/// seeded RNG) and performs exactly the operations of the sequential
/// executor in exactly the same order, so covers, logical pass counts,
/// space peaks, and iteration traces are bit-identical to a solo run —
/// the `multiplex_equivalence` test pins this for full cover, and
/// `partial_machine_equivalence` for the ε-partial form built by
/// [`partial`](Self::partial).
///
/// # Scan protocol
///
/// ```text
/// while driver.wants_scan() {
///     driver.begin_scan();                      // build lane masks
///     let items = stream.shared_pass(&driver.participants());
///     for (id, elems) in items { driver.absorb(id, elems); }
///     driver.end_scan();                        // between-scan work
/// }
/// let (cover, traces) = driver.finish_into(&stream, &meter);
/// ```
///
/// The physical scan itself is the caller's: pass
/// [`participants`](Self::participants) to
/// [`SetStream::shared_pass`] (or [`sc_stream::ScanLedger::scan`]) so
/// every live guess logs its logical pass, then feed each item to
/// [`absorb`](Self::absorb). A scheduler serving many queries simply
/// concatenates the participant lists of all of its drivers before one
/// shared scan.
pub struct IterCoverDriver<'a> {
    inner: ScanDriver<'a, GuessRun<'a>>,
}

/// Driver-lifetime traversal-sharing scratch of the multiplexed
/// executor, rebuilt by [`GuessRun::begin_scan_group`] each scan.
///
/// The mask holds exactly the same bits as the guesses' own
/// (already-charged) `L` bitmaps in transposed order, so it adds
/// nothing to the model's space accounting: it is the simulation's
/// layout of the parallel branches' state, not a new algorithmic
/// store.
struct IterShared {
    /// Transposed leftover bitmaps: `sample_mask[e]` has bit `s` set iff
    /// element `e` is in lane `s`'s residual.
    sample_mask: Vec<u64>,
    lane_hits: Vec<Vec<ElemId>>,
    /// Guesses sharing the element traversal this scan.
    lanes: Vec<(usize, Phase)>,
    /// Guesses walking items through their per-guess kernels instead.
    solo: Vec<usize>,
    share_traversal: bool,
}

impl<'a> GuessMachine<'a> for GuessRun<'a> {
    type Shared = IterShared;

    fn make_shared(machines: &[Self]) -> IterShared {
        let n = machines.first().map_or(0, |m| m.universe);
        IterShared {
            sample_mask: vec![0; n],
            lane_hits: Vec::new(),
            lanes: Vec::new(),
            solo: Vec::new(),
            share_traversal: false,
        }
    }

    fn wants_scan(&self) -> bool {
        GuessRun::wants_scan(self)
    }

    fn stream(&self) -> &SetStream<'a> {
        &self.stream
    }

    fn absorb(&mut self, id: SetId, elems: &[ElemId]) {
        GuessRun::absorb(self, id, elems);
    }

    fn end_scan(&mut self) {
        GuessRun::end_scan(self);
    }

    fn into_outcome(self) -> MachineOutcome {
        debug_assert_eq!(self.phase, Phase::Finished);
        MachineOutcome {
            result: self.result,
            traces: self.traces,
            passes: self.stream.passes(),
            peak: self.meter.peak(),
        }
    }

    /// Builds the transposed residual masks for traversal sharing.
    ///
    /// Lanes: guesses sharing the element traversal this round — a
    /// pass-1 lane's residual is its leftover sample `L` (equal to
    /// the fresh sample at scan start), a cleanup lane's residual is
    /// its straggler set `live`. One shared walk of the repository
    /// feeds every lane (the repository is memory-bound, so walking
    /// it once beats walking it per guess even for dense residuals);
    /// a lone lane goes solo through the gather kernel instead,
    /// skipping the mask rebuild. `u64` lanes always suffice: there
    /// are at most log2(usize::MAX) + 1 = 64 guesses.
    fn begin_scan_group(machines: &mut [Self], scanning: &[usize], shared: &mut IterShared) {
        shared.lanes.clear();
        shared.solo.clear();
        for &g in scanning {
            match machines[g].phase {
                Phase::Pass1 | Phase::Cleanup => shared.lanes.push((g, machines[g].phase)),
                _ => shared.solo.push(g),
            }
        }
        if shared.lanes.len() < 2 {
            let lone = shared.lanes.drain(..).map(|(g, _)| g);
            shared.solo.extend(lone);
        }
        shared.share_traversal = !shared.lanes.is_empty();
        if shared.share_traversal {
            assert!(
                shared.lanes.len() <= 64,
                "more than 64 parallel guesses cannot occur"
            );
            shared.sample_mask.fill(0);
            shared.lane_hits.resize_with(shared.lanes.len(), Vec::new);
            for (s, &(g, phase)) in shared.lanes.iter().enumerate() {
                match phase {
                    Phase::Pass1 => {
                        // At scan start L equals the freshly drawn sample.
                        let sample = machines[g].sample.as_ref().expect("pass-1 state");
                        for &e in sample.get().iter() {
                            shared.sample_mask[e as usize] |= 1 << s;
                        }
                    }
                    Phase::Cleanup => {
                        let live = machines[g].live.as_ref().expect("live until finish");
                        for e in live.get().ones() {
                            shared.sample_mask[e as usize] |= 1 << s;
                        }
                    }
                    _ => unreachable!("only pass-1 and cleanup guesses become lanes"),
                }
            }
        }
    }

    fn absorb_group(
        machines: &mut [Self],
        _scanning: &[usize],
        shared: &mut IterShared,
        id: SetId,
        elems: &[ElemId],
    ) {
        if shared.share_traversal {
            // One walk over the set's elements feeds every lane:
            // each mask load yields all lanes containing that
            // element, and per-lane work is proportional to the
            // lane's actual hits, not to the set size.
            for &e in elems {
                let mut m = shared.sample_mask[e as usize];
                while m != 0 {
                    shared.lane_hits[m.trailing_zeros() as usize].push(e);
                    m &= m - 1;
                }
            }
            for (s, &(g, phase)) in shared.lanes.iter().enumerate() {
                if shared.lane_hits[s].is_empty() {
                    continue;
                }
                let shrank = match phase {
                    Phase::Pass1 => {
                        if machines[g].is_heavy(shared.lane_hits[s].len()) {
                            // Removing the hits (= elems ∩ L) is
                            // what the heavy pick does to L.
                            machines[g].pass1_emit_heavy(id, &shared.lane_hits[s]);
                            true
                        } else {
                            machines[g].pass1_store(id, &shared.lane_hits[s]);
                            false
                        }
                    }
                    // Past the goal the lane still hits, but emits
                    // nothing more.
                    Phase::Cleanup => !machines[g].swept && machines[g].cleanup_hit(id, elems),
                    _ => unreachable!("only pass-1 and cleanup guesses become lanes"),
                };
                if shrank {
                    // The hit elements left this lane's residual,
                    // so they leave its mask lane too.
                    for &e in &shared.lane_hits[s] {
                        shared.sample_mask[e as usize] &= !(1 << s);
                    }
                }
                shared.lane_hits[s].clear();
            }
        }
        for &g in &shared.solo {
            GuessRun::absorb(&mut machines[g], id, elems);
        }
    }
}

impl<'a> IterCoverDriver<'a> {
    /// Spawns all `log₂ n` guess machines, forking per-guess streams
    /// and meters from `stream` / `meter` (the query's parent handles,
    /// absorbed back by [`finish_into`](Self::finish_into)).
    pub fn new(cfg: &IterSetCoverConfig, stream: &SetStream<'a>, meter: &SpaceMeter) -> Self {
        Self::with_goal(cfg, Goal::FULL, stream, meter)
    }

    /// Spawns the guess machines of an ε-partial query that must cover
    /// at least `required` elements — the same machines, stopped at the
    /// residual goal `n − required`, seeded with the partial formula,
    /// and with the configuration fields the partial variant fixes
    /// forced (see [`crate::PartialIterSetCover`]). Bit-identical to
    /// the sequential [`crate::PartialIterSetCover`].
    pub fn partial(
        cfg: &IterSetCoverConfig,
        required: usize,
        stream: &SetStream<'a>,
        meter: &SpaceMeter,
    ) -> Self {
        let (cfg, goal) = partial_setup(cfg, stream.universe(), required);
        Self::with_goal(&cfg, goal, stream, meter)
    }

    /// All guesses k = 2^i, 0 ≤ i ≤ log n, "in parallel" (Fig 1.3). A
    /// query whose goal the empty cover already meets (empty universe,
    /// nothing required) spawns none and finishes with an empty cover,
    /// exactly as the sequential executor returns early.
    fn with_goal(
        cfg: &IterSetCoverConfig,
        goal: Goal,
        stream: &SetStream<'a>,
        meter: &SpaceMeter,
    ) -> Self {
        let n = stream.universe();
        let mut guesses = Vec::new();
        if !goal.met(n) {
            let mut i = 0u32;
            loop {
                let k = 1usize << i;
                guesses.push(GuessRun::new(cfg, goal, k, stream, meter));
                if k >= n {
                    break;
                }
                i += 1;
            }
        }
        Self {
            inner: ScanDriver::new(guesses),
        }
    }

    /// `true` while at least one guess still needs a physical scan.
    /// Every scan the driver joins must include every guess that wants
    /// one, so physical scans = max logical passes.
    pub fn wants_scan(&self) -> bool {
        self.inner.wants_scan()
    }

    /// The 1-based index of the logical pass the query needs next (see
    /// [`ScanDriver::pass_index`]) — what a pass-aligned scheduler
    /// matches against the scan it splices this query into.
    pub fn pass_index(&self) -> usize {
        self.inner.pass_index()
    }

    /// Prepares the next scan: collects the participating guesses and
    /// builds the transposed residual masks for traversal sharing (see
    /// [`GuessMachine::begin_scan_group`] on the guess machine).
    pub fn begin_scan(&mut self) {
        self.inner.begin_scan();
    }

    /// The forked streams of the guesses joining the current scan, in
    /// guess order — hand these to [`SetStream::shared_pass`] so each
    /// logs its logical pass. Valid after [`begin_scan`](Self::begin_scan).
    pub fn participants(&self) -> Vec<&SetStream<'a>> {
        self.inner.participants()
    }

    /// Feeds one stream item to every participating guess.
    pub fn absorb(&mut self, id: SetId, elems: &[ElemId]) {
        self.inner.absorb(id, elems);
    }

    /// Feeds a run of stream items (see [`ScanDriver::absorb_items`]);
    /// items must arrive in repository order across the calls of one
    /// scan.
    pub fn absorb_items(&mut self, items: impl IntoIterator<Item = (SetId, &'a [ElemId])>) {
        self.inner.absorb_items(items);
    }

    /// Runs every participating guess's between-scan transition
    /// (offline solves, iteration bookkeeping, phase changes) after the
    /// caller exhausted the scan's items.
    pub fn end_scan(&mut self) {
        self.inner.end_scan();
    }

    /// Merges the finished guesses exactly as the sequential executor
    /// does and absorbs their pass counts (max) and space peaks (sum)
    /// into the parent stream and meter the driver was created from.
    /// Returns the best cover and the concatenated iteration traces.
    /// See [`ScanDriver::finish_into`] for the merge rule.
    pub fn finish_into(
        self,
        stream: &SetStream<'a>,
        meter: &SpaceMeter,
    ) -> (Vec<SetId>, Vec<IterationTrace>) {
        self.inner.finish_into(stream, meter)
    }
}

/// Advances all guesses through shared physical scans and merges their
/// results exactly as the sequential executor does.
pub(crate) fn run_multiplexed(
    alg: &mut IterSetCover,
    stream: &SetStream<'_>,
    meter: &SpaceMeter,
) -> Vec<SetId> {
    let mut driver = IterCoverDriver::new(alg.cfg(), stream, meter);
    // One shared physical scan per round; every guess that still needs
    // a pass participates, so physical scans = max logical passes.
    while driver.wants_scan() {
        driver.begin_scan();
        driver.absorb_items(stream.shared_pass(&driver.participants()));
        driver.end_scan();
    }
    let (cover, traces) = driver.finish_into(stream, meter);
    alg.traces.extend(traces);
    cover
}
