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
//! machine (`GuessRun`) whose phases mirror the algorithm:
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
//! `sc_bitset` slice kernels instead of per-element loops. Guesses that
//! sample in the same scan share one element walk over a transposed
//! mask of their residuals: per item, one gather pass loads every
//! element's lane mask, and each lane the item touches takes one
//! branch-free compaction pass, so the walk costs
//! `|item| × (1 + lanes touched)` steps and never branches per hit.
//!
//! The driver is public so that a scheduler serving *many* queries can
//! apply the same trick one level up: `sc_service` admits several
//! [`IterCoverDriver`]s into shared *scan epochs*, concatenating their
//! [`participants`] lists into one [`SetStream::shared_pass`] per epoch
//! — physical scans per epoch group = the maximum logical pass count
//! over all admitted queries, not the sum.
//!
//! [`participants`]: IterCoverDriver::participants
//!
//! # Replaying seed-free guesses
//!
//! A guess whose sample size `sample_size_for(cfg, k, n, m)` reaches
//! `n` samples its whole residual in every iteration:
//! `sample_from_bitset_into` then takes every live element and never
//! draws from the RNG. Such a guess is *memoizable*, and its run is
//! short. Its first sample is the whole universe, so its first offline
//! solve either covers everything that is left (passes 2: every goal
//! is met, no cleanup follows) or finds an element in no set and fails
//! (passes 1). Its entire run — cover (or failure), logical passes,
//! space peak, traces — thus depends only on the repository, `k`, the
//! offline solver and the size-test flag: not on the seed, δ, the
//! sample-size constants or the query's coverage goal. (δ ≤ 1 gives
//! every guess at least one iteration.) A [`GuessMemo`] records the
//! outcomes of memoizable guesses over one repository, keyed on
//! (`solver`, `final_cleanup_pass`, `disable_size_test`, `k`), so
//! full-cover and ε-partial queries at any δ share one entry per `k`;
//! a driver built with [`IterCoverDriver::replaying`] replays the ones
//! it already holds instead of recomputing them. A replayed guess keeps
//! its forked [`SetStream`] and rides its recorded number of scans as
//! a participant, so physical scans, participants per scan,
//! [`pass_index`](IterCoverDriver::pass_index), covers, passes and
//! space peaks stay exactly those of a live run; it just takes no
//! lane, no solo walk and no between-scan work. The memo lives outside
//! the space model, like an outcome cache: a replayed guess is charged
//! its recorded peak, exactly what running it would have charged.
//!
//! [`SetStream::absorb_parallel`]: sc_stream::SetStream::absorb_parallel
//! [`SetStream::shared_pass`]: sc_stream::SetStream::shared_pass
//! [`SetStream`]: sc_stream::SetStream
//! [`SpaceMeter`]: sc_stream::SpaceMeter

use crate::iter_set_cover::{iterations_for, offline_solve, sample_size_for, Goal};
use crate::partial::partial_setup;
use crate::projstore::ProjStore;
use crate::sampling::sample_from_bitset_into;
use crate::{IterSetCover, IterSetCoverConfig, IterationTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sc_bitset::{kernels, BitSet, HeapWords};
use sc_offline::OfflineSolver;
use sc_setsystem::{ElemId, SetId};
use sc_stream::{SetStream, SpaceMeter, Tracked};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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
    /// Projections stored when the pass last picked a heavy set: the
    /// ones stored after it lie inside the final `L`, so the oracle
    /// takes their lengths as their gains (see `offline_solve`).
    known_from: usize,
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
            known_from: 0,
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
        self.known_from = 0;
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
    /// to materialise the hit list. This is the only step that shrinks
    /// `L` in pass 1, so it moves the known-gain boundary.
    fn pass1_emit_heavy(&mut self, id: SetId, elems: &[ElemId]) {
        self.emit(id);
        self.heavy_picked += 1;
        self.known_from = self.projections.as_ref().expect("pass-1 state").get().len();
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
        match offline_solve(
            self.cfg.solver,
            &projections,
            self.known_from,
            &l_sample,
            &self.meter,
        ) {
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

    /// `true` when every sample this guess draws is its whole residual,
    /// so its run never touches the RNG (see the module docs).
    fn seed_free(&self) -> bool {
        self.sample_want >= self.universe
    }

    /// The finished guess's outcome, as a memo records it.
    fn into_record(self) -> GuessRecord {
        debug_assert_eq!(self.phase, Phase::Finished);
        GuessRecord {
            cover: self.result,
            passes: self.stream.passes(),
            peak: self.meter.peak(),
            traces: self.traces,
        }
    }
}

/// The scratch of the shared element walk: the gathered lane masks of
/// the current item, and one region of hit ids per lane the item
/// touches. Both grow to the largest item walked and are reused, so the
/// walk allocates nothing once warm. The hit regions hold at most
/// `lanes × |longest set|` ids. Each region is filled by
/// [`kernels::compact_lane`], whose vector path stores four ids per
/// step but never writes past the region's `|item|` slots (its write
/// cursor never passes its read position), so the regions need no
/// slack. Compacting every lane before visiting any is the faster of
/// the two layouts measured: in six interleaved `scan_profile` runs its
/// first-scan absorb took 16–26% less time than reusing one
/// `|longest set|` buffer lane by lane.
#[derive(Debug, Default)]
struct LaneWalk {
    /// `row[i]` = the lane mask of the item's `i`-th element.
    row: Vec<u64>,
    /// Per touched lane, in ascending lane order, an `|item|`-long
    /// region whose prefix holds that lane's hits.
    hits: Vec<ElemId>,
}

/// The lane numbers of `mask`'s set bits, ascending.
fn lanes_of(mask: u64) -> impl Iterator<Item = u32> {
    std::iter::successors(Some(mask), |&m| Some(m & m.wrapping_sub(1)))
        .take_while(|&m| m != 0)
        .map(u64::trailing_zeros)
}

impl LaneWalk {
    /// Walks one item over the transposed residual masks. Calls
    /// `visit(s, hits)` for every lane `s` that has at least one of
    /// `elems` in its residual, in ascending lane order, with `hits` =
    /// those elements in ascending order. When `visit` returns `true`
    /// the hits left lane `s`'s residual, so their bits leave
    /// `sample_mask` too.
    ///
    /// One gather pass loads every element's mask and ORs them; an item
    /// no lane touches costs nothing more. Each lane bit of the OR then
    /// takes one branch-free compaction pass over the gathered row
    /// ([`kernels::compact_lane`], vectorised on AVX2), so the walk
    /// does not branch once per lane hit. Lanes are distinct
    /// bits, so compacting them all before the first visit sees the
    /// same hits as visiting each right after its compaction.
    fn walk(
        &mut self,
        sample_mask: &mut [u64],
        elems: &[ElemId],
        mut visit: impl FnMut(usize, &[ElemId]) -> bool,
    ) {
        let len = elems.len();
        if self.row.len() < len {
            self.row.resize(len, 0);
        }
        let row = &mut self.row[..len];
        let mut any = 0u64;
        for (slot, &e) in row.iter_mut().zip(elems) {
            let m = sample_mask[e as usize];
            *slot = m;
            any |= m;
        }
        if any == 0 {
            return;
        }
        let regions = len * any.count_ones() as usize;
        if self.hits.len() < regions {
            self.hits.resize(regions, 0);
        }
        let mut counts = [0usize; 64];
        let compact = lanes_of(any).zip(self.hits.chunks_exact_mut(len));
        for ((s, region), count) in compact.zip(&mut counts) {
            *count = kernels::compact_lane(elems, row, s, region);
        }
        for ((s, region), &count) in lanes_of(any).zip(self.hits.chunks_exact(len)).zip(&counts) {
            let hits = &region[..count];
            if visit(s as usize, hits) {
                for &e in hits {
                    sample_mask[e as usize] &= !(1 << s);
                }
            }
        }
    }
}

/// What a guess's outcome depends on once its run is seed-free (see
/// the module docs): the configuration fields that shape its one
/// iteration, and `k`. `final_cleanup_pass` cannot matter either, as
/// the run never reaches a cleanup pass, but keying on it costs
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GuessKey {
    solver: OfflineSolver,
    final_cleanup_pass: bool,
    disable_size_test: bool,
    k: usize,
}

impl GuessKey {
    fn new(cfg: &IterSetCoverConfig, k: usize) -> Self {
        Self {
            solver: cfg.solver,
            final_cleanup_pass: cfg.final_cleanup_pass,
            disable_size_test: cfg.disable_size_test,
            k,
        }
    }
}

/// The recorded outcome of one finished guess.
#[derive(Debug, PartialEq, Eq)]
struct GuessRecord {
    /// The emitted cover, or `None` when the guess failed.
    cover: Option<Vec<SetId>>,
    /// Logical passes the guess logged.
    passes: usize,
    /// The guess's space peak in words.
    peak: usize,
    /// The guess's iteration traces.
    traces: Vec<IterationTrace>,
}

/// A memoized guess riding its recorded scans: it joins the next
/// `record.passes` scans on its own forked stream and does nothing
/// else.
struct Replay<'a> {
    k: usize,
    stream: SetStream<'a>,
    record: Arc<GuessRecord>,
    /// Scans ridden so far.
    rode: usize,
}

impl Replay<'_> {
    fn wants_scan(&self) -> bool {
        self.rode < self.record.passes
    }
}

/// The recorded outcomes of seed-free guesses over one repository —
/// see the module docs for when a guess is memoizable and why a replay
/// is bit-identical to a live run.
///
/// Shared by every driver over the repository that is built with
/// [`IterCoverDriver::replaying`]: a driver looks its memoizable
/// guesses up when it spawns them and records the live ones in
/// [`IterCoverDriver::finish_into`]. The memo holds one entry per
/// (solver, flags, memoizable `k`), so it needs no eviction: the
/// service runs one solver and one flag setting, so a repository
/// generation holds at most `log₂ n + 1` entries. A memo is only
/// valid for the repository it was filled from; drop it with the
/// repository.
#[derive(Debug, Default)]
pub struct GuessMemo {
    entries: Mutex<HashMap<GuessKey, Arc<GuessRecord>>>,
}

impl GuessMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recorded guesses.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<GuessKey, Arc<GuessRecord>>> {
        self.entries.lock().expect("guess memo poisoned")
    }

    fn get(&self, key: &GuessKey) -> Option<Arc<GuessRecord>> {
        self.lock().get(key).cloned()
    }

    /// Records a live guess's outcome. A key already present keeps its
    /// entry; in a debug build the two outcomes must agree, which
    /// checks the seed-free claim on every repeat.
    fn insert(&self, key: GuessKey, record: Arc<GuessRecord>) {
        let mut entries = self.lock();
        if let Some(stored) = entries.get(&key) {
            debug_assert_eq!(**stored, *record, "a seed-free guess diverged: {key:?}");
            return;
        }
        entries.insert(key, record);
    }
}

/// The multi-guess pass machine behind [`GuessExecutor::Multiplexed`](crate::GuessExecutor),
/// exposed so drivers other than [`IterSetCover`]'s own executor —
/// notably the `sc_service` scan scheduler — can advance an
/// `iterSetCover` query one shared physical scan at a time while
/// interleaving it with other queries on the same repository.
///
/// The driver owns one `GuessRun` state machine per guess `k = 2^i`
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
///     driver.absorb_items(stream.shared_pass(&driver.participants()));
///     driver.end_scan();                        // between-scan work
/// }
/// let (cover, traces) = driver.finish_into(&stream, &meter);
/// ```
///
/// The physical scan itself is the caller's: pass
/// [`participants`](Self::participants) to
/// [`SetStream::shared_pass`] (or [`sc_stream::ScanLedger::scan`]) so
/// every live guess logs its logical pass, then feed the items to
/// [`absorb_items`](Self::absorb_items). A scheduler serving many
/// queries simply concatenates the participant lists of all of its
/// drivers before one shared scan.
///
/// The traversal scratch (`sample_mask`, `lanes`, `solo` and the
/// walk's buffers) holds exactly the same bits as the guesses' own
/// (already-charged) residual bitmaps in transposed order, so it adds
/// nothing to the model's space accounting: it is the simulation's
/// layout of the parallel branches' state, not a new algorithmic
/// store. Besides the `n`-word mask, the walk keeps one gathered-mask
/// row (one `u64` per element of the longest set walked) and one hit
/// region per lane (at most `lanes × |longest set|` ids; the vector
/// compaction needs no slack past them).
///
/// # Replay
///
/// A driver built with [`replaying`](Self::replaying) shares a
/// [`GuessMemo`] with the other drivers over its repository. Each
/// memoizable guess — one with `sample_size_for(cfg, k, n, m) ≥ n`,
/// whose run never draws from the RNG — that the memo already holds is
/// replayed: it rides its recorded number of scans as a participant
/// and contributes its recorded cover, passes, space peak and traces
/// to [`finish_into`](Self::finish_into), which records the live
/// memoizable guesses in turn. Every observable stays bit-identical
/// to a memo-less run. The memo sits outside the space model: a
/// replayed guess is charged the peak its live run measured.
/// [`new`](Self::new) and [`partial`](Self::partial) build memo-less
/// drivers.
pub struct IterCoverDriver<'a> {
    guesses: Vec<GuessRun<'a>>,
    /// Memoized guesses riding their recorded scans, in guess order.
    replays: Vec<Replay<'a>>,
    /// Where live memoizable guesses are recorded at finish.
    memo: Option<&'a GuessMemo>,
    /// Guesses joining the current scan (indices into `guesses`),
    /// rebuilt by [`begin_scan`](Self::begin_scan).
    scanning: Vec<usize>,
    /// Scans this driver has fully completed (`end_scan` calls): the
    /// next scan it joins is logical pass `finished_scans + 1`.
    finished_scans: usize,
    /// Transposed residual bitmaps: `sample_mask[e]` has bit `s` set iff
    /// element `e` is in lane `s`'s residual.
    sample_mask: Vec<u64>,
    /// The per-item scratch of the shared element walk.
    walk: LaneWalk,
    /// Guesses sharing the element traversal this scan.
    lanes: Vec<(usize, Phase)>,
    /// Guesses walking items through their per-guess kernels instead.
    solo: Vec<usize>,
}

impl<'a> IterCoverDriver<'a> {
    /// Spawns all `log₂ n` guess machines, forking per-guess streams
    /// and meters from `stream` / `meter` (the query's parent handles,
    /// absorbed back by [`finish_into`](Self::finish_into)).
    pub fn new(cfg: &IterSetCoverConfig, stream: &SetStream<'a>, meter: &SpaceMeter) -> Self {
        Self::with_goal(cfg, Goal::FULL, stream, meter, None)
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
        Self::with_goal(&cfg, goal, stream, meter, None)
    }

    /// [`new`](Self::new) (`required == None`) or
    /// [`partial`](Self::partial) (`Some(required)`) over a shared
    /// [`GuessMemo`] of `stream`'s repository: memoizable guesses the
    /// memo holds are replayed, and the live ones are recorded at
    /// [`finish_into`](Self::finish_into). Bit-identical to the
    /// memo-less driver.
    pub fn replaying(
        cfg: &IterSetCoverConfig,
        required: Option<usize>,
        stream: &SetStream<'a>,
        meter: &SpaceMeter,
        memo: &'a GuessMemo,
    ) -> Self {
        // The memo key leaves δ out because δ ≤ 1 runs every guess's
        // first iteration (see the module docs).
        assert!(
            cfg.delta > 0.0 && cfg.delta <= 1.0,
            "δ must lie in (0, 1], got {}",
            cfg.delta
        );
        match required {
            None => Self::with_goal(cfg, Goal::FULL, stream, meter, Some(memo)),
            Some(required) => {
                let (cfg, goal) = partial_setup(cfg, stream.universe(), required);
                Self::with_goal(&cfg, goal, stream, meter, Some(memo))
            }
        }
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
        memo: Option<&'a GuessMemo>,
    ) -> Self {
        let (n, m) = (stream.universe(), stream.num_sets());
        let mut guesses = Vec::new();
        let mut replays = Vec::new();
        if !goal.met(n) {
            let mut i = 0u32;
            loop {
                let k = 1usize << i;
                let recorded = memo
                    .filter(|_| sample_size_for(cfg, k, n, m) >= n)
                    .and_then(|memo| memo.get(&GuessKey::new(cfg, k)));
                match recorded {
                    Some(record) => replays.push(Replay {
                        k,
                        stream: stream.fork(),
                        record,
                        rode: 0,
                    }),
                    None => guesses.push(GuessRun::new(cfg, goal, k, stream, meter)),
                }
                if k >= n {
                    break;
                }
                i += 1;
            }
        }
        Self {
            sample_mask: vec![0; if guesses.is_empty() { 0 } else { n }],
            guesses,
            replays,
            memo,
            scanning: Vec::new(),
            finished_scans: 0,
            walk: LaneWalk::default(),
            lanes: Vec::new(),
            solo: Vec::new(),
        }
    }

    /// `true` while at least one guess still needs a physical scan.
    /// Every scan the driver joins must include every guess that wants
    /// one, so physical scans = max logical passes.
    pub fn wants_scan(&self) -> bool {
        self.guesses.iter().any(GuessRun::wants_scan) || self.replays.iter().any(Replay::wants_scan)
    }

    /// Guesses this driver replays from its memo instead of running.
    pub fn replayed_guesses(&self) -> usize {
        self.replays.len()
    }

    /// The 1-based index of the logical pass the query needs next — the
    /// tag a pass-aligned scheduler matches against the scan it plans
    /// to splice this query into (a fresh driver reports `1`).
    /// Meaningful while [`wants_scan`](Self::wants_scan) is `true`; it
    /// stops advancing once every guess finished.
    pub fn pass_index(&self) -> usize {
        self.finished_scans + 1
    }

    /// Prepares the next scan: collects the participating guesses and
    /// builds the transposed residual masks for traversal sharing.
    ///
    /// Lanes: guesses sharing the element traversal this round — a
    /// pass-1 lane's residual is its leftover sample `L` (equal to
    /// the fresh sample at scan start), a cleanup lane's residual is
    /// its straggler set `live`. One shared walk of the repository
    /// feeds every lane (the repository is memory-bound, so walking
    /// it once beats walking it per guess even for dense residuals);
    /// a lone lane goes solo through the gather kernel instead,
    /// skipping the mask rebuild. Bit `s` of `sample_mask[e]` stands
    /// for lane `s`, and the walk visits an item's lanes in ascending
    /// `s`, the order they are pushed here, which is guess order. The
    /// mask is charged to nobody: the walk keeps it equal to the lanes'
    /// own residuals (a debug build checks every hit list against
    /// them). `u64` lanes always suffice: there are at most
    /// log2(usize::MAX) + 1 = 64 guesses.
    pub fn begin_scan(&mut self) {
        self.scanning.clear();
        self.lanes.clear();
        self.solo.clear();
        for (g, guess) in self.guesses.iter().enumerate() {
            match guess.phase {
                Phase::Finished => continue,
                Phase::Pass1 | Phase::Cleanup => self.lanes.push((g, guess.phase)),
                Phase::Pass2 => self.solo.push(g),
            }
            self.scanning.push(g);
        }
        debug_assert!(self.wants_scan(), "begin_scan on a finished driver");
        if self.lanes.len() < 2 {
            let lone = self.lanes.drain(..).map(|(g, _)| g);
            self.solo.extend(lone);
        }
        if self.lanes.is_empty() {
            return;
        }
        assert!(
            self.lanes.len() <= 64,
            "more than 64 parallel guesses cannot occur"
        );
        self.sample_mask.fill(0);
        for (s, &(g, phase)) in self.lanes.iter().enumerate() {
            let guess = &self.guesses[g];
            match phase {
                Phase::Pass1 => {
                    // At scan start L equals the freshly drawn sample.
                    let sample = guess.sample.as_ref().expect("pass-1 state");
                    for &e in sample.get().iter() {
                        self.sample_mask[e as usize] |= 1 << s;
                    }
                }
                Phase::Cleanup => {
                    let live = guess.live.as_ref().expect("live until finish");
                    for e in live.get().ones() {
                        self.sample_mask[e as usize] |= 1 << s;
                    }
                }
                _ => unreachable!("only pass-1 and cleanup guesses become lanes"),
            }
        }
    }

    /// The forked streams of the guesses joining the current scan, the
    /// live ones first, then the replayed ones — hand these to
    /// [`SetStream::shared_pass`] (or [`sc_stream::ScanLedger::scan`])
    /// so each logs its logical pass. Valid after
    /// [`begin_scan`](Self::begin_scan).
    pub fn participants(&self) -> Vec<&SetStream<'a>> {
        let live = self.scanning.iter().map(|&g| &self.guesses[g].stream);
        let replayed = self.replays.iter().filter(|r| r.wants_scan());
        live.chain(replayed.map(|r| &r.stream)).collect()
    }

    /// Feeds a run of stream items to every participating guess — one
    /// whole scan, or one shard of a sharded zero-copy feed
    /// ([`sc_stream::ShardedPass`]). Items must arrive in repository
    /// order across the calls of one scan; feeding a scan as
    /// consecutive shard iterators satisfies that.
    pub fn absorb_items(&mut self, items: impl IntoIterator<Item = (SetId, &'a [ElemId])>) {
        if self.lanes.is_empty() && self.solo.is_empty() {
            return; // only replays ride this scan
        }
        for (id, elems) in items {
            self.absorb(id, elems);
        }
    }

    /// Feeds one stream item: one walk over its elements serves every
    /// lane, then each solo guess absorbs it through its own kernels.
    fn absorb(&mut self, id: SetId, elems: &[ElemId]) {
        if !self.lanes.is_empty() {
            let (lanes, guesses) = (&self.lanes, &mut self.guesses);
            self.walk.walk(&mut self.sample_mask, elems, |s, hits| {
                let (g, phase) = lanes[s];
                let guess = &mut guesses[g];
                match phase {
                    Phase::Pass1 => {
                        debug_assert_eq!(
                            hits.len(),
                            guess
                                .l_sample
                                .as_ref()
                                .expect("pass-1 state")
                                .get()
                                .intersection_count_slice(elems),
                            "lane {s}'s mask drifted from guess k={}'s L",
                            guess.k
                        );
                        if guess.is_heavy(hits.len()) {
                            // Removing the hits (= elems ∩ L) is what
                            // the heavy pick does to L.
                            guess.pass1_emit_heavy(id, hits);
                            true
                        } else {
                            guess.pass1_store(id, hits);
                            false
                        }
                    }
                    Phase::Cleanup => {
                        debug_assert!(
                            {
                                let live = guess.live.as_ref().expect("live until finish").get();
                                hits.iter().all(|&e| live.contains(e))
                                    && hits.len() == live.intersection_count_slice(elems)
                            },
                            "lane {s}'s mask drifted from guess k={}'s stragglers",
                            guess.k
                        );
                        // Past the goal the lane still hits, but emits
                        // nothing more.
                        !guess.swept && guess.cleanup_hit(id, elems)
                    }
                    _ => unreachable!("only pass-1 and cleanup guesses become lanes"),
                }
            });
        }
        for &g in &self.solo {
            self.guesses[g].absorb(id, elems);
        }
    }

    /// Runs every participating guess's between-scan transition
    /// (offline solves, iteration bookkeeping, phase changes) after the
    /// caller exhausted the scan's items.
    pub fn end_scan(&mut self) {
        for &g in &self.scanning {
            self.guesses[g].end_scan();
        }
        for replay in self.replays.iter_mut().filter(|r| r.wants_scan()) {
            replay.rode += 1;
        }
        self.finished_scans += 1;
    }

    /// Merges the finished guesses exactly as the sequential executor
    /// does and absorbs their pass counts (max) and space peaks (sum)
    /// into the parent stream and meter the driver was created from.
    /// Returns the best cover and the concatenated iteration traces.
    /// A replaying driver also records its live memoizable guesses.
    ///
    /// Merge order is guess order (`k` ascending, matching the
    /// sequential paths), live and replayed guesses alike: traces
    /// concatenate to the identical sequence, and ties in the
    /// best-cover comparison resolve identically (the first minimal
    /// cover wins).
    pub fn finish_into(
        self,
        stream: &SetStream<'a>,
        meter: &SpaceMeter,
    ) -> (Vec<SetId>, Vec<IterationTrace>) {
        let mut records = Vec::with_capacity(self.guesses.len() + self.replays.len());
        for guess in self.guesses {
            let key = guess
                .seed_free()
                .then(|| GuessKey::new(&guess.cfg, guess.k));
            let k = guess.k;
            let record = Arc::new(guess.into_record());
            if let (Some(memo), Some(key)) = (self.memo, key) {
                memo.insert(key, Arc::clone(&record));
            }
            records.push((k, record));
        }
        for replay in self.replays {
            debug_assert_eq!(replay.stream.passes(), replay.record.passes);
            records.push((replay.k, replay.record));
        }
        records.sort_unstable_by_key(|&(k, _)| k);
        stream.absorb_parallel(records.iter().map(|(_, r)| r.passes));
        meter.absorb_parallel(records.iter().map(|(_, r)| r.peak));
        let mut best: Option<&[SetId]> = None;
        let mut traces = Vec::new();
        for (_, record) in &records {
            traces.extend_from_slice(&record.traces);
            if let Some(sol) = &record.cover {
                if best.is_none_or(|b| sol.len() < b.len()) {
                    best = Some(sol);
                }
            }
        }
        (best.map(<[SetId]>::to_vec).unwrap_or_default(), traces)
    }
}

/// Drives all guesses of one ε-partial `iterSetCover` query through
/// shared physical scans: a newtype over [`IterCoverDriver::partial`]
/// whose [`finish_into`](Self::finish_into) returns the cover alone.
/// It stays only because servebench's solo-replay oracle calls it; the
/// service builds its partial jobs on [`IterCoverDriver::replaying`].
///
/// Of [`IterSetCoverConfig`], the fields that apply are `delta`,
/// `seed`, `sample_constant` and `paper_constants`. The partial variant
/// fixes the rest: the greedy oracle (`solver`), the size test on
/// (`disable_size_test = false`), and the goal sweep always
/// (`final_cleanup_pass = true`); `executor` does not apply.
pub struct PartialCoverDriver<'a>(IterCoverDriver<'a>);

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
        Self(IterCoverDriver::partial(cfg, required, stream, meter))
    }

    /// See [`IterCoverDriver::wants_scan`].
    pub fn wants_scan(&self) -> bool {
        self.0.wants_scan()
    }

    /// See [`IterCoverDriver::pass_index`].
    pub fn pass_index(&self) -> usize {
        self.0.pass_index()
    }

    /// See [`IterCoverDriver::begin_scan`].
    pub fn begin_scan(&mut self) {
        self.0.begin_scan();
    }

    /// See [`IterCoverDriver::participants`].
    pub fn participants(&self) -> Vec<&SetStream<'a>> {
        self.0.participants()
    }

    /// See [`IterCoverDriver::absorb_items`].
    pub fn absorb_items(&mut self, items: impl IntoIterator<Item = (SetId, &'a [ElemId])>) {
        self.0.absorb_items(items);
    }

    /// See [`IterCoverDriver::end_scan`].
    pub fn end_scan(&mut self) {
        self.0.end_scan();
    }

    /// Merges the finished guesses and returns the cover; see
    /// [`IterCoverDriver::finish_into`] for the merge rule.
    pub fn finish_into(self, stream: &SetStream<'a>, meter: &SpaceMeter) -> Vec<SetId> {
        self.0.finish_into(stream, meter).0
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

#[cfg(test)]
mod tests {
    use super::*;
    use sc_setsystem::gen;

    /// Runs one query on the driver the way the service does, asserting
    /// the scan-protocol invariants per scan, and checks the merge and
    /// absorb rule of `finish_into` against the guesses' own figures.
    /// Returns how many scans saw the participant list shrink.
    fn drive_and_check<'a>(mut driver: IterCoverDriver<'a>, root: &SetStream<'a>) -> usize {
        let meter = SpaceMeter::new();
        let (mut physical, mut drops) = (0, 0);
        let mut last = usize::MAX;
        while driver.wants_scan() {
            driver.begin_scan();
            let joining = driver.participants().len();
            let live = driver.guesses.iter().filter(|g| g.wants_scan()).count();
            assert_eq!(joining, live, "every unfinished guess joins, no other");
            assert!(joining <= last, "the scanning list never grows");
            drops += usize::from(joining < last && last != usize::MAX);
            last = joining;
            driver.absorb_items(root.shared_pass(&driver.participants()));
            driver.end_scan();
            physical += 1;
        }
        assert_eq!(driver.pass_index() - 1, physical, "epochs_joined source");
        let passes: Vec<usize> = driver.guesses.iter().map(|g| g.stream.passes()).collect();
        assert_eq!(passes.iter().max().copied().unwrap_or(0), physical);
        let peak_sum: usize = driver.guesses.iter().map(|g| g.meter.peak()).sum();
        let first_min = driver
            .guesses
            .iter()
            .filter_map(|g| g.result.clone())
            .min_by_key(Vec::len)
            .unwrap_or_default();
        let parent = root.fork();
        let (cover, _) = driver.finish_into(&parent, &meter);
        assert_eq!(parent.passes(), physical, "parent absorbs the max");
        assert_eq!(meter.peak(), peak_sum, "parent absorbs the summed peaks");
        assert_eq!(cover, first_min, "first minimal cover in guess order");
        drops
    }

    #[test]
    fn scans_passes_and_peaks_follow_the_merge_rule() {
        let inst = gen::planted(256, 512, 8, 7);
        let root = SetStream::new(&inst.system);
        let mut drops = 0;
        for delta in [0.5, 1.0] {
            let cfg = IterSetCoverConfig {
                delta,
                ..Default::default()
            };
            let meter = SpaceMeter::new();
            drops += drive_and_check(IterCoverDriver::new(&cfg, &root, &meter), &root);
            let partial = IterCoverDriver::partial(&cfg, 200, &root, &meter);
            drops += drive_and_check(partial, &root);
        }
        assert!(drops > 0, "some guess finishes before the last scan");
    }

    /// Everything a driver run shows the outside: per scan its pass
    /// index and participant count, then the merged cover, traces,
    /// parent passes and parent meter peak.
    #[derive(Debug, PartialEq)]
    struct Observed {
        scans: Vec<(usize, usize)>,
        cover: Vec<SetId>,
        traces: Vec<IterationTrace>,
        passes: usize,
        peak: usize,
    }

    fn observe<'a>(
        mut driver: IterCoverDriver<'a>,
        root: &SetStream<'a>,
        meter: &SpaceMeter,
    ) -> Observed {
        let mut scans = Vec::new();
        while driver.wants_scan() {
            driver.begin_scan();
            scans.push((driver.pass_index(), driver.participants().len()));
            driver.absorb_items(root.shared_pass(&driver.participants()));
            driver.end_scan();
        }
        let parent = root.fork();
        let (cover, traces) = driver.finish_into(&parent, meter);
        Observed {
            scans,
            cover,
            traces,
            passes: parent.passes(),
            peak: meter.peak(),
        }
    }

    /// `None` = full cover, `Some(ε)` = ε-partial.
    fn spawn<'a>(
        cfg: &IterSetCoverConfig,
        epsilon: Option<f64>,
        root: &SetStream<'a>,
        meter: &SpaceMeter,
        memo: Option<&'a GuessMemo>,
    ) -> IterCoverDriver<'a> {
        let required = epsilon.map(|eps| crate::coverage_goal(root.universe(), eps));
        match (memo, required) {
            (Some(memo), required) => IterCoverDriver::replaying(cfg, required, root, meter, memo),
            (None, None) => IterCoverDriver::new(cfg, root, meter),
            (None, Some(required)) => IterCoverDriver::partial(cfg, required, root, meter),
        }
    }

    #[test]
    fn replaying_drivers_equal_memo_less_ones() {
        for (inst_seed, (n, m, k)) in [(3, (256, 512, 8)), (5, (300, 450, 12))] {
            let inst = gen::planted(n, m, k, inst_seed);
            let root = SetStream::new(&inst.system);
            let memo = GuessMemo::new();
            let mut replayed = 0;
            for delta in [0.25, 0.5, 1.0] {
                for epsilon in [None, Some(0.05), Some(0.1)] {
                    for seed in 0..6u64 {
                        let cfg = IterSetCoverConfig {
                            delta,
                            seed: seed * 7919 + 1,
                            ..Default::default()
                        };
                        let label = format!("n={n} δ={delta} ε={epsilon:?} seed={seed}");
                        let (a, b) = (SpaceMeter::new(), SpaceMeter::new());
                        let solo = observe(spawn(&cfg, epsilon, &root, &a, None), &root, &a);
                        let driver = spawn(&cfg, epsilon, &root, &b, Some(&memo));
                        let replays = driver.replayed_guesses();
                        if seed > 0 && delta == 1.0 {
                            // Every guess samples its whole residual at δ = 1.
                            assert!(driver.guesses.is_empty() && replays > 0, "{label}");
                        }
                        replayed += replays;
                        assert_eq!(observe(driver, &root, &b), solo, "{label}");
                    }
                }
            }
            assert!(replayed > 0, "n={n}: some guess was replayed");
        }
    }

    #[test]
    fn concurrent_live_runs_of_one_guess_record_it_once() {
        let inst = gen::planted(256, 512, 8, 7);
        let root = SetStream::new(&inst.system);
        let memo = GuessMemo::new();
        let cfg = |seed| IterSetCoverConfig {
            seed,
            ..Default::default()
        };
        let (a, b) = (SpaceMeter::new(), SpaceMeter::new());
        // Both spawn before either finishes: both run every guess live,
        // and the second finish re-inserts (and, in debug, re-checks)
        // every seed-free key the first recorded.
        let first = spawn(&cfg(1), None, &root, &a, Some(&memo));
        let second = spawn(&cfg(2), None, &root, &b, Some(&memo));
        assert_eq!(first.replayed_guesses() + second.replayed_guesses(), 0);
        observe(first, &root, &a);
        let recorded = memo.len();
        assert!(recorded > 0);
        observe(second, &root, &b);
        assert_eq!(memo.len(), recorded, "same keys, no second entry");
    }

    #[test]
    fn only_seed_free_guesses_enter_the_memo() {
        let inst = gen::planted(512, 1024, 16, 9);
        let root = SetStream::new(&inst.system);
        let (n, m) = (root.universe(), root.num_sets());
        for delta in [0.25, 0.5, 0.75, 1.0] {
            let memo = GuessMemo::new();
            let cfg = IterSetCoverConfig {
                delta,
                ..Default::default()
            };
            for epsilon in [None, Some(0.1)] {
                let meter = SpaceMeter::new();
                observe(
                    spawn(&cfg, epsilon, &root, &meter, Some(&memo)),
                    &root,
                    &meter,
                );
            }
            let entries = memo.lock();
            assert!(!entries.is_empty(), "δ={delta}");
            for key in entries.keys() {
                assert!(sample_size_for(&cfg, key.k, n, m) >= n, "δ={delta} {key:?}");
            }
            if delta == 0.25 {
                // n^δ ≈ 4.8 at n = 512, so only k ≥ 107 are seed-free.
                assert!(entries.keys().all(|key| key.k >= 128));
            }
        }
    }

    /// The memo key leaves δ and the goal out: entries recorded by
    /// δ = 0.5 full-cover queries serve full-cover queries at other δ
    /// and ε-partial queries alike, bit-identically.
    #[test]
    fn one_memo_serves_every_delta_and_goal() {
        let inst = gen::planted(300, 450, 12, 5);
        let root = SetStream::new(&inst.system);
        let (n, m) = (root.universe(), root.num_sets());
        let cfg = |delta, seed| IterSetCoverConfig {
            delta,
            seed,
            ..Default::default()
        };
        // The guesses k = 1, 2, 4, … up to the first k ≥ n.
        let guesses = std::iter::successors(Some(1usize), |&k| (k < n).then_some(2 * k));
        let seed_free = |delta| {
            guesses
                .clone()
                .filter(|&k| sample_size_for(&cfg(delta, 0), k, n, m) >= n)
                .collect::<Vec<_>>()
        };
        let filled = seed_free(0.5);
        assert!(!filled.is_empty());
        let queries = [
            (0.25, None),
            (1.0, None),
            (0.25, Some(0.1)),
            (0.5, Some(0.1)),
            (1.0, Some(0.1)),
        ];
        for (delta, epsilon) in queries {
            for seed in [3, 11] {
                let memo = GuessMemo::new();
                for fill_seed in [101, 102] {
                    let meter = SpaceMeter::new();
                    let driver = spawn(&cfg(0.5, fill_seed), None, &root, &meter, Some(&memo));
                    observe(driver, &root, &meter);
                }
                assert_eq!(memo.len(), filled.len());
                let label = format!("δ={delta} ε={epsilon:?} seed={seed}");
                let want = seed_free(delta)
                    .iter()
                    .filter(|k| filled.contains(k))
                    .count();
                assert!(want > 0, "{label}");
                let (a, b) = (SpaceMeter::new(), SpaceMeter::new());
                let solo = observe(
                    spawn(&cfg(delta, seed), epsilon, &root, &a, None),
                    &root,
                    &a,
                );
                let driver = spawn(&cfg(delta, seed), epsilon, &root, &b, Some(&memo));
                assert_eq!(driver.replayed_guesses(), want, "{label}");
                assert_eq!(observe(driver, &root, &b), solo, "{label}");
            }
        }
    }

    /// The per-hit push loop the gathered-mask walk replaced, kept as
    /// its reference: every set mask bit pushes the element onto its
    /// lane's hit list, then the non-empty lanes are visited in order.
    fn reference_walk(
        sample_mask: &mut [u64],
        elems: &[ElemId],
        mut visit: impl FnMut(usize, &[ElemId]) -> bool,
    ) {
        let mut lane_hits = vec![Vec::new(); 64];
        for &e in elems {
            let mut m = sample_mask[e as usize];
            while m != 0 {
                lane_hits[m.trailing_zeros() as usize].push(e);
                m &= m - 1;
            }
        }
        for (s, hits) in lane_hits.iter().enumerate() {
            if !hits.is_empty() && visit(s, hits) {
                for &e in hits {
                    sample_mask[e as usize] &= !(1 << s);
                }
            }
        }
    }

    #[test]
    fn the_gathered_mask_walk_equals_the_per_hit_push_loop() {
        use rand::{RngCore, RngExt};
        let mut rng = StdRng::seed_from_u64(25);
        let mut walk = LaneWalk::default();
        let mut edge_lanes_hit = [false; 2];
        for round in 0..40 {
            let n = rng.random_range(1..300usize);
            // A random set of lanes, always with the edge bits 0 and 63.
            let lanes = rng.next_u64() | 1 | 1 << 63;
            // Each element is in each lane with its own density; about
            // a quarter of the elements are in no lane at all.
            let mask: Vec<u64> = (0..n)
                .map(|_| {
                    if rng.random_bool(0.25) {
                        0
                    } else {
                        lanes & rng.next_u64() & rng.next_u64()
                    }
                })
                .collect();
            let items: Vec<Vec<ElemId>> = (0..50)
                .map(|_| {
                    let density = [0.0, 0.02, 0.2, 0.9][rng.random_range(0..4usize)];
                    (0..n as ElemId)
                        .filter(|_| rng.random_bool(density))
                        .collect()
                })
                .collect();
            // Lanes shrink mid-scan on some hits; the decision depends
            // only on what the visit sees, so both walks make the same.
            let shrinks =
                |s: usize, hits: &[ElemId]| (s + hits.len() + hits[0] as usize).is_multiple_of(3);
            let (mut got, mut want) = (mask.clone(), mask);
            let (mut got_visits, mut want_visits) = (Vec::new(), Vec::new());
            for (i, elems) in items.iter().enumerate() {
                walk.walk(&mut got, elems, |s, hits| {
                    got_visits.push((i, s, hits.to_vec()));
                    shrinks(s, hits)
                });
                reference_walk(&mut want, elems, |s, hits| {
                    want_visits.push((i, s, hits.to_vec()));
                    shrinks(s, hits)
                });
            }
            assert_eq!(got_visits, want_visits, "round {round}");
            assert_eq!(got, want, "round {round}: masks after the scan");
            for (_, s, _) in &want_visits {
                edge_lanes_hit[0] |= *s == 0;
                edge_lanes_hit[1] |= *s == 63;
            }
        }
        assert_eq!(edge_lanes_hit, [true, true]);
    }

    /// A heavy pick that takes an element of a projection stored
    /// before it: that projection's gain is below its length, so the
    /// oracle must count it. With n = 8 and δ = 1 the sample is the
    /// whole universe, and guess k = 2 has threshold 4. It stores
    /// {0, 1} and {2, 3, 4}, picks {4, 5, 6, 7} as heavy, then stores
    /// {0, 2} ∩ L = {0, 2}. Counted, the first two tie at gain 2 and
    /// the oracle picks {0, 1} first. Taking the stored length 3 as
    /// the gain of {2, 3, 4} would pick it first.
    #[test]
    fn a_heavy_pick_that_shrinks_a_stored_projection_keeps_its_gain_counted() {
        let system = sc_setsystem::SetSystem::from_sets(
            8,
            vec![vec![0, 1], vec![2, 3, 4], vec![4, 5, 6, 7], vec![0, 2]],
        );
        let root = SetStream::new(&system);
        let cfg = IterSetCoverConfig {
            delta: 1.0,
            ..Default::default()
        };
        let meter = SpaceMeter::new();
        let mut driver = IterCoverDriver::new(&cfg, &root, &meter);
        while driver.wants_scan() {
            driver.begin_scan();
            if driver.pass_index() == 1 {
                assert!(driver.lanes.len() > 1, "pass 1 takes the shared walk");
            }
            driver.absorb_items(root.shared_pass(&driver.participants()));
            driver.end_scan();
        }
        for guess in &driver.guesses {
            let (stream, meter) = (root.fork(), SpaceMeter::new());
            let mut traces = Vec::new();
            let sequential = crate::iter_set_cover::run_guess(
                &cfg,
                Goal::FULL,
                guess.k,
                &stream,
                &meter,
                &mut traces,
            );
            assert_eq!(guess.result, sequential, "k={}: executors differ", guess.k);
            assert_eq!(guess.traces, traces, "k={}", guess.k);
        }
        let k2 = &driver.guesses[1];
        assert_eq!(k2.k, 2);
        let trace = k2.traces[0];
        assert_eq!((trace.heavy_picked, trace.small_stored), (1, 3));
        assert_eq!(
            k2.result,
            Some(vec![2, 0, 1]),
            "heavy pick, then {{0,1}}, {{2,3,4}}"
        );
    }

    #[test]
    fn a_query_met_by_the_empty_cover_scans_nothing() {
        let inst = gen::planted(64, 64, 4, 1);
        let root = SetStream::new(&inst.system);
        let meter = SpaceMeter::new();
        let driver = IterCoverDriver::partial(&IterSetCoverConfig::default(), 0, &root, &meter);
        assert!(!driver.wants_scan());
        assert_eq!(drive_and_check(driver, &root), 0);
    }
}
