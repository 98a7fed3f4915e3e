//! `iterSetCover` — the paper's main algorithm (Figure 1.3).
//!
//! One run with the correct guess `k ∈ [|OPT|, 2|OPT|)` performs `1/δ`
//! iterations of two passes each:
//!
//! 1. **Pass 1** — draw a uniform sample `S` of the uncovered elements;
//!    stream the family. A set covering at least `|S|/k` still-uncovered
//!    *sampled* elements is **heavy**: emit it immediately (no storage).
//!    A set covering fewer is **small**: store its projection onto the
//!    sample explicitly. Afterwards, run `algOfflineSC` on the stored
//!    projections to cover the rest of the sample.
//! 2. **Pass 2** — recompute the uncovered set (the algorithm only knows
//!    what its picks cover on the *sample*, not on the full ground set).
//!
//! Because `S` is a relative `(2/n^δ, ½)`-approximation for the family
//! of possible residuals (Lemma 2.6), each iteration shrinks the
//! uncovered set by a factor `n^δ` with high probability, so `1/δ`
//! iterations finish the job with `O(ρk)` sets per iteration —
//! Theorem 2.8's `O(ρ/δ)` approximation in `2/δ` passes and `Õ(mn^δ)`
//! space.
//!
//! The guess `k` is unknown, so all `log n` powers of two run "in
//! parallel"; the harness accounts passes as the maximum and space as
//! the sum across guesses, exactly as the paper does. By default the
//! guesses are also *executed* in parallel — the multiplexed driver in
//! [`crate::multiplex`] advances every guess's state machine through
//! one shared physical scan per logical pass, so wall-clock matches the
//! model instead of paying the `log₂ n` sequential-replay factor; set
//! [`GuessExecutor::Sequential`] to run the reference executor.

use crate::projstore::ProjStore;
use crate::sampling::{iter_set_cover_sample_size, sample_from_bitset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sc_bitset::{BitSet, HeapWords};
use sc_offline::OfflineSolver;
use sc_setsystem::{ElemId, SetId};
use sc_stream::{SetStream, SpaceMeter, StreamingSetCover, Tracked};

/// How the `log₂ n` parallel guesses are physically executed.
///
/// Both executors are observationally identical — same covers, same
/// logical pass counts, same per-guess space peaks (pinned by the
/// `multiplex_equivalence` integration test) — they differ only in
/// wall-clock cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuessExecutor {
    /// Reference executor: each guess forks the stream and performs its
    /// own `2/δ + 1` physical scans, one guess after another — a factor
    /// `log₂ n` more physical scans than the model charges.
    Sequential,
    /// One shared physical scan per logical pass advances every live
    /// guess's state machine at once ([`SetStream::shared_pass`]), the
    /// way the paper's "do in parallel" actually executes. Hot paths
    /// run on the word-batched `sc_bitset` slice kernels.
    #[default]
    Multiplexed,
}

/// Configuration of [`IterSetCover`].
#[derive(Debug, Clone, Copy)]
pub struct IterSetCoverConfig {
    /// The trade-off parameter δ ∈ (0, 1]: `2/δ` passes, `Õ(mn^δ)` space.
    pub delta: f64,
    /// The offline oracle `algOfflineSC` (ρ = 1 exact or ρ = ln n greedy).
    pub solver: OfflineSolver,
    /// RNG seed; every run is deterministic given the seed.
    pub seed: u64,
    /// The constant `c` in the sample size of Figure 1.3.
    pub sample_constant: f64,
    /// Sample-size regime. `true` uses the paper's literal
    /// `c·ρ·k·n^δ·log₂m·log₂n` (which exceeds `n` at laptop scale and
    /// collapses the sample to the whole residual — correct, but it
    /// hides the space/pass trade-off). `false` uses `c·k·n^δ`, the same
    /// `n^δ` scaling with the polylog and ρ factors absorbed into `c`,
    /// which is what the benchmarks sweep. See EXPERIMENTS.md.
    pub paper_constants: bool,
    /// Add one final pass that covers any stragglers left after the
    /// `1/δ` iterations (one arbitrary covering set per element, the
    /// Section 4.2 trick). Without it a guess that fails to finish is
    /// discarded entirely.
    pub final_cleanup_pass: bool,
    /// Ablation switch: disable the "Size Test" of Figure 1.3, storing
    /// *every* intersecting set's projection and covering the sample
    /// purely offline. The paper's design insight is that emitting heavy
    /// sets immediately is what keeps the stored projections small
    /// (`O(|S|/k)` ids each); with the test off, projections of heavy
    /// sets are stored whole and the footprint balloons — experiment
    /// E12 measures by how much.
    pub disable_size_test: bool,
    /// Physical execution strategy for the parallel guesses; the
    /// default multiplexed executor shares one scan per logical pass.
    pub executor: GuessExecutor,
}

impl Default for IterSetCoverConfig {
    fn default() -> Self {
        Self {
            delta: 0.5,
            solver: OfflineSolver::Greedy,
            seed: 0,
            sample_constant: 1.0,
            paper_constants: false,
            final_cleanup_pass: true,
            disable_size_test: false,
            executor: GuessExecutor::default(),
        }
    }
}

/// Measurements from one iteration of one guess, for the Lemma 2.3/2.6
/// diagnostics (experiment E3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationTrace {
    /// The guess of `|OPT|` this execution branch is running with.
    pub k: usize,
    /// Iteration number within the guess, from 0.
    pub iteration: usize,
    /// Uncovered elements when the iteration began.
    pub uncovered_before: usize,
    /// Sample size actually drawn (after clamping to the residual).
    pub sample_size: usize,
    /// Sets emitted by the size test (heavy sets).
    pub heavy_picked: usize,
    /// Small-set projections stored in memory.
    pub small_stored: usize,
    /// Words of projection storage at the iteration's peak.
    pub projection_words: usize,
    /// Sets emitted by the offline oracle.
    pub offline_picked: usize,
    /// Uncovered elements after pass 2.
    pub uncovered_after: usize,
}

/// The `iterSetCover` streaming algorithm (Figure 1.3, Theorem 2.8).
///
/// # Examples
///
/// ```
/// use sc_core::{IterSetCover, IterSetCoverConfig};
/// use sc_setsystem::gen;
/// use sc_stream::run_reported;
///
/// let inst = gen::planted(256, 512, 8, 7);
/// let mut alg = IterSetCover::new(IterSetCoverConfig::default());
/// let report = run_reported(&mut alg, &inst.system);
/// assert!(report.verified.is_ok());
/// // 2/δ passes plus the cleanup pass at most, per parallel accounting.
/// assert!(report.passes <= 5);
/// ```
#[derive(Debug)]
pub struct IterSetCover {
    cfg: IterSetCoverConfig,
    /// Per-iteration diagnostics for every guess, filled in by `run`.
    pub traces: Vec<IterationTrace>,
}

impl IterSetCover {
    /// Creates the algorithm with the given configuration.
    pub fn new(cfg: IterSetCoverConfig) -> Self {
        assert!(
            cfg.delta > 0.0 && cfg.delta <= 1.0,
            "delta must be in (0,1]"
        );
        assert!(cfg.sample_constant > 0.0);
        Self {
            cfg,
            traces: Vec::new(),
        }
    }

    /// Convenience constructor: default config with the given δ.
    pub fn with_delta(delta: f64) -> Self {
        Self::new(IterSetCoverConfig {
            delta,
            ..Default::default()
        })
    }

    /// Number of iterations per guess, `⌈1/δ⌉`.
    pub fn iterations(&self) -> usize {
        iterations_for(&self.cfg)
    }

    /// The active configuration.
    pub fn cfg(&self) -> &IterSetCoverConfig {
        &self.cfg
    }
}

/// What a query asks of its guesses beyond the configuration: how many
/// elements a finished guess may leave uncovered, and the per-guess
/// seed formula of the query kind. Full cover and the ε-partial variant
/// run the same guess loop and the same guess machine; only this
/// differs (plus the configuration fields the partial variant fixes,
/// see [`crate::PartialIterSetCover`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Goal {
    /// `n − required`: the residual a guess may stop at (0 = full cover).
    pub(crate) allowed: usize,
    /// Per-guess RNG seed, `seed(cfg.seed, k)`.
    pub(crate) seed: fn(u64, usize) -> u64,
}

impl Goal {
    /// Full cover: nothing may stay uncovered.
    pub(crate) const FULL: Self = Self {
        allowed: 0,
        seed: guess_rng_seed,
    };

    /// `true` once a residual of `uncovered` elements meets the goal.
    pub(crate) fn met(&self, uncovered: usize) -> bool {
        uncovered <= self.allowed
    }
}

/// Runs the branch for one guess `k`. Returns the emitted cover, or
/// `None` when the branch could not meet the goal (wrong guess).
fn run_guess(
    cfg: &IterSetCoverConfig,
    goal: Goal,
    k: usize,
    stream: &SetStream<'_>,
    meter: &SpaceMeter,
    traces: &mut Vec<IterationTrace>,
) -> Option<Vec<SetId>> {
    let n = stream.universe();
    let m = stream.num_sets();
    let mut rng = StdRng::seed_from_u64((goal.seed)(cfg.seed, k));

    // Residual universe bitmap — the paper's U. O(n) bits.
    let mut live = Tracked::new(BitSet::full(n), meter);
    // Membership mask of emitted sets; the paper charges O(m log m)
    // bits for remembering picks (Lemma 2.2), we charge m bits.
    let mut in_sol = Tracked::new(BitSet::new(m), meter);
    // Emitted ids, read back during pass 2 — so they stay charged.
    let mut sol: Tracked<Vec<SetId>> = Tracked::new(Vec::new(), meter);

    for iteration in 0..iterations_for(cfg) {
        let uncovered_before = live.get().count();
        if goal.met(uncovered_before) {
            break;
        }
        let want = sample_size_for(cfg, k, n, m).min(uncovered_before);
        let sample = Tracked::new(sample_from_bitset(live.get(), want, &mut rng), meter);
        let sample_len = sample.get().len();
        // L ← S, as a dense bitmap for O(1) membership tests.
        let mut l_sample = Tracked::new(BitSet::from_iter(n, sample.get().iter().copied()), meter);
        let threshold = sample_len as f64 / k as f64;

        // Pass 1: size test. Heavy sets are emitted immediately;
        // small sets store their projection onto the sample.
        let mut projections = Tracked::new(ProjStore::default(), meter);
        let mut heavy_picked = 0usize;
        let mut scratch: Vec<ElemId> = Vec::new();
        for (id, elems) in stream.pass() {
            scratch.clear();
            scratch.extend(
                elems
                    .iter()
                    .copied()
                    .filter(|&e| l_sample.get().contains(e)),
            );
            if scratch.is_empty() {
                continue;
            }
            if !cfg.disable_size_test && scratch.len() as f64 >= threshold {
                sol.mutate(meter, |s| s.push(id));
                in_sol.mutate(meter, |s| {
                    s.insert(id);
                });
                heavy_picked += 1;
                let covered = &scratch;
                l_sample.mutate(meter, |l| {
                    for &e in covered {
                        l.remove(e);
                    }
                });
            } else {
                projections.mutate(meter, |p| p.push(id, &scratch));
            }
        }
        let projection_words = projections.get().heap_words();
        let small_stored = projections.get().len();

        let offline_picked;
        let picks = offline_solve(cfg.solver, &projections, &l_sample, meter);
        match picks {
            Some(picks) => {
                offline_picked = picks.len();
                for idx in picks {
                    let id = projections.get().set_id(idx);
                    sol.mutate(meter, |s| s.push(id));
                    in_sol.mutate(meter, |s| {
                        s.insert(id);
                    });
                }
            }
            None => {
                // Some sampled element is in no set at all: the
                // instance is not coverable. Abort the guess.
                let _ = sample.release(meter);
                let _ = l_sample.release(meter);
                let _ = projections.release(meter);
                let _ = live.release(meter);
                let _ = in_sol.release(meter);
                let _ = sol.release(meter);
                return None;
            }
        }
        let _ = sample.release(meter);
        let _ = l_sample.release(meter);
        let _ = projections.release(meter);

        // Pass 2: recompute the uncovered set from the emitted ids.
        for (id, elems) in stream.pass() {
            if in_sol.get().contains(id) {
                live.mutate(meter, |l| {
                    for &e in elems {
                        l.remove(e);
                    }
                });
            }
        }

        traces.push(IterationTrace {
            k,
            iteration,
            uncovered_before,
            sample_size: sample_len,
            heavy_picked,
            small_stored,
            projection_words,
            offline_picked,
            uncovered_after: live.get().count(),
        });
    }

    // Stragglers: one extra pass, one arbitrary covering set each
    // (the Section 4.2 trick), down to the goal. Skipped when the goal
    // is already met.
    if !goal.met(live.get().count()) && cfg.final_cleanup_pass {
        let mut swept = false;
        for (id, elems) in stream.pass() {
            if swept {
                break;
            }
            if in_sol.get().contains(id) {
                continue;
            }
            if elems.iter().any(|&e| live.get().contains(e)) {
                sol.mutate(meter, |s| s.push(id));
                in_sol.mutate(meter, |s| {
                    s.insert(id);
                });
                live.mutate(meter, |l| {
                    for &e in elems {
                        l.remove(e);
                    }
                });
                swept = goal.met(live.get().count());
            }
        }
    }

    let done = goal.met(live.get().count());
    let _ = live.release(meter);
    let _ = in_sol.release(meter);
    let sol = sol.release(meter);
    done.then_some(sol)
}

/// `algOfflineSC` on the residual sample — shared by both executors.
///
/// The greedy oracle runs straight on the stored sparse projections
/// ("linear space"); every other oracle (exact, primal–dual, LP
/// rounding) densifies in rank-compacted coordinates first. Elements
/// already covered by heavy sets are skipped in either case (the target
/// is the live sample bitmap). Returns `None` when some sampled element
/// is in no stored set at all — the instance is not coverable under
/// this guess.
pub(crate) fn offline_solve(
    solver: OfflineSolver,
    projections: &Tracked<ProjStore>,
    l_sample: &Tracked<BitSet>,
    meter: &SpaceMeter,
) -> Option<Vec<usize>> {
    if l_sample.get().is_empty() {
        return Some(Vec::new());
    }
    match solver {
        OfflineSolver::Greedy => {
            // Scratch for the oracle: one target-sized bitmap plus a
            // heap entry per stored set.
            let scratch_words = l_sample.get().as_words().len() + projections.get().len();
            meter.charge(scratch_words);
            let proj = projections.get();
            let picks = sc_offline::greedy_slices(proj.len(), |i| proj.elems(i), l_sample.get());
            meter.release(scratch_words);
            picks
        }
        _ => {
            // Dominance-filter the sparse projections before
            // densifying: only maximal projections can be needed, and
            // only they are charged.
            let proj = projections.get();
            let kept = sc_offline::dominance_filter_slices(proj.len(), |i| proj.elems(i));
            let remaining: Vec<ElemId> = l_sample.get().to_vec();
            let sub_universe = remaining.len();
            let sub_sets = Tracked::new(
                kept.iter()
                    .map(|&i| {
                        BitSet::from_iter(
                            sub_universe,
                            proj.elems(i)
                                .iter()
                                .filter_map(|e| remaining.binary_search(e).ok().map(|r| r as u32)),
                        )
                    })
                    .collect::<Vec<BitSet>>(),
                meter,
            );
            let target = BitSet::full(sub_universe);
            let picks = solver
                .solve(sub_sets.get(), &target)
                .ok()
                .map(|picks| picks.into_iter().map(|i| kept[i]).collect::<Vec<_>>());
            let _ = sub_sets.release(meter);
            picks
        }
    }
}

impl StreamingSetCover for IterSetCover {
    fn name(&self) -> String {
        format!(
            "iterSetCover(δ={}, ρ={}, c={}{}{}{})",
            self.cfg.delta,
            self.cfg.solver.label(),
            self.cfg.sample_constant,
            if self.cfg.paper_constants {
                ", paper-constants"
            } else {
                ""
            },
            if self.cfg.disable_size_test {
                ", no-size-test"
            } else {
                ""
            },
            if self.cfg.executor == GuessExecutor::Sequential {
                ", seq-guesses"
            } else {
                ""
            },
        )
    }

    fn run(&mut self, stream: &SetStream<'_>, meter: &SpaceMeter) -> Vec<SetId> {
        self.traces.clear();
        match self.cfg.executor {
            GuessExecutor::Multiplexed => crate::multiplex::run_multiplexed(self, stream, meter),
            GuessExecutor::Sequential => {
                run_sequential(&self.cfg, Goal::FULL, stream, meter, &mut self.traces)
            }
        }
    }
}

/// The reference executor: one guess `k = 2^i` after another, each
/// doing its own physical scans, merged exactly as the multiplexed
/// driver merges (first minimal cover wins, passes max, space sum). A
/// query whose goal the empty cover already meets runs no guess.
pub(crate) fn run_sequential(
    cfg: &IterSetCoverConfig,
    goal: Goal,
    stream: &SetStream<'_>,
    meter: &SpaceMeter,
    traces: &mut Vec<IterationTrace>,
) -> Vec<SetId> {
    let n = stream.universe();
    if goal.met(n) {
        return Vec::new();
    }
    // All guesses k = 2^i, 0 ≤ i ≤ log n, "in parallel" (Fig 1.3).
    let mut best: Option<Vec<SetId>> = None;
    let mut child_passes = Vec::new();
    let mut child_peaks = Vec::new();
    let mut i = 0u32;
    loop {
        let k = 1usize << i;
        let child_stream = stream.fork();
        let child_meter = meter.fork();
        if let Some(sol) = run_guess(cfg, goal, k, &child_stream, &child_meter, traces) {
            if best.as_ref().is_none_or(|b| sol.len() < b.len()) {
                best = Some(sol);
            }
        }
        child_passes.push(child_stream.passes());
        child_peaks.push(child_meter.peak());
        if k >= n {
            break;
        }
        i += 1;
    }
    stream.absorb_parallel(child_passes);
    meter.absorb_parallel(child_peaks);
    best.unwrap_or_default()
}

/// Per-guess RNG seed of full-cover queries — one fixed formula so both
/// executors draw identical sample streams for the same guess.
pub(crate) fn guess_rng_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add(0x9e37_79b9 * k as u64)
}

/// `⌈1/δ⌉` iterations, derivable from the configuration alone so the
/// standalone driver ([`crate::multiplex::IterCoverDriver`]) does not
/// need an [`IterSetCover`] instance.
pub(crate) fn iterations_for(cfg: &IterSetCoverConfig) -> usize {
    (1.0 / cfg.delta).ceil() as usize
}

/// The per-iteration sample size for guess `k` under `cfg` — the same
/// formula the sequential executor uses, factored out for external
/// drivers.
pub(crate) fn sample_size_for(cfg: &IterSetCoverConfig, k: usize, n: usize, m: usize) -> usize {
    if cfg.paper_constants {
        let rho = cfg.solver.rho(n);
        iter_set_cover_sample_size(cfg.sample_constant, rho, k, n, m, cfg.delta)
    } else {
        let size = cfg.sample_constant * k as f64 * (n.max(2) as f64).powf(cfg.delta);
        size.ceil().max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_setsystem::gen;
    use sc_stream::run_reported;

    #[test]
    fn covers_planted_instance_with_bounded_ratio() {
        let inst = gen::planted(512, 1024, 16, 11);
        let mut alg = IterSetCover::new(IterSetCoverConfig::default());
        let report = run_reported(&mut alg, &inst.system);
        assert!(report.verified.is_ok(), "{:?}", report.verified);
        let opt = inst.planted.as_ref().unwrap().len();
        assert!(
            report.cover_size() <= 8 * opt,
            "|sol|={} vs OPT={opt}",
            report.cover_size()
        );
    }

    #[test]
    fn pass_budget_respects_parallel_accounting() {
        let inst = gen::planted(256, 512, 8, 3);
        for delta in [1.0, 0.5, 0.25] {
            let mut alg = IterSetCover::with_delta(delta);
            let report = run_reported(&mut alg, &inst.system);
            assert!(report.verified.is_ok());
            let iters = (1.0 / delta).ceil() as usize;
            assert!(
                report.passes <= 2 * iters + 1,
                "δ={delta}: passes={} > {}",
                report.passes,
                2 * iters + 1
            );
        }
    }

    #[test]
    fn traces_show_residual_decay() {
        let inst = gen::planted(2048, 1024, 8, 5);
        let mut alg = IterSetCover::new(IterSetCoverConfig {
            delta: 0.25,
            ..Default::default()
        });
        let _ = run_reported(&mut alg, &inst.system);
        // For each guess, residuals are non-increasing across iterations.
        for pair in alg.traces.windows(2) {
            if pair[0].k == pair[1].k {
                assert!(
                    pair[1].uncovered_before
                        <= pair[0].uncovered_after.max(pair[0].uncovered_before)
                );
            }
        }
        assert!(!alg.traces.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = gen::planted_noisy(300, 600, 10, 9);
        let mut a = IterSetCover::new(IterSetCoverConfig {
            seed: 42,
            ..Default::default()
        });
        let mut b = IterSetCover::new(IterSetCoverConfig {
            seed: 42,
            ..Default::default()
        });
        let ra = run_reported(&mut a, &inst.system);
        let rb = run_reported(&mut b, &inst.system);
        assert_eq!(ra.cover, rb.cover);
        assert_eq!(ra.space_words, rb.space_words);
    }

    #[test]
    fn uncoverable_instance_yields_flagged_report() {
        let system = sc_setsystem::SetSystem::from_sets(4, vec![vec![0, 1], vec![1, 2]]);
        let mut alg = IterSetCover::new(IterSetCoverConfig::default());
        let report = run_reported(&mut alg, &system);
        assert!(report.verified.is_err());
        assert!(report.cover.is_empty());
    }

    #[test]
    fn meter_balances_to_zero() {
        let inst = gen::planted(128, 256, 4, 1);
        let system = &inst.system;
        let stream = sc_stream::SetStream::new(system);
        let meter = SpaceMeter::new();
        let mut alg = IterSetCover::new(IterSetCoverConfig::default());
        let _ = alg.run(&stream, &meter);
        assert_eq!(meter.current(), 0, "all charges must be released");
        assert!(meter.peak() > 0);
    }

    #[test]
    fn exact_oracle_lowers_solution_size() {
        let inst = gen::planted(256, 400, 8, 17);
        let opt = inst.planted.as_ref().unwrap().len();
        let mut exact = IterSetCover::new(IterSetCoverConfig {
            solver: OfflineSolver::DEFAULT_EXACT,
            ..Default::default()
        });
        let report = run_reported(&mut exact, &inst.system);
        assert!(report.verified.is_ok());
        assert!(report.cover_size() <= 4 * opt);
    }

    #[test]
    fn paper_constants_mode_still_covers() {
        let inst = gen::planted(128, 200, 4, 23);
        let mut alg = IterSetCover::new(IterSetCoverConfig {
            paper_constants: true,
            ..Default::default()
        });
        let report = run_reported(&mut alg, &inst.system);
        assert!(report.verified.is_ok());
    }
}
