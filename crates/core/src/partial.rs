//! ε-Partial Set Cover in the streaming model.
//!
//! The paper notes (Section 1, related work) that the \[ER14\] and \[CW16\]
//! results hold for the ε-Partial Set Cover problem — cover a `(1-ε)`
//! fraction of `U`, compared against the optimal *full* cover — and
//! `iterSetCover` supports it natively: its iterations shrink the
//! residual geometrically, so stopping once the residual reaches `ε·n`
//! simply truncates the loop after `⌈log(1/ε)/(δ·log n)⌉` iterations,
//! and the straggler pass becomes a goal sweep that stops at the goal.
//! Fewer passes and the same per-iteration space: partial coverage is
//! *cheaper* in exactly the way the analysis predicts, which experiment
//! E11 measures. The ε-partial query is not a second algorithm in code
//! either: [`PartialIterSetCover`] runs `IterSetCover`'s sequential
//! guess loop with a residual goal, and
//! [`IterCoverDriver::partial`](crate::IterCoverDriver::partial) runs
//! the full-cover guess machine of [`crate::multiplex`] with it.
//!
//! Four algorithms implement [`PartialStreamingSetCover`]:
//! [`PartialIterSetCover`] (the paper's algorithm, truncated),
//! [`PartialEmekRosen`] and [`PartialChakrabartiWirth`] (the two
//! semi-streaming results the paper says extend to partial cover), and
//! [`PartialProgressiveGreedy`] (the threshold-halving baseline).

use crate::iter_set_cover::{run_sequential, Goal};
use crate::IterSetCoverConfig;
use sc_bitset::BitSet;
use sc_offline::OfflineSolver;
use sc_setsystem::{SetId, SetSystem};
use sc_stream::{SetStream, SpaceMeter, Tracked};

/// Outcome of a partial-cover run.
#[derive(Debug, Clone)]
pub struct PartialReport {
    /// Algorithm label.
    pub algorithm: String,
    /// Emitted set ids.
    pub cover: Vec<SetId>,
    /// Elements covered.
    pub covered: usize,
    /// The goal `⌈(1-ε)·n⌉`.
    pub required: usize,
    /// Passes over the repository.
    pub passes: usize,
    /// Peak working memory in words.
    pub space_words: usize,
}

impl PartialReport {
    /// `true` iff the coverage goal was met.
    pub fn goal_met(&self) -> bool {
        self.covered >= self.required
    }

    /// Cover size.
    pub fn cover_size(&self) -> usize {
        self.cover.len()
    }
}

/// A streaming algorithm that covers at least `required` elements.
pub trait PartialStreamingSetCover {
    /// Label with configuration.
    fn name(&self) -> String;

    /// Emits a partial cover reaching `required` elements (when the
    /// instance allows it).
    fn run(&mut self, stream: &SetStream<'_>, meter: &SpaceMeter, required: usize) -> Vec<SetId>;
}

/// The coverage goal `⌈(1-ε)·n⌉` for a universe of `n` elements.
///
/// # Panics
///
/// Panics unless `ε ∈ [0, 1)`.
pub fn coverage_goal(n: usize, epsilon: f64) -> usize {
    assert!((0.0..1.0).contains(&epsilon), "epsilon must be in [0,1)");
    ((1.0 - epsilon) * n as f64).ceil() as usize
}

/// Per-guess RNG seed of the ε-partial `iterSetCover` — one fixed
/// formula so the sequential reference and the guess machine
/// ([`crate::IterCoverDriver::partial`]) draw identical sample streams.
fn partial_guess_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add(0x5bd1_e995 * k as u64)
}

/// Runs a partial-cover algorithm and measures coverage, passes, space.
pub fn run_partial(
    alg: &mut dyn PartialStreamingSetCover,
    system: &SetSystem,
    epsilon: f64,
) -> PartialReport {
    let n = system.universe();
    let required = coverage_goal(n, epsilon);
    let stream = SetStream::new(system);
    let meter = SpaceMeter::new();
    let cover = alg.run(&stream, &meter, required);

    let mut covered = BitSet::new(n);
    for &id in &cover {
        for &e in system.set(id) {
            covered.insert(e);
        }
    }
    PartialReport {
        algorithm: alg.name(),
        cover,
        covered: covered.count(),
        required,
        passes: stream.passes(),
        space_words: meter.peak(),
    }
}

/// ε-partial `iterSetCover`: the Figure 1.3 loop, stopped as soon as
/// the residual drops to `n - required` — the sequential reference of
/// the ε-partial query. It runs `IterSetCover`'s sequential guess loop
/// with a residual goal; [`crate::IterCoverDriver::partial`] runs the
/// same guesses on the multiplexed guess machine, bit-identically.
///
/// Of [`IterSetCoverConfig`], the fields that apply are `delta`,
/// `seed`, `sample_constant` and `paper_constants`. The partial variant
/// fixes the rest: the greedy oracle (`solver`), the size test on
/// (`disable_size_test = false`), and the goal sweep always
/// (`final_cleanup_pass = true`). `executor` does not apply either:
/// this type is always the sequential reference.
#[derive(Debug)]
pub struct PartialIterSetCover {
    /// Underlying configuration (δ, seed, sample constant and regime;
    /// the other fields are fixed, see the type docs).
    pub cfg: IterSetCoverConfig,
}

impl PartialIterSetCover {
    /// Wraps a configuration.
    pub fn new(cfg: IterSetCoverConfig) -> Self {
        Self { cfg }
    }
}

/// The guess settings of an ε-partial query that must cover `required`
/// of `n` elements: `cfg` with the fields the partial variant fixes
/// forced (greedy oracle, size test on, goal sweep always), and the
/// residual goal `n − required` with the partial seed formula.
pub(crate) fn partial_setup(
    cfg: &IterSetCoverConfig,
    n: usize,
    required: usize,
) -> (IterSetCoverConfig, Goal) {
    let cfg = IterSetCoverConfig {
        solver: OfflineSolver::Greedy,
        disable_size_test: false,
        final_cleanup_pass: true,
        ..*cfg
    };
    let goal = Goal {
        allowed: n.saturating_sub(required),
        seed: partial_guess_seed,
    };
    (cfg, goal)
}

impl PartialStreamingSetCover for PartialIterSetCover {
    fn name(&self) -> String {
        format!(
            "partial-iterSetCover(δ={}, ρ={})",
            self.cfg.delta,
            OfflineSolver::Greedy.label()
        )
    }

    fn run(&mut self, stream: &SetStream<'_>, meter: &SpaceMeter, required: usize) -> Vec<SetId> {
        let (cfg, goal) = partial_setup(&self.cfg, stream.universe(), required);
        run_sequential(&cfg, goal, stream, meter, &mut Vec::new())
    }
}

/// ε-partial progressive greedy: threshold halving that stops at the
/// coverage goal — the \[SG09\]/\[CW16\]-style baseline for partial cover.
#[derive(Debug, Default)]
pub struct PartialProgressiveGreedy;

impl PartialStreamingSetCover for PartialProgressiveGreedy {
    fn name(&self) -> String {
        "partial-progressive-greedy".into()
    }

    fn run(&mut self, stream: &SetStream<'_>, meter: &SpaceMeter, required: usize) -> Vec<SetId> {
        let n = stream.universe();
        let allowed_residual = n.saturating_sub(required);
        let mut live = Tracked::new(BitSet::full(n), meter);
        let mut sol = Vec::new();
        let mut threshold = n.max(1);
        loop {
            if live.get().count() <= allowed_residual {
                break;
            }
            for (id, elems) in stream.pass() {
                if live.get().count() <= allowed_residual {
                    break;
                }
                let gain = elems.iter().filter(|&&e| live.get().contains(e)).count();
                if gain >= threshold {
                    live.mutate(meter, |l| {
                        for &e in elems {
                            l.remove(e);
                        }
                    });
                    sol.push(id);
                }
            }
            if threshold == 1 {
                break;
            }
            threshold /= 2;
        }
        let _ = live.release(meter);
        sol
    }
}

/// ε-partial Emek–Rosén: the one-pass `O(√n)` algorithm, with the
/// pointer-buying phase stopped at the coverage goal. The paper notes
/// (Section 1, related work) that the \[ER14\] upper *and lower* bounds
/// hold for ε-Partial Set Cover; this is the upper-bound side.
///
/// Partial coverage only helps the post-pass phase — the pass itself is
/// identical — so passes and space match the full-cover variant while
/// the cover shrinks by the skipped pointer purchases.
#[derive(Debug, Default)]
pub struct PartialEmekRosen;

impl PartialStreamingSetCover for PartialEmekRosen {
    fn name(&self) -> String {
        "partial-emek-rosen[ER14]".into()
    }

    fn run(&mut self, stream: &SetStream<'_>, meter: &SpaceMeter, required: usize) -> Vec<SetId> {
        let n = stream.universe();
        let allowed_residual = n.saturating_sub(required);
        let threshold = (n as f64).sqrt().ceil() as usize;
        let mut live = Tracked::new(BitSet::full(n), meter);
        let mut ptr: Tracked<Vec<u32>> = Tracked::new(vec![u32::MAX; n], meter);
        let mut sol = Vec::new();

        for (id, elems) in stream.pass() {
            let gain = elems.iter().filter(|&&e| live.get().contains(e)).count();
            if gain >= threshold.max(1) {
                live.mutate(meter, |l| {
                    for &e in elems {
                        l.remove(e);
                    }
                });
                sol.push(id);
            } else {
                ptr.mutate(meter, |p| {
                    for &e in elems {
                        if p[e as usize] == u32::MAX {
                            p[e as usize] = id;
                        }
                    }
                });
            }
        }

        // Buy pointers only until the goal is met. Preferring the
        // pointers shared by the most leftovers would be a second
        // greedy; the \[ER14\] guarantee needs only *any* order.
        if live.get().count() > allowed_residual {
            let mut bought = BitSet::new(stream.num_sets().max(1));
            meter.charge(bought.as_words().len());
            let leftovers: Vec<u32> = live.get().ones().collect();
            for e in leftovers {
                if live.get().count() <= allowed_residual {
                    break;
                }
                if !live.get().contains(e) {
                    continue; // an earlier purchase covered it
                }
                let p = ptr.get()[e as usize];
                if p != u32::MAX && bought.insert(p) {
                    sol.push(p);
                    live.mutate(meter, |l| l.remove(e));
                }
            }
            meter.release(bought.as_words().len());
        }

        let _ = ptr.release(meter);
        let _ = live.release(meter);
        sol
    }
}

/// ε-partial Chakrabarti–Wirth: the `p`-pass descending-threshold
/// algorithm with every phase cut off at the coverage goal — the other
/// semi-streaming result the paper points out extends to ε-Partial Set
/// Cover. Later passes are skipped entirely once the goal is met, so
/// larger ε buys *fewer passes*, not just a smaller cover.
#[derive(Debug, Clone, Copy)]
pub struct PartialChakrabartiWirth {
    /// Threshold passes `p ≥ 1`, as in
    /// [`crate::baselines::ChakrabartiWirth`].
    pub passes: usize,
}

impl PartialStreamingSetCover for PartialChakrabartiWirth {
    fn name(&self) -> String {
        format!("partial-chakrabarti-wirth[CW16](p={})", self.passes)
    }

    fn run(&mut self, stream: &SetStream<'_>, meter: &SpaceMeter, required: usize) -> Vec<SetId> {
        assert!(self.passes >= 1, "need at least one pass");
        let n = stream.universe();
        let allowed_residual = n.saturating_sub(required);
        let p = self.passes;
        let beta = (n.max(1) as f64).powf(1.0 / (p as f64 + 1.0));

        let mut live = Tracked::new(BitSet::full(n), meter);
        let mut sol = Vec::new();
        let mut ptr: Tracked<Vec<u32>> = Tracked::new(Vec::new(), meter);

        for j in 1..=p {
            if live.get().count() <= allowed_residual {
                break;
            }
            let threshold = (n as f64 / beta.powi(j as i32)).max(1.0);
            let last = j == p;
            if last {
                ptr.mutate(meter, |v| v.resize(n, u32::MAX));
            }
            for (id, elems) in stream.pass() {
                let gain = elems.iter().filter(|&&e| live.get().contains(e)).count();
                if gain as f64 >= threshold && live.get().count() > allowed_residual {
                    live.mutate(meter, |l| {
                        for &e in elems {
                            l.remove(e);
                        }
                    });
                    sol.push(id);
                } else if last {
                    ptr.mutate(meter, |v| {
                        for &e in elems {
                            if v[e as usize] == u32::MAX {
                                v[e as usize] = id;
                            }
                        }
                    });
                }
            }
        }

        if live.get().count() > allowed_residual && !ptr.get().is_empty() {
            let mut bought = BitSet::new(stream.num_sets().max(1));
            meter.charge(bought.as_words().len());
            let leftovers: Vec<u32> = live.get().ones().collect();
            for e in leftovers {
                if live.get().count() <= allowed_residual {
                    break;
                }
                if !live.get().contains(e) {
                    continue;
                }
                let q = ptr.get()[e as usize];
                if q != u32::MAX && bought.insert(q) {
                    sol.push(q);
                    live.mutate(meter, |l| l.remove(e));
                }
            }
            meter.release(bought.as_words().len());
        }

        let _ = ptr.release(meter);
        let _ = live.release(meter);
        sol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_setsystem::gen;

    #[test]
    fn partial_iter_meets_goal_with_fewer_passes() {
        let inst = gen::planted(1024, 1024, 8, 3);
        let mut full = crate::IterSetCover::with_delta(0.25);
        let full_report = sc_stream::run_reported(&mut full, &inst.system);
        assert!(full_report.verified.is_ok());

        let mut partial = PartialIterSetCover::new(IterSetCoverConfig {
            delta: 0.25,
            ..Default::default()
        });
        let report = run_partial(&mut partial, &inst.system, 0.2);
        assert!(
            report.goal_met(),
            "covered {}/{}",
            report.covered,
            report.required
        );
        assert!(
            report.passes <= full_report.passes,
            "partial {} vs full {}",
            report.passes,
            full_report.passes
        );
        assert!(report.cover_size() <= full_report.cover_size());
    }

    #[test]
    fn epsilon_zero_means_full_cover() {
        let inst = gen::planted(200, 300, 6, 5);
        let mut alg = PartialIterSetCover::new(IterSetCoverConfig::default());
        let report = run_partial(&mut alg, &inst.system, 0.0);
        assert!(report.goal_met());
        assert_eq!(report.covered, 200);
    }

    #[test]
    fn larger_epsilon_never_needs_more_sets() {
        let inst = gen::planted_noisy(400, 600, 10, 7);
        let mut sizes = Vec::new();
        for eps in [0.0, 0.1, 0.3, 0.5] {
            let mut alg = PartialIterSetCover::new(IterSetCoverConfig::default());
            let report = run_partial(&mut alg, &inst.system, eps);
            assert!(report.goal_met(), "ε={eps}");
            sizes.push(report.cover_size());
        }
        assert!(
            sizes.windows(2).all(|w| w[1] <= w[0] + 1),
            "sizes should be non-increasing-ish: {sizes:?}"
        );
    }

    #[test]
    fn partial_progressive_stops_early() {
        let inst = gen::planted(512, 256, 8, 9);
        let mut alg = PartialProgressiveGreedy;
        let report = run_partial(&mut alg, &inst.system, 0.25);
        assert!(report.goal_met());
        assert!(report.passes <= 10);
        let mut full = PartialProgressiveGreedy;
        let full_report = run_partial(&mut full, &inst.system, 0.0);
        assert!(full_report.goal_met());
        assert!(report.cover_size() <= full_report.cover_size());
    }

    #[test]
    fn partial_emek_rosen_meets_goal_in_one_pass() {
        let inst = gen::planted(900, 500, 6, 4);
        for eps in [0.0, 0.1, 0.4] {
            let mut alg = PartialEmekRosen;
            let report = run_partial(&mut alg, &inst.system, eps);
            assert!(
                report.goal_met(),
                "ε={eps}: {}/{}",
                report.covered,
                report.required
            );
            assert_eq!(report.passes, 1, "ε={eps}");
        }
        // Larger ε buys a (weakly) smaller cover.
        let full = run_partial(&mut PartialEmekRosen, &inst.system, 0.0);
        let half = run_partial(&mut PartialEmekRosen, &inst.system, 0.5);
        assert!(half.cover_size() <= full.cover_size());
    }

    #[test]
    fn partial_cw_skips_passes_at_large_epsilon() {
        let inst = gen::planted(1024, 600, 8, 6);
        let full = run_partial(
            &mut PartialChakrabartiWirth { passes: 4 },
            &inst.system,
            0.0,
        );
        assert!(full.goal_met());
        let loose = run_partial(
            &mut PartialChakrabartiWirth { passes: 4 },
            &inst.system,
            0.6,
        );
        assert!(loose.goal_met());
        assert!(
            loose.passes <= full.passes,
            "looser goal used more passes ({} > {})",
            loose.passes,
            full.passes
        );
        assert!(loose.cover_size() <= full.cover_size());
    }

    #[test]
    fn partial_baselines_against_iter_set_cover() {
        // All three ε-partial algorithms meet the same goal; the
        // iterSetCover variant should not be grossly worse in quality
        // than the semi-streaming ones on planted instances.
        let inst = gen::planted(512, 512, 8, 11);
        let eps = 0.2;
        let mut iter = PartialIterSetCover::new(IterSetCoverConfig::default());
        let a = run_partial(&mut iter, &inst.system, eps);
        let b = run_partial(&mut PartialEmekRosen, &inst.system, eps);
        let c = run_partial(
            &mut PartialChakrabartiWirth { passes: 3 },
            &inst.system,
            eps,
        );
        for r in [&a, &b, &c] {
            assert!(
                r.goal_met(),
                "{}: {}/{}",
                r.algorithm,
                r.covered,
                r.required
            );
        }
        assert!(a.cover_size() <= 3 * b.cover_size().max(c.cover_size()).max(1));
    }

    #[test]
    #[should_panic(expected = "epsilon must be in [0,1)")]
    fn epsilon_one_rejected() {
        let inst = gen::planted(10, 10, 2, 1);
        let mut alg = PartialProgressiveGreedy;
        let _ = run_partial(&mut alg, &inst.system, 1.0);
    }

    #[test]
    fn meter_balances() {
        let inst = gen::planted(128, 128, 4, 2);
        let stream = sc_stream::SetStream::new(&inst.system);
        let meter = SpaceMeter::new();
        let mut alg = PartialIterSetCover::new(IterSetCoverConfig::default());
        let _ = alg.run(&stream, &meter, 100);
        assert_eq!(meter.current(), 0);
    }
}
