//! The answer oracle: every query replayed solo through the public
//! drivers (`IterCoverDriver`, `PartialCoverDriver`, and the store-all
//! greedy half), outside the measured window. The replay is both the
//! reference the served answers must equal and the source of the
//! `core.*` per-layer timings.

use crate::client::{Answer, Sample};
use crate::layers::Served;
use sc_core::baselines::greedy_over_stored;
use sc_core::{coverage_goal, IterCoverDriver, IterSetCoverConfig, PartialCoverDriver};
use sc_service::QuerySpec;
use sc_setsystem::{SetId, SetSystem};
use sc_stream::{SetStream, SpaceMeter, Tracked};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Shard size of the service's default feed; the replay walks its
/// scans through the same sharded pass.
const SHARD: usize = 256;

/// A query's solo observables.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub cover: Vec<SetId>,
    pub covered: usize,
    pub required: usize,
    pub passes: usize,
    pub space: usize,
}

/// Where a solo replay spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoloTiming {
    /// Driver construction to finished cover.
    pub total: Duration,
    pub begin_scan: Duration,
    pub absorb: Duration,
    pub end_scan: Duration,
}

/// A solved query: its reference and what the replay cost.
#[derive(Debug, Clone)]
pub struct Solved {
    pub reference: Reference,
    pub timing: SoloTiming,
}

/// Runs `spec` solo over `system` through the public drivers.
pub fn solve(system: &SetSystem, spec: &QuerySpec) -> Solved {
    let start = Instant::now();
    let root = SetStream::new(system);
    let parent = root.fork();
    let meter = SpaceMeter::new();
    let mut timing = SoloTiming::default();
    let n = parent.universe();
    // Both `iterSetCover` drivers expose the same scan protocol but no
    // common trait: one scan per round, each phase timed.
    macro_rules! scan_loop {
        ($driver:ident) => {
            while $driver.wants_scan() {
                let t = Instant::now();
                $driver.begin_scan();
                timing.begin_scan += t.elapsed();
                let feed = root.sharded_pass(&$driver.participants(), SHARD);
                let t = Instant::now();
                $driver.absorb_items(feed.replay());
                timing.absorb += t.elapsed();
                let t = Instant::now();
                $driver.end_scan();
                timing.end_scan += t.elapsed();
            }
        };
    }
    let (cover, required) = match *spec {
        QuerySpec::IterCover { delta, seed } => {
            let cfg = IterSetCoverConfig {
                delta,
                seed,
                ..Default::default()
            };
            let mut driver = IterCoverDriver::new(&cfg, &parent, &meter);
            scan_loop!(driver);
            (driver.finish_into(&parent, &meter).0, n)
        }
        QuerySpec::PartialCover {
            epsilon,
            delta,
            seed,
        } => {
            let cfg = IterSetCoverConfig {
                delta,
                seed,
                ..Default::default()
            };
            let required = coverage_goal(n, epsilon);
            let mut driver = PartialCoverDriver::new(&cfg, required, &parent, &meter);
            scan_loop!(driver);
            (driver.finish_into(&parent, &meter), required)
        }
        QuerySpec::GreedyBaseline => {
            let t = Instant::now();
            let mut store = Tracked::new((vec![0u32], Vec::new()), &meter);
            timing.begin_scan += t.elapsed();
            let feed = root.sharded_pass(&[&parent], SHARD);
            let t = Instant::now();
            for (_, elems) in feed.replay() {
                store.mutate(&meter, |(offsets, flat)| {
                    flat.extend_from_slice(elems);
                    offsets.push(flat.len() as u32);
                });
            }
            timing.absorb += t.elapsed();
            let t = Instant::now();
            let cover = greedy_over_stored(store, n, &meter);
            timing.end_scan += t.elapsed();
            (cover, n)
        }
    };
    let mut seen = vec![false; n];
    for &s in &cover {
        for &e in system.set(s) {
            seen[e as usize] = true;
        }
    }
    timing.total = start.elapsed();
    Solved {
        reference: Reference {
            covered: seen.iter().filter(|&&c| c).count(),
            cover,
            required,
            passes: parent.passes(),
            space: meter.peak(),
        },
        timing,
    }
}

/// Theorem 2.8's pass budget for a query: `2/δ` iterations plus the
/// cleanup pass for the `iterSetCover` kinds, one pass for store-all
/// greedy.
pub fn pass_budget(spec: &QuerySpec) -> usize {
    match *spec {
        QuerySpec::IterCover { delta, .. } | QuerySpec::PartialCover { delta, .. } => {
            (2.0 / delta).ceil() as usize + 1
        }
        QuerySpec::GreedyBaseline => 1,
    }
}

/// A spec as a hashable key (the `Display` form is canonical).
pub fn key(spec: &QuerySpec) -> String {
    spec.to_string()
}

/// Solves every `(instance, spec)` pair once, on `threads` threads;
/// `systems[i]` is instance `i`. The replays run outside the measured
/// window, so using every core here costs no measured time.
pub fn solve_all(
    systems: &[&SetSystem],
    jobs: Vec<(usize, QuerySpec)>,
    threads: usize,
) -> HashMap<(usize, String), Solved> {
    let mut unique: Vec<(usize, QuerySpec)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (inst, spec) in jobs {
        if seen.insert((inst, key(&spec))) {
            unique.push((inst, spec));
        }
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let parts: Vec<Vec<((usize, String), Solved)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some((inst, spec)) = unique.get(i) else {
                            break;
                        };
                        out.push(((*inst, key(spec)), solve(systems[*inst], spec)));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("oracle worker panicked"))
            .collect()
    });
    parts.into_iter().flatten().collect()
}

/// What a served answer reported.
#[derive(Debug, Clone, Copy)]
pub struct Observed<'a> {
    /// The reply said `ok` (the server's own goal check).
    pub ok: bool,
    pub sol: usize,
    pub covered: usize,
    pub required: usize,
    pub passes: usize,
    pub space: usize,
    /// The cover itself, when the answer carries it (in-process runs).
    pub cover: Option<&'a [SetId]>,
}

impl<'a> Observed<'a> {
    /// The observables of an in-process outcome, cover included.
    pub fn of(outcome: &'a sc_service::QueryOutcome) -> Self {
        Self {
            ok: outcome.goal_met(),
            sol: outcome.cover.len(),
            covered: outcome.covered,
            required: outcome.required,
            passes: outcome.logical_passes,
            space: outcome.space_words,
            cover: Some(&outcome.cover),
        }
    }
}

/// Checks a served answer against its solo reference: goal met,
/// Theorem 2.8's pass budget, and every reported observable equal to
/// the reference (the cover too, bit for bit, when it is present).
pub fn check(spec: &QuerySpec, reference: &Reference, seen: &Observed<'_>) -> Result<(), String> {
    let &Observed {
        ok,
        sol,
        covered,
        required,
        passes,
        space,
        cover,
    } = seen;
    if !ok || covered < required {
        return Err(format!("goal not met: covered {covered}/{required}"));
    }
    if passes > pass_budget(spec) {
        return Err(format!(
            "{passes} passes exceed the budget {}",
            pass_budget(spec)
        ));
    }
    let got = (sol, covered, required, passes, space);
    let want = (
        reference.cover.len(),
        reference.covered,
        reference.required,
        reference.passes,
        reference.space,
    );
    if got != want {
        return Err(format!(
            "(sol, covered, required, passes, space) = {got:?}, solo reference {want:?}"
        ));
    }
    if let Some(cover) = cover {
        if cover != reference.cover.as_slice() {
            return Err("cover differs from the solo reference".into());
        }
    }
    Ok(())
}

/// The replies of a TCP run, parsed and replayed solo.
pub struct Replayed {
    /// Each sample's parsed reply (`None` for a `!reload` or an `err`).
    pub answers: Vec<Option<Answer>>,
    /// The repository each answered sample was served from.
    instances: Vec<usize>,
    solved: HashMap<(usize, String), Solved>,
}

/// Parses the query replies of `samples` and replays every answered
/// query solo on `threads` threads: `instance(sample, answer)` is the
/// index in `systems` of the repository that served it.
pub fn replay(
    samples: &[Sample],
    systems: &[&SetSystem],
    instance: impl Fn(&Sample, &Answer) -> usize,
    threads: usize,
) -> Replayed {
    let answers: Vec<Option<Answer>> = samples
        .iter()
        .map(|s| s.spec.and_then(|_| Answer::parse(&s.reply)))
        .collect();
    let instances: Vec<usize> = samples
        .iter()
        .zip(&answers)
        .map(|(s, a)| a.as_ref().map_or(0, |a| instance(s, a)))
        .collect();
    let mut jobs = Vec::new();
    for ((s, a), &i) in samples.iter().zip(&answers).zip(&instances) {
        if let (Some(spec), Some(_)) = (s.spec, a) {
            jobs.push((i, spec));
        }
    }
    Replayed {
        solved: solve_all(systems, jobs, threads),
        answers,
        instances,
    }
}

impl Replayed {
    /// The solo replay of answered sample `i`, whose query is `spec`.
    fn solved(&self, i: usize, spec: &QuerySpec) -> &Solved {
        &self.solved[&(self.instances[i], key(spec))]
    }

    /// Checks query sample `i`'s reply against its solo replay.
    pub fn check(&self, i: usize, sample: &Sample) -> Result<&Answer, String> {
        let spec = sample.spec.expect("a query sample");
        let answer = self.answers[i]
            .as_ref()
            .ok_or_else(|| format!("not an answer: {:?}", sample.reply))?;
        check(&spec, &self.solved(i, &spec).reference, &answer.observed())?;
        Ok(answer)
    }

    /// The answered queries among `samples[from..]`, for the per-layer
    /// split; `tenant` names the tenant a sample addressed.
    pub fn served(
        &self,
        samples: &[Sample],
        from: usize,
        tenant: impl Fn(&Sample) -> String,
    ) -> Vec<Served<'_>> {
        (from..samples.len())
            .filter_map(|i| {
                let s = &samples[i];
                let (spec, answer) = (s.spec?, self.answers[i].as_ref()?);
                let solved = self.solved(i, &spec);
                Some(Served {
                    line: s.line.clone(),
                    outcome: answer.outcome(spec, &tenant(s), solved.reference.cover.clone()),
                    rtt: s.rtt,
                    solved,
                })
            })
            .collect()
    }
}
