//! Per-query pass machines the scheduler can interleave.
//!
//! Every admitted query becomes a [`CoverJob`]: a state machine that
//! registers the streams needing the next logical pass
//! ([`participants`](CoverJob::participants)), absorbs the items of one
//! shared physical scan, and runs its between-scan work in
//! [`end_scan`](CoverJob::end_scan). Each job owns a forked
//! [`SetStream`] (its logical pass meter) and a private [`SpaceMeter`],
//! so its measured passes and space are *identical* to the same query
//! run solo — the `service_equivalence` integration test pins this for
//! all three query kinds.

use crate::query::QuerySpec;
use sc_core::baselines::greedy_over_stored;
use sc_core::partial::coverage_goal;
use sc_core::{IterCoverDriver, IterSetCoverConfig};
use sc_setsystem::{ElemId, SetId};
use sc_stream::{SetStream, SpaceMeter, Tracked};

/// What a finished job measured.
#[derive(Debug)]
pub(crate) struct JobResult {
    /// The emitted cover.
    pub cover: Vec<SetId>,
    /// Logical passes charged to the query (max over branches).
    pub logical_passes: usize,
    /// Peak working memory in words.
    pub space_words: usize,
    /// The coverage goal this query had to meet.
    pub required: usize,
    /// Scan epochs the job rode, derived from its pass tag
    /// ([`next_pass`](CoverJob::next_pass)` - 1` at retirement): every
    /// epoch a job is inside — boundary-admitted or spliced mid-stream
    /// — completes exactly one of its passes, so the driver's pass
    /// index is the single source of truth for the count.
    pub epochs_joined: usize,
}

/// A cover query advanced one shared physical scan at a time.
///
/// Scan protocol (driven by the scheduler): while
/// [`wants_scan`](CoverJob::wants_scan), call
/// [`begin_scan`](CoverJob::begin_scan), include
/// [`participants`](CoverJob::participants) in the shared pass, feed
/// its items shard by shard to [`absorb_shard`](CoverJob::absorb_shard),
/// then [`end_scan`](CoverJob::end_scan). Finally,
/// [`finish`](CoverJob::finish).
pub(crate) trait CoverJob<'a>: Send {
    /// `true` while the job needs to join the next physical scan.
    fn wants_scan(&self) -> bool;
    /// The 1-based index of the logical pass this job needs next — the
    /// tag the pass-aligned admission planner matches against the scan
    /// it splices the job into (a fresh job reports `1`). Meaningful
    /// while [`wants_scan`](CoverJob::wants_scan) is `true`.
    fn next_pass(&self) -> usize;
    /// Prepares the job for the scan it is about to join.
    fn begin_scan(&mut self);
    /// The forked streams that must log a logical pass for this scan.
    fn participants(&self) -> Vec<&SetStream<'a>>;
    /// Feeds a run of stream items — one shard of the zero-copy feed
    /// the epoch scheduler drives jobs with
    /// ([`sc_stream::ShardedPass`]). Shards of one scan must arrive in
    /// repository order (the scheduler's feed cursor guarantees it),
    /// so the job observes exactly the item sequence of a solo pass.
    fn absorb_shard(&mut self, items: &mut dyn Iterator<Item = (SetId, &'a [ElemId])>);
    /// Runs the between-scan transition after the scan's items end.
    fn end_scan(&mut self);
    /// Releases the job and reports its measurements.
    fn finish(self: Box<Self>) -> JobResult;
}

/// Builds the machine for one query spec, forking the query's pass
/// meter off `root`.
pub(crate) fn make_job<'a>(spec: &QuerySpec, root: &SetStream<'a>) -> Box<dyn CoverJob<'a> + 'a> {
    let (delta, seed, epsilon) = match *spec {
        QuerySpec::IterCover { delta, seed } => (delta, seed, None),
        QuerySpec::PartialCover {
            epsilon,
            delta,
            seed,
        } => (delta, seed, Some(epsilon)),
        QuerySpec::GreedyBaseline => return Box::new(GreedyJob::new(root)),
    };
    let cfg = IterSetCoverConfig {
        delta,
        seed,
        ..Default::default()
    };
    let parent = root.fork();
    let meter = SpaceMeter::new();
    let n = parent.universe();
    let (driver, required) = match epsilon {
        None => (IterCoverDriver::new(&cfg, &parent, &meter), n),
        Some(epsilon) => {
            let required = coverage_goal(n, epsilon);
            let driver = IterCoverDriver::partial(&cfg, required, &parent, &meter);
            (driver, required)
        }
    };
    Box::new(IterJob {
        parent,
        meter,
        driver,
        required,
    })
}

/// An `iterSetCover` query, full-cover or ε-partial: a thin ownership
/// wrapper around [`IterCoverDriver`] holding the query's parent stream
/// and meter and the coverage goal it must meet.
struct IterJob<'a> {
    parent: SetStream<'a>,
    meter: SpaceMeter,
    driver: IterCoverDriver<'a>,
    required: usize,
}

impl<'a> CoverJob<'a> for IterJob<'a> {
    fn wants_scan(&self) -> bool {
        self.driver.wants_scan()
    }

    fn next_pass(&self) -> usize {
        self.driver.pass_index()
    }

    fn begin_scan(&mut self) {
        self.driver.begin_scan();
    }

    fn participants(&self) -> Vec<&SetStream<'a>> {
        self.driver.participants()
    }

    fn absorb_shard(&mut self, items: &mut dyn Iterator<Item = (SetId, &'a [ElemId])>) {
        self.driver.absorb_items(items);
    }

    fn end_scan(&mut self) {
        self.driver.end_scan();
    }

    fn finish(self: Box<Self>) -> JobResult {
        let epochs_joined = self.next_pass() - 1;
        let cover = self.driver.finish_into(&self.parent, &self.meter).0;
        JobResult {
            cover,
            logical_passes: self.parent.passes(),
            space_words: self.meter.peak(),
            required: self.required,
            epochs_joined,
        }
    }
}

/// The store-all greedy baseline as a one-scan machine: the scan copies
/// the repository (CSR layout), `end_scan` runs the shared
/// [`greedy_over_stored`] half of `StoreAllGreedy` on the copy — so
/// passes (one) and the space peak (`Θ(Σ|r|)` plus the residual bitmap)
/// match the solo run by construction.
struct GreedyJob<'a> {
    parent: SetStream<'a>,
    meter: SpaceMeter,
    store: Option<Tracked<(Vec<u32>, Vec<ElemId>)>>,
    result: Option<Vec<SetId>>,
}

impl<'a> GreedyJob<'a> {
    fn new(root: &SetStream<'a>) -> Self {
        Self {
            parent: root.fork(),
            meter: SpaceMeter::new(),
            store: None,
            result: None,
        }
    }
}

impl<'a> CoverJob<'a> for GreedyJob<'a> {
    fn wants_scan(&self) -> bool {
        self.result.is_none()
    }

    fn next_pass(&self) -> usize {
        // One-scan machine: pass 1 until the store-all scan ran.
        if self.result.is_none() {
            1
        } else {
            2
        }
    }

    fn begin_scan(&mut self) {
        self.store = Some(Tracked::new((vec![0u32], Vec::new()), &self.meter));
    }

    fn participants(&self) -> Vec<&SetStream<'a>> {
        vec![&self.parent]
    }

    fn absorb_shard(&mut self, items: &mut dyn Iterator<Item = (SetId, &'a [ElemId])>) {
        let store = self.store.as_mut().expect("scan in progress");
        for (_, elems) in items {
            store.mutate(&self.meter, |(offsets, flat)| {
                flat.extend_from_slice(elems);
                offsets.push(flat.len() as u32);
            });
        }
    }

    fn end_scan(&mut self) {
        let store = self.store.take().expect("scan in progress");
        self.result = Some(greedy_over_stored(
            store,
            self.parent.universe(),
            &self.meter,
        ));
    }

    fn finish(self: Box<Self>) -> JobResult {
        let epochs_joined = self.next_pass() - 1;
        JobResult {
            cover: self.result.unwrap_or_default(),
            logical_passes: self.parent.passes(),
            space_words: self.meter.peak(),
            required: self.parent.universe(),
            epochs_joined,
        }
    }
}
