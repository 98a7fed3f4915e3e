//! Pipeline stage 2 — **alignment**: pass-indexed join planning for
//! queries that want to ride a scan already in flight.
//!
//! The repository is immutable, so every physical scan yields the same
//! item sequence — which is exactly why a query can join a scan that
//! is *already running*: the items it "missed" are still there to
//! replay from the repository slices, and
//! [`ScanLedger::join`](sc_stream::ScanLedger::join) charges its
//! logical pass without a second physical walk. This module owns the
//! plan: which queued query splices into which scan, tagged by pass
//! index on both sides ([`CoverJob::next_pass`](crate::job::CoverJob)
//! on the query, [`ScanLedger::physical_scans`](sc_stream::ScanLedger::physical_scans)
//! on the scan). A fresh joiner's pass 1 aligns with whatever pass the
//! group's current scan is — pass-2 joins pass-2 — so a query no
//! longer waits out an epoch (or, under a blocking window, the whole
//! group) to start.
//!
//! Admission is **non-blocking**: arrivals queue as [`PendingArrival`]s
//! while the fan-out runs (the lane thread drains the channel between
//! its own [`execution`](crate::execution) units) and [`splice_pending`] splices them at the
//! scan boundary, feeding each joiner the scan's items through the
//! zero-copy replay and then running its `end_scan` (the original
//! riders ran theirs on the fan-out's workers). The admission window,
//! when configured, holds the boundary of a lone fresh head's first
//! scan open — but its timer runs from the scan's *start*, so the
//! fan-out already burned most of it and the epoch thread idles only
//! for the remainder.

use crate::admission::{Disposition, Inflight, Intake, PendingArrival};
use crate::metrics::ServiceMetrics;
use crate::service::Service;
use crate::tenants::{LedgerEvent, RepositoryGeneration};
use sc_stream::{ScanLedger, SetStream, ShardedPass};
use sc_telemetry::EventKind;
use std::time::Instant;

/// The narrow handoff the pipeline stages pass between each other: the
/// jobs inside the scan epochs plus the group's pass bookkeeping.
pub(crate) struct EpochState<'a> {
    /// The admitted jobs, in admission order (retirement preserves it).
    pub inflight: Vec<Inflight<'a>>,
    /// Scans the current epoch group has run — the group-side pass
    /// index joiners align against. Reset to zero whenever the
    /// scheduler goes idle (the next admission starts a fresh group).
    pub group_pass: usize,
}

impl<'a> EpochState<'a> {
    pub fn new() -> Self {
        Self {
            inflight: Vec::new(),
            group_pass: 0,
        }
    }
}

/// Splices the arrivals a scan's fan-out drained into that scan, at its
/// boundary (after the fan-out, whose workers already ran the original
/// riders' `end_scan`).
///
/// Each arrival is disposed of in order by [`Service::dispose`]: cache
/// hits answer immediately, duplicates coalesce onto their in-flight
/// leader, and a fresh job — room in the inflight window permitting —
/// joins the scan it was drained during: `begin_scan`,
/// [`ScanLedger::join`] (logging its logical pass against the scan's
/// pass tag, no physical walk), then the zero-copy replay of the feed,
/// then its own `end_scan`, so it
/// leaves the splice indistinguishable from a job that was in the
/// original participant list. Its admission instant is the drain
/// instant — the moment the scheduler committed the in-flight scan to
/// it. Jobs with nothing to scan are parked (returned) for the caller
/// to add after the splice; fresh jobs that found no room go back to
/// the intake's backlog for the next boundary. (The boundary refills
/// freed slots from the backlog before the scan starts, so a deferred
/// query is never waiting here while a slot is free.)
///
/// When `window` is armed (a lone fresh head's first scan), the
/// boundary is held open up to the deadline for company: the wait
/// overlaps nothing *useful* anymore — the fan-out already ran — but
/// it still only spends what remains of the window after the scan,
/// instead of the whole window up front.
#[allow(clippy::too_many_arguments)]
pub(crate) fn splice_pending<'g>(
    service: &Service,
    gen: &'g RepositoryGeneration,
    root: &SetStream<'g>,
    ledger: &ScanLedger,
    feed: &ShardedPass<'g>,
    scan_tag: usize,
    state: &mut EpochState<'g>,
    intake: &mut Intake,
    pending: &mut Vec<PendingArrival>,
    window: Option<Instant>,
    metrics: &mut ServiceMetrics,
) -> Vec<Inflight<'g>> {
    let mut parked = Vec::new();
    let mut deadline = window;
    loop {
        for arrival in pending.drain(..) {
            let PendingArrival { sub, drained } = arrival;
            let room = state.inflight.len() + parked.len() < gen.tenant.quota();
            match service.dispose(gen, sub, root, &mut state.inflight, room, drained, metrics) {
                Disposition::Answered => {
                    // A cache hit joined no scan; the window (if still
                    // open) keeps waiting for a real joiner.
                }
                Disposition::Coalesced => {
                    // The company the window waited for arrived (at
                    // zero cost): stop holding the boundary open.
                    deadline = None;
                }
                // A fresh job that found no slot waits at the next
                // boundary.
                Disposition::Deferred(sub) => intake.backlog.push_back(sub),
                Disposition::Job(mut fl) => {
                    if fl.job.wants_scan() {
                        debug_assert_eq!(
                            fl.job.next_pass(),
                            1,
                            "a spliced joiner's first pass rides the in-flight scan"
                        );
                        fl.job.begin_scan();
                        let scan = ledger.join(root, &fl.job.participants());
                        debug_assert_eq!(
                            scan, scan_tag,
                            "the splice lands on the scan the epoch planned it for"
                        );
                        // The scan already walked the repository on the
                        // group's behalf; the joiner observes the same
                        // item sequence through the zero-copy replay,
                        // then ends the scan as its riders did.
                        fl.job.absorb_shard(&mut feed.replay());
                        fl.job.end_scan();
                        gen.tenant.counters().bump(LedgerEvent::MidStreamAdmission);
                        sc_telemetry::event(
                            EventKind::Admitted,
                            fl.id,
                            gen.id,
                            scan_tag as u64,
                            state.group_pass as u32,
                        );
                        if state.group_pass > 1 {
                            // Only per-pass alignment makes this join
                            // possible: the group is past its first
                            // scan, and the joiner's pass 1 still
                            // rides the pass the group is on.
                            gen.tenant.counters().bump(LedgerEvent::AlignedJoin);
                            sc_telemetry::event(
                                EventKind::AlignedJoin,
                                fl.id,
                                gen.id,
                                scan_tag as u64,
                                state.group_pass as u32,
                            );
                        }
                        state.inflight.push(fl);
                        deadline = None;
                    } else {
                        parked.push(fl);
                    }
                }
            }
        }
        // Hold a lone fresh head's first boundary open for company —
        // watching the channel only: backlog entries were already
        // examined and deferred above, so re-pulling them here would
        // cycle them through the splice without ever reaching the
        // deadline check.
        let Some(d) = deadline else { break };
        match intake.pull_channel_deadline(d) {
            Some(sub) => pending.push(PendingArrival {
                drained: Instant::now(),
                sub,
            }),
            None => {
                if Instant::now() >= d || !intake.draining_rx() {
                    break;
                }
            }
        }
    }
    parked
}
