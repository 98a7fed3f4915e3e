//! Process-wide, lock-cheap instrumentation for the set-cover service.
//!
//! The crate is a leaf: no dependencies, `std` only, and every hot-path
//! entry point is guarded by a single relaxed [`AtomicBool`] so that an
//! un-enabled process pays one relaxed load per instrumentation site and
//! nothing else. Three substrates live here:
//!
//! * **Counters** ([`counter`]) — named, process-wide monotonic
//!   counters. Each counter is sharded across cache-line-padded atomic
//!   cells keyed by a per-thread shard id, so concurrent workers never
//!   contend on one line; [`Counter::value`] sums the shards.
//! * **Stage histograms** ([`stage`]) — atomic log₂-µs histograms
//!   (40 buckets, bucket 0 sub-µs, bucket *i* = `[2^(i-1), 2^i)` µs).
//!   [`StageHistogram::span`] returns a drop-guard that records the
//!   elapsed time of a pipeline stage. Their plain-data form,
//!   [`HistogramSnapshot`], is the workspace's one histogram type: it
//!   also records and merges directly (the service's per-run latency
//!   histograms), and [`HistogramSnapshot::delta`] subtracts an
//!   earlier snapshot for per-window percentiles.
//! * **Query journal** ([`event`], [`trace`]) — a fixed-capacity
//!   ring buffer of structured query-lifecycle events
//!   (`submitted/admitted/aligned_join@pass/epoch_scan/retired` …)
//!   tagged with query id, repository generation, epoch, and pass
//!   index. [`trace`] replays one query's timeline in order.
//!
//! The registries are read with [`registered_counters`],
//! [`registered_stages`], and [`journal_stats`]; the text expositions
//! (`!stats`, `!metrics`) are rendered by the service, which adds its
//! per-tenant query ledger. [`reset`] zeroes everything for A/B
//! overhead measurements (experiment E22).
//!
//! Telemetry is observational only: nothing in this crate feeds back
//! into scheduling decisions, so enabling it cannot perturb the
//! bit-identical equivalence guarantees of the layers it watches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod histogram;
mod journal;

pub use counters::{counter, registered_counters, Counter};
pub use histogram::{
    registered_stages, stage, HistogramSnapshot, SpanGuard, StageHistogram, BUCKETS,
};
pub use journal::{event, journal_stats, trace, EventKind, QueryEvent, JOURNAL_CAPACITY};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The single process-wide gate. Relaxed ordering is deliberate:
/// instrumentation sites tolerate observing a stale value for a few
/// loads around a toggle, and a relaxed load is the cheapest possible
/// "is anyone watching?" check.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Returns whether telemetry collection is enabled.
///
/// Every recording entry point in this crate checks this gate itself,
/// so call sites may record unconditionally; check it manually only to
/// skip *preparing* an observation (e.g. reading a clock).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Microseconds since the process's telemetry clock started (first use).
pub(crate) fn now_us() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    let start = START.get_or_init(Instant::now);
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Zeroes every registered counter and stage histogram and clears the
/// query journal. The enable gate is left as-is. Intended for tests and
/// the E22 overhead A/B, which measures enabled-vs-disabled phases in
/// one process.
pub fn reset() {
    counters::reset_all();
    histogram::reset_all();
    journal::reset();
}

/// Serializes callers that flip or reset process-wide telemetry state
/// (the gate, the journal, registry-wide [`reset`]s): everything in
/// this crate is global, so tests — in this crate or any downstream
/// crate's parallel test binary — that enable telemetry and assert on
/// its contents must hold this while they do. Poisoning is ignored: a
/// panicked holder leaves no state worth protecting beyond what the
/// next holder resets anyway.
pub fn test_hold() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
pub(crate) use test_hold as test_guard;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_toggles() {
        let _g = test_guard();
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(was);
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }
}
