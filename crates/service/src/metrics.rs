//! Aggregate counters of one service run.

use crate::cache::EvictionPolicy;
use crate::tenants::{LedgerEvent, LedgerTotals};
use sc_telemetry::HistogramSnapshot;
use std::time::Duration;

/// Aggregate counters of one service run.
///
/// The query counts (`queries_completed` through `guess_replays`) are
/// the growth of the tenant's query ledger
/// ([`TenantCounters`](crate::TenantCounters), one
/// [`LedgerEvent`] per count) across the run: every lane reads its
/// own tenant's, and [`Service::run_batch`](crate::Service::run_batch)
/// is one lane of the default tenant. They are exact as long as no other run drives
/// the same tenant at the same time. `physical_scans`,
/// `max_inflight_seen`, `queue_wait`, `latency`, and `elapsed` are the
/// run's own.
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Physical scans of the repository the service actually performed
    /// — the number scan sharing is measured against (compare with the
    /// sum of per-query `logical_passes`).
    pub physical_scans: usize,
    /// Queries completed, cache hits and followers included (ledger
    /// delta of [`LedgerEvent::Completed`]).
    pub queries_completed: usize,
    /// Largest number of queries concurrently inside scan epochs.
    pub max_inflight_seen: usize,
    /// Queries admitted as fresh jobs — the units that actually pay
    /// per-scan CPU. `queries_completed = jobs + cache_hits +
    /// coalesced` once a run drains (ledger delta of
    /// [`LedgerEvent::Job`]).
    pub jobs: usize,
    /// Queries admitted into a scan already in flight (pass-aligned
    /// mid-stream admission) instead of waiting for the next epoch
    /// (ledger delta of [`LedgerEvent::MidStreamAdmission`]).
    pub mid_stream_admissions: usize,
    /// The subset of [`mid_stream_admissions`] spliced into a *later*
    /// pass of an in-flight epoch group (the group's scan index was ≥ 2
    /// when the joiner's first pass rode it) — the joins only per-pass
    /// alignment makes possible; a pass-1-only scheduler would have
    /// made these queries wait for the next epoch boundary (ledger
    /// delta of [`LedgerEvent::AlignedJoin`]).
    ///
    /// [`mid_stream_admissions`]: ServiceMetrics::mid_stream_admissions
    pub aligned_joins: usize,
    /// Repository hot swaps the scheduler performed
    /// ([`ServiceHandle::reload`](crate::ServiceHandle::reload) /
    /// the `!reload` protocol line; ledger delta of
    /// [`LedgerEvent::Reload`]).
    pub reloads: usize,
    /// Outcome-cache entries evicted during this run, all causes
    /// (capacity bound under either policy, plus generation reaping):
    /// `fifo_evictions + lru_evictions + reload_evictions`.
    pub evictions: usize,
    /// Capacity evictions under the FIFO policy (ledger delta of
    /// [`LedgerEvent::CapacityEviction`] when the cache is FIFO).
    pub fifo_evictions: usize,
    /// Capacity evictions under the LRU policy (ledger delta of
    /// [`LedgerEvent::CapacityEviction`] when the cache is LRU).
    pub lru_evictions: usize,
    /// Entries reaped because their repository generation died in a
    /// hot swap ([`OutcomeCache::evict_fingerprint`](crate::OutcomeCache::evict_fingerprint);
    /// ledger delta of [`LedgerEvent::ReloadEviction`]).
    pub reload_evictions: usize,
    /// Queries answered from the outcome cache in zero physical scans
    /// (ledger delta of [`LedgerEvent::CacheHit`]).
    pub cache_hits: usize,
    /// Queries that missed the cache and became their own jobs
    /// (coalesced followers are counted in
    /// [`coalesced`](ServiceMetrics::coalesced), not here; ledger delta
    /// of [`LedgerEvent::CacheMiss`]).
    pub cache_misses: usize,
    /// Queries that coalesced onto an identical in-flight job
    /// ([`ServiceConfig::coalesce`](crate::ServiceConfig)): they ride
    /// that job's scans and CPU, and its retirement fans one reply out
    /// per follower (ledger delta of [`LedgerEvent::Coalesced`]).
    pub coalesced: usize,
    /// `(tenant, shard)` work units absorbed through the interleaved
    /// fan-out: every scan's `jobs × shards`, in serve and batch runs
    /// alike. Zero only when nothing was scanned (all cache hits).
    /// Ledger delta of [`LedgerEvent::ShardGrant`].
    pub shard_grants: usize,
    /// Seed-free guesses jobs replayed from their generation's guess
    /// memo instead of running them (ledger delta of
    /// [`LedgerEvent::GuessReplay`]).
    pub guess_replays: usize,
    /// Submission → admission wait, one observation per query.
    pub queue_wait: HistogramSnapshot,
    /// Submission → completion latency, one observation per query.
    pub latency: HistogramSnapshot,
    /// Wall-clock from first admission to last retirement.
    pub elapsed: Duration,
}

impl ServiceMetrics {
    /// Folds another run's (or another tenant lane's) metrics into this
    /// one: counts add, histograms merge, and the concurrency peak and
    /// wall-clock take the maximum — the lanes of a multi-tenant serve
    /// run side by side, so their elapsed times overlap rather than
    /// accumulate.
    pub fn merge(&mut self, other: &ServiceMetrics) {
        self.physical_scans += other.physical_scans;
        self.queries_completed += other.queries_completed;
        self.max_inflight_seen = self.max_inflight_seen.max(other.max_inflight_seen);
        self.jobs += other.jobs;
        self.mid_stream_admissions += other.mid_stream_admissions;
        self.aligned_joins += other.aligned_joins;
        self.reloads += other.reloads;
        self.evictions += other.evictions;
        self.fifo_evictions += other.fifo_evictions;
        self.lru_evictions += other.lru_evictions;
        self.reload_evictions += other.reload_evictions;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.coalesced += other.coalesced;
        self.shard_grants += other.shard_grants;
        self.guess_replays += other.guess_replays;
        self.queue_wait.merge(&other.queue_wait);
        self.latency.merge(&other.latency);
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    /// Sets the query counts to the ledger's growth from `before` to
    /// `after`; capacity evictions are attributed to the cache's
    /// `policy`.
    pub(crate) fn count_ledger(
        &mut self,
        before: &LedgerTotals,
        after: &LedgerTotals,
        policy: EvictionPolicy,
    ) {
        let grew = |e: LedgerEvent| (after[e as usize] - before[e as usize]) as usize;
        let capacity = grew(LedgerEvent::CapacityEviction);
        self.queries_completed = grew(LedgerEvent::Completed);
        self.jobs = grew(LedgerEvent::Job);
        self.mid_stream_admissions = grew(LedgerEvent::MidStreamAdmission);
        self.aligned_joins = grew(LedgerEvent::AlignedJoin);
        self.reloads = grew(LedgerEvent::Reload);
        self.reload_evictions = grew(LedgerEvent::ReloadEviction);
        self.evictions = capacity + self.reload_evictions;
        (self.fifo_evictions, self.lru_evictions) = match policy {
            EvictionPolicy::Fifo => (capacity, 0),
            EvictionPolicy::Lru => (0, capacity),
        };
        self.cache_hits = grew(LedgerEvent::CacheHit);
        self.cache_misses = grew(LedgerEvent::CacheMiss);
        self.coalesced = grew(LedgerEvent::Coalesced);
        self.shard_grants = grew(LedgerEvent::ShardGrant);
        self.guess_replays = grew(LedgerEvent::GuessReplay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_metrics_merge_adds_counts_and_overlaps_time() {
        let mut a = ServiceMetrics {
            physical_scans: 3,
            queries_completed: 2,
            max_inflight_seen: 4,
            jobs: 2,
            elapsed: Duration::from_millis(10),
            ..Default::default()
        };
        let mut b = ServiceMetrics {
            physical_scans: 5,
            queries_completed: 1,
            max_inflight_seen: 1,
            jobs: 1,
            cache_hits: 7,
            elapsed: Duration::from_millis(30),
            ..Default::default()
        };
        b.latency.record(Duration::from_micros(9));
        a.merge(&b);
        assert_eq!(a.physical_scans, 8);
        assert_eq!(a.queries_completed, 3);
        assert_eq!(a.jobs, 3);
        assert_eq!(a.cache_hits, 7);
        assert_eq!(a.max_inflight_seen, 4, "peaks take the max");
        assert_eq!(a.elapsed, Duration::from_millis(30), "lanes overlap");
        assert_eq!(a.latency.count, 1);
    }

    #[test]
    fn ledger_growth_becomes_the_run_counts() {
        let mut before = [0u64; LedgerEvent::ALL.len()];
        before[LedgerEvent::Completed as usize] = 5;
        let mut after = before;
        after[LedgerEvent::Completed as usize] = 8;
        after[LedgerEvent::CapacityEviction as usize] = 2;
        after[LedgerEvent::ReloadEviction as usize] = 1;
        after[LedgerEvent::GuessReplay as usize] = 6;
        let mut m = ServiceMetrics::default();
        m.count_ledger(&before, &after, EvictionPolicy::Lru);
        assert_eq!(m.queries_completed, 3);
        assert_eq!((m.evictions, m.lru_evictions, m.fifo_evictions), (3, 2, 0));
        assert_eq!(m.reload_evictions, 1);
        assert_eq!(m.guess_replays, 6);
    }
}
