//! Aggregate service counters and log-bucketed latency histograms.

use std::fmt;
use std::time::Duration;

/// Number of log₂ buckets; bucket 39 holds everything ≥ 2³⁸ µs (~76 h),
/// far beyond any realistic query latency.
const BUCKETS: usize = 40;

/// A log₂-bucketed latency histogram with percentile extraction.
///
/// Bucket `0` holds sub-microsecond durations; bucket `i ≥ 1` holds
/// durations in `[2^(i-1), 2^i)` microseconds; the last bucket absorbs
/// overflow. Recording is O(1) and the memory footprint is fixed
/// (40 counters), so the scheduler can record every query without a
/// reservoir or allocation. Percentiles interpolate linearly inside
/// the bucket containing the requested rank (a rank at the very end of
/// a bucket lands exactly on its upper edge) — exact to within the 2×
/// bucket resolution, which is the right precision for a load test's
/// p50/p90/p99 summary. [`snapshot`](LatencyHistogram::snapshot) /
/// [`delta`](LatencyHistogram::delta) turn two cumulative states into
/// a per-window histogram for interval stats.
///
/// # Examples
///
/// ```
/// use sc_service::LatencyHistogram;
/// use std::time::Duration;
///
/// let mut h = LatencyHistogram::default();
/// for ms in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
///     h.record(Duration::from_millis(ms));
/// }
/// assert_eq!(h.count(), 10);
/// assert!(h.percentile(50.0) < Duration::from_millis(3));
/// assert!(h.percentile(99.0) >= Duration::from_millis(100));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_us: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum_us: 0,
        }
    }
}

impl LatencyHistogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Records one observation.
    pub fn record(&mut self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us += u128::from(us);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded durations (exact, not bucketed).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(
            u64::try_from(self.sum_us / u128::from(self.count)).unwrap_or(u64::MAX),
        )
    }

    /// The `p`-th percentile (`0 < p ≤ 100`), linearly interpolated
    /// inside the bucket holding that rank: the rank's position within
    /// its bucket maps proportionally between the bucket's lower and
    /// upper edge, so a rank at the very end of a bucket reports
    /// exactly the upper edge (`2^i` µs) and earlier ranks report
    /// proportionally less instead of all collapsing onto the edge.
    /// Returns zero on an empty histogram.
    pub fn percentile(&self, p: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let upper = 1u64 << i.min(63);
                let within = rank - seen; // 1..=c
                return Duration::from_micros(lower + ((upper - lower) * within).div_ceil(c));
            }
            seen += c;
        }
        Duration::from_micros(1u64 << (BUCKETS - 1).min(63))
    }

    /// A copy of the current cumulative state, for later subtraction
    /// via [`delta`](LatencyHistogram::delta).
    pub fn snapshot(&self) -> LatencyHistogram {
        self.clone()
    }

    /// The observations recorded since `earlier` was taken: `self`
    /// minus `earlier`, bucket-wise (saturating, so a reset between the
    /// two snapshots degrades to the later state instead of wrapping).
    /// Percentiles of the returned histogram describe only the window —
    /// this is what `sctool serve --stats-interval` prints per tick.
    pub fn delta(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let mut buckets = [0u64; BUCKETS];
        for (out, (a, b)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&earlier.buckets))
        {
            *out = a.saturating_sub(*b);
        }
        LatencyHistogram {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum_us: self.sum_us.saturating_sub(earlier.sum_us),
        }
    }

    /// Builds a histogram from raw parts sharing this type's bucket
    /// layout — the bridge from `sc_telemetry::HistogramSnapshot`
    /// (same 40 log₂-µs buckets) into the service's summary formatting.
    pub fn from_parts(buckets: [u64; BUCKETS], count: u64, sum_us: u128) -> Self {
        Self {
            buckets,
            count,
            sum_us,
        }
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
    }

    /// One-line `p50/p90/p99 (mean, n)` summary in milliseconds.
    pub fn summary(&self) -> String {
        format!(
            "p50≤{:.1}ms p90≤{:.1}ms p99≤{:.1}ms (mean {:.1}ms, n={})",
            self.percentile(50.0).as_secs_f64() * 1e3,
            self.percentile(90.0).as_secs_f64() * 1e3,
            self.percentile(99.0).as_secs_f64() * 1e3,
            self.mean().as_secs_f64() * 1e3,
            self.count,
        )
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Aggregate counters of one service run.
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Physical scans of the repository the service actually performed
    /// — the number scan sharing is measured against (compare with the
    /// sum of per-query `logical_passes`).
    pub physical_scans: usize,
    /// Queries completed (cache hits included).
    pub queries_completed: usize,
    /// Largest number of queries concurrently inside scan epochs.
    pub max_inflight_seen: usize,
    /// Queries admitted as fresh jobs — the units that actually pay
    /// per-scan CPU. `queries_completed = jobs + cache_hits +
    /// coalesced` once a run drains.
    pub jobs: usize,
    /// Queries admitted into a scan already in flight (pass-aligned
    /// mid-stream admission) instead of waiting for the next epoch.
    pub mid_stream_admissions: usize,
    /// The subset of [`mid_stream_admissions`] spliced into a *later*
    /// pass of an in-flight epoch group (the group's scan index was ≥ 2
    /// when the joiner's first pass rode it) — the joins only per-pass
    /// alignment makes possible; a pass-1-only scheduler would have
    /// made these queries wait for the next epoch boundary.
    ///
    /// [`mid_stream_admissions`]: ServiceMetrics::mid_stream_admissions
    pub aligned_joins: usize,
    /// Repository hot swaps the scheduler performed
    /// ([`ServiceHandle::reload`](crate::ServiceHandle::reload) /
    /// the `!reload` protocol line).
    pub reloads: usize,
    /// Outcome-cache entries evicted during this run, all causes
    /// (capacity bound under either policy, plus generation reaping).
    pub evictions: usize,
    /// Capacity evictions under the FIFO policy.
    pub fifo_evictions: usize,
    /// Capacity evictions under the LRU policy.
    pub lru_evictions: usize,
    /// Entries reaped because their repository generation died in a
    /// hot swap ([`OutcomeCache::evict_fingerprint`](crate::OutcomeCache::evict_fingerprint)).
    pub reload_evictions: usize,
    /// Queries answered from the outcome cache in zero physical scans.
    pub cache_hits: usize,
    /// Queries that missed the cache and became their own jobs
    /// (coalesced followers are counted in
    /// [`coalesced`](ServiceMetrics::coalesced), not here).
    pub cache_misses: usize,
    /// Queries that coalesced onto an identical in-flight job
    /// ([`ServiceConfig::coalesce`](crate::ServiceConfig)): they ride
    /// that job's scans and CPU, and its retirement fans one reply out
    /// per follower.
    pub coalesced: usize,
    /// `(tenant, shard)` work units absorbed through the interleaved
    /// fan-out: every scan's `jobs × shards`, in serve and batch runs
    /// alike. Zero only when nothing was scanned (all cache hits).
    pub shard_grants: usize,
    /// Submission → admission wait, one observation per query.
    pub queue_wait: LatencyHistogram,
    /// Submission → completion latency, one observation per query.
    pub latency: LatencyHistogram,
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
        self.queue_wait.merge(&other.queue_wait);
        self.latency.merge(&other.latency);
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_in_microseconds() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.percentile(99.0), Duration::ZERO);
        for _ in 0..99 {
            h.record(Duration::from_micros(10)); // bucket [8, 16)
        }
        h.record(Duration::from_millis(50)); // bucket [32768, 65536) µs
        assert_eq!(h.count(), 100);
        // Rank 50 of the 99 observations in [8, 16) interpolates to
        // 8 + ceil(8·50/99) = 13; rank 99 lands on the upper edge.
        assert_eq!(h.percentile(50.0), Duration::from_micros(13));
        assert_eq!(h.percentile(99.0), Duration::from_micros(16));
        assert_eq!(h.percentile(100.0), Duration::from_micros(65536));
    }

    #[test]
    fn percentiles_interpolate_inside_a_bucket() {
        let mut h = LatencyHistogram::new();
        for _ in 0..4 {
            h.record(Duration::from_micros(10)); // bucket [8, 16)
        }
        // Ranks 1..=4 spread proportionally across the bucket: the
        // terminal rank reports exactly the upper edge, earlier ranks
        // proportionally less.
        assert_eq!(h.percentile(25.0), Duration::from_micros(10));
        assert_eq!(h.percentile(50.0), Duration::from_micros(12));
        assert_eq!(h.percentile(75.0), Duration::from_micros(14));
        assert_eq!(h.percentile(100.0), Duration::from_micros(16));
    }

    #[test]
    fn snapshot_delta_reports_the_window_only() {
        let mut h = LatencyHistogram::new();
        for _ in 0..50 {
            h.record(Duration::from_millis(30)); // slow warm-up phase
        }
        let earlier = h.snapshot();
        for _ in 0..50 {
            h.record(Duration::from_micros(10)); // fast steady state
        }
        // Cumulative p50 still remembers the warm-up…
        assert!(h.percentile(90.0) >= Duration::from_millis(16));
        // …the window does not.
        let window = h.delta(&earlier);
        assert_eq!(window.count(), 50);
        assert_eq!(window.mean(), Duration::from_micros(10));
        assert!(window.percentile(99.0) <= Duration::from_micros(16));
        // Delta against an unchanged snapshot is empty.
        assert_eq!(h.delta(&h.snapshot()).count(), 0);
    }

    #[test]
    fn from_parts_round_trips_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(300));
        let copy = LatencyHistogram::from_parts(h.buckets, h.count, h.sum_us);
        assert_eq!(copy, h);
        assert_eq!(copy.mean(), Duration::from_micros(200));
    }

    #[test]
    fn merge_adds_counts_and_sums() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(3));
        b.record(Duration::from_micros(5));
        b.record(Duration::from_micros(7));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), Duration::from_micros(5));
    }

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
        assert_eq!(a.latency.count(), 1);
    }

    #[test]
    fn summary_mentions_all_percentiles() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_millis(2));
        let s = h.summary();
        assert!(s.contains("p50") && s.contains("p90") && s.contains("p99"));
    }
}
