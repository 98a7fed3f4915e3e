//! Cached handles into the process-wide [`sc_telemetry`] registry.
//!
//! Counter and stage lookups take the registry lock; the hot paths must
//! not. This module resolves every name the service emits exactly once
//! (behind a `OnceLock`) and hands the pipeline `'static` references,
//! so an instrumentation site costs one relaxed gate load when
//! telemetry is off and one sharded relaxed fetch-add when it is on.
//!
//! The counters mirror the per-run [`ServiceMetrics`] fields onto the
//! process-wide live surface (`!stats` / `!metrics`): `ServiceMetrics`
//! stays the exact per-run accounting experiments assert on, while
//! these counters aggregate across every run, generation, and
//! connection in the process, scrapeable mid-load.
//!
//! [`ServiceMetrics`]: crate::ServiceMetrics

use sc_telemetry::{Counter, StageHistogram};
use std::sync::OnceLock;

/// Every counter and stage histogram the service pipeline touches.
pub(crate) struct Tel {
    /// Mirrors submissions entering the service (batch slots included).
    pub submitted: &'static Counter,
    /// Mirrors [`ServiceMetrics::queries_completed`](crate::ServiceMetrics::queries_completed).
    pub completed: &'static Counter,
    /// Mirrors [`ServiceMetrics::jobs`](crate::ServiceMetrics::jobs).
    pub jobs: &'static Counter,
    /// Mirrors [`ServiceMetrics::cache_hits`](crate::ServiceMetrics::cache_hits).
    pub cache_hits: &'static Counter,
    /// Mirrors [`ServiceMetrics::cache_misses`](crate::ServiceMetrics::cache_misses).
    pub cache_misses: &'static Counter,
    /// Mirrors [`ServiceMetrics::coalesced`](crate::ServiceMetrics::coalesced).
    pub coalesced: &'static Counter,
    /// Mirrors [`ServiceMetrics::mid_stream_admissions`](crate::ServiceMetrics::mid_stream_admissions).
    pub mid_stream_admissions: &'static Counter,
    /// Mirrors [`ServiceMetrics::aligned_joins`](crate::ServiceMetrics::aligned_joins).
    pub aligned_joins: &'static Counter,
    /// Mirrors [`ServiceMetrics::reloads`](crate::ServiceMetrics::reloads).
    pub reloads: &'static Counter,
    /// Mirrors [`ServiceMetrics::evictions`](crate::ServiceMetrics::evictions) (all causes).
    pub cache_evictions: &'static Counter,
    /// Connections the TCP front-end accepted into sessions
    /// ([`NetStats::accepted`](crate::NetStats::accepted)).
    pub net_accepted: &'static Counter,
    /// Load shed at the front door — connections refused over
    /// `max_conns` plus queries answered `err msg=busy`
    /// ([`NetStats::shed`](crate::NetStats::shed)).
    pub net_shed: &'static Counter,
    /// Request lines discarded for overflowing the per-session read
    /// buffer
    /// ([`NetStats::buffer_overflows`](crate::NetStats::buffer_overflows)).
    pub net_buffer_overflows: &'static Counter,
    /// Stage 1 — boundary admission work (excludes idle channel waits).
    pub stage_admission: &'static StageHistogram,
    /// Stage 2 — the mid-stream splice / blocking drain at a scan
    /// boundary.
    pub stage_alignment: &'static StageHistogram,
    /// Stage 3 — one scan's fan-out across the worker pool, including
    /// the `end_scan` work its workers run at the scan boundary.
    pub stage_execution: &'static StageHistogram,
    /// Stage 4 — retirement rounds that actually retired a job.
    pub stage_retirement: &'static StageHistogram,
}

/// The resolved handles, looked up once per process.
pub(crate) fn tel() -> &'static Tel {
    static TEL: OnceLock<Tel> = OnceLock::new();
    TEL.get_or_init(|| Tel {
        submitted: sc_telemetry::counter("sc_queries_submitted_total"),
        completed: sc_telemetry::counter("sc_queries_completed_total"),
        jobs: sc_telemetry::counter("sc_query_jobs_total"),
        cache_hits: sc_telemetry::counter("sc_cache_hits_total"),
        cache_misses: sc_telemetry::counter("sc_cache_misses_total"),
        coalesced: sc_telemetry::counter("sc_coalesced_total"),
        mid_stream_admissions: sc_telemetry::counter("sc_mid_stream_admissions_total"),
        aligned_joins: sc_telemetry::counter("sc_aligned_joins_total"),
        reloads: sc_telemetry::counter("sc_reloads_total"),
        cache_evictions: sc_telemetry::counter("sc_cache_evictions_total"),
        net_accepted: sc_telemetry::counter("sc_net_accepted_total"),
        net_shed: sc_telemetry::counter("sc_net_shed_total"),
        net_buffer_overflows: sc_telemetry::counter("sc_net_buffer_overflows_total"),
        stage_admission: sc_telemetry::stage("admission"),
        stage_alignment: sc_telemetry::stage("alignment"),
        stage_execution: sc_telemetry::stage("execution"),
        stage_retirement: sc_telemetry::stage("retirement"),
    })
}
