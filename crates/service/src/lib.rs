//! `sc_service` — a concurrent cover-query service that batches many
//! queries through shared physical scans.
//!
//! The streaming model charges for *passes*, not CPU: the repository is
//! read-only and every algorithm interacts with it only through
//! sequential scans. PR 1 exploited that inside a single `iterSetCover`
//! run (all `log₂ n` guesses ride one physical scan per logical pass —
//! [`sc_core::multiplex`]); this crate applies the same idea one level
//! up. A [`Service`] owns a hot, hot-swappable
//! [`SetSystem`](sc_setsystem::SetSystem) repository and accepts a
//! stream of cover queries ([`QuerySpec::IterCover`],
//! [`QuerySpec::PartialCover`], [`QuerySpec::GreedyBaseline`]) from
//! many clients concurrently; a scan scheduler admits pending queries
//! into **scan epochs**, each query's state machine registers the
//! logical pass it needs next, and one shared physical scan per epoch
//! advances all of them.
//!
//! # Pipeline module map
//!
//! The scheduler is an explicit staged pipeline; each stage is a
//! module, and the narrow handoff between them is
//! `alignment::EpochState` (the inflight jobs plus the epoch group's
//! pass tag):
//!
//! | stage | module | job |
//! |---|---|---|
//! | 1 admission | `admission` | intake from the submission channel (queries, `!reload`), one disposition rule (cache hit, follower, fresh job, or deferred), the backlog (deferred queries, or a whole batch) admitted only at epoch boundaries |
//! | 2 alignment | `alignment` | pass-indexed join planning: which queued query splices into which in-flight scan (pass-2 joins pass-2), the splice itself (ledger join + zero-copy replay), the admission window |
//! | 3 execution | `execution` | the sharded work-stealing fan-out ([`sc_stream::ShardedPass`] through the scan's own [`sc_stream::FeedCursor`], one gate unit per absorbed shard; lanes run their scans concurrently and share only the gate; a batch is one lane), scan boundary included (the worker that absorbs a job's last shard runs its `end_scan`), with the lane thread as one of the workers draining arrivals between its claims (non-blocking accept) |
//! | 4 retirement | `retirement` | outcome construction (tenant- and generation-tagged), cache fill + eviction accounting, reply fan-out to the query and its coalesced followers |
//! |  lifecycle | `tenants` | [`TenantRegistry`] / [`Tenant`] / [`RepositoryGeneration`]: named repositories, each a fingerprint-versioned generation chain behind its own hot swap, with per-tenant quotas and counters; each generation owns the guess memo its jobs replay from |
//! |  fairness | `fairness` | the deficit-round-robin gate arbitrating tenant lanes' scan work per `(tenant, shard)` unit — a hot tenant cannot starve a cold one |
//!
//! `service` orchestrates the stages (the one lane loop both entry
//! points run, the generation outer loop); `cache`, `metrics`, `query`,
//! `protocol`, and `net` are the supporting surfaces (outcome cache
//! with pluggable eviction, per-run metrics, the query grammar,
//! the typed request/reply wire codec, and the event-driven TCP
//! front-end with its readiness poller).
//!
//! # Scale levers
//!
//! * **Pass-aligned, non-blocking mid-stream admission** — a query
//!   arriving while a scan is in flight is committed to that scan
//!   immediately (the lane thread, itself one of the fan-out's
//!   workers, drains arrivals between its claims) and spliced at
//!   the scan boundary: its first logical pass aligns with
//!   whatever pass the group's scan carries — pass-2 joins pass-2 —
//!   [`sc_stream::ScanLedger::join`] logs the pass against the scan's
//!   tag with no second physical walk, and the joiner observes the
//!   items through the zero-copy replay. The admission window
//!   ([`ServiceConfig::admission_window`]) overlaps the fan-out
//!   instead of blocking the epoch thread up front (experiment E20,
//!   `BENCH_admission.json`).
//! * **Multi-tenant serving** — one process hosts many *named*
//!   repositories ([`TenantRegistry`], built through
//!   [`ServiceBuilder`]): each tenant runs its own scheduler lane
//!   (own generation chain, own submission queue, own quota) while
//!   sharing the gate's worker capacity and the outcome cache (partitioned by
//!   tenant in the key). The protocol addresses tenants with
//!   `!use <name>` per connection or `repo=<name>` per query, and a
//!   deficit-round-robin gate over `(tenant, shard)` work units
//!   (`fairness`) keeps a hot tenant from starving a cold one while
//!   the lanes' scans share the gate's worker capacity — cold-tenant
//!   admission never waits on hot-tenant scans at all, only execution
//!   is arbitrated.
//! * **Repository lifecycle** — every served repository is a
//!   fingerprint-versioned generation ([`RepositoryGeneration`]):
//!   [`ServiceHandle::reload`] (the `!reload <path>` protocol line)
//!   hot-swaps it mid-load, in-flight queries drain on their original
//!   generation, every outcome reports the generation it was answered
//!   from (`gen=`), and the dead generation's outcome-cache entries
//!   are reaped ([`OutcomeCache::evict_fingerprint`]) — per tenant,
//!   leaving every other tenant's in-flight work untouched.
//! * **In-flight query coalescing** — always on: a query identical to
//!   a job already in flight attaches to it as a follower instead of
//!   running. The job's retirement fans one reply out per follower and
//!   populates the cache once, so N identical concurrent clients cost
//!   one query's CPU as well as one query's scans. A follower gets its
//!   leader's outcome, which is exactly its own solo run's (the query
//!   kinds are deterministic given their spec), so coalescing changes
//!   only its timing ([`ServiceMetrics::coalesced`]; pinned by the
//!   `coalesce` test suite and measured by experiment E19,
//!   `BENCH_coalesce.json`). The cache takes precedence: a retired
//!   identical answer is served in zero scans rather than waiting on
//!   the in-flight job.
//! * **The outcome cache** — repeat queries (same spec, same
//!   repository fingerprint) are answered from [`OutcomeCache`] in
//!   zero physical scans, with hit/miss/eviction counters in
//!   [`ServiceMetrics`] and a pluggable [`EvictionPolicy`] (LRU by
//!   default, for serving workloads with a hot repeat set; FIFO on
//!   request); a cache shared across
//!   services keeps repositories apart through the content
//!   fingerprint in the key plus a per-hit dimension cross-check (see
//!   [`OutcomeCache`] for the collision caveat).
//! * **The guess memo** — a seed-free `iterSetCover` guess (its
//!   sample `sample_size_for(cfg, k, n, m)` reaches `n`, so it never
//!   draws from its RNG) has the same outcome in every query with the
//!   same δ and goal. Each [`RepositoryGeneration`] owns a bounded
//!   [`GuessMemo`](sc_core::GuessMemo) of these outcomes, and `make_job`
//!   builds every `iterSetCover` job on
//!   [`IterCoverDriver::replaying`](sc_core::IterCoverDriver::replaying):
//!   the guesses the memo holds ride their recorded scans and do no
//!   other work, so answers, passes, space and physical scans are
//!   unchanged ([`LedgerEvent::GuessReplay`] counts the replays). A
//!   reload starts an empty memo; like the outcome cache, the memo sits
//!   outside the per-query space model.
//! * **One ledger, one histogram** — every query-lifecycle event is
//!   counted once, in its tenant's ledger ([`TenantCounters`], one
//!   [`LedgerEvent`] per count); a run's [`ServiceMetrics`] counts are
//!   that ledger's growth across the run, and [`expose`] renders it
//!   live (`!stats` sums it over the tenants, `!metrics` labels it per
//!   tenant). [`ServiceMetrics::queue_wait`] and
//!   [`ServiceMetrics::latency`] are log-bucketed
//!   [`HistogramSnapshot`]s with p50/p90/p99 extraction, the numbers
//!   experiments E18/E20 report under load.
//!
//! Two guarantees, both pinned by integration tests:
//!
//! * **Equivalence** — a query solved through the service returns the
//!   bit-identical cover, logical pass count, and space peak as the
//!   same query run solo (`service_equivalence`, `alignment`) — under
//!   mid-stream splices, cache hits, and hot swaps alike: each job
//!   keeps its own forked stream counter and space meter and performs
//!   exactly the sequential operations in the same order, and a cache
//!   hit replays the stored solo observables verbatim.
//! * **Scan sharing is real** — for `N` concurrent identical queries
//!   the service performs `max` (not `N ×`) physical scans, recorded
//!   by [`sc_stream::ScanLedger`] and reported in
//!   [`ServiceMetrics::physical_scans`] (`service_scan_sharing`), and
//!   cache hits cost zero scans (`outcome_cache`).
//!
//! Entry points: [`Service::run_batch`] for a fixed workload (all
//! queries submitted at once and admitted at epoch boundaries — what
//! experiment E17 measures) and [`Service::serve`] for concurrent
//! clients submitting through a [`ServiceHandle`] with bounded-queue
//! backpressure. Both run the same lane loop: a batch is a lane whose
//! intake was filled in advance and closed. The
//! line protocol spoken by `sctool serve` lives in [`QuerySpec::parse`]
//! / [`QueryOutcome::protocol_line`]; the TCP front-end and the
//! [`net::wait_ready`] readiness probe live in [`net`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod alignment;
mod cache;
mod execution;
mod fairness;
mod job;
mod metrics;
pub mod net;
pub mod protocol;
mod query;
mod retirement;
mod service;
mod telemetry;
mod tenants;

pub use cache::{CachedAnswer, EvictionPolicy, OutcomeCache};
pub use metrics::ServiceMetrics;
pub use net::{NetConfig, NetStats};
pub use query::{QueryOutcome, QuerySpec};
pub use sc_telemetry::HistogramSnapshot;
pub use service::{
    QueryTicket, ReloadTicket, Service, ServiceBuilder, ServiceClosed, ServiceConfig,
    ServiceHandle, TrySubmitError,
};
pub use telemetry::{expose, Surface};
pub use tenants::{
    LedgerEvent, RepositoryGeneration, RepositoryStore, Tenant, TenantCounters, TenantMeta,
    TenantRegistry,
};
