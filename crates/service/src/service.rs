//! The scan-epoch scheduler, restructured as a staged pipeline:
//! [`admission`](crate::admission) → [`alignment`](crate::alignment) →
//! [`execution`](crate::execution) → [`retirement`](crate::retirement),
//! orchestrated here around a narrow
//! [`EpochState`](crate::alignment::EpochState) handoff — one scheduler
//! *lane* per tenant, each over its own hot-swappable repository
//! generations ([`TenantRegistry`](crate::tenants::TenantRegistry)),
//! with the deficit-round-robin
//! [`FairGate`](crate::fairness::FairGate) arbitrating `(tenant,
//! shard)` work units across lanes.

use crate::admission::{Admitted, Intake, QuerySubmission, ReloadRequest, ReplyTx, Submission};
use crate::alignment::{self, EpochState};
use crate::cache::{EvictionPolicy, OutcomeCache};
use crate::execution;
use crate::fairness::FairGate;
use crate::metrics::ServiceMetrics;
use crate::query::{QueryOutcome, QuerySpec};
use crate::telemetry::tel;
use crate::tenants::{LedgerEvent, RepositoryGeneration, Tenant, TenantMeta, TenantRegistry};
use sc_setsystem::SetSystem;
use sc_stream::{ScanLedger, SetStream};
use sc_telemetry::EventKind;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Tuning knobs of the service.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Queries admitted into concurrent scan epochs at once; admission
    /// beyond this waits for a slot (the scheduler's half of
    /// backpressure).
    pub max_inflight: usize,
    /// Workers fanning out per-query state updates and `end_scan`s
    /// within one scan (the queries are disjoint state, so the fan-out
    /// never touches accounting). The lane thread counts as one of
    /// them; the rest are `std::thread::scope` threads, so `1` spawns
    /// none.
    pub workers: usize,
    /// Bound of the submission queue; [`ServiceHandle::submit`] blocks
    /// once this many queries wait unadmitted (the client's half of
    /// backpressure).
    pub queue_depth: usize,
    /// Entries the outcome cache may hold (`0` disables caching).
    /// Ignored when [`ServiceBuilder::shared_cache`] supplies the
    /// cache, which brings its own capacity.
    pub cache_capacity: usize,
    /// Eviction policy of the private cache the builder creates (FIFO
    /// by default — zero bookkeeping on the hit path; `sctool serve`
    /// defaults to LRU). Ignored with
    /// [`ServiceBuilder::shared_cache`].
    pub eviction: EvictionPolicy,
    /// How long the scheduler holds the *first* scan of a fresh epoch
    /// group open for mid-stream joiners (only channel arrivals join,
    /// so a batch's closed intake never waits; zero — the default —
    /// admits mid-stream without ever holding a scan open).
    /// A burst arriving just behind the group's head then rides the
    /// same physical scan instead of paying an extra epoch of queue
    /// wait.
    ///
    /// This is a batching knob for bursty load, and it has a cost on
    /// sparse traffic: every query that starts a fresh group holds its
    /// first scan's boundary open up to the full window waiting for
    /// company, so a strict request-response client pays the window per
    /// query. The timer runs from the scan's *start* — the fan-out
    /// overlaps it. Leave it at zero unless clients submit in bursts.
    pub admission_window: Duration,
    /// Sets per shard of the zero-copy repository feed the epoch
    /// fan-out drives jobs with ([`sc_stream::ShardedPass`]): the
    /// work-stealing granularity of the worker pool. Smaller shards
    /// balance heterogeneous jobs better; larger shards amortise the
    /// per-claim bookkeeping. The observables are unaffected either
    /// way — every job sees every shard in repository order.
    pub shard_size: usize,
    /// Collapse identical in-flight queries into one job: a query
    /// whose spec matches a job already inside the scan epochs (and
    /// misses the outcome cache) attaches to that job as a *follower*
    /// instead of running — the job's retirement fans a reply out per
    /// follower and populates the cache once, so N identical
    /// concurrent clients cost one query's CPU as well as one query's
    /// scans. Off by default: coalescing changes the timing metrics
    /// (`epochs_joined`, queue waits) of duplicate queries, and the
    /// uncoalesced path is the baseline experiments E17/E18 pin.
    /// Covers, logical passes, and space peaks are bit-identical
    /// either way (the queries are deterministic given their spec).
    pub coalesce: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_inflight: 64,
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(8),
            queue_depth: 256,
            cache_capacity: 256,
            eviction: EvictionPolicy::Fifo,
            admission_window: Duration::ZERO,
            shard_size: 256,
            coalesce: false,
        }
    }
}

/// Error returned when the service has shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceClosed;

impl std::fmt::Display for ServiceClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "service closed")
    }
}

impl std::error::Error for ServiceClosed {}

/// Why a non-blocking submission ([`ServiceHandle::try_submit`]) did
/// not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySubmitError {
    /// The tenant's submission queue is full — the load-shedding
    /// signal the event-driven front-end turns into `err msg=busy`
    /// instead of blocking its whole event loop on one tenant's
    /// backpressure.
    Busy,
    /// The scheduler already exited.
    Closed,
}

impl std::fmt::Display for TrySubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySubmitError::Busy => write!(f, "busy"),
            TrySubmitError::Closed => write!(f, "service closed"),
        }
    }
}

impl std::error::Error for TrySubmitError {}

/// A pending reply for one submitted query.
#[derive(Debug)]
pub struct QueryTicket {
    /// The service-assigned query id.
    pub id: u64,
    rx: Receiver<QueryOutcome>,
}

impl QueryTicket {
    /// Blocks until the query completes.
    ///
    /// # Errors
    ///
    /// [`ServiceClosed`] if the scheduler exited before serving it.
    pub fn wait(self) -> Result<QueryOutcome, ServiceClosed> {
        self.rx.recv().map_err(|_| ServiceClosed)
    }

    /// Non-blocking poll: `None` while the query is still in flight —
    /// what the event-driven front-end drains tickets with (the ticket
    /// stays valid across `None`s).
    ///
    /// # Errors
    ///
    /// `Some(Err(ServiceClosed))` if the scheduler exited before
    /// serving it.
    pub fn try_wait(&self) -> Option<Result<QueryOutcome, ServiceClosed>> {
        match self.rx.try_recv() {
            Ok(outcome) => Some(Ok(outcome)),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServiceClosed)),
        }
    }
}

/// A pending acknowledgement for a requested repository hot swap.
#[derive(Debug)]
pub struct ReloadTicket {
    rx: Receiver<u64>,
}

impl ReloadTicket {
    /// Blocks until the swap took effect — queries admitted before the
    /// reload have drained on their original generation — and returns
    /// the new generation id.
    ///
    /// # Errors
    ///
    /// [`ServiceClosed`] if the scheduler exited before swapping.
    pub fn wait(self) -> Result<u64, ServiceClosed> {
        self.rx.recv().map_err(|_| ServiceClosed)
    }

    /// Non-blocking poll: `None` while in-flight queries are still
    /// draining ahead of the swap.
    ///
    /// # Errors
    ///
    /// `Some(Err(ServiceClosed))` if the scheduler exited before
    /// swapping.
    pub fn try_wait(&self) -> Option<Result<u64, ServiceClosed>> {
        match self.rx.try_recv() {
            Ok(generation) => Some(Ok(generation)),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServiceClosed)),
        }
    }
}

/// Clonable submission endpoint handed to client code by
/// [`Service::serve`]. Dropping every clone closes every tenant's
/// queue; the lanes then drain what is inflight and exit.
///
/// A handle targets one tenant — the *default* (registry slot 0) as
/// handed out by [`Service::serve`] — and
/// [`with_tenant`](ServiceHandle::with_tenant) derives a handle
/// targeting another (the library form of the protocol's
/// `!use <name>`; a per-query `repo=<name>` is just a one-shot
/// `with_tenant`). Each tenant has its own bounded submission queue,
/// so a hot tenant's full queue blocks only submitters *to that
/// tenant* — backpressure never crosses tenants.
#[derive(Debug, Clone)]
pub struct ServiceHandle {
    routes: Arc<[SyncSender<Submission>]>,
    route: usize,
    counter: Arc<AtomicU64>,
    registry: Arc<TenantRegistry>,
    /// The front door's wake channel: every ticket issued through this
    /// handle (or a [`with_tenant`](ServiceHandle::with_tenant)
    /// derivative) signals it once its answer is delivered.
    wake: Option<SyncSender<()>>,
}

impl ServiceHandle {
    /// Enqueues a query for this handle's tenant; blocks when that
    /// tenant's submission queue is full.
    ///
    /// # Errors
    ///
    /// [`ServiceClosed`] if the scheduler already exited.
    pub fn submit(&self, spec: QuerySpec) -> Result<QueryTicket, ServiceClosed> {
        let (reply, rx) = self.reply_channel();
        let id = self.counter.fetch_add(1, Ordering::Relaxed);
        self.count_submitted();
        // The serving generation is the scheduler's business; the
        // submit site tags generation 0 (= not yet assigned).
        sc_telemetry::event(EventKind::Submitted, id, 0, 0, 0);
        self.routes[self.route]
            .send(Submission::Query(QuerySubmission {
                id,
                spec,
                submitted: Instant::now(),
                reply,
            }))
            .map_err(|_| ServiceClosed)?;
        Ok(QueryTicket { id, rx })
    }

    /// Non-blocking [`submit`](ServiceHandle::submit): enqueues the
    /// query only if the tenant's submission queue has room *right
    /// now*. This is the shedding half of the front door — an event
    /// loop multiplexing many connections must not block on one
    /// tenant's full queue, so a full queue comes back as
    /// [`TrySubmitError::Busy`] for the caller to turn into
    /// `err msg=busy`.
    ///
    /// A shed attempt leaves no footprint (no `submitted` count in the
    /// tenant's ledger, no journal event) — the query never entered the
    /// scheduler; the front-end's own shed counter is the record.
    ///
    /// # Errors
    ///
    /// [`TrySubmitError::Busy`] when the queue is full,
    /// [`TrySubmitError::Closed`] when the scheduler already exited.
    pub fn try_submit(&self, spec: QuerySpec) -> Result<QueryTicket, TrySubmitError> {
        let (reply, rx) = self.reply_channel();
        let id = self.counter.fetch_add(1, Ordering::Relaxed);
        match self.routes[self.route].try_send(Submission::Query(QuerySubmission {
            id,
            spec,
            submitted: Instant::now(),
            reply,
        })) {
            Ok(()) => {
                self.count_submitted();
                sc_telemetry::event(EventKind::Submitted, id, 0, 0, 0);
                Ok(QueryTicket { id, rx })
            }
            Err(mpsc::TrySendError::Full(_)) => Err(TrySubmitError::Busy),
            Err(mpsc::TrySendError::Disconnected(_)) => Err(TrySubmitError::Closed),
        }
    }

    /// Requests a repository hot swap of this handle's tenant: queries
    /// submitted to it before this call drain on its current
    /// generation, queries submitted after run against `system` (once
    /// the drain completes). Other tenants' lanes — and their in-flight
    /// queries — are untouched. The returned ticket resolves to the
    /// tenant's new generation id.
    ///
    /// # Errors
    ///
    /// [`ServiceClosed`] if the scheduler already exited.
    pub fn reload(&self, system: SetSystem) -> Result<ReloadTicket, ServiceClosed> {
        let (reply, rx) = self.reply_channel();
        self.routes[self.route]
            .send(Submission::Reload(ReloadRequest { system, reply }))
            .map_err(|_| ServiceClosed)?;
        Ok(ReloadTicket { rx })
    }

    /// This handle, waking `wake` whenever one of its tickets is
    /// answered — how an event loop learns that a reply exists without
    /// polling for it.
    pub(crate) fn with_waker(self, wake: SyncSender<()>) -> ServiceHandle {
        ServiceHandle {
            wake: Some(wake),
            ..self
        }
    }

    /// A one-value reply channel whose sender wakes this handle's front
    /// door (if any) after delivering.
    pub(crate) fn reply_channel<T>(&self) -> (ReplyTx<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(1);
        (ReplyTx::new(tx, self.wake.clone()), rx)
    }

    /// Counts one submission in the target tenant's ledger.
    fn count_submitted(&self) {
        let tenant = self.registry.tenant(self.route);
        tenant.meta().counters().bump(LedgerEvent::Submitted);
    }

    /// A handle targeting the named tenant (`None` if no tenant of
    /// that name is served) — the library form of `!use <name>`.
    pub fn with_tenant(&self, name: &str) -> Option<ServiceHandle> {
        let route = self.registry.index_of(name)?;
        Some(ServiceHandle {
            route,
            ..self.clone()
        })
    }

    /// The name of the tenant this handle targets.
    pub fn tenant_name(&self) -> &str {
        self.registry.tenant(self.route).name()
    }

    /// The registry of tenants behind this service — what `!repos`
    /// formats.
    pub fn tenants(&self) -> &Arc<TenantRegistry> {
        &self.registry
    }
}

/// A multi-tenant, in-process cover-query engine over a hot-swappable
/// repository.
///
/// The service holds its [`SetSystem`] as a fingerprint-versioned
/// *generation* ([`RepositoryGeneration`]) and serves streams of cover
/// queries by batching them through shared physical scans: pending
/// queries are admitted into *scan epochs*, every admitted query
/// registers the logical pass it needs next, and one shared physical
/// scan per epoch advances all of them — so the physical scan count of
/// a group of concurrent queries is the *max* of their logical pass
/// counts, not the sum, exactly the accounting the streaming model
/// charges for parallel branches. Queries arriving while a scan is in
/// flight splice into it **pass-aligned and non-blocking**, repeats
/// are answered from the **outcome cache** in zero physical scans, and
/// `!reload` swaps the repository mid-load with in-flight queries
/// draining on their original generation.
///
/// # Examples
///
/// ```
/// use sc_service::{QuerySpec, ServiceBuilder};
/// use sc_setsystem::gen;
///
/// let inst = gen::planted(256, 512, 8, 7);
/// let service = ServiceBuilder::new().tenant("corpus", inst.system).build();
/// let specs = vec![QuerySpec::IterCover { delta: 0.5, seed: 1 }; 8];
/// let (outcomes, metrics) = service.run_batch(&specs);
/// assert!(outcomes.iter().all(|o| o.goal_met()));
/// // Eight identical queries rode the same physical scans.
/// assert_eq!(metrics.physical_scans, outcomes[0].logical_passes);
/// ```
#[derive(Debug)]
pub struct Service {
    registry: Arc<TenantRegistry>,
    cfg: ServiceConfig,
    cache: Arc<OutcomeCache>,
    quantum: u64,
}

/// Builds a [`Service`]: the tenants it hosts (each a named
/// repository with an optional inflight quota) plus the shared tuning
/// knobs, replacing hand-assembled [`ServiceConfig`] field soup at the
/// call sites that grow tenants.
///
/// The first tenant added is the *default* — the one
/// [`Service::serve`]'s handle targets until
/// [`ServiceHandle::with_tenant`] (or the protocol's `!use` /
/// `repo=`) redirects it, and the one the default-tenant surfaces
/// ([`Service::run_batch`], [`Service::generation`]) address.
///
/// # Examples
///
/// ```
/// use sc_service::{EvictionPolicy, QuerySpec, ServiceBuilder};
/// use sc_setsystem::gen;
///
/// let service = ServiceBuilder::new()
///     .tenant("wiki", gen::planted(128, 256, 8, 3).system)
///     .tenant_with_quota("logs", gen::planted(128, 256, 8, 4).system, 8)
///     .eviction(EvictionPolicy::Lru)
///     .coalesce(true)
///     .build();
/// let ((), _metrics) = service.serve(|handle| {
///     let logs = handle.with_tenant("logs").expect("tenant exists");
///     let t = logs.submit(QuerySpec::IterCover { delta: 0.5, seed: 1 }).unwrap();
///     assert!(t.wait().unwrap().goal_met());
/// });
/// ```
#[derive(Debug)]
pub struct ServiceBuilder {
    cfg: ServiceConfig,
    quantum: Option<u64>,
    cache: Option<Arc<OutcomeCache>>,
    tenants: Vec<(String, SetSystem, Option<usize>)>,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceBuilder {
    /// A builder with the [`ServiceConfig`] defaults and no tenants
    /// yet; add at least one with [`tenant`](Self::tenant) before
    /// [`build`](Self::build).
    pub fn new() -> Self {
        Self {
            cfg: ServiceConfig::default(),
            quantum: None,
            cache: None,
            tenants: Vec::new(),
        }
    }

    /// Replaces the whole [`ServiceConfig`] at once — for call sites
    /// that already hold an assembled config (tests sweeping config
    /// matrices, the CLI). Individual setters called afterwards still
    /// apply on top.
    #[must_use]
    pub fn config(mut self, cfg: ServiceConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Adds a named tenant serving `system` (as its generation 1) with
    /// the default inflight quota (`max_inflight`). The first tenant
    /// added is the service's default.
    #[must_use]
    pub fn tenant(self, name: impl Into<String>, system: SetSystem) -> Self {
        self.push_tenant(name.into(), system, None)
    }

    /// Adds a named tenant with its own inflight quota: the cap on
    /// queries it may hold inside scan epochs at once, independent of
    /// the service-wide `max_inflight` default — the sizing half of
    /// cross-tenant fairness (the `FairGate` is the scheduling
    /// half).
    #[must_use]
    pub fn tenant_with_quota(
        self,
        name: impl Into<String>,
        system: SetSystem,
        quota: usize,
    ) -> Self {
        self.push_tenant(name.into(), system, Some(quota))
    }

    fn push_tenant(mut self, name: String, system: SetSystem, quota: Option<usize>) -> Self {
        self.tenants.push((name, system, quota));
        self
    }

    /// Sets [`ServiceConfig::max_inflight`] (also the default tenant
    /// quota).
    #[must_use]
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.cfg.max_inflight = n;
        self
    }

    /// Sets [`ServiceConfig::workers`].
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Sets [`ServiceConfig::queue_depth`] (per tenant — each tenant
    /// has its own bounded submission queue).
    #[must_use]
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.cfg.queue_depth = n;
        self
    }

    /// Sets [`ServiceConfig::cache_capacity`] (ignored when
    /// [`shared_cache`](Self::shared_cache) supplies the cache).
    #[must_use]
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cfg.cache_capacity = n;
        self
    }

    /// Sets [`ServiceConfig::eviction`].
    #[must_use]
    pub fn eviction(mut self, policy: EvictionPolicy) -> Self {
        self.cfg.eviction = policy;
        self
    }

    /// Sets [`ServiceConfig::admission_window`].
    #[must_use]
    pub fn admission_window(mut self, window: Duration) -> Self {
        self.cfg.admission_window = window;
        self
    }

    /// Sets [`ServiceConfig::shard_size`].
    #[must_use]
    pub fn shard_size(mut self, n: usize) -> Self {
        self.cfg.shard_size = n;
        self
    }

    /// Sets [`ServiceConfig::coalesce`].
    #[must_use]
    pub fn coalesce(mut self, on: bool) -> Self {
        self.cfg.coalesce = on;
        self
    }

    /// Sets the fairness quantum: the lane's burst of `(tenant, shard)`
    /// units per arbitration turn of the gate (default `workers`: one
    /// turn refills the machine's worker budget). See the `fairness`
    /// module.
    #[must_use]
    pub fn quantum(mut self, q: u64) -> Self {
        self.quantum = Some(q);
        self
    }

    /// Supplies a shared outcome cache instead of the private one the
    /// builder would create — several services can point at the same
    /// [`OutcomeCache`]; the (tenant, fingerprint) pair in the cache
    /// key, backed by a per-hit dimension cross-check, keeps answers
    /// apart (see [`OutcomeCache`] for the caveats).
    #[must_use]
    pub fn shared_cache(mut self, cache: Arc<OutcomeCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Builds the service.
    ///
    /// # Panics
    ///
    /// Panics if no tenant was added, on a duplicate tenant name, or
    /// if `max_inflight`, `workers`, `queue_depth`, or any tenant
    /// quota is zero.
    pub fn build(self) -> Service {
        let cfg = self.cfg;
        assert!(cfg.max_inflight > 0, "max_inflight must be positive");
        assert!(cfg.workers > 0, "workers must be positive");
        assert!(cfg.queue_depth > 0, "queue_depth must be positive");
        assert!(
            !self.tenants.is_empty(),
            "a service needs at least one tenant"
        );
        let cache = self.cache.unwrap_or_else(|| {
            Arc::new(OutcomeCache::with_policy(cfg.cache_capacity, cfg.eviction))
        });
        let tenants = self
            .tenants
            .into_iter()
            .enumerate()
            .map(|(slot, (name, system, quota))| {
                let meta = TenantMeta::new(slot as u64, &name, quota.unwrap_or(cfg.max_inflight));
                Tenant::new(meta, system)
            })
            .collect();
        Service {
            registry: TenantRegistry::build(tenants),
            cfg,
            cache,
            quantum: self.quantum.unwrap_or(cfg.workers as u64),
        }
    }
}

impl Service {
    /// The repository generation new queries of the *default* tenant
    /// are admitted under (tenant-addressed access goes through
    /// [`Service::tenants`]).
    pub fn generation(&self) -> Arc<RepositoryGeneration> {
        self.registry.default_tenant().store().current()
    }

    /// The registry of named tenants this service hosts.
    pub fn tenants(&self) -> &Arc<TenantRegistry> {
        &self.registry
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The outcome cache answering repeat queries.
    pub fn cache(&self) -> &Arc<OutcomeCache> {
        &self.cache
    }

    /// The fingerprint of the default tenant's currently served
    /// repository generation — the cache-key half (with the tenant id)
    /// that keeps answers from different repositories apart.
    pub fn repository_fingerprint(&self) -> u64 {
        self.generation().fingerprint
    }

    /// Installs `system` as the *default* tenant's next repository
    /// generation and reaps the replaced generation's outcome-cache
    /// entries — but only when the fingerprint actually changed *and*
    /// this service is the cache's sole owner: another service sharing
    /// the cache ([`ServiceBuilder::shared_cache`]) may still be
    /// serving the "dead" fingerprint's repository, and its entries
    /// must survive (they stay reachable through its own generation; a
    /// shared cache relies on the capacity bound instead of the eager
    /// reap). Queries already running keep their generation and drain
    /// on it. Prefer [`ServiceHandle::reload`] while serving — it
    /// sequences the swap against the in-flight drain; this method is
    /// the direct form for between-batch swaps.
    pub fn install_repository(&self, system: SetSystem) -> Arc<RepositoryGeneration> {
        self.install_counted(self.registry.default_tenant(), system)
            .0
    }

    /// The swap plus how many dead-generation cache entries it reaped
    /// (from the swapped tenant's cache partition only — a reload of
    /// one tenant never touches a neighbour's entries).
    fn install_counted(
        &self,
        tenant: &Tenant,
        system: SetSystem,
    ) -> (Arc<RepositoryGeneration>, usize) {
        let old = tenant.store().swap(system);
        let fresh = tenant.store().current();
        // Strong count 1 = the cache is privately owned by this
        // service (a conservative test: any outstanding clone of the
        // Arc blocks the reap, whether or not it belongs to a service
        // presenting the old fingerprint).
        let sole_owner = Arc::strong_count(&self.cache) == 1;
        let reaped = if sole_owner && old.fingerprint != fresh.fingerprint && self.cache_enabled() {
            self.cache
                .evict_fingerprint(tenant.meta().id(), old.fingerprint)
        } else {
            0
        };
        (fresh, reaped)
    }

    /// Solves a batch of queries through shared scan epochs. The batch
    /// is one serve lane whose intake was filled in advance and closed
    /// (`Intake::prefilled`): every query is submitted at the call's
    /// start (so latency counts from there) and admitted at an epoch
    /// boundary, up to `max_inflight` at a time; repeats of an
    /// already-retired spec are answered from the cache, and — with
    /// [`ServiceConfig::coalesce`] — repeats of an *in-flight* spec
    /// attach to its job, neither occupying a slot. Outcomes come back
    /// in submission order.
    ///
    /// The metrics' query counts are the growth of the default tenant's
    /// ledger across the call, so they are exact only while no other
    /// `run_batch` or [`serve`](Service::serve) drives that tenant at
    /// the same time.
    pub fn run_batch(&self, specs: &[QuerySpec]) -> (Vec<QueryOutcome>, ServiceMetrics) {
        let start = Instant::now();
        let counters = self.registry.default_tenant().meta().counters();
        counters.add(LedgerEvent::Submitted, specs.len() as u64);
        let (batch, replies): (VecDeque<_>, Vec<_>) = specs
            .iter()
            .enumerate()
            .map(|(i, &spec)| {
                let (tx, rx) = mpsc::sync_channel(1);
                sc_telemetry::event(EventKind::Submitted, i as u64, 0, 0, 0);
                let sub = QuerySubmission {
                    id: i as u64,
                    spec,
                    submitted: start,
                    reply: ReplyTx::new(tx, None),
                };
                (sub, rx)
            })
            .unzip();
        // One lane on a one-lane gate: the gate's solo fast path skips
        // arbitration.
        let gate = FairGate::new(1, self.quantum, self.cfg.workers as u64);
        let metrics = self.lane_scheduler(0, Intake::prefilled(batch), &gate);
        let outcomes = replies
            .into_iter()
            .map(|rx| rx.recv().expect("every batch query is answered"))
            .collect();
        (outcomes, metrics)
    }

    /// Serves queries submitted concurrently through a
    /// [`ServiceHandle`]: `clients` runs on the calling thread while
    /// one scheduler *lane* per tenant runs beside it; when `clients`
    /// returns (and every handle clone it made is dropped), the lanes
    /// drain the remaining queries and the call returns with the
    /// lanes' metrics merged.
    ///
    /// Each lane is the full single-tenant epoch pipeline over its
    /// tenant's generations — so every per-tenant stream of queries
    /// behaves bit-identically to a solo service — while the lanes
    /// share the outcome cache (tenant-partitioned) and arbitrate scan
    /// work, one `(tenant, shard)` unit at a time, through the
    /// deficit-round-robin `FairGate`: a hot tenant cannot starve a
    /// cold one, and a cold tenant's admission (stage 1, including
    /// cache hits) never waits on the gate at all.
    ///
    /// Admission happens at epoch boundaries *and* mid-stream: a query
    /// arriving while a scan is in flight splices into that scan — its
    /// first pass aligned to the group's current pass tag, the items
    /// observed through the zero-copy replay — instead of queueing for
    /// the next epoch. Repeat queries
    /// are answered from the outcome cache immediately, and
    /// [`ServiceHandle::reload`] hot-swaps the handle's tenant between
    /// epoch groups with in-flight queries draining on their original
    /// generation, other tenants untouched.
    ///
    /// Each lane's query counts are the growth of its tenant's ledger
    /// across the lane's life, so they are exact only while no other
    /// `serve` or [`run_batch`](Service::run_batch) drives the same
    /// tenants at the same time.
    pub fn serve<R, F>(&self, clients: F) -> (R, ServiceMetrics)
    where
        F: FnOnce(ServiceHandle) -> R,
    {
        let lanes = self.registry.len();
        let mut routes = Vec::with_capacity(lanes);
        let mut inboxes = Vec::with_capacity(lanes);
        for _ in 0..lanes {
            let (tx, rx) = mpsc::sync_channel(self.cfg.queue_depth);
            routes.push(tx);
            inboxes.push(rx);
        }
        let handle = ServiceHandle {
            routes: routes.into(),
            route: 0,
            counter: Arc::new(AtomicU64::new(0)),
            registry: Arc::clone(&self.registry),
            wake: None,
        };
        let gate = &FairGate::new(lanes, self.quantum, self.cfg.workers as u64);
        std::thread::scope(|s| {
            let lanes: Vec<_> = inboxes
                .into_iter()
                .enumerate()
                .map(|(lane, rx)| s.spawn(move || self.lane_scheduler(lane, Intake::new(rx), gate)))
                .collect();
            let r = clients(handle);
            let mut metrics = ServiceMetrics::default();
            for lane in lanes {
                metrics.merge(&lane.join().expect("lane scheduler panicked"));
            }
            (r, metrics)
        })
    }

    /// One tenant's scheduler lane: an outer loop over that tenant's
    /// repository generations, each running the epoch pipeline until
    /// the intake closes or a reload ends the generation (in-flight
    /// queries drain on it first; the swap is acknowledged once it
    /// took effect). Scan work goes through the shared [`FairGate`]
    /// one `(tenant, shard)` unit at a time.
    fn lane_scheduler(&self, lane: usize, mut intake: Intake, gate: &FairGate) -> ServiceMetrics {
        let tenant = self.registry.tenant(lane);
        let counters = tenant.meta().counters();
        let before = counters.totals();
        let start = Instant::now();
        let mut metrics = ServiceMetrics::default();
        let mut physical = 0usize;
        loop {
            let gen = tenant.store().current();
            let il = execution::ShardInterleave {
                gate,
                lane,
                counters: gen.tenant.counters(),
            };
            self.run_generation(&gen, &mut intake, &mut metrics, &mut physical, &il);
            match intake.reload.take() {
                Some(req) => {
                    let (fresh, reaped) = self.install_counted(tenant, req.system);
                    counters.bump(LedgerEvent::Reload);
                    counters.add(LedgerEvent::ReloadEviction, reaped as u64);
                    // The requester may have dropped its ticket.
                    let _ = req.reply.send(fresh.id);
                }
                None => break,
            }
        }
        metrics.count_ledger(&before, &counters.totals(), self.cache.policy());
        metrics.physical_scans = physical;
        metrics.elapsed = start.elapsed();
        metrics
    }

    /// Runs the epoch pipeline over one pinned repository generation:
    /// boundary admission, retirement, and scan epochs, until nothing
    /// further can arrive for this generation (channel closed, or a
    /// reload captured) and everything admitted has drained. Scan
    /// work is arbitrated across tenant lanes per `(tenant, shard)`
    /// unit through `il` (admission and retirement stay ungated — only
    /// the repository-walking stages contend).
    fn run_generation(
        &self,
        gen: &RepositoryGeneration,
        intake: &mut Intake,
        metrics: &mut ServiceMetrics,
        physical: &mut usize,
        il: &execution::ShardInterleave<'_>,
    ) {
        let root = SetStream::new(&gen.system);
        let ledger = ScanLedger::new();
        let mut state = EpochState::new();
        loop {
            // Stage 1 — admission at the epoch boundary. Block only
            // when idle; past a full window, still dispose of cache
            // hits and coalescible duplicates (they need no slot).
            let fresh_group = state.inflight.is_empty();
            if fresh_group {
                state.group_pass = 0;
            }
            // The admission-stage span starts at the first pulled
            // submission (never inside the idle blocking wait) and
            // records once the boundary loop drains.
            let mut admission_t0: Option<Instant> = None;
            loop {
                let sub = if state.inflight.is_empty() {
                    intake.pull_blocking()
                } else {
                    intake.pull_nonblocking()
                };
                let Some(sub) = sub else { break };
                if admission_t0.is_none() && sc_telemetry::enabled() {
                    admission_t0 = Some(Instant::now());
                }
                if state.inflight.len() >= gen.tenant.quota() {
                    match self.dispose_past_full_window(
                        gen,
                        sub,
                        &mut state.inflight,
                        metrics,
                        Instant::now(),
                    ) {
                        Ok(_) => continue,
                        Err(sub) => {
                            // A fresh job with no slot: defer it (order
                            // preserved — the backlog is consumed
                            // first).
                            intake.backlog.push_front(sub);
                            break;
                        }
                    }
                }
                if let Admitted::Job(fl) = self.admit_or_answer(
                    gen,
                    sub,
                    &root,
                    &mut state.inflight,
                    metrics,
                    Instant::now(),
                ) {
                    sc_telemetry::event(
                        EventKind::Admitted,
                        fl.id,
                        gen.id,
                        ledger.physical_scans() as u64,
                        state.group_pass as u32,
                    );
                    state.inflight.push(fl);
                }
            }
            if let Some(t0) = admission_t0 {
                tel().stage_admission.record(t0.elapsed());
            }
            metrics.max_inflight_seen = metrics.max_inflight_seen.max(state.inflight.len());
            // Stage 4 — retirement (replies go out by channel).
            let retire_from = state.inflight.len();
            let retire_t0 = sc_telemetry::enabled().then(Instant::now);
            self.retire(gen, &mut state.inflight, metrics);
            if let Some(t0) = retire_t0 {
                if state.inflight.len() < retire_from {
                    tel().stage_retirement.record(t0.elapsed());
                }
            }
            if state.inflight.len() < retire_from && !intake.backlog.is_empty() {
                // Retirement freed slots that deferred queries wait
                // for: fill them before the next scan, so a query
                // deferred by a full window rides the very scan a
                // slot opens for. A non-empty backlog past this point
                // therefore means a full window.
                continue;
            }
            if state.inflight.is_empty() {
                let drained_for_swap = intake.reload.is_some() && intake.backlog.is_empty();
                let closed_and_done = !intake.open && intake.backlog.is_empty();
                if drained_for_swap || closed_and_done {
                    break;
                }
                continue;
            }
            // Stages 2 + 3 — one scan epoch, its fan-out metered per
            // (tenant, shard) unit through the shared gate while other
            // lanes run their own scans concurrently.
            self.epoch(
                gen,
                &root,
                &ledger,
                &mut state,
                intake,
                metrics,
                fresh_group,
                il,
            );
        }
        *physical += ledger.physical_scans();
    }

    /// Runs one scan epoch: every inflight job joins one shared
    /// physical pass — exposed as a zero-copy sharded feed — arrivals
    /// drained from the channel while the scan is in flight splice into
    /// it at its boundary, and the work-stealing worker pool fans the
    /// per-query state updates out shard by shard through the scan's
    /// own cursor, with one gate unit held per shard
    /// (see [`execution::ShardInterleave`]). Every job's `end_scan`
    /// runs inside the fan-out (or, for a spliced joiner, right after
    /// its replay), so the epoch ends when the splice does. The lane
    /// is live on the gate for the whole epoch; the session's drop
    /// forfeits its unspent turn, releasing even if the epoch panics.
    #[allow(clippy::too_many_arguments)]
    fn epoch<'g>(
        &self,
        gen: &'g RepositoryGeneration,
        root: &SetStream<'g>,
        ledger: &ScanLedger,
        state: &mut EpochState<'g>,
        intake: &mut Intake,
        metrics: &mut ServiceMetrics,
        fresh_group: bool,
        il: &execution::ShardInterleave<'_>,
    ) {
        let _session = il.gate.enter(il.lane);
        state.group_pass += 1;
        for fl in state.inflight.iter_mut() {
            fl.job.begin_scan();
        }
        let feed = {
            let participants: Vec<&SetStream<'g>> = state
                .inflight
                .iter()
                .flat_map(|fl| fl.job.participants())
                .collect();
            ledger.scan(root, &participants, self.cfg.shard_size)
        };
        if sc_telemetry::enabled() {
            // One lifecycle event per rider of this physical scan,
            // tagged with the scan's ordinal and the group pass it
            // carries (mid-stream joiners get their own
            // `admitted`/`aligned_join` events at the splice instead).
            for fl in state.inflight.iter() {
                sc_telemetry::event(
                    EventKind::EpochScan,
                    fl.id,
                    gen.id,
                    ledger.physical_scans() as u64,
                    state.group_pass as u32,
                );
            }
        }
        // The window only arms for a *lone* head of a fresh group: a
        // burst that already arrived together at the epoch boundary is
        // the company the window exists to wait for, so holding its
        // first scan open would stall every query in it for nothing.
        let lone_fresh_head = fresh_group && state.inflight.len() < 2;
        let window = (lone_fresh_head && self.cfg.admission_window > Duration::ZERO)
            .then(|| Instant::now() + self.cfg.admission_window);
        // Non-blocking accept: between its claims the lane thread
        // drains channel arrivals, answering the cache hits among the
        // newly drained ones on the spot (a hit needs neither a slot
        // nor the scan). A pending miss is not re-probed every round —
        // only retirement on this same thread can insert, so it stays
        // a miss until the splice probes once more at the boundary
        // (covering the shared-cache twin case).
        let scan_tag = ledger.physical_scans();
        let mut pending = Vec::new();
        {
            let _span = tel().stage_execution.span();
            let mut drain = || {
                let fresh_from = pending.len();
                intake.poll_into(&mut pending, self.cfg.queue_depth);
                self.answer_drained_hits(gen, &mut pending, fresh_from, metrics);
            };
            execution::fan_out(&feed, &mut state.inflight, self.cfg.workers, &mut drain, il);
        }
        let parked = {
            let _span = tel().stage_alignment.span();
            alignment::splice_pending(
                self,
                gen,
                root,
                ledger,
                &feed,
                scan_tag,
                state,
                intake,
                &mut pending,
                window,
                metrics,
            )
        };
        metrics.max_inflight_seen = metrics
            .max_inflight_seen
            .max(state.inflight.len() + parked.len());
        state.inflight.extend(parked);
    }
}
