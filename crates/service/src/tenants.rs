//! Tenant lifecycle: named repositories, each with its own
//! fingerprint-versioned generation chain, behind one scheduler.
//!
//! A [`Service`](crate::Service) used to own exactly one live
//! repository, so every tenant needed its own process. This module
//! generalises the old `RepositoryStore` into a [`TenantRegistry`]:
//! many *named* repositories, each an independent generation chain
//! ([`RepositoryGeneration`] behind a hot-swappable
//! [`RepositoryStore`]), all served by the one staged pipeline. Every
//! generation carries its tenant's identity ([`TenantMeta`]) — the
//! pipeline stages already receive the generation a query was admitted
//! under, so tenant-scoped cache keys, per-tenant quotas, and
//! per-tenant counters ride along without widening a single stage
//! signature.
//!
//! The scheduler pins the generation a query was admitted under for as
//! long as that query runs — in-flight work drains on its original
//! repository — while [`swap`](RepositoryStore::swap) installs the
//! next generation for everything admitted afterwards, *per tenant*: a
//! `!reload` of one tenant never disturbs another tenant's in-flight
//! queries. The `(tenant, fingerprint)` pair in the outcome-cache key
//! already makes a dead generation's entries unreachable;
//! [`OutcomeCache::evict_fingerprint`](crate::OutcomeCache::evict_fingerprint)
//! reaps them eagerly on swap.

use crate::cache::OutcomeCache;
use sc_core::GuessMemo;
use sc_setsystem::SetSystem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One query-lifecycle event the tenant ledger ([`TenantCounters`])
/// counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerEvent {
    /// A query entered the service (batch queries included).
    Submitted,
    /// A query was answered: a job's retirement, each of its coalesced
    /// followers, or a cache hit.
    Completed,
    /// A query was admitted as a fresh job (counted at admission).
    Job,
    /// A query was answered from the outcome cache in zero scans.
    CacheHit,
    /// A query missed an enabled cache and became a job.
    CacheMiss,
    /// A query attached to an identical in-flight job as a follower.
    Coalesced,
    /// A job spliced into a scan already in flight.
    MidStreamAdmission,
    /// The subset of mid-stream admissions that joined a later pass of
    /// their epoch group.
    AlignedJoin,
    /// One `(tenant, shard)` work unit absorbed through the fan-out.
    ShardGrant,
    /// A repository hot swap performed by the tenant's serve lane.
    Reload,
    /// Outcome-cache entries evicted by the capacity bound on insert.
    CapacityEviction,
    /// Outcome-cache entries reaped with a generation a reload retired.
    ReloadEviction,
    /// A seed-free guess replayed from the generation's guess memo
    /// instead of run (counted per guess, when its job is built).
    GuessReplay,
}

impl LedgerEvent {
    /// Every event, in ledger order.
    pub(crate) const ALL: [LedgerEvent; 13] = [
        LedgerEvent::Submitted,
        LedgerEvent::Completed,
        LedgerEvent::Job,
        LedgerEvent::CacheHit,
        LedgerEvent::CacheMiss,
        LedgerEvent::Coalesced,
        LedgerEvent::MidStreamAdmission,
        LedgerEvent::AlignedJoin,
        LedgerEvent::ShardGrant,
        LedgerEvent::Reload,
        LedgerEvent::CapacityEviction,
        LedgerEvent::ReloadEviction,
        LedgerEvent::GuessReplay,
    ];

    /// The exposition name of the event's counter (`!stats` sums it
    /// over the tenants, `!metrics` labels it per tenant).
    pub(crate) fn metric_name(self) -> &'static str {
        match self {
            LedgerEvent::Submitted => "sc_queries_submitted_total",
            LedgerEvent::Completed => "sc_queries_completed_total",
            LedgerEvent::Job => "sc_query_jobs_total",
            LedgerEvent::CacheHit => "sc_cache_hits_total",
            LedgerEvent::CacheMiss => "sc_cache_misses_total",
            LedgerEvent::Coalesced => "sc_coalesced_total",
            LedgerEvent::MidStreamAdmission => "sc_mid_stream_admissions_total",
            LedgerEvent::AlignedJoin => "sc_aligned_joins_total",
            LedgerEvent::ShardGrant => "sc_shard_grants_total",
            LedgerEvent::Reload => "sc_reloads_total",
            LedgerEvent::CapacityEviction => "sc_capacity_evictions_total",
            LedgerEvent::ReloadEviction => "sc_reload_evictions_total",
            LedgerEvent::GuessReplay => "sc_guess_replays_total",
        }
    }
}

/// A tenant's ledger values, indexed by `LedgerEvent as usize`.
pub(crate) type LedgerTotals = [u64; LedgerEvent::ALL.len()];

/// The tenant's query ledger: the one place a query-lifecycle event is
/// counted, one always-on relaxed atomic per [`LedgerEvent`] (a few
/// nanoseconds per bump, independent of the telemetry switch).
/// `!repos`, `!stats`, and `!metrics` read it live, and a run's
/// [`ServiceMetrics`](crate::ServiceMetrics) counts are its growth
/// across the run.
#[derive(Debug, Default)]
pub struct TenantCounters {
    counts: [AtomicU64; LedgerEvent::ALL.len()],
}

impl TenantCounters {
    /// Counts `n` occurrences of `event`.
    pub(crate) fn add(&self, event: LedgerEvent, n: u64) {
        self.counts[event as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one occurrence of `event`.
    pub(crate) fn bump(&self, event: LedgerEvent) {
        self.add(event, 1);
    }

    /// The live count of `event`.
    pub fn get(&self, event: LedgerEvent) -> u64 {
        self.counts[event as usize].load(Ordering::Relaxed)
    }

    /// Every live count, in [`LedgerEvent::ALL`] order.
    pub(crate) fn totals(&self) -> LedgerTotals {
        LedgerEvent::ALL.map(|e| self.get(e))
    }

    /// Live `(completed, jobs, cache_hits, coalesced, shard_grants)`
    /// totals.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.get(LedgerEvent::Completed),
            self.get(LedgerEvent::Job),
            self.get(LedgerEvent::CacheHit),
            self.get(LedgerEvent::Coalesced),
            self.get(LedgerEvent::ShardGrant),
        )
    }
}

/// A tenant's identity, carried by every [`RepositoryGeneration`] it
/// serves — so each pipeline stage, which already holds the generation
/// a query was admitted under, knows the tenant without a widened
/// signature.
#[derive(Debug)]
pub struct TenantMeta {
    id: u64,
    name: Arc<str>,
    quota: usize,
    counters: TenantCounters,
}

impl TenantMeta {
    pub(crate) fn new(id: u64, name: &str, quota: usize) -> Arc<Self> {
        assert!(quota > 0, "tenant quota must be positive");
        Arc::new(Self {
            id,
            name: Arc::from(name),
            quota,
            counters: TenantCounters::default(),
        })
    }

    /// The tenant's registry slot — also the tenant half of the
    /// outcome-cache key, which is what keeps two tenants serving
    /// byte-identical repositories (equal fingerprints by construction)
    /// from ever answering each other's queries.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The tenant's name (`!use <name>` / `repo=<name>` in the
    /// protocol).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A cheap shared handle on the name, for tagging outcomes.
    pub(crate) fn name_handle(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// This tenant's inflight quota: the most queries it may hold
    /// inside scan epochs at once. Admission past the quota waits for
    /// one of the tenant's own retirements — the static half of the
    /// fairness story (the deficit-round-robin gate over `(tenant,
    /// shard)` units is the dynamic half).
    pub fn quota(&self) -> usize {
        self.quota
    }

    /// The tenant's query ledger.
    pub fn counters(&self) -> &TenantCounters {
        &self.counters
    }
}

/// One immutable generation of a tenant's repository.
///
/// Queries hold the generation they were admitted under (via `Arc`), so
/// a hot swap never pulls a repository out from under an in-flight
/// scan; the generation is freed when the last query over it retires.
#[derive(Debug)]
pub struct RepositoryGeneration {
    /// Monotonically increasing generation id *within the tenant* (the
    /// first repository a tenant is built with is generation `1`).
    /// Reported per outcome as
    /// [`QueryOutcome::generation`](crate::QueryOutcome::generation)
    /// and as `gen=` in the protocol.
    pub id: u64,
    /// The repository itself.
    pub system: SetSystem,
    /// The content fingerprint ([`OutcomeCache::fingerprint`]) — with
    /// the tenant id, the cache-key half that keeps this generation's
    /// answers apart from every other repository's.
    pub fingerprint: u64,
    /// The tenant this generation serves: scan epochs group by
    /// `(tenant, generation)`, and the pipeline stages read quota,
    /// cache partition, and counters from here.
    pub tenant: Arc<TenantMeta>,
    /// The recorded seed-free `iterSetCover` guesses over this
    /// repository, which its jobs replay instead of recomputing. Every
    /// generation starts with an empty memo and frees it with the
    /// generation; it sits outside the per-query space model, like the
    /// outcome cache.
    pub memo: GuessMemo,
}

/// The hot-swappable owner of one tenant's repository generations.
#[derive(Debug)]
pub struct RepositoryStore {
    current: Mutex<Arc<RepositoryGeneration>>,
}

impl RepositoryStore {
    /// Wraps the first repository as generation `1` of the given
    /// tenant.
    pub(crate) fn for_tenant(tenant: Arc<TenantMeta>, system: SetSystem) -> Self {
        let fingerprint = OutcomeCache::fingerprint(&system);
        Self {
            current: Mutex::new(Arc::new(RepositoryGeneration {
                id: 1,
                system,
                fingerprint,
                tenant,
                memo: GuessMemo::new(),
            })),
        }
    }

    /// The generation new queries are admitted under right now.
    pub fn current(&self) -> Arc<RepositoryGeneration> {
        self.current.lock().expect("store poisoned").clone()
    }

    /// Installs `system` as the next generation and returns the one it
    /// replaced. Queries already admitted keep their `Arc` to the old
    /// generation and drain on it; only admission from here on sees the
    /// new one. The id is allocated and the generation installed under
    /// one lock, so concurrent swaps always install in id order. The
    /// tenant identity is carried over — a swap changes a tenant's
    /// *content*, never its name, quota, or counters.
    pub fn swap(&self, system: SetSystem) -> Arc<RepositoryGeneration> {
        let fingerprint = OutcomeCache::fingerprint(&system);
        let mut current = self.current.lock().expect("store poisoned");
        let fresh = Arc::new(RepositoryGeneration {
            id: current.id + 1,
            system,
            fingerprint,
            tenant: Arc::clone(&current.tenant),
            memo: GuessMemo::new(),
        });
        std::mem::replace(&mut *current, fresh)
    }
}

/// One named repository the registry serves: its identity, its
/// generation chain, and its quota.
#[derive(Debug)]
pub struct Tenant {
    meta: Arc<TenantMeta>,
    store: RepositoryStore,
}

impl Tenant {
    pub(crate) fn new(meta: Arc<TenantMeta>, system: SetSystem) -> Self {
        let store = RepositoryStore::for_tenant(Arc::clone(&meta), system);
        Self { meta, store }
    }

    /// The tenant's identity (name, id, quota, counters).
    pub fn meta(&self) -> &Arc<TenantMeta> {
        &self.meta
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        self.meta.name()
    }

    /// The tenant's generation chain.
    pub fn store(&self) -> &RepositoryStore {
        &self.store
    }

    /// The generation this tenant's new queries are admitted under.
    pub fn generation(&self) -> Arc<RepositoryGeneration> {
        self.store.current()
    }

    /// This tenant's inflight quota.
    pub fn quota(&self) -> usize {
        self.meta.quota()
    }
}

/// The named repositories one [`Service`](crate::Service) serves —
/// resolution by name for the protocol (`!use`, `repo=`), by slot for
/// the scheduler's per-tenant lanes. The first tenant added is the
/// *default*: what [`ServiceHandle::submit`](crate::ServiceHandle)
/// targets before a `!use`, and what the single-tenant compat
/// constructors wrap.
#[derive(Debug)]
pub struct TenantRegistry {
    tenants: Vec<Tenant>,
}

impl TenantRegistry {
    pub(crate) fn build(tenants: Vec<Tenant>) -> Arc<Self> {
        assert!(!tenants.is_empty(), "a service needs at least one tenant");
        for (i, t) in tenants.iter().enumerate() {
            assert_eq!(t.meta().id(), i as u64, "tenant ids must be registry slots");
            assert!(
                tenants[..i].iter().all(|u| u.name() != t.name()),
                "duplicate tenant name {:?}",
                t.name()
            );
        }
        Arc::new(Self { tenants })
    }

    /// Number of tenants served.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// `true` is impossible — a registry always holds at least one
    /// tenant — but the pair with [`len`](Self::len) keeps clippy and
    /// callers honest.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The tenant in registry slot `idx`.
    pub fn tenant(&self, idx: usize) -> &Tenant {
        &self.tenants[idx]
    }

    /// The default tenant (slot 0).
    pub fn default_tenant(&self) -> &Tenant {
        &self.tenants[0]
    }

    /// Resolves a tenant by name.
    pub fn get(&self, name: &str) -> Option<&Tenant> {
        self.tenants.iter().find(|t| t.name() == name)
    }

    /// The registry slot of the named tenant.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.name() == name)
    }

    /// Iterates the tenants in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &Tenant> {
        self.tenants.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(seed: u8) -> SetSystem {
        SetSystem::from_sets(3, vec![vec![0, 1], vec![u32::from(seed) % 3]])
    }

    #[test]
    fn generations_are_versioned_and_fingerprinted() {
        let store = RepositoryStore::for_tenant(TenantMeta::new(0, "default", 1), system(2));
        let g1 = store.current();
        assert_eq!(g1.id, 1);
        assert_eq!(g1.fingerprint, OutcomeCache::fingerprint(&g1.system));

        let old = store.swap(system(0));
        assert_eq!(old.id, 1, "swap returns the replaced generation");
        let g2 = store.current();
        assert_eq!(g2.id, 2);
        assert_ne!(g1.fingerprint, g2.fingerprint, "content changed");

        // The old generation stays usable for draining queries.
        assert_eq!(old.system.num_sets(), 2);
    }

    #[test]
    fn swapping_identical_content_still_advances_the_id() {
        let store = RepositoryStore::for_tenant(TenantMeta::new(0, "default", 1), system(2));
        let before = store.current();
        store.swap(system(2));
        let after = store.current();
        assert_eq!(after.id, before.id + 1);
        assert_eq!(after.fingerprint, before.fingerprint, "same content");
    }

    #[test]
    fn a_swap_preserves_the_tenant_identity() {
        let meta = TenantMeta::new(0, "alpha", 4);
        let store = RepositoryStore::for_tenant(Arc::clone(&meta), system(2));
        store.swap(system(0));
        let g2 = store.current();
        assert_eq!(g2.tenant.name(), "alpha");
        assert_eq!(g2.tenant.quota(), 4);
        assert!(Arc::ptr_eq(&g2.tenant, &meta), "same meta, same counters");
    }

    #[test]
    fn registry_resolves_by_name_and_slot() {
        let reg = TenantRegistry::build(vec![
            Tenant::new(TenantMeta::new(0, "alpha", 8), system(0)),
            Tenant::new(TenantMeta::new(1, "beta", 8), system(1)),
        ]);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.default_tenant().name(), "alpha");
        assert_eq!(reg.index_of("beta"), Some(1));
        assert!(reg.get("gamma").is_none());
        assert_eq!(reg.tenant(1).name(), "beta");
    }

    #[test]
    #[should_panic(expected = "duplicate tenant name")]
    fn registry_rejects_duplicate_names() {
        TenantRegistry::build(vec![
            Tenant::new(TenantMeta::new(0, "alpha", 8), system(0)),
            Tenant::new(TenantMeta::new(1, "alpha", 8), system(1)),
        ]);
    }

    #[test]
    fn counters_snapshot_live_totals() {
        let meta = TenantMeta::new(0, "stats me!", 8);
        meta.counters().bump(LedgerEvent::Job);
        meta.counters().add(LedgerEvent::Completed, 2);
        meta.counters().bump(LedgerEvent::ShardGrant);
        assert_eq!(meta.counters().snapshot(), (2, 1, 0, 0, 1));
        assert_eq!(meta.counters().get(LedgerEvent::Reload), 0);
    }
}
