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
use sc_setsystem::SetSystem;
use sc_telemetry::Counter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Always-on per-tenant traffic counters (relaxed atomics, a few
/// nanoseconds per bump), the numbers `!repos` reports live. Each
/// tenant additionally mirrors them onto the process-wide
/// [`sc_telemetry`] registry (`sc_tenant_<name>_*_total`, visible in
/// `!metrics`) — those mirrors are gated on the telemetry switch; these
/// atomics are not, so `!repos` answers even on a quiet server.
pub struct TenantCounters {
    completed: AtomicU64,
    jobs: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    shard_grants: AtomicU64,
    tel_completed: &'static Counter,
    tel_jobs: &'static Counter,
    tel_cache_hits: &'static Counter,
    tel_coalesced: &'static Counter,
    tel_shard_grants: &'static Counter,
}

impl std::fmt::Debug for TenantCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (completed, jobs, cache_hits, coalesced, shard_grants) = self.snapshot();
        f.debug_struct("TenantCounters")
            .field("completed", &completed)
            .field("jobs", &jobs)
            .field("cache_hits", &cache_hits)
            .field("coalesced", &coalesced)
            .field("shard_grants", &shard_grants)
            .finish()
    }
}

/// Sanitises a tenant name into a telemetry metric segment
/// (`[a-zA-Z0-9_]`), so `!metrics` exposition lines stay one
/// `name value` pair regardless of what the operator called the
/// repository.
fn metric_segment(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

impl TenantCounters {
    fn new(name: &str) -> Self {
        let seg = metric_segment(name);
        let leaked = |suffix: &str| -> &'static Counter {
            sc_telemetry::counter(Box::leak(
                format!("sc_tenant_{seg}_{suffix}_total").into_boxed_str(),
            ))
        };
        Self {
            completed: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            shard_grants: AtomicU64::new(0),
            tel_completed: leaked("completed"),
            tel_jobs: leaked("jobs"),
            tel_cache_hits: leaked("cache_hits"),
            tel_coalesced: leaked("coalesced"),
            tel_shard_grants: leaked("shard_grants"),
        }
    }

    pub(crate) fn bump_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.tel_completed.incr();
    }

    pub(crate) fn bump_job(&self) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        self.tel_jobs.incr();
    }

    pub(crate) fn bump_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.tel_cache_hits.incr();
    }

    pub(crate) fn bump_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
        self.tel_coalesced.incr();
    }

    /// One `(tenant, shard)` work unit absorbed through the interleaved
    /// fan-out — in serve mode and in batch runs alike.
    pub(crate) fn bump_shard_grant(&self) {
        self.shard_grants.fetch_add(1, Ordering::Relaxed);
        self.tel_shard_grants.incr();
    }

    /// Live `(completed, jobs, cache_hits, coalesced, shard_grants)`
    /// totals.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.completed.load(Ordering::Relaxed),
            self.jobs.load(Ordering::Relaxed),
            self.cache_hits.load(Ordering::Relaxed),
            self.coalesced.load(Ordering::Relaxed),
            self.shard_grants.load(Ordering::Relaxed),
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
            counters: TenantCounters::new(name),
        })
    }

    /// The meta a bare [`RepositoryStore::new`] (and the single-tenant
    /// compat constructors) serve under: tenant slot 0, named
    /// `default`, with the default inflight quota.
    pub(crate) fn solo() -> Arc<Self> {
        Self::new(0, "default", crate::ServiceConfig::default().max_inflight)
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

    /// The tenant's live traffic counters.
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
}

/// The hot-swappable owner of one tenant's repository generations.
#[derive(Debug)]
pub struct RepositoryStore {
    current: Mutex<Arc<RepositoryGeneration>>,
}

impl RepositoryStore {
    /// Wraps the first repository as generation `1` of a solo
    /// `default` tenant (the single-tenant compat shape).
    pub fn new(system: SetSystem) -> Self {
        Self::for_tenant(TenantMeta::solo(), system)
    }

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
        let store = RepositoryStore::new(system(2));
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
        let store = RepositoryStore::new(system(2));
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
        meta.counters().bump_job();
        meta.counters().bump_completed();
        meta.counters().bump_completed();
        meta.counters().bump_shard_grant();
        assert_eq!(meta.counters().snapshot(), (2, 1, 0, 0, 1));
        // The telemetry mirror name survived sanitisation.
        assert_eq!(metric_segment("stats me!"), "stats_me_");
    }
}
