//! The cross-query outcome cache.
//!
//! Serving workloads repeat themselves: identical `(spec, repository)`
//! pairs recur, and every query kind the service accepts is
//! deterministic given its spec (the RNG seed is part of
//! [`QuerySpec`]), so the answer to a repeat is the answer already
//! computed — in **zero** physical scans. The cache is keyed on the
//! owning tenant, the query spec, *and* a 64-bit content fingerprint
//! of the repository. The tenant id partitions the cache outright: two
//! tenants serving byte-identical repositories collide on the
//! fingerprint *by construction*, and an answer must still never cross
//! tenants (quota accounting, counters, and the operator's mental
//! model are all per-tenant). Beyond that, every hit cross-checks the
//! requester's repository
//! dimensions against the entry's, so a cache shared between services
//! (or outliving a repository swap) misses on different data unless
//! two repositories of identical dimensions also collide in the
//! 64-bit hash — astronomically unlikely for accidental data, but not
//! a cryptographic guarantee.
//!
//! Cached answers carry the full solo-observable tuple (cover, covered
//! count, goal, logical passes, space peak), so a hit's
//! [`QueryOutcome`](crate::QueryOutcome) is bit-identical to the solo
//! run that populated it — the `outcome_cache` integration test pins
//! this together with the zero-physical-scan guarantee.
//!
//! Eviction is pluggable ([`EvictionPolicy`]): FIFO (insertion order —
//! the batch default, no bookkeeping on the hit path) or LRU (hits
//! refresh the entry — what `sctool serve` defaults to, since serving
//! workloads skew toward a hot working set). Entries of a repository
//! generation that died in a hot swap are reaped eagerly through
//! [`evict_fingerprint`](OutcomeCache::evict_fingerprint); they were
//! already unreachable (no live service presents the dead fingerprint)
//! — the reap just returns their slots.

use crate::query::QuerySpec;
use sc_setsystem::{SetId, SetSystem};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// The solo observables of a completed query, as stored by the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedAnswer {
    /// The emitted cover (set ids).
    pub cover: Vec<SetId>,
    /// Elements the cover actually covers.
    pub covered: usize,
    /// The coverage goal the query had to meet.
    pub required: usize,
    /// Logical passes the query charged when it ran.
    pub logical_passes: usize,
    /// Peak working memory in words when it ran.
    pub space_words: usize,
}

/// Which entry a full [`OutcomeCache`] evicts to admit a new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict the oldest *insertion*: no bookkeeping on the hit path,
    /// the right default for deterministic batch runs (and the
    /// behaviour every pre-existing caller had).
    #[default]
    Fifo,
    /// Evict the least recently *used*: hits refresh the entry, so a
    /// skewed repeat distribution keeps its hot set resident — the
    /// `sctool serve` default.
    Lru,
}

impl EvictionPolicy {
    /// Parses `"fifo"` / `"lru"` (the `sctool serve --eviction`
    /// grammar).
    ///
    /// # Errors
    ///
    /// A message naming the unknown policy.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "fifo" => Ok(Self::Fifo),
            "lru" => Ok(Self::Lru),
            other => Err(format!("unknown eviction policy {other:?} (fifo|lru)")),
        }
    }
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Fifo => "fifo",
            Self::Lru => "lru",
        })
    }
}

/// `(tenant id, repository fingerprint, canonical spec)` — the tenant
/// id first, so two tenants serving byte-identical repositories (equal
/// fingerprints by construction) still hold disjoint entries.
type CacheKey = (u64, u64, String);

/// A stored answer plus the dimensions of the repository it was
/// computed against — re-checked on every hit as a collision guard
/// independent of the fingerprint hash — and the eviction stamp (the
/// insertion tick under FIFO, refreshed per hit under LRU).
#[derive(Debug)]
struct Stored {
    universe: usize,
    num_sets: usize,
    stamp: u64,
    answer: CachedAnswer,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, Stored>,
    /// Stamp → key index mirroring `map` (stamps are unique), so the
    /// eviction victim — the minimum stamp — is an O(log n) pop
    /// instead of a full-map sweep on the scheduler's retirement path.
    by_stamp: BTreeMap<u64, CacheKey>,
    /// Monotonic stamp source for the eviction order.
    tick: u64,
}

impl Inner {
    fn next_stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// A bounded, thread-safe cache of query outcomes keyed on
/// `(tenant id, repository fingerprint, canonical spec)`.
///
/// Capacity `0` disables the cache (every lookup misses, inserts are
/// dropped). Eviction follows the configured [`EvictionPolicy`] —
/// outcome records are tiny (a cover is a few dozen ids), so even the
/// LRU bookkeeping is one counter write per hit. The cache is `Sync`
/// and designed to be shared — wrap it in an
/// [`Arc`](std::sync::Arc) and hand it to several services through
/// [`ServiceBuilder::shared_cache`](crate::ServiceBuilder::shared_cache)
/// to share answers across repositories (the content fingerprint plus the
/// per-hit dimension cross-check keep them apart, up to a 64-bit hash
/// collision between equal-dimension repositories).
#[derive(Debug, Default)]
pub struct OutcomeCache {
    capacity: usize,
    policy: EvictionPolicy,
    inner: Mutex<Inner>,
}

impl OutcomeCache {
    /// Creates a FIFO cache bounded to `capacity` entries (`0` disables
    /// it).
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, EvictionPolicy::Fifo)
    }

    /// Creates a cache bounded to `capacity` entries under the given
    /// eviction policy (`0` disables it).
    pub fn with_policy(capacity: usize, policy: EvictionPolicy) -> Self {
        Self {
            capacity,
            policy,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured eviction policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache poisoned").map.len()
    }

    /// `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A 64-bit FNV-1a fingerprint of a repository's full contents
    /// (universe size, family size, and every set's elements, in
    /// repository order). Any structural difference changes it with
    /// overwhelming probability, but it is not collision-free — which
    /// is why [`lookup`](Self::lookup) also cross-checks the stored
    /// repository dimensions directly.
    pub fn fingerprint(system: &SetSystem) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(system.universe() as u64);
        mix(system.num_sets() as u64);
        for (_id, elems) in system.iter() {
            mix(elems.len() as u64);
            for &e in elems {
                mix(u64::from(e));
            }
        }
        h
    }

    /// The canonical cache key of a spec: its `Display` form, which
    /// round-trips through [`QuerySpec::parse`], so `delta=0.50` and
    /// `delta=0.5` land on the same entry.
    fn key(tenant: u64, fingerprint: u64, spec: &QuerySpec) -> CacheKey {
        (tenant, fingerprint, spec.to_string())
    }

    /// Looks up the answer for `spec` against the repository with the
    /// given fingerprint and dimensions. A fingerprint match whose
    /// stored dimensions differ from `universe`/`num_sets` is a hash
    /// collision between different repositories and misses. Under
    /// LRU, a hit refreshes the entry's eviction stamp. Hits and misses
    /// are counted by the caller, in the tenant's ledger
    /// ([`LedgerEvent::CacheHit`](crate::LedgerEvent::CacheHit) /
    /// [`CacheMiss`](crate::LedgerEvent::CacheMiss)).
    pub fn lookup(
        &self,
        tenant: u64,
        fingerprint: u64,
        universe: usize,
        num_sets: usize,
        spec: &QuerySpec,
    ) -> Option<CachedAnswer> {
        if self.capacity == 0 {
            return None;
        }
        let key = Self::key(tenant, fingerprint, spec);
        let mut inner = self.inner.lock().expect("cache poisoned");
        let inner = &mut *inner;
        let stamp = (self.policy == EvictionPolicy::Lru).then(|| inner.next_stamp());
        let stored = inner
            .map
            .get_mut(&key)
            .filter(|stored| stored.universe == universe && stored.num_sets == num_sets)?;
        if let Some(stamp) = stamp {
            // LRU refresh: the entry moves to the young end of the
            // stamp index.
            inner.by_stamp.remove(&stored.stamp);
            inner.by_stamp.insert(stamp, key);
            stored.stamp = stamp;
        }
        Some(stored.answer.clone())
    }

    /// Stores the answer a completed query produced against the
    /// repository with the given fingerprint and dimensions, returning
    /// how many entries the capacity bound evicted to admit it (`0` or
    /// `1`). A duplicate key (two identical queries retiring from the
    /// same epoch group) overwrites in place — the answers are
    /// identical by determinism — without consuming a second slot;
    /// under FIFO the overwrite keeps the entry's original insertion
    /// age, under LRU it counts as a use.
    pub fn insert(
        &self,
        tenant: u64,
        fingerprint: u64,
        universe: usize,
        num_sets: usize,
        spec: &QuerySpec,
        answer: CachedAnswer,
    ) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        let key = Self::key(tenant, fingerprint, spec);
        let mut inner = self.inner.lock().expect("cache poisoned");
        let inner = &mut *inner;
        let stamp = inner.next_stamp();
        match inner.map.entry(key.clone()) {
            Entry::Occupied(mut slot) => {
                let stored = slot.get_mut();
                stored.universe = universe;
                stored.num_sets = num_sets;
                stored.answer = answer;
                if self.policy == EvictionPolicy::Lru {
                    // A re-insert is a use; under FIFO the entry keeps
                    // its original insertion age.
                    inner.by_stamp.remove(&stored.stamp);
                    inner.by_stamp.insert(stamp, key);
                    stored.stamp = stamp;
                }
                0
            }
            Entry::Vacant(slot) => {
                slot.insert(Stored {
                    universe,
                    num_sets,
                    stamp,
                    answer,
                });
                inner.by_stamp.insert(stamp, key);
                let mut evicted = 0;
                while inner.map.len() > self.capacity {
                    // Evict the minimum stamp: insertion order under
                    // FIFO, least-recently-used under LRU (hits refresh
                    // the stamp) — an O(log n) pop off the stamp index.
                    let (_, victim) = inner
                        .by_stamp
                        .pop_first()
                        .expect("stamp index mirrors the map");
                    inner.map.remove(&victim);
                    evicted += 1;
                }
                evicted
            }
        }
    }

    /// Reaps every entry the given tenant computed against the
    /// repository with the given fingerprint — the eager half of a
    /// generation's death in a hot swap (the keyed `(tenant,
    /// fingerprint)` pair already made them unreachable). Returns how
    /// many entries were removed. Another tenant's entries under the
    /// same fingerprint survive — its repository did not change.
    /// Callers sharing one cache across services should only reap
    /// pairs no live service still presents.
    pub fn evict_fingerprint(&self, tenant: u64, fingerprint: u64) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        let mut inner = self.inner.lock().expect("cache poisoned");
        let before = inner.map.len();
        inner
            .map
            .retain(|(t, fp, _), _| *t != tenant || *fp != fingerprint);
        inner
            .by_stamp
            .retain(|_, (t, fp, _)| *t != tenant || *fp != fingerprint);
        before - inner.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(tag: usize) -> CachedAnswer {
        CachedAnswer {
            cover: vec![tag as SetId],
            covered: tag,
            required: tag,
            logical_passes: 1,
            space_words: 8,
        }
    }

    fn spec(seed: u64) -> QuerySpec {
        QuerySpec::IterCover { delta: 0.5, seed }
    }

    #[test]
    fn fingerprint_separates_repositories() {
        let a = SetSystem::from_sets(3, vec![vec![0, 1], vec![2]]);
        let same = SetSystem::from_sets(3, vec![vec![0, 1], vec![2]]);
        let different = SetSystem::from_sets(3, vec![vec![0, 1], vec![1]]);
        assert_eq!(
            OutcomeCache::fingerprint(&a),
            OutcomeCache::fingerprint(&same)
        );
        assert_ne!(
            OutcomeCache::fingerprint(&a),
            OutcomeCache::fingerprint(&different)
        );
    }

    #[test]
    fn lookup_respects_fingerprint_and_spec() {
        let cache = OutcomeCache::new(8);
        cache.insert(0, 1, 3, 2, &spec(7), answer(1));
        assert_eq!(cache.lookup(0, 1, 3, 2, &spec(7)), Some(answer(1)));
        assert_eq!(cache.lookup(0, 2, 3, 2, &spec(7)), None, "other repository");
        assert_eq!(cache.lookup(0, 1, 3, 2, &spec(8)), None, "other spec");
    }

    #[test]
    fn fingerprint_collisions_with_other_dimensions_miss() {
        let cache = OutcomeCache::new(8);
        cache.insert(0, 1, 3, 2, &spec(7), answer(1));
        // Same (colliding) fingerprint, different repository shape:
        // the dimension cross-check turns it into a miss.
        assert_eq!(cache.lookup(0, 1, 4, 2, &spec(7)), None, "universe differs");
        assert_eq!(cache.lookup(0, 1, 3, 5, &spec(7)), None, "family differs");
    }

    #[test]
    fn fifo_eviction_keeps_the_bound() {
        let cache = OutcomeCache::new(2);
        let evicted: Vec<usize> = (0..5u64)
            .map(|s| cache.insert(0, 0, 3, 2, &spec(s), answer(s as usize)))
            .collect();
        assert_eq!(
            evicted,
            [0, 0, 1, 1, 1],
            "one victim per insert past the bound"
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(0, 0, 3, 2, &spec(0)), None, "oldest evicted");
        assert_eq!(cache.lookup(0, 0, 3, 2, &spec(4)), Some(answer(4)));
    }

    #[test]
    fn fifo_ignores_hits_when_evicting() {
        let cache = OutcomeCache::new(2);
        cache.insert(0, 0, 3, 2, &spec(0), answer(0));
        cache.insert(0, 0, 3, 2, &spec(1), answer(1));
        // A hit on the oldest entry does not save it under FIFO.
        assert!(cache.lookup(0, 0, 3, 2, &spec(0)).is_some());
        cache.insert(0, 0, 3, 2, &spec(2), answer(2));
        assert_eq!(cache.lookup(0, 0, 3, 2, &spec(0)), None, "still the oldest");
        assert!(cache.lookup(0, 0, 3, 2, &spec(1)).is_some());
    }

    #[test]
    fn fifo_overwrite_keeps_the_original_insertion_age() {
        let cache = OutcomeCache::new(2);
        cache.insert(0, 0, 3, 2, &spec(0), answer(0));
        cache.insert(0, 0, 3, 2, &spec(1), answer(1));
        // Re-inserting the oldest entry does not rejuvenate it under
        // FIFO: it is still the first out.
        cache.insert(0, 0, 3, 2, &spec(0), answer(9));
        cache.insert(0, 0, 3, 2, &spec(2), answer(2));
        assert_eq!(cache.lookup(0, 0, 3, 2, &spec(0)), None, "still the oldest");
        assert!(cache.lookup(0, 0, 3, 2, &spec(1)).is_some());
        assert!(cache.lookup(0, 0, 3, 2, &spec(2)).is_some());
    }

    #[test]
    fn lru_hits_refresh_the_entry() {
        let cache = OutcomeCache::with_policy(2, EvictionPolicy::Lru);
        assert_eq!(cache.policy(), EvictionPolicy::Lru);
        cache.insert(0, 0, 3, 2, &spec(0), answer(0));
        cache.insert(0, 0, 3, 2, &spec(1), answer(1));
        // Touch the older entry: the *other* one becomes the victim.
        assert!(cache.lookup(0, 0, 3, 2, &spec(0)).is_some());
        assert_eq!(cache.insert(0, 0, 3, 2, &spec(2), answer(2)), 1);
        assert!(cache.lookup(0, 0, 3, 2, &spec(0)).is_some(), "refreshed");
        assert_eq!(cache.lookup(0, 0, 3, 2, &spec(1)), None, "LRU victim");
    }

    #[test]
    fn evict_fingerprint_reaps_only_the_dead_generation() {
        let cache = OutcomeCache::new(8);
        let evicted = cache.insert(0, 1, 3, 2, &spec(0), answer(0))
            + cache.insert(0, 1, 3, 2, &spec(1), answer(1))
            + cache.insert(0, 2, 3, 2, &spec(0), answer(2));
        assert_eq!(evicted, 0, "no capacity eviction below the bound");
        assert_eq!(cache.evict_fingerprint(0, 1), 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(0, 2, 3, 2, &spec(0)), Some(answer(2)));
        assert_eq!(cache.evict_fingerprint(0, 1), 0, "already reaped");
    }

    #[test]
    fn identical_repositories_never_hit_across_tenants() {
        // Two tenants loading byte-identical repositories collide on
        // the fingerprint *by construction*; the tenant id in the key
        // must still keep their answers apart.
        let cache = OutcomeCache::new(8);
        cache.insert(0, 1, 3, 2, &spec(7), answer(1));
        assert_eq!(
            cache.lookup(1, 1, 3, 2, &spec(7)),
            None,
            "tenant 1 must not see tenant 0's answer"
        );
        assert_eq!(cache.lookup(0, 1, 3, 2, &spec(7)), Some(answer(1)));
        // Each tenant's entry occupies its own slot under its own key.
        cache.insert(1, 1, 3, 2, &spec(7), answer(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(1, 1, 3, 2, &spec(7)), Some(answer(2)));
        assert_eq!(cache.lookup(0, 1, 3, 2, &spec(7)), Some(answer(1)));
    }

    #[test]
    fn evict_fingerprint_is_tenant_scoped() {
        let cache = OutcomeCache::new(8);
        cache.insert(0, 9, 3, 2, &spec(0), answer(0));
        cache.insert(1, 9, 3, 2, &spec(0), answer(1));
        // Tenant 0 swapped its repository; tenant 1's identical
        // repository did not change and must keep its entry.
        assert_eq!(cache.evict_fingerprint(0, 9), 1);
        assert_eq!(cache.lookup(1, 9, 3, 2, &spec(0)), Some(answer(1)));
        assert_eq!(cache.lookup(0, 9, 3, 2, &spec(0)), None);
    }

    #[test]
    fn eviction_policy_parses_and_prints() {
        assert_eq!(EvictionPolicy::parse("fifo"), Ok(EvictionPolicy::Fifo));
        assert_eq!(EvictionPolicy::parse("lru"), Ok(EvictionPolicy::Lru));
        assert!(EvictionPolicy::parse("arc").is_err());
        assert_eq!(EvictionPolicy::Lru.to_string(), "lru");
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = OutcomeCache::new(0);
        assert_eq!(cache.insert(0, 0, 3, 2, &spec(1), answer(1)), 0);
        assert_eq!(cache.lookup(0, 0, 3, 2, &spec(1)), None);
        assert!(cache.is_empty());
        assert_eq!(cache.evict_fingerprint(0, 0), 0);
    }
}
