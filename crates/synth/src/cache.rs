//! The one bounded map of the flow's caches, and the stage store built on it.
//!
//! [`ResultCache`] is a thread-safe least-recently-used map from a key to a
//! shared value. The job service keeps its full results in one (keyed by
//! the canonical hash of the `(problem, config)` pair, see
//! [`biochip_json::content_key_hex`]) and its submission-key memo in
//! another; [`StageCaches`] holds three more:
//!
//! * the **schedule** stage, under the schedule stage key;
//! * the **architecture** stage (placement + routes), under the route stage
//!   key;
//! * the **warm hints**, under the assay name: the latest
//!   [`WarmHandoff`] of each assay, sharing the `Arc`s of the schedule and
//!   architecture it was built from.
//!
//! `SynthesisFlow::run_problem_staged` reads and writes a [`StageCaches`]
//! directly, so a job whose full key missed resumes the pipeline from the
//! first divergent stage — or warm-starts the architecture stage after a
//! problem edit — instead of running cold. The store also owns the shared
//! routing-oracle cache ([`OracleCache`]).

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use biochip_arch::{Architecture, OracleCache};
use biochip_schedule::Schedule;

use crate::stages::WarmHandoff;

/// Counters one [`ResultCache`] exposes through `GET /stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: usize,
    /// Lookups that missed.
    pub misses: usize,
    /// Entries currently held.
    pub entries: usize,
    /// Maximum entries held at once.
    pub capacity: usize,
    /// Entries displaced by the LRU policy so far.
    pub evictions: usize,
}

struct Inner<K, V> {
    /// key → (last-use tick, value). The tick is a monotonically increasing
    /// counter; eviction removes the minimum, and since no two entries share
    /// a tick the victim does not depend on the map's iteration order. With
    /// service-sized capacities (tens to about a thousand) the O(n) eviction
    /// scan is noise next to the work the cache is saving.
    entries: HashMap<K, (u64, Arc<V>)>,
    tick: u64,
    hits: usize,
    misses: usize,
    evictions: usize,
}

/// A thread-safe least-recently-used cache from key to shared value.
pub struct ResultCache<K, V> {
    inner: Mutex<Inner<K, V>>,
    capacity: usize,
}

impl<K, V> std::fmt::Debug for ResultCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl<K: Eq + Hash + Clone, V> ResultCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<K, V>> {
        // No user code runs under this lock, so poisoning is next to
        // impossible — but recover anyway: the map of a poisoned cache is
        // still consistent (every mutation is a single HashMap call), and a
        // cache must degrade, never take the service down.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up `key`, refreshing its recency and counting a hit or miss.
    #[must_use]
    pub fn get<Q>(&self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.lookup(key, true)
    }

    /// Like [`ResultCache::get`], but an absent key counts nothing: used for
    /// the worker-side recheck of a key whose submission-time lookup already
    /// recorded the miss — one logical lookup, one counted miss.
    #[must_use]
    pub fn peek<Q>(&self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.lookup(key, false)
    }

    fn lookup<Q>(&self, key: &Q, count_miss: bool) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some((last_used, value)) => {
                *last_used = tick;
                let value = Arc::clone(value);
                inner.hits += 1;
                Some(value)
            }
            None => {
                inner.misses += usize::from(count_miss);
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used entry
    /// when the cache is full.
    pub fn insert<Q>(&self, key: &Q, value: Arc<V>)
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ToOwned<Owned = K> + ?Sized,
    {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let is_new = !inner.entries.contains_key(key);
        if is_new && inner.entries.len() >= self.capacity {
            if let Some(oldest) = inner
                .entries
                .iter()
                .min_by_key(|(_, (last_used, _))| *last_used)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove::<K>(&oldest);
                inner.evictions += 1;
            }
        }
        inner.entries.insert(key.to_owned(), (tick, value));
    }

    /// Snapshot of the cache counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.entries.len(),
            capacity: self.capacity,
            evictions: inner.evictions,
        }
    }
}

/// Routing-oracle cache counters, the `oracle` block of the stage stats.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OracleStats {
    /// Oracles built from scratch (cache misses).
    pub builds: usize,
    /// Lookups served by an already-built oracle.
    pub hits: usize,
    /// Oracles currently held.
    pub entries: usize,
}

/// Counters of every staged cache, the `stage_cache` block of `GET /stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageCachesStats {
    /// Schedule-stage artifact cache (keyed by schedule stage key).
    pub schedule: CacheStats,
    /// Architecture-stage artifact cache (keyed by route stage key).
    pub architecture: CacheStats,
    /// Warm-start hints (keyed by assay name).
    pub warm: CacheStats,
    /// Shared routing-oracle cache (keyed by placement stage key + device
    /// placement).
    pub oracle: OracleStats,
}

/// The per-stage artifact store of the staged flow: schedule and
/// architecture LRU caches under their chained stage keys, an LRU of the
/// latest warm-start hint per assay, and the shared routing oracles.
pub struct StageCaches {
    pub(crate) schedule: ResultCache<String, Schedule>,
    pub(crate) architecture: ResultCache<String, Architecture>,
    pub(crate) warm: ResultCache<String, WarmHandoff>,
    /// Routing oracles shared across every run on this store: runs that
    /// resolve to the same placement (same placement stage key, grid and
    /// device assignment) reuse one build, including concurrent runs racing
    /// on the same architecture.
    pub(crate) oracles: Arc<OracleCache>,
}

impl std::fmt::Debug for StageCaches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageCaches")
            .field("schedule", &self.schedule)
            .field("architecture", &self.architecture)
            .field("warm", &self.warm)
            .finish_non_exhaustive()
    }
}

impl StageCaches {
    /// Creates the staged caches, each stage and the warm hints holding at
    /// most `capacity` entries (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        StageCaches {
            schedule: ResultCache::new(capacity),
            architecture: ResultCache::new(capacity),
            warm: ResultCache::new(capacity),
            oracles: Arc::new(OracleCache::default()),
        }
    }

    /// Snapshot of all per-stage counters.
    #[must_use]
    pub fn stats(&self) -> StageCachesStats {
        StageCachesStats {
            schedule: self.schedule.stats(),
            architecture: self.architecture.stats(),
            warm: self.warm.stats(),
            oracle: OracleStats {
                builds: self.oracles.builds() as usize,
                hits: self.oracles.hits() as usize,
                entries: self.oracles.len(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{SchedulerChoice, SynthesisConfig, SynthesisFlow};
    use crate::FlowController;
    use biochip_assay::library;

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let cache: ResultCache<String, u32> = ResultCache::new(4);
        assert!(cache.get("a").is_none());
        cache.insert("a", Arc::new(1));
        assert_eq!(cache.get("a").as_deref(), Some(&1));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn least_recently_used_entry_is_evicted_first() {
        let cache: ResultCache<String, u32> = ResultCache::new(2);
        cache.insert("a", Arc::new(1));
        cache.insert("b", Arc::new(2));
        // Touch "a" so "b" is the LRU entry when "c" arrives.
        assert!(cache.get("a").is_some());
        cache.insert("c", Arc::new(3));
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none(), "b was least recently used");
        assert!(cache.get("c").is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn reinserting_a_key_does_not_evict() {
        let cache: ResultCache<String, u32> = ResultCache::new(2);
        cache.insert("a", Arc::new(1));
        cache.insert("b", Arc::new(2));
        cache.insert("a", Arc::new(10));
        assert_eq!(cache.get("a").as_deref(), Some(&10));
        assert!(cache.get("b").is_some());
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn capacity_has_a_floor_of_one() {
        let cache: ResultCache<String, u32> = ResultCache::new(0);
        cache.insert("a", Arc::new(1));
        assert!(cache.get("a").is_some());
        assert_eq!(cache.stats().capacity, 1);
    }

    #[test]
    fn stage_caches_round_trip_and_count_per_stage() {
        let stages = StageCaches::new(4);
        assert!(stages.schedule.get("s1").is_none());
        stages
            .schedule
            .insert("s1", Arc::new(Schedule::with_capacity(0)));
        assert!(stages.schedule.get("s1").is_some());
        assert!(stages.architecture.get("r1").is_none());
        assert!(stages.warm.get("PCR").is_none());
        let stats = stages.stats();
        assert_eq!((stats.schedule.hits, stats.schedule.misses), (1, 1));
        assert_eq!((stats.architecture.hits, stats.architecture.misses), (0, 1));
        assert_eq!(
            (stats.warm.hits, stats.warm.misses, stats.warm.entries),
            (0, 1, 0)
        );
        // The stats block serializes for /stats.
        let json = biochip_json::Serialize::to_json(&stats);
        let back: StageCachesStats = biochip_json::Deserialize::from_json(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn warm_hints_are_evicted_least_recently_used() {
        // One real handoff, filed under three assay names.
        let flow = SynthesisFlow::new(
            SynthesisConfig::default().with_scheduler(SchedulerChoice::StorageAware),
        );
        let primer = StageCaches::new(1);
        let problem = flow.problem_for(library::pcr());
        flow.run_problem_staged(problem, &FlowController::new(), &primer)
            .unwrap();
        let handoff = primer.warm.peek("PCR").expect("a staged run leaves a hint");

        let stages = StageCaches::new(2);
        stages.warm.insert("A", Arc::clone(&handoff));
        stages.warm.insert("B", Arc::clone(&handoff));
        assert!(stages.warm.get("A").is_some());
        stages.warm.insert("C", handoff);
        assert!(stages.warm.get("A").is_some(), "A was used after B");
        assert!(stages.warm.get("B").is_none(), "B was least recently used");
        assert!(stages.warm.get("C").is_some());
        assert_eq!(stages.stats().warm.evictions, 1);
    }

    #[test]
    fn a_poisoned_cache_mutex_recovers_instead_of_cascading() {
        let cache: Arc<ResultCache<String, u32>> = Arc::new(ResultCache::new(4));
        cache.insert("a", Arc::new(1));
        let poisoner = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("poison the cache mutex");
        })
        .join();
        // Every subsequent operation recovers the guard and keeps working.
        assert_eq!(cache.get("a").as_deref(), Some(&1));
        cache.insert("b", Arc::new(2));
        assert_eq!(cache.stats().entries, 2);
    }
}
