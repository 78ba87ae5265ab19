//! The content-addressed LRU result cache, full-key and per-stage.
//!
//! Entries are keyed by the canonical hash of the `(problem, config)` pair
//! (see [`biochip_json::content_key_hex`]): two submissions asking for the
//! same synthesis — regardless of field order, formatting or which client
//! sent them — share one entry, so a warm resubmission is a lookup instead
//! of a multi-second pipeline run.
//!
//! [`StageCaches`] extends the same idea below the full key: it holds the
//! intermediate **stage artifacts** (schedule, architecture) under their
//! chained stage keys (see `biochip_synth::StageKeys`) plus the latest
//! per-assay warm-start handoff, and implements
//! [`StageStore`](biochip_synth::StageStore) so a job whose full key missed
//! can resume the pipeline from the first divergent stage — or warm-start
//! the architecture stage after a problem edit — instead of running cold.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use biochip_synth::arch::{Architecture, OracleCache};
use biochip_synth::schedule::Schedule;
use biochip_synth::{StageStore, SynthesisConfig, SynthesisOutcome, WarmHandoff};

/// Counters the cache exposes through `GET /stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: usize,
    /// Lookups that missed (and went on to synthesize).
    pub misses: usize,
    /// Entries currently held.
    pub entries: usize,
    /// Maximum entries held at once.
    pub capacity: usize,
    /// Entries displaced by the LRU policy so far.
    pub evictions: usize,
}

struct Inner<V> {
    /// key → (last-use tick, value). The tick is a monotonically increasing
    /// counter; eviction removes the minimum. With service-sized capacities
    /// (tens to hundreds) the O(n) eviction scan is noise next to the
    /// synthesis runs the cache is saving.
    entries: HashMap<String, (u64, Arc<V>)>,
    tick: u64,
    hits: usize,
    misses: usize,
    evictions: usize,
}

/// A thread-safe least-recently-used cache from content key to result.
pub struct ResultCache<V> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
}

impl<V> std::fmt::Debug for ResultCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl<V> ResultCache<V> {
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

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<V>> {
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
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
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
                inner.misses += 1;
                None
            }
        }
    }

    /// Like [`ResultCache::get`], but an absent key counts nothing: used for
    /// the worker-side recheck of a key whose submission-time lookup already
    /// recorded the miss — one logical lookup, one counted miss.
    #[must_use]
    pub fn peek(&self, key: &str) -> Option<Arc<V>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let (last_used, value) = inner.entries.get_mut(key)?;
        *last_used = tick;
        let value = Arc::clone(value);
        inner.hits += 1;
        Some(value)
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used entry
    /// when the cache is full.
    pub fn insert(&self, key: &str, value: Arc<V>) {
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
                inner.entries.remove(&oldest);
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

/// Counters of the warm-start handoff slots, exposed through `GET /stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WarmStats {
    /// Hint lookups that found a handoff for the assay.
    pub hits: usize,
    /// Hint lookups that found nothing (first sight of the assay).
    pub misses: usize,
    /// Assays currently holding a handoff.
    pub entries: usize,
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
    /// Warm-start handoff slots (keyed by assay name).
    pub warm: WarmStats,
    /// Shared routing-oracle cache (keyed by placement stage key + device
    /// placement).
    pub oracle: OracleStats,
}

/// The job service's per-stage artifact store: schedule and architecture
/// LRU caches under their chained stage keys, plus the latest warm-start
/// handoff per assay. Implements [`StageStore`], so
/// `SynthesisFlow::run_problem_staged` reads and writes it directly.
pub struct StageCaches {
    schedule: ResultCache<Schedule>,
    architecture: ResultCache<Architecture>,
    /// assay name → latest handoff. Bounded like the name-key memo: the
    /// distinct assays a service sees are few, the cap only guards against
    /// a client sweeping generated names.
    warm: Mutex<HashMap<String, Arc<WarmHandoff>>>,
    warm_capacity: usize,
    warm_hits: AtomicUsize,
    warm_misses: AtomicUsize,
    /// Routing oracles shared across every job on this service: jobs that
    /// resolve to the same placement (same placement stage key, grid and
    /// device assignment) reuse one build, including concurrent jobs racing
    /// on the same architecture.
    oracles: Arc<OracleCache>,
}

impl std::fmt::Debug for StageCaches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageCaches")
            .field("schedule", &self.schedule)
            .field("architecture", &self.architecture)
            .finish_non_exhaustive()
    }
}

impl StageCaches {
    /// Creates the staged caches, each stage holding at most `capacity`
    /// entries (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        StageCaches {
            schedule: ResultCache::new(capacity),
            architecture: ResultCache::new(capacity),
            warm: Mutex::new(HashMap::new()),
            warm_capacity: capacity.max(1),
            warm_hits: AtomicUsize::new(0),
            warm_misses: AtomicUsize::new(0),
            oracles: Arc::new(OracleCache::default()),
        }
    }

    fn lock_warm(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<WarmHandoff>>> {
        // Same poisoning stance as ResultCache::lock: recover, never
        // propagate — a HashMap is consistent after any single call.
        self.warm
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Snapshot of all per-stage counters.
    #[must_use]
    pub fn stats(&self) -> StageCachesStats {
        StageCachesStats {
            schedule: self.schedule.stats(),
            architecture: self.architecture.stats(),
            warm: WarmStats {
                hits: self.warm_hits.load(Ordering::Relaxed),
                misses: self.warm_misses.load(Ordering::Relaxed),
                entries: self.lock_warm().len(),
            },
            oracle: OracleStats {
                builds: self.oracles.builds() as usize,
                hits: self.oracles.hits() as usize,
                entries: self.oracles.len(),
            },
        }
    }
}

impl StageStore for StageCaches {
    fn get_schedule(&self, key: &str) -> Option<Arc<Schedule>> {
        self.schedule.get(key)
    }

    fn put_schedule(&self, key: &str, schedule: &Arc<Schedule>) {
        self.schedule.insert(key, Arc::clone(schedule));
    }

    fn get_architecture(&self, key: &str) -> Option<Arc<Architecture>> {
        self.architecture.get(key)
    }

    fn put_architecture(&self, key: &str, architecture: &Arc<Architecture>) {
        self.architecture.insert(key, Arc::clone(architecture));
    }

    fn warm_hint(&self, assay: &str) -> Option<Arc<WarmHandoff>> {
        let hint = self.lock_warm().get(assay).cloned();
        match &hint {
            Some(_) => self.warm_hits.fetch_add(1, Ordering::Relaxed),
            None => self.warm_misses.fetch_add(1, Ordering::Relaxed),
        };
        hint
    }

    fn put_warm(&self, assay: &str, outcome: &SynthesisOutcome, config: &SynthesisConfig) {
        let handoff = Arc::new(WarmHandoff::from_outcome(outcome, config));
        let mut warm = self.lock_warm();
        if !warm.contains_key(assay) && warm.len() >= self.warm_capacity {
            warm.clear();
        }
        warm.insert(assay.to_owned(), handoff);
    }

    fn oracle_cache(&self) -> Option<Arc<OracleCache>> {
        Some(Arc::clone(&self.oracles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let cache: ResultCache<u32> = ResultCache::new(4);
        assert!(cache.get("a").is_none());
        cache.insert("a", Arc::new(1));
        assert_eq!(cache.get("a").as_deref(), Some(&1));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn least_recently_used_entry_is_evicted_first() {
        let cache: ResultCache<u32> = ResultCache::new(2);
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
        let cache: ResultCache<u32> = ResultCache::new(2);
        cache.insert("a", Arc::new(1));
        cache.insert("b", Arc::new(2));
        cache.insert("a", Arc::new(10));
        assert_eq!(cache.get("a").as_deref(), Some(&10));
        assert!(cache.get("b").is_some());
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn capacity_has_a_floor_of_one() {
        let cache: ResultCache<u32> = ResultCache::new(0);
        cache.insert("a", Arc::new(1));
        assert!(cache.get("a").is_some());
        assert_eq!(cache.stats().capacity, 1);
    }

    #[test]
    fn stage_caches_round_trip_and_count_per_stage() {
        let stages = StageCaches::new(4);
        assert!(stages.get_schedule("s1").is_none());
        let schedule = Arc::new(Schedule::with_capacity(0));
        stages.put_schedule("s1", &schedule);
        assert!(stages.get_schedule("s1").is_some());
        assert!(stages.get_architecture("r1").is_none());
        assert!(stages.warm_hint("PCR").is_none());
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
    fn a_poisoned_cache_mutex_recovers_instead_of_cascading() {
        let cache: Arc<ResultCache<u32>> = Arc::new(ResultCache::new(4));
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
