//! A persistent sharded worker pool for long-running services.
//!
//! Unlike [`crate::batch::run_batch`], which fans a *fixed* job list over
//! scoped threads and returns, this pool keeps its workers alive and accepts
//! work for as long as the owner exists. Every worker owns one queue
//! (a shard); submitters pick the shard by key. Routing identical keys to
//! the same shard means identical submissions execute in order on one
//! worker — the server exploits this so that a cache-miss burst of the same
//! assay computes the result once instead of once per worker.
//!
//! A panicking job never takes a worker down: the handler runs under
//! `catch_unwind` and the panic is counted, mirroring the batch runner's
//! per-job containment.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Aggregate counters of a [`ShardedPool`], for `GET /stats` and
/// `GET /metrics`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PoolStats {
    /// Worker threads (= shards).
    pub workers: usize,
    /// Jobs accepted so far.
    pub submitted: usize,
    /// Jobs whose handler returned normally.
    pub completed: usize,
    /// Jobs whose handler panicked (contained, worker survived).
    pub panicked: usize,
    /// Jobs currently sitting in shard queues.
    pub queued: usize,
    /// Wall seconds each worker has spent inside job handlers (one entry
    /// per worker, index = worker id). Busy time, not lifetime — a worker
    /// blocked on its empty queue accrues nothing.
    pub busy_seconds: Vec<f64>,
}

struct Shard<T> {
    queue: Mutex<VecDeque<T>>,
    available: Condvar,
}

struct Shared<T> {
    shards: Vec<Shard<T>>,
    shutdown: AtomicBool,
    submitted: AtomicUsize,
    completed: AtomicUsize,
    panicked: AtomicUsize,
    /// Per-worker microseconds spent inside job handlers. Written only by
    /// the owning worker, so a Relaxed add is a plain accumulate.
    busy_micros: Vec<AtomicU64>,
}

impl<T> Shared<T> {
    /// Pops the next job of `shard`, blocking until one arrives or the pool
    /// shuts down. Jobs still queued at shutdown are drained (a submitted
    /// job is a promise).
    fn next_job(&self, shard: usize) -> Option<T> {
        // biochip-lint: allow(P1, "worker index is always < shards.len(): workers and shards are created 1:1")
        let shard = &self.shards[shard];
        // Handlers run under catch_unwind, so poisoning should be
        // impossible; recover instead of unwinding the worker anyway — a
        // VecDeque is structurally sound after any interrupted push/pop.
        let mut queue = shard
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            queue = shard
                .available
                .wait(queue)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// A fixed set of detached worker threads, each draining its own queue.
///
/// Dropping the pool shuts it down: workers finish the jobs already queued,
/// then exit, and `drop` joins them.
pub struct ShardedPool<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> std::fmt::Debug for ShardedPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPool")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> ShardedPool<T> {
    /// Spawns `workers` threads (clamped to at least 1), each running
    /// `handler(worker_index, job)` for every job routed to its shard.
    ///
    /// The handler runs under `catch_unwind`; a panic is counted and the
    /// worker moves on to the next job.
    pub fn new<F>(workers: usize, handler: F) -> Self
    where
        F: Fn(usize, T) + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            shards: (0..workers)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    available: Condvar::new(),
                })
                .collect(),
            shutdown: AtomicBool::new(false),
            submitted: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panicked: AtomicUsize::new(0),
            busy_micros: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        });
        let handler = Arc::new(handler);
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("biochip-worker-{index}"))
                    .spawn(move || {
                        while let Some(job) = shared.next_job(index) {
                            let started = Instant::now();
                            let outcome = catch_unwind(AssertUnwindSafe(|| handler(index, job)));
                            // biochip-lint: allow(P1, "worker index is always < busy_micros.len(): one slot per spawned worker")
                            shared.busy_micros[index]
                                .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
                            match outcome {
                                Ok(()) => shared.completed.fetch_add(1, Ordering::Relaxed),
                                Err(_) => shared.panicked.fetch_add(1, Ordering::Relaxed),
                            };
                        }
                    })
                    // biochip-lint: allow(P1, "pool construction runs at startup, before any request is accepted; failing to spawn OS threads at boot is fatal by design")
                    .expect("worker threads can always be spawned")
            })
            .collect();
        ShardedPool {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads (= shards).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Queues a job on the shard selected by `key % workers`.
    ///
    /// Returns `false` (dropping the job) if the pool is already shutting
    /// down — callers treat that as "service unavailable".
    pub fn submit_keyed(&self, key: u64, job: T) -> bool {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return false;
        }
        let index = (key % self.workers.len() as u64) as usize;
        // biochip-lint: allow(P1, "index = key % shards.len() is always in bounds")
        let shard = &self.shared.shards[index];
        shard
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_back(job);
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        shard.available.notify_one();
        true
    }

    /// Snapshot of the pool counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let queued = self
            .shared
            .shards
            .iter()
            .map(|s| {
                s.queue
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len()
            })
            .sum();
        PoolStats {
            workers: self.workers.len(),
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
            queued,
            busy_seconds: self
                .shared
                .busy_micros
                .iter()
                .map(|m| m.load(Ordering::Relaxed) as f64 / 1e6)
                .collect(),
        }
    }
}

impl<T: Send + 'static> Drop for ShardedPool<T> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for shard in &self.shared.shards {
            shard.available.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn wait_until(deadline_ms: u64, mut done: impl FnMut() -> bool) -> bool {
        for _ in 0..deadline_ms / 5 {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        done()
    }

    #[test]
    fn jobs_run_and_drain_on_drop() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = {
            let counter = Arc::clone(&counter);
            ShardedPool::new(3, move |_, n: usize| {
                counter.fetch_add(n, Ordering::Relaxed);
            })
        };
        for n in 1..=10usize {
            assert!(pool.submit_keyed(n as u64, n));
        }
        drop(pool); // joins workers, queued jobs included
        assert_eq!(counter.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn identical_keys_land_on_one_worker() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let pool = {
            let seen = Arc::clone(&seen);
            ShardedPool::new(4, move |worker, _: ()| {
                seen.lock().unwrap().push(worker);
            })
        };
        for _ in 0..8 {
            pool.submit_keyed(42, ());
        }
        drop(pool);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 8);
        assert!(seen.iter().all(|&w| w == seen[0]), "{seen:?}");
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = {
            let counter = Arc::clone(&counter);
            ShardedPool::new(1, move |_, boom: bool| {
                assert!(!boom, "job asked to panic");
                counter.fetch_add(1, Ordering::Relaxed);
            })
        };
        pool.submit_keyed(0, true); // panics, contained
        pool.submit_keyed(0, false); // must still run on the same worker
        assert!(wait_until(2000, || counter.load(Ordering::Relaxed) == 1));
        let stats = pool.stats();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn busy_time_accrues_per_worker() {
        let pool = ShardedPool::new(2, |_, ms: u64| {
            std::thread::sleep(Duration::from_millis(ms));
        });
        // Key 0 → worker 0; worker 1 never gets a job.
        pool.submit_keyed(0, 20);
        assert!(wait_until(2000, || pool.stats().completed == 1));
        let stats = pool.stats();
        assert_eq!(stats.busy_seconds.len(), 2);
        assert!(
            stats.busy_seconds[0] >= 0.015,
            "worker 0 slept 20ms but logged {}s",
            stats.busy_seconds[0]
        );
        assert_eq!(stats.busy_seconds[1], 0.0, "idle worker accrued busy time");
    }

    #[test]
    fn stats_serialize() {
        let pool = ShardedPool::new(2, |_, (): ()| {});
        let text = biochip_json::to_string_pretty(&pool.stats());
        let back: PoolStats = biochip_json::from_str(&text).unwrap();
        assert_eq!(back.workers, 2);
        assert_eq!(back.busy_seconds.len(), 2);
    }
}
