//! The job service: routing, submission, worker handoff and stats.

use serde::{Deserialize, Serialize};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use biochip_json::Json;
use biochip_pool::{PoolStats, ShardedPool};
use biochip_synth::assay::library;
use biochip_synth::schedule::ScheduleProblem;
use biochip_synth::{
    CacheStats, FlowController, FlowError, ResultCache, ReuseKind, StageCaches, StageCachesStats,
    SynthesisConfig, SynthesisFlow,
};
use biochip_telemetry as telemetry;

use crate::durable::{Durable, JournalStats, RecoveredJob};
use crate::http::{
    read_request, write_json_response, write_response, write_response_with, HttpError, Request,
    PROMETHEUS_CONTENT_TYPE,
};
use crate::jobs::{JobRecord, JobState, JobStore, ResultDoc};
use crate::signals;
use biochip_store::StoreStats;

/// Schema tag of structured error bodies.
pub const ERROR_SCHEMA: &str = "biochip-error/v1";

/// Configuration of [`Server::bind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:7078` (port 0 picks a free port).
    pub addr: String,
    /// Synthesis worker threads; 0 means one per core
    /// ([`biochip_pool::default_workers`]).
    pub workers: usize,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Placement-start worker threads a single cold job may use (`1`, the
    /// default, runs each job on one core; `0` means one per core). Values
    /// are clamped so `workers × threads` stays within 2× the host's cores.
    /// Routing is sequential either way. Never changes job results, only
    /// their latency.
    pub threads_per_job: usize,
    /// Data directory for the on-disk result store and job journal.
    /// `None` (the default) keeps everything in memory, exactly as before
    /// durability existed.
    pub data_dir: Option<String>,
    /// Byte budget of the on-disk store's LRU (default 256 MiB).
    pub store_bytes: u64,
    /// Cold submissions answered `429` once this many jobs are already
    /// waiting for a worker.
    pub max_queue_depth: usize,
    /// Cold submissions answered `429` once one client identity has this
    /// many jobs queued or running.
    pub max_inflight_per_client: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7078".to_owned(),
            workers: 0,
            cache_capacity: 64,
            threads_per_job: 1,
            data_dir: None,
            store_bytes: 256 * 1024 * 1024,
            max_queue_depth: 1024,
            max_inflight_per_client: 256,
        }
    }
}

/// Admission-control counters and limits, part of `GET /stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AdmissionStats {
    /// Cold submissions answered `429` because the queue was full.
    pub rejected_queue_full: usize,
    /// Cold submissions answered `429` because the client was over quota.
    pub rejected_client_quota: usize,
    /// Submissions answered `503` while draining.
    pub rejected_draining: usize,
    /// The configured queue-depth bound.
    pub max_queue_depth: usize,
    /// The configured per-client in-flight bound.
    pub max_inflight_per_client: usize,
}

/// Aggregate service counters, the body of `GET /stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Seconds since the server started.
    pub uptime_seconds: f64,
    /// Jobs accepted in total (including cache hits).
    pub jobs_accepted: usize,
    /// Jobs waiting for a worker.
    pub jobs_queued: usize,
    /// Jobs currently synthesizing.
    pub jobs_running: usize,
    /// Jobs finished successfully.
    pub jobs_done: usize,
    /// Jobs that failed (flow errors and contained panics).
    pub jobs_failed: usize,
    /// Jobs cancelled before completion.
    pub jobs_cancelled: usize,
    /// Jobs answered from the result cache.
    pub jobs_cached: usize,
    /// Of those, submissions resolved from the key memo by their body's
    /// digest: byte-identical resubmissions answered without parsing.
    pub body_memo_hits: usize,
    /// Jobs that shortcut the architecture stage with a warm-start hint
    /// (prior placement adopted and/or a routed prefix replayed).
    pub jobs_warm_started: usize,
    /// Jobs (among the warm-started) that adopted the prior placement.
    pub warm_placements_reused: usize,
    /// Transports committed by warm replay instead of search, summed over
    /// all jobs.
    pub warm_tasks_replayed: usize,
    /// Result-cache counters (full content key).
    pub cache: CacheStats,
    /// Per-stage artifact caches (schedule / architecture / warm handoffs).
    pub stage_cache: StageCachesStats,
    /// Worker-pool counters.
    pub pool: PoolStats,
    /// On-disk result-store counters (disabled placeholder without
    /// `--data-dir`).
    pub store: StoreStats,
    /// Job-journal and crash-recovery counters.
    pub journal: JournalStats,
    /// Admission-control counters and limits.
    pub admission: AdmissionStats,
    /// Whether the server is draining (shutting down gracefully).
    pub draining: bool,
}

/// Request-latency bucket bounds in seconds. Most of the API answers from
/// in-memory state in well under a millisecond, and so does a byte-identical
/// resubmission (a body digest and a memo lookup); the long tail is the
/// first `POST /jobs` of a multi-megabyte problem document, which is parsed,
/// validated and canonically hashed.
const REQUEST_BOUNDS: &[f64] = &[
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
];

/// Job-latency bucket bounds in seconds (submission to terminal state).
/// Warm hits land in the sub-millisecond buckets, cold syntheses of the
/// scale assays in the tens of seconds.
const JOB_BOUNDS: &[f64] = &[
    0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
];

/// Endpoint labels with a request-latency series, in display order.
const ENDPOINTS: &[&str] = &[
    "submit",
    "job_status",
    "cancel",
    "result",
    "stats",
    "metrics",
    "healthz",
    "shutdown",
    "other",
];

/// The latency instruments behind `GET /metrics` and the `latency` block
/// of `GET /stats`. Counter-style subsystem stats (cache, pool, job
/// states) are *not* mirrored here — `metrics_text` renders them straight
/// from their owning structs at scrape time, so there is exactly one
/// source of truth per number.
struct Metrics {
    registry: telemetry::Registry,
    /// Submission-to-terminal latency of jobs that ran a synthesis.
    job_cold_seconds: telemetry::Histogram,
    /// Latency of jobs answered from the result cache.
    job_warm_seconds: telemetry::Histogram,
}

impl Metrics {
    fn new() -> Self {
        let registry = telemetry::Registry::new();
        let help = "Job latency from submission to terminal state, split by cold (synthesized) vs warm (cache-served)";
        let job_cold_seconds =
            registry.histogram("biochip_job_seconds", help, &[("mode", "cold")], JOB_BOUNDS);
        let job_warm_seconds =
            registry.histogram("biochip_job_seconds", help, &[("mode", "warm")], JOB_BOUNDS);
        Metrics {
            registry,
            job_cold_seconds,
            job_warm_seconds,
        }
    }

    fn request_histogram(&self, endpoint: &str) -> telemetry::Histogram {
        self.registry.histogram(
            "biochip_request_seconds",
            "HTTP request handling latency by endpoint",
            &[("endpoint", endpoint)],
            REQUEST_BOUNDS,
        )
    }

    /// Records one handled request (also the `/metrics` scrape itself —
    /// a monitor should see its own traffic).
    fn observe_request(&self, endpoint: &str, status: u16, seconds: f64) {
        let code = status.to_string();
        self.registry
            .counter(
                "biochip_requests_total",
                "HTTP requests handled by endpoint and status code",
                &[("endpoint", endpoint), ("code", &code)],
            )
            .inc();
        self.request_histogram(endpoint).observe(seconds);
    }
}

/// One synthesis waiting on a worker shard.
struct QueuedJob {
    id: u64,
    key: String,
    assay: String,
    problem: ScheduleProblem,
    config: SynthesisConfig,
    controller: Arc<FlowController>,
    submitted: Instant,
    /// Client identity charged for this job's in-flight quota (`None` for
    /// jobs re-enqueued by crash recovery).
    client: Option<String>,
}

/// A submission identity the key memo knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MemoIdentity {
    /// A named library assay under one config: `(canonical name, config
    /// key)`.
    Named(&'static str, u64),
    /// The keyed digest of a request body that parsed, validated and
    /// resolved (see [`ServerState::body_digest`]).
    Body(u128),
}

/// Memoized content key and display name of a submission identity.
struct KeyMemo {
    key: u64,
    hex: String,
    assay: String,
}

/// The key memo's entry cap. Distinct identities are few in practice; the
/// LRU bound only guards against a client sweeping configs or bodies to
/// grow the map.
const KEY_MEMO_CAP: usize = 1024;

/// Everything the connection threads and the worker pool share.
struct ServerState {
    jobs: JobStore,
    cache: ResultCache<String, ResultDoc>,
    /// Stage artifacts + warm handoffs consulted when the full key misses.
    stages: StageCaches,
    cached_hits: AtomicU64,
    /// Jobs whose architecture stage was warm-started.
    warm_jobs: AtomicU64,
    /// Warm-started jobs that adopted the prior placement.
    warm_placements: AtomicU64,
    /// Transports committed by warm replay, summed over all jobs.
    warm_tasks_replayed: AtomicU64,
    /// Per-job placement-start threads (clamped; see [`ServeOptions`]).
    threads_per_job: usize,
    /// Submission identity → content key. A named identity spares named
    /// submissions of a scale assay from regenerating and canonically
    /// hashing a multi-thousand-op problem document on every request. A
    /// body identity lets a byte-identical resubmission of any document
    /// skip parsing, decoding, validation and hashing altogether: a warm
    /// hit costs one digest of the body and two table lookups. Bodies are
    /// memoized only once they resolved, so errors are always recomputed.
    key_memo: ResultCache<MemoIdentity, KeyMemo>,
    /// Per-process SipHash keys of [`ServerState::body_digest`]. Random and
    /// never persisted, so a client cannot aim a collision.
    digest_keys: [std::collections::hash_map::RandomState; 2],
    /// Submissions answered through a body identity of the key memo.
    body_memo_hits: AtomicU64,
    started: Instant,
    metrics: Metrics,
    /// The durability layer: on-disk result store + job journal (both
    /// no-ops without `--data-dir`).
    durable: Durable,
    /// Set by `POST /shutdown` or SIGTERM: stop accepting, finish running
    /// jobs, flush the journal, then stop the accept loop.
    draining: AtomicBool,
    /// Cold submissions answered `429` once this many jobs are waiting.
    max_queue_depth: usize,
    /// Per-client in-flight bound for cold submissions.
    max_inflight_per_client: usize,
    /// In-flight (queued + running) cold jobs per client identity.
    clients: std::sync::Mutex<std::collections::HashMap<String, usize>>,
    rejected_queue_full: AtomicU64,
    rejected_client_quota: AtomicU64,
    rejected_draining: AtomicU64,
}

impl ServerState {
    /// Fresh state for a server with these options; `threads_per_job` is
    /// already clamped.
    fn new(options: &ServeOptions, threads_per_job: usize, durable: Durable) -> ServerState {
        ServerState {
            jobs: JobStore::default(),
            cache: ResultCache::new(options.cache_capacity),
            stages: StageCaches::new(options.cache_capacity),
            cached_hits: AtomicU64::new(0),
            warm_jobs: AtomicU64::new(0),
            warm_placements: AtomicU64::new(0),
            warm_tasks_replayed: AtomicU64::new(0),
            threads_per_job,
            key_memo: ResultCache::new(KEY_MEMO_CAP),
            digest_keys: Default::default(),
            body_memo_hits: AtomicU64::new(0),
            started: Instant::now(),
            metrics: Metrics::new(),
            durable,
            draining: AtomicBool::new(false),
            max_queue_depth: options.max_queue_depth.max(1),
            max_inflight_per_client: options.max_inflight_per_client.max(1),
            clients: std::sync::Mutex::new(std::collections::HashMap::new()),
            rejected_queue_full: AtomicU64::new(0),
            rejected_client_quota: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
        }
    }

    /// Memoizes an identity's content key and display name.
    fn memoize(&self, identity: MemoIdentity, key: u64, hex: &str, assay: &str) {
        let known = KeyMemo {
            key,
            hex: hex.to_owned(),
            assay: assay.to_owned(),
        };
        self.key_memo.insert(&identity, Arc::new(known));
    }

    /// A 128-bit digest of a request body under this process's keys.
    fn body_digest(&self, body: &[u8]) -> u128 {
        use std::hash::BuildHasher;
        let [high, low] = &self.digest_keys;
        (u128::from(high.hash_one(body)) << 64) | u128::from(low.hash_one(body))
    }

    /// A cached result: the memory cache first, then the disk store (results
    /// that survived a restart or aged out of the memory LRU), whose hits
    /// are promoted back into memory.
    fn warm_result(&self, key_hex: &str) -> Option<Arc<ResultDoc>> {
        if let Some(result) = self.cache.get(key_hex) {
            return Some(result);
        }
        let result = self.durable.store_get(key_hex)?;
        self.cache.insert(key_hex, Arc::clone(&result));
        Some(result)
    }

    /// Locks the per-client in-flight map, recovering from poisoning: the
    /// map is consistent after any single call.
    fn lock_clients(&self) -> std::sync::MutexGuard<'_, std::collections::HashMap<String, usize>> {
        self.clients
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Charges one in-flight job to `client` unless it is at its quota.
    /// Returns `false` (and counts the rejection) at the quota.
    fn try_charge_client(&self, client: &str) -> bool {
        let mut clients = self.lock_clients();
        let inflight = clients.entry(client.to_owned()).or_insert(0);
        if *inflight >= self.max_inflight_per_client {
            self.rejected_client_quota.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        *inflight += 1;
        true
    }

    /// Releases one in-flight charge when a job reaches a terminal state.
    fn release_client(&self, client: Option<&str>) {
        let Some(client) = client else {
            return;
        };
        let mut clients = self.lock_clients();
        if let Some(inflight) = clients.get_mut(client) {
            *inflight = inflight.saturating_sub(1);
            if *inflight == 0 {
                clients.remove(client);
            }
        }
    }
}

struct Shared {
    state: Arc<ServerState>,
    pool: ShardedPool<QueuedJob>,
    next_id: AtomicU64,
    /// The server's own stop handle, so `POST /shutdown` and the SIGTERM
    /// watcher can end the accept loop once the drain finishes.
    handle: ServerHandle,
}

/// Handle for stopping a running server from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stopping: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Asks the accept loop to exit. Queued jobs still drain before the
    /// worker pool shuts down.
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::Release);
        // Poke the listener so the blocking accept() wakes up and observes
        // the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// The `biochip serve` job service.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    stopping: Arc<AtomicBool>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the address cannot be bound.
    pub fn bind(options: &ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        let workers = if options.workers == 0 {
            biochip_pool::default_workers()
        } else {
            options.workers
        };
        // Cap per-job thread counts so `workers × threads` cannot
        // oversubscribe the host past 2× its cores.
        let available = biochip_pool::default_workers();
        let requested = if options.threads_per_job == 0 {
            available
        } else {
            options.threads_per_job
        };
        let cap = (2 * available / workers.max(1)).max(1);
        let threads_per_job = if requested > cap {
            eprintln!(
                "biochip serve: clamping --threads {requested} to {cap} \
                 ({workers} workers on {available} cores)"
            );
            cap
        } else {
            requested
        };
        // Open the durability layer (store + journal) and replay whatever
        // the previous incarnation left behind before accepting traffic.
        let (durable, recovery) = match &options.data_dir {
            Some(dir) => {
                let (durable, recovery) =
                    Durable::open(std::path::Path::new(dir), options.store_bytes);
                (durable, Some(recovery))
            }
            None => (Durable::disabled(), None),
        };
        let state = Arc::new(ServerState::new(options, threads_per_job, durable));
        let pool = {
            let state = Arc::clone(&state);
            ShardedPool::new(workers, move |worker, job: QueuedJob| {
                run_job(&state, worker, job);
            })
        };
        let stopping = Arc::new(AtomicBool::new(false));
        let handle = ServerHandle {
            addr: listener.local_addr()?,
            stopping: Arc::clone(&stopping),
        };
        let next_id = recovery.as_ref().map_or(1, |r| r.next_id);
        if let Some(recovery) = recovery {
            restore_recovered_jobs(&state, &pool, recovery.jobs);
        }
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                state,
                pool,
                next_id: AtomicU64::new(next_id),
                handle,
            }),
            stopping,
        })
    }

    /// The bound address (useful when the options asked for port 0).
    ///
    /// # Errors
    ///
    /// Propagates the underlying `local_addr` failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop the accept loop from another thread.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `local_addr` failure.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.listener.local_addr()?,
            stopping: Arc::clone(&self.stopping),
        })
    }

    /// Installs a SIGTERM handler that drains the server gracefully: stop
    /// accepting new jobs, finish the running and queued ones, flush the
    /// journal, then stop the accept loop. Call once before [`Server::run`].
    ///
    /// # Errors
    ///
    /// Fails when the platform cannot install the handler or the watcher
    /// thread cannot be spawned.
    pub fn drain_on_term_signal(&self) -> io::Result<()> {
        if !signals::install_term_handler() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "cannot install a SIGTERM handler on this platform",
            ));
        }
        let state = Arc::clone(&self.shared.state);
        let handle = self.shared.handle.clone();
        std::thread::Builder::new()
            .name("biochip-sigterm".to_owned())
            .spawn(move || loop {
                if signals::term_requested() {
                    eprintln!("biochip serve: SIGTERM received, draining");
                    begin_drain(&state, &handle);
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            })?;
        Ok(())
    }

    /// Serves until [`ServerHandle::stop`] is called. Each connection is
    /// handled on its own thread; a failing or even panicking request
    /// handler ends that connection only, never the service.
    pub fn run(&self) {
        for connection in self.listener.incoming() {
            if self.stopping.load(Ordering::Acquire) {
                break;
            }
            let Ok(mut stream) = connection else {
                continue;
            };
            // A silent or dribbling client must not pin a connection thread
            // forever: reads and writes give up after a generous timeout
            // (the slow part of a job — synthesis — happens on the worker
            // pool, never on a connection thread).
            let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(30)));
            let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(30)));
            let shared = Arc::clone(&self.shared);
            let _ = std::thread::Builder::new()
                .name("biochip-conn".to_owned())
                .spawn(move || {
                    // Backstop: a panic in routing answers 500 and keeps the
                    // process serving. The job workers have their own
                    // containment in the pool.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        handle_connection(&mut stream, &shared);
                    }));
                    if outcome.is_err() {
                        write_json_response(
                            &mut stream,
                            500,
                            &error_body(500, "internal error while handling the request"),
                        );
                    }
                });
        }
    }
}

/// Renders the uniform structured error body.
#[must_use]
pub fn error_body(status: u16, message: &str) -> String {
    Json::object([
        ("schema", Json::String(ERROR_SCHEMA.to_owned())),
        ("code", Json::Number(f64::from(status))),
        ("error", Json::String(message.to_owned())),
    ])
    .to_pretty()
}

/// Renders a structured admission-rejection body: the uniform error fields
/// plus a machine-readable `reason` and the `Retry-After` value mirrored
/// into the body.
fn admission_body(status: u16, reason: &str, message: &str) -> String {
    Json::object([
        ("schema", Json::String(ERROR_SCHEMA.to_owned())),
        ("code", Json::Number(f64::from(status))),
        ("error", Json::String(message.to_owned())),
        ("reason", Json::String(reason.to_owned())),
        ("retry_after_seconds", Json::Number(1.0)),
    ])
    .to_pretty()
}

/// Starts the graceful drain unless one is already under way: mark the
/// server draining (new submissions answer 503), wait for the queued and
/// running jobs to reach terminal states, fsync the journal, then stop the
/// accept loop. The wait happens on a detached thread so the caller (a
/// request handler or the SIGTERM watcher) returns immediately.
fn begin_drain(state: &Arc<ServerState>, handle: &ServerHandle) -> bool {
    if state.draining.swap(true, Ordering::SeqCst) {
        return false;
    }
    let waiter_state = Arc::clone(state);
    let waiter_handle = handle.clone();
    let spawned = std::thread::Builder::new()
        .name("biochip-drain".to_owned())
        .spawn(move || {
            loop {
                let counts = waiter_state.jobs.counts();
                if counts.queued + counts.running == 0 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            waiter_state.durable.sync();
            waiter_handle.stop();
        });
    if spawned.is_err() {
        // No thread to wait on the jobs: flush and stop immediately rather
        // than hanging the drain forever (queued jobs still finish — the
        // pool drains its queues before joining).
        state.durable.sync();
        handle.stop();
    }
    true
}

/// Reinstates the jobs reconstructed from the journal: terminal records are
/// inserted as-is (results also promoted into the memory cache), and
/// interrupted jobs are re-enqueued under their original ids.
fn restore_recovered_jobs(
    state: &Arc<ServerState>,
    pool: &ShardedPool<QueuedJob>,
    jobs: Vec<RecoveredJob>,
) {
    for job in jobs {
        match job {
            RecoveredJob::Terminal {
                id,
                key,
                assay,
                state: job_state,
                error,
                result,
            } => {
                if let Some(result) = &result {
                    state.cache.insert(&key, Arc::clone(result));
                }
                state.jobs.insert(JobRecord {
                    id,
                    key,
                    assay,
                    state: job_state,
                    cached: result.is_some(),
                    recovered: true,
                    controller: Arc::new(FlowController::finished()),
                    result,
                    error,
                    wall_seconds: 0.0,
                    worker: None,
                });
            }
            RecoveredJob::Requeue { id, submission, .. } => {
                requeue_recovered(state, pool, id, &submission);
            }
        }
    }
}

/// Re-parses a journaled submission and enqueues it under its original id.
/// Any failure (the submission no longer parses, the pool is shutting
/// down) becomes an honest `failed` record, never a panic.
fn requeue_recovered(
    state: &Arc<ServerState>,
    pool: &ShardedPool<QueuedJob>,
    id: u64,
    submission: &Json,
) {
    let text = submission.to_compact();
    let resolved = parse_submission(text.as_bytes())
        .and_then(|submission| resolve_key(submission, state))
        .and_then(|resolved| {
            let problem = match (resolved.problem, resolved.canonical) {
                (Some(problem), _) => problem,
                (None, Some(canonical)) => named_problem(canonical, &resolved.config)?,
                (None, None) => {
                    return Err("journaled submission resolved without a problem".to_owned())
                }
            };
            Ok((
                resolved.key,
                resolved.key_hex,
                resolved.assay,
                resolved.config,
                problem,
            ))
        });
    match resolved {
        Ok((key, key_hex, assay, config, problem)) => {
            let controller = Arc::new(FlowController::new());
            state.jobs.insert(JobRecord {
                id,
                key: key_hex.clone(),
                assay: assay.clone(),
                state: JobState::Queued,
                cached: false,
                recovered: true,
                controller: Arc::clone(&controller),
                result: None,
                error: None,
                wall_seconds: 0.0,
                worker: None,
            });
            let accepted = pool.submit_keyed(
                key,
                QueuedJob {
                    id,
                    key: key_hex,
                    assay,
                    problem,
                    config,
                    controller,
                    submitted: Instant::now(),
                    client: None,
                },
            );
            if !accepted {
                state.jobs.with(id, |job| {
                    job.state = JobState::Failed;
                    job.error = Some("server shut down before the re-enqueued job ran".to_owned());
                });
            }
        }
        Err(message) => {
            state.jobs.insert(JobRecord {
                id,
                key: String::new(),
                assay: String::new(),
                state: JobState::Failed,
                cached: false,
                recovered: true,
                controller: Arc::new(FlowController::finished()),
                result: None,
                error: Some(format!(
                    "interrupted by a restart and could not be re-enqueued: {message}"
                )),
                wall_seconds: 0.0,
                worker: None,
            });
        }
    }
}

fn handle_connection(stream: &mut TcpStream, shared: &Shared) {
    let started = Instant::now();
    let metrics = &shared.state.metrics;
    let mut request = match read_request(stream) {
        Ok(request) => request,
        Err(HttpError { status, message }) => {
            write_json_response(stream, status, &error_body(status, &message));
            metrics.observe_request("malformed", status, started.elapsed().as_secs_f64());
            return;
        }
    };
    // Quotas key on the `x-biochip-client` header when present, else the
    // peer IP — anonymous clients on one host share one bucket.
    if request.client.is_none() {
        request.client = stream.peer_addr().ok().map(|addr| addr.ip().to_string());
    }
    let endpoint = endpoint_label(&request);
    let (status, body) = route(&request, shared);
    if endpoint == "metrics" && status == 200 {
        write_response(stream, status, PROMETHEUS_CONTENT_TYPE, &body);
    } else if status == 429 || status == 503 {
        // Backpressure answers tell clients when to come back.
        write_response_with(
            stream,
            status,
            "application/json",
            &[("retry-after", "1")],
            &body,
        );
    } else {
        write_json_response(stream, status, &body);
    }
    metrics.observe_request(endpoint, status, started.elapsed().as_secs_f64());
}

/// Coarse endpoint label for the request metrics. Ids collapse into one
/// label and unknown paths share `other`, keeping series cardinality
/// bounded no matter what clients throw at the server.
fn endpoint_label(request: &Request) -> &'static str {
    let segments: Vec<&str> = request
        .path
        .split('?')
        .next()
        .unwrap_or("")
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => "submit",
        ("GET", ["jobs", _]) => "job_status",
        ("DELETE", ["jobs", _]) => "cancel",
        ("GET", ["results", _]) => "result",
        ("GET", ["stats"]) => "stats",
        ("GET", ["metrics"]) => "metrics",
        ("GET", ["healthz"]) => "healthz",
        ("POST", ["shutdown"]) => "shutdown",
        _ => "other",
    }
}

fn route(request: &Request, shared: &Shared) -> (u16, String) {
    let segments: Vec<&str> = request
        .path
        .split('?')
        .next()
        .unwrap_or("")
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => submit(request, shared),
        ("GET", ["jobs", id]) => with_job_id(id, |id| job_status(id, shared)),
        ("DELETE", ["jobs", id]) => with_job_id(id, |id| cancel_job(id, shared)),
        ("GET", ["results", id]) => with_job_id(id, |id| job_result(id, shared)),
        ("GET", ["stats"]) => (200, stats_body(shared)),
        ("GET", ["metrics"]) => (200, metrics_text(shared)),
        ("GET", ["healthz"]) => (200, healthz_body(shared)),
        ("POST", ["shutdown"]) => shutdown(shared),
        (method, ["jobs"])
        | (method, ["jobs", _])
        | (method, ["results", _])
        | (method, ["stats"])
        | (method, ["metrics"])
        | (method, ["healthz"])
        | (method, ["shutdown"]) => (
            405,
            error_body(405, &format!("method {method} not allowed here")),
        ),
        _ => (
            404,
            error_body(
                404,
                "unknown path (the API is POST /jobs, GET /jobs/:id, DELETE /jobs/:id, \
                 GET /results/:id, GET /stats, GET /metrics, GET /healthz, POST /shutdown)",
            ),
        ),
    }
}

/// The `GET /healthz` body. Always 200 while the process serves — a
/// degraded store demotes `store` to `"degraded"` (memory-only operation),
/// it does not fail the health check.
fn healthz_body(shared: &Shared) -> String {
    let state = &shared.state;
    Json::object([
        ("ok", Json::Bool(true)),
        (
            "draining",
            Json::Bool(state.draining.load(Ordering::SeqCst)),
        ),
        (
            "store",
            Json::String(state.durable.store_state().to_owned()),
        ),
        (
            "journal",
            Json::String(state.durable.journal_state().to_owned()),
        ),
    ])
    .to_pretty()
}

/// `POST /shutdown`: start (or observe) the graceful drain. Answers 202
/// immediately; the accept loop stops once the last job finishes.
fn shutdown(shared: &Shared) -> (u16, String) {
    let started = begin_drain(&shared.state, &shared.handle);
    let counts = shared.state.jobs.counts();
    (
        202,
        Json::object([
            ("draining", Json::Bool(true)),
            ("already_draining", Json::Bool(!started)),
            (
                "jobs_remaining",
                Json::Number((counts.queued + counts.running) as f64),
            ),
        ])
        .to_pretty(),
    )
}

fn with_job_id(raw: &str, f: impl FnOnce(u64) -> (u16, String)) -> (u16, String) {
    match raw.parse::<u64>() {
        Ok(id) => f(id),
        Err(_) => (400, error_body(400, &format!("`{raw}` is not a job id"))),
    }
}

/// A parsed submission: a named library assay (problem built lazily) or an
/// explicit problem document.
enum Submission {
    Named {
        canonical: &'static str,
        config: SynthesisConfig,
    },
    Problem {
        problem: ScheduleProblem,
        config: SynthesisConfig,
    },
}

/// Parses and validates a submission body into a runnable job.
fn parse_submission(body: &[u8]) -> Result<Submission, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let value = biochip_json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let Json::Object(pairs) = &value else {
        return Err(format!("expected a JSON object, found {}", value.kind()));
    };
    for (key, _) in pairs {
        if !matches!(key.as_str(), "schema" | "assay" | "problem" | "config") {
            return Err(format!(
                "unknown field `{key}` (accepted: schema, assay, problem, config)"
            ));
        }
    }
    if let Some(schema) = value.get("schema") {
        let schema = schema
            .expect_str()
            .map_err(|e| format!("field `schema`: {e}"))?;
        if schema != ResultDoc::SCHEMA {
            return Err(format!(
                "submission has schema `{schema}`, this server speaks `{}`",
                ResultDoc::SCHEMA
            ));
        }
    }

    let config: SynthesisConfig = match value.get("config") {
        Some(raw) => biochip_json::Deserialize::from_json(raw)
            .map_err(|e| format!("field `config` is not a synthesis config: {e}"))?,
        None => SynthesisConfig::default(),
    };

    match (value.get("assay"), value.get("problem")) {
        (Some(_), Some(_)) => Err("give either `assay` or `problem`, not both".to_owned()),
        (Some(name), None) => {
            let name = name
                .expect_str()
                .map_err(|e| format!("field `assay`: {e}"))?;
            let canonical = library::canonical_name(name).ok_or_else(|| {
                let known: Vec<&str> = library::NAMED_ASSAYS.iter().map(|(c, _)| *c).collect();
                format!("unknown assay `{name}` (known: {})", known.join(", "))
            })?;
            Ok(Submission::Named { canonical, config })
        }
        (None, Some(raw)) => {
            let problem: ScheduleProblem = biochip_json::Deserialize::from_json(raw)
                .map_err(|e| format!("field `problem` is not a schedule problem: {e}"))?;
            problem
                .graph()
                .validate()
                .map_err(|e| format!("submitted assay is invalid: {e}"))?;
            Ok(Submission::Problem { problem, config })
        }
        (None, None) => {
            Err("a submission needs an `assay` name or a `problem` document".to_owned())
        }
    }
}

/// The config as hashed into a submission's identity: the full document
/// minus `parallelism`. Thread counts never change a job's result (the
/// synthesizer's parallel reductions are deterministic by candidate order),
/// so a result computed at any thread count must answer submissions at
/// every other — and the server overrides the field with its own resource
/// policy anyway.
fn config_identity_json(config: &SynthesisConfig) -> Json {
    let mut json = config.to_json();
    if let Json::Object(pairs) = &mut json {
        pairs.retain(|(key, _)| key != "parallelism");
    }
    json
}

/// The content key of a `(problem, config)` pair — the cache identity.
fn submission_key(problem: &ScheduleProblem, config: &SynthesisConfig) -> (u64, String) {
    let pair = Json::object([
        ("problem", problem.to_json()),
        ("config", config_identity_json(config)),
    ]);
    let key = biochip_json::canonical_hash(&pair);
    (key, format!("{key:016x}"))
}

/// Builds the problem document of a named library assay. By construction
/// `canonical` came from [`library::canonical_name`], so the lookup should
/// always succeed — but a library/server skew must answer a structured 500,
/// not take the connection thread down.
fn named_problem(canonical: &str, config: &SynthesisConfig) -> Result<ScheduleProblem, String> {
    let graph = library::by_name(canonical).ok_or_else(|| {
        format!("assay `{canonical}` validated against the library but failed to resolve")
    })?;
    Ok(SynthesisFlow::new(config.clone()).problem_for(graph))
}

/// A submission resolved to its cache identity. The problem document is
/// moved (never cloned) from the submission when it exists, and absent only
/// on the named-memo fast path.
struct ResolvedJob {
    key: u64,
    key_hex: String,
    assay: String,
    config: SynthesisConfig,
    problem: Option<ScheduleProblem>,
    /// Set for named submissions, to rebuild the problem when the memo hit
    /// but the cached result has been evicted.
    canonical: Option<&'static str>,
}

/// Resolves a submission to its content key and display name, building the
/// problem document only when the key was not already memoized.
///
/// # Errors
///
/// Returns the message of a structured 500 when a canonical assay name
/// fails to resolve (a library/server skew, not a client error).
fn resolve_key(submission: Submission, state: &ServerState) -> Result<ResolvedJob, String> {
    Ok(match submission {
        Submission::Named { canonical, config } => {
            let config_key = biochip_json::canonical_hash(&config_identity_json(&config));
            let identity = MemoIdentity::Named(canonical, config_key);
            if let Some(known) = state.key_memo.get(&identity) {
                return Ok(ResolvedJob {
                    key: known.key,
                    key_hex: known.hex.clone(),
                    assay: known.assay.clone(),
                    config,
                    problem: None,
                    canonical: Some(canonical),
                });
            }
            let problem = named_problem(canonical, &config)?;
            let (key, hex) = submission_key(&problem, &config);
            let assay = problem.graph().name().to_owned();
            state.memoize(identity, key, &hex, &assay);
            ResolvedJob {
                key,
                key_hex: hex,
                assay,
                config,
                problem: Some(problem),
                canonical: Some(canonical),
            }
        }
        Submission::Problem { problem, config } => {
            let (key, hex) = submission_key(&problem, &config);
            ResolvedJob {
                key,
                key_hex: hex,
                assay: problem.graph().name().to_owned(),
                config,
                problem: Some(problem),
                canonical: None,
            }
        }
    })
}

/// The submission document journaled for crash recovery: small for named
/// assays (name + config), the full problem document otherwise.
fn journaled_submission(
    canonical: Option<&'static str>,
    problem: &ScheduleProblem,
    config: &SynthesisConfig,
) -> Json {
    match canonical {
        Some(name) => Json::object([
            ("assay", Json::String(name.to_owned())),
            ("config", config.to_json()),
        ]),
        None => Json::object([("problem", problem.to_json()), ("config", config.to_json())]),
    }
}

/// Answers a warm hit: record the job as done-from-cache, journal it as
/// born-terminal (the result is already in the store for recovery) and
/// return the 201 body.
fn answer_warm(
    shared: &Shared,
    key_hex: String,
    assay: String,
    result: Arc<ResultDoc>,
    started: Instant,
) -> (u16, String) {
    shared.state.cached_hits.fetch_add(1, Ordering::Relaxed);
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    shared
        .state
        .durable
        .journal_submitted(id, &key_hex, &assay, None, Some(JobState::Done));
    let record = JobRecord {
        id,
        key: key_hex,
        assay,
        state: JobState::Done,
        cached: true,
        recovered: false,
        controller: Arc::new(FlowController::finished()),
        result: Some(result),
        error: None,
        wall_seconds: 0.0,
        worker: None,
    };
    let body = record.status_json().to_pretty();
    shared.state.jobs.insert(record);
    shared
        .state
        .metrics
        .job_warm_seconds
        .observe(started.elapsed().as_secs_f64());
    (201, body)
}

fn submit(request: &Request, shared: &Shared) -> (u16, String) {
    let started = Instant::now();
    if shared.state.draining.load(Ordering::SeqCst) {
        shared
            .state
            .rejected_draining
            .fetch_add(1, Ordering::Relaxed);
        return (
            503,
            admission_body(
                503,
                "draining",
                "server is draining; not accepting new jobs",
            ),
        );
    }
    // A byte-identical resubmission resolves from the memo without parsing.
    let digest = shared.state.body_digest(&request.body);
    let memoized = shared.state.key_memo.get(&MemoIdentity::Body(digest));
    if let Some(known) = &memoized {
        if let Some(result) = shared.state.warm_result(&known.hex) {
            shared.state.body_memo_hits.fetch_add(1, Ordering::Relaxed);
            let (key_hex, assay) = (known.hex.clone(), known.assay.clone());
            return answer_warm(shared, key_hex, assay, result, started);
        }
    }
    let submission = match parse_submission(&request.body) {
        Ok(parsed) => parsed,
        Err(message) => return (400, error_body(400, &message)),
    };
    let ResolvedJob {
        key,
        key_hex,
        assay,
        config,
        problem,
        canonical,
    } = match resolve_key(submission, &shared.state) {
        Ok(resolved) => resolved,
        Err(message) => return (500, error_body(500, &message)),
    };

    // Warm tiers: the memory cache, then the disk store. A memo hit has
    // already probed both under this same key.
    if memoized.is_none() {
        shared
            .state
            .memoize(MemoIdentity::Body(digest), key, &key_hex, &assay);
        if let Some(result) = shared.state.warm_result(&key_hex) {
            return answer_warm(shared, key_hex, assay, result, started);
        }
    }

    // Cold path: admission control. Bounded queue depth first, then the
    // per-client in-flight quota (charged only once both checks pass).
    let counts = shared.state.jobs.counts();
    if counts.queued >= shared.state.max_queue_depth {
        shared
            .state
            .rejected_queue_full
            .fetch_add(1, Ordering::Relaxed);
        return (
            429,
            admission_body(
                429,
                "queue_full",
                &format!(
                    "{} jobs already queued (bound {}); retry shortly",
                    counts.queued, shared.state.max_queue_depth
                ),
            ),
        );
    }
    let client = request.client.clone().unwrap_or_else(|| "anon".to_owned());
    if !shared.state.try_charge_client(&client) {
        return (
            429,
            admission_body(
                429,
                "client_quota",
                &format!(
                    "client `{client}` already has {} jobs in flight; wait for one to finish",
                    shared.state.max_inflight_per_client
                ),
            ),
        );
    }

    // A worker must synthesize, so a problem document is needed now. It is
    // absent only on the memo fast path (named assay with a known key whose
    // result was evicted) — rebuild it from the name. Both "absent without
    // a name" and "name fails to resolve" are server-side inconsistencies:
    // answer a structured 500, never panic the handler.
    let problem = match (problem, canonical) {
        (Some(problem), _) => problem,
        (None, Some(canonical)) => match named_problem(canonical, &config) {
            Ok(problem) => problem,
            Err(message) => {
                shared.state.release_client(Some(&client));
                return (500, error_body(500, &message));
            }
        },
        (None, None) => {
            shared.state.release_client(Some(&client));
            return (
                500,
                error_body(
                    500,
                    "submission resolved without a problem document or an assay name",
                ),
            );
        }
    };

    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    shared.state.durable.journal_submitted(
        id,
        &key_hex,
        &assay,
        Some(&journaled_submission(canonical, &problem, &config)),
        None,
    );
    let controller = Arc::new(FlowController::new());
    let record = JobRecord {
        id,
        key: key_hex.clone(),
        assay: assay.clone(),
        state: JobState::Queued,
        cached: false,
        recovered: false,
        controller: Arc::clone(&controller),
        result: None,
        error: None,
        wall_seconds: 0.0,
        worker: None,
    };
    let body = record.status_json().to_pretty();
    shared.state.jobs.insert(record);
    let accepted = shared.pool.submit_keyed(
        key,
        QueuedJob {
            id,
            key: key_hex,
            assay,
            problem,
            config,
            controller,
            submitted: Instant::now(),
            client: Some(client.clone()),
        },
    );
    if !accepted {
        shared.state.release_client(Some(&client));
        shared.state.durable.journal_terminal(
            id,
            JobState::Failed,
            Some("server is shutting down"),
        );
        shared.state.jobs.with(id, |job| {
            job.state = JobState::Failed;
            job.error = Some("server is shutting down".to_owned());
        });
        return (503, error_body(503, "server is shutting down"));
    }
    (202, body)
}

fn job_status(id: u64, shared: &Shared) -> (u16, String) {
    match shared
        .state
        .jobs
        .with(id, |job| job.status_json().to_pretty())
    {
        Some(body) => (200, body),
        None => (404, error_body(404, &format!("no job {id}"))),
    }
}

fn cancel_job(id: u64, shared: &Shared) -> (u16, String) {
    let result = shared.state.jobs.with(id, |job| match job.state {
        JobState::Queued | JobState::Running => {
            job.controller.cancel();
            (202, job.status_json().to_pretty())
        }
        state => (
            409,
            error_body(409, &format!("job {id} is already {}", state.name())),
        ),
    });
    result.unwrap_or_else(|| (404, error_body(404, &format!("no job {id}"))))
}

fn job_result(id: u64, shared: &Shared) -> (u16, String) {
    let result = shared
        .state
        .jobs
        .with(id, |job| match (&job.state, &job.result) {
            (JobState::Done, Some(result)) => {
                let mut body = biochip_json::Writer::pretty();
                result.write_json(&mut body);
                (200, body.into_string())
            }
            (JobState::Failed | JobState::Cancelled, _) => (
                409,
                error_body(
                    409,
                    &format!(
                        "job {id} {}: {}",
                        job.state.name(),
                        job.error.as_deref().unwrap_or("no details")
                    ),
                ),
            ),
            _ => (
                409,
                error_body(
                    409,
                    &format!(
                        "job {id} is still {} — poll GET /jobs/{id}",
                        job.state.name()
                    ),
                ),
            ),
        });
    result.unwrap_or_else(|| (404, error_body(404, &format!("no job {id}"))))
}

/// The `GET /stats` body: the counter document plus a `latency` block with
/// request percentiles per endpoint and cold/warm job percentiles.
fn stats_body(shared: &Shared) -> String {
    let mut json = stats(shared).to_json();
    if let Json::Object(pairs) = &mut json {
        pairs.push(("latency".to_owned(), latency_json(&shared.state.metrics)));
    }
    json.to_pretty()
}

/// `{count, p50, p90, p99}` of one latency histogram (seconds).
fn quantile_json(snapshot: &telemetry::HistogramSnapshot) -> Json {
    Json::object([
        ("count", Json::Number(snapshot.count() as f64)),
        ("p50_seconds", Json::Number(snapshot.quantile(0.5))),
        ("p90_seconds", Json::Number(snapshot.quantile(0.9))),
        ("p99_seconds", Json::Number(snapshot.quantile(0.99))),
    ])
}

fn latency_json(metrics: &Metrics) -> Json {
    let requests: Vec<(&str, Json)> = ENDPOINTS
        .iter()
        .filter_map(|endpoint| {
            let snapshot = metrics.request_histogram(endpoint).snapshot();
            (snapshot.count() > 0).then(|| (*endpoint, quantile_json(&snapshot)))
        })
        .collect();
    Json::object([
        ("requests", Json::object(requests)),
        (
            "jobs",
            Json::object([
                ("cold", quantile_json(&metrics.job_cold_seconds.snapshot())),
                ("warm", quantile_json(&metrics.job_warm_seconds.snapshot())),
            ]),
        ),
    ])
}

/// The `GET /metrics` body: every registry series (request/job latency)
/// plus the cache, pool and job-state counters rendered straight from
/// their owning structs, in the Prometheus text exposition format.
fn metrics_text(shared: &Shared) -> String {
    fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "NaN".to_owned()
        }
    }
    fn push_metric(out: &mut String, name: &str, kind: &str, help: &str, series: &[(String, f64)]) {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for (labels, value) in series {
            out.push_str(&format!("{name}{labels} {}\n", number(*value)));
        }
    }
    let state = &shared.state;
    let mut out = state.metrics.registry.prometheus_text();
    let cache = state.cache.stats();
    let pool = shared.pool.stats();
    let counts = state.jobs.counts();
    let plain = String::new;
    push_metric(
        &mut out,
        "biochip_uptime_seconds",
        "gauge",
        "Seconds since the server started",
        &[(plain(), state.started.elapsed().as_secs_f64())],
    );
    push_metric(
        &mut out,
        "biochip_cache_hits_total",
        "counter",
        "Result-cache lookups that found a live entry",
        &[(plain(), cache.hits as f64)],
    );
    push_metric(
        &mut out,
        "biochip_body_memo_hits_total",
        "counter",
        "Submissions answered by resolving their body's digest in the key memo",
        &[(plain(), state.body_memo_hits.load(Ordering::Relaxed) as f64)],
    );
    push_metric(
        &mut out,
        "biochip_cache_misses_total",
        "counter",
        "Result-cache lookups that missed and went on to synthesize",
        &[(plain(), cache.misses as f64)],
    );
    push_metric(
        &mut out,
        "biochip_cache_evictions_total",
        "counter",
        "Result-cache entries displaced by the LRU policy",
        &[(plain(), cache.evictions as f64)],
    );
    push_metric(
        &mut out,
        "biochip_cache_entries",
        "gauge",
        "Result-cache entries currently held",
        &[(plain(), cache.entries as f64)],
    );
    push_metric(
        &mut out,
        "biochip_cache_capacity",
        "gauge",
        "Result-cache capacity in entries",
        &[(plain(), cache.capacity as f64)],
    );
    let stages = state.stages.stats();
    let per_stage = |f: fn(&CacheStats) -> usize| {
        vec![
            (
                "{stage=\"schedule\"}".to_owned(),
                f(&stages.schedule) as f64,
            ),
            (
                "{stage=\"architecture\"}".to_owned(),
                f(&stages.architecture) as f64,
            ),
        ]
    };
    push_metric(
        &mut out,
        "biochip_stage_cache_hits_total",
        "counter",
        "Stage-artifact cache lookups that found a live entry, by pipeline stage",
        &per_stage(|s| s.hits),
    );
    push_metric(
        &mut out,
        "biochip_stage_cache_misses_total",
        "counter",
        "Stage-artifact cache lookups that missed, by pipeline stage",
        &per_stage(|s| s.misses),
    );
    push_metric(
        &mut out,
        "biochip_stage_cache_entries",
        "gauge",
        "Stage-artifact cache entries currently held, by pipeline stage",
        &per_stage(|s| s.entries),
    );
    push_metric(
        &mut out,
        "biochip_warm_hints_total",
        "counter",
        "Warm-start handoff lookups by result",
        &[
            ("{result=\"hit\"}".to_owned(), stages.warm.hits as f64),
            ("{result=\"miss\"}".to_owned(), stages.warm.misses as f64),
        ],
    );
    push_metric(
        &mut out,
        "biochip_oracle_builds_total",
        "counter",
        "Routing oracles built from scratch (shared-cache misses)",
        &[(plain(), stages.oracle.builds as f64)],
    );
    push_metric(
        &mut out,
        "biochip_oracle_hits_total",
        "counter",
        "Routing-oracle lookups served by an already-built oracle",
        &[(plain(), stages.oracle.hits as f64)],
    );
    push_metric(
        &mut out,
        "biochip_oracle_entries",
        "gauge",
        "Routing oracles currently held by the shared cache",
        &[(plain(), stages.oracle.entries as f64)],
    );
    push_metric(
        &mut out,
        "biochip_warm_jobs_total",
        "counter",
        "Jobs whose architecture stage was warm-started from a prior run",
        &[(plain(), state.warm_jobs.load(Ordering::Relaxed) as f64)],
    );
    push_metric(
        &mut out,
        "biochip_warm_tasks_replayed_total",
        "counter",
        "Transports committed by warm replay instead of search",
        &[(
            plain(),
            state.warm_tasks_replayed.load(Ordering::Relaxed) as f64,
        )],
    );
    push_metric(
        &mut out,
        "biochip_warm_placements_reused_total",
        "counter",
        "Warm-started jobs that adopted the prior placement",
        &[(
            plain(),
            state.warm_placements.load(Ordering::Relaxed) as f64,
        )],
    );
    push_metric(
        &mut out,
        "biochip_jobs_accepted_total",
        "counter",
        "Jobs accepted over the server's lifetime (cache hits included)",
        &[(plain(), state.jobs.len() as f64)],
    );
    push_metric(
        &mut out,
        "biochip_jobs",
        "gauge",
        "Retained jobs by lifecycle state",
        &[
            ("{state=\"queued\"}".to_owned(), counts.queued as f64),
            ("{state=\"running\"}".to_owned(), counts.running as f64),
            ("{state=\"done\"}".to_owned(), counts.done as f64),
            ("{state=\"failed\"}".to_owned(), counts.failed as f64),
            ("{state=\"cancelled\"}".to_owned(), counts.cancelled as f64),
        ],
    );
    push_metric(
        &mut out,
        "biochip_pool_workers",
        "gauge",
        "Worker threads in the synthesis pool",
        &[(plain(), pool.workers as f64)],
    );
    push_metric(
        &mut out,
        "biochip_pool_queue_depth",
        "gauge",
        "Jobs sitting in the pool's shard queues",
        &[(plain(), pool.queued as f64)],
    );
    push_metric(
        &mut out,
        "biochip_pool_jobs_completed_total",
        "counter",
        "Pool jobs whose handler returned normally",
        &[(plain(), pool.completed as f64)],
    );
    push_metric(
        &mut out,
        "biochip_pool_jobs_panicked_total",
        "counter",
        "Pool jobs whose handler panicked (contained)",
        &[(plain(), pool.panicked as f64)],
    );
    let busy: Vec<(String, f64)> = pool
        .busy_seconds
        .iter()
        .enumerate()
        .map(|(worker, seconds)| (format!("{{worker=\"{worker}\"}}"), *seconds))
        .collect();
    push_metric(
        &mut out,
        "biochip_pool_busy_seconds_total",
        "counter",
        "Wall seconds each worker has spent inside job handlers",
        &busy,
    );
    let store = state.durable.store_stats();
    push_metric(
        &mut out,
        "biochip_store_hits_total",
        "counter",
        "Disk-store lookups that found a valid entry",
        &[(plain(), store.hits as f64)],
    );
    push_metric(
        &mut out,
        "biochip_store_misses_total",
        "counter",
        "Disk-store lookups that found nothing",
        &[(plain(), store.misses as f64)],
    );
    push_metric(
        &mut out,
        "biochip_store_corrupt_total",
        "counter",
        "Disk-store entries quarantined as unreadable or corrupt",
        &[(plain(), store.corrupt as f64)],
    );
    push_metric(
        &mut out,
        "biochip_store_evictions_total",
        "counter",
        "Disk-store entries evicted by the size-capped LRU policy",
        &[(plain(), store.evictions as f64)],
    );
    push_metric(
        &mut out,
        "biochip_store_write_errors_total",
        "counter",
        "Disk-store writes that failed (the store degrades to memory-only)",
        &[(plain(), store.write_errors as f64)],
    );
    push_metric(
        &mut out,
        "biochip_store_entries",
        "gauge",
        "Disk-store entries currently held",
        &[(plain(), store.entries as f64)],
    );
    push_metric(
        &mut out,
        "biochip_store_bytes",
        "gauge",
        "Bytes the disk store currently holds",
        &[(plain(), store.bytes as f64)],
    );
    push_metric(
        &mut out,
        "biochip_store_available",
        "gauge",
        "1 when the disk store accepts reads and writes, 0 when degraded or disabled",
        &[(
            plain(),
            f64::from(u8::from(store.enabled && store.available)),
        )],
    );
    let journal = state.durable.journal_stats();
    push_metric(
        &mut out,
        "biochip_journal_appends_total",
        "counter",
        "Job-journal records appended since startup",
        &[(plain(), journal.appends as f64)],
    );
    push_metric(
        &mut out,
        "biochip_journal_append_errors_total",
        "counter",
        "Job-journal appends that failed (journaling stops until restart)",
        &[(plain(), journal.append_errors as f64)],
    );
    push_metric(
        &mut out,
        "biochip_journal_replayed_total",
        "counter",
        "Journal records replayed at the last startup",
        &[(plain(), journal.replayed as f64)],
    );
    push_metric(
        &mut out,
        "biochip_jobs_recovered_total",
        "counter",
        "Jobs resolved from the journal at startup, by outcome",
        &[
            (
                "{outcome=\"recovered\"}".to_owned(),
                journal.recovered as f64,
            ),
            ("{outcome=\"requeued\"}".to_owned(), journal.requeued as f64),
            ("{outcome=\"lost\"}".to_owned(), journal.lost as f64),
        ],
    );
    push_metric(
        &mut out,
        "biochip_admission_rejected_total",
        "counter",
        "Submissions rejected by admission control, by reason",
        &[
            (
                "{reason=\"queue_full\"}".to_owned(),
                state.rejected_queue_full.load(Ordering::Relaxed) as f64,
            ),
            (
                "{reason=\"client_quota\"}".to_owned(),
                state.rejected_client_quota.load(Ordering::Relaxed) as f64,
            ),
            (
                "{reason=\"draining\"}".to_owned(),
                state.rejected_draining.load(Ordering::Relaxed) as f64,
            ),
        ],
    );
    push_metric(
        &mut out,
        "biochip_draining",
        "gauge",
        "1 while the server drains in-flight jobs before shutdown",
        &[(
            plain(),
            f64::from(u8::from(state.draining.load(Ordering::SeqCst))),
        )],
    );
    out
}

fn stats(shared: &Shared) -> ServeStats {
    let state = &shared.state;
    let counts = state.jobs.counts();
    ServeStats {
        uptime_seconds: state.started.elapsed().as_secs_f64(),
        jobs_accepted: state.jobs.len(),
        jobs_queued: counts.queued,
        jobs_running: counts.running,
        jobs_done: counts.done,
        jobs_failed: counts.failed,
        jobs_cancelled: counts.cancelled,
        jobs_cached: state.cached_hits.load(Ordering::Relaxed) as usize,
        body_memo_hits: state.body_memo_hits.load(Ordering::Relaxed) as usize,
        jobs_warm_started: state.warm_jobs.load(Ordering::Relaxed) as usize,
        warm_placements_reused: state.warm_placements.load(Ordering::Relaxed) as usize,
        warm_tasks_replayed: state.warm_tasks_replayed.load(Ordering::Relaxed) as usize,
        cache: state.cache.stats(),
        stage_cache: state.stages.stats(),
        pool: shared.pool.stats(),
        store: state.durable.store_stats(),
        journal: state.durable.journal_stats(),
        admission: AdmissionStats {
            rejected_queue_full: state.rejected_queue_full.load(Ordering::Relaxed) as usize,
            rejected_client_quota: state.rejected_client_quota.load(Ordering::Relaxed) as usize,
            rejected_draining: state.rejected_draining.load(Ordering::Relaxed) as usize,
            max_queue_depth: state.max_queue_depth,
            max_inflight_per_client: state.max_inflight_per_client,
        },
        draining: state.draining.load(Ordering::SeqCst),
    }
}

/// Runs one queued job on a worker thread: cache fast path, then the full
/// monitored flow with panic containment.
///
/// A cancellation acknowledged with a 202 must stick: the controller is
/// re-checked at every terminal transition, so a cancel that lands while
/// the job is queued, while the cache is consulted, or during the final
/// synthesis stage never lets the job flip to `done` afterwards. (A result
/// that finished anyway is still inserted into the cache — the computation
/// is not thrown away, only this job's outcome is `cancelled`.)
fn run_job(state: &ServerState, worker: usize, job: QueuedJob) {
    let QueuedJob {
        id,
        key,
        assay,
        problem,
        config,
        controller,
        submitted,
        client,
    } = job;
    let client = client.as_deref();

    if controller.is_cancelled() {
        state.jobs.with(id, |record| {
            record.state = JobState::Cancelled;
            record.error = Some("cancelled while queued".to_owned());
            record.wall_seconds = submitted.elapsed().as_secs_f64();
        });
        state
            .durable
            .journal_terminal(id, JobState::Cancelled, Some("cancelled while queued"));
        // Counted in `biochip_jobs{state="cancelled"}`, never timed: the job
        // did not synthesize, so it stays out of the cold histogram.
        state.release_client(client);
        return;
    }

    state.jobs.with(id, |record| {
        record.state = JobState::Running;
        record.worker = Some(worker);
    });
    state.durable.journal_started(id);

    // Identical submissions shard to the same worker, so by the time a
    // duplicate reaches the front of the queue the original has usually
    // finished — serve it from the cache instead of synthesizing twice.
    if let Some(result) = state.cache.peek(&key) {
        state.cached_hits.fetch_add(1, Ordering::Relaxed);
        let wall = submitted.elapsed().as_secs_f64();
        let terminal = state
            .jobs
            .with(id, |record| {
                // Checked inside the store lock: cancel_job flips the flag
                // under this same lock, so the 202 it answered and this
                // terminal transition are strictly ordered.
                if record.controller.is_cancelled() {
                    record.state = JobState::Cancelled;
                    record.error = Some("cancelled".to_owned());
                } else {
                    record.state = JobState::Done;
                    record.cached = true;
                    record.result = Some(result);
                }
                record.wall_seconds = wall;
                record.state
            })
            .unwrap_or(JobState::Done);
        let error = (terminal == JobState::Cancelled).then_some("cancelled");
        state.durable.journal_terminal(id, terminal, error);
        state.release_client(client);
        state.metrics.job_warm_seconds.observe(wall);
        return;
    }

    // Intra-job parallelism is the server's resource policy, not the
    // client's: override whatever the submission carried. Results are
    // identical at any thread count.
    let mut config = config;
    config.parallelism = biochip_synth::arch::Parallelism::with_threads(state.threads_per_job);

    let flow = SynthesisFlow::new(config);
    // The staged run probes the per-stage caches (schedule by schedule
    // key, architecture by route key) and falls back to a warm-started or
    // cold synthesis of whatever diverged — never changing the result,
    // only skipping recomputation.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        flow.run_problem_staged(problem, &controller, &state.stages)
    }));
    let wall = submitted.elapsed().as_secs_f64();
    state.metrics.job_cold_seconds.observe(wall);

    match outcome {
        Ok(Ok((outcome, reuse))) => {
            if reuse.architecture == ReuseKind::Warm {
                state.warm_jobs.fetch_add(1, Ordering::Relaxed);
            }
            if reuse.placement_reused {
                state.warm_placements.fetch_add(1, Ordering::Relaxed);
            }
            state
                .warm_tasks_replayed
                .fetch_add(reuse.tasks_replayed as u64, Ordering::Relaxed);
            let result = Arc::new(ResultDoc {
                schema: ResultDoc::SCHEMA.to_owned(),
                assay,
                key: key.clone(),
                report: outcome.report,
                execution: outcome.execution,
            });
            state.cache.insert(&key, Arc::clone(&result));
            // Write-through to the disk store *before* journaling `done`,
            // so a crash between the two re-runs the job instead of
            // resolving a `done` journal entry against a missing entry.
            state.durable.store_put(&key, &result);
            let terminal = state
                .jobs
                .with(id, |record| {
                    // Checked inside the store lock (see the cache-peek path).
                    if record.controller.is_cancelled() {
                        record.state = JobState::Cancelled;
                        record.error = Some(
                            "cancelled (the synthesis had already completed; its result \
                              is cached for future submissions)"
                                .to_owned(),
                        );
                    } else {
                        record.state = JobState::Done;
                        record.result = Some(result);
                    }
                    record.wall_seconds = wall;
                    record.state
                })
                .unwrap_or(JobState::Done);
            let error = (terminal == JobState::Cancelled).then_some("cancelled");
            state.durable.journal_terminal(id, terminal, error);
        }
        Ok(Err(error)) => {
            let cancelled = matches!(error, FlowError::Cancelled(_));
            let message = error.to_string();
            let terminal = state
                .jobs
                .with(id, |record| {
                    // An acknowledged cancel wins even over a coincident flow
                    // error: the client was told "cancelled", so that is the
                    // terminal state it finds.
                    record.state = if cancelled || record.controller.is_cancelled() {
                        JobState::Cancelled
                    } else {
                        JobState::Failed
                    };
                    record.error = Some(message.clone());
                    record.wall_seconds = wall;
                    record.state
                })
                .unwrap_or(JobState::Failed);
            state.durable.journal_terminal(id, terminal, Some(&message));
        }
        Err(payload) => {
            let message = biochip_pool::panic_message(payload.as_ref())
                .unwrap_or("job panicked")
                .to_owned();
            let message = format!("synthesis panicked: {message}");
            state.jobs.with(id, |record| {
                record.state = JobState::Failed;
                record.error = Some(message.clone());
                record.wall_seconds = wall;
            });
            state
                .durable
                .journal_terminal(id, JobState::Failed, Some(&message));
        }
    }
    state.release_client(client);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state() -> ServerState {
        let options = ServeOptions {
            cache_capacity: 4,
            max_queue_depth: 4,
            max_inflight_per_client: 2,
            ..ServeOptions::default()
        };
        ServerState::new(&options, 1, Durable::disabled())
    }

    #[test]
    fn client_quota_charges_and_releases() {
        let state = test_state();
        assert!(state.try_charge_client("alice"));
        assert!(state.try_charge_client("alice"));
        assert!(!state.try_charge_client("alice"), "quota is 2");
        assert!(state.try_charge_client("bob"), "quotas are per-client");
        state.release_client(Some("alice"));
        assert!(state.try_charge_client("alice"), "release frees a slot");
        // Releasing an uncharged or unknown client must not underflow.
        state.release_client(Some("nobody"));
        state.release_client(None);
        assert_eq!(state.rejected_client_quota.load(Ordering::Relaxed), 1);
    }

    /// A one-worker server around [`test_state`], driven by calling
    /// [`submit`] directly.
    fn test_shared() -> Shared {
        let state = Arc::new(test_state());
        let pool = {
            let state = Arc::clone(&state);
            ShardedPool::new(1, move |worker, job: QueuedJob| {
                run_job(&state, worker, job)
            })
        };
        Shared {
            state,
            pool,
            next_id: AtomicU64::new(1),
            handle: ServerHandle {
                addr: std::net::SocketAddr::from(([127, 0, 0, 1], 9)),
                stopping: Arc::new(AtomicBool::new(false)),
            },
        }
    }

    fn post(shared: &Shared, body: &str) -> (u16, String) {
        let request = Request {
            method: "POST".to_owned(),
            path: "/jobs".to_owned(),
            body: body.as_bytes().to_vec(),
            client: Some("test".to_owned()),
        };
        submit(&request, shared)
    }

    #[test]
    fn named_and_body_identities_share_the_key_memo() {
        // The first resolution hashes and memoizes; the second takes the
        // memo fast path (no rebuilt problem).
        let state = test_state();
        let config = SynthesisConfig::default();
        let first = resolve_key(
            Submission::Named {
                canonical: "PCR",
                config: config.clone(),
            },
            &state,
        )
        .unwrap();
        assert!(first.problem.is_some());
        let second = resolve_key(
            Submission::Named {
                canonical: "PCR",
                config,
            },
            &state,
        )
        .unwrap();
        assert_eq!(second.key_hex, first.key_hex);
        assert!(second.problem.is_none(), "memo fast path must hit");
        // Body identities live in the same memo.
        let body = MemoIdentity::Body(state.body_digest(br#"{"assay": "PCR"}"#));
        assert!(state.key_memo.get(&body).is_none());
        state.memoize(body, first.key, &first.key_hex, &first.assay);
        let known = state.key_memo.get(&body).expect("memoized");
        assert_eq!(
            (known.key, &known.hex, &known.assay),
            (first.key, &first.key_hex, &first.assay)
        );
        assert_eq!(state.key_memo.stats().entries, 2);
    }

    #[test]
    fn body_digests_are_keyed_per_process_and_tell_bodies_apart() {
        let (one, other) = (test_state(), test_state());
        let body = br#"{"assay": "PCR"}"#;
        assert_eq!(one.body_digest(body), one.body_digest(body));
        assert_ne!(
            one.body_digest(body),
            one.body_digest(br#"{"assay":"PCR"}"#)
        );
        assert_ne!(one.body_digest(b""), one.body_digest(b" "));
        assert_ne!(
            one.body_digest(body),
            other.body_digest(body),
            "each server draws its own digest keys"
        );
    }

    #[test]
    fn bad_bodies_are_never_memoized() {
        let shared = test_shared();
        for body in [
            "this is not json",
            r#"{"assay": "NOPE"}"#,
            r#"{"problem": {"wrong": "shape"}}"#,
            r#"{"surprise": 1}"#,
        ] {
            let first = post(&shared, body);
            assert_eq!(first.0, 400, "{body}: {}", first.1);
            assert_eq!(post(&shared, body), first, "{body}");
        }
        assert_eq!(shared.state.key_memo.stats().entries, 0);
        assert_eq!(shared.state.body_memo_hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn the_key_memo_is_capped() {
        let state = test_state();
        for i in 0..KEY_MEMO_CAP as u128 + 1 {
            state.memoize(MemoIdentity::Body(i), 0, "0", "a");
        }
        assert!(state.key_memo.stats().entries <= KEY_MEMO_CAP);
        assert!(state
            .key_memo
            .get(&MemoIdentity::Body(KEY_MEMO_CAP as u128))
            .is_some());
    }

    #[test]
    fn named_problem_reports_unresolvable_names_instead_of_panicking() {
        let err = named_problem("NOT-A-REAL-ASSAY", &SynthesisConfig::default()).unwrap_err();
        assert!(err.contains("NOT-A-REAL-ASSAY"), "{err}");
    }
}
