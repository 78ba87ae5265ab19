//! The `serve_mix` workload: an in-process job service under a closed loop
//! of clients.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::rc::Rc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use biochip_json::{Json, Serialize};
use biochip_server::{client, ServeOptions, Server, ServerHandle};
use biochip_synth::assay::random::{generate, RandomAssayConfig};
use biochip_synth::{SynthesisFlow, SynthesisOutcome, SynthesisReport};
use biochip_telemetry as telemetry;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::common::{fnv, fold, geomean, median, EndToEnd, Exact, Run, Tracer, OUT_DIR};
use crate::inproc::cli_config;

/// Clients in the closed loop; each waits for its answer before sending
/// the next request. One client keeps the program's demand near one core:
/// with two, two cold jobs, two clients and their handlers oversubscribe a
/// two-core host, and latencies measure the queue for the cores.
pub const CLIENTS: usize = 1;
/// Fresh assays are drawn from this many operations (inclusive).
pub const FRESH_OPS: (usize, usize) = (300, 1_000);
/// A fresh assay takes a graph seed below this bound. Every
/// `RandomAssayConfig::scaled(ops, graph_seed)` at the fresh sizes was run
/// at `cli_config()`, and each gave a chip except the ones in
/// `FRESH_SCREENED_OUT`, so the workload holds no request that fails.
const FRESH_GRAPH_SEEDS: u64 = 32;
/// (ops, graph seed) pairs left out of the fresh stream: the flow fails
/// them (1000 ops, graph seed 4: "architecture consistency check failed:
/// segment e1146 is used by fetch of sample 462 ... while caching sample
/// 452").
const FRESH_SCREENED_OUT: &[(usize, u64)] = &[(1_000, 4)];
/// Every run completes at least this many requests per client; the exact
/// half of the run is taken over them. The traced and untraced comparison
/// runs send exactly this many.
pub const EXACT_REQUESTS: usize = 300;
/// Fixed interval between status polls of an accepted job.
const POLL: Duration = Duration::from_millis(5);
/// A job not terminal after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// A running in-process server with its own data directory.
pub struct Running {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<()>,
    data_dir: PathBuf,
}

impl Running {
    pub fn start(tag: &str) -> Result<Running, String> {
        let data_dir = PathBuf::from(OUT_DIR).join(format!("serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        let server = Server::bind(&ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            workers: std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get),
            threads_per_job: 1,
            data_dir: Some(data_dir.to_string_lossy().into_owned()),
            ..ServeOptions::default()
        })
        .map_err(|e| format!("cannot start the server: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.handle().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Running {
            addr,
            handle,
            thread,
            data_dir,
        })
    }

    /// Stops the accept loop, waits for the server (and its worker pool)
    /// to shut down and removes the data directory.
    pub fn stop(self) -> Result<(), String> {
        self.handle.stop();
        self.thread
            .join()
            .map_err(|_| "the server thread panicked".to_owned())?;
        let _ = std::fs::remove_dir_all(&self.data_dir);
        Ok(())
    }
}

/// How to rebuild one submission document: the assay, its unique name and
/// the config edits applied to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Recipe {
    ops: usize,
    graph_seed: u64,
    client: usize,
    serial: u64,
    /// Layout-only edits: added to `layout.channel_pitch`.
    pitch: u64,
    /// Scheduler-irrelevant edits: seconds added to `ilp_time_limit`.
    ilp: u64,
}

impl Recipe {
    fn name(&self, seed: u64) -> String {
        format!("mix{seed}c{}n{}", self.client, self.serial)
    }

    /// The submission: a problem document renamed to the recipe's unique
    /// name, and the edited config.
    fn document(&self, seed: u64) -> Json {
        let mut config = cli_config();
        config.layout.channel_pitch += self.pitch;
        config.ilp_time_limit += Duration::from_secs(self.ilp);
        let graph = generate(&RandomAssayConfig::scaled(self.ops, self.graph_seed));
        let mut problem = SynthesisFlow::new(config.clone())
            .problem_for(graph)
            .to_json();
        set_graph_name(&mut problem, &self.name(seed));
        Json::object([("problem", problem), ("config", config.to_json())])
    }
}

fn set_graph_name(problem: &mut Json, name: &str) {
    if let Json::Object(fields) = problem {
        for (key, value) in fields {
            if let (true, Json::Object(graph)) = (key == "graph", value) {
                for (field, v) in graph {
                    if field == "name" {
                        *v = Json::String(name.to_owned());
                    }
                }
            }
        }
    }
}

/// The kind of a request in a client's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// A new assay: cold synthesis and a store write.
    Fresh,
    /// One of the client's own earlier requests, resent unchanged.
    Repeat,
    /// One of the client's own earlier requests with its config edited.
    Edit,
}

/// One block of a client's stream: 20 % fresh, 60 % repeats, 20 % edits.
/// Every block holds exactly this mix in a seeded order, so every run and
/// every seed sends the same share of each class.
const BLOCK: [Class; 10] = [
    Class::Fresh,
    Class::Fresh,
    Class::Repeat,
    Class::Repeat,
    Class::Repeat,
    Class::Repeat,
    Class::Repeat,
    Class::Repeat,
    Class::Edit,
    Class::Edit,
];
/// Fresh assays take this many evenly spaced sizes over `FRESH_OPS`, each
/// once per cycle of fresh requests in a seeded order, so the size mix does
/// not depend on the seed either.
const FRESH_SIZES: usize = 8;

/// One client's seeded stream. Repeats and edits are drawn from the
/// client's whole history, so some answers come from the disk store after
/// leaving the memory cache. Edits alternate between layout-only and
/// scheduler-irrelevant.
struct Stream {
    rng: StdRng,
    client: usize,
    history: Vec<Recipe>,
    block: Vec<Class>,
    sizes: Vec<usize>,
    fresh: u64,
    edits: u64,
}

impl Stream {
    fn new(seed: u64, client: usize) -> Self {
        Stream {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(client as u64 + 1)),
            client,
            history: Vec::new(),
            block: Vec::new(),
            sizes: Vec::new(),
            fresh: 0,
            edits: 0,
        }
    }

    fn next(&mut self) -> (Class, Recipe) {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            self.block.shuffle(&mut self.rng);
        }
        // Nothing answered yet: only a fresh request can be sent.
        let class = if self.history.is_empty() {
            if let Some(i) = self.block.iter().position(|&c| c == Class::Fresh) {
                self.block.remove(i);
            }
            Class::Fresh
        } else {
            self.block.pop().unwrap_or(Class::Fresh)
        };
        if class == Class::Fresh {
            if self.sizes.is_empty() {
                let (lo, hi) = FRESH_OPS;
                self.sizes = (0..FRESH_SIZES)
                    .map(|i| lo + (hi - lo) * i / (FRESH_SIZES - 1))
                    .collect();
                self.sizes.shuffle(&mut self.rng);
            }
            self.fresh += 1;
            let ops = self.sizes.pop().unwrap_or(FRESH_OPS.0);
            let graph_seed = loop {
                let graph_seed = self.rng.gen_range(0..FRESH_GRAPH_SEEDS);
                if !FRESH_SCREENED_OUT.contains(&(ops, graph_seed)) {
                    break graph_seed;
                }
            };
            let recipe = Recipe {
                ops,
                graph_seed,
                client: self.client,
                serial: self.fresh,
                pitch: 0,
                ilp: 0,
            };
            return (class, recipe);
        }
        let base = self.history[self.rng.gen_range(0..self.history.len())];
        if class == Class::Repeat {
            return (class, base);
        }
        self.edits += 1;
        let recipe = if self.edits.is_multiple_of(2) {
            Recipe {
                pitch: base.pitch + 1,
                ..base
            }
        } else {
            Recipe {
                ilp: base.ilp + 1,
                ..base
            }
        };
        (class, recipe)
    }

    /// Only answered requests may be repeated or edited later.
    fn answered(&mut self, recipe: Recipe) {
        if !self.history.contains(&recipe) {
            self.history.push(recipe);
        }
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientRun {
    /// Each request's completion time (seconds since the loop began) and
    /// latency.
    done: Vec<(f64, f64)>,
    /// Latencies of fresh requests, repeats and edits.
    class_latencies: [Vec<f64>; 3],
    attempted: u64,
    failed: u64,
    rejected: u64,
    cold_jobs: u64,
    polls: u64,
    wait_s: f64,
    json_bytes: u64,
    errors: Vec<String>,
    /// Over the first `EXACT_REQUESTS` requests.
    digest: u64,
    exact_failed: u64,
    /// Content key → (execution ratio, valve ratio) of distinct chips in
    /// the exact prefix.
    exact_chips: BTreeMap<String, (f64, f64)>,
    /// Content key → report, for every distinct chip answered.
    reports: BTreeMap<String, SynthesisReport>,
    elapsed: f64,
}

enum Answer {
    /// The `/results` body.
    Done(String),
    /// Counted failure: 4xx/5xx, failed job, I/O error or timeout.
    Failed { rejected: bool, reason: String },
}

fn client_header(client: usize) -> String {
    format!("perfbench-{client}")
}

/// Submits, polls at a fixed interval until terminal, fetches the result.
fn exchange(
    addr: SocketAddr,
    who: &str,
    body: &str,
    tr: &mut Tracer,
    run: &mut ClientRun,
) -> Answer {
    let submitted = tr.scope("server.submit", |_| {
        client::request_with(
            addr,
            "POST",
            "/jobs",
            &[("x-biochip-client", who)],
            Some(body),
        )
    });
    let response = match submitted {
        Ok(response) => response,
        Err(e) => return failed(format!("POST /jobs: {e}")),
    };
    run.json_bytes += (body.len() + response.body.len()) as u64;
    if response.status != 201 && response.status != 202 {
        return Answer::Failed {
            rejected: response.status == 429 || response.status >= 500,
            reason: format!("POST /jobs answered {}", response.status),
        };
    }
    let accepted = tr.scope("json.decode", |_| biochip_json::parse(&response.body));
    let Some(id) = accepted.ok().and_then(|a| client::job_id(&a).ok()) else {
        return failed("POST /jobs answer has no job id".to_owned());
    };
    let mut status = if response.status == 201 {
        "done"
    } else {
        "queued"
    }
    .to_owned();
    if response.status == 202 {
        run.cold_jobs += 1;
        let accepted_at = Instant::now();
        while status == "queued" || status == "running" {
            if accepted_at.elapsed() > JOB_TIMEOUT {
                return failed(format!("job {id} timed out"));
            }
            std::thread::sleep(POLL);
            run.polls += 1;
            let polled = tr.scope("server.status", |_| {
                client::get(addr, &format!("/jobs/{id}"))
            });
            let Ok((200, body)) = polled else {
                return failed(format!("GET /jobs/{id} failed"));
            };
            run.json_bytes += body.len() as u64;
            let parsed = tr.scope("json.decode", |_| biochip_json::parse(&body));
            status = match parsed.ok().and_then(|p| {
                p.get("status")
                    .and_then(|s| s.expect_str().ok())
                    .map(str::to_owned)
            }) {
                Some(s) => s,
                None => return failed(format!("GET /jobs/{id} answer has no status")),
            };
        }
        run.wait_s += accepted_at.elapsed().as_secs_f64();
    }
    if status != "done" {
        return failed(format!("job {id} ended `{status}`"));
    }
    match tr.scope("server.result", |_| {
        client::get(addr, &format!("/results/{id}"))
    }) {
        Ok((200, body)) => {
            run.json_bytes += body.len() as u64;
            Answer::Done(body)
        }
        _ => failed(format!("GET /results/{id} failed")),
    }
}

fn failed(reason: String) -> Answer {
    Answer::Failed {
        rejected: false,
        reason,
    }
}

/// The chip identity of a result document: its report fingerprint (the
/// report without wall times or search effort) and its execution replay.
fn result_identity(body: &str, tr: &mut Tracer) -> Result<(String, SynthesisReport, u64), String> {
    let doc = tr
        .scope("json.decode", |_| biochip_json::parse(body))
        .map_err(|e| e.to_string())?;
    let key: String = doc.field("key").map_err(|e| e.to_string())?;
    let report: SynthesisReport = doc.field("report").map_err(|e| e.to_string())?;
    let execution = doc.get("execution").cloned().unwrap_or(Json::Null);
    let identity = tr.scope("json.hash", |_| {
        biochip_json::canonical_hash(&Json::object([
            ("report", report.fingerprint().to_json()),
            ("execution", execution),
        ]))
    });
    Ok((key, report, identity))
}

fn client_loop(
    addr: SocketAddr,
    seed: u64,
    client: usize,
    min_seconds: Option<f64>,
    tr: &mut Tracer,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut stream = Stream::new(seed, client);
    let mut first_answers: HashMap<Recipe, u64> = HashMap::new();
    // A client keeps the documents it sent, so a repeat resends the same
    // bytes without rebuilding them.
    let mut bodies: HashMap<Recipe, Rc<String>> = HashMap::new();
    let who = client_header(client);
    let started = Instant::now();
    loop {
        let index = run.attempted as usize;
        let done = match min_seconds {
            Some(limit) => index >= EXACT_REQUESTS && started.elapsed().as_secs_f64() >= limit,
            None => index >= EXACT_REQUESTS,
        };
        if done {
            break;
        }
        let (class, recipe) = stream.next();
        tr.set_request((client as u64) << 32 | index as u64);
        let in_prefix = index < EXACT_REQUESTS;
        let answer = tr.scope("request", |tr| {
            let body = match bodies.get(&recipe) {
                Some(body) => Rc::clone(body),
                None => {
                    let document = recipe.document(seed);
                    let body = Rc::new(tr.scope("json.encode", |_| document.to_compact()));
                    bodies.insert(recipe, Rc::clone(&body));
                    body
                }
            };
            let sent = Instant::now();
            let answer = exchange(addr, &who, &body, tr, &mut run);
            let latency = sent.elapsed().as_secs_f64();
            run.done.push((started.elapsed().as_secs_f64(), latency));
            run.class_latencies[class as usize].push(latency);
            answer
        });
        run.attempted += 1;
        let body = match answer {
            Answer::Done(body) => body,
            Answer::Failed { rejected, reason } => {
                eprintln!(
                    "client {client} request {index} (`{}`) counted as failed: {reason}",
                    recipe.name(seed)
                );
                run.failed += 1;
                run.rejected += u64::from(rejected);
                if in_prefix {
                    run.exact_failed += 1;
                    run.digest = fold(run.digest, b"failed");
                }
                continue;
            }
        };
        let checked = tr.scope("check", |tr| result_identity(&body, tr));
        let (key, report, identity) = match checked {
            Ok(parts) => parts,
            Err(e) => {
                run.errors.push(format!(
                    "client {client} request {index}: bad result document: {e}"
                ));
                continue;
            }
        };
        let answer_hash = fnv(body.as_bytes());
        match first_answers.get(&recipe) {
            Some(&first) if first != answer_hash => run.errors.push(format!(
                "client {client} request {index}: repeat of `{}` is not byte-identical to its first answer",
                recipe.name(seed)
            )),
            Some(_) => {}
            None => {
                first_answers.insert(recipe, answer_hash);
            }
        }
        if in_prefix {
            run.digest = fold(run.digest, &identity.to_le_bytes());
            run.exact_chips.insert(
                key.clone(),
                (
                    report.execution_ratio_vs_dedicated(),
                    report.valve_ratio_vs_dedicated(),
                ),
            );
        }
        run.reports.entry(key).or_insert(report);
        stream.answered(recipe);
    }
    run.elapsed = started.elapsed().as_secs_f64();
    run
}

/// The merged outcome of one closed-loop run.
pub struct Mix {
    done: Vec<(f64, f64)>,
    class_latencies: [Vec<f64>; 3],
    pub wall: f64,
    pub attempted: u64,
    pub failed: u64,
    pub exact: Exact,
    pub errors: Vec<String>,
    rejected: u64,
    cold_jobs: u64,
    polls: u64,
    wait_s: f64,
    json_bytes: u64,
    reports: BTreeMap<String, SynthesisReport>,
    stats_before: Json,
    stats_after: Json,
    pub spans: Vec<crate::common::Span>,
}

fn stats(addr: SocketAddr) -> Result<Json, String> {
    let (status, body) = client::get(addr, "/stats").map_err(|e| format!("GET /stats: {e}"))?;
    if status != 200 {
        return Err(format!("GET /stats answered {status}"));
    }
    biochip_json::parse(&body).map_err(|e| format!("GET /stats body: {e}"))
}

/// Runs the clients against `addr` until each has sent `EXACT_REQUESTS`
/// requests and, with `min_seconds`, that much time has passed.
pub fn run_mix(
    addr: SocketAddr,
    seed: u64,
    min_seconds: Option<f64>,
    traced: bool,
    epoch: Instant,
) -> Result<Mix, String> {
    let stats_before = stats(addr)?;
    let runs: Vec<(ClientRun, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut tr = Tracer::new(traced, epoch, client as u64 + 1);
                    let run = client_loop(addr, seed, client, min_seconds, &mut tr);
                    (run, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client thread panicked".to_owned()))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let stats_after = stats(addr)?;
    let mut mix = Mix {
        done: Vec::new(),
        class_latencies: Default::default(),
        wall: 0.0,
        attempted: 0,
        failed: 0,
        exact: Exact::empty(),
        errors: Vec::new(),
        rejected: 0,
        cold_jobs: 0,
        polls: 0,
        wait_s: 0.0,
        json_bytes: 0,
        reports: BTreeMap::new(),
        stats_before,
        stats_after,
        spans: Vec::new(),
    };
    let mut chips = BTreeMap::new();
    for (run, tr) in runs {
        mix.done.extend(run.done);
        for (all, one) in mix.class_latencies.iter_mut().zip(run.class_latencies) {
            all.extend(one);
        }
        mix.wall = mix.wall.max(run.elapsed);
        mix.attempted += run.attempted;
        mix.failed += run.failed;
        mix.errors.extend(run.errors);
        mix.rejected += run.rejected;
        mix.cold_jobs += run.cold_jobs;
        mix.polls += run.polls;
        mix.wait_s += run.wait_s;
        mix.json_bytes += run.json_bytes;
        mix.reports.extend(run.reports);
        mix.exact.digest = fold(mix.exact.digest, &run.digest.to_le_bytes());
        mix.exact.attempted += EXACT_REQUESTS as u64;
        mix.exact.failed += run.exact_failed;
        chips.extend(run.exact_chips);
        mix.spans.extend(tr.spans);
    }
    let (exec, valves): (Vec<f64>, Vec<f64>) = chips.values().copied().unzip();
    mix.exact.exec_ratio = geomean(&exec);
    mix.exact.valve_ratio = geomean(&valves);
    Ok(mix)
}

impl Mix {
    pub fn into_run(self) -> Run {
        Run {
            e2e: EndToEnd::windowed(&self.done, self.wall),
            exact: self.exact,
            attempted: self.attempted,
            failed: self.failed,
            errors: self.errors,
        }
    }

    /// Median latency of each request class, for the per-layer report.
    pub fn class_figures(&self, out: &mut BTreeMap<&'static str, f64>) {
        let names = [
            "server.fresh_latency_p50_s",
            "server.repeat_latency_p50_s",
            "server.edit_latency_p50_s",
        ];
        for (name, latencies) in names.into_iter().zip(&self.class_latencies) {
            out.insert(name, median(latencies));
        }
    }
}

fn number(json: &Json, path: &[&str]) -> f64 {
    let mut value = json;
    for key in path {
        match value.get(key) {
            Some(v) => value = v,
            None => return 0.0,
        }
    }
    value.expect_number().unwrap_or(0.0)
}

fn pool_busy(json: &Json) -> f64 {
    json.get("pool")
        .and_then(|p| p.get("busy_seconds"))
        .and_then(|b| b.expect_array().ok())
        .map_or(0.0, |workers| {
            workers.iter().filter_map(|w| w.expect_number().ok()).sum()
        })
}

/// Per-layer figures of a traced run; `program` holds the program's own
/// telemetry spans recorded meanwhile.
pub fn layer_figures(
    mix: &Mix,
    program: &[telemetry::SpanEvent],
    out: &mut BTreeMap<&'static str, f64>,
) {
    let own = crate::common::self_seconds(&mix.spans);
    let get = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let delta = |path: &[&str]| number(&mix.stats_after, path) - number(&mix.stats_before, path);
    let program_s = |names: &[&str]| -> f64 {
        program
            .iter()
            .filter(|e| e.cat == "pipeline" && names.contains(&e.name))
            .map(|e| match e.kind {
                telemetry::SpanKind::Complete { dur_micros } => dur_micros as f64 / 1e6,
                telemetry::SpanKind::Instant => 0.0,
            })
            .sum()
    };
    let mut arch = [0u64; 6];
    for report in mix.reports.values() {
        let counts = [
            report.grids_tried,
            report.windows_tried,
            report.path_searches,
            report.nodes_expanded,
            report.segments_priced,
            report.postponed_transports,
        ];
        for (sum, count) in arch.iter_mut().zip(counts) {
            *sum += count as u64;
        }
    }
    out.insert("arch.busy_s", program_s(&["place", "route"]));
    out.insert("arch.grids_tried", arch[0] as f64);
    out.insert(
        "arch.useful_attempt_ratio",
        mix.reports.len() as f64 / arch[0].max(1) as f64,
    );
    out.insert("arch.windows_tried", arch[1] as f64);
    out.insert("arch.path_searches", arch[2] as f64);
    out.insert("arch.nodes_expanded", arch[3] as f64);
    out.insert("arch.segments_priced", arch[4] as f64);
    out.insert("arch.postponed_transports", arch[5] as f64);
    out.insert("schedule.busy_s", program_s(&["schedule"]));
    out.insert("layout.busy_s", program_s(&["layout"]));
    out.insert("sim.busy_s", program_s(&["replay"]));
    out.insert("json.encode_s", get("json.encode"));
    out.insert("json.decode_s", get("json.decode"));
    out.insert("json.hash_s", get("json.hash"));
    out.insert("json.bytes", mix.json_bytes as f64);
    out.insert("server.submit_s", get("server.submit"));
    out.insert("server.status_s", get("server.status"));
    out.insert("server.result_s", get("server.result"));
    out.insert("server.wait_s", mix.wait_s);
    out.insert(
        "server.polls_per_job",
        mix.polls as f64 / mix.cold_jobs.max(1) as f64,
    );
    out.insert("server.rejected", mix.rejected as f64);
    let hits = delta(&["cache", "hits"]);
    let misses = delta(&["cache", "misses"]);
    out.insert("synth.cache_hit_ratio", hits / (hits + misses).max(1.0));
    out.insert(
        "synth.stage_hits.schedule",
        delta(&["stage_cache", "schedule", "hits"]),
    );
    out.insert(
        "synth.stage_hits.architecture",
        delta(&["stage_cache", "architecture", "hits"]),
    );
    out.insert("synth.warm_jobs", delta(&["jobs_warm_started"]));
    out.insert("synth.warm_tasks_replayed", delta(&["warm_tasks_replayed"]));
    out.insert("store.hits", delta(&["store", "hits"]));
    out.insert(
        "store.writes",
        delta(&["store", "entries"]) + delta(&["store", "evictions"]),
    );
    out.insert("store.bytes", delta(&["store", "bytes"]));
    out.insert("store.write_errors", delta(&["store", "write_errors"]));
    out.insert("store.journal_appends", delta(&["journal", "appends"]));
    let busy = pool_busy(&mix.stats_after) - pool_busy(&mix.stats_before);
    let workers = number(&mix.stats_after, &["pool", "workers"]).max(1.0);
    out.insert("pool.busy_s", busy);
    out.insert("pool.utilization", busy / (workers * mix.wall.max(1e-9)));
}

/// The set-up submission: RA1K, whose in-process outcome is `expected`.
/// The server's report fingerprint must match it.
pub fn setup_submission(addr: SocketAddr, expected: &SynthesisOutcome) -> Result<(), String> {
    let body = Json::object([
        ("problem", expected.problem.to_json()),
        ("config", cli_config().to_json()),
    ])
    .to_compact();
    let mut tr = Tracer::new(false, Instant::now(), 0);
    let mut run = ClientRun::default();
    let Answer::Done(result) = exchange(addr, &client_header(CLIENTS), &body, &mut tr, &mut run)
    else {
        return Err("set-up submission failed on the server".to_owned());
    };
    let (_, report, _) = result_identity(&result, &mut tr)?;
    if biochip_json::to_string(&report.fingerprint())
        != biochip_json::to_string(&expected.report.fingerprint())
    {
        return Err("server report fingerprint differs from the in-process flow's".to_owned());
    }
    Ok(())
}
