//! End-to-end tests of the job service over real loopback sockets.

use std::net::SocketAddr;
use std::time::Duration;

use biochip_server::{client, ServeOptions, Server, ServerHandle};

/// RA1K can take a while in debug builds; be generous.
const JOB_TIMEOUT: Duration = Duration::from_secs(300);

fn start_server(workers: usize) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        cache_capacity: 8,
        ..ServeOptions::default()
    })
    .expect("loopback bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

fn wait_done(addr: SocketAddr, submission: &biochip_json::Json) -> biochip_json::Json {
    let id = client::job_id(submission).unwrap();
    let status = client::wait_for_job(addr, id, JOB_TIMEOUT).unwrap();
    assert_eq!(
        status.get("status").unwrap().expect_str().unwrap(),
        "done",
        "{}",
        status.to_compact()
    );
    status
}

fn result_body(addr: SocketAddr, id: u64) -> String {
    let (status, body) = client::get(addr, &format!("/results/{id}")).unwrap();
    assert_eq!(status, 200, "{body}");
    body
}

#[test]
fn ra1k_resubmission_is_a_cache_hit_with_an_identical_report() {
    let (addr, handle, join) = start_server(2);

    // Cold: the full pipeline runs.
    let first = client::submit(addr, r#"{"assay": "RA1K"}"#).unwrap();
    assert_eq!(
        first.get("cached").unwrap(),
        &biochip_json::Json::Bool(false)
    );
    let first = wait_done(addr, &first);
    let first_id = client::job_id(&first).unwrap();

    // Warm: same submission, answered from the content-addressed cache at
    // submission time (status done immediately, cached flag set).
    let second = client::submit(addr, r#"{"assay": "RA1K"}"#).unwrap();
    assert_eq!(
        second.get("status").unwrap().expect_str().unwrap(),
        "done",
        "a warm submission is done at acceptance: {}",
        second.to_compact()
    );
    assert_eq!(
        second.get("cached").unwrap(),
        &biochip_json::Json::Bool(true)
    );
    let second_id = client::job_id(&second).unwrap();
    assert_ne!(first_id, second_id);

    // Identical result documents, byte for byte.
    assert_eq!(result_body(addr, first_id), result_body(addr, second_id));

    // And the counters saw exactly one miss and one hit.
    let (status, stats) = client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let stats = biochip_json::parse(&stats).unwrap();
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("hits").unwrap().expect_number().unwrap(), 1.0);
    assert_eq!(cache.get("misses").unwrap().expect_number().unwrap(), 1.0);
    assert_eq!(
        stats.get("jobs_cached").unwrap().expect_number().unwrap(),
        1.0
    );

    // The stats latency block has percentiles for one cold and one warm job.
    let jobs = stats.get("latency").unwrap().get("jobs").unwrap();
    for mode in ["cold", "warm"] {
        let block = jobs.get(mode).unwrap();
        assert_eq!(
            block.get("count").unwrap().expect_number().unwrap(),
            1.0,
            "{mode}"
        );
        assert!(block.get("p99_seconds").is_some(), "{mode}");
    }

    // The cold job's status carries the per-stage timeline; the warm job
    // never entered the pipeline, so its status has none.
    let (status, cold_status) = client::get(addr, &format!("/jobs/{first_id}")).unwrap();
    assert_eq!(status, 200);
    let cold_status = biochip_json::parse(&cold_status).unwrap();
    let timeline = cold_status.get("timeline").unwrap();
    for stage in ["scheduling", "architecture", "layout", "simulation"] {
        let seconds = timeline.get(stage).unwrap().expect_number().unwrap();
        assert!(seconds >= 0.0, "{stage}: {seconds}");
    }
    let (_, warm_status) = client::get(addr, &format!("/jobs/{second_id}")).unwrap();
    let warm_status = biochip_json::parse(&warm_status).unwrap();
    assert!(warm_status.get("timeline").is_none());

    // A Prometheus scrape sees the same story: one cache miss, one hit,
    // one cold and one warm job observation, and request-latency series
    // for the endpoints this test exercised.
    let (status, metrics) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("biochip_cache_hits_total 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("biochip_cache_misses_total 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("biochip_job_seconds_count{mode=\"cold\"} 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("biochip_job_seconds_count{mode=\"warm\"} 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("biochip_job_seconds_bucket{mode=\"cold\",le=\"+Inf\"} 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("biochip_requests_total{endpoint=\"submit\",code=\"201\"} 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("biochip_requests_total{endpoint=\"submit\",code=\"202\"} 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("biochip_request_seconds_bucket{endpoint=\"submit\",le=\"+Inf\"} 2\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("biochip_pool_queue_depth 0\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("biochip_pool_busy_seconds_total{worker=\"0\"}"),
        "{metrics}"
    );

    handle.stop();
    join.join().unwrap();
}

#[test]
fn malformed_submissions_degrade_to_errors_and_the_server_keeps_serving() {
    let (addr, handle, join) = start_server(1);

    // A parade of bad requests, each answered with a structured error.
    for (body, expect_status) in [
        ("this is not json", 400),
        ("[1, 2, 3]", 400),
        (r#"{"assay": "NOPE"}"#, 400),
        (r#"{"assay": "PCR", "problem": {}}"#, 400),
        (r#"{"problem": {"wrong": "shape"}}"#, 400),
        (r#"{"config": {"mixers": "three"}, "assay": "PCR"}"#, 400),
        (r#"{"surprise": 1}"#, 400),
        (r#"{"schema": "biochip-serve/v99", "assay": "PCR"}"#, 400),
        ("{}", 400),
    ] {
        let (status, answer) = client::post_json(addr, "/jobs", body).unwrap();
        assert_eq!(status, expect_status, "{body} → {answer}");
        let answer = biochip_json::parse(&answer).unwrap();
        assert_eq!(
            answer.get("schema").unwrap().expect_str().unwrap(),
            "biochip-error/v1",
            "{body}"
        );
        assert!(answer.get("error").is_some(), "{body}");
    }

    // Unknown paths and wrong methods are structured errors too.
    assert_eq!(client::get(addr, "/nope").unwrap().0, 404);
    assert_eq!(client::get(addr, "/jobs/abc").unwrap().0, 400);
    assert_eq!(client::get(addr, "/jobs/999").unwrap().0, 404);
    assert_eq!(
        client::request(addr, "DELETE", "/stats", None).unwrap().0,
        405
    );

    // A semantically impossible but well-formed job fails as a job, not as
    // the server: IVD needs a detector.
    let doomed_config = biochip_synth::SynthesisConfig::default().with_detectors(0);
    let doomed_body = format!(
        r#"{{"assay": "IVD", "config": {}}}"#,
        biochip_json::to_string(&doomed_config)
    );
    let accepted = client::submit(addr, &doomed_body).unwrap();
    let id = client::job_id(&accepted).unwrap();
    let terminal = client::wait_for_job(addr, id, JOB_TIMEOUT).unwrap();
    assert_eq!(
        terminal.get("status").unwrap().expect_str().unwrap(),
        "failed",
        "{}",
        terminal.to_compact()
    );
    assert!(terminal.get("error").is_some());
    let (status, _) = client::get(addr, &format!("/results/{id}")).unwrap();
    assert_eq!(status, 409);

    // After all of that, a healthy job still synthesizes end to end.
    let ok = client::submit(addr, r#"{"assay": "PCR"}"#).unwrap();
    let done = wait_done(addr, &ok);
    assert!(done.get("report").is_some());

    handle.stop();
    join.join().unwrap();
}

#[test]
fn equivalent_submissions_share_one_cache_entry() {
    let (addr, handle, join) = start_server(2);

    let first = client::submit(addr, r#"{"assay": "PCR"}"#).unwrap();
    wait_done(addr, &first);

    // Same submission with reordered keys, an explicit schema and noise
    // whitespace: the canonical content key must match.
    let second = client::submit(
        addr,
        "{ \"schema\": \"biochip-serve/v1\",   \"assay\":\"pcr\" }",
    )
    .unwrap();
    assert_eq!(
        second.get("cached").unwrap(),
        &biochip_json::Json::Bool(true),
        "alias + formatting still hits: {}",
        second.to_compact()
    );
    assert_eq!(
        first.get("key").unwrap().expect_str().unwrap(),
        second.get("key").unwrap().expect_str().unwrap()
    );

    handle.stop();
    join.join().unwrap();
}

/// A problem-document submission of a library assay under the storage-aware
/// scheduler (fast on small assays), as compact text.
fn problem_body(assay: &str) -> String {
    let config = biochip_synth::SynthesisConfig {
        scheduler: biochip_synth::SchedulerChoice::StorageAware,
        ..biochip_synth::SynthesisConfig::default()
    };
    let graph = biochip_synth::assay::library::by_name(assay).unwrap();
    let problem = biochip_synth::SynthesisFlow::new(config.clone()).problem_for(graph);
    format!(
        r#"{{"problem": {}, "config": {}}}"#,
        biochip_json::to_string(&problem),
        biochip_json::to_string(&config)
    )
}

/// One number of the `/stats` document.
fn stat(addr: SocketAddr, path: &str) -> f64 {
    let (status, body) = client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200, "{body}");
    let stats = biochip_json::parse(&body).unwrap();
    path.split('.')
        .try_fold(&stats, |doc, key| doc.get(key))
        .unwrap_or_else(|| panic!("no `{path}` in /stats: {body}"))
        .expect_number()
        .unwrap()
}

#[test]
fn byte_identical_resubmissions_answer_from_the_body_memo() {
    let (addr, handle, join) = start_server(1);
    let body = problem_body("PCR");
    let first = client::submit(addr, &body).unwrap();
    wait_done(addr, &first);
    let key = first.get("key").unwrap().expect_str().unwrap();
    assert_eq!(stat(addr, "body_memo_hits"), 0.0);

    // The same bytes again: a 201 resolved from the memo.
    let (status, answer) = client::post_json(addr, "/jobs", &body).unwrap();
    assert_eq!(status, 201, "{answer}");
    let answer = biochip_json::parse(&answer).unwrap();
    assert_eq!(answer.get("key").unwrap().expect_str().unwrap(), key);
    assert_eq!(stat(addr, "body_memo_hits"), 1.0);
    let (_, metrics) = client::get(addr, "/metrics").unwrap();
    assert!(
        metrics.contains("biochip_body_memo_hits_total 1\n"),
        "{metrics}"
    );

    // An equal document in other bytes misses the memo but still hits the
    // result cache under the same content key.
    let reformatted = biochip_json::parse(&body).unwrap().to_pretty();
    assert_ne!(reformatted, body);
    let (status, answer) = client::post_json(addr, "/jobs", &reformatted).unwrap();
    assert_eq!(status, 201, "{answer}");
    let answer = biochip_json::parse(&answer).unwrap();
    assert_eq!(answer.get("key").unwrap().expect_str().unwrap(), key);
    assert_eq!(answer.get("cached"), Some(&biochip_json::Json::Bool(true)));
    assert_eq!(stat(addr, "body_memo_hits"), 1.0);
    assert_eq!(stat(addr, "jobs_cached"), 2.0);

    handle.stop();
    join.join().unwrap();
}

#[test]
fn a_memo_hit_whose_result_is_gone_runs_cold_under_the_same_key() {
    // One memory-cache entry and no disk store: a second assay evicts the
    // first one's result.
    let server = Server::bind(&ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        cache_capacity: 1,
        ..ServeOptions::default()
    })
    .expect("loopback bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run());

    let body = problem_body("PCR");
    let first = client::submit(addr, &body).unwrap();
    wait_done(addr, &first);
    wait_done(addr, &client::submit(addr, &problem_body("IVD")).unwrap());
    assert_eq!(stat(addr, "cache.evictions"), 1.0);

    let again = client::submit(addr, &body).unwrap();
    assert_eq!(
        again.get("cached"),
        Some(&biochip_json::Json::Bool(false)),
        "{}",
        again.to_compact()
    );
    assert_eq!(again.get("key"), first.get("key"));
    wait_done(addr, &again);
    assert_eq!(stat(addr, "body_memo_hits"), 0.0);
    // One counted miss per cold submission, however it was resolved.
    assert_eq!(stat(addr, "cache.misses"), 3.0);

    handle.stop();
    join.join().unwrap();
}

#[test]
fn config_edits_reuse_cached_stages_and_warm_start() {
    let (addr, handle, join) = start_server(1);

    // Base: a cold RA30 run primes the per-stage caches and the warm hint.
    let base = client::submit(addr, r#"{"assay": "RA30"}"#).unwrap();
    wait_done(addr, &base);

    // Layout-only edit: a different full key (no result-cache hit), but the
    // schedule and the architecture are both served from the stage caches.
    let mut layout_config = biochip_synth::SynthesisConfig::default();
    layout_config.layout.channel_pitch += 1;
    let body = format!(
        r#"{{"assay": "RA30", "config": {}}}"#,
        biochip_json::to_string(&layout_config)
    );
    let layout_job = client::submit(addr, &body).unwrap();
    assert_eq!(
        layout_job.get("cached").unwrap(),
        &biochip_json::Json::Bool(false),
        "a layout edit is a new full key: {}",
        layout_job.to_compact()
    );
    wait_done(addr, &layout_job);

    // Schedule-slice edit (the ILP limit is inert above the heuristic
    // threshold): the schedule recomputes to the same result and the warm
    // hint replays the entire architecture.
    let mut sched_config = biochip_synth::SynthesisConfig::default();
    sched_config.ilp_time_limit += Duration::from_secs(1);
    let body = format!(
        r#"{{"assay": "RA30", "config": {}}}"#,
        biochip_json::to_string(&sched_config)
    );
    let sched_job = client::submit(addr, &body).unwrap();
    wait_done(addr, &sched_job);

    // The per-stage counters tell the story: the layout edit hit both stage
    // caches; the schedule edit missed both by key but warm-started.
    let (status, stats) = client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let stats = biochip_json::parse(&stats).unwrap();
    let stage = stats.get("stage_cache").unwrap();
    for (stage_name, hits, misses) in [("schedule", 1.0, 2.0), ("architecture", 1.0, 2.0)] {
        let block = stage.get(stage_name).unwrap();
        assert_eq!(
            block.get("hits").unwrap().expect_number().unwrap(),
            hits,
            "{stage_name}: {}",
            stats.to_compact()
        );
        assert_eq!(
            block.get("misses").unwrap().expect_number().unwrap(),
            misses,
            "{stage_name}: {}",
            stats.to_compact()
        );
    }
    let warm = stage.get("warm").unwrap();
    assert_eq!(warm.get("hits").unwrap().expect_number().unwrap(), 1.0);
    assert_eq!(
        stats
            .get("jobs_warm_started")
            .unwrap()
            .expect_number()
            .unwrap(),
        1.0,
        "{}",
        stats.to_compact()
    );
    assert_eq!(
        stats
            .get("warm_placements_reused")
            .unwrap()
            .expect_number()
            .unwrap(),
        1.0
    );
    assert!(
        stats
            .get("warm_tasks_replayed")
            .unwrap()
            .expect_number()
            .unwrap()
            >= 1.0
    );

    // The Prometheus scrape carries the same per-stage series.
    let (status, metrics) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("biochip_stage_cache_hits_total{stage=\"schedule\"} 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("biochip_stage_cache_hits_total{stage=\"architecture\"} 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("biochip_stage_cache_misses_total{stage=\"schedule\"} 2\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("biochip_warm_hints_total{result=\"hit\"} 1\n"),
        "{metrics}"
    );
    assert!(metrics.contains("biochip_warm_jobs_total 1\n"), "{metrics}");
    assert!(
        metrics.contains("biochip_warm_placements_reused_total 1\n"),
        "{metrics}"
    );

    handle.stop();
    join.join().unwrap();
}

#[test]
fn jobs_on_one_architecture_share_one_oracle_build() {
    let (addr, handle, join) = start_server(1);

    // Base: a cold RA30 run synthesizes and, in doing so, builds one routing
    // oracle per (grid, placement) attempt into the shared cache.
    let base = client::submit(addr, r#"{"assay": "RA30"}"#).unwrap();
    wait_done(addr, &base);

    let oracle_stats = |addr: SocketAddr| {
        let (status, stats) = client::get(addr, "/stats").unwrap();
        assert_eq!(status, 200);
        let stats = biochip_json::parse(&stats).unwrap();
        let block = stats
            .get("stage_cache")
            .unwrap()
            .get("oracle")
            .unwrap()
            .clone();
        let field = |name: &str| block.get(name).unwrap().expect_number().unwrap();
        (field("builds"), field("hits"), field("entries"))
    };
    let (builds, hits, entries) = oracle_stats(addr);
    assert!(builds >= 1.0, "the cold run must build an oracle: {builds}");
    assert_eq!(entries, builds, "every build stays cached");

    // Routing-slice edit: the route stage key changes (so the architecture
    // stage cache cannot answer and the synthesizer runs again), but the
    // placement key — the oracle scope — is untouched. Widening the window
    // candidate bound never changes which (grid, placement) pairs are
    // visited, so the rerun is served entirely from the oracle cache.
    let mut routing_config = biochip_synth::SynthesisConfig::default();
    routing_config.synthesis.routing.max_window_candidates += 1;
    let body = format!(
        r#"{{"assay": "RA30", "config": {}}}"#,
        biochip_json::to_string(&routing_config)
    );
    let routing_job = client::submit(addr, &body).unwrap();
    assert_eq!(
        routing_job.get("cached").unwrap(),
        &biochip_json::Json::Bool(false),
        "a routing edit is a new full key: {}",
        routing_job.to_compact()
    );
    wait_done(addr, &routing_job);

    let (builds_after, hits_after, entries_after) = oracle_stats(addr);
    assert_eq!(
        builds_after, builds,
        "the second job must not build a new oracle"
    );
    assert_eq!(entries_after, entries);
    assert!(
        hits_after > hits,
        "the second job must hit the shared oracle cache: {hits} -> {hits_after}"
    );

    // The Prometheus scrape carries the shared-build story too.
    let (status, metrics) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains(&format!("biochip_oracle_builds_total {builds_after}\n")),
        "{metrics}"
    );
    assert!(
        metrics.contains(&format!("biochip_oracle_hits_total {hits_after}\n")),
        "{metrics}"
    );
    assert!(
        metrics.contains(&format!("biochip_oracle_entries {entries_after}\n")),
        "{metrics}"
    );

    handle.stop();
    join.join().unwrap();
}

#[test]
fn jobs_report_live_stages_and_can_be_cancelled() {
    let (addr, handle, join) = start_server(1);

    // Occupy the single worker with a genuinely slow job (RA1K synthesizes
    // for ~0.1 s release / seconds debug), then queue a victim behind it
    // and cancel the victim before the worker can pick it up.
    let slow = client::submit(addr, r#"{"assay": "RA1K"}"#).unwrap();
    let victim = client::submit(addr, r#"{"assay": "RA70"}"#).unwrap();
    let victim_id = client::job_id(&victim).unwrap();
    let (status, body) =
        client::request(addr, "DELETE", &format!("/jobs/{victim_id}"), None).unwrap();
    // The cancel races the worker by design; with the slow blocker the 202
    // path is near-universal, but on a loaded machine the victim may
    // already be terminal (409). Only an accepted cancel makes the
    // "never flips to done afterwards" guarantee checkable.
    let mut cancelled_while_queued = false;
    if status == 202 {
        let victim_final = client::wait_for_job(addr, victim_id, JOB_TIMEOUT).unwrap();
        cancelled_while_queued = victim_final
            .get("error")
            .and_then(|e| e.expect_str().ok())
            .is_some_and(|e| e.contains("cancelled while queued"));
        assert_eq!(
            victim_final.get("status").unwrap().expect_str().unwrap(),
            "cancelled",
            "an acknowledged cancel must stick: {}",
            victim_final.to_compact()
        );
        let (code, _) = client::get(addr, &format!("/results/{victim_id}")).unwrap();
        assert_eq!(code, 409, "a cancelled job has no result");
    } else {
        assert_eq!(status, 409, "{body}");
        eprintln!("cancel race lost (victim already terminal); skipping the cancelled-path checks");
    }

    // The slow job is unaffected either way.
    let slow_final = wait_done(addr, &slow);
    assert!(slow_final.get("report").is_some());

    // A job cancelled before it ran never synthesized, so only the slow
    // job is timed in the cold histogram.
    if cancelled_while_queued {
        let (_, metrics) = client::get(addr, "/metrics").unwrap();
        assert!(
            metrics.contains("biochip_job_seconds_count{mode=\"cold\"} 1\n"),
            "{metrics}"
        );
    }

    // Cancelling a finished job is a 409.
    let slow_id = client::job_id(&slow_final).unwrap();
    let (status, _) = client::request(addr, "DELETE", &format!("/jobs/{slow_id}"), None).unwrap();
    assert_eq!(status, 409);

    handle.stop();
    join.join().unwrap();
}

/// Every `/metrics` series that also has a `/stats` field, as
/// `(series, dotted /stats path)`.
const SHARED_SERIES: &[(&str, &str)] = &[
    ("biochip_cache_hits_total", "cache.hits"),
    ("biochip_body_memo_hits_total", "body_memo_hits"),
    ("biochip_cache_misses_total", "cache.misses"),
    ("biochip_cache_evictions_total", "cache.evictions"),
    ("biochip_cache_entries", "cache.entries"),
    ("biochip_cache_capacity", "cache.capacity"),
    (
        "biochip_stage_cache_hits_total{stage=\"schedule\"}",
        "stage_cache.schedule.hits",
    ),
    (
        "biochip_stage_cache_hits_total{stage=\"architecture\"}",
        "stage_cache.architecture.hits",
    ),
    (
        "biochip_stage_cache_misses_total{stage=\"schedule\"}",
        "stage_cache.schedule.misses",
    ),
    (
        "biochip_stage_cache_misses_total{stage=\"architecture\"}",
        "stage_cache.architecture.misses",
    ),
    (
        "biochip_stage_cache_entries{stage=\"schedule\"}",
        "stage_cache.schedule.entries",
    ),
    (
        "biochip_stage_cache_entries{stage=\"architecture\"}",
        "stage_cache.architecture.entries",
    ),
    (
        "biochip_warm_hints_total{result=\"hit\"}",
        "stage_cache.warm.hits",
    ),
    (
        "biochip_warm_hints_total{result=\"miss\"}",
        "stage_cache.warm.misses",
    ),
    ("biochip_oracle_builds_total", "stage_cache.oracle.builds"),
    ("biochip_oracle_hits_total", "stage_cache.oracle.hits"),
    ("biochip_oracle_entries", "stage_cache.oracle.entries"),
    ("biochip_warm_jobs_total", "jobs_warm_started"),
    ("biochip_warm_tasks_replayed_total", "warm_tasks_replayed"),
    (
        "biochip_warm_placements_reused_total",
        "warm_placements_reused",
    ),
    ("biochip_jobs_accepted_total", "jobs_accepted"),
    ("biochip_pool_workers", "pool.workers"),
    ("biochip_pool_queue_depth", "pool.queued"),
    ("biochip_pool_jobs_completed_total", "pool.completed"),
    ("biochip_pool_jobs_panicked_total", "pool.panicked"),
    ("biochip_store_hits_total", "store.hits"),
    ("biochip_store_misses_total", "store.misses"),
    ("biochip_store_corrupt_total", "store.corrupt"),
    ("biochip_store_evictions_total", "store.evictions"),
    ("biochip_store_write_errors_total", "store.write_errors"),
    ("biochip_store_entries", "store.entries"),
    ("biochip_store_bytes", "store.bytes"),
    ("biochip_journal_appends_total", "journal.appends"),
    (
        "biochip_journal_append_errors_total",
        "journal.append_errors",
    ),
    ("biochip_journal_replayed_total", "journal.replayed"),
    (
        "biochip_jobs_recovered_total{outcome=\"recovered\"}",
        "journal.recovered",
    ),
    (
        "biochip_jobs_recovered_total{outcome=\"requeued\"}",
        "journal.requeued",
    ),
    (
        "biochip_jobs_recovered_total{outcome=\"lost\"}",
        "journal.lost",
    ),
    ("biochip_jobs{state=\"queued\"}", "jobs_queued"),
    ("biochip_jobs{state=\"running\"}", "jobs_running"),
    ("biochip_jobs{state=\"done\"}", "jobs_done"),
    ("biochip_jobs{state=\"failed\"}", "jobs_failed"),
    ("biochip_jobs{state=\"cancelled\"}", "jobs_cancelled"),
    (
        "biochip_admission_rejected_total{reason=\"queue_full\"}",
        "admission.rejected_queue_full",
    ),
    (
        "biochip_admission_rejected_total{reason=\"client_quota\"}",
        "admission.rejected_client_quota",
    ),
    (
        "biochip_admission_rejected_total{reason=\"draining\"}",
        "admission.rejected_draining",
    ),
];

/// The [`SHARED_SERIES`] values of one `/stats` document, in table order.
fn shared_stats(addr: SocketAddr) -> Vec<f64> {
    let (status, body) = client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200, "{body}");
    let stats = biochip_json::parse(&body).unwrap();
    SHARED_SERIES
        .iter()
        .map(|(_, path)| {
            path.split('.')
                .try_fold(&stats, |doc, key| doc.get(key))
                .unwrap_or_else(|| panic!("no `{path}` in /stats: {body}"))
                .expect_number()
                .unwrap()
        })
        .collect()
}

#[test]
fn stats_and_metrics_agree_on_every_shared_series() {
    let data_dir = std::env::temp_dir().join(format!("biochip-e2e-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let server = Server::bind(&ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        cache_capacity: 8,
        data_dir: Some(data_dir.display().to_string()),
        ..ServeOptions::default()
    })
    .expect("loopback bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run());

    // One cold synthesis, then the same submission answered from the cache.
    wait_done(addr, &client::submit(addr, r#"{"assay": "PCR"}"#).unwrap());
    let hit = client::submit(addr, r#"{"assay": "PCR"}"#).unwrap();
    assert_eq!(hit.get("cached").unwrap(), &biochip_json::Json::Bool(true));

    // A worker finishes its bookkeeping (pool and journal counters) just
    // after the job turns `done`: compare a scrape taken between two equal
    // `/stats` snapshots.
    let (stats, metrics) = (0..100)
        .find_map(|_| {
            let before = shared_stats(addr);
            let (status, metrics) = client::get(addr, "/metrics").unwrap();
            assert_eq!(status, 200);
            let after = shared_stats(addr);
            if before == after {
                Some((before, metrics))
            } else {
                std::thread::sleep(Duration::from_millis(20));
                None
            }
        })
        .expect("the counters settle once both jobs are done");

    let series: std::collections::HashMap<&str, f64> = metrics
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.rsplit_once(' '))
        .map(|(name, value)| (name, value.parse().unwrap()))
        .collect();
    for ((name, path), value) in SHARED_SERIES.iter().zip(&stats) {
        assert_eq!(
            series.get(name),
            Some(value),
            "/metrics `{name}` vs /stats `{path}`"
        );
    }
    // Not vacuous: the run moved the counters both renderings report.
    let value = |name: &str| series[name];
    assert_eq!(value("biochip_cache_hits_total"), 1.0);
    assert_eq!(value("biochip_cache_misses_total"), 1.0);
    assert_eq!(value("biochip_body_memo_hits_total"), 1.0);
    assert_eq!(value("biochip_jobs{state=\"done\"}"), 2.0);
    assert_eq!(value("biochip_store_entries"), 1.0);
    assert!(value("biochip_journal_appends_total") > 0.0);
    assert_eq!(
        value("biochip_stage_cache_entries{stage=\"schedule\"}"),
        1.0
    );
    assert_eq!(value("biochip_warm_hints_total{result=\"miss\"}"), 1.0);

    handle.stop();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&data_dir);
}
