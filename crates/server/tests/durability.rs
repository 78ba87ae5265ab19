//! Durability, recovery and admission-control tests over real sockets.
//!
//! These restart the server in-process against the same data directory:
//! the process survives, but the `Server` (pool, caches, job store) is torn
//! down completely and rebuilt, which exercises exactly the same journal
//! replay and store scan paths as a process restart. The CLI crash test
//! (`crates/cli/tests/serve_crash.rs`) covers the literal-SIGKILL case.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

use biochip_json::Json;
use biochip_server::{client, ServeOptions, Server, ServerHandle};

/// RA1K can take a while in debug builds; be generous.
const JOB_TIMEOUT: Duration = Duration::from_secs(300);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "biochip-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn start_server(options: ServeOptions) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&options).expect("loopback bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

fn durable_options(data_dir: &Path) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        cache_capacity: 8,
        data_dir: Some(data_dir.display().to_string()),
        ..ServeOptions::default()
    }
}

fn status_of(addr: SocketAddr, id: u64) -> Json {
    let (status, body) = client::get(addr, &format!("/jobs/{id}")).unwrap();
    assert_eq!(status, 200, "{body}");
    biochip_json::parse(&body).unwrap()
}

fn str_field<'j>(doc: &'j Json, name: &str) -> &'j str {
    doc.get(name)
        .unwrap_or_else(|| panic!("no `{name}` in {}", doc.to_compact()))
        .expect_str()
        .unwrap()
}

fn number_field(doc: &Json, name: &str) -> f64 {
    doc.get(name)
        .unwrap_or_else(|| panic!("no `{name}` in {}", doc.to_compact()))
        .expect_number()
        .unwrap()
}

/// Gracefully stops a server: `POST /shutdown` starts the drain, then the
/// accept loop exits once every job is terminal.
fn shutdown(addr: SocketAddr, join: std::thread::JoinHandle<()>) {
    let (status, body) = client::post_json(addr, "/shutdown", "").unwrap();
    assert_eq!(status, 202, "{body}");
    join.join().unwrap();
}

#[test]
fn results_survive_a_restart_on_the_same_data_dir() {
    let dir = temp_dir("restart");

    // Incarnation 1: synthesize PCR cold, capture its result bytes.
    let (addr, _handle, join) = start_server(durable_options(&dir));
    let accepted = client::submit(addr, r#"{"assay": "PCR"}"#).unwrap();
    let id = client::job_id(&accepted).unwrap();
    let done = client::wait_for_job(addr, id, JOB_TIMEOUT).unwrap();
    assert_eq!(str_field(&done, "status"), "done");
    let (status, first_result) = client::get(addr, &format!("/results/{id}")).unwrap();
    assert_eq!(status, 200);
    shutdown(addr, join);

    // Incarnation 2: the same data dir. The job is addressable, done, and
    // flagged as recovered; its result is byte-identical.
    let (addr, handle, join) = start_server(durable_options(&dir));
    let recovered = status_of(addr, id);
    assert_eq!(str_field(&recovered, "status"), "done", "{recovered:?}");
    assert_eq!(
        recovered.get("recovered"),
        Some(&Json::Bool(true)),
        "{recovered:?}"
    );
    let (status, second_result) = client::get(addr, &format!("/results/{id}")).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        first_result, second_result,
        "recovered result must be byte-identical"
    );

    // A resubmission is warm: the restore promoted the result into memory.
    let resubmitted = client::submit(addr, r#"{"assay": "PCR"}"#).unwrap();
    assert_eq!(resubmitted.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(str_field(&resubmitted, "status"), "done");

    // Health and stats tell the recovery story.
    let (status, health) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    let health = biochip_json::parse(&health).unwrap();
    assert_eq!(str_field(&health, "store"), "ok");
    assert_eq!(str_field(&health, "journal"), "ok");
    assert_eq!(health.get("draining"), Some(&Json::Bool(false)));

    let (_, stats) = client::get(addr, "/stats").unwrap();
    let stats = biochip_json::parse(&stats).unwrap();
    let journal = stats.get("journal").unwrap();
    assert!(number_field(journal, "replayed") >= 1.0, "{journal:?}");
    assert_eq!(number_field(journal, "recovered"), 1.0, "{journal:?}");
    assert_eq!(number_field(journal, "lost"), 0.0, "{journal:?}");
    let store = stats.get("store").unwrap();
    assert_eq!(store.get("enabled"), Some(&Json::Bool(true)));
    assert!(number_field(store, "entries") >= 1.0, "{store:?}");

    // The Prometheus scrape carries the same counters.
    let (_, metrics) = client::get(addr, "/metrics").unwrap();
    assert!(metrics.contains("biochip_store_available 1\n"), "{metrics}");
    assert!(
        metrics.contains("biochip_jobs_recovered_total{outcome=\"recovered\"} 1\n"),
        "{metrics}"
    );

    handle.stop();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_jobs_requeue_and_rerun_after_a_restart() {
    let dir = temp_dir("requeue");

    // Simulate a server that crashed mid-job: the journal records the
    // submission (payload included) and the worker pickup, but no terminal
    // line, and the store holds nothing.
    std::fs::write(
        dir.join("journal.jsonl"),
        concat!(
            "{\"schema\":\"biochip-journal/v1\"}\n",
            "{\"ev\":\"submitted\",\"id\":7,\"key\":\"unknown\",\"assay\":\"PCR\",",
            "\"submission\":{\"assay\":\"PCR\"}}\n",
            "{\"ev\":\"started\",\"id\":7}\n",
        ),
    )
    .unwrap();

    let (addr, handle, join) = start_server(durable_options(&dir));
    // The job keeps its original id and runs to completion.
    let done = client::wait_for_job(addr, 7, JOB_TIMEOUT).unwrap();
    assert_eq!(str_field(&done, "status"), "done", "{done:?}");
    assert_eq!(done.get("recovered"), Some(&Json::Bool(true)));
    let (status, _) = client::get(addr, "/results/7").unwrap();
    assert_eq!(status, 200);

    // Fresh ids continue above the replayed ones.
    let next = client::submit(addr, r#"{"assay": "PCR"}"#).unwrap();
    assert!(client::job_id(&next).unwrap() > 7);

    let (_, stats) = client::get(addr, "/stats").unwrap();
    let stats = biochip_json::parse(&stats).unwrap();
    assert_eq!(
        number_field(stats.get("journal").unwrap(), "requeued"),
        1.0,
        "{stats:?}"
    );

    handle.stop();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_store_entry_reruns_the_job_instead_of_serving_garbage() {
    let dir = temp_dir("corrupt");

    let (addr, _handle, join) = start_server(durable_options(&dir));
    let accepted = client::submit(addr, r#"{"assay": "PCR"}"#).unwrap();
    let id = client::job_id(&accepted).unwrap();
    let done = client::wait_for_job(addr, id, JOB_TIMEOUT).unwrap();
    let report = done.get("report").unwrap().clone();
    shutdown(addr, join);

    // Truncate the stored entry to half its bytes — a torn write the
    // atomic-rename protocol cannot produce, but disks can.
    let store_dir = dir.join("store");
    let entry = std::fs::read_dir(&store_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("one stored entry");
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();

    // Restart: the journal says done, the store cannot prove it, the
    // submission payload is on record — so the job reruns to the same
    // deterministic report instead of serving a truncated result.
    let (addr, handle, join) = start_server(durable_options(&dir));
    let rerun = client::wait_for_job(addr, id, JOB_TIMEOUT).unwrap();
    assert_eq!(str_field(&rerun, "status"), "done", "{rerun:?}");
    assert_eq!(rerun.get("recovered"), Some(&Json::Bool(true)));
    // The chip the rerun synthesizes is identical; only the runtime
    // measurements (`*_time`) legitimately differ between runs.
    let rerun_report = rerun.get("report").unwrap();
    for field in [
        "grid",
        "valves",
        "used_edges",
        "execution_time",
        "operations",
    ] {
        assert_eq!(
            rerun_report.get(field),
            report.get(field),
            "deterministic report field `{field}` must survive the rerun"
        );
    }

    let (_, stats) = client::get(addr, "/stats").unwrap();
    let stats = biochip_json::parse(&stats).unwrap();
    assert!(
        number_field(stats.get("store").unwrap(), "corrupt") >= 1.0,
        "{stats:?}"
    );
    assert_eq!(
        number_field(stats.get("journal").unwrap(), "requeued"),
        1.0,
        "{stats:?}"
    );
    // The corrupt entry was quarantined, not deleted silently.
    assert!(
        std::fs::read_dir(dir.join("quarantine")).unwrap().count() >= 1,
        "quarantine directory must hold the corrupt entry"
    );

    handle.stop();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_control_answers_structured_429s_with_retry_after() {
    let (addr, handle, join) = start_server(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        cache_capacity: 8,
        max_queue_depth: 1,
        max_inflight_per_client: 1,
        ..ServeOptions::default()
    });

    // A slow cold job occupies the lone worker. RA10K takes seconds even in
    // release builds; RA1K (tens of milliseconds) could finish before the
    // three submissions below land when other tests load the cores.
    let blocker = client::request_with(
        addr,
        "POST",
        "/jobs",
        &[("x-biochip-client", "alice")],
        Some(r#"{"assay": "RA10K"}"#),
    )
    .unwrap();
    assert_eq!(blocker.status, 202, "{}", blocker.body);
    let blocker_id = client::job_id(&biochip_json::parse(&blocker.body).unwrap()).unwrap();
    // Wait until the worker picked it up, so the queue is empty again.
    let deadline = std::time::Instant::now() + JOB_TIMEOUT;
    loop {
        let status = status_of(addr, blocker_id);
        if str_field(&status, "status") != "queued" {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "{status:?}");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Distinct cold submissions (config edits change the content key).
    let cold = |pitch: u64| {
        let mut config = biochip_synth::SynthesisConfig::default();
        config.layout.channel_pitch += pitch;
        format!(
            r#"{{"assay": "PCR", "config": {}}}"#,
            biochip_json::to_string(&config)
        )
    };

    // Same client, second in-flight job: over quota.
    let quota = client::request_with(
        addr,
        "POST",
        "/jobs",
        &[("x-biochip-client", "alice")],
        Some(&cold(1)),
    )
    .unwrap();
    assert_eq!(quota.status, 429, "{}", quota.body);
    assert_eq!(quota.header("retry-after"), Some("1"), "{}", quota.head);
    let body = biochip_json::parse(&quota.body).unwrap();
    assert_eq!(str_field(&body, "schema"), "biochip-error/v1");
    assert_eq!(str_field(&body, "reason"), "client_quota");
    assert!(number_field(&body, "retry_after_seconds") >= 1.0);

    // Another client may still queue one job...
    let queued = client::request_with(
        addr,
        "POST",
        "/jobs",
        &[("x-biochip-client", "bob")],
        Some(&cold(2)),
    )
    .unwrap();
    assert_eq!(queued.status, 202, "{}", queued.body);

    // ...but the queue bound is now reached: the next cold submission is
    // rejected regardless of identity.
    let full = client::request_with(
        addr,
        "POST",
        "/jobs",
        &[("x-biochip-client", "carol")],
        Some(&cold(3)),
    )
    .unwrap();
    assert_eq!(full.status, 429, "{}", full.body);
    assert_eq!(full.header("retry-after"), Some("1"));
    let body = biochip_json::parse(&full.body).unwrap();
    assert_eq!(str_field(&body, "reason"), "queue_full");

    // Warm submissions are never throttled: resubmitting the blocker once
    // it finishes answers from the cache even for an over-quota client.
    let done = client::wait_for_job(addr, blocker_id, JOB_TIMEOUT).unwrap();
    assert_eq!(str_field(&done, "status"), "done");
    let queued_id = client::job_id(&biochip_json::parse(&queued.body).unwrap()).unwrap();
    client::wait_for_job(addr, queued_id, JOB_TIMEOUT).unwrap();
    let warm = client::request_with(
        addr,
        "POST",
        "/jobs",
        &[("x-biochip-client", "alice")],
        Some(r#"{"assay": "RA10K"}"#),
    )
    .unwrap();
    assert_eq!(warm.status, 201, "{}", warm.body);

    // The rejections are counted, by reason, in stats and metrics.
    let (_, stats) = client::get(addr, "/stats").unwrap();
    let stats = biochip_json::parse(&stats).unwrap();
    let admission = stats.get("admission").unwrap();
    assert_eq!(number_field(admission, "rejected_queue_full"), 1.0);
    assert_eq!(number_field(admission, "rejected_client_quota"), 1.0);
    assert_eq!(number_field(admission, "rejected_draining"), 0.0);
    let (_, metrics) = client::get(addr, "/metrics").unwrap();
    assert!(
        metrics.contains("biochip_admission_rejected_total{reason=\"queue_full\"} 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("biochip_admission_rejected_total{reason=\"client_quota\"} 1\n"),
        "{metrics}"
    );

    handle.stop();
    join.join().unwrap();
}

#[test]
fn draining_rejects_new_submissions_and_finishes_inflight_jobs() {
    let dir = temp_dir("drain");
    let (addr, _handle, join) = start_server(durable_options(&dir));

    // A slow job is in flight when the drain begins.
    let slow = client::submit(addr, r#"{"assay": "RA1K"}"#).unwrap();
    let slow_id = client::job_id(&slow).unwrap();

    let (status, body) = client::post_json(addr, "/shutdown", "").unwrap();
    assert_eq!(status, 202, "{body}");
    let body = biochip_json::parse(&body).unwrap();
    assert_eq!(body.get("draining"), Some(&Json::Bool(true)));

    // New submissions bounce with a structured 503 while the drain runs.
    let refused =
        client::request_with(addr, "POST", "/jobs", &[], Some(r#"{"assay": "PCR"}"#)).unwrap();
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert_eq!(refused.header("retry-after"), Some("1"));
    let refusal = biochip_json::parse(&refused.body).unwrap();
    assert_eq!(str_field(&refusal, "reason"), "draining");

    // A second shutdown is idempotent.
    let (status, again) = client::post_json(addr, "/shutdown", "").unwrap();
    assert_eq!(status, 202);
    let again = biochip_json::parse(&again).unwrap();
    assert_eq!(again.get("already_draining"), Some(&Json::Bool(true)));

    // Health reports the drain while it lasts.
    let (status, health) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    let health = biochip_json::parse(&health).unwrap();
    assert_eq!(health.get("draining"), Some(&Json::Bool(true)));

    // The in-flight job still finishes, then the accept loop exits.
    join.join().unwrap();

    // The journal recorded the slow job's completion: a restart serves it.
    let (addr, handle, join) = start_server(durable_options(&dir));
    let recovered = status_of(addr, slow_id);
    assert_eq!(str_field(&recovered, "status"), "done", "{recovered:?}");
    handle.stop();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
