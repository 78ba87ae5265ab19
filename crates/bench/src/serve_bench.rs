//! Loopback load generator for the job service: warm vs. cold throughput.
//!
//! Starts an in-process [`biochip_server::Server`], submits an RA1K job
//! cold (full synthesis), then replays the identical submission `warm_jobs`
//! times against the content-addressed cache, all over real loopback HTTP.
//! The headline number is the warm/cold speedup — the factor a production
//! deployment gains on repeated assays — written to `BENCH_serve.json`.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

use biochip_server::{client, ServeOptions, Server};

/// The submission the bench replays: RA1K under the 8-mixer configuration
/// the scale smoke runs use (the CI baseline for RA1K cold synthesis).
#[must_use]
pub fn bench_submission() -> String {
    let config = biochip_synth::SynthesisConfig::default().with_mixers(8);
    format!(
        r#"{{"assay": "RA1K", "config": {}}}"#,
        biochip_json::to_string(&config)
    )
}

/// Generous per-job timeout (RA1K cold is ~0.1 s release, seconds debug).
const JOB_TIMEOUT: Duration = Duration::from_secs(600);

/// Results of one warm-vs-cold loopback run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// The assay submitted.
    pub assay: String,
    /// Worker threads the server ran.
    pub workers: usize,
    /// Warm submissions measured.
    pub warm_jobs: usize,
    /// Wall seconds for the cold (synthesizing) job, end to end over HTTP.
    pub cold_seconds: f64,
    /// Wall seconds per warm (cache-served) job, end to end over HTTP.
    pub warm_seconds_per_job: f64,
    /// Cold jobs/sec (1 / cold_seconds).
    pub cold_jobs_per_sec: f64,
    /// Warm jobs/sec.
    pub warm_jobs_per_sec: f64,
    /// warm_jobs_per_sec / cold_jobs_per_sec.
    pub speedup: f64,
    /// Cache hits observed by the server.
    pub cache_hits: usize,
    /// Cache misses observed by the server.
    pub cache_misses: usize,
}

/// Runs the warm-vs-cold loopback measurement.
///
/// # Errors
///
/// Returns a message when the server cannot start or a job misbehaves.
///
/// # Panics
///
/// Panics only if the spawned server thread itself panicked.
pub fn run_serve_bench(warm_jobs: usize, workers: usize) -> Result<ServeBenchReport, String> {
    let server = Server::bind(&ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        cache_capacity: 8,
        ..ServeOptions::default()
    })
    .map_err(|e| format!("cannot start the server: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle().map_err(|e| e.to_string())?;
    let join = std::thread::spawn(move || server.run());

    let submission = bench_submission();

    // Cold: submission + synthesis + polling until done.
    let cold_started = Instant::now();
    let accepted = client::submit(addr, &submission)?;
    let cold_id = client::job_id(&accepted)?;
    let done = client::wait_for_job(addr, cold_id, JOB_TIMEOUT)?;
    let cold_seconds = cold_started.elapsed().as_secs_f64();
    let status = done
        .get("status")
        .and_then(|s| s.expect_str().ok())
        .unwrap_or("?");
    if status != "done" {
        return Err(format!("cold job ended {status}: {}", done.to_compact()));
    }
    let assay = done
        .get("assay")
        .and_then(|s| s.expect_str().ok())
        .unwrap_or("?")
        .to_owned();

    // Warm: the identical submission is answered from the cache at
    // acceptance time — each round trip still pays full HTTP cost.
    let warm_started = Instant::now();
    for _ in 0..warm_jobs {
        let accepted = client::submit(addr, &submission)?;
        let cached = accepted.get("cached") == Some(&biochip_json::Json::Bool(true));
        let status = accepted
            .get("status")
            .and_then(|s| s.expect_str().ok())
            .unwrap_or("?");
        if !cached || status != "done" {
            return Err(format!(
                "warm submission was not a cache hit: {}",
                accepted.to_compact()
            ));
        }
    }
    let warm_elapsed = warm_started.elapsed().as_secs_f64();
    let warm_seconds_per_job = warm_elapsed / warm_jobs.max(1) as f64;

    let (_, stats) = client::get(addr, "/stats").map_err(|e| e.to_string())?;
    let stats = biochip_json::parse(&stats).map_err(|e| e.to_string())?;
    let cache_count = |field: &str| -> usize {
        stats
            .get("cache")
            .and_then(|c| c.get(field))
            .and_then(|v| v.expect_number().ok())
            .unwrap_or(0.0) as usize
    };

    handle.stop();
    join.join().expect("server thread exits cleanly");

    let workers = stats
        .get("pool")
        .and_then(|p| p.get("workers"))
        .and_then(|v| v.expect_number().ok())
        .unwrap_or(workers as f64) as usize;
    Ok(ServeBenchReport {
        assay,
        workers,
        warm_jobs,
        cold_seconds,
        warm_seconds_per_job,
        cold_jobs_per_sec: 1.0 / cold_seconds.max(f64::EPSILON),
        warm_jobs_per_sec: 1.0 / warm_seconds_per_job.max(f64::EPSILON),
        speedup: cold_seconds / warm_seconds_per_job.max(f64::EPSILON),
        cache_hits: cache_count("hits"),
        cache_misses: cache_count("misses"),
    })
}

/// Formats the report as the human-readable table the bin prints.
#[must_use]
pub fn format_serve(report: &ServeBenchReport) -> String {
    format!(
        "assay        {}\n\
         workers      {}\n\
         cold         {:.4} s/job  ({:.2} jobs/s)\n\
         warm         {:.6} s/job  ({:.0} jobs/s, {} jobs)\n\
         speedup      {:.0}x\n\
         cache        {} hits / {} misses\n",
        report.assay,
        report.workers,
        report.cold_seconds,
        report.cold_jobs_per_sec,
        report.warm_seconds_per_job,
        report.warm_jobs_per_sec,
        report.warm_jobs,
        report.speedup,
        report.cache_hits,
        report.cache_misses,
    )
}

/// Results of the concurrent mixed cold/warm load phase (plus the overload
/// and restart probes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeLoadReport {
    /// Concurrent client threads, each with its own identity header.
    pub clients: usize,
    /// Submissions each client issued.
    pub requests_per_client: usize,
    /// Worker threads the server ran.
    pub workers: usize,
    /// Cold (synthesizing) submissions in the mix.
    pub cold_jobs: usize,
    /// Warm (cache-served) submissions in the mix.
    pub warm_submissions: usize,
    /// Median `POST /jobs` round-trip latency, seconds.
    pub submit_p50_seconds: f64,
    /// 90th-percentile submit latency, seconds.
    pub submit_p90_seconds: f64,
    /// 99th-percentile submit latency, seconds.
    pub submit_p99_seconds: f64,
    /// Worst submit latency, seconds.
    pub submit_max_seconds: f64,
    /// Submissions answered 2xx.
    pub status_2xx: usize,
    /// Submissions answered a structured 429.
    pub status_429: usize,
    /// Submissions answered any other 4xx.
    pub status_4xx_other: usize,
    /// Submissions answered 5xx (the quota-respecting phase must see none).
    pub status_5xx: usize,
    /// Requests that failed at the socket level after retries.
    pub io_errors: usize,
    /// Connect retries the clients needed (loopback backlog pressure).
    pub retries: usize,
    /// (429 + other 4xx + 5xx + io errors) / total requests.
    pub error_rate: f64,
    /// Whether the server was restarted (drain + reopen on the same data
    /// dir) after the load phase.
    pub restarted: bool,
    /// Warm probes answered from the recovered store after the restart.
    pub post_restart_warm_hits: usize,
    /// Over-quota submissions answered a structured 429 by the strict
    /// server in the overload phase.
    pub overload_429: usize,
    /// Over-quota submissions the strict server still accepted.
    pub overload_accepted: usize,
    /// Over-quota submissions answered 5xx (must be zero).
    pub overload_5xx: usize,
}

/// The full `BENCH_serve.json` payload: the warm-vs-cold headline plus the
/// concurrent-load phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBenchDoc {
    /// Warm-vs-cold single-stream measurement.
    pub warm_cold: ServeBenchReport,
    /// Concurrent mixed-load, restart and overload measurement.
    pub load: ServeLoadReport,
}

/// The `q`-quantile of an unsorted latency sample (nearest-rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One client's submit with a tiny connect-retry loop: under hundreds of
/// concurrent loopback connects the listener backlog can momentarily
/// refuse, which is backpressure, not a server error.
fn submit_with_retry(
    addr: std::net::SocketAddr,
    client_id: &str,
    body: &str,
    retries: &std::sync::atomic::AtomicUsize,
) -> Result<biochip_server::client::Response, String> {
    let mut last = String::new();
    for attempt in 0..3 {
        match client::request_with(
            addr,
            "POST",
            "/jobs",
            &[("x-biochip-client", client_id)],
            Some(body),
        ) {
            Ok(response) => return Ok(response),
            Err(err) => {
                last = err.to_string();
                retries.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5 << attempt));
            }
        }
    }
    Err(last)
}

/// Drives ≥`clients` concurrent clients (each with its own identity) against
/// a durable server: a mixed cold/warm request stream with per-request
/// latency capture, an optional drain + restart on the same data directory
/// with warm re-probes, and an overload phase against a strictly-limited
/// server that must answer structured 429s and never 5xx.
///
/// # Errors
///
/// Returns a message when the server cannot start, when the
/// quota-respecting phase sees any 5xx, when the overload phase sees a 5xx,
/// or when post-restart probes miss the recovered store.
///
/// # Panics
///
/// Panics only if a spawned server or client thread itself panicked.
pub fn run_serve_load(
    clients: usize,
    workers: usize,
    restart: bool,
) -> Result<ServeLoadReport, String> {
    let clients = clients.max(1);
    let requests_per_client = 3usize;
    let data_dir = std::env::temp_dir().join(format!("biochip-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let options = ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        cache_capacity: 64,
        data_dir: Some(data_dir.display().to_string()),
        ..ServeOptions::default()
    };
    let start = |options: &ServeOptions| -> Result<_, String> {
        let server = Server::bind(options).map_err(|e| format!("cannot start the server: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.handle().map_err(|e| e.to_string())?;
        let join = std::thread::spawn(move || server.run());
        Ok((addr, handle, join))
    };
    let (addr, handle, join) = start(&options)?;

    // Prime the warm target: one cold RA1K whose result every warm
    // submission then hits.
    let warm_submission = bench_submission();
    let primed = client::submit(addr, &warm_submission)?;
    client::wait_for_job(addr, client::job_id(&primed)?, JOB_TIMEOUT)?;

    // The mixed load: every 10th client opens with a cold job (a PCR config
    // edit gives each a distinct content key), the rest of the stream is
    // warm RA1K resubmissions.
    let latencies = std::sync::Mutex::new(Vec::<f64>::new());
    let statuses = std::sync::Mutex::new(Vec::<u16>::new());
    let cold_ids = std::sync::Mutex::new(Vec::<u64>::new());
    let io_errors = std::sync::atomic::AtomicUsize::new(0);
    let retries = std::sync::atomic::AtomicUsize::new(0);
    let mut cold_jobs = 0usize;
    std::thread::scope(|scope| {
        for client_index in 0..clients {
            let is_cold_client = client_index % 10 == 0;
            if is_cold_client {
                cold_jobs += 1;
            }
            let (latencies, statuses, cold_ids) = (&latencies, &statuses, &cold_ids);
            let (io_errors, retries, warm_submission) = (&io_errors, &retries, &warm_submission);
            scope.spawn(move || {
                let identity = format!("load-{client_index}");
                for request_index in 0..requests_per_client {
                    let body = if is_cold_client && request_index == 0 {
                        let mut config = biochip_synth::SynthesisConfig::default();
                        config.layout.channel_pitch += 1 + client_index as u64;
                        format!(
                            r#"{{"assay": "PCR", "config": {}}}"#,
                            biochip_json::to_string(&config)
                        )
                    } else {
                        warm_submission.clone()
                    };
                    let started = Instant::now();
                    match submit_with_retry(addr, &identity, &body, retries) {
                        Ok(response) => {
                            latencies
                                .lock()
                                .unwrap()
                                .push(started.elapsed().as_secs_f64());
                            statuses.lock().unwrap().push(response.status);
                            if response.status < 300 && is_cold_client && request_index == 0 {
                                if let Ok(doc) = biochip_json::parse(&response.body) {
                                    if let Ok(id) = client::job_id(&doc) {
                                        cold_ids.lock().unwrap().push(id);
                                    }
                                }
                            }
                        }
                        Err(_) => {
                            io_errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    // Every accepted cold job must reach a terminal state before the drain.
    let cold_ids = cold_ids.into_inner().unwrap();
    for id in &cold_ids {
        client::wait_for_job(addr, *id, JOB_TIMEOUT)?;
    }

    let statuses = statuses.into_inner().unwrap();
    let mut latencies = latencies.into_inner().unwrap();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let status_2xx = statuses.iter().filter(|s| **s < 300).count();
    let status_429 = statuses.iter().filter(|s| **s == 429).count();
    let status_4xx_other = statuses
        .iter()
        .filter(|s| **s >= 400 && **s < 500 && **s != 429)
        .count();
    let status_5xx = statuses.iter().filter(|s| **s >= 500).count();
    if status_5xx > 0 {
        return Err(format!(
            "{status_5xx} submissions answered 5xx under quota-respecting load"
        ));
    }
    let io_errors = io_errors.into_inner();
    let total_requests = statuses.len() + io_errors;
    let error_rate = (status_429 + status_4xx_other + status_5xx + io_errors) as f64
        / total_requests.max(1) as f64;

    // Optional restart-in-the-middle: drain, reopen the same data dir and
    // verify the load's results are served warm from the recovered store.
    let mut post_restart_warm_hits = 0usize;
    if restart {
        let (status, body) = client::post_json(addr, "/shutdown", "").map_err(|e| e.to_string())?;
        if status != 202 {
            return Err(format!("shutdown answered {status}: {body}"));
        }
        join.join().expect("server thread exits cleanly");
        let (addr, handle, join) = start(&options)?;
        for probe in 0..clients.min(64) {
            let identity = format!("probe-{probe}");
            let response = submit_with_retry(addr, &identity, &warm_submission, &retries)?;
            let doc = biochip_json::parse(&response.body).map_err(|e| e.to_string())?;
            if response.status == 201 && doc.get("cached") == Some(&biochip_json::Json::Bool(true))
            {
                post_restart_warm_hits += 1;
            } else {
                return Err(format!(
                    "post-restart probe was not warm ({}): {}",
                    response.status, response.body
                ));
            }
        }
        handle.stop();
        join.join().expect("server thread exits cleanly");
    } else {
        handle.stop();
        join.join().expect("server thread exits cleanly");
    }

    // Overload phase: a strict server (1 job in flight per client, queue
    // depth 1) must reject the excess with structured 429s — never a 5xx.
    let strict = Server::bind(&ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        cache_capacity: 8,
        max_queue_depth: 1,
        max_inflight_per_client: 1,
        ..ServeOptions::default()
    })
    .map_err(|e| format!("cannot start the strict server: {e}"))?;
    let strict_addr = strict.local_addr().map_err(|e| e.to_string())?;
    let strict_handle = strict.handle().map_err(|e| e.to_string())?;
    let strict_join = std::thread::spawn(move || strict.run());
    let mut overload_429 = 0usize;
    let mut overload_accepted = 0usize;
    let mut overload_5xx = 0usize;
    let mut accepted_ids = Vec::new();
    for burst in 0..20u64 {
        let mut config = biochip_synth::SynthesisConfig::default();
        config.layout.channel_pitch += 1 + burst;
        let body = format!(
            r#"{{"assay": "PCR", "config": {}}}"#,
            biochip_json::to_string(&config)
        );
        let response = submit_with_retry(strict_addr, "hog", &body, &retries)?;
        match response.status {
            status if status < 300 => {
                overload_accepted += 1;
                if let Ok(doc) = biochip_json::parse(&response.body) {
                    if let Ok(id) = client::job_id(&doc) {
                        accepted_ids.push(id);
                    }
                }
            }
            429 => {
                let doc = biochip_json::parse(&response.body).map_err(|e| e.to_string())?;
                let structured = doc.get("schema").is_some()
                    && doc.get("reason").is_some()
                    && response.header("retry-after").is_some();
                if !structured {
                    return Err(format!("unstructured 429: {}", response.body));
                }
                overload_429 += 1;
            }
            status if status >= 500 => overload_5xx += 1,
            _ => {}
        }
    }
    if overload_5xx > 0 {
        return Err(format!("{overload_5xx} overload submissions answered 5xx"));
    }
    if overload_429 == 0 {
        return Err("the overload burst was never throttled".to_owned());
    }
    for id in accepted_ids {
        client::wait_for_job(strict_addr, id, JOB_TIMEOUT)?;
    }
    strict_handle.stop();
    strict_join.join().expect("strict server thread exits");
    let _ = std::fs::remove_dir_all(&data_dir);

    Ok(ServeLoadReport {
        clients,
        requests_per_client,
        workers,
        cold_jobs,
        warm_submissions: total_requests.saturating_sub(cold_jobs),
        submit_p50_seconds: quantile(&latencies, 0.50),
        submit_p90_seconds: quantile(&latencies, 0.90),
        submit_p99_seconds: quantile(&latencies, 0.99),
        submit_max_seconds: latencies.last().copied().unwrap_or(0.0),
        status_2xx,
        status_429,
        status_4xx_other,
        status_5xx,
        io_errors,
        retries: retries.into_inner(),
        error_rate,
        restarted: restart,
        post_restart_warm_hits,
        overload_429,
        overload_accepted,
        overload_5xx,
    })
}

/// Formats the load report as the human-readable table the bin prints.
#[must_use]
pub fn format_serve_load(report: &ServeLoadReport) -> String {
    format!(
        "clients      {} x {} requests ({} cold jobs)\n\
         submit p50   {:.6} s\n\
         submit p90   {:.6} s\n\
         submit p99   {:.6} s\n\
         submit max   {:.6} s\n\
         statuses     {} ok / {} throttled / {} other 4xx / {} 5xx / {} io errors\n\
         error rate   {:.4}\n\
         restart      {} ({} warm hits after reopen)\n\
         overload     {} throttled / {} accepted / {} 5xx\n",
        report.clients,
        report.requests_per_client,
        report.cold_jobs,
        report.submit_p50_seconds,
        report.submit_p90_seconds,
        report.submit_p99_seconds,
        report.submit_max_seconds,
        report.status_2xx,
        report.status_429,
        report.status_4xx_other,
        report.status_5xx,
        report.io_errors,
        report.error_rate,
        if report.restarted { "yes" } else { "no" },
        report.post_restart_warm_hits,
        report.overload_429,
        report.overload_accepted,
        report.overload_5xx,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.50), 50.0);
        assert_eq!(quantile(&sorted, 0.90), 90.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn load_report_round_trips_and_formats() {
        let report = ServeLoadReport {
            clients: 200,
            requests_per_client: 3,
            workers: 2,
            cold_jobs: 20,
            warm_submissions: 580,
            submit_p50_seconds: 0.001,
            submit_p90_seconds: 0.002,
            submit_p99_seconds: 0.004,
            submit_max_seconds: 0.2,
            status_2xx: 600,
            status_429: 0,
            status_4xx_other: 0,
            status_5xx: 0,
            io_errors: 0,
            retries: 2,
            error_rate: 0.0,
            restarted: true,
            post_restart_warm_hits: 64,
            overload_429: 18,
            overload_accepted: 2,
            overload_5xx: 0,
        };
        let back: ServeLoadReport =
            biochip_json::from_str(&biochip_json::to_string_pretty(&report)).unwrap();
        assert_eq!(back, report);
        assert!(format_serve_load(&report).contains("submit p99"));
    }

    #[test]
    fn serve_bench_report_round_trips() {
        let report = ServeBenchReport {
            assay: "RA1000".to_owned(),
            workers: 2,
            warm_jobs: 50,
            cold_seconds: 1.5,
            warm_seconds_per_job: 0.001,
            cold_jobs_per_sec: 1.0 / 1.5,
            warm_jobs_per_sec: 1000.0,
            speedup: 1500.0,
            cache_hits: 50,
            cache_misses: 1,
        };
        let back: ServeBenchReport =
            biochip_json::from_str(&biochip_json::to_string_pretty(&report)).unwrap();
        assert_eq!(back, report);
        assert!(format_serve(&report).contains("speedup"));
    }
}
