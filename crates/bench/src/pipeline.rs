//! Cold-pipeline sweep: per-stage latency, chip quality and router work.
//!
//! The one cold-path bench: it runs the whole **cold path** — schedule →
//! place → route → layout → replay — per assay and thread count, by
//! default for the scale assays the job service actually serves cold
//! (RA1K and RA10K). Stage times come from the telemetry spans the pipeline
//! records anyway (the run executes under
//! [`biochip_telemetry::with_collection`]); only the end-to-end total is a
//! stopwatch, so the stages may sum to slightly less than the total (task
//! extraction, verification and span bookkeeping live between spans).
//!
//! Each row also carries the outcome's `output_key` (the canonical content
//! hash of the timing- and search-effort-stripped report, the schedule and
//! the replay; see `SynthesisOutcome::output_key`) and the timing-stripped
//! [`SynthesisReport`] itself: chip quality (grid, `n_e`, `n_v`, `t_E`, peak
//! storage) and the router's deterministic work counters (windows,
//! searches, nodes expanded, segments priced, postponements, peak
//! calendar). Every run's schedule is validated against its problem, so a
//! 10k-op row is also a schedule-correctness witness.
//!
//! The synthesizer's parallelism is **bit-deterministic** — multi-start
//! placement reduces by `(cost, start index)` and routing is sequential —
//! so the key must be identical across thread counts;
//! [`assert_thread_equality`] enforces exactly that and the `pipeline` bin
//! fails CI when it does not hold.
//!
//! **Honesty about host parallelism:** a row benched with more threads than
//! the host has cores measures oversubscription, not speedup. Such rows are
//! marked `undersubscribed` and get no `speedup_vs_single` — CI still
//! compares their `output_key` (determinism holds at any thread count) but
//! never reads a "speedup" off them.
//!
//! Run it with `cargo run --release -p biochip-bench --bin pipeline`
//! (positional args = thread counts, default `1 <cores>`) or
//! `biochip bench pipeline [--threads 1,4] [--assays RA1K,RA10K]`.

use serde::{Deserialize, Serialize};
use std::time::Instant;

use biochip_synth::arch::Parallelism;
use biochip_synth::assay::library;
use biochip_synth::{
    PipelineState, SynthesisConfig, SynthesisFlow, SynthesisOutcome, SynthesisReport,
};
use biochip_telemetry as telemetry;

use crate::BenchError;

/// Default assays of the pipeline sweep: the scale workloads of the CI
/// smoke runs, under the same 8-mixer inventory.
pub const DEFAULT_PIPELINE_ASSAYS: &[&str] = &["RA1K", "RA10K"];

/// One row of the pipeline sweep: one assay, cold, at one thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineRow {
    /// Assay name.
    pub assay: String,
    /// Number of device operations.
    pub operations: usize,
    /// Worker threads the synthesizer was allowed (placement starts).
    pub threads: usize,
    /// Scheduling wall seconds (the pipeline's `"schedule"` span).
    pub schedule_seconds: f64,
    /// Placement wall seconds (`"place"` spans, all grid attempts).
    pub place_seconds: f64,
    /// Routing wall seconds (`"route"` spans, all grid attempts).
    pub route_seconds: f64,
    /// Window-selection share of routing (`"route.window_select"` spans):
    /// candidate enumeration, oracle early-reject and lazy-merge ordering.
    pub window_select_seconds: f64,
    /// Path-search share of routing (`"route.path_search"` spans): the
    /// oracle-guided A* runs themselves.
    pub path_search_seconds: f64,
    /// Commit share of routing (`"route.commit"` spans): reservation
    /// writes, segment pricing and plan bookkeeping for accepted paths.
    pub commit_seconds: f64,
    /// Physical-design wall seconds (the `"layout"` span).
    pub layout_seconds: f64,
    /// Replay + dedicated-baseline wall seconds (the `"replay"` span).
    pub replay_seconds: f64,
    /// Wall seconds to encode the complete pipeline-state document (the
    /// hand-off `biochip simulate` reads, as `biochip run --full` writes
    /// it). Not part of `total_seconds`.
    pub json_encode_seconds: f64,
    /// Wall seconds to decode that document back into a pipeline state.
    /// Not part of `total_seconds`.
    pub json_decode_seconds: f64,
    /// End-to-end cold wall seconds (stopwatch around the whole run; the
    /// stages above may sum to slightly less).
    pub total_seconds: f64,
    /// `true` when the row was benched with more threads than the host has
    /// cores — its wall times measure oversubscription, not parallel
    /// speedup, so `speedup_vs_single` is withheld.
    pub undersubscribed: bool,
    /// `total_seconds(threads = 1) / total_seconds` for the same assay
    /// (`1.0` for the single-thread row itself); absent on undersubscribed
    /// rows.
    pub speedup_vs_single: Option<f64>,
    /// Canonical content hash of the timing-stripped outcome (report,
    /// schedule, replay). Must be identical across thread counts.
    pub output_key: String,
    /// The run's report with wall times zeroed
    /// ([`SynthesisReport::without_timings`]): chip quality, grid attempts
    /// and the router's work counters.
    pub report: SynthesisReport,
}

/// Sums the durations of all complete spans named `name`.
fn span_seconds(events: &[telemetry::SpanEvent], name: &str) -> f64 {
    events
        .iter()
        .filter(|e| e.name == name)
        .map(|e| match e.kind {
            telemetry::SpanKind::Complete { dur_micros } => dur_micros as f64 / 1e6,
            telemetry::SpanKind::Instant => 0.0,
        })
        .sum()
}

/// Times the encode and the decode of the outcome's complete pipeline-state
/// document, and checks that the decoded state encodes to the same text.
fn time_handoff(
    name: &str,
    config: SynthesisConfig,
    outcome: &SynthesisOutcome,
) -> Result<(f64, f64), BenchError> {
    let state = PipelineState::from_outcome(config, outcome);
    let started = Instant::now();
    let text = state.to_json_text();
    let encode_seconds = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let decoded = PipelineState::from_json_text(&text, name);
    let decode_seconds = started.elapsed().as_secs_f64();
    match decoded {
        Ok(decoded) if decoded.to_json_text() == text => Ok((encode_seconds, decode_seconds)),
        Ok(_) => Err(BenchError::Handoff {
            name: name.to_owned(),
            reason: "the decoded state encodes to different text".to_owned(),
        }),
        Err(reason) => Err(BenchError::Handoff {
            name: name.to_owned(),
            reason,
        }),
    }
}

/// Runs one assay cold at one thread count, reading the per-stage times off
/// the pipeline's telemetry spans.
fn run_cold(name: &str, threads: usize, host_threads: usize) -> Result<PipelineRow, BenchError> {
    let graph = library::by_name(name).ok_or_else(|| BenchError::UnknownBenchmark {
        name: name.to_owned(),
        known: library::NAMED_ASSAYS.iter().map(|(n, _)| *n).collect(),
    })?;
    let config = SynthesisConfig::default()
        .with_mixers(8)
        .with_parallelism(Parallelism::with_threads(threads));
    let flow = SynthesisFlow::new(config.clone());

    let started = Instant::now();
    let (result, mut events) = telemetry::with_collection(|| flow.run(graph));
    let total_seconds = started.elapsed().as_secs_f64();
    // The collector is process-wide: flows running on other threads while
    // the session is open (outside any session of their own) record spans
    // too. Every span of this flow is recorded on this thread, because the
    // stages and grid attempts run sequentially here and only placement's
    // annealing starts fan out, inside this thread's `"place"` span.
    let tid = telemetry::current_tid();
    events.retain(|e| e.tid == tid);
    let outcome = result
        .and_then(|outcome| {
            outcome.schedule.validate(&outcome.problem)?;
            Ok(outcome)
        })
        .map_err(|error| BenchError::Synthesis {
            name: name.to_owned(),
            error,
        })?;
    let (json_encode_seconds, json_decode_seconds) = time_handoff(name, config, &outcome)?;

    Ok(PipelineRow {
        assay: outcome.report.assay.clone(),
        operations: outcome.report.operations,
        threads,
        schedule_seconds: span_seconds(&events, "schedule"),
        place_seconds: span_seconds(&events, "place"),
        route_seconds: span_seconds(&events, "route"),
        window_select_seconds: span_seconds(&events, "route.window_select"),
        path_search_seconds: span_seconds(&events, "route.path_search"),
        commit_seconds: span_seconds(&events, "route.commit"),
        layout_seconds: span_seconds(&events, "layout"),
        replay_seconds: span_seconds(&events, "replay"),
        json_encode_seconds,
        json_decode_seconds,
        total_seconds,
        undersubscribed: threads > host_threads,
        speedup_vs_single: None,
        output_key: outcome.output_key(),
        report: outcome.report.without_timings(),
    })
}

/// Runs the sweep: every assay × every thread count, speedups filled in
/// against each assay's `threads = 1` row (or, when 1 was not benched, the
/// row with the lowest benched thread count). Uses the host's detected core
/// count to flag undersubscribed rows — see
/// [`pipeline_rows_with_host`] to pin it (tests, reproducibility).
///
/// # Errors
///
/// Returns a [`BenchError`] for unknown assay names and synthesis failures.
pub fn pipeline_rows(
    assays: &[&str],
    thread_counts: &[usize],
) -> Result<Vec<PipelineRow>, BenchError> {
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    pipeline_rows_with_host(assays, thread_counts, host)
}

/// [`pipeline_rows`] with an explicit host core count. Rows benched with
/// `threads > host_threads` are marked [`PipelineRow::undersubscribed`] and
/// excluded from `speedup_vs_single` — their wall times measure thread
/// oversubscription, not parallelism.
///
/// # Errors
///
/// Returns a [`BenchError`] for unknown assay names and synthesis failures.
pub fn pipeline_rows_with_host(
    assays: &[&str],
    thread_counts: &[usize],
    host_threads: usize,
) -> Result<Vec<PipelineRow>, BenchError> {
    let mut rows = Vec::with_capacity(assays.len() * thread_counts.len());
    for &name in assays {
        let first = rows.len();
        for &threads in thread_counts {
            rows.push(run_cold(name, threads.max(1), host_threads)?);
        }
        let base_total = rows[first..]
            .iter()
            .min_by_key(|r| r.threads)
            .map(|r| r.total_seconds)
            .unwrap_or(0.0);
        for row in &mut rows[first..] {
            row.speedup_vs_single = if row.undersubscribed {
                None
            } else if row.total_seconds > 0.0 {
                Some(base_total / row.total_seconds)
            } else {
                Some(1.0)
            };
        }
    }
    Ok(rows)
}

/// Verifies that every assay produced one identical `output_key` across all
/// benched thread counts. Undersubscribed rows are **not** exempt:
/// determinism must hold at any thread count, on any host.
///
/// # Errors
///
/// Returns a description of the first divergence — the CI gate that fails
/// the job when threaded output differs from sequential output.
pub fn assert_thread_equality(rows: &[PipelineRow]) -> Result<(), String> {
    for row in rows {
        let baseline = rows
            .iter()
            .find(|r| r.assay == row.assay)
            .expect("row's own assay is present");
        if row.output_key != baseline.output_key {
            return Err(format!(
                "{}: output at {} thread(s) [{}] differs from {} thread(s) [{}] — \
                 parallel synthesis must be bit-identical",
                row.assay, row.threads, row.output_key, baseline.threads, baseline.output_key
            ));
        }
    }
    Ok(())
}

fn format_speedup(row: &PipelineRow) -> String {
    match row.speedup_vs_single {
        Some(speedup) => format!("{speedup:.2}"),
        None => "n/a".to_owned(),
    }
}

/// Formats the pipeline sweep as an aligned text table. Undersubscribed
/// rows show `n/a` in the speedup column and are flagged `oversub`.
#[must_use]
pub fn format_pipeline(rows: &[PipelineRow]) -> String {
    let mut out = String::from(
        "assay     |O|     thr  t_sched(s)  t_place(s)  t_route(s)  t_win(s)    t_path(s)   t_commit(s)  t_layout(s)  t_replay(s)  t_enc(s)  t_dec(s)  total(s)  speedup  key\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:<7} {:<4} {:<11.4} {:<11.4} {:<11.4} {:<11.4} {:<11.4} {:<12.4} {:<12.4} {:<12.4} {:<9.4} {:<9.4} {:<9.4} {:<8} {}{}\n",
            r.assay,
            r.operations,
            r.threads,
            r.schedule_seconds,
            r.place_seconds,
            r.route_seconds,
            r.window_select_seconds,
            r.path_search_seconds,
            r.commit_seconds,
            r.layout_seconds,
            r.replay_seconds,
            r.json_encode_seconds,
            r.json_decode_seconds,
            r.total_seconds,
            format_speedup(r),
            r.output_key,
            if r.undersubscribed { "  (oversub)" } else { "" },
        ));
    }
    out
}

/// Formats the pipeline sweep as CSV.
#[must_use]
pub fn pipeline_csv(rows: &[PipelineRow]) -> String {
    let mut out = String::from(
        "assay,operations,threads,schedule_seconds,place_seconds,route_seconds,window_select_seconds,path_search_seconds,commit_seconds,layout_seconds,replay_seconds,json_encode_seconds,json_decode_seconds,total_seconds,undersubscribed,speedup_vs_single,output_key,grids_tried\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{},{},{},{}\n",
            r.assay,
            r.operations,
            r.threads,
            r.schedule_seconds,
            r.place_seconds,
            r.route_seconds,
            r.window_select_seconds,
            r.path_search_seconds,
            r.commit_seconds,
            r.layout_seconds,
            r.replay_seconds,
            r.json_encode_seconds,
            r.json_decode_seconds,
            r.total_seconds,
            r.undersubscribed,
            format_speedup(r),
            r.output_key,
            r.report.grids_tried,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_pipeline_sweep_is_thread_identical() {
        // PCR is tiny, so the sweep is fast even in debug builds. The host
        // core count is pinned high so the rows are never undersubscribed,
        // whatever machine the test runs on.
        let rows = pipeline_rows_with_host(&["PCR"], &[1, 2], 64).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].threads, 1);
        assert_eq!(rows[1].threads, 2);
        assert!((rows[0].speedup_vs_single.unwrap() - 1.0).abs() < 1e-12);
        assert!(rows[1].speedup_vs_single.is_some());
        assert!(rows.iter().all(|r| !r.undersubscribed));
        assert_eq!(rows[0].output_key, rows[1].output_key);
        // The baseline is the threads = 1 row regardless of sweep order.
        let reversed = pipeline_rows_with_host(&["PCR"], &[2, 1], 64).unwrap();
        let single = reversed.iter().find(|r| r.threads == 1).unwrap();
        assert!(
            (single.speedup_vs_single.unwrap() - 1.0).abs() < 1e-12,
            "the single-thread row is its own baseline, got {:?}",
            single.speedup_vs_single
        );
        assert_thread_equality(&rows).unwrap();
        assert!(rows.iter().all(|r| r.total_seconds > 0.0));
        // The span-derived stage times are populated and bounded by the
        // stopwatch total.
        for r in &rows {
            assert!(r.schedule_seconds >= 0.0);
            assert!(r.route_seconds > 0.0, "route span missing: {r:?}");
            // The router sub-stage spans are disjoint children of the route
            // span: each is populated and together they cannot exceed it.
            assert!(
                r.path_search_seconds > 0.0,
                "path_search span missing: {r:?}"
            );
            assert!(r.window_select_seconds >= 0.0);
            assert!(r.commit_seconds > 0.0, "commit span missing: {r:?}");
            let sub_sum = r.window_select_seconds + r.path_search_seconds + r.commit_seconds;
            assert!(
                sub_sum <= r.route_seconds * 1.05 + 0.01,
                "router sub-stages ({sub_sum}s) exceed the route span ({}s)",
                r.route_seconds
            );
            let stage_sum = r.schedule_seconds
                + r.place_seconds
                + r.route_seconds
                + r.layout_seconds
                + r.replay_seconds;
            assert!(
                stage_sum <= r.total_seconds * 1.05 + 0.01,
                "stages ({stage_sum}s) exceed the wall total ({}s)",
                r.total_seconds
            );
        }
        // The hand-off document was encoded and decoded.
        assert!(rows
            .iter()
            .all(|r| r.json_encode_seconds > 0.0 && r.json_decode_seconds > 0.0));
        let table = format_pipeline(&rows);
        assert!(table.contains("PCR"));
        let csv = pipeline_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
    }

    #[test]
    fn pipeline_rows_carry_router_work() {
        // The report carries the router's work counters: every transport
        // task tries at least one window, and routing searched paths.
        let rows = pipeline_rows_with_host(&["PCR"], &[1], 64).unwrap();
        assert_eq!(rows.len(), 1);
        let outcome = SynthesisFlow::new(SynthesisConfig::default().with_mixers(8))
            .run(library::by_name("PCR").unwrap())
            .unwrap();
        let tasks =
            biochip_synth::arch::extract_transport_tasks(&outcome.problem, &outcome.schedule).len();
        assert!(tasks > 0);
        let r = &rows[0];
        assert_eq!(r.report, outcome.report.without_timings());
        assert!(r.report.windows_tried >= tasks, "{:?}", r.report);
        assert!(r.report.path_searches > 0, "{:?}", r.report);
        assert!(r.report.used_edges > 0);
    }

    #[test]
    fn undersubscribed_rows_are_flagged_and_excluded_from_speedup() {
        // Pretend the host has a single core: the threads = 2 row must be
        // flagged, lose its speedup, and still match the output key.
        let rows = pipeline_rows_with_host(&["PCR"], &[1, 2], 1).unwrap();
        let single = rows.iter().find(|r| r.threads == 1).unwrap();
        let over = rows.iter().find(|r| r.threads == 2).unwrap();
        assert!(!single.undersubscribed);
        assert!(single.speedup_vs_single.is_some());
        assert!(over.undersubscribed);
        assert_eq!(over.speedup_vs_single, None);
        assert_eq!(single.output_key, over.output_key);
        assert_thread_equality(&rows).unwrap();
        // Rendering: the table says n/a + oversub, the CSV carries the flag,
        // and the JSON round-trips the Option.
        let table = format_pipeline(&rows);
        assert!(table.contains("n/a"));
        assert!(table.contains("(oversub)"));
        let csv = pipeline_csv(&rows);
        assert!(csv.contains(",true,n/a,"));
        let json = biochip_json::Serialize::to_json(over);
        let back: PipelineRow = biochip_json::Deserialize::from_json(&json).unwrap();
        assert_eq!(&back, over);
    }

    #[test]
    fn divergent_keys_are_reported() {
        let mut rows = pipeline_rows_with_host(&["PCR"], &[1], 64).unwrap();
        let mut forged = rows[0].clone();
        forged.threads = 4;
        forged.output_key = "deadbeefdeadbeef".to_owned();
        rows.push(forged);
        let err = assert_thread_equality(&rows).unwrap_err();
        assert!(err.contains("PCR"), "{err}");
        assert!(err.contains("bit-identical"), "{err}");
    }

    #[test]
    fn unknown_assays_error_cleanly() {
        let err = pipeline_rows(&["NOPE"], &[1]).unwrap_err();
        assert!(matches!(err, BenchError::UnknownBenchmark { .. }));
    }
}
