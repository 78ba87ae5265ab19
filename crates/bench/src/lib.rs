//! Experiment harnesses reproducing the paper's tables and figures.
//!
//! Every table/figure of the evaluation section has a function here that
//! regenerates its rows and a binary that prints them
//! (`cargo run -p biochip-bench --bin table2` etc.). Beside them live the
//! cold-path sweep ([`pipeline`]), the warm-start edit loop ([`editloop`])
//! and the job-service load bench ([`serve_bench`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod editloop;
pub mod pipeline;
pub mod serve_bench;

pub use editloop::{
    assert_editloop_identity, editloop_csv, editloop_rows, format_editloop, EditLoopRow,
    DEFAULT_EDITLOOP_ASSAYS, DEFAULT_EDITLOOP_EDITS,
};
pub use pipeline::{
    assert_thread_equality, format_pipeline, pipeline_csv, pipeline_rows, pipeline_rows_with_host,
    PipelineRow, DEFAULT_PIPELINE_ASSAYS,
};
pub use serve_bench::{
    format_serve, format_serve_load, run_serve_bench, run_serve_load, ServeBenchDoc,
    ServeBenchReport, ServeLoadReport,
};

use serde::{Deserialize, Serialize};
use std::fmt;

use biochip_synth::assay::{library, SequencingGraph};
use biochip_synth::{FlowError, SchedulerChoice, SynthesisConfig, SynthesisFlow, SynthesisReport};

/// A benchmark-harness failure on user-supplied input (an unknown benchmark
/// name, a synthesis failure of a requested run).
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// The requested name is not part of the benchmark set.
    UnknownBenchmark {
        /// The name that did not resolve.
        name: String,
        /// The names that would have.
        known: Vec<&'static str>,
    },
    /// Synthesis of the named benchmark failed.
    Synthesis {
        /// The benchmark being synthesized.
        name: String,
        /// The flow failure.
        error: FlowError,
    },
    /// The benchmark's pipeline-state document did not survive its JSON
    /// round trip.
    Handoff {
        /// The benchmark being encoded and decoded.
        name: String,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::UnknownBenchmark { name, known } => {
                write!(
                    f,
                    "unknown benchmark `{name}` (known: {})",
                    known.join(", ")
                )
            }
            BenchError::Synthesis { name, error } => write!(f, "{name}: {error}"),
            BenchError::Handoff { name, reason } => write!(f, "{name}: JSON hand-off: {reason}"),
        }
    }
}

impl std::error::Error for BenchError {}

/// Parses positional count arguments (the `pipeline` bin's thread counts),
/// falling back to `defaults` when none are given.
///
/// # Errors
///
/// Returns a usage message (for stderr + exit code 2) when an argument is
/// not a positive integer — the bins must not panic on user input.
pub fn parse_size_args(
    args: impl IntoIterator<Item = String>,
    defaults: &[usize],
) -> Result<Vec<usize>, String> {
    let mut sizes = Vec::new();
    for arg in args {
        match arg.parse::<usize>() {
            Ok(size) if size > 0 => sizes.push(size),
            Ok(_) => return Err(format!("invalid size `{arg}`: must be positive")),
            Err(e) => return Err(format!("invalid size `{arg}`: {e}")),
        }
    }
    if sizes.is_empty() {
        sizes = defaults.to_vec();
    }
    Ok(sizes)
}

/// The commit the benchmark binary was run against: `$BIOCHIP_COMMIT` when
/// set (CI exports it), otherwise `git rev-parse --short HEAD`, otherwise
/// `"unknown"`. Stamped into every artifact so trajectories across commits
/// stay comparable.
#[must_use]
pub fn bench_commit() -> String {
    if let Ok(commit) = std::env::var("BIOCHIP_COMMIT") {
        if !commit.is_empty() {
            return commit;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Writes a machine-readable benchmark artifact as `BENCH_<name>.json`.
///
/// Every artifact is wrapped in a `biochip-bench/v1` envelope stamping the
/// commit ([`bench_commit`]) and the host's thread count next to the
/// payload (under `data`), so artifacts from different commits and machines
/// stay comparable. The output directory is `$BIOCHIP_BENCH_DIR` (default:
/// the current directory), so CI can collect every artifact from one place
/// and track the perf trajectory across commits. I/O failures are reported
/// to stderr but do not abort the run — the printed tables remain the
/// primary output.
pub fn write_bench_json<T: biochip_json::Serialize>(name: &str, value: &T) {
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut w = biochip_json::Writer::pretty();
    w.begin_object();
    w.key("schema");
    w.string("biochip-bench/v1");
    w.key("commit");
    w.string(&bench_commit());
    w.key("host_threads");
    w.integer(host_threads as i64);
    w.key("data");
    value.write_json(&mut w);
    w.end_object();
    let dir = std::env::var("BIOCHIP_BENCH_DIR").unwrap_or_else(|_| ".".to_owned());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{name}.json"));
    if let Err(e) = std::fs::write(&path, w.into_string()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}

/// The benchmark set of Table 2 with the device inventory used for each
/// assay (the paper does not report its device counts; these are chosen so
/// that utilization is comparable to the reported execution times).
#[must_use]
pub fn paper_configs() -> Vec<(&'static str, SequencingGraph, SynthesisConfig)> {
    library::paper_benchmarks()
        .into_iter()
        .map(|(name, graph)| {
            let ops = graph.device_operations().len();
            let config = SynthesisConfig::default()
                .with_mixers(match ops {
                    0..=7 => 2,
                    8..=30 => 3,
                    _ => 4,
                })
                .with_detectors(2)
                .with_heaters(1)
                .with_scheduler(SchedulerChoice::Auto);
            (name, graph, config)
        })
        .collect()
}

fn benchmark_config(name: &str) -> Result<(SequencingGraph, SynthesisConfig), BenchError> {
    paper_configs()
        .into_iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, graph, config)| (graph, config))
        .ok_or_else(|| BenchError::UnknownBenchmark {
            name: name.to_owned(),
            known: paper_configs().iter().map(|(n, _, _)| *n).collect(),
        })
}

/// Runs the full flow for one named benchmark with its Table-2 configuration.
///
/// # Errors
///
/// Returns a [`BenchError`] when the name is not part of the benchmark set
/// or its synthesis fails — both reachable from user-supplied benchmark
/// names, so neither panics.
pub fn run_benchmark(name: &str) -> Result<SynthesisReport, BenchError> {
    let (graph, config) = benchmark_config(name)?;
    Ok(SynthesisFlow::new(config)
        .run(graph)
        .map_err(|error| BenchError::Synthesis {
            name: name.to_owned(),
            error,
        })?
        .report)
}

/// Table 2: one report per benchmark assay (scheduling, architectural
/// synthesis and physical design results).
#[must_use]
pub fn table2_rows() -> Vec<SynthesisReport> {
    paper_configs()
        .into_iter()
        .map(|(name, graph, config)| {
            SynthesisFlow::new(config)
                .run(graph)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .report
        })
        .collect()
}

/// Fig. 8: used-edge and valve ratios of the synthesized chips relative to
/// the full connection grid, per assay.
#[must_use]
pub fn fig8_rows() -> Vec<(String, f64, f64)> {
    table2_rows()
        .into_iter()
        .map(|r| (r.assay.clone(), r.edge_ratio, r.valve_ratio))
        .collect()
}

/// One row of the Fig. 9 comparison (with vs. without storage optimization).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Row {
    /// Assay name.
    pub assay: String,
    /// Execution time when optimizing execution time only.
    pub execution_baseline: u64,
    /// Execution time when optimizing execution time and storage.
    pub execution_optimized: u64,
    /// Kept channel segments (baseline / optimized).
    pub edges: (usize, usize),
    /// Valves (baseline / optimized).
    pub valves: (usize, usize),
}

/// Fig. 9: RA30, IVD and PCR synthesized from a makespan-only schedule and
/// from a storage-optimized schedule.
#[must_use]
pub fn fig9_rows() -> Vec<Fig9Row> {
    ["RA30", "IVD", "PCR"]
        .into_iter()
        .map(|name| {
            let (_, graph, config) = paper_configs()
                .into_iter()
                .find(|(n, _, _)| *n == name)
                .expect("benchmark exists");
            let baseline =
                SynthesisFlow::new(config.clone().with_scheduler(SchedulerChoice::MakespanOnly))
                    .run(graph.clone())
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
                    .report;
            let optimized =
                SynthesisFlow::new(config.with_scheduler(SchedulerChoice::StorageAware))
                    .run(graph)
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
                    .report;
            Fig9Row {
                assay: name.to_owned(),
                execution_baseline: baseline.execution_time,
                execution_optimized: optimized.execution_time,
                edges: (baseline.used_edges, optimized.used_edges),
                valves: (baseline.valves, optimized.valves),
            }
        })
        .collect()
}

/// Fig. 10: execution-time and valve ratios of the channel-caching chip vs.
/// the dedicated-storage baseline, per assay (values below 1 mean the
/// proposed method wins).
#[must_use]
pub fn fig10_rows() -> Vec<(String, f64, f64)> {
    table2_rows()
        .into_iter()
        .map(|r| {
            (
                r.assay.clone(),
                r.execution_ratio_vs_dedicated(),
                r.valve_ratio_vs_dedicated(),
            )
        })
        .collect()
}

/// Fig. 11: two ASCII snapshots of the RA30 chip while it executes (one
/// during a store, one while a sample rests in its channel segment).
#[must_use]
pub fn fig11_snapshots() -> Vec<(u64, String)> {
    let (_, graph, config) = paper_configs()
        .into_iter()
        .find(|(n, _, _)| *n == "RA30")
        .expect("RA30 exists");
    let outcome = SynthesisFlow::new(config)
        .run(graph)
        .expect("RA30 synthesizes");
    let storage = outcome.architecture.storage_routes();
    let times: Vec<u64> = if let Some(store) = storage.first() {
        let (from, until) = store.task.storage_interval.unwrap_or((35, 45));
        vec![store.task.window_start, (from + until) / 2]
    } else {
        let makespan = outcome.schedule.makespan();
        vec![makespan / 3, 2 * makespan / 3]
    };
    times
        .into_iter()
        .map(|t| {
            let snapshot = biochip_synth::sim::snapshot_at(&outcome.architecture, t);
            let art = biochip_synth::layout::render_ascii(
                &outcome.architecture,
                &snapshot.active_edges(),
            );
            (t, art)
        })
        .collect()
}

/// Formats Table 2 in the paper's column order.
#[must_use]
pub fn format_table2(rows: &[SynthesisReport]) -> String {
    let mut out = String::from(
        "Assay   |O|   tE(s)  ts(ms)    G     ne   nv   tr(ms)   dr       de       dp       tp(ms)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<7} {:<5} {:<7} {:<9} {:<5} {:<4} {:<4} {:<8} {:<8} {:<8} {:<8} {:.2}\n",
            r.assay,
            r.operations,
            r.execution_time,
            r.scheduling_time.as_millis(),
            r.grid,
            r.used_edges,
            r.valves,
            r.architecture_time.as_millis(),
            r.dims_scaled,
            r.dims_expanded,
            r.dims_compressed,
            r.layout_time.as_secs_f64() * 1000.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_set_covers_all_six_assays() {
        let names: Vec<&str> = paper_configs().iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, vec!["RA100", "RA70", "CPA", "RA30", "IVD", "PCR"]);
    }

    #[test]
    fn unknown_benchmark_names_error_instead_of_panicking() {
        let err = run_benchmark("NOPE").unwrap_err();
        assert!(matches!(err, BenchError::UnknownBenchmark { .. }));
        assert!(err.to_string().contains("PCR"), "{err}");
    }

    #[test]
    fn size_args_parse_or_report_usage() {
        let ok = parse_size_args(["10".to_owned(), "20".to_owned()], &[1]).unwrap();
        assert_eq!(ok, vec![10, 20]);
        assert_eq!(parse_size_args([], &[100, 1000]).unwrap(), vec![100, 1000]);
        assert!(parse_size_args(["ten".to_owned()], &[1])
            .unwrap_err()
            .contains("ten"));
        assert!(parse_size_args(["0".to_owned()], &[1])
            .unwrap_err()
            .contains("positive"));
        assert!(parse_size_args(["-3".to_owned()], &[1]).is_err());
    }

    #[test]
    fn pcr_and_ivd_reports_have_the_paper_shape() {
        for name in ["PCR", "IVD"] {
            let report = run_benchmark(name).unwrap();
            assert!(
                report.edge_ratio < 1.0,
                "{name}: only part of the grid is kept"
            );
            assert!(report.valve_ratio < 1.0, "{name}");
            assert!(
                report.valve_ratio_vs_dedicated() < 1.0,
                "{name}: fewer valves than the baseline"
            );
        }
    }

    #[test]
    fn fig9_rows_cover_the_three_assays() {
        let rows = fig9_rows();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.execution_baseline > 0);
            assert!(row.execution_optimized > 0);
            assert!(row.edges.0 > 0 && row.edges.1 > 0);
        }
    }

    #[test]
    fn fig10_ratios_favor_channel_caching_for_storage_heavy_assays() {
        let rows = fig10_rows();
        assert_eq!(rows.len(), 6);
        for (name, exec_ratio, valve_ratio) in &rows {
            assert!(*valve_ratio < 1.0, "{name}: valves must beat the baseline");
            assert!(
                *exec_ratio <= 1.5,
                "{name}: execution far above the baseline"
            );
        }
        // At least one assay shows a clear execution-time win, mirroring the
        // paper's 28 % improvement on its largest benchmark.
        assert!(rows.iter().any(|(_, e, _)| *e < 1.0));
    }

    #[test]
    fn fig11_produces_two_snapshots() {
        let snapshots = fig11_snapshots();
        assert_eq!(snapshots.len(), 2);
        for (_, art) in &snapshots {
            assert!(art.contains('D'));
        }
    }

    #[test]
    fn table2_formatting_contains_every_assay() {
        let rows = vec![run_benchmark("PCR").unwrap()];
        let text = format_table2(&rows);
        assert!(text.contains("PCR"));
        assert!(text.lines().count() >= 2);
    }
}
