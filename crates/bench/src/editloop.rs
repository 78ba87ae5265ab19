//! Edit-loop sweep: warm-start resynthesis after single edits vs. cold runs.
//!
//! The interactive design loop the staged cache exists for: synthesize an
//! assay once, then apply one small edit at a time and resynthesize. Each
//! edit runs **twice** — cold (no store, the baseline an uncached server
//! would pay) and warm (against a [`biochip_synth::StageCaches`] primed by
//! the previous runs and sized like `biochip serve`'s default, so the sweep
//! runs the store the server runs) — and the row records both wall times,
//! the per-stage reuse the warm run achieved ([`biochip_synth::StageReuse`])
//! and, crucially, both `output_key`s.
//!
//! **The keys must match byte-for-byte.** Warm starts are a shortcut to the
//! same answer, never a different one; [`assert_editloop_identity`] is the
//! CI gate that fails the bench job on any divergence.
//!
//! Four edit kinds cover the reuse matrix:
//!
//! * `layout-config` — touches only the layout slice: schedule **and**
//!   architecture are served by exact stage-key hits.
//! * `route-config` — touches the routing slice: schedule hits, routing
//!   re-runs (the prior placement no longer has matching routing options).
//! * `schedule-config` — touches the scheduling slice without changing the
//!   schedule itself (a larger ILP time limit above the heuristic
//!   threshold): the schedule recomputes, then the warm hint replays the
//!   entire architecture.
//! * `op-duration` — a real assay edit (one late operation's duration
//!   bumped): every stage key changes, and reuse comes from the warm
//!   prefix replay ripping up only the tasks the edit actually moved.
//!
//! Run it with `biochip bench editloop [--assays RA1K] [--edits 6]`; the
//! rows land in `BENCH_editloop.json`.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

use biochip_server::ServeOptions;
use biochip_synth::assay::{library, SequencingGraph};
use biochip_synth::{FlowController, StageCaches, StageReuse, SynthesisConfig, SynthesisFlow};

use crate::BenchError;

/// Default assays of the edit-loop sweep. RA1K keeps the CI job fast; pass
/// `--assays RA1K,RA10K` for the paper-scale version.
pub const DEFAULT_EDITLOOP_ASSAYS: &[&str] = &["RA1K"];

/// Default number of edits per assay: one of each config kind plus three
/// operation edits.
pub const DEFAULT_EDITLOOP_EDITS: usize = 6;

/// One edit of the loop: the same edited input synthesized cold and warm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EditLoopRow {
    /// Assay name.
    pub assay: String,
    /// Edit kind (`layout-config`, `route-config`, `schedule-config`,
    /// `op-duration`).
    pub edit: String,
    /// Edit index within the sweep (seeds the op pick and config deltas).
    pub seed: usize,
    /// Wall seconds of the cold run (no stage store).
    pub cold_seconds: f64,
    /// Wall seconds of the warm run (store primed by the previous runs).
    pub warm_seconds: f64,
    /// `cold_seconds / warm_seconds`.
    pub speedup: f64,
    /// How the warm run's schedule stage was satisfied (`hit`/`warm`/`miss`).
    pub schedule_reuse: String,
    /// How the warm run's architecture stage was satisfied.
    pub architecture_reuse: String,
    /// The warm run adopted the prior placement.
    pub placement_reused: bool,
    /// Transports the warm run committed by replay instead of search.
    pub tasks_replayed: usize,
    /// Total transports of the warm run.
    pub tasks_total: usize,
    /// Output key of the cold run.
    pub output_key_cold: String,
    /// Output key of the warm run — must equal `output_key_cold`.
    pub output_key_warm: String,
    /// `output_key_warm == output_key_cold`.
    pub identical: bool,
}

/// The edit kind applied at position `seed` of the sweep: the three config
/// kinds first (while the store holds exactly the base artifacts), then
/// operation edits.
fn edit_kind(seed: usize) -> &'static str {
    match seed {
        0 => "layout-config",
        1 => "route-config",
        2 => "schedule-config",
        _ => "op-duration",
    }
}

/// Rebuilds `base` with one operation's duration bumped. The pick comes
/// from the last quarter of positive-duration operations so the edit only
/// moves a late slice of the schedule — the realistic "tweak one step near
/// the end" case where warm replay pays off most.
fn edit_operation(base: &SequencingGraph, seed: usize) -> SequencingGraph {
    let targets: Vec<_> = base
        .iter()
        .filter(|(_, op)| op.duration > 0)
        .map(|(id, _)| id)
        .collect();
    let tail = (targets.len() / 4).max(1);
    let pick = targets[targets.len() - 1 - (seed % tail)];
    let mut graph = SequencingGraph::new(base.name().to_owned());
    for (id, op) in base.iter() {
        let mut op = op.clone();
        if id == pick {
            op.duration += 1;
        }
        graph.add_operation(op);
    }
    for edge in base.edges() {
        graph
            .add_dependency(edge.parent, edge.child)
            .expect("edges copied from a valid graph stay valid");
    }
    graph
}

/// The `(config, graph)` pair for edit `seed` of the sweep.
fn edited_input(
    base_config: &SynthesisConfig,
    base_graph: &SequencingGraph,
    seed: usize,
) -> (SynthesisConfig, SequencingGraph) {
    let mut config = base_config.clone();
    let mut graph = base_graph.clone();
    match edit_kind(seed) {
        "layout-config" => config.layout.channel_pitch += 1,
        "route-config" => config.synthesis.routing.max_deadline_overrun += 1,
        // Above the heuristic threshold the ILP limit is never consulted,
        // so this invalidates the schedule stage key without changing the
        // schedule — the warm hint then replays the whole architecture.
        "schedule-config" => config.ilp_time_limit += Duration::from_secs(1),
        _ => graph = edit_operation(base_graph, seed),
    }
    (config, graph)
}

/// Runs one `(config, graph)` input against `store` (cold without one),
/// returning the outcome key, the reuse receipt and the wall seconds.
fn run_once(
    name: &str,
    config: &SynthesisConfig,
    graph: SequencingGraph,
    store: Option<&StageCaches>,
) -> Result<(String, StageReuse, f64), BenchError> {
    let flow = SynthesisFlow::new(config.clone());
    let problem = flow.problem_for(graph);
    let controller = FlowController::new();
    let started = Instant::now();
    let (outcome, reuse) = match store {
        Some(store) => flow.run_problem_staged(problem, &controller, store),
        None => flow
            .run_problem_with(problem, &controller)
            .map(|outcome| (outcome, StageReuse::default())),
    }
    .map_err(|error| BenchError::Synthesis {
        name: name.to_owned(),
        error,
    })?;
    let seconds = started.elapsed().as_secs_f64();
    Ok((outcome.output_key(), reuse, seconds))
}

/// Runs the sweep: per assay, one base run to prime the store, then `edits`
/// single edits, each synthesized cold and warm.
///
/// # Errors
///
/// Returns a [`BenchError`] for unknown assay names and synthesis failures.
pub fn editloop_rows(assays: &[&str], edits: usize) -> Result<Vec<EditLoopRow>, BenchError> {
    let mut rows = Vec::with_capacity(assays.len() * edits);
    for &name in assays {
        let graph = library::by_name(name).ok_or_else(|| BenchError::UnknownBenchmark {
            name: name.to_owned(),
            known: library::NAMED_ASSAYS.iter().map(|(n, _)| *n).collect(),
        })?;
        // The same 8-mixer inventory as the cold pipeline sweep. The scale
        // assays are far above the ILP threshold, so the Auto scheduler
        // resolves to the deterministic storage-aware heuristic — a
        // precondition for byte-identical warm/cold comparison.
        let config = SynthesisConfig::default().with_mixers(8);
        let store = StageCaches::new(ServeOptions::default().cache_capacity);
        run_once(name, &config, graph.clone(), Some(&store))?;
        for seed in 0..edits {
            let (edited_config, edited_graph) = edited_input(&config, &graph, seed);
            let (cold_key, _, cold_seconds) =
                run_once(name, &edited_config, edited_graph.clone(), None)?;
            let (warm_key, reuse, warm_seconds) =
                run_once(name, &edited_config, edited_graph, Some(&store))?;
            rows.push(EditLoopRow {
                assay: name.to_owned(),
                edit: edit_kind(seed).to_owned(),
                seed,
                cold_seconds,
                warm_seconds,
                speedup: if warm_seconds > 0.0 {
                    cold_seconds / warm_seconds
                } else {
                    1.0
                },
                schedule_reuse: reuse.schedule.name().to_owned(),
                architecture_reuse: reuse.architecture.name().to_owned(),
                placement_reused: reuse.placement_reused,
                tasks_replayed: reuse.tasks_replayed,
                tasks_total: reuse.tasks_total,
                identical: warm_key == cold_key,
                output_key_cold: cold_key,
                output_key_warm: warm_key,
            });
        }
    }
    Ok(rows)
}

/// Verifies that every warm run reproduced its cold run's output key — the
/// CI gate that fails the bench job when a warm start changes the answer.
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn assert_editloop_identity(rows: &[EditLoopRow]) -> Result<(), String> {
    for row in rows {
        if !row.identical {
            return Err(format!(
                "{} edit {} ({}): warm output [{}] differs from cold output [{}] — \
                 warm-start synthesis must be byte-identical",
                row.assay, row.seed, row.edit, row.output_key_warm, row.output_key_cold
            ));
        }
    }
    Ok(())
}

/// Formats the sweep as an aligned text table.
#[must_use]
pub fn format_editloop(rows: &[EditLoopRow]) -> String {
    let mut out = String::from(
        "assay     edit             cold(s)   warm(s)   speedup  sched  arch   replayed     identical\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:<16} {:<9.4} {:<9.4} {:<8.2} {:<6} {:<6} {:<12} {}\n",
            r.assay,
            r.edit,
            r.cold_seconds,
            r.warm_seconds,
            r.speedup,
            r.schedule_reuse,
            r.architecture_reuse,
            format!("{}/{}", r.tasks_replayed, r.tasks_total),
            r.identical,
        ));
    }
    out
}

/// Formats the sweep as CSV.
#[must_use]
pub fn editloop_csv(rows: &[EditLoopRow]) -> String {
    let mut out = String::from(
        "assay,edit,seed,cold_seconds,warm_seconds,speedup,schedule_reuse,architecture_reuse,placement_reused,tasks_replayed,tasks_total,output_key_cold,output_key_warm,identical\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{:.6},{:.6},{:.3},{},{},{},{},{},{},{},{}\n",
            r.assay,
            r.edit,
            r.seed,
            r.cold_seconds,
            r.warm_seconds,
            r.speedup,
            r.schedule_reuse,
            r.architecture_reuse,
            r.placement_reused,
            r.tasks_replayed,
            r.tasks_total,
            r.output_key_cold,
            r.output_key_warm,
            r.identical,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ra30_edit_loop_is_byte_identical_and_reuses_stages() {
        // RA30 (30 device operations, above the ILP threshold) keeps the
        // debug-build test fast while exercising every edit kind once plus
        // one op edit.
        let rows = editloop_rows(&["RA30"], 4).unwrap();
        assert_eq!(rows.len(), 4);
        assert_editloop_identity(&rows).unwrap();
        let by_kind = |kind: &str| {
            rows.iter()
                .find(|r| r.edit == kind)
                .unwrap_or_else(|| panic!("{kind} row missing"))
        };
        // Layout edit: both upstream stages served by exact key hits.
        let layout = by_kind("layout-config");
        assert_eq!(layout.schedule_reuse, "hit");
        assert_eq!(layout.architecture_reuse, "hit");
        // Route edit: schedule hits, the architecture re-runs.
        let route = by_kind("route-config");
        assert_eq!(route.schedule_reuse, "hit");
        assert_ne!(route.architecture_reuse, "hit");
        // Schedule-slice edit: the schedule recomputes to the same result,
        // so the warm hint replays the full architecture.
        let sched = by_kind("schedule-config");
        assert_eq!(sched.schedule_reuse, "miss");
        assert_eq!(sched.architecture_reuse, "warm");
        assert_eq!(sched.tasks_replayed, sched.tasks_total);
        assert!(sched.placement_reused);
        // Op edit: everything misses by key, reuse comes from prefix replay.
        let op = by_kind("op-duration");
        assert_eq!(op.schedule_reuse, "miss");
        assert!(op.tasks_total > 0);
        // Rendering smoke checks + JSON round-trip.
        let table = format_editloop(&rows);
        assert!(table.contains("RA30"));
        assert_eq!(editloop_csv(&rows).lines().count(), rows.len() + 1);
        let json = biochip_json::Serialize::to_json(&rows[0]);
        let back: EditLoopRow = biochip_json::Deserialize::from_json(&json).unwrap();
        assert_eq!(back, rows[0]);
    }

    #[test]
    fn divergent_keys_fail_the_identity_gate() {
        let mut rows = editloop_rows(&["RA30"], 1).unwrap();
        rows[0].identical = false;
        rows[0].output_key_warm = "deadbeefdeadbeef".to_owned();
        let err = assert_editloop_identity(&rows).unwrap_err();
        assert!(err.contains("byte-identical"), "{err}");
        assert!(err.contains("RA30"), "{err}");
    }

    #[test]
    fn unknown_assays_error_cleanly() {
        let err = editloop_rows(&["NOPE"], 1).unwrap_err();
        assert!(matches!(err, BenchError::UnknownBenchmark { .. }));
    }
}
