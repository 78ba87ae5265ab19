//! Property: warm-start synthesis is **byte-identical** to cold synthesis.
//!
//! A staged store (cached schedules/architectures, warm placement + route
//! replay) must never change a result — only how fast it is found. For a
//! seeded pool of edit scenarios, each case synthesizes a base input to
//! prime a [`StageCaches`] store — the one `biochip serve` runs, at its
//! default capacity, so the shared routing-oracle cache is covered too —
//! applies one edit, and runs the edited input both cold (no store) and
//! warm (primed store): the two `output_key`s — the canonical hash of the
//! timing- and effort-stripped report, the schedule and the replay — must
//! match byte for byte.
//!
//! The edit pool cycles the four localization classes:
//!
//! * an **operation edit** (one duration bumped) — every stage key
//!   changes; reuse comes from the warm prefix replay;
//! * a **routing edit** — invalidates only the route stage: the schedule
//!   must be served by an exact stage-key hit;
//! * a **scheduling edit** (ILP limit, inert under the forced heuristic) —
//!   invalidates only the schedule stage key; the recomputed schedule is
//!   identical, so the warm hint must replay the entire architecture;
//! * a **layout edit** — both upstream stages must hit.

use biochip_synth::assay::random::{self, RandomAssayConfig};
use biochip_synth::assay::SequencingGraph;
use biochip_synth::{
    FlowController, ReuseKind, SchedulerChoice, StageCaches, StageKeys, StageReuse,
    SynthesisConfig, SynthesisFlow, SynthesisOutcome,
};

/// `biochip serve`'s default `--cache-capacity`.
const STORE_CAPACITY: usize = 64;

/// Assay sizes of the edit pool (mirrors the parallel-determinism suite:
/// fast in debug CI, varied enough to cover direct, store and fetch
/// routing). Every size is above the default ILP threshold or paired with
/// the forced heuristic scheduler, so scheduling is deterministic.
const CASE_SIZES: [usize; 8] = [5, 9, 14, 7, 18, 11, 22, 16];

fn case_config(case: u64) -> (RandomAssayConfig, SynthesisConfig) {
    let ops = CASE_SIZES[case as usize % CASE_SIZES.len()];
    let assay = RandomAssayConfig::new(ops, 0x5EED + case).with_layer_width(3);
    let config = SynthesisConfig::default()
        .with_mixers(1 + (case as usize) % 3)
        .with_detectors(1)
        // Deterministic heuristic scheduling: the ILP under a wall-clock
        // limit is machine-dependent, which would break byte comparison.
        .with_scheduler(SchedulerChoice::StorageAware);
    (assay, config)
}

/// Rebuilds `base` with one operation's duration bumped (seeded pick).
fn bump_one_duration(base: &SequencingGraph, seed: u64) -> SequencingGraph {
    let targets: Vec<_> = base
        .iter()
        .filter(|(_, op)| op.duration > 0)
        .map(|(id, _)| id)
        .collect();
    let pick = targets[seed as usize % targets.len()];
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

/// The edited `(config, graph)` of one case, cycling the four classes.
fn edited_input(
    case: u64,
    base_config: &SynthesisConfig,
    base_graph: &SequencingGraph,
) -> (&'static str, SynthesisConfig, SequencingGraph) {
    let mut config = base_config.clone();
    let mut graph = base_graph.clone();
    let kind = match case % 4 {
        0 => {
            graph = bump_one_duration(base_graph, case / 4);
            "op-duration"
        }
        1 => {
            config.synthesis.routing.max_deadline_overrun += 1 + case / 4;
            "route-config"
        }
        2 => {
            config.ilp_time_limit += std::time::Duration::from_secs(1 + case / 4);
            "schedule-config"
        }
        _ => {
            config.layout.channel_pitch += 1 + case / 4;
            "layout-config"
        }
    };
    (kind, config, graph)
}

fn run_cold(config: &SynthesisConfig, graph: SequencingGraph) -> SynthesisOutcome {
    SynthesisFlow::new(config.clone())
        .run(graph)
        .expect("seeded case synthesizes")
}

fn run_staged(
    config: &SynthesisConfig,
    graph: SequencingGraph,
    store: &StageCaches,
) -> (SynthesisOutcome, StageReuse) {
    let flow = SynthesisFlow::new(config.clone());
    let problem = flow.problem_for(graph);
    flow.run_problem_staged(problem, &FlowController::new(), store)
        .expect("seeded case synthesizes")
}

#[test]
fn warm_output_keys_match_cold_across_24_seeded_edit_scenarios() {
    for case in 0..24u64 {
        let (assay, base_config) = case_config(case);
        let base_graph = random::generate(&assay);
        let store = StageCaches::new(STORE_CAPACITY);
        let (base_outcome, _) = run_staged(&base_config, base_graph.clone(), &store);
        let (kind, config, graph) = edited_input(case, &base_config, &base_graph);

        let cold = run_cold(&config, graph.clone());
        let (warm, reuse) = run_staged(&config, graph, &store);
        assert_eq!(
            warm.output_key(),
            cold.output_key(),
            "case {case} ({kind}): warm output diverged from cold"
        );
        // The architecture compares piecewise: routes, placement and kept
        // edges must match exactly; the search-effort counters in its stats
        // legitimately differ (replay does not search), which is precisely
        // what `output_key` strips.
        assert_eq!(
            warm.architecture.routes(),
            cold.architecture.routes(),
            "case {case} ({kind}): warm routes diverged from cold"
        );
        assert_eq!(
            warm.architecture.placement(),
            cold.architecture.placement(),
            "case {case} ({kind}): warm placement diverged from cold"
        );

        // The reuse receipt must reflect the edit's localization class.
        match kind {
            "layout-config" => {
                assert_eq!(reuse.schedule, ReuseKind::Hit, "case {case}");
                assert_eq!(reuse.architecture, ReuseKind::Hit, "case {case}");
            }
            "route-config" => {
                assert_eq!(reuse.schedule, ReuseKind::Hit, "case {case}");
                assert_ne!(reuse.architecture, ReuseKind::Hit, "case {case}");
            }
            "schedule-config" => {
                // The key changed, so the schedule recomputes — to the same
                // result, which the warm hint then replays in full.
                assert_eq!(reuse.schedule, ReuseKind::Miss, "case {case}");
                assert_eq!(warm.schedule, base_outcome.schedule, "case {case}");
                assert_eq!(reuse.architecture, ReuseKind::Warm, "case {case}");
                assert_eq!(reuse.tasks_replayed, reuse.tasks_total, "case {case}");
            }
            _ => {
                assert_eq!(reuse.schedule, ReuseKind::Miss, "case {case}");
                assert_ne!(warm.schedule, base_outcome.schedule, "case {case}");
            }
        }
    }
}

#[test]
fn edits_invalidate_exactly_the_stage_keys_they_touch() {
    for case in 0..8u64 {
        let (assay, base_config) = case_config(case);
        let base_graph = random::generate(&assay);
        let flow = SynthesisFlow::new(base_config.clone());
        let base_keys = StageKeys::derive(&base_config, &flow.problem_for(base_graph.clone()));
        let (kind, config, graph) = edited_input(case, &base_config, &base_graph);
        let keys = StageKeys::derive(
            &config,
            &SynthesisFlow::new(config.clone()).problem_for(graph),
        );
        assert_ne!(keys.full, base_keys.full, "case {case} ({kind})");
        match kind {
            "layout-config" => {
                assert_eq!(keys.route, base_keys.route, "case {case}");
            }
            "route-config" => {
                assert_eq!(keys.placement, base_keys.placement, "case {case}");
                assert_ne!(keys.route, base_keys.route, "case {case}");
            }
            "schedule-config" => {
                assert_eq!(keys.problem, base_keys.problem, "case {case}");
                assert_ne!(keys.schedule, base_keys.schedule, "case {case}");
            }
            _ => {
                assert_ne!(keys.problem, base_keys.problem, "case {case}");
            }
        }
    }
}

#[test]
fn resubmitting_the_identical_input_replays_everything() {
    let (assay, config) = case_config(3);
    let graph = random::generate(&assay);
    let store = StageCaches::new(STORE_CAPACITY);
    let (first, first_reuse) = run_staged(&config, graph.clone(), &store);
    assert_eq!(first_reuse.schedule, ReuseKind::Miss);
    let (second, reuse) = run_staged(&config, graph, &store);
    // Identical input: the schedule and the architecture are exact hits.
    assert_eq!(reuse.schedule, ReuseKind::Hit);
    assert_eq!(reuse.architecture, ReuseKind::Hit);
    assert_eq!(second.output_key(), first.output_key());
    assert_eq!(second.architecture, first.architecture);
}
