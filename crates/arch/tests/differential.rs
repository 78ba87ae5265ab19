//! Differential harness: the indexed staged router against the pre-refactor
//! router's committed results.
//!
//! The goldens below were produced by the original implementation
//! (linear-scan `ReservationTable`, full-grid store scans, pairwise
//! `verify`) immediately before the indexed rewrite, on the exact seeded
//! pool defined by [`differential_cases`] and on the paper's Table 2
//! benchmarks. The refactored router must keep every case semantically
//! valid (`Architecture::verify`) with used-edge and valve counts **no
//! worse** than the old router produced — the refactor is allowed to find
//! better chips, never worse ones.

use biochip_arch::{extract_transport_tasks, ArchitectureSynthesizer, SynthesisOptions};
use biochip_assay::random::{self, RandomAssayConfig};
use biochip_assay::{library, SequencingGraph};
use biochip_schedule::{ListScheduler, Schedule, ScheduleProblem, Scheduler, SchedulingStrategy};

/// Assay sizes of the differential pool (mirrors the scheduler's own
/// differential suite: small enough that the pre-refactor router handled
/// every case).
const CASE_SIZES: [usize; 10] = [3, 4, 5, 6, 3, 4, 5, 7, 4, 12];

/// Pre-refactor results per case: `(case, transport_tasks, (n_e, n_v))`.
/// Regenerate only when intentionally re-baselining, with the commit *before*
/// the change under test.
const GOLDEN: [(u64, usize, (usize, usize)); 50] = [
    (0, 0, (0, 0)),
    (1, 1, (2, 2)),
    (2, 1, (2, 2)),
    (3, 0, (0, 0)),
    (4, 0, (0, 0)),
    (5, 2, (6, 8)),
    (6, 0, (0, 0)),
    (7, 4, (5, 7)),
    (8, 1, (2, 2)),
    (9, 0, (0, 0)),
    (10, 0, (0, 0)),
    (11, 1, (2, 2)),
    (12, 0, (0, 0)),
    (13, 5, (16, 26)),
    (14, 0, (0, 0)),
    (15, 0, (0, 0)),
    (16, 2, (4, 6)),
    (17, 2, (4, 4)),
    (18, 0, (0, 0)),
    (19, 7, (10, 15)),
    (20, 0, (0, 0)),
    (21, 0, (0, 0)),
    (22, 0, (0, 0)),
    (23, 1, (2, 2)),
    (24, 0, (0, 0)),
    (25, 1, (2, 2)),
    (26, 2, (4, 4)),
    (27, 0, (0, 0)),
    (28, 1, (2, 2)),
    (29, 7, (17, 27)),
    (30, 0, (0, 0)),
    (31, 0, (0, 0)),
    (32, 2, (6, 8)),
    (33, 0, (0, 0)),
    (34, 0, (0, 0)),
    (35, 1, (2, 2)),
    (36, 0, (0, 0)),
    (37, 1, (2, 2)),
    (38, 1, (2, 2)),
    (39, 0, (0, 0)),
    (40, 0, (0, 0)),
    (41, 1, (2, 2)),
    (42, 0, (0, 0)),
    (43, 4, (8, 12)),
    (44, 0, (0, 0)),
    (45, 0, (0, 0)),
    (46, 0, (0, 0)),
    (47, 1, (2, 2)),
    (48, 0, (0, 0)),
    (49, 4, (5, 7)),
];

/// Pre-refactor Table 2 benchmark results with the fixed inventory below:
/// `(name, transport_tasks, n_e, n_v)`.
const PAPER_GOLDEN: [(&str, usize, usize, usize); 6] = [
    ("RA100", 97, 40, 67),
    ("RA70", 87, 62, 108),
    ("CPA", 35, 10, 10),
    ("RA30", 34, 55, 96),
    ("IVD", 8, 12, 16),
    ("PCR", 4, 6, 6),
];

fn differential_case(case: u64) -> (ScheduleProblem, Schedule) {
    let ops = CASE_SIZES[case as usize % CASE_SIZES.len()];
    let graph = random::generate(&RandomAssayConfig::new(ops, 0xA2C4 + case).with_layer_width(3));
    let mixers = 1 + (case as usize) % 3;
    let uc = 1 + case % 7;
    let problem = ScheduleProblem::new(graph)
        .with_mixers(mixers)
        .with_detectors(1)
        .with_transport_time(uc);
    let schedule = ListScheduler::new(SchedulingStrategy::StorageAware)
        .schedule(&problem)
        .unwrap_or_else(|e| panic!("case {case}: scheduling failed: {e}"));
    (problem, schedule)
}

fn paper_case(graph: SequencingGraph) -> (ScheduleProblem, Schedule) {
    let problem = ScheduleProblem::new(graph)
        .with_mixers(4)
        .with_detectors(2)
        .with_heaters(1);
    let schedule = ListScheduler::new(SchedulingStrategy::StorageAware)
        .schedule(&problem)
        .expect("paper benchmarks schedule");
    (problem, schedule)
}

#[test]
fn seeded_small_assays_stay_no_worse_than_the_pre_refactor_goldens() {
    for (case, golden_tasks, golden) in GOLDEN {
        let (problem, schedule) = differential_case(case);
        let tasks = extract_transport_tasks(&problem, &schedule);
        assert_eq!(
            tasks.len(),
            golden_tasks,
            "case {case}: transport-task extraction diverged from the golden run"
        );
        let (golden_edges, golden_valves) = golden;
        let arch = ArchitectureSynthesizer::new(SynthesisOptions::default())
            .synthesize(&problem, &schedule)
            .unwrap_or_else(|e| {
                panic!("case {case}: the pre-refactor router synthesized this, new one failed: {e}")
            });
        arch.verify()
            .unwrap_or_else(|e| panic!("case {case}: verify failed: {e}"));
        assert!(
            arch.used_edge_count() <= golden_edges,
            "case {case}: n_e regressed: {} > golden {golden_edges}",
            arch.used_edge_count()
        );
        assert!(
            arch.valve_count() <= golden_valves,
            "case {case}: n_v regressed: {} > golden {golden_valves}",
            arch.valve_count()
        );
        // Every routed task matches an extracted task and storage pairs up.
        assert_eq!(arch.routes().len(), tasks.len(), "case {case}");
    }
}

#[test]
fn paper_benchmarks_stay_no_worse_than_the_pre_refactor_goldens() {
    for (name, golden_tasks, golden_edges, golden_valves) in PAPER_GOLDEN {
        let graph = library::paper_benchmarks()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, g)| g)
            .expect("benchmark exists");
        let (problem, schedule) = paper_case(graph);
        let tasks = extract_transport_tasks(&problem, &schedule);
        assert_eq!(
            tasks.len(),
            golden_tasks,
            "{name}: task extraction diverged"
        );
        let arch = ArchitectureSynthesizer::new(SynthesisOptions::default())
            .synthesize(&problem, &schedule)
            .unwrap_or_else(|e| panic!("{name}: synthesis failed: {e}"));
        arch.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            arch.used_edge_count() <= golden_edges,
            "{name}: n_e regressed: {} > golden {golden_edges}",
            arch.used_edge_count()
        );
        assert!(
            arch.valve_count() <= golden_valves,
            "{name}: n_v regressed: {} > golden {golden_valves}",
            arch.valve_count()
        );
    }
}

#[test]
fn single_start_parallel_synthesis_reproduces_the_pre_parallel_goldens() {
    // K = 1 multi-start must reproduce the committed pre-parallel results
    // exactly — the default `starts: 1` runs the historical RNG stream —
    // and the thread count must not matter either: the same `(n_e, n_v)`
    // bounds that pin the sequential synthesizer pin the 8-thread one.
    use biochip_arch::Parallelism;
    for (name, golden_tasks, golden_edges, golden_valves) in PAPER_GOLDEN {
        let graph = library::paper_benchmarks()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, g)| g)
            .expect("benchmark exists");
        let (problem, schedule) = paper_case(graph);
        assert_eq!(
            extract_transport_tasks(&problem, &schedule).len(),
            golden_tasks,
            "{name}"
        );
        let sequential = ArchitectureSynthesizer::new(SynthesisOptions::default())
            .synthesize(&problem, &schedule)
            .unwrap_or_else(|e| panic!("{name}: sequential synthesis failed: {e}"));
        let threaded = ArchitectureSynthesizer::new(SynthesisOptions::default())
            .with_parallelism(Parallelism::with_threads(8))
            .synthesize(&problem, &schedule)
            .unwrap_or_else(|e| panic!("{name}: threaded synthesis failed: {e}"));
        assert_eq!(
            threaded, sequential,
            "{name}: 8-thread chip differs from the sequential chip"
        );
        assert!(threaded.used_edge_count() <= golden_edges, "{name}");
        assert!(threaded.valve_count() <= golden_valves, "{name}");
    }
}

#[test]
fn refactored_router_is_deterministic_across_the_pool() {
    for case in [5, 13, 19, 29, 43] {
        let (problem, schedule) = differential_case(case);
        let a = ArchitectureSynthesizer::new(SynthesisOptions::default())
            .synthesize(&problem, &schedule)
            .unwrap();
        let b = ArchitectureSynthesizer::new(SynthesisOptions::default())
            .synthesize(&problem, &schedule)
            .unwrap();
        assert_eq!(a, b, "case {case}: synthesis must be deterministic");
    }
}
