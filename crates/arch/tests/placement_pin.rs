//! Pins the annealer's exact placements on the paper's six assays.
//!
//! Each assay is scheduled with `StorageAware` under its Table 2 inventory
//! ([`biochip_bench::paper_configs`]), and its transport tasks are placed at
//! default options on grid sides 6, 7 and 8 (the spacing-2 lattice) and 12
//! and 20 (the spacing-4 lattice). The expected device → node tables were
//! recorded from the original `HashSet`-occupancy annealer, so any change to
//! the annealer's RNG stream or move pricing shows up here as a diff.

use biochip_arch::{extract_transport_tasks, place_devices, ConnectionGrid, PlacementOptions};
use biochip_schedule::{ListScheduler, Scheduler, SchedulingStrategy};
use biochip_synth::SynthesisFlow;

const SIDES: [usize; 5] = [6, 7, 8, 12, 20];

/// `(assay, device nodes per side in SIDES order)`.
const PINS: &[(&str, [&[usize]; 5])] = &[
    (
        "RA100",
        [
            &[16, 28, 26, 14, 2, 4, 12],
            &[18, 32, 30, 16, 2, 4, 14],
            &[34, 32, 16, 18, 22, 0, 54],
            &[56, 104, 100, 52, 4, 8, 48],
            &[172, 252, 248, 168, 88, 92, 164],
        ],
    ),
    (
        "RA70",
        [
            &[14, 26, 12, 24, 16, 28, 0],
            &[32, 18, 30, 16, 42, 20, 14],
            &[36, 20, 38, 22, 54, 4, 52],
            &[52, 100, 48, 96, 56, 104, 0],
            &[84, 4, 88, 8, 332, 96, 12],
        ],
    ),
    (
        "CPA",
        [
            &[14, 16, 26, 4, 28, 2, 12],
            &[16, 18, 30, 4, 32, 2, 14],
            &[22, 38, 20, 34, 36, 6, 52],
            &[52, 56, 100, 8, 104, 4, 48],
            &[168, 172, 248, 92, 252, 88, 164],
        ],
    ),
    (
        "RA30",
        [
            &[26, 14, 16, 28, 2, 4],
            &[30, 16, 18, 32, 2, 4],
            &[34, 36, 20, 38, 52, 4],
            &[100, 52, 56, 104, 4, 8],
            &[248, 168, 172, 252, 88, 92],
        ],
    ),
    (
        "IVD",
        [
            &[28, 24, 14, 16, 26, 2],
            &[32, 28, 16, 18, 30, 2],
            &[4, 18, 36, 20, 34, 38],
            &[104, 96, 52, 56, 100, 4],
            &[252, 244, 168, 172, 248, 88],
        ],
    ),
    (
        "PCR",
        [
            &[14, 16, 26, 28, 2],
            &[16, 18, 30, 32, 2],
            &[36, 20, 34, 38, 52],
            &[52, 56, 100, 104, 4],
            &[168, 172, 248, 252, 88],
        ],
    ),
];

/// `(assay, side, device nodes)` with `starts = 4` and 200 moves per start:
/// a case where a later start beats start 0, so every start's stream counts.
const MULTI_START_PIN: (&str, usize, &[usize]) = ("RA100", 8, &[16, 18, 34, 32, 50, 4, 36]);

fn tasks_of(name: &str) -> (usize, Vec<biochip_arch::TransportTask>) {
    let (_, graph, config) = biochip_bench::paper_configs()
        .into_iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is a paper assay"));
    let problem = SynthesisFlow::new(config).problem_for(graph);
    let schedule = ListScheduler::new(SchedulingStrategy::StorageAware)
        .schedule(&problem)
        .unwrap_or_else(|e| panic!("{name}: scheduling failed: {e}"));
    (
        problem.devices().len(),
        extract_transport_tasks(&problem, &schedule),
    )
}

fn nodes(
    side: usize,
    devices: usize,
    tasks: &[biochip_arch::TransportTask],
    options: &PlacementOptions,
) -> Vec<usize> {
    place_devices(&ConnectionGrid::square(side), devices, tasks, options)
        .unwrap_or_else(|e| panic!("side {side}: placement failed: {e}"))
        .device_nodes()
        .iter()
        .map(|n| n.index())
        .collect()
}

#[test]
fn paper_assay_placements_are_pinned() {
    let mut actual = Vec::new();
    for (name, _, _) in biochip_bench::paper_configs() {
        let (devices, tasks) = tasks_of(name);
        let per_side: Vec<Vec<usize>> = SIDES
            .iter()
            .map(|&side| nodes(side, devices, &tasks, &PlacementOptions::default()))
            .collect();
        actual.push((name, per_side));
    }
    let expected: Vec<(&str, Vec<Vec<usize>>)> = PINS
        .iter()
        .map(|(name, sides)| (*name, sides.iter().map(|s| s.to_vec()).collect()))
        .collect();
    assert_eq!(
        actual, expected,
        "placements diverged from the pinned annealer"
    );
}

#[test]
fn multi_start_placement_is_pinned() {
    let (name, side, expected) = MULTI_START_PIN;
    let (devices, tasks) = tasks_of(name);
    let options = PlacementOptions {
        starts: 4,
        annealing_moves: 200,
        ..PlacementOptions::default()
    };
    assert_eq!(nodes(side, devices, &tasks, &options), expected);
}
