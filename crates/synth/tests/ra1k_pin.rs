//! Pin: RA1K at the command-line defaults yields one known chip with one
//! known amount of router work.
//!
//! The `output_key` fixes the chip (report without timings, schedule,
//! architecture and replay); the router counters fix how much search it
//! took to find it. Any refactor of the router must keep both exactly —
//! a changed key is a different chip, a changed counter is different
//! search effort — unless the change is a deliberate, reported re-bless.

use biochip_synth::assay::random::ra1k;
use biochip_synth::{SchedulerChoice, SynthesisConfig, SynthesisFlow};

#[test]
fn ra1k_chip_and_router_work_are_pinned() {
    let config = SynthesisConfig::default()
        .with_mixers(8)
        .with_scheduler(SchedulerChoice::StorageAware);
    let outcome = SynthesisFlow::new(config)
        .run(ra1k())
        .expect("RA1K synthesizes");
    let report = &outcome.report;
    let work = [
        ("grids_tried", report.grids_tried),
        (
            "tasks_routed",
            outcome.architecture.stats().router.tasks_routed,
        ),
        ("windows_tried", report.windows_tried),
        ("path_searches", report.path_searches),
        ("nodes_expanded", report.nodes_expanded),
        ("segments_priced", report.segments_priced),
        ("postponed_tasks", report.postponed_transports),
    ];
    assert_eq!(outcome.output_key(), "6de828242c0aa6b9");
    assert_eq!(
        work,
        [
            ("grids_tried", 1),
            ("tasks_routed", 2_123),
            ("windows_tried", 2_231),
            ("path_searches", 2_692),
            ("nodes_expanded", 175_904),
            ("segments_priced", 83_590),
            ("postponed_tasks", 78),
        ]
    );
}
