//! Property: the full cold pipeline is **byte-identical** across thread
//! counts.
//!
//! The thread count (multi-start placement workers; routing is sequential)
//! must never change a result — only how fast it is found. For a seeded
//! pool of 20 random assays, the serialized `SynthesisReport` (wall times
//! stripped; they are the only nondeterministic fields), the architecture
//! and the replay must match byte for byte between `threads = 1`, `2` and
//! `8` — including on a single-core host, where 8 placement workers merely
//! interleave.

use biochip_synth::arch::Parallelism;
use biochip_synth::assay::random::{self, RandomAssayConfig};
use biochip_synth::{SchedulerChoice, SynthesisConfig, SynthesisFlow, SynthesisOutcome};

/// Assay sizes of the determinism pool (mirrors the differential suites:
/// small enough to stay fast in debug CI, varied enough to cover direct,
/// store and fetch routing plus multi-window staggering).
const CASE_SIZES: [usize; 10] = [3, 5, 8, 12, 4, 9, 15, 6, 20, 10];

fn case_config(case: u64) -> (RandomAssayConfig, SynthesisConfig) {
    let ops = CASE_SIZES[case as usize % CASE_SIZES.len()];
    let assay = RandomAssayConfig::new(ops, 0x9A7A + case).with_layer_width(3);
    let mut config = SynthesisConfig::default()
        .with_mixers(1 + (case as usize) % 3)
        .with_detectors(1)
        // The heuristic scheduler keeps a 60-case pool fast; the scheduler
        // is untouched by this PR and sequential either way.
        .with_scheduler(SchedulerChoice::StorageAware);
    // Half the pool runs the multi-start annealer so its (cost, start)
    // reduction is exercised, not just the K = 1 legacy stream.
    if case % 2 == 1 {
        config.synthesis.placement.starts = 3;
    }
    (assay, config)
}

fn run_case(case: u64, threads: usize) -> SynthesisOutcome {
    let (assay, config) = case_config(case);
    let flow = SynthesisFlow::new(config.with_parallelism(Parallelism::with_threads(threads)));
    flow.run(random::generate(&assay))
        .unwrap_or_else(|e| panic!("case {case} at {threads} thread(s): {e}"))
}

/// The byte-comparable serialization of an outcome: every field that is a
/// pure function of the input (i.e. everything except wall times).
fn fingerprint(outcome: &SynthesisOutcome) -> String {
    biochip_json::to_string_pretty(&biochip_json::Json::object([
        (
            "report",
            biochip_json::Serialize::to_json(&outcome.report.without_timings()),
        ),
        (
            "schedule",
            biochip_json::Serialize::to_json(&outcome.schedule),
        ),
        (
            "architecture",
            biochip_json::Serialize::to_json(&outcome.architecture),
        ),
        (
            "execution",
            biochip_json::Serialize::to_json(&outcome.execution),
        ),
    ]))
}

#[test]
fn report_json_is_byte_identical_for_threads_1_2_8_across_20_seeded_assays() {
    for case in 0..20u64 {
        let baseline = run_case(case, 1);
        let baseline_bytes = fingerprint(&baseline);
        for threads in [2, 8] {
            let threaded = run_case(case, threads);
            assert_eq!(
                threaded.architecture, baseline.architecture,
                "case {case}: architecture diverged at {threads} thread(s)"
            );
            assert_eq!(
                fingerprint(&threaded),
                baseline_bytes,
                "case {case}: serialized outcome diverged at {threads} thread(s)"
            );
        }
    }
}

#[test]
fn auto_parallelism_matches_sequential_too() {
    // `threads: 0` resolves to the host's core count — whatever that is,
    // the result must still be the sequential one.
    let sequential = run_case(7, 1);
    let (assay, config) = case_config(7);
    let auto = SynthesisFlow::new(config.with_parallelism(Parallelism::auto()))
        .run(random::generate(&assay))
        .unwrap();
    assert_eq!(fingerprint(&auto), fingerprint(&sequential));
}
