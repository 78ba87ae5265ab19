//! Property: telemetry is **determinism-neutral**.
//!
//! The spans sprinkled through the pipeline observe; they never steer.
//! Running the same cold synthesis with collection disabled, with
//! collection enabled, and with collection enabled plus trace export must
//! produce byte-identical results — the serialized outcome (wall times
//! stripped) and the bench-style content key may not move by a single
//! byte. The collected trace, meanwhile, must actually cover the pipeline:
//! every top-level stage and every router sub-stage shows up as a span.

use biochip_synth::assay::library;
use biochip_synth::{SynthesisConfig, SynthesisFlow, SynthesisOutcome};
use biochip_telemetry as telemetry;

/// The bench pipeline's RA1K configuration (8 mixers, one thread).
fn run_ra1k() -> SynthesisOutcome {
    let graph = library::by_name("RA1K").expect("RA1K is a library assay");
    let flow = SynthesisFlow::new(SynthesisConfig::default().with_mixers(8));
    flow.run(graph).expect("RA1K synthesizes")
}

/// The byte-comparable serialization of an outcome: every field that is a
/// pure function of the input (everything except wall times).
fn fingerprint(outcome: &SynthesisOutcome) -> String {
    biochip_json::to_string_pretty(&fingerprint_json(outcome))
}

fn fingerprint_json(outcome: &SynthesisOutcome) -> biochip_json::Json {
    biochip_json::Json::object([
        (
            "report",
            biochip_json::Serialize::to_json(&outcome.report.without_timings()),
        ),
        (
            "schedule",
            biochip_json::Serialize::to_json(&outcome.schedule),
        ),
        (
            "execution",
            biochip_json::Serialize::to_json(&outcome.execution),
        ),
    ])
}

/// The content key `biochip bench pipeline` publishes as `output_key`.
fn output_key(outcome: &SynthesisOutcome) -> String {
    format!(
        "{:016x}",
        biochip_json::canonical_hash(&fingerprint_json(outcome))
    )
}

#[test]
fn collection_and_trace_export_never_change_a_result_byte() {
    // Collection off: the production default.
    assert!(!telemetry::enabled(), "collection must default to off");
    let off = run_ra1k();

    // Collection on: every span is recorded.
    let (on, events) = telemetry::with_collection(run_ra1k);
    assert!(!telemetry::enabled(), "with_collection must restore off");
    assert!(!events.is_empty(), "an instrumented run must emit spans");

    // Collection on *and* exported, as `biochip run --trace` does.
    let (exported, export_events) = telemetry::with_collection(run_ra1k);
    let trace = telemetry::chrome_trace_json(&export_events);

    let baseline = fingerprint(&off);
    assert_eq!(baseline, fingerprint(&on), "collection changed the result");
    assert_eq!(
        baseline,
        fingerprint(&exported),
        "trace export changed the result"
    );
    assert_eq!(output_key(&off), output_key(&on));
    assert_eq!(output_key(&off), output_key(&exported));

    // The trace is a valid Chrome trace_event document covering every
    // pipeline stage and every router sub-stage.
    assert!(trace.starts_with("{\"traceEvents\":["));
    for name in [
        "schedule",
        "place",
        "route",
        "layout",
        "replay",
        "route.window_select",
        "route.path_search",
        "route.commit",
        "router.stats",
    ] {
        assert!(
            trace.contains(&format!("{{\"name\":\"{name}\",")),
            "trace is missing span `{name}`"
        );
    }
}
