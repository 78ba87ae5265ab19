//! The JSON pipeline-state document exchanged between stage commands.
//!
//! `biochip schedule` writes a [`PipelineState`] holding the problem and the
//! schedule; `biochip synth` reads it and adds the architecture and physical
//! design; `biochip simulate` completes it with the execution reports and the
//! Table-2 summary. `biochip run --full` emits the complete document in one
//! go. The type lives in `biochip-synth`, beside the outcome it is built
//! from, so the pipeline bench times the same hand-off document.

pub use biochip_synth::{PipelineState, StageTimings};

#[cfg(test)]
mod tests {
    use super::*;
    use biochip_synth::{SynthesisConfig, SynthesisFlow};

    #[test]
    fn fresh_state_round_trips() {
        let state = PipelineState::new("PCR", SynthesisConfig::default());
        let text = state.to_json_text();
        let back = PipelineState::from_json_text(&text, "test").unwrap();
        assert_eq!(back.assay, "PCR");
        assert_eq!(back.config, state.config);
        assert!(back.problem.is_none());
        assert!(back.require_schedule().is_err());
    }

    #[test]
    fn full_outcome_round_trips() {
        let config = SynthesisConfig::default().with_mixers(2);
        let outcome = SynthesisFlow::new(config.clone())
            .run(biochip_synth::assay::library::pcr())
            .unwrap();
        let state = PipelineState::from_outcome(config, &outcome);
        let back = PipelineState::from_json_text(&state.to_json_text(), "test").unwrap();
        assert_eq!(back.report.as_ref().unwrap(), &outcome.report);
        assert_eq!(back.schedule.as_ref().unwrap(), &outcome.schedule);
        assert_eq!(
            back.architecture.as_ref().unwrap().valve_count(),
            outcome.architecture.valve_count()
        );
        assert!(back.require_problem().is_ok());
        assert!(back.require_layout().is_ok());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut state = PipelineState::new("PCR", SynthesisConfig::default());
        state.schema = "biochip-pipeline/v999".to_owned();
        let err = PipelineState::from_json_text(&state.to_json_text(), "f.json").unwrap_err();
        assert!(err.contains("schema"));
    }
}
