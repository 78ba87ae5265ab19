//! The JSON pipeline-state document exchanged between stage commands.
//!
//! `biochip schedule` writes a [`PipelineState`] holding the problem and the
//! schedule; `biochip synth` reads it and adds the architecture and physical
//! design; `biochip simulate` completes it with the execution reports and the
//! Table-2 summary. `biochip run --full` emits the complete document in one
//! go. Later server/sharding work can stream these same documents between
//! workers.

use serde::{Deserialize, Serialize};
use std::time::Duration;

use biochip_arch::Architecture;
use biochip_layout::PhysicalDesign;
use biochip_schedule::{Schedule, ScheduleProblem};
use biochip_sim::{DedicatedExecutionReport, ExecutionReport};

use crate::{SynthesisConfig, SynthesisOutcome, SynthesisReport};

/// Wall-clock runtimes of the stages executed so far, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StageTimings {
    /// Scheduling runtime.
    pub scheduling: Duration,
    /// Architectural-synthesis runtime.
    pub architecture: Duration,
    /// Physical-design runtime.
    pub layout: Duration,
}

/// Snapshot of the pipeline after some prefix of stages has run.
///
/// Every stage command deserializes the document, checks that the stages it
/// needs are present, and appends its own results. The `schema` field guards
/// against feeding a document from an incompatible future format version.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineState {
    /// Format version tag, currently [`PipelineState::SCHEMA`].
    pub schema: String,
    /// Assay name (duplicated from the problem for quick inspection).
    pub assay: String,
    /// The flow configuration the pipeline runs under.
    pub config: SynthesisConfig,
    /// Stage runtimes accumulated so far.
    pub timings: StageTimings,
    /// Scheduling problem (assay + device inventory). Present from the
    /// `schedule` stage onwards.
    pub problem: Option<ScheduleProblem>,
    /// The computed schedule.
    pub schedule: Option<Schedule>,
    /// The synthesized architecture.
    pub architecture: Option<Architecture>,
    /// The physical design.
    pub layout: Option<PhysicalDesign>,
    /// Replay of the synthesized chip.
    pub execution: Option<ExecutionReport>,
    /// The dedicated-storage baseline.
    pub dedicated_baseline: Option<DedicatedExecutionReport>,
    /// The Table-2-style summary row.
    pub report: Option<SynthesisReport>,
}

impl PipelineState {
    /// The current schema tag written into every document.
    pub const SCHEMA: &'static str = "biochip-pipeline/v1";

    /// A fresh document for one assay and configuration.
    #[must_use]
    pub fn new(assay: impl Into<String>, config: SynthesisConfig) -> Self {
        PipelineState {
            schema: Self::SCHEMA.to_owned(),
            assay: assay.into(),
            config,
            timings: StageTimings::default(),
            problem: None,
            schedule: None,
            architecture: None,
            layout: None,
            execution: None,
            dedicated_baseline: None,
            report: None,
        }
    }

    /// A complete document from a full-flow outcome.
    #[must_use]
    pub fn from_outcome(config: SynthesisConfig, outcome: &SynthesisOutcome) -> Self {
        let mut state = PipelineState::new(outcome.problem.graph().name().to_owned(), config);
        state.timings = StageTimings {
            scheduling: outcome.report.scheduling_time,
            architecture: outcome.report.architecture_time,
            layout: outcome.report.layout_time,
        };
        state.problem = Some(outcome.problem.clone());
        state.schedule = Some(outcome.schedule.clone());
        state.architecture = Some(outcome.architecture.clone());
        state.layout = Some(outcome.layout.clone());
        state.execution = Some(outcome.execution);
        state.dedicated_baseline = Some(outcome.dedicated_baseline);
        state.report = Some(outcome.report.clone());
        state
    }

    /// Parses a document from JSON text, checking the schema tag.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or a schema mismatch.
    pub fn from_json_text(text: &str, origin: &str) -> Result<Self, String> {
        let state: PipelineState = biochip_json::from_str(text)
            .map_err(|e| format!("`{origin}` is not a pipeline state: {e}"))?;
        if state.schema != Self::SCHEMA {
            // Distinguish "a pipeline state from another format version"
            // from "some other document entirely" — the fixes differ.
            let hint = if state.schema.starts_with("biochip-pipeline/") {
                "; re-run the earlier stages with this binary"
            } else {
                "; this does not look like a stage handoff document"
            };
            return Err(format!(
                "`{origin}` has schema `{}`, expected `{}`{hint}",
                state.schema,
                Self::SCHEMA
            ));
        }
        Ok(state)
    }

    /// Serializes the document as pretty JSON.
    #[must_use]
    pub fn to_json_text(&self) -> String {
        biochip_json::to_string_pretty(self)
    }

    /// The problem, or an error naming the stage that should have produced
    /// it.
    ///
    /// # Errors
    ///
    /// Returns a message if the field is absent.
    pub fn require_problem(&self) -> Result<&ScheduleProblem, String> {
        self.problem
            .as_ref()
            .ok_or_else(|| "state has no problem; run `biochip schedule` first".to_owned())
    }

    /// The schedule, or an error naming the stage that should have produced
    /// it.
    ///
    /// # Errors
    ///
    /// Returns a message if the field is absent.
    pub fn require_schedule(&self) -> Result<&Schedule, String> {
        self.schedule
            .as_ref()
            .ok_or_else(|| "state has no schedule; run `biochip schedule` first".to_owned())
    }

    /// The architecture, or an error naming the stage that should have
    /// produced it.
    ///
    /// # Errors
    ///
    /// Returns a message if the field is absent.
    pub fn require_architecture(&self) -> Result<&Architecture, String> {
        self.architecture
            .as_ref()
            .ok_or_else(|| "state has no architecture; run `biochip synth` first".to_owned())
    }

    /// The physical design, or an error naming the stage that should have
    /// produced it.
    ///
    /// # Errors
    ///
    /// Returns a message if the field is absent.
    pub fn require_layout(&self) -> Result<&PhysicalDesign, String> {
        self.layout
            .as_ref()
            .ok_or_else(|| "state has no layout; run `biochip synth` first".to_owned())
    }
}
