//! End-to-end synthesis flow for flow-based microfluidic biochips with
//! distributed channel storage.
//!
//! This is the facade crate of the workspace: it wires the individual stages
//! together into the pipeline of the paper —
//!
//! ```text
//! sequencing graph ──► scheduling & binding ──► architectural synthesis
//!      (biochip-assay)     (biochip-schedule)        (biochip-arch)
//!                                                         │
//!                       execution reports ◄── physical design
//!                          (biochip-sim)       (biochip-layout)
//! ```
//!
//! and re-exports the sub-crate APIs so that downstream users only need one
//! dependency.
//!
//! Across runs the flow reuses work through one bounded store,
//! [`StageCaches`]: the schedule and architecture of earlier runs under
//! their chained stage keys ([`StageKeys`]) and the latest warm-start hint
//! per assay ([`WarmHandoff`]), each an LRU [`ResultCache`].
//!
//! # Quickstart
//!
//! ```
//! use biochip_synth::{SynthesisConfig, SynthesisFlow};
//! use biochip_synth::assay::library;
//!
//! let flow = SynthesisFlow::new(SynthesisConfig::default().with_mixers(2));
//! let outcome = flow.run(library::pcr())?;
//! assert!(outcome.architecture.used_edge_count() > 0);
//! println!("{}", outcome.report);
//! # Ok::<(), biochip_synth::FlowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod flow;
mod report;
mod stages;
mod state;

pub use cache::{CacheStats, OracleStats, ResultCache, StageCaches, StageCachesStats};
pub use flow::{
    FlowController, FlowError, FlowStage, SchedulerChoice, StageTiming, SynthesisConfig,
    SynthesisFlow, SynthesisOutcome,
};
pub use report::SynthesisReport;
pub use stages::{ReuseKind, StageKeys, StageReuse, WarmHandoff};
pub use state::{PipelineState, StageTimings};

/// Re-export of the architectural-synthesis crate.
pub use biochip_arch as arch;
/// Re-export of the sequencing-graph crate.
pub use biochip_assay as assay;
/// Re-export of the MILP solver crate.
pub use biochip_ilp as ilp;
/// Re-export of the physical-design crate.
pub use biochip_layout as layout;
/// Re-export of the scheduling crate.
pub use biochip_schedule as schedule;
/// Re-export of the simulation crate.
pub use biochip_sim as sim;
