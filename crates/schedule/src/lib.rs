//! Scheduling and binding of bioassay operations with storage minimization.
//!
//! This crate implements Section 3.1 of the paper: operations of a sequencing
//! graph are assigned to devices and time slots so that the assay execution
//! time `t_E` *and* the total lifetime of intermediate fluid samples (which
//! determines how much storage the chip needs) are minimized together,
//! weighted by `α` and `β` (eq. 6 of the paper).
//!
//! Two engines are provided:
//!
//! * [`IlpScheduler`] — the exact ILP formulation of Table 1 (uniqueness,
//!   duration, precedence, non-overlap) plus the makespan/storage objective,
//!   solved with the in-repo [`biochip_ilp`] branch & bound. Intended for
//!   small assays and for validating the heuristic.
//! * [`ListScheduler`] — a storage-aware list scheduler that scales to the
//!   larger benchmarks (the paper itself falls back to 30-minute best-effort
//!   Gurobi runs there). Its [`SchedulingStrategy::MakespanOnly`] mode is the
//!   "optimize execution time only" baseline of Fig. 9.
//!
//! The output of both engines is a [`Schedule`], from which the storage
//! requirements (store/fetch events, concurrent-storage peak) are derived for
//! architectural synthesis.
//!
//! # Scale workloads
//!
//! The paper's evaluation stops at 100-operation assays; this crate is built
//! to go far beyond it. The [`ListScheduler`] loop keeps an indexed ready
//! queue (a binary heap keyed by downstream critical path, maintained
//! incrementally via pending-parent counters) and per-device availability
//! timelines ([`DeviceTimelines`]), so its cost is linear in graph size for
//! bounded-width assays instead of the seed's quadratic rebuild — a
//! 10,000-operation random assay (`biochip_assay::random::ra10k`) schedules
//! in well under a second in release mode. See the [`ListScheduler`] module
//! documentation for the exact per-step complexity and the deterministic
//! tie-breaking order, and `biochip bench pipeline` for the measured
//! trajectory (`BENCH_pipeline.json`: schedule seconds per assay size).
//!
//! # Example
//!
//! ```
//! use biochip_assay::library;
//! use biochip_schedule::{ListScheduler, ScheduleProblem, Scheduler, SchedulingStrategy};
//!
//! let problem = ScheduleProblem::new(library::pcr())
//!     .with_mixers(2)
//!     .with_transport_time(5);
//! let schedule = ListScheduler::new(SchedulingStrategy::StorageAware).schedule(&problem)?;
//! assert!(schedule.validate(&problem).is_ok());
//! assert!(schedule.makespan() >= 180); // critical path of PCR
//! # Ok::<(), biochip_schedule::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod ilp_scheduler;
mod list_scheduler;
mod problem;
mod schedule;
mod storage;
mod timeline;

pub use biochip_ilp::{SolveStatus, SolverOptions};
pub use error::ScheduleError;
pub use ilp_scheduler::{weighted_objective, IlpOutcome, IlpScheduler};
pub use list_scheduler::{ListScheduler, SchedulingStrategy};
pub use problem::{Device, DeviceId, ScheduleProblem};
pub use schedule::{Schedule, ScheduleMetrics, ScheduledOperation};
pub use storage::{concurrent_storage_profile, max_concurrent_storage, StorageRequirement};
pub use timeline::{DeviceTimeline, DeviceTimelines};

use biochip_assay::Seconds;

/// Common interface of the scheduling engines.
pub trait Scheduler {
    /// Computes a schedule for the given problem.
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] if the problem is malformed (no devices of
    /// a required class, invalid graph) or, for the ILP engine, if the solver
    /// fails to find a feasible solution within its limits.
    fn schedule(&self, problem: &ScheduleProblem) -> Result<Schedule, ScheduleError>;
}

/// Schedules with the engine best suited to the problem size: the exact ILP
/// for assays with at most `ilp_threshold` device operations, the
/// storage-aware list scheduler otherwise.
///
/// # Errors
///
/// Propagates errors from the selected engine.
pub fn schedule_auto(
    problem: &ScheduleProblem,
    ilp_threshold: usize,
    time_limit: std::time::Duration,
) -> Result<Schedule, ScheduleError> {
    if problem.graph().device_operations().len() <= ilp_threshold {
        let options = biochip_ilp::SolverOptions::default().with_time_limit(time_limit);
        IlpScheduler::new(options).schedule(problem)
    } else {
        ListScheduler::new(SchedulingStrategy::StorageAware).schedule(problem)
    }
}

/// Default pure transportation time `u_c` between two devices, in seconds.
///
/// The paper treats this as a small constant compared to operation durations.
pub const DEFAULT_TRANSPORT_SECONDS: Seconds = 5;
