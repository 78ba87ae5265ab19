//! Replay of a synthesized chip against its schedule.

use serde::{Deserialize, Serialize};

use biochip_arch::Architecture;
use biochip_assay::Seconds;
use biochip_schedule::{Schedule, ScheduleProblem};

/// Result of replaying a synthesized chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Execution time of the schedule itself (`t_E`).
    pub schedule_makespan: Seconds,
    /// Effective execution time on the synthesized chip: the schedule
    /// makespan plus the largest transport postponement the router had to
    /// introduce (zero for conflict-free syntheses).
    pub effective_makespan: Seconds,
    /// Number of transportation paths replayed.
    pub transports: usize,
    /// Number of samples cached in channel segments.
    pub channel_cached_samples: usize,
    /// Total time samples spent resting in channel segments.
    pub total_channel_storage_time: Seconds,
    /// Peak number of samples resting in channel segments simultaneously.
    pub peak_channel_storage: usize,
    /// Whether any replay quantity was inconsistent with the problem (an
    /// inverted storage interval, more cached samples than the sequencing
    /// graph has dependencies, ...) and had to be clamped. A healthy
    /// pipeline always produces `false`; `true` means a routing regression
    /// is hiding upstream and must not be masked by the clamp.
    ///
    /// Reports written before the field existed lack it, and the schema tag
    /// of the surrounding pipeline document is unchanged
    /// (`biochip-pipeline/v1`), so an absent `clamped` reads as `false`.
    #[serde(default)]
    pub clamped: bool,
}

/// The maximum number of intervals `[from, until)` active at one instant.
///
/// An interval releases *before* a coincident acquisition counts: a sample
/// leaving a channel segment at `t` and another arriving at `t` never
/// occupy storage simultaneously. Inverted (`until < from`) and empty
/// intervals contribute nothing.
#[must_use]
pub fn peak_concurrent<I>(intervals: I) -> usize
where
    I: IntoIterator<Item = (Seconds, Seconds)>,
{
    let mut events: Vec<(Seconds, i64)> = Vec::new();
    for (from, until) in intervals {
        if until > from {
            events.push((from, 1));
            events.push((until, -1));
        }
    }
    // Tuple order sorts the -1 (release) ahead of the +1 (store) at equal
    // instants, which is exactly the coincident-event semantics above.
    events.sort_unstable();
    let mut active = 0i64;
    let mut peak = 0i64;
    for (_, delta) in events {
        active += delta;
        peak = peak.max(active);
    }
    peak.max(0) as usize
}

/// Replays the architecture against the schedule it was synthesized from.
///
/// The replay checks nothing that [`Architecture::verify`] has not already
/// established structurally; it aggregates the timing picture a chip
/// controller would see: when samples move, how long they rest in channel
/// segments, and how much the execution is prolonged by transports that had
/// to be postponed. Inconsistent inputs (inverted storage intervals, counts
/// exceeding what the problem allows) are clamped to their bounds and
/// flagged via [`ExecutionReport::clamped`] instead of silently corrected.
#[must_use]
pub fn replay(
    problem: &ScheduleProblem,
    schedule: &Schedule,
    architecture: &Architecture,
) -> ExecutionReport {
    let schedule_makespan = schedule.makespan();
    let effective_makespan = schedule_makespan + architecture.max_transport_postponement();

    let storage_routes = architecture.storage_routes();
    let channel_cached_samples = storage_routes.len();
    let mut total_storage = 0;
    let mut inconsistent = false;
    let mut intervals = Vec::with_capacity(storage_routes.len());
    for route in &storage_routes {
        if let Some((from, until)) = route.task.storage_interval {
            if until < from {
                // An inverted interval is a router bug, not a zero-length
                // store; record it instead of letting saturating arithmetic
                // swallow it.
                inconsistent = true;
                continue;
            }
            total_storage += until - from;
            intervals.push((from, until));
        }
    }
    let peak = peak_concurrent(intervals);

    ExecutionReport {
        schedule_makespan,
        effective_makespan,
        transports: architecture.routes().len(),
        channel_cached_samples,
        total_channel_storage_time: total_storage,
        peak_channel_storage: peak,
        clamped: inconsistent,
    }
    .clamp_to_problem(problem)
}

impl ExecutionReport {
    /// Efficiency of channel caching relative to an ideal chip without any
    /// transport overhead (1.0 means no postponement at all).
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        if self.effective_makespan == 0 {
            return 1.0;
        }
        self.schedule_makespan as f64 / self.effective_makespan as f64
    }

    /// Clamps every quantity to the bounds implied by the problem, setting
    /// [`ExecutionReport::clamped`] whenever a bound actually fired.
    ///
    /// Bounds enforced: the effective makespan cannot undercut the schedule
    /// makespan, at most one sample can be cached per sequencing-graph
    /// dependency, the storage peak cannot exceed the number of cached
    /// samples, and the accumulated storage time fits `samples × makespan`.
    fn clamp_to_problem(mut self, problem: &ScheduleProblem) -> Self {
        if self.effective_makespan < self.schedule_makespan {
            self.effective_makespan = self.schedule_makespan;
            self.clamped = true;
        }
        let max_cached = problem.graph().edges().len();
        if self.channel_cached_samples > max_cached {
            self.channel_cached_samples = max_cached;
            self.clamped = true;
        }
        if self.peak_channel_storage > self.channel_cached_samples {
            self.peak_channel_storage = self.channel_cached_samples;
            self.clamped = true;
        }
        let max_total =
            (self.channel_cached_samples as Seconds).saturating_mul(self.effective_makespan);
        if self.total_channel_storage_time > max_total {
            self.total_channel_storage_time = max_total;
            self.clamped = true;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biochip_arch::{ArchitectureSynthesizer, SynthesisOptions};
    use biochip_assay::library;
    use biochip_schedule::{ListScheduler, Scheduler};

    fn setup(graph: biochip_assay::SequencingGraph) -> (ScheduleProblem, Schedule, Architecture) {
        let problem = ScheduleProblem::new(graph)
            .with_mixers(2)
            .with_detectors(1)
            .with_transport_time(5);
        let schedule = ListScheduler::default().schedule(&problem).unwrap();
        let arch = ArchitectureSynthesizer::new(SynthesisOptions::default())
            .synthesize(&problem, &schedule)
            .unwrap();
        (problem, schedule, arch)
    }

    #[test]
    fn replay_of_pcr_matches_schedule() {
        let (problem, schedule, arch) = setup(library::pcr());
        let report = replay(&problem, &schedule, &arch);
        assert_eq!(report.schedule_makespan, schedule.makespan());
        assert!(report.effective_makespan >= report.schedule_makespan);
        assert_eq!(report.transports, arch.routes().len());
        assert!(report.efficiency() <= 1.0);
        assert!(report.efficiency() > 0.0);
        assert!(!report.clamped, "a healthy pipeline never clamps");
    }

    #[test]
    fn channel_storage_counts_match_the_schedule() {
        let (problem, schedule, arch) = setup(library::ivd());
        let report = replay(&problem, &schedule, &arch);
        let expected = schedule.storage_requirements(&problem).len();
        assert_eq!(report.channel_cached_samples, expected);
        assert!(!report.clamped);
        if expected > 0 {
            assert!(report.total_channel_storage_time > 0);
            assert!(report.peak_channel_storage >= 1);
        }
    }

    #[test]
    fn conflict_free_synthesis_has_full_efficiency() {
        let (problem, schedule, arch) = setup(library::pcr());
        let report = replay(&problem, &schedule, &arch);
        if arch.transport_postponement() == 0 {
            assert_eq!(report.effective_makespan, report.schedule_makespan);
            assert!((report.efficiency() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn peak_counts_overlapping_intervals() {
        assert_eq!(peak_concurrent([]), 0);
        assert_eq!(peak_concurrent([(0, 10)]), 1);
        assert_eq!(peak_concurrent([(0, 10), (5, 15), (9, 12)]), 3);
        assert_eq!(peak_concurrent([(0, 5), (10, 15)]), 1);
    }

    #[test]
    fn coincident_release_and_store_do_not_stack() {
        // Sample A leaves its segment at t=10 exactly when sample B arrives:
        // the peak is 1, not 2 — intervals are half-open.
        assert_eq!(peak_concurrent([(0, 10), (10, 20)]), 1);
        // Same instant, three-deep chain.
        assert_eq!(peak_concurrent([(0, 10), (10, 20), (20, 30)]), 1);
        // A genuine one-second overlap does stack.
        assert_eq!(peak_concurrent([(0, 11), (10, 20)]), 2);
        // Zero-length and inverted intervals occupy nothing.
        assert_eq!(peak_concurrent([(10, 10), (20, 5)]), 0);
    }

    #[test]
    fn inconsistent_reports_are_clamped_and_flagged() {
        let (problem, ..) = setup(library::pcr());
        let edges = problem.graph().edges().len();
        let report = ExecutionReport {
            schedule_makespan: 100,
            effective_makespan: 50, // below the schedule: impossible
            transports: 3,
            channel_cached_samples: edges + 7, // more samples than dependencies
            total_channel_storage_time: 1_000_000,
            peak_channel_storage: edges + 9,
            clamped: false,
        }
        .clamp_to_problem(&problem);
        assert!(report.clamped);
        assert_eq!(report.effective_makespan, 100);
        assert_eq!(report.channel_cached_samples, edges);
        assert_eq!(report.peak_channel_storage, edges);
        assert!(report.total_channel_storage_time <= edges as Seconds * 100);
    }

    #[test]
    fn legacy_reports_without_the_clamped_field_still_deserialize() {
        // The shape serialized by the previous binary: same pipeline schema
        // tag, no `clamped` key.
        let number = |n: u64| serde::Json::Number(n as f64);
        let legacy = serde::Json::object([
            ("schedule_makespan", number(100)),
            ("effective_makespan", number(110)),
            ("transports", number(3)),
            ("channel_cached_samples", number(1)),
            ("total_channel_storage_time", number(40)),
            ("peak_channel_storage", number(1)),
        ]);
        let report: ExecutionReport = Deserialize::from_json(&legacy).unwrap();
        assert!(!report.clamped);
        assert_eq!(report.schedule_makespan, 100);
        // The streaming reader defaults the field the same way.
        let text = legacy.to_compact();
        assert_eq!(biochip_json::from_str::<ExecutionReport>(&text), Ok(report));
        // A present `clamped` of the wrong kind is an error naming it.
        let bad = text.replacen('{', "{\"clamped\":1,", 1);
        let err = biochip_json::from_str::<ExecutionReport>(&bad).unwrap_err();
        assert!(err.to_string().contains("clamped"), "{err}");

        // A report written by this binary round-trips the flag.
        let mut current = report;
        current.clamped = true;
        let back: ExecutionReport = Deserialize::from_json(&Serialize::to_json(&current)).unwrap();
        assert_eq!(back, current);
    }

    #[test]
    fn consistent_reports_pass_through_unclamped() {
        let (problem, ..) = setup(library::pcr());
        let report = ExecutionReport {
            schedule_makespan: 100,
            effective_makespan: 110,
            transports: 3,
            channel_cached_samples: 1,
            total_channel_storage_time: 40,
            peak_channel_storage: 1,
            clamped: false,
        };
        let clamped = report.clamp_to_problem(&problem);
        assert_eq!(clamped, report);
        assert!(!clamped.clamped);
    }
}
