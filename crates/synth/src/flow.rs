//! The end-to-end synthesis pipeline.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use biochip_telemetry as telemetry;

use biochip_arch::{
    ArchError, Architecture, ArchitectureSynthesizer, Parallelism, SynthesisOptions, WarmStart,
};
use biochip_assay::{Seconds, SequencingGraph};
use biochip_layout::{generate_layout, LayoutOptions, PhysicalDesign};
use biochip_schedule::{
    IlpScheduler, ListScheduler, Schedule, ScheduleError, ScheduleProblem, Scheduler,
    SchedulingStrategy,
};
use biochip_sim::{replay, simulate_dedicated_storage, DedicatedExecutionReport, ExecutionReport};

use crate::cache::StageCaches;
use crate::report::SynthesisReport;
use crate::stages::{ReuseKind, StageKeys, StageReuse, WarmHandoff};

/// Which scheduling engine the flow uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulerChoice {
    /// Exact ILP for small assays, storage-aware list scheduling otherwise
    /// (threshold: 12 device operations).
    #[default]
    Auto,
    /// Always the exact ILP scheduler (only sensible for small assays).
    Ilp,
    /// Always the storage-aware list scheduler.
    StorageAware,
    /// The makespan-only list scheduler (the Fig. 9 baseline without storage
    /// optimization).
    MakespanOnly,
}

/// Configuration of the end-to-end flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesisConfig {
    /// Number of mixers on the chip.
    pub mixers: usize,
    /// Number of detectors on the chip.
    pub detectors: usize,
    /// Number of heaters on the chip.
    pub heaters: usize,
    /// Device-to-device transport time `u_c` in seconds.
    pub transport_time: Seconds,
    /// Weight of the execution time in the scheduling objective (`α`).
    pub alpha: f64,
    /// Weight of the storage term in the scheduling objective (`β`).
    pub beta: f64,
    /// Scheduling engine.
    pub scheduler: SchedulerChoice,
    /// Wall-clock limit for the ILP scheduler.
    pub ilp_time_limit: Duration,
    /// Largest assay (device operations) the `Auto` scheduler hands to the
    /// ILP engine.
    pub ilp_threshold: usize,
    /// Architectural-synthesis options.
    pub synthesis: SynthesisOptions,
    /// Physical-design options.
    pub layout: LayoutOptions,
    /// Intra-job parallelism. Never changes the synthesized result — only
    /// how many cores a cold run uses — and is therefore excluded from the
    /// job service's content keys (a result computed at any thread count
    /// answers submissions at every other).
    ///
    /// Documents from before intra-job parallelism existed lack the field;
    /// those jobs were sequential, which is exactly the default.
    #[serde(default)]
    pub parallelism: Parallelism,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            mixers: 2,
            detectors: 2,
            heaters: 1,
            transport_time: biochip_schedule::DEFAULT_TRANSPORT_SECONDS,
            alpha: 1000.0,
            beta: 1.0,
            scheduler: SchedulerChoice::Auto,
            ilp_time_limit: Duration::from_secs(15),
            ilp_threshold: 8,
            synthesis: SynthesisOptions::default(),
            layout: LayoutOptions::default(),
            parallelism: Parallelism::default(),
        }
    }
}

impl SynthesisConfig {
    /// Sets the mixer count.
    #[must_use]
    pub fn with_mixers(mut self, mixers: usize) -> Self {
        self.mixers = mixers.max(1);
        self
    }

    /// Sets the detector count.
    #[must_use]
    pub fn with_detectors(mut self, detectors: usize) -> Self {
        self.detectors = detectors;
        self
    }

    /// Sets the heater count.
    #[must_use]
    pub fn with_heaters(mut self, heaters: usize) -> Self {
        self.heaters = heaters;
        self
    }

    /// Chooses the scheduling engine.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerChoice) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the transport time `u_c`.
    #[must_use]
    pub fn with_transport_time(mut self, seconds: Seconds) -> Self {
        self.transport_time = seconds;
        self
    }

    /// Sets the intra-job parallelism policy (`threads`; 0 = all cores).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// Errors of the end-to-end flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// Scheduling failed.
    Schedule(ScheduleError),
    /// Architectural synthesis failed.
    Architecture(ArchError),
    /// The run was cancelled through its [`FlowController`]; the stage
    /// recorded is the one that would have run next.
    Cancelled(FlowStage),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            FlowError::Architecture(e) => write!(f, "architectural synthesis failed: {e}"),
            FlowError::Cancelled(stage) => {
                write!(f, "synthesis cancelled before the {stage} stage")
            }
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Schedule(e) => Some(e),
            FlowError::Architecture(e) => Some(e),
            FlowError::Cancelled(_) => None,
        }
    }
}

impl From<ScheduleError> for FlowError {
    fn from(e: ScheduleError) -> Self {
        FlowError::Schedule(e)
    }
}

impl From<ArchError> for FlowError {
    fn from(e: ArchError) -> Self {
        FlowError::Architecture(e)
    }
}

/// The pipeline stage a monitored flow run is currently in.
///
/// Stages advance strictly in declaration order; [`FlowController::stage`]
/// is safe to poll from another thread while the flow runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub enum FlowStage {
    /// The run has not started yet.
    #[default]
    Pending,
    /// Scheduling & binding.
    Scheduling,
    /// Architectural synthesis (place & route).
    Architecture,
    /// Physical design.
    Layout,
    /// Replay / execution reports.
    Simulation,
    /// The run finished (successfully or not).
    Done,
}

impl FlowStage {
    const ALL: [FlowStage; 6] = [
        FlowStage::Pending,
        FlowStage::Scheduling,
        FlowStage::Architecture,
        FlowStage::Layout,
        FlowStage::Simulation,
        FlowStage::Done,
    ];

    /// A lowercase name for logs and status documents.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FlowStage::Pending => "pending",
            FlowStage::Scheduling => "scheduling",
            FlowStage::Architecture => "architecture",
            FlowStage::Layout => "layout",
            FlowStage::Simulation => "simulation",
            FlowStage::Done => "done",
        }
    }
}

impl fmt::Display for FlowStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared handle for observing and cancelling a flow run.
///
/// Create one, hand a reference to [`SynthesisFlow::run_with`] on a worker
/// thread, and poll [`stage`](FlowController::stage) / call
/// [`cancel`](FlowController::cancel) from anywhere else. Cancellation is
/// checked at stage boundaries — a running stage completes, the next one
/// never starts, and the run returns [`FlowError::Cancelled`] instead of
/// tearing anything down.
///
/// The controller also timestamps every stage entry, so a poller can read a
/// wall-clock [`timeline`](FlowController::timeline) of where the run spent
/// its time — the per-job stage timeline `GET /jobs/:id` serves. The
/// timeline is pure observation; nothing in the flow reads it back.
#[derive(Debug)]
pub struct FlowController {
    stage: AtomicU8,
    cancelled: AtomicBool,
    created: Instant,
    /// Per-stage entry timestamp, as `micros since created + 1` (0 = the
    /// stage was never entered).
    entered_micros: [AtomicU64; FlowStage::ALL.len()],
}

impl Default for FlowController {
    fn default() -> Self {
        FlowController {
            stage: AtomicU8::new(0),
            cancelled: AtomicBool::new(false),
            // biochip-lint: allow(D2, "controller birth time feeds the live job timeline only, never a report or content key")
            created: Instant::now(),
            entered_micros: Default::default(),
        }
    }
}

/// Wall-clock share of one pipeline stage in a [`FlowController`] timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTiming {
    /// The pipeline stage.
    pub stage: FlowStage,
    /// Seconds between entering this stage and entering the next one (or
    /// "now" while the stage is still running).
    pub seconds: f64,
}

impl FlowController {
    /// A fresh controller in the [`FlowStage::Pending`] stage.
    #[must_use]
    pub fn new() -> Self {
        FlowController::default()
    }

    /// A controller already in the [`FlowStage::Done`] stage — for work
    /// that never needs to run, e.g. a job answered from a result cache.
    #[must_use]
    pub fn finished() -> Self {
        let controller = FlowController::new();
        controller.mark(FlowStage::Done);
        controller
    }

    /// The stage the monitored run is currently in.
    #[must_use]
    pub fn stage(&self) -> FlowStage {
        FlowStage::ALL[self.stage.load(Ordering::Acquire) as usize]
    }

    /// Requests cancellation; the run stops at the next stage boundary.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Stores `stage` as current and timestamps its first entry.
    fn mark(&self, stage: FlowStage) {
        let micros = self.created.elapsed().as_micros() as u64;
        let slot = &self.entered_micros[stage as usize];
        let _ = slot.compare_exchange(0, micros + 1, Ordering::AcqRel, Ordering::Acquire);
        self.stage.store(stage as u8, Ordering::Release);
    }

    /// Records entry into `stage`, failing if cancellation was requested.
    fn enter(&self, stage: FlowStage) -> Result<(), FlowError> {
        if self.is_cancelled() && stage != FlowStage::Done {
            self.mark(FlowStage::Done);
            return Err(FlowError::Cancelled(stage));
        }
        self.mark(stage);
        Ok(())
    }

    /// Wall-clock durations of the pipeline stages entered so far, in stage
    /// order. A stage's share ends when the next entered stage begins; the
    /// currently running stage is measured up to "now". `Pending` and
    /// `Done` are bookkeeping states and are not reported, so a cached job
    /// (a [`finished`](FlowController::finished) controller) has an empty
    /// timeline.
    #[must_use]
    pub fn timeline(&self) -> Vec<StageTiming> {
        let entered: Vec<Option<u64>> = FlowStage::ALL
            .iter()
            .map(|&s| {
                let raw = self.entered_micros[s as usize].load(Ordering::Acquire);
                (raw > 0).then(|| raw - 1)
            })
            .collect();
        let now = self.created.elapsed().as_micros() as u64;
        let mut timeline = Vec::new();
        for (i, &stage) in FlowStage::ALL.iter().enumerate() {
            if stage == FlowStage::Pending || stage == FlowStage::Done {
                continue;
            }
            let Some(start) = entered[i] else { continue };
            let end = entered[i + 1..]
                .iter()
                .find_map(|&e| e)
                .unwrap_or(now)
                .max(start);
            timeline.push(StageTiming {
                stage,
                seconds: (end - start) as f64 / 1e6,
            });
        }
        timeline
    }
}

/// Everything the flow produces for one assay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesisOutcome {
    /// The scheduling problem (assay plus device inventory).
    pub problem: ScheduleProblem,
    /// The computed schedule.
    pub schedule: Schedule,
    /// The synthesized architecture.
    pub architecture: Architecture,
    /// The physical design.
    pub layout: PhysicalDesign,
    /// Replay of the synthesized chip.
    pub execution: ExecutionReport,
    /// The dedicated-storage baseline executing the same schedule.
    pub dedicated_baseline: DedicatedExecutionReport,
    /// The Table-2-style summary row.
    pub report: SynthesisReport,
}

impl SynthesisOutcome {
    /// The content identity of this run: the canonical hash of the
    /// timing- and search-effort-stripped `(report, schedule, execution)`
    /// triple, as hex. A pure function of the input problem and config —
    /// the byte-identity warm-start and cache paths are gated on.
    #[must_use]
    pub fn output_key(&self) -> String {
        crate::stages::output_key(self)
    }
}

/// The end-to-end synthesis flow.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SynthesisFlow {
    config: SynthesisConfig,
}

impl SynthesisFlow {
    /// Creates a flow with the given configuration.
    #[must_use]
    pub fn new(config: SynthesisConfig) -> Self {
        SynthesisFlow { config }
    }

    /// The flow configuration.
    #[must_use]
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// Builds the scheduling problem for an assay.
    #[must_use]
    pub fn problem_for(&self, graph: SequencingGraph) -> ScheduleProblem {
        ScheduleProblem::new(graph)
            .with_mixers(self.config.mixers)
            .with_detectors(self.config.detectors)
            .with_heaters(self.config.heaters)
            .with_transport_time(self.config.transport_time)
            .with_weights(self.config.alpha, self.config.beta)
    }

    /// Runs scheduling only.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Schedule`] when the problem is malformed or the
    /// selected engine fails.
    pub fn schedule(&self, problem: &ScheduleProblem) -> Result<Schedule, FlowError> {
        let ops = problem.graph().device_operations().len();
        let schedule = match self.config.scheduler {
            SchedulerChoice::Auto => {
                if ops <= self.config.ilp_threshold {
                    IlpScheduler::new(
                        biochip_ilp::SolverOptions::default()
                            .with_time_limit(self.config.ilp_time_limit),
                    )
                    .schedule(problem)?
                } else {
                    ListScheduler::new(SchedulingStrategy::StorageAware).schedule(problem)?
                }
            }
            SchedulerChoice::Ilp => IlpScheduler::new(
                biochip_ilp::SolverOptions::default().with_time_limit(self.config.ilp_time_limit),
            )
            .schedule(problem)?,
            SchedulerChoice::StorageAware => {
                ListScheduler::new(SchedulingStrategy::StorageAware).schedule(problem)?
            }
            SchedulerChoice::MakespanOnly => {
                ListScheduler::new(SchedulingStrategy::MakespanOnly).schedule(problem)?
            }
        };
        Ok(schedule)
    }

    /// Runs the complete pipeline on one assay.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and architectural-synthesis failures; physical
    /// design and simulation are total functions and cannot fail.
    pub fn run(&self, graph: SequencingGraph) -> Result<SynthesisOutcome, FlowError> {
        self.run_with(graph, &FlowController::new())
    }

    /// Runs the complete pipeline under an external [`FlowController`].
    ///
    /// The controller's stage advances as the run progresses, so another
    /// thread (the job service) can poll where a long synthesis currently
    /// is, and [`FlowController::cancel`] aborts the run at the next stage
    /// boundary. The controller ends in [`FlowStage::Done`] whether the run
    /// succeeds, fails or is cancelled.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and architectural-synthesis failures and
    /// returns [`FlowError::Cancelled`] when the controller was cancelled.
    pub fn run_with(
        &self,
        graph: SequencingGraph,
        controller: &FlowController,
    ) -> Result<SynthesisOutcome, FlowError> {
        self.run_problem_with(self.problem_for(graph), controller)
    }

    /// Like [`SynthesisFlow::run_with`], but starting from a fully built
    /// [`ScheduleProblem`] instead of deriving one from the flow's device
    /// counts. The job service, which accepts problem documents as
    /// submissions, runs the same pipeline through
    /// [`SynthesisFlow::run_problem_staged`].
    ///
    /// # Errors
    ///
    /// Propagates scheduling and architectural-synthesis failures and
    /// returns [`FlowError::Cancelled`] when the controller was cancelled.
    pub fn run_problem_with(
        &self,
        problem: ScheduleProblem,
        controller: &FlowController,
    ) -> Result<SynthesisOutcome, FlowError> {
        let result = self.run_stages(problem, controller, None);
        controller.mark(FlowStage::Done);
        result.map(|(outcome, _)| outcome)
    }

    /// Like [`SynthesisFlow::run_problem_with`], but against a
    /// [`StageCaches`] store that may satisfy whole stages from cached
    /// artifacts (exact stage-key hits) or shortcut the architecture stage
    /// with a warm-start hint (prior placement adopted, unchanged route
    /// prefix replayed). The run leaves its own artifacts and its warm hint
    /// in the store. The returned [`StageReuse`] is the receipt: which stage
    /// was served how.
    ///
    /// Reuse never changes the synthesized result — a staged run's
    /// [`SynthesisOutcome::output_key`] is byte-identical to the cold
    /// run's — only how much of it had to be recomputed.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and architectural-synthesis failures and
    /// returns [`FlowError::Cancelled`] when the controller was cancelled.
    pub fn run_problem_staged(
        &self,
        problem: ScheduleProblem,
        controller: &FlowController,
        store: &StageCaches,
    ) -> Result<(SynthesisOutcome, StageReuse), FlowError> {
        let result = self.run_stages(problem, controller, Some(store));
        controller.mark(FlowStage::Done);
        result
    }

    /// The pipeline, against `store` when there is one. Without a store no
    /// stage key is derived and the routing oracles are run-private.
    fn run_stages(
        &self,
        problem: ScheduleProblem,
        controller: &FlowController,
        store: Option<&StageCaches>,
    ) -> Result<(SynthesisOutcome, StageReuse), FlowError> {
        // biochip-lint: allow(D2, "stage wall times live in FlowTiming, excluded from output_key; without_timings is the byte-comparison form")
        let run_start = Instant::now();
        let staged = store.map(|store| (store, StageKeys::derive(&self.config, &problem)));
        let mut reuse = StageReuse::default();

        controller.enter(FlowStage::Scheduling)?;
        // biochip-lint: allow(D2, "stage wall times live in FlowTiming, excluded from output_key; without_timings is the byte-comparison form")
        let schedule_start = Instant::now();
        let cached = staged
            .as_ref()
            .and_then(|(store, keys)| store.schedule.get(&keys.schedule));
        let schedule = match cached {
            Some(cached) => {
                reuse.schedule = ReuseKind::Hit;
                cached
            }
            None => {
                let computed = {
                    let _span = telemetry::span("pipeline", "schedule");
                    Arc::new(self.schedule(&problem)?)
                };
                if let Some((store, keys)) = &staged {
                    store.schedule.insert(&keys.schedule, Arc::clone(&computed));
                }
                computed
            }
        };
        let scheduling_time = schedule_start.elapsed();

        controller.enter(FlowStage::Architecture)?;
        // biochip-lint: allow(D2, "stage wall times live in FlowTiming, excluded from output_key; without_timings is the byte-comparison form")
        let arch_start = Instant::now();
        let cached = staged
            .as_ref()
            .and_then(|(store, keys)| store.architecture.get(&keys.route));
        let architecture = match cached {
            Some(cached) => {
                reuse.architecture = ReuseKind::Hit;
                cached
            }
            None => {
                // The "place" and "route" spans are recorded inside the
                // synthesizer, once per grid attempt.
                let mut synthesizer = ArchitectureSynthesizer::new(self.config.synthesis.clone())
                    .with_parallelism(self.config.parallelism);
                if let Some((store, keys)) = &staged {
                    synthesizer = synthesizer
                        .with_oracle_cache(Arc::clone(&store.oracles))
                        .with_oracle_scope(keys.placement.clone());
                    if let Some(hint) = store.warm.get(problem.graph().name()) {
                        if let Some(warm) = WarmStart::from_prior(
                            &hint.problem,
                            &hint.schedule,
                            &hint.architecture,
                            &hint.synthesis,
                        ) {
                            synthesizer = synthesizer.with_warm_start(warm);
                        }
                    }
                }
                let (architecture, warm) =
                    synthesizer.synthesize_with_reuse(&problem, &schedule)?;
                if warm.placement_reused || warm.tasks_replayed > 0 {
                    reuse.architecture = ReuseKind::Warm;
                }
                reuse.placement_reused = warm.placement_reused;
                reuse.tasks_replayed = warm.tasks_replayed;
                reuse.tasks_total = warm.tasks_total;
                let architecture = Arc::new(architecture);
                if let Some((store, keys)) = &staged {
                    store
                        .architecture
                        .insert(&keys.route, Arc::clone(&architecture));
                }
                architecture
            }
        };
        let architecture_time = arch_start.elapsed();

        controller.enter(FlowStage::Layout)?;
        // biochip-lint: allow(D2, "stage wall times live in FlowTiming, excluded from output_key; without_timings is the byte-comparison form")
        let layout_start = Instant::now();
        let layout = {
            let _span = telemetry::span("pipeline", "layout");
            generate_layout(&architecture, &self.config.layout)
        };
        let layout_time = layout_start.elapsed();

        controller.enter(FlowStage::Simulation)?;
        let (execution, dedicated_baseline) = {
            let _span = telemetry::span("pipeline", "replay");
            let execution = replay(&problem, &schedule, &architecture);
            let dedicated = simulate_dedicated_storage(&problem, &schedule);
            (execution, dedicated)
        };

        let report = SynthesisReport::collect(
            &problem,
            &schedule,
            &architecture,
            &layout,
            &execution,
            &dedicated_baseline,
            scheduling_time,
            architecture_time,
            layout_time,
        );

        reuse.seconds = run_start.elapsed().as_secs_f64();
        telemetry::instant(
            "pipeline",
            "stage.reuse",
            &[
                ("schedule_hit", u64::from(reuse.schedule == ReuseKind::Hit)),
                ("arch_hit", u64::from(reuse.architecture == ReuseKind::Hit)),
                (
                    "arch_warm",
                    u64::from(reuse.architecture == ReuseKind::Warm),
                ),
                ("placement_reused", u64::from(reuse.placement_reused)),
                ("tasks_replayed", reuse.tasks_replayed as u64),
                ("tasks_total", reuse.tasks_total as u64),
            ],
        );

        if let Some((store, _)) = &staged {
            let handoff = WarmHandoff {
                problem: problem.clone(),
                schedule: Arc::clone(&schedule),
                architecture: Arc::clone(&architecture),
                synthesis: self.config.synthesis.clone(),
            };
            store.warm.insert(problem.graph().name(), Arc::new(handoff));
        }
        let outcome = SynthesisOutcome {
            schedule: Arc::try_unwrap(schedule).unwrap_or_else(|arc| (*arc).clone()),
            architecture: Arc::try_unwrap(architecture).unwrap_or_else(|arc| (*arc).clone()),
            problem,
            layout,
            execution,
            dedicated_baseline,
            report,
        };
        Ok((outcome, reuse))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biochip_assay::library;

    #[test]
    fn default_flow_runs_pcr_end_to_end() {
        let flow = SynthesisFlow::new(SynthesisConfig::default().with_mixers(2));
        let outcome = flow.run(library::pcr()).unwrap();
        assert!(outcome.schedule.validate(&outcome.problem).is_ok());
        assert!(outcome.architecture.verify().is_ok());
        assert!(outcome.report.execution_time > 0);
        assert!(outcome.report.used_edges > 0);
        assert!(outcome.report.valves > 0);
        assert!(outcome.layout.compressed.area() <= outcome.layout.expanded.area());
    }

    #[test]
    fn scheduler_choices_all_work() {
        for choice in [
            SchedulerChoice::Auto,
            SchedulerChoice::Ilp,
            SchedulerChoice::StorageAware,
            SchedulerChoice::MakespanOnly,
        ] {
            let flow = SynthesisFlow::new(
                SynthesisConfig::default()
                    .with_mixers(2)
                    .with_scheduler(choice),
            );
            let outcome = flow.run(library::pcr()).unwrap();
            assert!(
                outcome.schedule.validate(&outcome.problem).is_ok(),
                "{choice:?}"
            );
        }
    }

    #[test]
    fn missing_detector_is_reported_as_schedule_error() {
        let flow = SynthesisFlow::new(SynthesisConfig::default().with_detectors(0));
        let err = flow.run(library::ivd()).unwrap_err();
        assert!(matches!(err, FlowError::Schedule(_)));
        assert!(err.to_string().contains("scheduling failed"));
    }

    #[test]
    fn controller_reports_done_after_a_successful_run() {
        let controller = FlowController::new();
        assert_eq!(controller.stage(), FlowStage::Pending);
        let flow = SynthesisFlow::new(SynthesisConfig::default().with_mixers(2));
        let outcome = flow.run_with(library::pcr(), &controller).unwrap();
        assert_eq!(controller.stage(), FlowStage::Done);
        assert!(outcome.report.execution_time > 0);
    }

    #[test]
    fn cancelled_controller_stops_before_the_first_stage() {
        let controller = FlowController::new();
        controller.cancel();
        let flow = SynthesisFlow::new(SynthesisConfig::default().with_mixers(2));
        let err = flow.run_with(library::pcr(), &controller).unwrap_err();
        assert_eq!(err, FlowError::Cancelled(FlowStage::Scheduling));
        assert!(err.to_string().contains("cancelled"));
        assert_eq!(controller.stage(), FlowStage::Done);
    }

    #[test]
    fn flow_errors_still_finish_the_controller() {
        let controller = FlowController::new();
        let flow = SynthesisFlow::new(SynthesisConfig::default().with_detectors(0));
        let err = flow.run_with(library::ivd(), &controller).unwrap_err();
        assert!(matches!(err, FlowError::Schedule(_)));
        assert_eq!(controller.stage(), FlowStage::Done);
    }

    #[test]
    fn pre_parallelism_config_documents_still_deserialize() {
        // A config serialized before the `parallelism` / `starts` fields
        // existed must load with the sequential, single-start behaviour it
        // was written under.
        let mut json = serde::Serialize::to_json(&SynthesisConfig::default());
        if let biochip_json::Json::Object(pairs) = &mut json {
            pairs.retain(|(key, _)| key != "parallelism");
            for (key, value) in pairs.iter_mut() {
                if key != "synthesis" {
                    continue;
                }
                if let biochip_json::Json::Object(synthesis) = value {
                    for (skey, svalue) in synthesis.iter_mut() {
                        if skey != "placement" {
                            continue;
                        }
                        if let biochip_json::Json::Object(placement) = svalue {
                            placement.retain(|(pkey, _)| pkey != "starts");
                        }
                    }
                }
            }
        }
        let back: SynthesisConfig = serde::Deserialize::from_json(&json).unwrap();
        assert_eq!(back, SynthesisConfig::default());
        let streamed: SynthesisConfig = biochip_json::from_str(&json.to_compact()).unwrap();
        assert_eq!(streamed, back);
        assert_eq!(back.parallelism, Parallelism::sequential());
        assert_eq!(back.synthesis.placement.starts, 1);
    }

    #[test]
    fn flow_stage_serializes_as_variant_name() {
        let text = biochip_json::to_string(&FlowStage::Architecture);
        assert_eq!(text, "\"Architecture\"");
        assert_eq!(FlowStage::Architecture.name(), "architecture");
    }

    #[test]
    fn dedicated_baseline_is_never_faster() {
        let flow = SynthesisFlow::new(SynthesisConfig::default().with_mixers(2));
        let outcome = flow.run(library::ivd()).unwrap();
        assert!(
            outcome.dedicated_baseline.prolonged_makespan
                >= outcome.dedicated_baseline.schedule_makespan
        );
    }
}
