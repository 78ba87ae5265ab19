//! Top-level architectural synthesis: schedule → placed, routed chip.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use biochip_schedule::{Schedule, ScheduleProblem};
use biochip_telemetry as telemetry;

use crate::connection_graph::{Architecture, ConnectionGraph, RoutedTransport};
use crate::error::ArchError;
use crate::grid::ConnectionGrid;
use crate::oracle::OracleCache;
use crate::parallel::Parallelism;
use crate::placement::{place_devices_threaded, Placement, PlacementOptions, TrafficMatrix};
use crate::routing::{Router, RouterStats, RoutingOptions};
use crate::transport::{extract_transport_tasks, TransportTask};

/// Work counters of one synthesis run: the staged router's per-stage
/// counters plus the grid-search effort around it. Surfaced through
/// `SynthesisReport`, and so in every `bench pipeline` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SynthesisStats {
    /// Per-stage counters of the router that produced the final chip.
    pub router: RouterStats,
    /// Placement + routing attempts across grid sizes (1 = first grid fit).
    pub grids_tried: usize,
    /// Whether the deadline-relaxed last-resort pass was needed.
    pub relaxed_pass: bool,
    /// Largest reservation calendar of any edge/node — the `n` of the
    /// router's `O(log n)` calendar queries.
    pub peak_calendar_len: usize,
}

/// Options of the architectural synthesizer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesisOptions {
    /// Connection-grid side length; `None` chooses a size from the device
    /// count (the paper uses 4×4 for up to four devices and 5×5 for five).
    pub grid_size: Option<usize>,
    /// Largest grid side length the synthesizer may grow to when routing on
    /// the initial grid fails. A hard cap, with one exception: when the
    /// storage-derived initial size already exceeds it (scale assays whose
    /// peak concurrent storage demands a bigger grid than this cap), the
    /// search may grow a further quarter above that derived size.
    pub max_grid_size: usize,
    /// Allow postponing individual transports past their deadline (reported
    /// via [`Architecture::transport_postponement`]) as a last resort when
    /// even the largest grid cannot route them on time — e.g. when a
    /// schedule demands more simultaneous movements at one device than the
    /// device has ports.
    pub allow_postponement: bool,
    /// Placement options.
    pub placement: PlacementOptions,
    /// Routing options.
    pub routing: RoutingOptions,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            grid_size: None,
            max_grid_size: 12,
            allow_postponement: true,
            placement: PlacementOptions::default(),
            routing: RoutingOptions::default(),
        }
    }
}

impl SynthesisOptions {
    /// Fixes the grid side length (disabling the automatic choice).
    #[must_use]
    pub fn with_grid_size(mut self, size: usize) -> Self {
        self.grid_size = Some(size.max(1));
        self
    }
}

/// A prior synthesis result offered as a warm start for an edited problem.
///
/// Built from the previous run's problem, schedule and architecture (see
/// [`WarmStart::from_prior`]); the synthesizer adopts whatever parts of it
/// provably reproduce a cold run: the placement when the placement inputs
/// are identical, and the routed prefix of the task list that the edit left
/// untouched (the committed router state after task *i* is a pure function
/// of tasks `0..=i`, so replaying an unchanged prefix is byte-identical to
/// re-searching it). Everything that cannot be proven equal runs cold —
/// warm starts change the wall clock, never the chip.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    /// Square-grid side length of the prior chip; the hint only applies to
    /// the grid attempt of the same size.
    grid_side: usize,
    /// Routing options the prior routes were produced under (including the
    /// deadline relaxation, when the prior run needed the relaxed pass).
    routing: RoutingOptions,
    /// Placement options the prior placement was annealed under.
    placement_options: PlacementOptions,
    /// The prior device placement.
    placement: Placement,
    /// The prior run's *original* transport tasks, in routing order (the
    /// routed copies carry committed windows, so the originals are what an
    /// edited task list is prefix-compared against).
    tasks: Vec<TransportTask>,
    /// The prior routed transports, parallel to `tasks`.
    routes: Vec<RoutedTransport>,
}

impl WarmStart {
    /// Builds a warm-start hint from a prior run: its problem and schedule
    /// (to recover the original transport tasks), its architecture, and the
    /// synthesis options it ran under.
    ///
    /// Returns `None` when the prior architecture is not self-consistent
    /// enough to hint with (route/task count mismatch, a non-square grid) —
    /// callers then simply run cold.
    #[must_use]
    pub fn from_prior(
        problem: &ScheduleProblem,
        schedule: &Schedule,
        architecture: &Architecture,
        options: &SynthesisOptions,
    ) -> Option<Self> {
        if schedule.validate(problem).is_err() {
            return None;
        }
        let tasks = extract_transport_tasks(problem, schedule);
        if tasks.len() != architecture.routes().len() {
            return None;
        }
        let grid = architecture.grid();
        if grid.rows() != grid.cols() {
            return None;
        }
        // Reconstruct the routing options of the winning attempt: the base
        // options, or the deadline-relaxed variant when the prior run's
        // stats say the relaxed pass produced the chip.
        let routing = if architecture.stats().relaxed_pass {
            relaxed_routing(&options.routing, problem)
        } else {
            options.routing.clone()
        };
        Some(WarmStart {
            grid_side: grid.rows(),
            routing,
            placement_options: options.placement.clone(),
            placement: architecture.placement().clone(),
            tasks,
            routes: architecture.routes().to_vec(),
        })
    }
}

/// How much of a warm-start hint one synthesis run actually reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmReuse {
    /// The prior placement was adopted (placement inputs were identical).
    pub placement_reused: bool,
    /// Transports committed by replaying prior routes instead of searching.
    pub tasks_replayed: usize,
    /// Total transports of the (winning) routing pass.
    pub tasks_total: usize,
}

/// The deadline-relaxed last-resort routing options derived from `base` for
/// `problem` — must stay in lockstep with the relaxation the grid-attempt
/// loop applies, or warm hints would never match a relaxed-pass prior.
fn relaxed_routing(base: &RoutingOptions, problem: &ScheduleProblem) -> RoutingOptions {
    let mut relaxed = base.clone();
    relaxed.max_deadline_overrun = 8 * problem.transport_time().max(1);
    relaxed
}

/// Placement-input equality for warm adoption: everything that feeds the
/// annealer except the `warm_start` switch itself (which gates adoption but
/// never changes what cold placement would compute).
fn placement_inputs_equal(a: &PlacementOptions, b: &PlacementOptions) -> bool {
    (a.refine, a.annealing_moves, a.seed, a.starts)
        == (b.refine, b.annealing_moves, b.seed, b.starts)
}

/// Where a synthesis run gets its [`RoutingOracle`](crate::RoutingOracle)s
/// from: an externally shared [`OracleCache`] (`biochip_synth::StageCaches`
/// provides one, scoped by the placement-stage content key) or, by default,
/// a private per-run cache. Either way the build is amortized across the
/// run's grid attempts and strict/relaxed passes; the external cache
/// additionally shares it across jobs and warm restarts.
///
/// Not part of the synthesis *configuration*: two synthesizers bound to
/// different caches are still equal when their options match, since the
/// oracle never changes the synthesized chip.
#[derive(Debug, Clone, Default)]
struct OracleBinding {
    cache: Option<Arc<OracleCache>>,
    scope: Option<String>,
}

impl PartialEq for OracleBinding {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The architectural synthesis engine (Section 3.2 of the paper).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArchitectureSynthesizer {
    options: SynthesisOptions,
    parallelism: Parallelism,
    warm: Option<WarmStart>,
    oracle: OracleBinding,
}

impl ArchitectureSynthesizer {
    /// Creates a synthesizer with the given options.
    #[must_use]
    pub fn new(options: SynthesisOptions) -> Self {
        ArchitectureSynthesizer {
            options,
            parallelism: Parallelism::default(),
            warm: None,
            oracle: OracleBinding::default(),
        }
    }

    /// Binds a shared [`OracleCache`]: per-architecture routing oracles are
    /// looked up there (and inserted on miss) instead of in a private
    /// per-run cache, so concurrent and repeated runs over the same
    /// architecture amortize one build. Never changes the synthesized chip.
    #[must_use]
    pub fn with_oracle_cache(mut self, cache: Arc<OracleCache>) -> Self {
        self.oracle.cache = Some(cache);
        self
    }

    /// Namespaces this run's entries in a shared [`OracleCache`] —
    /// typically the placement-stage content key, so architectures of
    /// distinct problems can never collide.
    #[must_use]
    pub fn with_oracle_scope(mut self, scope: impl Into<String>) -> Self {
        self.oracle.scope = Some(scope.into());
        self
    }

    /// Offers a prior result as a warm start (see [`WarmStart`]). The hint
    /// only ever shortcuts work it can prove byte-identical to a cold run;
    /// an inapplicable hint is silently ignored.
    #[must_use]
    pub fn with_warm_start(mut self, warm: WarmStart) -> Self {
        self.warm = Some(warm);
        self
    }

    /// Sets the intra-job parallelism policy: the worker threads of
    /// multi-start placement. The thread count never changes the
    /// synthesized chip — the starts reduce by `(cost, start index)` — it
    /// only changes how fast the chip is found. Routing is sequential.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The configured options.
    #[must_use]
    pub fn options(&self) -> &SynthesisOptions {
        &self.options
    }

    /// The configured parallelism policy.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Synthesizes the chip architecture for a scheduled assay.
    ///
    /// The schedule is validated, transportation tasks are extracted, devices
    /// are placed on the connection grid, and every task is routed with time
    /// multiplexing. When routing fails on the chosen grid the grid is grown
    /// by one row/column (up to [`SynthesisOptions::max_grid_size`]) and the
    /// whole placement/routing pass is repeated.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidSchedule`] for schedules that violate the
    /// scheduling constraints, [`ArchError::GridTooSmall`] when the devices
    /// cannot even be placed, and the last routing error when no grid up to
    /// the maximum size admits a conflict-free routing.
    /// Wall-clock visibility: each grid attempt records `"place"` and
    /// `"route"` telemetry spans (category `"pipeline"`) when span
    /// collection is enabled — the `bench pipeline` sweep and `--trace`
    /// consume those instead of any timing in the return value, which stays
    /// a pure function of the input.
    pub fn synthesize(
        &self,
        problem: &ScheduleProblem,
        schedule: &Schedule,
    ) -> Result<Architecture, ArchError> {
        self.synthesize_with_reuse(problem, schedule)
            .map(|(architecture, _)| architecture)
    }

    /// Like [`synthesize`](Self::synthesize), additionally reporting how
    /// much of the configured [`WarmStart`] hint the run reused (all-zero
    /// without a hint, or when the hint did not apply).
    ///
    /// # Errors
    ///
    /// Same as [`synthesize`](Self::synthesize).
    pub fn synthesize_with_reuse(
        &self,
        problem: &ScheduleProblem,
        schedule: &Schedule,
    ) -> Result<(Architecture, WarmReuse), ArchError> {
        schedule
            .validate(problem)
            .map_err(|e| ArchError::InvalidSchedule {
                reason: e.to_string(),
            })?;
        let tasks = extract_transport_tasks(problem, schedule);
        let num_devices = problem.devices().len();
        let traffic = TrafficMatrix::from_tasks(num_devices, &tasks);

        let peak_storage = schedule.metrics(problem).max_concurrent_storage;
        let initial = self
            .options
            .grid_size
            .unwrap_or_else(|| default_grid_size(num_devices, peak_storage));
        // `max_grid_size` stays a hard cap for caller-pinned and small
        // derived sizes. Only when the *derived* storage-sized initial
        // already exceeds the configured maximum does the search get a
        // quarter of growth headroom above it — otherwise scale assays
        // could never be attempted at all.
        let max = if self.options.grid_size.is_none() && initial > self.options.max_grid_size {
            initial + initial.div_ceil(4)
        } else {
            self.options.max_grid_size.max(initial)
        };

        let mut last_error = ArchError::GridTooSmall {
            devices: num_devices,
            nodes: 0,
        };
        // Last resort: permit postponing transports whose deadlines cannot
        // all be met (more simultaneous movements at a device than it has
        // ports). The overrun is reported, not hidden.
        let relaxed_routing = relaxed_routing(&self.options.routing, problem);
        // Paper-scale grids prefer growing the grid over postponing (every
        // size strictly first, then every size with postponement).
        // Storage-sized grids run one pass per size with postponement armed:
        // the router escalates to overrun windows per task, so tasks that
        // fit their slack are routed exactly as in a strict pass, and a
        // grown grid rarely resolves a zero-slack port conflict anyway —
        // while each extra pass re-routes tens of thousands of tasks.
        // Per-architecture routing oracles: resolved through the bound
        // shared cache when one exists, else a run-private cache — which
        // still shares one build across this run's grid attempts (the
        // strict and relaxed passes key identically, since the oracle
        // reads no routing options).
        let run_oracles = OracleCache::default();
        let oracles = self.oracle.cache.as_deref().unwrap_or(&run_oracles);
        let scale_side = crate::segment_index::SCALE_GRID_SIDE;
        let scale = initial >= scale_side;
        let mut attempts: Vec<(usize, bool)> = Vec::new();
        // Cold placements by grid side. Placement reads only the grid, the
        // traffic matrix and the placement options, so the relaxed pass
        // reuses the strict pass's placement of the same side.
        let mut placed: Vec<(usize, Placement)> = Vec::new();
        if scale {
            for size in initial..=max {
                attempts.push((size, self.options.allow_postponement));
            }
        } else {
            // Exhaust paper-scale grids first — strict, then with
            // postponement — before growing into storage-sized grids whose
            // scale-mode heuristics produce different (larger) chips. This
            // keeps every assay the pre-refactor flow could synthesize on a
            // small grid on exactly that grid.
            let small_max = max.min(scale_side - 1);
            for size in initial..=small_max {
                attempts.push((size, false));
            }
            if self.options.allow_postponement {
                for size in initial..=small_max {
                    attempts.push((size, true));
                }
            }
            for size in scale_side..=max {
                attempts.push((size, self.options.allow_postponement));
            }
        }
        for (grids_tried, &(size, relaxed_pass)) in attempts.iter().enumerate() {
            let routing = if relaxed_pass {
                &relaxed_routing
            } else {
                &self.options.routing
            };
            let grid = ConnectionGrid::square(size);
            // The hint only applies to the attempt that mirrors the prior
            // run's winning attempt: same grid, same routing options.
            let warm = self
                .warm
                .as_ref()
                .filter(|w| w.grid_side == size && w.routing == *routing);
            match self.try_grid(&grid, &tasks, &traffic, routing, warm, oracles, &mut placed) {
                Ok((architecture, mut stats, reuse)) => {
                    stats.grids_tried = grids_tried + 1;
                    stats.relaxed_pass = relaxed_pass;
                    let architecture = architecture.with_stats(stats);
                    architecture.verify()?;
                    if reuse.placement_reused || reuse.tasks_replayed > 0 {
                        telemetry::instant(
                            "pipeline",
                            "warm.reuse",
                            &[
                                ("placement_reused", u64::from(reuse.placement_reused)),
                                ("tasks_replayed", reuse.tasks_replayed as u64),
                                ("tasks_total", reuse.tasks_total as u64),
                            ],
                        );
                    }
                    return Ok((architecture, reuse));
                }
                Err(e) => last_error = e,
            }
        }
        Err(last_error)
    }

    /// One placement + routing attempt on a fixed grid. A cold placement is
    /// taken from `placed` when an earlier attempt placed the same grid side,
    /// and recorded there otherwise.
    #[allow(clippy::too_many_arguments)]
    fn try_grid(
        &self,
        grid: &ConnectionGrid,
        tasks: &[TransportTask],
        traffic: &TrafficMatrix,
        routing: &RoutingOptions,
        warm: Option<&WarmStart>,
        oracles: &OracleCache,
        placed: &mut Vec<(usize, Placement)>,
    ) -> Result<(Architecture, SynthesisStats, WarmReuse), ArchError> {
        let threads = self.parallelism.effective_threads();
        let num_devices = traffic.len();
        let mut reuse = WarmReuse {
            tasks_total: tasks.len(),
            ..WarmReuse::default()
        };

        // Adopt the prior placement only when every placement input is
        // identical — grid (gated by the caller), device count, options and
        // traffic matrix — i.e. when cold annealing would reproduce it
        // bit-for-bit anyway. Anything weaker (e.g. seeding the anneal with
        // the prior placement under changed traffic) would produce a chip a
        // cold run cannot, violating the warm/cold byte-identity contract.
        let adopted = warm.and_then(|w| {
            if !self.options.placement.warm_start
                || !placement_inputs_equal(&w.placement_options, &self.options.placement)
                || w.placement.device_nodes().len() != num_devices
            {
                return None;
            }
            (TrafficMatrix::from_tasks(num_devices, &w.tasks) == *traffic)
                .then(|| w.placement.clone())
        });
        let placement = match adopted {
            Some(placement) => {
                reuse.placement_reused = true;
                placement
            }
            None => match placed.iter().find(|(side, _)| *side == grid.rows()) {
                Some((_, placement)) => placement.clone(),
                None => {
                    let _span = telemetry::span("pipeline", "place");
                    let placement =
                        place_devices_threaded(grid, traffic, &self.options.placement, threads)?;
                    placed.push((grid.rows(), placement.clone()));
                    placement
                }
            },
        };

        let (oracle, built) = oracles.get_or_build(self.oracle.scope.as_deref(), grid, &placement);
        let mut router = Router::with_oracle(grid, &placement, routing.clone(), oracle);
        if built {
            router.note_oracle_build();
        }
        let routes = {
            let _span = telemetry::span("pipeline", "route");
            self.route_with_replay(&mut router, tasks, warm, &placement, &mut reuse)
        };
        let routes = routes?;

        let stats = SynthesisStats {
            router: router.stats(),
            grids_tried: 0,
            relaxed_pass: false,
            peak_calendar_len: router.reservations().peak_calendar_len(),
        };
        let used = router.used_edges();
        let connection_graph = ConnectionGraph::new(grid.clone(), placement, used);
        let architecture = Architecture::new(connection_graph, routes);
        Ok((architecture, stats, reuse))
    }

    /// Routes `tasks`, replaying the prior routes of the longest unchanged
    /// task prefix when a warm hint applies (same placement; routing options
    /// and grid were gated by the caller), then searching only the suffix.
    ///
    /// Replay failure (a malformed or inconsistent hint) falls back to a
    /// fully cold `route_all` on a fresh router — hints may shortcut work,
    /// never fail a synthesis that would have succeeded cold.
    fn route_with_replay(
        &self,
        router: &mut Router<'_>,
        tasks: &[TransportTask],
        warm: Option<&WarmStart>,
        placement: &Placement,
        reuse: &mut WarmReuse,
    ) -> Result<Vec<RoutedTransport>, ArchError> {
        let prefix = warm.map_or(0, |w| {
            if w.placement != *placement || w.routes.len() != w.tasks.len() {
                return 0;
            }
            tasks
                .iter()
                .zip(&w.tasks)
                .take_while(|(a, b)| a == b)
                .count()
        });
        if prefix == 0 {
            return router.route_all(tasks);
        }
        let w = warm.expect("non-zero prefix implies a hint");
        for (task, routed) in tasks[..prefix].iter().zip(&w.routes) {
            if router.replay(task, routed).is_err() {
                // The hint lied (stale or inconsistent document): discard
                // every replayed commit and route everything cold.
                *router = router.fresh();
                return router.route_all(tasks);
            }
        }
        reuse.tasks_replayed = prefix;
        let mut routes = w.routes[..prefix].to_vec();
        routes.extend(router.route_all(&tasks[prefix..])?);
        Ok(routes)
    }
}

/// Grid side length used when the caller does not fix one.
///
/// Two demands size the grid: devices are spread on every other node, so a
/// side of `2·ceil(sqrt(D))` leaves enough switch nodes and segments around
/// each device (with the paper's 4×4 as a floor); and every concurrently
/// stored sample occupies a whole channel segment, so the grid must offer
/// comfortably more segments than the schedule's peak concurrent storage —
/// the demand that dominates for the 1k/10k-op scale assays, whose storage
/// peaks dwarf their device counts.
#[must_use]
fn default_grid_size(num_devices: usize, peak_storage: usize) -> usize {
    let side_for = |needed_edges: usize| {
        // A size-s square grid has 2·s·(s−1) segments.
        let mut side = 2;
        while 2 * side * (side - 1) < needed_edges {
            side += 1;
        }
        side
    };
    let device_side = 2 * (num_devices as f64).sqrt().ceil() as usize;
    // Demand 3× the storage peak so transport paths keep room to move
    // between cached samples (the cache spread and egress guards need free
    // neighbours around every cached segment).
    let needed_edges = 3 * peak_storage + 8;
    let side = device_side.max(side_for(needed_edges)).max(4);
    if side < crate::segment_index::SCALE_GRID_SIDE {
        return side;
    }
    // Storage-sized grids cache on the vertical even-column **comb** only
    // (see `segment_index`), and the device cluster's interior is priced
    // out of the cache supply: size the grid so the comb outside the
    // cluster box holds 1.25× the storage peak.
    let cluster_side = 4 * (num_devices as f64).sqrt().ceil() as usize + 1;
    let cluster_comb = cluster_side.div_ceil(2) * cluster_side.saturating_sub(1);
    let needed_comb = peak_storage + peak_storage / 4 + cluster_comb + 8;
    let mut comb_side = side;
    while comb_side.div_ceil(2) * (comb_side - 1) < needed_comb {
        comb_side += 1;
    }
    device_side.max(comb_side)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportKind;
    use biochip_assay::library;
    use biochip_schedule::{ListScheduler, Scheduler, SchedulingStrategy};

    fn schedule_for(
        graph: biochip_assay::SequencingGraph,
        mixers: usize,
        detectors: usize,
    ) -> (ScheduleProblem, Schedule) {
        let problem = ScheduleProblem::new(graph)
            .with_mixers(mixers)
            .with_detectors(detectors)
            .with_transport_time(5);
        let schedule = ListScheduler::new(SchedulingStrategy::StorageAware)
            .schedule(&problem)
            .unwrap();
        (problem, schedule)
    }

    #[test]
    fn pcr_architecture_is_consistent() {
        let (problem, schedule) = schedule_for(library::pcr(), 2, 0);
        let arch = ArchitectureSynthesizer::default()
            .synthesize(&problem, &schedule)
            .unwrap();
        arch.verify().unwrap();
        assert!(arch.used_edge_count() > 0);
        assert!(arch.valve_count() > 0);
        assert_eq!(
            arch.routes().len(),
            extract_transport_tasks(&problem, &schedule).len()
        );
    }

    #[test]
    fn synthesis_keeps_only_a_fraction_of_grid_edges() {
        let (problem, schedule) = schedule_for(library::pcr(), 2, 0);
        let arch = ArchitectureSynthesizer::default()
            .synthesize(&problem, &schedule)
            .unwrap();
        // Fig. 8: the used-edge ratio is well below 1.
        assert!(arch.connection_graph().edge_ratio() < 1.0);
        assert!(arch.connection_graph().valve_ratio() < 1.0);
    }

    #[test]
    fn stored_samples_get_cache_segments() {
        // One mixer and one detector force cross-device transports; with the
        // detector busy, samples must wait in channel storage.
        let (problem, schedule) = schedule_for(library::ivd(), 2, 1);
        let arch = ArchitectureSynthesizer::default()
            .synthesize(&problem, &schedule)
            .unwrap();
        let stores = arch.storage_routes();
        let schedule_stores = schedule.storage_requirements(&problem).len();
        assert_eq!(stores.len(), schedule_stores);
        for store in stores {
            assert!(store.cache_edge.is_some());
        }
    }

    #[test]
    fn invalid_schedule_is_rejected() {
        let (problem, _) = schedule_for(library::pcr(), 2, 0);
        let empty = Schedule::with_capacity(problem.graph().num_operations());
        let err = ArchitectureSynthesizer::default()
            .synthesize(&problem, &empty)
            .unwrap_err();
        assert!(matches!(err, ArchError::InvalidSchedule { .. }));
    }

    #[test]
    fn fixed_grid_size_is_respected() {
        let (problem, schedule) = schedule_for(library::pcr(), 2, 0);
        let options = SynthesisOptions::default().with_grid_size(6);
        let arch = ArchitectureSynthesizer::new(options)
            .synthesize(&problem, &schedule)
            .unwrap();
        assert_eq!(arch.grid().dimensions(), "6x6");
    }

    #[test]
    fn default_grid_sizes() {
        // Device-count-dominated sizing (small storage peaks).
        assert_eq!(default_grid_size(1, 0), 4);
        assert_eq!(default_grid_size(4, 0), 4);
        assert_eq!(default_grid_size(5, 0), 6);
        assert_eq!(default_grid_size(9, 0), 6);
        // Storage-dominated sizing: the grid must offer 3× the peak
        // concurrent storage in segments.
        assert_eq!(default_grid_size(2, 20), 7); // 68 edges needed, 2·7·6 = 84
        let side = default_grid_size(8, 1_062); // the RA10K storage peak
                                                // The even-column storage comb must hold 1.25× the peak on top
                                                // of the cluster-interior exclusion.
        assert!(side.div_ceil(2) * (side - 1) >= 1_062 + 1_062 / 4);
        assert!(side < 60, "sizing exploded: {side}");
    }

    #[test]
    fn all_benchmarks_synthesize() {
        for (name, graph) in library::paper_benchmarks() {
            let (problem, schedule) = schedule_for(graph, 4, 2);
            let arch = ArchitectureSynthesizer::default()
                .synthesize(&problem, &schedule)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            arch.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
            // Every extracted task was routed.
            assert_eq!(
                arch.routes().len(),
                extract_transport_tasks(&problem, &schedule).len(),
                "{name}"
            );
            // Store and fetch counts match.
            let stores = arch
                .routes()
                .iter()
                .filter(|r| r.task.kind == TransportKind::Store)
                .count();
            let fetches = arch
                .routes()
                .iter()
                .filter(|r| r.task.kind == TransportKind::Fetch)
                .count();
            assert_eq!(stores, fetches, "{name}");
        }
    }

    #[test]
    fn parallel_synthesis_matches_sequential_bit_for_bit() {
        for (graph, mixers, detectors) in [(library::ivd(), 2, 1), (library::pcr(), 2, 0)] {
            let (problem, schedule) = schedule_for(graph, mixers, detectors);
            let sequential = ArchitectureSynthesizer::default()
                .synthesize(&problem, &schedule)
                .unwrap();
            for threads in [2, 8] {
                let parallel = ArchitectureSynthesizer::default()
                    .with_parallelism(Parallelism::with_threads(threads))
                    .synthesize(&problem, &schedule)
                    .unwrap();
                assert_eq!(parallel, sequential, "{threads} threads diverged");
            }
        }
    }

    #[test]
    fn multi_start_placement_keeps_synthesis_valid() {
        let (problem, schedule) = schedule_for(library::ivd(), 2, 1);
        let mut options = SynthesisOptions::default();
        options.placement.starts = 4;
        let a = ArchitectureSynthesizer::new(options.clone())
            .with_parallelism(Parallelism::with_threads(4))
            .synthesize(&problem, &schedule)
            .unwrap();
        a.verify().unwrap();
        // Same starts, different thread count: same chip.
        let b = ArchitectureSynthesizer::new(options)
            .synthesize(&problem, &schedule)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn architectures_are_deterministic() {
        let (problem, schedule) = schedule_for(library::pcr(), 2, 0);
        let a = ArchitectureSynthesizer::default()
            .synthesize(&problem, &schedule)
            .unwrap();
        let b = ArchitectureSynthesizer::default()
            .synthesize(&problem, &schedule)
            .unwrap();
        assert_eq!(a, b);
    }
}
