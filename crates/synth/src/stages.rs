//! Staged content keys and per-stage artifact reuse for the edit loop.
//!
//! A full content key covers the whole `(problem, config)` pair, so any
//! edit misses it. This module splits that identity into chained per-stage
//! keys — problem → schedule → placement → route → full — each derived by
//! folding the stage-relevant slice of the configuration onto the key of
//! the stage before it ([`biochip_json::chain_key`]). An edit that only
//! touches a downstream slice leaves every upstream key intact, so a run
//! against a [`StageCaches`](crate::StageCaches) store resumes from the
//! first divergent stage instead of from the top. A run without a store
//! derives no keys at all.
//!
//! Exact stage keys cover config edits. Problem edits (the "one operation
//! tweaked" resubmission of the ROADMAP's edit loop) change every chained
//! key, so they are served by the *warm* path instead: the latest
//! [`WarmHandoff`] for the same assay seeds the architectural synthesizer
//! ([`biochip_arch::WarmStart`]), which adopts the prior placement and
//! replays the unchanged prefix of the routed transports byte-identically,
//! searching only the edited suffix.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use biochip_arch::{Architecture, SynthesisOptions};
use biochip_schedule::{Schedule, ScheduleProblem};

use crate::flow::{SynthesisConfig, SynthesisOutcome};

/// The chained per-stage content keys of one pipeline run, as fixed-width
/// hex strings (the same rendering as the job service's full content key).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageKeys {
    /// Canonical hash of the scheduling problem alone.
    pub problem: String,
    /// Problem key folded with the scheduling config slice; addresses the
    /// cached [`Schedule`].
    pub schedule: String,
    /// Schedule key folded with the grid + placement config slice.
    pub placement: String,
    /// Placement key folded with the routing config slice; addresses the
    /// cached [`Architecture`] (placement and routes travel together in the
    /// architecture artifact).
    pub route: String,
    /// Route key folded with the layout config slice — the full-pipeline
    /// stage identity.
    pub full: String,
}

/// Serializes `value` and drops the listed top-level keys — used to carve
/// config slices that must not contribute to a stage identity (e.g. the
/// `warm_start` switch, which changes how fast a result is found but never
/// which result).
fn json_without<T: Serialize>(value: &T, drop: &[&str]) -> biochip_json::Json {
    let mut json = value.to_json();
    if let biochip_json::Json::Object(pairs) = &mut json {
        pairs.retain(|(key, _)| !drop.contains(&key.as_str()));
    }
    json
}

impl StageKeys {
    /// Derives the stage-key chain for one `(config, problem)` pair.
    ///
    /// Each stage folds exactly the configuration its stage consumes:
    /// intra-job `parallelism` and the placement `warm_start` switch are
    /// excluded everywhere (neither changes the synthesized result), and a
    /// config edit invalidates precisely the keys at and below the first
    /// stage whose slice it touches.
    #[must_use]
    pub fn derive(config: &SynthesisConfig, problem: &ScheduleProblem) -> Self {
        use biochip_json::Json;
        let problem_key = biochip_json::content_key(problem);
        let schedule_slice = Json::object([
            ("scheduler", config.scheduler.to_json()),
            ("ilp_time_limit", config.ilp_time_limit.to_json()),
            ("ilp_threshold", config.ilp_threshold.to_json()),
        ]);
        let schedule_key = biochip_json::chain_key(problem_key, "schedule", &schedule_slice);
        let placement_slice = Json::object([
            ("grid_size", config.synthesis.grid_size.to_json()),
            ("max_grid_size", config.synthesis.max_grid_size.to_json()),
            (
                "placement",
                json_without(&config.synthesis.placement, &["warm_start"]),
            ),
        ]);
        let placement_key = biochip_json::chain_key(schedule_key, "placement", &placement_slice);
        let route_slice = Json::object([
            ("routing", config.synthesis.routing.to_json()),
            (
                "allow_postponement",
                config.synthesis.allow_postponement.to_json(),
            ),
        ]);
        let route_key = biochip_json::chain_key(placement_key, "route", &route_slice);
        let full_key = biochip_json::chain_key(route_key, "layout", &config.layout.to_json());
        StageKeys {
            problem: biochip_json::key_hex(problem_key),
            schedule: biochip_json::key_hex(schedule_key),
            placement: biochip_json::key_hex(placement_key),
            route: biochip_json::key_hex(route_key),
            full: biochip_json::key_hex(full_key),
        }
    }
}

/// How one pipeline stage was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReuseKind {
    /// Computed cold.
    #[default]
    Miss,
    /// Served from a stage cache by exact key.
    Hit,
    /// Re-computed, but shortcut by a warm-start hint (prior placement
    /// adopted and/or a routed prefix replayed).
    Warm,
}

impl ReuseKind {
    /// Lowercase name for counters and logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReuseKind::Miss => "miss",
            ReuseKind::Hit => "hit",
            ReuseKind::Warm => "warm",
        }
    }
}

/// What one staged run reused, stage by stage — the flow's receipt for the
/// edit loop, surfaced through `GET /stats`, `/metrics` and
/// `BENCH_editloop.json`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StageReuse {
    /// How the schedule stage was satisfied.
    pub schedule: ReuseKind,
    /// How the architecture (placement + route) stage was satisfied.
    pub architecture: ReuseKind,
    /// The prior placement was adopted by the warm path.
    pub placement_reused: bool,
    /// Transports committed by replay instead of search.
    pub tasks_replayed: usize,
    /// Total transports routed (replayed + searched).
    pub tasks_total: usize,
    /// Wall-clock seconds of the whole staged run.
    pub seconds: f64,
}

/// A prior run packaged as the warm-start seed for the next edit of the
/// same assay: everything [`biochip_arch::WarmStart::from_prior`] needs.
/// The schedule and architecture are the run's own `Arc`s — the ones the
/// stage caches hold — so a hint copies neither.
#[derive(Debug, Clone)]
pub struct WarmHandoff {
    /// The prior scheduling problem.
    pub problem: ScheduleProblem,
    /// The prior schedule.
    pub schedule: Arc<Schedule>,
    /// The prior synthesized architecture.
    pub architecture: Arc<Architecture>,
    /// The synthesis options the prior run used (needed to reconstruct the
    /// routing options of its winning grid attempt).
    pub synthesis: SynthesisOptions,
}

/// The content identity of a finished run: the canonical hash of the
/// `(timing- and search-effort-stripped report, schedule, execution)`
/// triple, as hex.
///
/// This is the byte-identity the warm-start differential suite and the
/// `bench pipeline` / `bench editloop` CI gates compare: it is a pure
/// function of the input problem and config — independent of thread count
/// *and* of whether stages were served cold, from a stage cache, or by
/// warm-start replay.
#[must_use]
pub fn output_key(outcome: &SynthesisOutcome) -> String {
    let fingerprint = biochip_json::Json::object([
        ("report", outcome.report.fingerprint().to_json()),
        ("schedule", outcome.schedule.to_json()),
        ("execution", outcome.execution.to_json()),
    ]);
    biochip_json::key_hex(biochip_json::canonical_hash(&fingerprint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::SchedulerChoice;
    use biochip_assay::library;

    fn problem() -> ScheduleProblem {
        let config = SynthesisConfig::default().with_mixers(2);
        crate::flow::SynthesisFlow::new(config).problem_for(library::pcr())
    }

    #[test]
    fn stage_keys_chain_and_localize_config_edits() {
        let config = SynthesisConfig::default();
        let base = StageKeys::derive(&config, &problem());
        // Scheduler edit: schedule key and everything below change, the
        // problem key does not.
        let sched_edit = config.clone().with_scheduler(SchedulerChoice::MakespanOnly);
        let keys = StageKeys::derive(&sched_edit, &problem());
        assert_eq!(keys.problem, base.problem);
        assert_ne!(keys.schedule, base.schedule);
        assert_ne!(keys.full, base.full);
        // Routing edit: schedule and placement keys survive, route and full
        // change.
        let mut route_edit = config.clone();
        route_edit.synthesis.routing.max_deadline_overrun += 7;
        let keys = StageKeys::derive(&route_edit, &problem());
        assert_eq!(keys.schedule, base.schedule);
        assert_eq!(keys.placement, base.placement);
        assert_ne!(keys.route, base.route);
        assert_ne!(keys.full, base.full);
        // Layout edit: only the full key changes.
        let mut layout_edit = config.clone();
        layout_edit.layout.channel_pitch += 1;
        let keys = StageKeys::derive(&layout_edit, &problem());
        assert_eq!(keys.route, base.route);
        assert_ne!(keys.full, base.full);
        // Parallelism and warm_start never perturb any stage key.
        let mut incidental = config.clone();
        incidental.parallelism = biochip_arch::Parallelism::with_threads(7);
        incidental.synthesis.placement.warm_start = false;
        assert_eq!(StageKeys::derive(&incidental, &problem()), base);
    }

    #[test]
    fn problem_edits_change_the_whole_chain() {
        let config = SynthesisConfig::default();
        let base = StageKeys::derive(&config, &problem());
        let edited = crate::flow::SynthesisFlow::new(config.clone().with_mixers(3))
            .problem_for(library::pcr());
        let keys = StageKeys::derive(&config, &edited);
        assert_ne!(keys.problem, base.problem);
        assert_ne!(keys.schedule, base.schedule);
        assert_ne!(keys.full, base.full);
    }

    #[test]
    fn memory_store_round_trips_artifacts() {
        // The in-memory stage store hands back exactly what was filed, and
        // only under the exact stage key it was filed under.
        let store = crate::StageCaches::new(4);
        assert!(store.schedule.get("k").is_none());
        let schedule = Arc::new(Schedule::with_capacity(0));
        store.schedule.insert("k", Arc::clone(&schedule));
        let back = store.schedule.get("k").expect("the schedule was filed");
        assert!(Arc::ptr_eq(&back, &schedule), "no copy on the way back");
        assert_eq!(back.as_ref(), schedule.as_ref());
        assert!(store.schedule.get("other").is_none());
        assert!(store.architecture.get("k").is_none(), "stages do not share keys");
        assert!(store.warm.get("PCR").is_none());
    }

    #[test]
    fn reuse_kind_names_are_stable() {
        assert_eq!(ReuseKind::Miss.name(), "miss");
        assert_eq!(ReuseKind::Hit.name(), "hit");
        assert_eq!(ReuseKind::Warm.name(), "warm");
    }
}
