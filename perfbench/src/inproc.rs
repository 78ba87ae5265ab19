//! The in-process workloads: `cold_scale` and `paper_suite`.

use std::collections::BTreeMap;
use std::time::Instant;

use biochip_synth::arch::ArchitectureSynthesizer;
use biochip_synth::assay::random::{generate, RandomAssayConfig};
use biochip_synth::assay::SequencingGraph;
use biochip_synth::layout::generate_layout;
use biochip_synth::sim::{replay, simulate_dedicated_storage};
use biochip_synth::{
    FlowError, SchedulerChoice, StageKeys, SynthesisConfig, SynthesisFlow, SynthesisOutcome,
    SynthesisReport,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::common::{fold, geomean, quantile, EndToEnd, Exact, Run, Tracer};

/// cold_scale input: this many assays per seed, their sizes spread evenly
/// over `COLD_OPS` so every seed has the same size mix. Small enough that a
/// run repeats each input several times (see `Pass::into_run`).
pub const COLD_ASSAYS: usize = 64;
pub const COLD_OPS: (usize, usize) = (500, 1_500);
/// Each cold_scale size takes a graph seed below this bound, drawn from the
/// workload seed. All 64 × 16 `RandomAssayConfig::scaled(ops, graph_seed)`
/// assays were run at `cli_config()` and each gave a chip: the workload
/// holds no request that fails.
pub const COLD_GRAPH_SEEDS: u64 = 16;
/// paper_suite traced and untraced comparison runs: this many rounds of the
/// six assays.
const PAPER_TRACE_ROUNDS: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdScale,
    PaperSuite,
}

struct Item {
    flow: SynthesisFlow,
    graph: SequencingGraph,
}

/// The workload's inputs, generated from the seed during set-up.
pub struct Inputs {
    kind: Kind,
    seed: u64,
    items: Vec<Item>,
}

/// The configuration the CLI runs at by default, with the scheduler pinned.
pub fn cli_config() -> SynthesisConfig {
    SynthesisConfig::default()
        .with_mixers(8)
        .with_scheduler(SchedulerChoice::StorageAware)
}

pub fn generate_inputs(kind: Kind, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let items = match kind {
        Kind::ColdScale => {
            let (lo, hi) = COLD_OPS;
            let mut items: Vec<Item> = (0..COLD_ASSAYS)
                .map(|i| {
                    let ops = lo + (hi - lo) * i / (COLD_ASSAYS - 1);
                    let graph_seed = rng.gen_range(0..COLD_GRAPH_SEEDS);
                    Item {
                        flow: SynthesisFlow::new(cli_config()),
                        graph: generate(&RandomAssayConfig::scaled(ops, graph_seed)),
                    }
                })
                .collect();
            items.shuffle(&mut rng);
            items
        }
        Kind::PaperSuite => biochip_bench::paper_configs()
            .into_iter()
            .map(|(_, graph, config)| Item {
                flow: SynthesisFlow::new(config.with_scheduler(SchedulerChoice::StorageAware)),
                graph,
            })
            .collect(),
    };
    Inputs { kind, seed, items }
}

/// One finished request.
struct Done {
    latency: f64,
    outcome: Result<SynthesisOutcome, String>,
    /// paper_suite: the outcome decoded from its JSON hand-off.
    decoded: Option<Result<SynthesisOutcome, String>>,
    json_bytes: u64,
}

/// The stages `SynthesisFlow::run` composes, called one by one so each
/// gets its own span. Must produce the same outcome as `run`; the
/// benchmark checks that through the output keys.
fn staged(
    item: &Item,
    graph: SequencingGraph,
    tr: &mut Tracer,
) -> Result<SynthesisOutcome, String> {
    let config = item.flow.config();
    let problem = item.flow.problem_for(graph);
    let keys = tr.scope("json.hash", |_| StageKeys::derive(config, &problem));
    let started = Instant::now();
    let schedule = tr
        .scope("schedule", |_| item.flow.schedule(&problem))
        .map_err(|e| e.to_string())?;
    let scheduling_time = started.elapsed();
    let started = Instant::now();
    let synthesized = tr.scope("arch", |_| {
        ArchitectureSynthesizer::new(config.synthesis.clone())
            .with_parallelism(config.parallelism)
            .with_oracle_scope(keys.placement)
            .synthesize_with_reuse(&problem, &schedule)
    });
    let architecture_time = started.elapsed();
    let (architecture, _) = synthesized.map_err(|e| FlowError::from(e).to_string())?;
    let started = Instant::now();
    let layout = tr.scope("layout", |_| generate_layout(&architecture, &config.layout));
    let layout_time = started.elapsed();
    let (execution, dedicated_baseline) = tr.scope("sim", |_| {
        (
            replay(&problem, &schedule, &architecture),
            simulate_dedicated_storage(&problem, &schedule),
        )
    });
    let report = tr.scope("synth", |_| {
        SynthesisReport::collect(
            &problem,
            &schedule,
            &architecture,
            &layout,
            &execution,
            &dedicated_baseline,
            scheduling_time,
            architecture_time,
            layout_time,
        )
    });
    let outcome = SynthesisOutcome {
        problem,
        schedule,
        architecture,
        layout,
        execution,
        dedicated_baseline,
        report,
    };
    Ok(outcome)
}

fn request(kind: Kind, item: &Item, tr: &mut Tracer) -> Done {
    let graph = item.graph.clone();
    let traced = tr.enabled();
    let started = Instant::now();
    let (outcome, decoded, json_bytes) = tr.scope("request", |tr| {
        let outcome = if traced {
            staged(item, graph, tr)
        } else {
            item.flow.run(graph).map_err(|e| e.to_string())
        };
        let (decoded, json_bytes) = match (&outcome, kind) {
            (Err(_), _) => (None, 0),
            (Ok(outcome), Kind::ColdScale) => {
                let text = tr.scope("json.encode", |_| biochip_json::to_string(&outcome.report));
                (None, text.len() as u64)
            }
            (Ok(outcome), Kind::PaperSuite) => {
                let text = tr.scope("json.encode", |_| biochip_json::to_string(outcome));
                let back = tr.scope("json.decode", |_| {
                    biochip_json::from_str::<SynthesisOutcome>(&text).map_err(|e| e.to_string())
                });
                (Some(back), text.len() as u64)
            }
        };
        (outcome, decoded, json_bytes)
    });
    Done {
        latency: started.elapsed().as_secs_f64(),
        outcome,
        decoded,
        json_bytes,
    }
}

/// What the first answer for an input was.
#[derive(Debug, Clone)]
enum First {
    Chip {
        key: String,
        report: Box<SynthesisReport>,
    },
    Failed(String),
}

/// The outcome of a pass over the inputs.
pub struct Pass {
    /// Latencies per input, in input order.
    pub latencies: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub exact: Exact,
    /// Correctness failures (empty when every check held).
    pub errors: Vec<String>,
    pub json_bytes: u64,
}

/// Runs requests until every input has been answered once and, when
/// `min_seconds` is given, until that much time has passed; otherwise for
/// exactly `rounds` passes over the inputs. Every answer is checked.
/// `between` is called after each request with the seconds since the pass
/// began; its time counts toward `min_seconds` but not toward any latency.
pub fn run_pass(
    inputs: &Inputs,
    tr: &mut Tracer,
    min_seconds: Option<f64>,
    rounds: usize,
    mut between: impl FnMut(f64),
) -> Pass {
    let n = inputs.items.len();
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x0bad_5eed);
    let mut first: Vec<Option<First>> = vec![None; n];
    let mut pass = Pass {
        latencies: vec![Vec::new(); n],
        attempted: 0,
        failed: 0,
        exact: Exact::empty(),
        errors: Vec::new(),
        json_bytes: 0,
    };
    let started = Instant::now();
    let mut round = 0usize;
    loop {
        let mut order: Vec<usize> = (0..n).collect();
        if inputs.kind == Kind::PaperSuite {
            order.shuffle(&mut rng);
        }
        for index in order {
            tr.set_request(pass.attempted);
            let done = request(inputs.kind, &inputs.items[index], tr);
            pass.attempted += 1;
            pass.latencies[index].push(done.latency);
            pass.json_bytes += done.json_bytes;
            let checked = tr.scope("check", |tr| check(&done, &mut first[index], tr));
            match checked {
                Ok(true) => {}
                Ok(false) => pass.failed += 1,
                Err(e) => pass.errors.push(format!("input {index}: {e}")),
            }
            between(started.elapsed().as_secs_f64());
            if let Some(limit) = min_seconds {
                if started.elapsed().as_secs_f64() >= limit && first.iter().all(Option::is_some) {
                    pass.exact = exact_of(&first);
                    return pass;
                }
            }
        }
        round += 1;
        if min_seconds.is_none() && round >= rounds {
            pass.exact = exact_of(&first);
            return pass;
        }
    }
}

/// Checks one answer. `Ok(true)` for a chip, `Ok(false)` for a counted
/// synthesis failure, `Err` for a broken correctness check.
fn check(done: &Done, first: &mut Option<First>, tr: &mut Tracer) -> Result<bool, String> {
    let outcome = match &done.outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            return match first {
                None => {
                    *first = Some(First::Failed(message.clone()));
                    Ok(false)
                }
                Some(First::Failed(m)) if m == message => Ok(false),
                Some(_) => Err(format!(
                    "failed with `{message}` after an earlier different answer"
                )),
            };
        }
    };
    let key = tr.scope("json.hash", |_| outcome.output_key());
    if let Some(decoded) = &done.decoded {
        let decoded = decoded
            .as_ref()
            .map_err(|e| format!("hand-off does not decode: {e}"))?;
        let decoded_key = tr.scope("json.hash", |_| decoded.output_key());
        if decoded_key != key {
            return Err(format!(
                "decoded output_key {decoded_key} != original {key}"
            ));
        }
    }
    match first {
        None => {
            outcome
                .schedule
                .validate(&outcome.problem)
                .map_err(|e| format!("schedule invalid: {e}"))?;
            outcome
                .architecture
                .verify()
                .map_err(|e| format!("architecture fails verify: {e}"))?;
            *first = Some(First::Chip {
                key,
                report: Box::new(outcome.report.clone()),
            });
            Ok(true)
        }
        Some(First::Chip { key: k, .. }) if *k == key => Ok(true),
        Some(_) => Err(format!(
            "output_key {key} differs from this input's first answer"
        )),
    }
}

fn exact_of(first: &[Option<First>]) -> Exact {
    let mut exact = Exact::empty();
    let mut exec = Vec::new();
    let mut valves = Vec::new();
    for answer in first.iter().flatten() {
        exact.attempted += 1;
        match answer {
            First::Chip { key, report } => {
                exact.digest = fold(exact.digest, key.as_bytes());
                let counts = [
                    report.grids_tried,
                    report.windows_tried,
                    report.path_searches,
                    report.nodes_expanded,
                    report.segments_priced,
                    report.postponed_transports,
                ];
                for (sum, count) in exact.arch.iter_mut().zip(counts) {
                    *sum += count as u64;
                }
                exec.push(report.execution_ratio_vs_dedicated());
                valves.push(report.valve_ratio_vs_dedicated());
            }
            First::Failed(message) => {
                exact.digest = fold(exact.digest, message.as_bytes());
                exact.failed += 1;
            }
        }
    }
    exact.exec_ratio = geomean(&exec);
    exact.valve_ratio = geomean(&valves);
    exact
}

/// Per-layer figures of a traced pass.
pub fn layer_figures(pass: &Pass, tr: &Tracer, out: &mut BTreeMap<&'static str, f64>) {
    let own = crate::common::self_seconds(&tr.spans);
    let get = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let exact = &pass.exact;
    let successes = exact.attempted - exact.failed;
    out.insert("arch.busy_s", get("arch"));
    out.insert("arch.grids_tried", exact.arch[0] as f64);
    out.insert(
        "arch.useful_attempt_ratio",
        successes as f64 / (exact.arch[0] + exact.failed).max(1) as f64,
    );
    out.insert("arch.windows_tried", exact.arch[1] as f64);
    out.insert("arch.path_searches", exact.arch[2] as f64);
    out.insert("arch.nodes_expanded", exact.arch[3] as f64);
    out.insert("arch.segments_priced", exact.arch[4] as f64);
    out.insert("arch.postponed_transports", exact.arch[5] as f64);
    out.insert("schedule.busy_s", get("schedule"));
    out.insert("layout.busy_s", get("layout"));
    out.insert("sim.busy_s", get("sim"));
    out.insert("synth.busy_s", get("synth"));
    out.insert("json.encode_s", get("json.encode"));
    out.insert("json.decode_s", get("json.decode"));
    out.insert("json.hash_s", get("json.hash"));
    out.insert("json.bytes", pass.json_bytes as f64);
}

impl Pass {
    /// Each input's sustained latency is the 90th percentile of its
    /// repetitions. Other load on the host slows the program for seconds to
    /// minutes at a time; the slowed level is reached in nearly every run
    /// and the fast level only in some, so the 90th percentile repeats from
    /// run to run where the best or median repetition does not. Latency
    /// quantiles are taken over the inputs' sustained latencies, and
    /// throughput is the inputs' count over their sum: the rate of a loop in
    /// which every request ran at its sustained latency.
    pub fn into_run(self) -> Run {
        let sustained: Vec<f64> = self
            .latencies
            .iter()
            .map(|l| {
                let mut sorted = l.clone();
                sorted.sort_by(f64::total_cmp);
                quantile(&sorted, 0.9)
            })
            .collect();
        let total: f64 = sustained.iter().sum();
        Run {
            e2e: EndToEnd::from_latencies(&sustained, total),
            exact: self.exact,
            attempted: self.attempted,
            failed: self.failed,
            errors: self.errors,
        }
    }
}

pub fn trace_rounds(kind: Kind) -> usize {
    match kind {
        Kind::ColdScale => 1,
        Kind::PaperSuite => PAPER_TRACE_ROUNDS,
    }
}
