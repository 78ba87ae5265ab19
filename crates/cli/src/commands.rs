//! Implementation of the `biochip` subcommands.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use biochip_synth::arch::{ArchitectureSynthesizer, SynthesisOptions};
use biochip_synth::layout::{generate_layout, render_ascii};
use biochip_synth::sim::{replay, simulate_dedicated_storage};
use biochip_synth::{SchedulerChoice, SynthesisConfig, SynthesisFlow, SynthesisReport};

use crate::args::{render_options, OptionSpec, ParsedArgs};
use crate::assays;
use crate::batch::{run_batch, BatchJob};
use crate::state::{PipelineState, StageTimings};
use crate::{read_file, write_file, CliError};

/// Top-level usage text.
pub const USAGE: &str = "\
biochip — flow-based microfluidic biochip synthesis (Liu et al., DAC'17)

usage: biochip <command> [options]

commands:
  run       full pipeline on one assay (schedule → synth → layout → simulate)
  schedule  scheduling & binding only; writes a pipeline-state JSON
  synth     architectural synthesis + physical design from a schedule state
  simulate  replay a synthesized chip; completes the pipeline state
  batch     fan assays × configurations across a thread pool
  serve     run the persistent HTTP job service with a result cache
  bench     reproduce the paper's Table 2 / Fig 8-10 numbers + scale sweep
  assays    list the built-in benchmark assays
  lint      static analysis of the workspace sources (determinism,
            panic-safety, lock-discipline and unsafe-inventory rules)

run `biochip <command> --help` for the options of one command.
The global flag --json-errors additionally prints failures as a
structured biochip-error/v1 JSON document on stdout (pipeline mode).
";

/// Entry point: dispatches `argv` (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] carrying the message and exit code on any failure.
pub fn dispatch(argv: &[String]) -> Result<(), CliError> {
    let Some(command) = argv.first() else {
        return Err(CliError::usage(USAGE.to_owned()));
    };
    let rest = &argv[1..];
    match command.as_str() {
        "run" => cmd_run(rest),
        "schedule" => cmd_schedule(rest),
        "synth" => cmd_synth(rest),
        "simulate" => cmd_simulate(rest),
        "batch" => cmd_batch(rest),
        "serve" => cmd_serve(rest),
        "bench" => cmd_bench(rest),
        "assays" => cmd_assays(rest),
        "lint" => cmd_lint(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// shared configuration options
// ---------------------------------------------------------------------------

const CONFIG_SPECS: &[OptionSpec] = &[
    OptionSpec {
        name: "--assay",
        takes_value: true,
        help: "library assay (PCR, IVD, CPA, RA30-RA100, RA1K, RA10K; aliases invitro/protein)",
    },
    OptionSpec {
        name: "--input",
        takes_value: true,
        help: "assay file (.json = serialized graph, otherwise text format)",
    },
    OptionSpec {
        name: "--mixers",
        takes_value: true,
        help: "number of mixers (default 2)",
    },
    OptionSpec {
        name: "--detectors",
        takes_value: true,
        help: "number of detectors (default 2)",
    },
    OptionSpec {
        name: "--heaters",
        takes_value: true,
        help: "number of heaters (default 1)",
    },
    OptionSpec {
        name: "--scheduler",
        takes_value: true,
        help: "auto | ilp | storage | makespan (default auto)",
    },
    OptionSpec {
        name: "--transport",
        takes_value: true,
        help: "device-to-device transport time u_c in seconds",
    },
    OptionSpec {
        name: "--grid-size",
        takes_value: true,
        help: "fixed connection-grid side length (default: derived)",
    },
    OptionSpec {
        name: "--max-grid-size",
        takes_value: true,
        help: "largest grid the router may grow to (default 12)",
    },
    OptionSpec {
        name: "--ilp-time-limit",
        takes_value: true,
        help: "ILP scheduler wall-clock limit in seconds (default 15)",
    },
    OptionSpec {
        name: "--annealing-moves",
        takes_value: true,
        help: "placement refinement moves (default 2000; 0 disables refinement)",
    },
    OptionSpec {
        name: "--window-candidates",
        takes_value: true,
        help: "max candidate start times per transport window (default 16)",
    },
    OptionSpec {
        name: "--channel-pitch",
        takes_value: true,
        help: "minimum channel pitch for physical design (default 1)",
    },
    OptionSpec {
        name: "--threads",
        takes_value: true,
        help: "placement-start workers for one synthesis (default 1; 0 = all cores; output is thread-count independent)",
    },
];

fn parse_scheduler(raw: &str) -> Result<SchedulerChoice, CliError> {
    match raw.to_lowercase().as_str() {
        "auto" => Ok(SchedulerChoice::Auto),
        "ilp" => Ok(SchedulerChoice::Ilp),
        "storage" | "storage-aware" | "list" => Ok(SchedulerChoice::StorageAware),
        "makespan" | "makespan-only" => Ok(SchedulerChoice::MakespanOnly),
        other => Err(CliError::usage(format!(
            "unknown scheduler `{other}` (expected auto, ilp, storage or makespan)"
        ))),
    }
}

fn config_from_args(parsed: &ParsedArgs) -> Result<SynthesisConfig, CliError> {
    let mut config = SynthesisConfig::default();
    if let Some(mixers) = parsed.parse_value::<usize>("--mixers")? {
        config = config.with_mixers(mixers);
    }
    if let Some(detectors) = parsed.parse_value::<usize>("--detectors")? {
        config = config.with_detectors(detectors);
    }
    if let Some(heaters) = parsed.parse_value::<usize>("--heaters")? {
        config = config.with_heaters(heaters);
    }
    if let Some(raw) = parsed.value("--scheduler") {
        config = config.with_scheduler(parse_scheduler(raw)?);
    }
    if let Some(transport) = parsed.parse_value::<u64>("--transport")? {
        config = config.with_transport_time(transport);
    }
    if let Some(side) = parsed.parse_value::<usize>("--grid-size")? {
        config.synthesis.grid_size = Some(side);
    }
    if let Some(side) = parsed.parse_value::<usize>("--max-grid-size")? {
        config.synthesis.max_grid_size = side;
    }
    if let Some(secs) = parsed.parse_value::<u64>("--ilp-time-limit")? {
        config.ilp_time_limit = Duration::from_secs(secs);
    }
    if let Some(moves) = parsed.parse_value::<usize>("--annealing-moves")? {
        config.synthesis.placement.refine = moves > 0;
        config.synthesis.placement.annealing_moves = moves.max(1);
    }
    if let Some(candidates) = parsed.parse_value::<usize>("--window-candidates")? {
        config.synthesis.routing.max_window_candidates = candidates.max(1);
    }
    if let Some(pitch) = parsed.parse_value::<u64>("--channel-pitch")? {
        config.layout.channel_pitch = pitch.max(1);
    }
    if let Some(threads) = parsed.parse_value::<usize>("--threads")? {
        config.parallelism = biochip_synth::arch::Parallelism::with_threads(threads);
    }
    Ok(config)
}

fn help_requested(argv: &[String]) -> bool {
    argv.iter().any(|a| a == "--help" || a == "-h")
}

fn print_help(command: &str, summary: &str, specs: &[OptionSpec]) {
    println!(
        "usage: biochip {command} [options]\n\n{summary}\n\n{}",
        render_options(specs)
    );
}

fn parse_with(
    argv: &[String],
    extra: &[OptionSpec],
) -> Result<(ParsedArgs, Vec<OptionSpec>), CliError> {
    let mut specs: Vec<OptionSpec> = CONFIG_SPECS.to_vec();
    specs.extend_from_slice(extra);
    let parsed = ParsedArgs::parse(argv, &specs)?;
    if let Some(stray) = parsed.positional().first() {
        return Err(CliError::usage(format!("unexpected argument `{stray}`")));
    }
    Ok((parsed, specs))
}

/// The `--trace <path>` option shared by the pipeline commands.
const TRACE_SPEC: OptionSpec = OptionSpec {
    name: "--trace",
    takes_value: true,
    help: "write a Chrome trace_event JSON of this run (open in Perfetto or chrome://tracing)",
};

/// Runs `f`, and when `--trace <path>` was given, collects the telemetry
/// spans it emits and writes them as a Chrome trace_event JSON file.
/// Collection never changes results — only whether the spans are kept.
fn with_optional_trace<T>(
    trace: Option<&str>,
    f: impl FnOnce() -> Result<T, CliError>,
) -> Result<T, CliError> {
    match trace {
        None => f(),
        Some(path) => {
            let (result, events) = biochip_telemetry::with_collection(f);
            // Written even when the run failed: a trace of a failing run is
            // exactly what one wants to look at.
            write_file(path, &biochip_telemetry::chrome_trace_json(&events))?;
            eprintln!("wrote {} trace event(s) to {path}", events.len());
            result
        }
    }
}

fn emit(path: Option<&str>, contents: &str, what: &str) -> Result<(), CliError> {
    match path {
        Some(path) => {
            write_file(path, contents)?;
            eprintln!("wrote {what} to {path}");
            Ok(())
        }
        None => {
            println!("{contents}");
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// biochip run
// ---------------------------------------------------------------------------

fn cmd_run(argv: &[String]) -> Result<(), CliError> {
    let extra = [
        OptionSpec {
            name: "--out",
            takes_value: true,
            help: "write the report JSON here (default: stdout summary only)",
        },
        OptionSpec {
            name: "--full",
            takes_value: false,
            help: "emit the complete pipeline state instead of just the report",
        },
        OptionSpec {
            name: "--render",
            takes_value: false,
            help: "print an ASCII rendering of the synthesized chip (stderr)",
        },
        TRACE_SPEC,
    ];
    if help_requested(argv) {
        let (_, specs) = parse_with(&[], &extra)?;
        print_help(
            "run",
            "Runs the full synthesis pipeline on one assay.",
            &specs,
        );
        return Ok(());
    }
    let (parsed, _) = parse_with(argv, &extra)?;
    let graph = assays::resolve(parsed.value("--assay"), parsed.value("--input"))?;
    let config = config_from_args(&parsed)?;

    let flow = SynthesisFlow::new(config.clone());
    let outcome = with_optional_trace(parsed.value("--trace"), || {
        flow.run(graph)
            .map_err(|e| CliError::runtime(format!("synthesis failed: {e}")))
    })?;

    eprintln!("{}", outcome.report);
    if parsed.flag("--render") {
        // The rendering goes to stderr alongside the summary so that stdout
        // stays parseable JSON even without --out.
        eprintln!("{}", render_ascii(&outcome.architecture, &HashSet::new()));
    }

    let json = if parsed.flag("--full") {
        PipelineState::from_outcome(config, &outcome).to_json_text()
    } else {
        biochip_json::to_string_pretty(&outcome.report)
    };
    emit(parsed.value("--out"), &json, "report")
}

// ---------------------------------------------------------------------------
// biochip schedule / synth / simulate — stage-at-a-time with file handoff
// ---------------------------------------------------------------------------

fn cmd_schedule(argv: &[String]) -> Result<(), CliError> {
    let extra = [
        OptionSpec {
            name: "--out",
            takes_value: true,
            help: "write the pipeline state here (default: stdout)",
        },
        TRACE_SPEC,
    ];
    if help_requested(argv) {
        let (_, specs) = parse_with(&[], &extra)?;
        print_help("schedule", "Runs scheduling & binding only.", &specs);
        return Ok(());
    }
    let (parsed, _) = parse_with(argv, &extra)?;
    let graph = assays::resolve(parsed.value("--assay"), parsed.value("--input"))?;
    let config = config_from_args(&parsed)?;

    let flow = SynthesisFlow::new(config.clone());
    let problem = flow.problem_for(graph);
    let started = Instant::now();
    let schedule = with_optional_trace(parsed.value("--trace"), || {
        flow.schedule(&problem)
            .map_err(|e| CliError::runtime(format!("scheduling failed: {e}")))
    })?;
    let scheduling_time = started.elapsed();

    eprintln!(
        "scheduled {}: makespan {}s, {} operations",
        problem.graph().name(),
        schedule.makespan(),
        schedule.len()
    );

    let mut state = PipelineState::new(problem.graph().name().to_owned(), config);
    state.timings.scheduling = scheduling_time;
    state.problem = Some(problem);
    state.schedule = Some(schedule);
    emit(
        parsed.value("--out"),
        &state.to_json_text(),
        "pipeline state",
    )
}

fn stage_input(parsed: &ParsedArgs) -> Result<PipelineState, CliError> {
    let path = parsed
        .value("--in")
        .ok_or_else(|| CliError::usage("--in <state.json> is required".to_owned()))?;
    Ok(PipelineState::from_json_text(&read_file(path)?, path)?)
}

const STAGE_SPECS: &[OptionSpec] = &[
    OptionSpec {
        name: "--in",
        takes_value: true,
        help: "pipeline-state JSON from the previous stage",
    },
    OptionSpec {
        name: "--out",
        takes_value: true,
        help: "write the updated pipeline state here (default: stdout)",
    },
    TRACE_SPEC,
];

const SYNTH_SPECS: &[OptionSpec] = &[
    OptionSpec {
        name: "--in",
        takes_value: true,
        help: "pipeline-state JSON from the previous stage",
    },
    OptionSpec {
        name: "--out",
        takes_value: true,
        help: "write the updated pipeline state here (default: stdout)",
    },
    OptionSpec {
        name: "--warm-from",
        takes_value: true,
        help: "completed pipeline state of a prior run; reuse its placement \
               and replay unchanged routes (byte-identical output)",
    },
    TRACE_SPEC,
];

/// Loads a prior completed pipeline state and turns it into a warm-start
/// hint. An unusable handoff (missing stages, mismatched schedule shape)
/// degrades to a cold run with a note on stderr — warm starts are an
/// optimization, never a correctness requirement.
fn warm_start_hint(path: &str) -> Result<Option<biochip_synth::arch::WarmStart>, CliError> {
    let prior = PipelineState::from_json_text(&read_file(path)?, path)?;
    let problem = prior.require_problem()?;
    let schedule = prior.require_schedule()?;
    let architecture = prior.require_architecture()?;
    let hint = biochip_synth::arch::WarmStart::from_prior(
        problem,
        schedule,
        architecture,
        &prior.config.synthesis,
    );
    if hint.is_none() {
        eprintln!("warm-start handoff `{path}` is not reusable here; running cold");
    }
    Ok(hint)
}

fn cmd_synth(argv: &[String]) -> Result<(), CliError> {
    if help_requested(argv) {
        print_help(
            "synth",
            "Architectural synthesis + physical design from a scheduled state.",
            SYNTH_SPECS,
        );
        return Ok(());
    }
    let parsed = ParsedArgs::parse(argv, SYNTH_SPECS)?;
    let mut state = stage_input(&parsed)?;
    let problem = state.require_problem()?.clone();
    let schedule = state.require_schedule()?.clone();
    schedule
        .validate(&problem)
        .map_err(|e| CliError::runtime(format!("state schedule is inconsistent: {e}")))?;
    let warm = match parsed.value("--warm-from") {
        Some(path) => warm_start_hint(path)?,
        None => None,
    };

    let options: SynthesisOptions = state.config.synthesis.clone();
    let mut architecture_time = Duration::ZERO;
    let mut layout_time = Duration::ZERO;
    let (architecture, layout) = with_optional_trace(parsed.value("--trace"), || {
        let started = Instant::now();
        let mut synthesizer = ArchitectureSynthesizer::new(options);
        if let Some(hint) = warm {
            synthesizer = synthesizer.with_warm_start(hint);
        }
        let architecture = synthesizer
            .synthesize(&problem, &schedule)
            .map_err(|e| CliError::runtime(format!("architectural synthesis failed: {e}")))?;
        architecture_time = started.elapsed();
        let started = Instant::now();
        let layout = generate_layout(&architecture, &state.config.layout);
        layout_time = started.elapsed();
        Ok((architecture, layout))
    })?;
    state.timings.architecture = architecture_time;
    state.timings.layout = layout_time;

    eprintln!(
        "synthesized {}: grid {}, {} kept edges, {} valves, compressed layout {}",
        state.assay,
        architecture.grid().dimensions(),
        architecture.used_edge_count(),
        architecture.valve_count(),
        layout.compressed
    );

    state.architecture = Some(architecture);
    state.layout = Some(layout);
    emit(
        parsed.value("--out"),
        &state.to_json_text(),
        "pipeline state",
    )
}

fn cmd_simulate(argv: &[String]) -> Result<(), CliError> {
    if help_requested(argv) {
        print_help(
            "simulate",
            "Replays the synthesized chip and completes the pipeline state.",
            STAGE_SPECS,
        );
        return Ok(());
    }
    let parsed = ParsedArgs::parse(argv, STAGE_SPECS)?;
    let mut state = stage_input(&parsed)?;
    let problem = state.require_problem()?.clone();
    let schedule = state.require_schedule()?.clone();
    let architecture = state.require_architecture()?.clone();
    let layout = state.require_layout()?.clone();

    // A handoff document can come from anywhere (another binary version, a
    // hand-edited file, a truncated upload): re-establish the invariants the
    // earlier stages guaranteed before replaying, so inconsistencies surface
    // as structured errors instead of panics or silently-wrong reports.
    schedule
        .validate(&problem)
        .map_err(|e| CliError::runtime(format!("state schedule is inconsistent: {e}")))?;
    architecture
        .verify()
        .map_err(|e| CliError::runtime(format!("state architecture is inconsistent: {e}")))?;

    let execution = with_optional_trace(parsed.value("--trace"), || {
        Ok(replay(&problem, &schedule, &architecture))
    })?;
    if execution.clamped {
        return Err(CliError::runtime(
            "replay produced out-of-bounds numbers (clamped report); \
             the state's architecture does not match its schedule"
                .to_owned(),
        ));
    }
    let dedicated = simulate_dedicated_storage(&problem, &schedule);
    let StageTimings {
        scheduling,
        architecture: architecture_time,
        layout: layout_time,
    } = state.timings;
    let report = SynthesisReport::collect(
        &problem,
        &schedule,
        &architecture,
        &layout,
        &execution,
        &dedicated,
        scheduling,
        architecture_time,
        layout_time,
    );

    eprintln!("{report}");

    state.execution = Some(execution);
    state.dedicated_baseline = Some(dedicated);
    state.report = Some(report);
    emit(
        parsed.value("--out"),
        &state.to_json_text(),
        "pipeline state",
    )
}

// ---------------------------------------------------------------------------
// biochip batch
// ---------------------------------------------------------------------------

fn cmd_batch(argv: &[String]) -> Result<(), CliError> {
    let extra = [
        OptionSpec {
            name: "--assays",
            takes_value: true,
            help: "comma-separated assay names (default: PCR,IVD,CPA,RA30)",
        },
        OptionSpec {
            name: "--mixer-counts",
            takes_value: true,
            help: "comma-separated mixer counts to sweep (default: 1,2,3)",
        },
        OptionSpec {
            name: "--schedulers",
            takes_value: true,
            help: "comma-separated scheduler choices to sweep (default: the --scheduler value)",
        },
        OptionSpec {
            name: "--out",
            takes_value: true,
            help: "write the aggregate batch report here (default: stdout)",
        },
    ];
    if help_requested(argv) {
        let (_, specs) = parse_with(&[], &extra)?;
        print_help(
            "batch",
            "Fans assays × configurations across a thread pool.",
            &specs,
        );
        return Ok(());
    }
    let (parsed, _) = parse_with(argv, &extra)?;
    if parsed.value("--assay").is_some() || parsed.value("--input").is_some() {
        return Err(CliError::usage(
            "batch sweeps --assays (plural); --assay/--input apply to single runs".to_owned(),
        ));
    }
    let mut base_config = config_from_args(&parsed)?;
    // In batch mode `--threads` sizes the *job pool*; the jobs themselves
    // stay sequential (one core each) — inter-job parallelism already
    // saturates the machine, and oversubscribing cores per job would only
    // add contention.
    base_config.parallelism = biochip_synth::arch::Parallelism::sequential();

    let assay_names = parsed
        .list_value("--assays")
        .unwrap_or_else(|| vec!["PCR".into(), "IVD".into(), "CPA".into(), "RA30".into()]);
    let mixer_counts: Vec<usize> = match parsed.list_value("--mixer-counts") {
        Some(raw) => raw
            .iter()
            .map(|s| {
                s.parse::<usize>()
                    .map_err(|e| CliError::usage(format!("invalid mixer count `{s}`: {e}")))
            })
            .collect::<Result<_, _>>()?,
        None => vec![1, 2, 3],
    };
    let schedulers: Vec<SchedulerChoice> = match parsed.list_value("--schedulers") {
        Some(raw) => raw
            .iter()
            .map(|s| parse_scheduler(s))
            .collect::<Result<_, _>>()?,
        None => vec![base_config.scheduler],
    };
    if assay_names.is_empty() || mixer_counts.is_empty() || schedulers.is_empty() {
        return Err(CliError::usage(
            "batch needs at least one assay, mixer count and scheduler".to_owned(),
        ));
    }

    // Resolve every assay once up front so name errors surface before any
    // thread is spawned.
    let mut graphs = Vec::with_capacity(assay_names.len());
    for name in &assay_names {
        graphs.push((name.clone(), assays::by_name(name)?));
    }

    let mut jobs = Vec::new();
    for (_, graph) in &graphs {
        for &mixers in &mixer_counts {
            for &scheduler in &schedulers {
                jobs.push(BatchJob {
                    id: jobs.len(),
                    assay: graph.name().to_owned(),
                    graph: graph.clone(),
                    config: base_config
                        .clone()
                        .with_mixers(mixers)
                        .with_scheduler(scheduler),
                });
            }
        }
    }

    let threads = match parsed.parse_value::<usize>("--threads")? {
        Some(n) => n.max(1),
        None => biochip_pool::default_workers(),
    };

    eprintln!(
        "batch: {} jobs ({} assays x {} mixer counts x {} schedulers) on {} threads",
        jobs.len(),
        graphs.len(),
        mixer_counts.len(),
        schedulers.len(),
        threads.min(jobs.len()),
    );
    let report = run_batch(jobs, threads);
    eprintln!(
        "batch finished: {}/{} succeeded in {:.2}s wall ({:.2}s cpu)",
        report.succeeded, report.jobs, report.wall_seconds, report.cpu_seconds
    );
    for failure in report.failures() {
        eprintln!(
            "  FAILED {} (mixers={}, scheduler={}): {}",
            failure.assay,
            failure.mixers,
            failure.scheduler,
            failure.error.as_deref().unwrap_or("unknown")
        );
    }

    emit(
        parsed.value("--out"),
        &biochip_json::to_string_pretty(&report),
        "batch report",
    )?;
    if report.failed > 0 {
        return Err(CliError::runtime(format!(
            "{} batch job(s) failed",
            report.failed
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// biochip serve
// ---------------------------------------------------------------------------

fn cmd_serve(argv: &[String]) -> Result<(), CliError> {
    let specs = [
        OptionSpec {
            name: "--addr",
            takes_value: true,
            help: "listen address (default 127.0.0.1:7078; port 0 picks a free port)",
        },
        OptionSpec {
            name: "--workers",
            takes_value: true,
            help: "synthesis worker threads (default: available parallelism)",
        },
        OptionSpec {
            name: "--cache-capacity",
            takes_value: true,
            help: "content-addressed result-cache entries (default 64)",
        },
        OptionSpec {
            name: "--threads",
            takes_value: true,
            help: "placement-start workers per cold job (default 1; 0 = all cores; capped at 2x cores / workers)",
        },
        OptionSpec {
            name: "--data-dir",
            takes_value: true,
            help: "directory for the crash-safe result store and job journal (default: memory only)",
        },
        OptionSpec {
            name: "--store-mb",
            takes_value: true,
            help: "byte budget of the on-disk result store, in MiB (default 256)",
        },
        OptionSpec {
            name: "--max-queue",
            takes_value: true,
            help: "cold submissions answer 429 once this many jobs are queued (default 1024)",
        },
        OptionSpec {
            name: "--max-inflight",
            takes_value: true,
            help: "per-client in-flight job quota before a 429 (default 256)",
        },
    ];
    if help_requested(argv) {
        print_help(
            "serve",
            "Runs the persistent synthesis job service: POST /jobs,\n\
             GET /jobs/:id, DELETE /jobs/:id, GET /results/:id, GET /stats,\n\
             GET /metrics (Prometheus text), GET /healthz, POST /shutdown.\n\
             Results are cached under the canonical hash of the\n\
             (problem, config) pair, so identical submissions are lookups.\n\
             With --data-dir, results persist across restarts (crash-safe\n\
             store + job journal) and SIGTERM drains gracefully.",
            &specs,
        );
        return Ok(());
    }
    let parsed = ParsedArgs::parse(argv, &specs)?;
    if let Some(stray) = parsed.positional().first() {
        return Err(CliError::usage(format!("unexpected argument `{stray}`")));
    }
    let mut options = biochip_server::ServeOptions::default();
    if let Some(addr) = parsed.value("--addr") {
        options.addr = addr.to_owned();
    }
    if let Some(workers) = parsed.parse_value::<usize>("--workers")? {
        options.workers = workers;
    }
    if let Some(capacity) = parsed.parse_value::<usize>("--cache-capacity")? {
        options.cache_capacity = capacity;
    }
    if let Some(threads) = parsed.parse_value::<usize>("--threads")? {
        options.threads_per_job = threads;
    }
    if let Some(dir) = parsed.value("--data-dir") {
        options.data_dir = Some(dir.to_owned());
    }
    if let Some(mib) = parsed.parse_value::<u64>("--store-mb")? {
        options.store_bytes = mib.saturating_mul(1024 * 1024);
    }
    if let Some(depth) = parsed.parse_value::<usize>("--max-queue")? {
        options.max_queue_depth = depth;
    }
    if let Some(quota) = parsed.parse_value::<usize>("--max-inflight")? {
        options.max_inflight_per_client = quota;
    }

    let server = biochip_server::Server::bind(&options)
        .map_err(|e| CliError::runtime(format!("cannot bind `{}`: {e}", options.addr)))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::runtime(format!("cannot read bound address: {e}")))?;
    if let Err(err) = server.drain_on_term_signal() {
        eprintln!("biochip serve: no graceful SIGTERM drain ({err})");
    }
    eprintln!(
        "biochip serve: listening on http://{addr} \
         (POST /jobs, GET /jobs/:id, GET /results/:id, GET /stats, GET /metrics)"
    );
    server.run();
    Ok(())
}

// ---------------------------------------------------------------------------
// biochip bench
// ---------------------------------------------------------------------------

fn cmd_bench(argv: &[String]) -> Result<(), CliError> {
    let specs = [
        OptionSpec {
            name: "--what",
            takes_value: true,
            help: "table2 | fig8 | fig9 | fig10 | pipeline | editloop (default table2)",
        },
        OptionSpec {
            name: "--format",
            takes_value: true,
            help: "json | csv | text (default text)",
        },
        OptionSpec {
            name: "--out",
            takes_value: true,
            help: "write the result here (default: stdout)",
        },
        OptionSpec {
            name: "--threads",
            takes_value: true,
            help: "pipeline only: comma-separated thread counts (default 1,<cores>)",
        },
        OptionSpec {
            name: "--assays",
            takes_value: true,
            help: "pipeline/editloop only: comma-separated assay names \
                   (default RA1K,RA10K for pipeline, RA1K for editloop)",
        },
        OptionSpec {
            name: "--edits",
            takes_value: true,
            help: "editloop only: edits per assay (default 6)",
        },
    ];
    if help_requested(argv) {
        print_help(
            "bench",
            "Reproduces the paper's evaluation numbers; `bench pipeline`\n\
             measures the cold pipeline's per-stage latency, chip quality and\n\
             router work (and fails if output differs across thread counts), and\n\
             `bench editloop` replays single-edit resynthesis warm vs. cold\n\
             (and fails if any warm output key diverges from cold).",
            &specs,
        );
        return Ok(());
    }
    let parsed = ParsedArgs::parse(argv, &specs)?;
    // The target can be given positionally (`biochip bench pipeline`) or via
    // `--what`; giving both (or several positionals) is ambiguous.
    let what = match (parsed.positional(), parsed.value("--what")) {
        ([], what) => what.unwrap_or("table2"),
        ([one], None) => one.as_str(),
        ([one], Some(what)) if one == what => what,
        _ => {
            return Err(CliError::usage(
                "give one bench target: `biochip bench <target>` or `--what <target>`".to_owned(),
            ));
        }
    };
    if what != "pipeline" && parsed.value("--threads").is_some() {
        return Err(CliError::usage(
            "--threads only applies to `biochip bench pipeline`".to_owned(),
        ));
    }
    if !matches!(what, "pipeline" | "editloop") && parsed.value("--assays").is_some() {
        return Err(CliError::usage(
            "--assays only applies to `biochip bench pipeline` or `bench editloop`".to_owned(),
        ));
    }
    if what != "editloop" && parsed.value("--edits").is_some() {
        return Err(CliError::usage(
            "--edits only applies to `biochip bench editloop`".to_owned(),
        ));
    }
    let format = parsed.value("--format").unwrap_or("text");
    let assays_raw = parsed.list_value("--assays");
    let contents = match (what, format) {
        ("pipeline", "json" | "csv" | "text") => {
            let threads: Vec<usize> = match parsed.list_value("--threads") {
                Some(raw) => raw
                    .iter()
                    .map(|s| {
                        s.parse::<usize>().map_err(|e| {
                            CliError::usage(format!("invalid thread count `{s}`: {e}"))
                        })
                    })
                    .collect::<Result<_, _>>()?,
                None => {
                    let host = biochip_pool::default_workers();
                    let mut defaults = vec![1, host];
                    defaults.dedup();
                    defaults
                }
            };
            if threads.is_empty() || threads.contains(&0) {
                return Err(CliError::usage(
                    "--threads needs at least one non-zero thread count".to_owned(),
                ));
            }
            let assays = bench_assays(
                assays_raw.as_deref(),
                biochip_bench::DEFAULT_PIPELINE_ASSAYS,
            )?;
            let rows = biochip_bench::pipeline_rows(&assays, &threads)
                .map_err(|e| CliError::runtime(format!("pipeline sweep failed: {e}")))?;
            // Write the artifact before the identity gate so a failing run
            // still leaves the evidence for CI to upload.
            biochip_bench::write_bench_json("pipeline", &rows);
            biochip_bench::assert_thread_equality(&rows).map_err(|divergence| {
                CliError::runtime(format!("DETERMINISM FAILURE: {divergence}"))
            })?;
            match format {
                "json" => biochip_json::to_string_pretty(&rows),
                "csv" => biochip_bench::pipeline_csv(&rows),
                _ => biochip_bench::format_pipeline(&rows),
            }
        }
        ("editloop", "json" | "csv" | "text") => {
            let assays = bench_assays(
                assays_raw.as_deref(),
                biochip_bench::DEFAULT_EDITLOOP_ASSAYS,
            )?;
            let edits = parsed
                .parse_value::<usize>("--edits")?
                .unwrap_or(biochip_bench::DEFAULT_EDITLOOP_EDITS)
                .max(1);
            let rows = biochip_bench::editloop_rows(&assays, edits)
                .map_err(|e| CliError::runtime(format!("edit-loop sweep failed: {e}")))?;
            // Write the artifact before the identity gate so a failing run
            // still leaves the evidence for CI to upload.
            biochip_bench::write_bench_json("editloop", &rows);
            biochip_bench::assert_editloop_identity(&rows).map_err(|divergence| {
                CliError::runtime(format!("DETERMINISM FAILURE: {divergence}"))
            })?;
            match format {
                "json" => biochip_json::to_string_pretty(&rows),
                "csv" => biochip_bench::editloop_csv(&rows),
                _ => biochip_bench::format_editloop(&rows),
            }
        }
        ("table2", "text") => biochip_bench::format_table2(&biochip_bench::table2_rows()),
        ("table2", "json") => biochip_json::to_string_pretty(&biochip_bench::table2_rows()),
        ("table2", "csv") => table2_csv(&biochip_bench::table2_rows()),
        ("fig8", "json") => biochip_json::to_string_pretty(&biochip_bench::fig8_rows()),
        ("fig8", "csv" | "text") => {
            ratio_csv("edge_ratio,valve_ratio", &biochip_bench::fig8_rows())
        }
        ("fig9", "json") => biochip_json::to_string_pretty(&biochip_bench::fig9_rows()),
        ("fig9", "csv" | "text") => fig9_csv(&biochip_bench::fig9_rows()),
        ("fig10", "json") => biochip_json::to_string_pretty(&biochip_bench::fig10_rows()),
        ("fig10", "csv" | "text") => {
            ratio_csv("execution_ratio,valve_ratio", &biochip_bench::fig10_rows())
        }
        (w, f)
            if !matches!(
                w,
                "table2" | "fig8" | "fig9" | "fig10" | "pipeline" | "editloop"
            ) =>
        {
            return Err(CliError::usage(format!(
                "unknown bench target `{f}`-formatted `{w}` \
                 (expected table2, fig8, fig9, fig10, pipeline or editloop)"
            )));
        }
        (_, f) => {
            return Err(CliError::usage(format!(
                "unknown format `{f}` (expected json, csv or text)"
            )));
        }
    };
    emit(parsed.value("--out"), &contents, "bench results")
}

/// The `--assays` list of a bench target, or the target's defaults.
fn bench_assays<'a>(
    raw: Option<&'a [String]>,
    defaults: &[&'a str],
) -> Result<Vec<&'a str>, CliError> {
    let assays: Vec<&str> = match raw {
        Some(raw) => raw.iter().map(String::as_str).collect(),
        None => defaults.to_vec(),
    };
    if assays.is_empty() {
        return Err(CliError::usage(
            "--assays needs at least one assay name".to_owned(),
        ));
    }
    Ok(assays)
}

fn table2_csv(rows: &[SynthesisReport]) -> String {
    let mut out = String::from(
        "assay,operations,execution_time_s,grid,used_edges,valves,dims_scaled,dims_expanded,dims_compressed,stored_samples,peak_storage,scheduling_s,architecture_s,layout_s\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.3}\n",
            r.assay,
            r.operations,
            r.execution_time,
            r.grid,
            r.used_edges,
            r.valves,
            r.dims_scaled,
            r.dims_expanded,
            r.dims_compressed,
            r.stored_samples,
            r.peak_storage,
            r.scheduling_time.as_secs_f64(),
            r.architecture_time.as_secs_f64(),
            r.layout_time.as_secs_f64(),
        ));
    }
    out
}

fn ratio_csv(header: &str, rows: &[(String, f64, f64)]) -> String {
    let mut out = format!("assay,{header}\n");
    for (assay, a, b) in rows {
        out.push_str(&format!("{assay},{a:.4},{b:.4}\n"));
    }
    out
}

fn fig9_csv(rows: &[biochip_bench::Fig9Row]) -> String {
    let mut out = String::from(
        "assay,execution_baseline_s,execution_optimized_s,edges_baseline,edges_optimized,valves_baseline,valves_optimized\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            r.assay,
            r.execution_baseline,
            r.execution_optimized,
            r.edges.0,
            r.edges.1,
            r.valves.0,
            r.valves.1,
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// biochip assays
// ---------------------------------------------------------------------------

fn cmd_lint(argv: &[String]) -> Result<(), CliError> {
    if help_requested(argv) {
        println!(
            "usage: biochip lint [--root DIR] [--baseline FILE] [--list-waived]\n\n\
             Runs the biochip-lint static analysis over every workspace crate\n\
             (D1 map-iteration order, D2 wall-clock, D3 RNG sources, P1\n\
             panic-safety, L1 lock discipline, U1 unsafe inventory). Fails on\n\
             any finding not suppressed by an inline waiver or the committed\n\
             baseline, and on baseline entries whose finding no longer exists.\n\
             `biochip-lint --write-baseline` (the standalone bin) rewrites the\n\
             baseline."
        );
        return Ok(());
    }
    let mut root: Option<std::path::PathBuf> = None;
    let mut baseline_path: Option<std::path::PathBuf> = None;
    let mut list_waived = false;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                root = Some(std::path::PathBuf::from(
                    args.next()
                        .ok_or_else(|| CliError::usage("--root needs a value"))?,
                ));
            }
            "--baseline" => {
                baseline_path =
                    Some(std::path::PathBuf::from(args.next().ok_or_else(|| {
                        CliError::usage("--baseline needs a value")
                    })?));
            }
            "--list-waived" => list_waived = true,
            other => {
                return Err(CliError::usage(format!(
                    "unknown option `{other}` (see `biochip lint --help`)"
                )));
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| CliError::runtime(e.to_string()))?;
            biochip_lint::workspace::find_root(&cwd).ok_or_else(|| {
                CliError::runtime("no workspace Cargo.toml found above the current directory")
            })?
        }
    };
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("ci/lint-baseline.tsv"));
    let baseline =
        biochip_lint::baseline::Baseline::load(&baseline_path).map_err(CliError::runtime)?;
    let report = biochip_lint::workspace::run(&root, &baseline).map_err(CliError::runtime)?;

    if list_waived {
        for f in &report.waived {
            println!("waived: {f}");
        }
    }
    for (path, waiver) in &report.unused_waivers {
        println!(
            "warning: {path}:{}: unused waiver for {} (\"{}\")",
            waiver.line, waiver.rule, waiver.reason
        );
    }
    for (finding, _) in &report.new {
        println!("{finding}");
    }
    for entry in &report.stale {
        println!(
            "stale baseline entry: {} {} {} ({})",
            entry.rule, entry.path, entry.key, entry.note
        );
    }
    println!(
        "biochip lint: {} crates, {} files — {} new finding(s), {} waived, {} baselined, \
         {} stale baseline entr{}",
        report.crates,
        report.files,
        report.new.len(),
        report.waived.len(),
        report.baselined.len(),
        report.stale.len(),
        if report.stale.len() == 1 { "y" } else { "ies" },
    );
    if report.is_clean() {
        Ok(())
    } else {
        Err(CliError::runtime(format!(
            "{} new finding(s), {} stale baseline entr{}",
            report.new.len(),
            report.stale.len(),
            if report.stale.len() == 1 { "y" } else { "ies" },
        )))
    }
}

fn cmd_assays(argv: &[String]) -> Result<(), CliError> {
    if help_requested(argv) {
        println!("usage: biochip assays\n\nLists the built-in benchmark assays.");
        return Ok(());
    }
    println!("name     aliases              device-ops  depth  critical-path");
    for (canonical, aliases) in assays::LIBRARY {
        let graph = assays::by_name(canonical)?;
        println!(
            "{:<8} {:<20} {:<11} {:<6} {}s",
            canonical,
            aliases.join(","),
            graph.device_operations().len(),
            graph.depth(),
            graph.critical_path(),
        );
    }
    Ok(())
}
