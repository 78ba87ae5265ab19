//! The repository benchmark: one command runs a named workload with a seed,
//! checks the program's outputs and prints every metric by name with its
//! unit. See `BENCHMARK.json` at the repository root for the workloads and
//! metrics, and `perfbench/README.md` for how to run it.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_scale --seed 1 --seconds 36 --trace 0
//! ```
//!
//! With `--trace 0` the run is timed with tracing off and prints the
//! end-to-end metrics. With `--trace 1` it runs a fixed set of requests
//! twice, untraced and then traced (benchmark spans around every call into
//! a layer; on serve_mix also the program's own telemetry, which gives the
//! server-side stage times), checks that both runs give the same outputs,
//! prints the per-layer metrics and the tracing overhead, and writes the
//! spans to `perfbench/out/trace-<workload>-<seed>.json`.

#![forbid(unsafe_code)]

mod common;
mod inproc;
mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use biochip_synth::assay::random::ra1k;
use biochip_synth::{SynthesisFlow, SynthesisOutcome};
use biochip_telemetry as telemetry;

use common::{median, EndToEnd, Metrics, Run, Tracer, OUT_DIR};
use inproc::Kind;

/// RA1K's output key at the CLI defaults: the set-up known answer.
const RA1K_OUTPUT_KEY: &str = "6de828242c0aa6b9";
/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;

/// Every per-layer metric with its unit, in print order. Layers a workload
/// does not exercise print 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("arch.busy_s", "s"),
    ("arch.grids_tried", "count"),
    ("arch.useful_attempt_ratio", "ratio"),
    ("arch.windows_tried", "count"),
    ("arch.path_searches", "count"),
    ("arch.nodes_expanded", "count"),
    ("arch.segments_priced", "count"),
    ("arch.postponed_transports", "count"),
    ("schedule.busy_s", "s"),
    ("layout.busy_s", "s"),
    ("sim.busy_s", "s"),
    ("synth.busy_s", "s"),
    ("json.encode_s", "s"),
    ("json.decode_s", "s"),
    ("json.hash_s", "s"),
    ("json.bytes", "bytes"),
    ("server.submit_s", "s"),
    ("server.status_s", "s"),
    ("server.result_s", "s"),
    ("server.wait_s", "s"),
    ("server.polls_per_job", "count"),
    ("server.rejected", "count"),
    ("server.fresh_latency_p50_s", "s"),
    ("server.repeat_latency_p50_s", "s"),
    ("server.edit_latency_p50_s", "s"),
    ("synth.cache_hit_ratio", "ratio"),
    ("synth.stage_hits.schedule", "count"),
    ("synth.stage_hits.architecture", "count"),
    ("synth.warm_jobs", "count"),
    ("synth.warm_tasks_replayed", "count"),
    ("store.hits", "count"),
    ("store.writes", "count"),
    ("store.bytes", "bytes"),
    ("store.write_errors", "count"),
    ("store.journal_appends", "count"),
    ("pool.busy_s", "s"),
    ("pool.utilization", "ratio"),
    ("telemetry.overhead.assays_per_s", "1/s"),
    ("telemetry.overhead.latency_p50_s", "s"),
    ("telemetry.overhead.latency_p90_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let name = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = iter.next().ok_or_else(|| format!("{name} needs a value"))?;
        values.insert(name, value);
    }
    let get = |name: &str| {
        values
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} must be a whole number"))
    };
    Ok(Args {
        workload: get("--workload")?.to_owned(),
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

/// The set-up known answer: RA1K at the CLI defaults.
fn known_answer() -> Result<SynthesisOutcome, String> {
    let outcome = SynthesisFlow::new(inproc::cli_config())
        .run(ra1k())
        .map_err(|e| format!("RA1K fails: {e}"))?;
    let key = outcome.output_key();
    if key != RA1K_OUTPUT_KEY {
        return Err(format!("RA1K output_key {key}, expected {RA1K_OUTPUT_KEY}"));
    }
    Ok(outcome)
}

/// Runs `setup` `SETUP_REPEATS` times in a row and returns the median time
/// and the last result; earlier results are handed to `discard`.
fn repeated_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUP_REPEATS {
        let started = Instant::now();
        let value = setup(i)?;
        times.push(started.elapsed().as_secs_f64());
        if let Some(previous) = kept.replace(value) {
            discard(previous)?;
        }
    }
    let value = kept.ok_or("no set-up ran")?;
    Ok((median(&times), value))
}

/// What a run hands back for printing.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// The timed run's result: the end-to-end metrics.
fn timed(args: &Args, setup_s: f64, run: Run) -> Outcome {
    let mut metrics = Metrics::default();
    metrics.put("setup_s", setup_s, "s");
    run.e2e.put(&mut metrics);
    metrics.put("ok_share", run.exact.ok_share(), "ratio");
    metrics.put("exec_ratio_vs_dedicated", run.exact.exec_ratio, "ratio");
    metrics.put("valve_ratio_vs_dedicated", run.exact.valve_ratio, "ratio");
    metrics.put("peak_rss_mb", common::peak_rss_mb(), "MB");
    let mut errors = run.errors;
    if let Err(e) = common::check_exact_record(&args.workload, args.seed, &run.exact) {
        errors.push(e);
    }
    eprintln!("exact: {}", run.exact.render());
    Outcome {
        metrics,
        attempted: run.attempted,
        failed: run.failed,
        errors,
    }
}

/// The traced comparison's result: the per-layer metrics in `figures`
/// plus the tracing overhead. Writes the trace.
fn traced(
    args: &Args,
    untraced: Run,
    traced: Run,
    mut figures: BTreeMap<&'static str, f64>,
    spans: &[common::Span],
) -> Result<Outcome, String> {
    let mut errors = untraced.errors;
    errors.extend(traced.errors);
    if untraced.exact != traced.exact {
        errors.push(format!(
            "traced run differs from untraced:\n  untraced: {}\n  traced:   {}",
            untraced.exact.render(),
            traced.exact.render()
        ));
    }
    if let Err(e) = common::check_exact_record(&args.workload, args.seed, &untraced.exact) {
        errors.push(e);
    }
    EndToEnd::overhead(&traced.e2e, &untraced.e2e, &mut figures);
    let path = PathBuf::from(OUT_DIR).join(format!("trace-{}-{}.json", args.workload, args.seed));
    common::write_chrome_trace(&path, spans).map_err(|e| format!("cannot write the trace: {e}"))?;
    eprintln!("exact: {}", untraced.exact.render());
    let mut metrics = Metrics::default();
    for (name, unit) in PER_LAYER {
        metrics.put(name, figures.get(name).copied().unwrap_or(0.0), unit);
    }
    Ok(Outcome {
        metrics,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        errors,
    })
}

fn run_inproc(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let mut setup_times = Vec::new();
    let mut setup = || -> Result<inproc::Inputs, String> {
        let started = Instant::now();
        let inputs = inproc::generate_inputs(kind, args.seed);
        known_answer()?;
        setup_times.push(started.elapsed().as_secs_f64());
        Ok(inputs)
    };
    let inputs = setup()?;
    let epoch = Instant::now();
    if !args.trace {
        // The other set-ups run at even intervals inside the timed run, so
        // that `setup_s` samples the host's speed over the same stretch of
        // time as the timed figures.
        let spacing = args.seconds / SETUP_REPEATS as f64;
        let mut done = 1;
        let mut failure = None;
        let pass = inproc::run_pass(
            &inputs,
            &mut Tracer::new(false, epoch, 0),
            Some(args.seconds),
            0,
            |elapsed| {
                if done < SETUP_REPEATS && elapsed >= spacing * done as f64 {
                    done += 1;
                    if let Err(e) = setup() {
                        failure.get_or_insert(e);
                    }
                }
            },
        );
        while failure.is_none() && done < SETUP_REPEATS {
            done += 1;
            if let Err(e) = setup() {
                failure = Some(e);
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        return Ok(timed(args, median(&setup_times), pass.into_run()));
    }
    let rounds = inproc::trace_rounds(kind);
    let untraced = inproc::run_pass(
        &inputs,
        &mut Tracer::new(false, epoch, 0),
        None,
        rounds,
        |_| {},
    );
    let mut tracer = Tracer::new(true, epoch, 0);
    let pass = inproc::run_pass(&inputs, &mut tracer, None, rounds, |_| {});
    let mut figures = BTreeMap::new();
    inproc::layer_figures(&pass, &tracer, &mut figures);
    traced(
        args,
        untraced.into_run(),
        pass.into_run(),
        figures,
        &tracer.spans,
    )
}

fn run_serve(args: &Args) -> Result<Outcome, String> {
    let (setup_s, server) = repeated_setup(
        |i| {
            let ra1k = known_answer()?;
            let server = serve::Running::start(&i.to_string())?;
            match serve::setup_submission(server.addr, &ra1k) {
                Ok(()) => Ok(server),
                Err(e) => {
                    server.stop()?;
                    Err(e)
                }
            }
        },
        serve::Running::stop,
    )?;
    let epoch = Instant::now();
    if !args.trace {
        let mix = serve::run_mix(server.addr, args.seed, Some(args.seconds), false, epoch);
        server.stop()?;
        return Ok(timed(args, setup_s, mix?.into_run()));
    }
    let untraced = serve::run_mix(server.addr, args.seed, None, false, epoch);
    server.stop()?;
    let untraced = untraced?;
    let mut figures = BTreeMap::new();
    untraced.class_figures(&mut figures);
    let server = serve::Running::start("traced")?;
    let (mix, program) =
        telemetry::with_collection(|| serve::run_mix(server.addr, args.seed, None, true, epoch));
    server.stop()?;
    let mut mix = mix?;
    serve::layer_figures(&mix, &program, &mut figures);
    let spans = std::mem::take(&mut mix.spans);
    traced(args, untraced.into_run(), mix.into_run(), figures, &spans)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <cold_scale|paper_suite|serve_mix> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let outcome = match args.workload.as_str() {
        "cold_scale" => run_inproc(Kind::ColdScale, &args),
        "paper_suite" => run_inproc(Kind::PaperSuite, &args),
        "serve_mix" => run_serve(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for error in &outcome.errors {
        eprintln!("perfbench: check failed: {error}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{}",
        outcome
            .metrics
            .result_line(correct, outcome.attempted, outcome.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
