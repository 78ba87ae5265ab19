//! End-to-end smoke tests that exercise the real `biochip` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

use biochip_cli::batch::BatchReport;
use biochip_cli::state::PipelineState;
use biochip_synth::SynthesisReport;

fn biochip(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_biochip"))
        .args(args)
        .output()
        .expect("binary must spawn")
}

fn tmp_path(name: &str) -> String {
    let mut path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&path).unwrap();
    path.push(name);
    path.to_str().unwrap().to_owned()
}

fn assert_success(output: &Output, context: &str) {
    assert!(
        output.status.success(),
        "{context} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
}

#[test]
fn run_pcr_emits_a_valid_report() {
    let out = tmp_path("report.json");
    let output = biochip(&[
        "run",
        "--assay",
        "pcr",
        "--mixers",
        "2",
        "--scheduler",
        "storage",
        "--out",
        &out,
    ]);
    assert_success(&output, "biochip run");

    let text = std::fs::read_to_string(&out).unwrap();
    let report: SynthesisReport =
        biochip_json::from_str(&text).expect("report JSON must deserialize");
    assert_eq!(report.assay, "PCR");
    assert_eq!(report.operations, 7);
    assert!(report.execution_time > 0);
    assert!(report.valves > 0);

    // The numbers must match an in-process run of the same configuration.
    let outcome = biochip_synth::SynthesisFlow::new(
        biochip_synth::SynthesisConfig::default()
            .with_mixers(2)
            .with_scheduler(biochip_synth::SchedulerChoice::StorageAware),
    )
    .run(biochip_synth::assay::library::pcr())
    .unwrap();
    assert_eq!(report.execution_time, outcome.report.execution_time);
    assert_eq!(report.used_edges, outcome.report.used_edges);
    assert_eq!(report.valves, outcome.report.valves);
}

#[test]
fn stage_commands_hand_off_through_files() {
    let scheduled = tmp_path("stage-scheduled.json");
    let synthesized = tmp_path("stage-synthesized.json");
    let simulated = tmp_path("stage-simulated.json");

    let output = biochip(&[
        "schedule",
        "--assay",
        "ivd",
        "--scheduler",
        "storage",
        "--out",
        &scheduled,
    ]);
    assert_success(&output, "biochip schedule");

    let output = biochip(&["synth", "--in", &scheduled, "--out", &synthesized]);
    assert_success(&output, "biochip synth");

    let output = biochip(&["simulate", "--in", &synthesized, "--out", &simulated]);
    assert_success(&output, "biochip simulate");

    let state =
        PipelineState::from_json_text(&std::fs::read_to_string(&simulated).unwrap(), "state")
            .unwrap();
    assert_eq!(state.assay, "IVD");
    let report = state.report.expect("simulate completes the report");
    assert_eq!(report.operations, 12);
    let schedule = state.schedule.expect("schedule stage output survives");
    let problem = state.problem.expect("problem survives");
    assert!(schedule.validate(&problem).is_ok());
    assert!(state
        .architecture
        .expect("architecture survives")
        .verify()
        .is_ok());
}

#[test]
fn batch_sweeps_the_acceptance_grid_without_panics() {
    let out = tmp_path("batch.json");
    let output = biochip(&[
        "batch",
        "--assays",
        "pcr,invitro,protein,RA30",
        "--mixer-counts",
        "1,2,3",
        "--scheduler",
        "storage",
        "--threads",
        "4",
        "--out",
        &out,
    ]);
    assert_success(&output, "biochip batch");

    let report: BatchReport =
        biochip_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(report.jobs, 12);
    assert_eq!(report.succeeded, 12);
    assert_eq!(report.failed, 0);
    let assays: std::collections::HashSet<&str> =
        report.results.iter().map(|r| r.assay.as_str()).collect();
    assert_eq!(assays, ["PCR", "IVD", "CPA", "RA30"].into_iter().collect());
    for mixers in 1..=3 {
        assert_eq!(
            report.results.iter().filter(|r| r.mixers == mixers).count(),
            4
        );
    }
}

#[test]
fn run_accepts_text_assay_files() {
    let assay_file = tmp_path("custom.assay");
    std::fs::write(
        &assay_file,
        "assay custom\nop a input 0\nop b input 0\nop m mix 30\ndep a m\ndep b m\n",
    )
    .unwrap();
    let out = tmp_path("custom-report.json");
    let output = biochip(&["run", "--input", &assay_file, "--out", &out]);
    assert_success(&output, "biochip run --input");
    let report: SynthesisReport =
        biochip_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(report.assay, "custom");
    assert_eq!(report.operations, 1);
}

#[test]
fn usage_errors_exit_with_code_two() {
    let output = biochip(&["run", "--assay", "nope"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown assay"));

    let output = biochip(&["run", "--frobnicate"]);
    assert_eq!(output.status.code(), Some(2));

    let output = biochip(&["definitely-not-a-command"]);
    assert_eq!(output.status.code(), Some(2));

    let output = biochip(&[]);
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn help_is_available_everywhere() {
    for args in [
        vec!["--help"],
        vec!["run", "--help"],
        vec!["schedule", "--help"],
        vec!["synth", "--help"],
        vec!["simulate", "--help"],
        vec!["batch", "--help"],
        vec!["serve", "--help"],
        vec!["bench", "--help"],
    ] {
        let output = biochip(&args);
        assert_success(&output, &format!("{args:?}"));
        assert!(!output.stdout.is_empty(), "{args:?} printed nothing");
    }
}

#[test]
fn bench_pipeline_honours_the_assay_list() {
    let dir = tmp_path("bench-pipeline");
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_biochip"))
        .args([
            "bench",
            "pipeline",
            "--assays",
            "RA100",
            "--threads",
            "1",
            "--format",
            "csv",
        ])
        .env("BIOCHIP_BENCH_DIR", &dir)
        .output()
        .expect("binary must spawn");
    assert_success(&output, "biochip bench pipeline");
    let csv = String::from_utf8_lossy(&output.stdout);
    let rows: Vec<&str> = csv.lines().skip(1).filter(|l| !l.is_empty()).collect();
    assert_eq!(rows.len(), 1, "{csv}");
    assert!(rows[0].starts_with("RA100,"), "{csv}");

    // The artifact is written in the enveloped form the `pipeline` bin
    // writes.
    let artifact = std::fs::read_to_string(format!("{dir}/BENCH_pipeline.json")).unwrap();
    let doc = biochip_json::parse(&artifact).unwrap();
    assert_eq!(
        doc.get("schema").unwrap().expect_str().unwrap(),
        "biochip-bench/v1"
    );
    assert!(doc.get("commit").is_some());
    let data = doc.get("data").unwrap().expect_array().unwrap();
    assert_eq!(data.len(), 1);
    assert!(data[0].get("json_decode_seconds").is_some());

    // The scheduler-only and place-and-route sweeps are folded into it.
    for target in ["scale", "arch"] {
        assert_eq!(
            biochip(&["bench", target]).status.code(),
            Some(2),
            "{target}"
        );
    }
}

#[test]
fn json_errors_flag_emits_a_structured_error_body() {
    let output = biochip(&[
        "simulate",
        "--json-errors",
        "--in",
        "/nonexistent/state.json",
    ]);
    assert_eq!(output.status.code(), Some(1));
    let body = String::from_utf8_lossy(&output.stdout);
    let parsed = biochip_json::parse(&body).expect("stdout is a JSON error document");
    assert_eq!(
        parsed.get("schema").unwrap().expect_str().unwrap(),
        "biochip-error/v1"
    );
    assert_eq!(parsed.get("code").unwrap().expect_number().unwrap(), 1.0);
    assert!(parsed
        .get("error")
        .unwrap()
        .expect_str()
        .unwrap()
        .contains("cannot read"));

    // Without the flag, stdout stays clean (errors only on stderr).
    let output = biochip(&["simulate", "--in", "/nonexistent/state.json"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(output.stdout.is_empty());
}

#[test]
fn stage_mismatched_handoffs_are_structured_errors() {
    // A schedule-stage document fed to `simulate` (skipping `synth`).
    let scheduled = tmp_path("mismatch-scheduled.json");
    let output = biochip(&["schedule", "--assay", "pcr", "--out", &scheduled]);
    assert_success(&output, "biochip schedule");

    let output = biochip(&["simulate", "--json-errors", "--in", &scheduled]);
    assert_eq!(output.status.code(), Some(1));
    let parsed = biochip_json::parse(&String::from_utf8_lossy(&output.stdout))
        .expect("structured error body");
    let message = parsed
        .get("error")
        .unwrap()
        .expect_str()
        .unwrap()
        .to_owned();
    assert!(message.contains("biochip synth"), "{message}");

    // A document from a future format version.
    let from_the_future = tmp_path("mismatch-future.json");
    let text = std::fs::read_to_string(&scheduled).unwrap();
    std::fs::write(
        &from_the_future,
        text.replace("biochip-pipeline/v1", "biochip-pipeline/v999"),
    )
    .unwrap();
    let output = biochip(&["simulate", "--json-errors", "--in", &from_the_future]);
    assert_eq!(output.status.code(), Some(1));
    let parsed = biochip_json::parse(&String::from_utf8_lossy(&output.stdout)).unwrap();
    let message = parsed
        .get("error")
        .unwrap()
        .expect_str()
        .unwrap()
        .to_owned();
    assert!(message.contains("biochip-pipeline/v999"), "{message}");
    assert!(message.contains("re-run the earlier stages"), "{message}");

    // Not a pipeline document at all.
    let garbage = tmp_path("mismatch-garbage.json");
    std::fs::write(&garbage, "{\"hello\": 1}").unwrap();
    let output = biochip(&["simulate", "--in", &garbage]);
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("not a pipeline state"));
}

#[test]
fn serve_answers_loopback_jobs_end_to_end() {
    use std::io::BufRead;

    // Spawn `biochip serve` on an ephemeral port and scrape the bound
    // address from its startup line.
    let mut child = Command::new(env!("CARGO_BIN_EXE_biochip"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve must spawn");
    let stderr = child.stderr.take().unwrap();
    let mut lines = std::io::BufReader::new(stderr).lines();
    let first = lines
        .next()
        .expect("serve prints a startup line")
        .expect("startup line is UTF-8");
    let addr: std::net::SocketAddr = first
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("startup line names the address")
        .parse()
        .expect("address parses");

    let run = || -> Result<(), String> {
        let accepted = biochip_server::client::submit(addr, r#"{"assay": "PCR"}"#)?;
        let id = biochip_server::client::job_id(&accepted)?;
        let done =
            biochip_server::client::wait_for_job(addr, id, std::time::Duration::from_secs(120))?;
        let status = done
            .get("status")
            .and_then(|s| s.expect_str().ok())
            .unwrap_or("?");
        if status != "done" {
            return Err(format!("job ended {status}"));
        }
        let (code, _) = biochip_server::client::get(addr, &format!("/results/{id}"))
            .map_err(|e| e.to_string())?;
        if code != 200 {
            return Err(format!("GET /results answered {code}"));
        }
        Ok(())
    };
    let outcome = run();
    child.kill().expect("serve stops on kill");
    let _ = child.wait();
    outcome.expect("loopback job must synthesize");
}
