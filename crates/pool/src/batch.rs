//! The one-shot parallel batch-synthesis runner behind `biochip batch`.
//!
//! A batch is a cartesian product of assays × configurations. Jobs are
//! distributed over a scoped thread pool via an atomic work-stealing index;
//! every job runs the complete synthesis flow, panics are caught and turned
//! into per-job failures, and everything is aggregated into one
//! machine-readable [`BatchReport`]. The persistent sibling of this runner
//! is [`crate::shard::ShardedPool`], which keeps the workers alive between
//! submissions for the job service.

use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use biochip_synth::assay::SequencingGraph;
use biochip_synth::{SynthesisConfig, SynthesisFlow, SynthesisReport};

/// One unit of work: an assay synthesized under one configuration.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Dense job id (index in submission order).
    pub id: usize,
    /// Assay name (for the report; the graph itself is in `graph`).
    pub assay: String,
    /// The sequencing graph to synthesize.
    pub graph: SequencingGraph,
    /// The flow configuration.
    pub config: SynthesisConfig,
}

/// Terminal status of one batch job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Synthesis completed.
    Ok,
    /// The flow returned an error (scheduling/synthesis failure).
    Error,
    /// The job panicked; the panic was contained to the job.
    Panicked,
}

/// Result of one batch job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchJobResult {
    /// Dense job id (matches submission order).
    pub id: usize,
    /// Assay name.
    pub assay: String,
    /// Mixer count of the configuration (the main sweep axis).
    pub mixers: usize,
    /// Scheduler choice, as a string (`"Auto"`, `"Ilp"`, ...).
    pub scheduler: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Error or panic message for failed jobs.
    pub error: Option<String>,
    /// The Table-2 summary for successful jobs.
    pub report: Option<SynthesisReport>,
    /// Wall-clock seconds this job took.
    pub wall_seconds: f64,
    /// Index of the worker thread that ran the job.
    pub worker: usize,
}

/// Aggregate outcome of a whole batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchReport {
    /// Total number of jobs.
    pub jobs: usize,
    /// Jobs that synthesized successfully.
    pub succeeded: usize,
    /// Jobs that failed (flow errors and contained panics).
    pub failed: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Sum of per-job wall-clock seconds (≫ `wall_seconds` when the pool
    /// parallelizes well).
    pub cpu_seconds: f64,
    /// Per-job results in submission order.
    pub results: Vec<BatchJobResult>,
}

impl BatchReport {
    /// Results of failed jobs only.
    #[must_use]
    pub fn failures(&self) -> Vec<&BatchJobResult> {
        self.results
            .iter()
            .filter(|r| r.status != JobStatus::Ok)
            .collect()
    }
}

/// Runs all jobs on `threads` worker threads and aggregates the results.
///
/// Jobs are pulled from a shared atomic cursor, so long jobs (CPA, RA100)
/// do not stall the queue behind them. A panicking job poisons nothing:
/// the panic is caught, recorded in the job's result, and the worker moves
/// on. `threads` is clamped to `[1, jobs.len()]`.
#[must_use]
pub fn run_batch(jobs: Vec<BatchJob>, threads: usize) -> BatchReport {
    let total = jobs.len();
    let threads = threads.clamp(1, total.max(1));
    let started = Instant::now();

    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<BatchJobResult>> = Mutex::new(Vec::with_capacity(total));

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let cursor = &cursor;
            let results = &results;
            let jobs = &jobs;
            scope.spawn(move || loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(index) else {
                    break;
                };
                let result = run_one(job, worker);
                // run_one catches panics, so poisoning should be
                // impossible; recover instead of unwinding the worker.
                results
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(result);
            });
        }
    });

    let mut results = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    results.sort_by_key(|r| r.id);

    let succeeded = results.iter().filter(|r| r.status == JobStatus::Ok).count();
    let cpu_seconds = results.iter().map(|r| r.wall_seconds).sum();
    BatchReport {
        jobs: total,
        succeeded,
        failed: total - succeeded,
        threads,
        wall_seconds: started.elapsed().as_secs_f64(),
        cpu_seconds,
        results,
    }
}

fn run_one(job: &BatchJob, worker: usize) -> BatchJobResult {
    let started = Instant::now();
    let flow = SynthesisFlow::new(job.config.clone());
    let outcome = catch_unwind(AssertUnwindSafe(|| flow.run(job.graph.clone())));
    let (status, error, report) = match outcome {
        Ok(Ok(outcome)) => (JobStatus::Ok, None, Some(outcome.report)),
        Ok(Err(e)) => (JobStatus::Error, Some(e.to_string()), None),
        Err(payload) => {
            let message = crate::panic_message(payload.as_ref())
                .unwrap_or("job panicked")
                .to_owned();
            (JobStatus::Panicked, Some(message), None)
        }
    };
    BatchJobResult {
        id: job.id,
        assay: job.assay.clone(),
        mixers: job.config.mixers,
        scheduler: format!("{:?}", job.config.scheduler),
        status,
        error,
        report,
        wall_seconds: started.elapsed().as_secs_f64(),
        worker,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biochip_synth::assay::library;
    use biochip_synth::SchedulerChoice;

    fn job(id: usize, assay: &str, graph: SequencingGraph, mixers: usize) -> BatchJob {
        BatchJob {
            id,
            assay: assay.to_owned(),
            graph,
            config: SynthesisConfig::default()
                .with_mixers(mixers)
                .with_scheduler(SchedulerChoice::StorageAware),
        }
    }

    #[test]
    fn batch_runs_jobs_on_multiple_threads() {
        let jobs: Vec<BatchJob> = (0..6)
            .map(|i| job(i, "PCR", library::pcr(), 1 + i % 3))
            .collect();
        let report = run_batch(jobs, 3);
        assert_eq!(report.jobs, 6);
        assert_eq!(report.succeeded, 6);
        assert_eq!(report.failed, 0);
        assert_eq!(report.threads, 3);
        // Worker *utilization* is timing-dependent (in release mode on a
        // single core, one worker can drain the whole queue before the
        // others wake), so assert only the timing-independent invariants:
        // every recorded worker id belongs to the pool.
        let workers: std::collections::HashSet<usize> =
            report.results.iter().map(|r| r.worker).collect();
        assert!(!workers.is_empty());
        assert!(
            workers.iter().all(|&w| w < 3),
            "worker ids must index the pool, got {workers:?}"
        );
        // Results come back in submission order regardless of completion order.
        let ids: Vec<usize> = report.results.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn flow_errors_are_isolated_per_job() {
        // IVD needs a detector; a zero-detector config fails while the
        // healthy PCR job still succeeds.
        let bad = BatchJob {
            id: 0,
            assay: "IVD".to_owned(),
            graph: library::ivd(),
            config: SynthesisConfig::default().with_detectors(0),
        };
        let good = job(1, "PCR", library::pcr(), 2);
        let report = run_batch(vec![bad, good], 2);
        assert_eq!(report.succeeded, 1);
        assert_eq!(report.failed, 1);
        let failure = &report.results[0];
        assert_eq!(failure.status, JobStatus::Error);
        assert!(failure.error.as_ref().unwrap().contains("schedul"));
        assert_eq!(report.failures().len(), 1);
    }

    #[test]
    fn report_serializes_and_round_trips() {
        let report = run_batch(vec![job(0, "PCR", library::pcr(), 2)], 1);
        let text = biochip_json::to_string_pretty(&report);
        let back: BatchReport = biochip_json::from_str(&text).unwrap();
        assert_eq!(back.jobs, 1);
        assert_eq!(back.results[0].status, JobStatus::Ok);
        assert_eq!(
            back.results[0].report.as_ref().unwrap(),
            report.results[0].report.as_ref().unwrap()
        );
    }

    #[test]
    fn thread_count_is_clamped() {
        let report = run_batch(vec![job(0, "PCR", library::pcr(), 2)], 64);
        assert_eq!(report.threads, 1);
    }
}
