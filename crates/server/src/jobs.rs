//! Job records and the in-memory job store.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use biochip_json::Json;
use biochip_synth::sim::ExecutionReport;
use biochip_synth::{FlowController, SynthesisReport};

/// Lifecycle state of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is synthesizing it.
    Running,
    /// Finished successfully; the result is available.
    Done,
    /// The flow returned an error or the job panicked (contained).
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobState {
    /// Lowercase name used in status documents.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// The document `GET /results/:id` returns (and the value the cache holds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultDoc {
    /// Format version tag, currently [`ResultDoc::SCHEMA`].
    pub schema: String,
    /// Assay name of the synthesized graph.
    pub assay: String,
    /// Content key of the `(problem, config)` pair.
    pub key: String,
    /// The Table-2-style summary (stage counters included).
    pub report: SynthesisReport,
    /// Replay of the synthesized chip.
    pub execution: ExecutionReport,
}

impl ResultDoc {
    /// The current result-document schema tag.
    pub const SCHEMA: &'static str = "biochip-serve/v1";
}

/// One submitted job as tracked by the store.
#[derive(Debug)]
pub struct JobRecord {
    /// Dense job id (submission order, starting at 1).
    pub id: u64,
    /// Content key of the `(problem, config)` pair, in hex.
    pub key: String,
    /// Assay name (for humans; the content key is the identity).
    pub assay: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Whether the result came from the cache instead of a synthesis run.
    pub cached: bool,
    /// Whether this record was rebuilt from the journal after a restart
    /// (resolved from the disk store or re-enqueued).
    pub recovered: bool,
    /// Live stage handle (shared with the worker running the job).
    pub controller: Arc<FlowController>,
    /// The result, once available.
    pub result: Option<Arc<ResultDoc>>,
    /// Error message for failed/cancelled jobs.
    pub error: Option<String>,
    /// Wall-clock seconds from submission to terminal state.
    pub wall_seconds: f64,
    /// Index of the worker that ran the job (None while queued or cached).
    pub worker: Option<usize>,
}

impl JobRecord {
    /// The status document `GET /jobs/:id` returns. The stage comes live
    /// from the controller, so a poller watches a running job walk through
    /// scheduling → architecture → layout → simulation; once the job is
    /// done the report inside the result carries the full stage counters
    /// (windows tried, path searches, nodes expanded, ...).
    #[must_use]
    pub fn status_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::Number(self.id as f64)),
            ("key", Json::String(self.key.clone())),
            ("assay", Json::String(self.assay.clone())),
            ("status", Json::String(self.state.name().to_owned())),
            ("cached", Json::Bool(self.cached)),
            ("recovered", Json::Bool(self.recovered)),
            (
                "stage",
                Json::String(self.controller.stage().name().to_owned()),
            ),
            ("wall_seconds", Json::Number(self.wall_seconds)),
        ];
        if let Some(worker) = self.worker {
            fields.push(("worker", Json::Number(worker as f64)));
        }
        // Per-stage wall seconds, live while the job runs and frozen once
        // it finishes. Cached answers never entered the pipeline, so their
        // status carries no timeline at all.
        let timeline = self.controller.timeline();
        if !timeline.is_empty() {
            fields.push((
                "timeline",
                Json::object(
                    timeline
                        .iter()
                        .map(|t| (t.stage.name(), Json::Number(t.seconds))),
                ),
            ));
        }
        if let Some(error) = &self.error {
            fields.push(("error", Json::String(error.clone())));
        }
        if let Some(result) = &self.result {
            fields.push(("report", result.report.to_json()));
        }
        Json::object(fields)
    }
}

/// One-pass snapshot of how many retained jobs sit in each state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobCounts {
    /// Jobs waiting for a worker.
    pub queued: usize,
    /// Jobs currently synthesizing.
    pub running: usize,
    /// Jobs finished successfully.
    pub done: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Jobs cancelled before completion.
    pub cancelled: usize,
}

/// Thread-safe map of the jobs this server instance tracks.
///
/// The store is bounded: once more than [`JobStore::RETAINED_JOBS`] records
/// accumulate, the oldest *terminal* (done/failed/cancelled) records are
/// dropped — their results live on in the result cache; only the per-job
/// status history ages out (a later `GET /jobs/:id` answers 404). Queued
/// and running jobs are never evicted.
#[derive(Debug, Default)]
pub struct JobStore {
    jobs: Mutex<HashMap<u64, JobRecord>>,
    accepted: std::sync::atomic::AtomicUsize,
}

impl JobStore {
    /// Upper bound on retained job records.
    pub const RETAINED_JOBS: usize = 4096;

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, JobRecord>> {
        // Recover from poisoning instead of unwinding the request thread:
        // no user code runs under this lock, so a poisoned map is still
        // structurally sound and serving degraded beats a 500-per-request.
        self.jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Inserts a fresh record, aging out the oldest terminal records when
    /// the retention bound is exceeded.
    pub fn insert(&self, record: JobRecord) {
        self.accepted
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut jobs = self.lock();
        jobs.insert(record.id, record);
        let excess = jobs.len().saturating_sub(Self::RETAINED_JOBS);
        if excess > 0 {
            let mut terminal: Vec<u64> = jobs
                .values()
                .filter(|j| {
                    matches!(
                        j.state,
                        JobState::Done | JobState::Failed | JobState::Cancelled
                    )
                })
                .map(|j| j.id)
                .collect();
            terminal.sort_unstable();
            for id in terminal.into_iter().take(excess) {
                jobs.remove(&id);
            }
        }
    }

    /// Runs `f` on the record of `id`, if it is still retained.
    pub fn with<R>(&self, id: u64, f: impl FnOnce(&mut JobRecord) -> R) -> Option<R> {
        self.lock().get_mut(&id).map(f)
    }

    /// Retained jobs currently in `state`.
    #[must_use]
    pub fn count(&self, state: JobState) -> usize {
        self.lock().values().filter(|j| j.state == state).count()
    }

    /// Per-state counts of the retained jobs, in one pass under the lock.
    #[must_use]
    pub fn counts(&self) -> JobCounts {
        let jobs = self.lock();
        let mut counts = JobCounts::default();
        for job in jobs.values() {
            match job.state {
                JobState::Queued => counts.queued += 1,
                JobState::Running => counts.running += 1,
                JobState::Done => counts.done += 1,
                JobState::Failed => counts.failed += 1,
                JobState::Cancelled => counts.cancelled += 1,
            }
        }
        counts
    }

    /// Total jobs accepted over the server's lifetime (not reduced by
    /// record aging).
    #[must_use]
    pub fn len(&self) -> usize {
        self.accepted.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Whether no job was accepted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, state: JobState) -> JobRecord {
        JobRecord {
            id,
            key: format!("{id:016x}"),
            assay: "PCR".to_owned(),
            state,
            cached: false,
            recovered: false,
            controller: Arc::new(FlowController::new()),
            result: None,
            error: None,
            wall_seconds: 0.0,
            worker: None,
        }
    }

    #[test]
    fn store_tracks_states() {
        let store = JobStore::default();
        assert!(store.is_empty());
        store.insert(record(1, JobState::Queued));
        store.insert(record(2, JobState::Done));
        store.insert(record(3, JobState::Done));
        assert_eq!(store.len(), 3);
        assert_eq!(store.count(JobState::Done), 2);
        assert_eq!(store.count(JobState::Failed), 0);
        store.with(1, |j| j.state = JobState::Failed).unwrap();
        assert_eq!(store.count(JobState::Failed), 1);
        assert!(store.with(99, |_| ()).is_none());
        let counts = store.counts();
        assert_eq!((counts.done, counts.failed, counts.queued), (2, 1, 0));
    }

    #[test]
    fn old_terminal_records_age_out_but_live_jobs_survive() {
        let store = JobStore::default();
        store.insert(record(1, JobState::Running)); // never evicted
        for id in 2..(JobStore::RETAINED_JOBS as u64 + 3) {
            store.insert(record(id, JobState::Done));
        }
        // The oldest *terminal* records (ids 2, 3) aged out; the running
        // job and the newest records remain addressable.
        assert!(store.with(1, |_| ()).is_some());
        assert!(store.with(2, |_| ()).is_none());
        assert!(store.with(3, |_| ()).is_none());
        assert!(store
            .with(JobStore::RETAINED_JOBS as u64 + 2, |_| ())
            .is_some());
        assert_eq!(store.counts().running, 1);
        // Lifetime total is not reduced by aging.
        assert_eq!(store.len(), JobStore::RETAINED_JOBS + 2);
    }

    #[test]
    fn status_json_reflects_the_record() {
        let mut job = record(7, JobState::Failed);
        job.error = Some("scheduling failed".to_owned());
        let status = job.status_json();
        assert_eq!(status.get("id"), Some(&Json::Number(7.0)));
        assert_eq!(
            status.get("status"),
            Some(&Json::String("failed".to_owned()))
        );
        assert_eq!(
            status.get("stage"),
            Some(&Json::String("pending".to_owned()))
        );
        assert!(status.get("error").is_some());
        assert!(status.get("report").is_none());
    }
}
