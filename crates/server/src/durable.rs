//! The durability glue between the in-memory server and `biochip-store`.
//!
//! [`Durable`] owns the optional [`DiskStore`] (a write-through second tier
//! behind the in-memory result cache) and the optional [`Journal`] (an
//! append-only record of every accepted job). Both are `None` when `serve`
//! runs without `--data-dir`, and every method degrades to a counted no-op
//! when the disk misbehaves — persistence failures never fail a request.
//!
//! ## Journal grammar
//!
//! One JSON object per line after the `biochip-journal/v1` header:
//!
//! * `{"ev": "submitted", "id", "key", "assay", "submission"?, "state"?,
//!   "error"?}` — a job was accepted. `submission` carries the original
//!   request body (so a non-terminal job can be re-enqueued after a crash);
//!   it is omitted for warm hits, which instead carry their terminal
//!   `state` inline. Compaction also folds a job's terminal state into its
//!   submitted line.
//! * `{"ev": "started", "id"}` — a worker picked the job up.
//! * `{"ev": "done", "id"}` / `{"ev": "failed", "id", "error"}` /
//!   `{"ev": "cancelled", "id"}` — terminal transitions.
//!
//! ## Replay
//!
//! [`Durable::open`] folds the journal into per-job state and classifies
//! every job: `done` jobs resolve their result from the store (a corrupt or
//! evicted entry downgrades to a re-enqueue when the submission payload is
//! on record, else to a `failed` record that says so); `failed`/`cancelled`
//! jobs keep their terminal record; everything else re-enqueues. The
//! journal is then compacted so it does not grow across restarts.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use biochip_json::Json;
use biochip_store::{DiskStore, Journal, StoreStats};

use crate::jobs::{JobState, ResultDoc};

/// Journal and recovery counters for `/stats`, `/metrics` and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct JournalStats {
    /// Whether a journal is attached (`false` without `--data-dir`).
    pub enabled: bool,
    /// Whether appends are currently reaching disk.
    pub available: bool,
    /// Records appended since this process opened the journal.
    pub appends: u64,
    /// Appends that failed (journal flips to unavailable).
    pub append_errors: u64,
    /// Records replayed from the previous incarnation at startup.
    pub replayed: u64,
    /// Unparseable journal lines skipped during replay (torn tail).
    pub corrupt_lines: u64,
    /// Terminal jobs restored at startup (results from the store or
    /// recorded failures/cancellations).
    pub recovered: u64,
    /// Non-terminal jobs re-enqueued at startup.
    pub requeued: u64,
    /// Jobs that could not be restored (result evicted or corrupt with no
    /// submission payload on record) and were marked failed.
    pub lost: u64,
}

/// One job reconstructed from the journal at startup.
pub(crate) enum RecoveredJob {
    /// A job whose terminal state (and, for `done`, result) was restored.
    Terminal {
        /// Original job id.
        id: u64,
        /// Content key.
        key: String,
        /// Assay display name.
        assay: String,
        /// `Done`, `Failed` or `Cancelled`.
        state: JobState,
        /// Error message for failed/cancelled records.
        error: Option<String>,
        /// The result document, for `Done` records.
        result: Option<Arc<ResultDoc>>,
    },
    /// A job that must run (again); carries the original submission body.
    Requeue {
        /// Original job id.
        id: u64,
        /// Content key from the journal (informational; re-resolution
        /// recomputes it from the submission).
        key: String,
        /// Assay display name from the journal.
        assay: String,
        /// The submission document to re-parse and enqueue.
        submission: Json,
    },
}

/// The outcome of replaying a data directory at startup.
pub(crate) struct Recovery {
    /// Jobs to restore, in id order.
    pub jobs: Vec<RecoveredJob>,
    /// The id counter must resume above every replayed id.
    pub next_id: u64,
}

/// Per-job fold of the journal records.
#[derive(Default)]
struct JobFold {
    key: String,
    assay: String,
    submission: Option<Json>,
    terminal: Option<(JobState, Option<String>)>,
    seen_submitted: bool,
}

/// The server's durability layer; disabled (all no-ops) without a data dir.
pub(crate) struct Durable {
    store: Option<DiskStore>,
    journal: Option<Journal>,
    replayed: u64,
    corrupt_lines: u64,
    recovered: u64,
    requeued: u64,
    lost: u64,
}

impl Durable {
    /// The memory-only mode: no `--data-dir`, every method a no-op.
    pub fn disabled() -> Durable {
        Durable {
            store: None,
            journal: None,
            replayed: 0,
            corrupt_lines: 0,
            recovered: 0,
            requeued: 0,
            lost: 0,
        }
    }

    /// Opens the store and journal under `data_dir`, replays the previous
    /// incarnation's journal and compacts it. Never fails — a hostile disk
    /// yields a degraded `Durable` and an empty recovery.
    pub fn open(data_dir: &Path, store_capacity_bytes: u64) -> (Durable, Recovery) {
        let store = DiskStore::open(data_dir, store_capacity_bytes);
        let journal_path = data_dir.join("journal.jsonl");
        let replay = Journal::replay(&journal_path);
        let mut durable = Durable {
            replayed: replay.records.len() as u64,
            corrupt_lines: replay.corrupt_lines,
            recovered: 0,
            requeued: 0,
            lost: 0,
            store: Some(store),
            journal: None,
        };
        let recovery = durable.classify(&replay.records);
        let journal = Journal::open(&journal_path);
        journal.compact(&compacted_records(&recovery.jobs));
        durable.journal = Some(journal);
        (durable, recovery)
    }

    /// Folds replayed records into per-job state and classifies every job.
    fn classify(&mut self, records: &[Json]) -> Recovery {
        let mut folds: BTreeMap<u64, JobFold> = BTreeMap::new();
        for record in records {
            let Some(id) = u64_field(record, "id") else {
                continue;
            };
            let Some(ev) = str_field(record, "ev") else {
                continue;
            };
            let fold = folds.entry(id).or_default();
            match ev.as_str() {
                "submitted" => {
                    fold.seen_submitted = true;
                    fold.key = str_field(record, "key").unwrap_or_default();
                    fold.assay = str_field(record, "assay").unwrap_or_default();
                    fold.submission = record.get("submission").cloned();
                    if let Some(state) = str_field(record, "state").and_then(terminal_state) {
                        fold.terminal = Some((state, str_field(record, "error")));
                    }
                }
                "started" => {}
                "done" => fold.terminal = Some((JobState::Done, None)),
                "failed" => fold.terminal = Some((JobState::Failed, str_field(record, "error"))),
                "cancelled" => {
                    fold.terminal = Some((JobState::Cancelled, str_field(record, "error")));
                }
                _ => {}
            }
        }
        let next_id = folds.keys().next_back().map_or(1, |max| max + 1);
        let mut jobs = Vec::new();
        for (id, fold) in folds {
            if !fold.seen_submitted {
                // A terminal line with no submitted line (aged out of an
                // earlier compaction): nothing restorable.
                self.lost += 1;
                continue;
            }
            jobs.push(self.classify_job(id, fold));
        }
        Recovery { jobs, next_id }
    }

    /// Classifies one folded job into its recovered form.
    fn classify_job(&mut self, id: u64, fold: JobFold) -> RecoveredJob {
        match fold.terminal {
            Some((JobState::Done, _)) => {
                if let Some(result) = self.store_get(&fold.key) {
                    self.recovered += 1;
                    return RecoveredJob::Terminal {
                        id,
                        key: fold.key,
                        assay: fold.assay,
                        state: JobState::Done,
                        error: None,
                        result: Some(result),
                    };
                }
                // The journal says done but the store cannot prove it
                // (evicted, corrupt, or unavailable): re-run when the
                // submission is on record, else record the loss honestly.
                if let Some(submission) = fold.submission {
                    self.requeued += 1;
                    return RecoveredJob::Requeue {
                        id,
                        key: fold.key,
                        assay: fold.assay,
                        submission,
                    };
                }
                self.lost += 1;
                RecoveredJob::Terminal {
                    id,
                    key: fold.key,
                    assay: fold.assay,
                    state: JobState::Failed,
                    error: Some(
                        "completed before a restart, but the stored result is no longer \
                         readable — resubmit to recompute"
                            .to_owned(),
                    ),
                    result: None,
                }
            }
            Some((state, error)) => {
                self.recovered += 1;
                RecoveredJob::Terminal {
                    id,
                    key: fold.key,
                    assay: fold.assay,
                    state,
                    error: error.or_else(|| Some(format!("{} before a restart", state.name()))),
                    result: None,
                }
            }
            None => {
                if let Some(submission) = fold.submission {
                    self.requeued += 1;
                    return RecoveredJob::Requeue {
                        id,
                        key: fold.key,
                        assay: fold.assay,
                        submission,
                    };
                }
                self.lost += 1;
                RecoveredJob::Terminal {
                    id,
                    key: fold.key,
                    assay: fold.assay,
                    state: JobState::Failed,
                    error: Some(
                        "interrupted by a restart and the submission payload was not \
                         journaled — resubmit to recompute"
                            .to_owned(),
                    ),
                    result: None,
                }
            }
        }
    }

    /// Reads and deserializes a result document from the store. A payload
    /// that no longer deserializes is quarantined like any other corruption.
    pub fn store_get(&self, key: &str) -> Option<Arc<ResultDoc>> {
        let store = self.store.as_ref()?;
        let payload = store.get(key)?;
        match biochip_json::Deserialize::from_json(&payload) {
            Ok(doc) => Some(Arc::new(doc)),
            Err(_) => {
                store.quarantine(key, "payload does not deserialize as a result document");
                None
            }
        }
    }

    /// Write-through: persists a result under its content key.
    pub fn store_put(&self, key: &str, result: &ResultDoc) {
        if let Some(store) = &self.store {
            store.put(key, result);
        }
    }

    /// Journals an accepted job. `submission` is the original request
    /// document for jobs that may need re-enqueueing; `terminal` marks warm
    /// hits that are born done.
    pub fn journal_submitted(
        &self,
        id: u64,
        key: &str,
        assay: &str,
        submission: Option<&Json>,
        terminal: Option<JobState>,
    ) {
        let Some(journal) = &self.journal else {
            return;
        };
        let mut fields = vec![
            ("ev", Json::String("submitted".to_owned())),
            ("id", Json::Number(id as f64)),
            ("key", Json::String(key.to_owned())),
            ("assay", Json::String(assay.to_owned())),
        ];
        if let Some(submission) = submission {
            fields.push(("submission", submission.clone()));
        }
        if let Some(state) = terminal {
            fields.push(("state", Json::String(state.name().to_owned())));
        }
        journal.append(&Json::object(fields));
    }

    /// Journals a worker picking a job up.
    pub fn journal_started(&self, id: u64) {
        if let Some(journal) = &self.journal {
            journal.append(&Json::object([
                ("ev", Json::String("started".to_owned())),
                ("id", Json::Number(id as f64)),
            ]));
        }
    }

    /// Journals a terminal transition.
    pub fn journal_terminal(&self, id: u64, state: JobState, error: Option<&str>) {
        let Some(journal) = &self.journal else {
            return;
        };
        let ev = match state {
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            _ => "failed",
        };
        let mut fields = vec![
            ("ev", Json::String(ev.to_owned())),
            ("id", Json::Number(id as f64)),
        ];
        if let Some(error) = error {
            fields.push(("error", Json::String(error.to_owned())));
        }
        journal.append(&Json::object(fields));
    }

    /// Fsyncs the journal (called on drain).
    pub fn sync(&self) {
        if let Some(journal) = &self.journal {
            journal.sync();
        }
    }

    /// Store counters for `/stats` and `/metrics` (a disabled placeholder
    /// without `--data-dir`).
    pub fn store_stats(&self) -> StoreStats {
        self.store
            .as_ref()
            .map_or_else(StoreStats::default, DiskStore::stats)
    }

    /// Journal + recovery counters for `/stats` and `/metrics`.
    pub fn journal_stats(&self) -> JournalStats {
        JournalStats {
            enabled: self.journal.is_some(),
            available: self.journal.as_ref().is_some_and(Journal::is_available),
            appends: self.journal.as_ref().map_or(0, Journal::appends),
            append_errors: self.journal.as_ref().map_or(0, Journal::append_errors),
            replayed: self.replayed,
            corrupt_lines: self.corrupt_lines,
            recovered: self.recovered,
            requeued: self.requeued,
            lost: self.lost,
        }
    }

    /// `disabled` / `ok` / `degraded`, for `/healthz`.
    pub fn store_state(&self) -> &'static str {
        match &self.store {
            None => "disabled",
            Some(store) if store.is_available() => "ok",
            Some(_) => "degraded",
        }
    }

    /// `disabled` / `ok` / `degraded`, for `/healthz`.
    pub fn journal_state(&self) -> &'static str {
        match &self.journal {
            None => "disabled",
            Some(journal) if journal.is_available() => "ok",
            Some(_) => "degraded",
        }
    }
}

/// The compacted journal: one submitted line per job, terminal state folded
/// in, submission payloads kept only for jobs that still need to run.
fn compacted_records(jobs: &[RecoveredJob]) -> Vec<Json> {
    jobs.iter()
        .map(|job| match job {
            RecoveredJob::Terminal {
                id,
                key,
                assay,
                state,
                error,
                ..
            } => {
                let mut fields = vec![
                    ("ev", Json::String("submitted".to_owned())),
                    ("id", Json::Number(*id as f64)),
                    ("key", Json::String(key.clone())),
                    ("assay", Json::String(assay.clone())),
                    ("state", Json::String(state.name().to_owned())),
                ];
                if let Some(error) = error {
                    fields.push(("error", Json::String(error.clone())));
                }
                Json::object(fields)
            }
            RecoveredJob::Requeue {
                id,
                key,
                assay,
                submission,
            } => Json::object([
                ("ev", Json::String("submitted".to_owned())),
                ("id", Json::Number(*id as f64)),
                ("key", Json::String(key.clone())),
                ("assay", Json::String(assay.clone())),
                ("submission", submission.clone()),
            ]),
        })
        .collect()
}

fn str_field(record: &Json, name: &str) -> Option<String> {
    record
        .get(name)
        .and_then(|v| v.expect_str().ok())
        .map(str::to_owned)
}

fn u64_field(record: &Json, name: &str) -> Option<u64> {
    record
        .get(name)
        .and_then(|v| v.expect_number().ok())
        .filter(|n| n.fract() == 0.0 && *n >= 0.0)
        .map(|n| n as u64)
}

fn terminal_state(name: String) -> Option<JobState> {
    match name.as_str() {
        "done" => Some(JobState::Done),
        "failed" => Some(JobState::Failed),
        "cancelled" => Some(JobState::Cancelled),
        _ => None,
    }
}
