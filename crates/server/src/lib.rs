//! The `biochip serve` job service.
//!
//! A dependency-free HTTP/1.1 + JSON front end over the synthesis
//! pipeline, turning the one-shot CLI into a persistent service:
//!
//! * **Submissions** — `POST /jobs` accepts `{"assay": "RA1K"}` (any name
//!   in [`biochip_synth::assay::library::NAMED_ASSAYS`]) or a full
//!   `{"problem": ..., "config": ...}` document in the workspace's JSON
//!   interchange. Malformed or invalid submissions answer a structured
//!   `biochip-error/v1` body — never a crashed worker.
//! * **Sharded workers** — jobs run on a [`biochip_pool::ShardedPool`];
//!   the shard is picked by the submission's content key, so identical
//!   submissions serialize on one worker instead of synthesizing twice.
//! * **Content-addressed result cache** — results are cached under the
//!   canonical hash of the `(problem, config)` pair
//!   ([`biochip_json::content_key_hex`]); resubmitting the same assay is a
//!   lookup, not a pipeline run. A full-key miss resumes from the
//!   per-stage caches and warm hints of [`biochip_synth::StageCaches`].
//!   The result cache, the stage caches, the warm hints and the key memo
//!   are each a [`biochip_synth::ResultCache`] LRU; `GET /stats` exposes
//!   their hit/miss/eviction counters.
//! * **Job lifecycle** — `GET /jobs/:id` reports
//!   queued/running/done/failed/cancelled plus the live pipeline stage of
//!   a running synthesis ([`biochip_synth::FlowController`]);
//!   `DELETE /jobs/:id` cancels at the next stage boundary;
//!   `GET /results/:id` returns the full `biochip-serve/v1` result
//!   document.
//! * **Durability** — with a `--data-dir`, results write through to a
//!   crash-safe on-disk store ([`biochip_store::DiskStore`]) and every job
//!   transition is journaled; on restart, completed jobs resolve from the
//!   store (`GET /jobs/:id` survives the crash) and interrupted jobs
//!   re-enqueue. See [`durable`].
//! * **Admission control** — a bounded queue and per-client in-flight
//!   quotas answer structured `429 Too Many Requests` (with `Retry-After`)
//!   under overload; SIGTERM or `POST /shutdown` drains in-flight jobs and
//!   answers `503` to new submissions meanwhile.
//!
//! The HTTP layer is hand-rolled on `std::net` (the build is offline — no
//! hyper/axum), implementing exactly the subset the API needs; see
//! [`http`].

// `signals` declares the one libc symbol (`signal`) the SIGTERM drain hook
// needs, so the crate cannot forbid unsafe wholesale; the single unsafe
// block is `// SAFETY:`-documented and U1-linted.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod durable;
pub mod http;
pub mod jobs;
pub mod server;
#[allow(unsafe_code)]
pub mod signals;

pub use durable::JournalStats;
pub use jobs::{JobRecord, JobState, JobStore, ResultDoc};
pub use server::{
    error_body, AdmissionStats, ServeOptions, ServeStats, Server, ServerHandle, ERROR_SCHEMA,
};
