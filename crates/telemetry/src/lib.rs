//! Self-contained observability: spans, metrics, and trace exporters.
//!
//! Like the workspace's other offline stand-ins (`biochip-json`, `serde`,
//! `rand`), this crate has no external dependencies. It provides:
//!
//! - **Spans** — scoped RAII guards feeding a global, lock-striped
//!   collector. Collection is off by default; a disabled [`span`] is a
//!   single relaxed atomic load, so instrumented code pays essentially
//!   nothing in production paths.
//! - **Metrics** — a [`Registry`] of counters, gauges and fixed-bucket
//!   histograms with p50/p90/p99 extraction, rendered in the Prometheus
//!   text exposition format.
//! - **Exporters** — [`chrome_trace_json`] turns drained span events into
//!   Chrome `trace_event` JSON viewable in Perfetto or `chrome://tracing`.
//!
//! Telemetry is strictly **determinism-neutral**: it observes wall-clock
//! time but never feeds anything back into the code it watches, so enabling
//! or disabling collection cannot change a single result byte.
//!
//! # Capturing a trace
//!
//! ```
//! use biochip_telemetry as telemetry;
//!
//! let (value, events) = telemetry::with_collection(|| {
//!     let _span = telemetry::span("demo", "work");
//!     40 + 2
//! });
//! assert_eq!(value, 42);
//! assert_eq!(events.len(), 1);
//! let json = telemetry::chrome_trace_json(&events);
//! assert!(json.contains("\"name\":\"work\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod metrics;
mod spans;

pub use export::chrome_trace_json;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use spans::{
    current_tid, drain, enabled, instant, set_enabled, span, with_collection, SpanEvent, SpanGuard,
    SpanKind,
};
