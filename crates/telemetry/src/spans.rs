//! Scoped spans feeding a global, lock-striped collector.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of independent event buffers; threads hash onto one by id so that
/// concurrent recorders rarely contend on the same lock.
const STRIPES: usize = 16;

/// What a recorded event is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanKind {
    /// A complete span with a duration (Chrome phase `"X"`).
    Complete {
        /// Wall-clock duration in microseconds.
        dur_micros: u64,
    },
    /// A point-in-time event (Chrome phase `"I"`).
    Instant,
}

/// One recorded event, timestamped against the process-wide epoch.
///
/// Names and categories are `&'static str` so recording a span never
/// allocates; the `args` vector only allocates for events that carry a
/// payload (e.g. the router's per-run counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Event name, e.g. `"route.path_search"`.
    pub name: &'static str,
    /// Category, e.g. `"pipeline"` or `"router"`.
    pub cat: &'static str,
    /// Start timestamp in microseconds since the collector epoch.
    pub ts_micros: u64,
    /// Logical thread id: monotonic per OS thread, stable for the process.
    pub tid: u64,
    /// Complete span or instant event.
    pub kind: SpanKind,
    /// Numeric payload rendered into the trace event's `args` object.
    pub args: Vec<(&'static str, u64)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static COLLECT: Mutex<()> = Mutex::new(());

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

struct Collector {
    stripes: Vec<Mutex<Vec<SpanEvent>>>,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        stripes: (0..STRIPES).map(|_| Mutex::new(Vec::new())).collect(),
    })
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn now_micros() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// The calling thread's logical id, as stamped into [`SpanEvent::tid`].
#[must_use]
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

fn record(event: SpanEvent) {
    let stripe = (event.tid as usize) % STRIPES;
    let mut buf = collector().stripes[stripe]
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    buf.push(event);
}

/// Turns span collection on or off. Prefer [`with_collection`] which also
/// serialises concurrent capture sessions and drains for you.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before the first event so timestamps are positive.
        epoch();
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether span collection is currently on.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens a span; the event is recorded when the guard drops. When
/// collection is disabled this is a single atomic load and the guard is
/// inert.
#[inline]
#[must_use]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    let start = if enabled() { Some(now_micros()) } else { None };
    SpanGuard { cat, name, start }
}

/// Records a point-in-time event with a numeric payload. No-op while
/// collection is disabled.
pub fn instant(cat: &'static str, name: &'static str, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    record(SpanEvent {
        name,
        cat,
        ts_micros: now_micros(),
        tid: current_tid(),
        kind: SpanKind::Instant,
        args: args.to_vec(),
    });
}

/// RAII guard returned by [`span`]; records a [`SpanKind::Complete`] event
/// on drop.
#[derive(Debug)]
pub struct SpanGuard {
    cat: &'static str,
    name: &'static str,
    start: Option<u64>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        // Collection may have been switched off while the span was open
        // (e.g. the tail of a capture session); drop the event then so it
        // cannot leak into the next session.
        if !enabled() {
            return;
        }
        let end = now_micros();
        record(SpanEvent {
            name: self.name,
            cat: self.cat,
            ts_micros: start,
            tid: current_tid(),
            kind: SpanKind::Complete {
                dur_micros: end.saturating_sub(start),
            },
            args: Vec::new(),
        });
    }
}

/// Takes all buffered events, ordered by timestamp (ties broken by thread
/// id, then name, so the output is stable).
#[must_use]
pub fn drain() -> Vec<SpanEvent> {
    let mut events = Vec::new();
    for stripe in &collector().stripes {
        let mut buf = stripe.lock().unwrap_or_else(|e| e.into_inner());
        events.append(&mut buf);
    }
    events.sort_by(|a, b| {
        (a.ts_micros, a.tid, a.name)
            .partial_cmp(&(b.ts_micros, b.tid, b.name))
            .unwrap()
    });
    events
}

/// Runs `f` with span collection enabled and returns its value together
/// with the events recorded during the call.
///
/// Capture sessions are serialised process-wide (the collector is global),
/// and any stale events left over from code that outlived a previous
/// session are discarded first — so concurrent tests cannot pollute each
/// other's traces.
pub fn with_collection<T>(f: impl FnOnce() -> T) -> (T, Vec<SpanEvent>) {
    let _session = COLLECT.lock().unwrap_or_else(|e| e.into_inner());
    drop(drain());
    set_enabled(true);
    let value = f();
    set_enabled(false);
    (value, drain())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_records_nothing() {
        let (_, events) = with_collection(|| ());
        assert!(events.is_empty());
        {
            let _g = span("test", "outside");
        }
        let (_, events) = with_collection(|| ());
        assert!(events.is_empty(), "stale events must not leak in");
    }

    #[test]
    fn spans_nest_and_order() {
        let (_, events) = with_collection(|| {
            let _outer = span("test", "outer");
            {
                let _inner = span("test", "inner");
            }
            instant("test", "mark", &[("k", 7)]);
        });
        let names: Vec<_> = events.iter().map(|e| e.name).collect();
        // Inner closes (and records) before outer; the instant fires last
        // but sorting is by start timestamp.
        assert!(names.contains(&"outer"));
        assert!(names.contains(&"inner"));
        assert!(names.contains(&"mark"));
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        assert!(outer.ts_micros <= inner.ts_micros);
        let (SpanKind::Complete { dur_micros: od }, SpanKind::Complete { dur_micros: id }) =
            (&outer.kind, &inner.kind)
        else {
            panic!("expected complete spans");
        };
        assert!(od >= id);
        let mark = events.iter().find(|e| e.name == "mark").unwrap();
        assert_eq!(mark.kind, SpanKind::Instant);
        assert_eq!(mark.args, vec![("k", 7)]);
    }

    #[test]
    fn threads_get_distinct_tids() {
        let (_, events) = with_collection(|| {
            let h = std::thread::spawn(|| {
                let _g = span("test", "worker");
            });
            let _g = span("test", "main");
            h.join().unwrap();
        });
        let worker = events.iter().find(|e| e.name == "worker").unwrap();
        let main = events.iter().find(|e| e.name == "main").unwrap();
        assert_ne!(worker.tid, main.tid);
    }
}
