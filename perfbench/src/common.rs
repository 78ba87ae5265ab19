//! Shared pieces: digests, the span recorder, statistics, the exactness
//! record and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Directory (relative to the checkout root) for run artifacts: traces,
/// exactness records and the serve workload's data directories.
pub const OUT_DIR: &str = "perfbench/out";

/// FNV-1a, for digests of outputs and answers.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Folds `value` into a running digest.
pub fn fold(digest: u64, value: &[u8]) -> u64 {
    fnv(&[&digest.to_le_bytes()[..], value].concat())
}

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub tid: u64,
}

/// Records spans around the benchmark's calls into the program. Disabled
/// tracers record nothing, so the same request code serves the timed run
/// and the traced run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tid: u64,
    request: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, tid: u64) -> Self {
        Tracer {
            enabled,
            epoch,
            tid,
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the spans of a new request id.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name`, the child of the innermost
    /// open span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
            request: self.request,
            tid: self.tid,
        });
        self.stack.push(index);
        let value = f(self);
        self.stack.pop();
        self.spans[index].end = self.now();
        value
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// durations of its direct children. Spans of one tracer never overlap
/// their siblings, so the children are disjoint.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end - span.start;
        }
    }
    let mut out = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let own = (span.end - span.start).saturating_sub(children);
        *out.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// Writes the spans as one Chrome `trace_event` file (open in Perfetto).
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = span.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"request\":{},\"span\":{},\"parent\":{}}}}}",
            span.name,
            layer_of(span.name),
            span.start as f64 / 1e3,
            (span.end - span.start) as f64 / 1e3,
            span.tid,
            span.request,
            i,
            parent
        );
    }
    out.push_str("]}\n");
    std::fs::write(path, out)
}

/// The layer (crate) a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set (VmHWM) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The part of a run that must repeat exactly for a given seed: identical
/// between the traced and untraced runs and across runs of one binary.
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    /// Digest of the per-assay output identities, in input order.
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Winning-attempt router counters summed over distinct chips:
    /// grids tried, windows tried, path searches, nodes expanded, segments
    /// priced, postponed transports. All zero where they are not held
    /// exact (serve_mix).
    pub arch: [u64; 6],
    pub exec_ratio: f64,
    pub valve_ratio: f64,
}

impl Exact {
    pub fn empty() -> Self {
        Exact {
            digest: 0,
            attempted: 0,
            failed: 0,
            arch: [0; 6],
            exec_ratio: 1.0,
            valve_ratio: 1.0,
        }
    }

    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn render(&self) -> String {
        format!(
            "digest={:016x} attempted={} failed={} arch={:?} exec_ratio={:?} valve_ratio={:?}",
            self.digest, self.attempted, self.failed, self.arch, self.exec_ratio, self.valve_ratio
        )
    }
}

/// Compares `exact` with the record an earlier run of the same binary on
/// the same workload and seed left behind, writing the record when there
/// is none. Returns an error describing a mismatch.
pub fn check_exact_record(workload: &str, seed: u64, exact: &Exact) -> Result<(), String> {
    let binary = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| fnv(&bytes))
        .map_err(|e| format!("cannot read the benchmark binary: {e}"))?;
    let dir = PathBuf::from(OUT_DIR).join("exact");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-{seed}-{binary:016x}.txt"));
    let rendered = exact.render();
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous.trim() == rendered => Ok(()),
        Ok(previous) => Err(format!(
            "exact half differs from an earlier run of this seed:\n  then: {}\n  now:  {rendered}",
            previous.trim()
        )),
        Err(_) => std::fs::write(&path, format!("{rendered}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display())),
    }
}

/// The metrics of one run, in the order they are printed.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Length of one window of `EndToEnd::windowed`, in seconds.
pub const WINDOW_S: f64 = 4.0;

/// End-to-end figures of a set of requests.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub per_s: f64,
    pub p50: f64,
    pub p90: f64,
}

impl EndToEnd {
    /// `latencies` in seconds; `busy` is the time the requests were
    /// measured over.
    pub fn from_latencies(latencies: &[f64], busy: f64) -> Self {
        let mut sorted = latencies.to_vec();
        sorted.sort_by(f64::total_cmp);
        EndToEnd {
            per_s: latencies.len() as f64 / busy.max(1e-9),
            p50: quantile(&sorted, 0.5),
            p90: quantile(&sorted, 0.9),
        }
    }

    /// The median over a run's `WINDOW_S` windows of each window's
    /// throughput and latency quantiles. `done` holds each request's
    /// completion time (seconds since the run began) and latency; a request
    /// belongs to the window it completed in, and a last window the run did
    /// not fill is left out. A window's throughput is its completions after
    /// the first over the time from the first to the last. Other tenants of
    /// a shared host take its cores for seconds at a time; a window they
    /// slow moves these medians only if it is one of half the run's windows
    /// or more. A run shorter than two windows is taken whole.
    pub fn windowed(done: &[(f64, f64)], wall: f64) -> Self {
        let windows = (wall / WINDOW_S).floor() as usize;
        if windows < 2 {
            let latencies: Vec<f64> = done.iter().map(|&(_, latency)| latency).collect();
            return Self::from_latencies(&latencies, wall);
        }
        let mut per_window = vec![Vec::new(); windows];
        for &(at, latency) in done {
            if let Some(window) = per_window.get_mut((at / WINDOW_S) as usize) {
                window.push((at, latency));
            }
        }
        let figures: Vec<EndToEnd> = per_window
            .iter()
            .map(|window| {
                let latencies: Vec<f64> = window.iter().map(|&(_, latency)| latency).collect();
                let first = window
                    .iter()
                    .map(|&(at, _)| at)
                    .fold(f64::INFINITY, f64::min);
                let last = window.iter().map(|&(at, _)| at).fold(0.0, f64::max);
                let mut figure = Self::from_latencies(&latencies, WINDOW_S);
                if window.len() >= 2 && last > first {
                    figure.per_s = (window.len() - 1) as f64 / (last - first);
                }
                figure
            })
            .collect();
        let over = |figure: fn(&EndToEnd) -> f64| {
            median(&figures.iter().map(figure).collect::<Vec<f64>>())
        };
        EndToEnd {
            per_s: over(|f| f.per_s),
            p50: over(|f| f.p50),
            p90: over(|f| f.p90),
        }
    }

    pub fn put(&self, metrics: &mut Metrics) {
        metrics.put("assays_per_s", self.per_s, "1/s");
        metrics.put("latency_p50_s", self.p50, "s");
        metrics.put("latency_p90_s", self.p90, "s");
    }

    /// Tracing overhead: traced minus untraced, per end-to-end metric.
    pub fn overhead(traced: &EndToEnd, untraced: &EndToEnd, out: &mut BTreeMap<&'static str, f64>) {
        out.insert(
            "telemetry.overhead.assays_per_s",
            traced.per_s - untraced.per_s,
        );
        out.insert(
            "telemetry.overhead.latency_p50_s",
            traced.p50 - untraced.p50,
        );
        out.insert(
            "telemetry.overhead.latency_p90_s",
            traced.p90 - untraced.p90,
        );
    }
}

/// What a measured run hands back, whichever workload ran.
#[derive(Debug)]
pub struct Run {
    pub e2e: EndToEnd,
    pub exact: Exact,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures (empty when every check held).
    pub errors: Vec<String>,
}
