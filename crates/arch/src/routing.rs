//! Time-multiplexed routing of transportation paths on the connection grid.
//!
//! Every transportation task is routed as a path of channel segments
//! connected by switches. Paths whose occupation windows overlap in time may
//! not share an edge or an intersection node (the paper's conflict rule), a
//! segment caching a sample is blocked for its storage interval (but its end
//! nodes remain passable), and device nodes can only appear as the endpoints
//! of a path. Routing minimizes the number of *distinct* edges ever used by
//! pricing not-yet-used edges higher than already-used ones, which directly
//! drives down the `n_e`/`n_v` columns of Table 2.
//!
//! # The staged pipeline
//!
//! [`Router::route`] runs every task through three explicit stages:
//!
//! 1. **Window selection** — candidate occupation windows inside the task's
//!    slack. The preferred window comes first; further candidates are asked
//!    of the [`ReservationTable`] calendars directly
//!    ([`first_free_edge_window`](ReservationTable::first_free_edge_window)
//!    on the congested port resources) instead of probing arithmetic guesses,
//!    so a feasible window is found even when the contention pattern is
//!    irregular.
//! 2. **Path search** — an indexed Dijkstra over the grid (dense scratch
//!    arrays reused across searches) that respects the reservation calendars
//!    for the chosen window; store tasks additionally select a cache segment
//!    through the distance-sorted [`SegmentIndex`](crate::segment_index).
//!    Candidates are tried one at a time in candidate order and the first
//!    feasible one wins. The search only reads the routing state.
//! 3. **Commit** — the found path reserves its edges and switch nodes in the
//!    calendars and the task is recorded, in task order.
//!
//! Each stage counts its work in [`RouterStats`], surfaced through
//! `SynthesisReport` so regressions in window rejection rates or search
//! effort are visible in the benchmark artifacts.
//!
//! # Allocation discipline
//!
//! The hot loops run on dense, index-addressed tables — a bitset for the
//! used-edge set, per-edge slots for the active caches, per-sample slots for
//! the cache assignment — and on scratch buffers (window builder, Dijkstra
//! arrays, claim-region flood) that are reused across all tasks of a run. The
//! steady-state allocation rate per routed task is pinned by the
//! `alloc_discipline` integration test.
//!
//! Tasks carry slack (`earliest_start ..= deadline`); when the preferred
//! window is congested — for example several samples leaving the same device
//! at once, which cannot all use its handful of ports simultaneously — the
//! router staggers the transport inside its slack instead of failing.

use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use biochip_assay::Seconds;
use biochip_telemetry as telemetry;

use crate::connection_graph::RoutedTransport;
use crate::error::ArchError;
use crate::grid::{ConnectionGrid, GridEdgeId, NodeId};
use crate::oracle::{OracleTarget, RoutingOracle};
use crate::placement::Placement;
use crate::reservation::{Interval, ReservationTable};
use crate::segment_index::{OrderedCandidates, PairIndex, SegmentIndex};

/// A statically-scored, `(score, edge)`-sorted candidate list shared with
/// [`OrderedCandidates`].
type ScoredEdges = Rc<[(u64, GridEdgeId)]>;
use crate::transport::{TransportKind, TransportTask};

/// Options controlling the router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingOptions {
    /// Cost of traversing an edge that some earlier path already used.
    pub used_edge_cost: u64,
    /// Cost of traversing an edge that no path has used yet (pricing new
    /// edges higher minimizes the number of kept segments).
    pub new_edge_cost: u64,
    /// Whether cache segments may touch a device node when no pure
    /// switch-to-switch segment is free (needed on very small grids).
    pub allow_device_adjacent_storage: bool,
    /// Bounds the candidate start times tried when a task's preferred
    /// window is congested: the arithmetic stride over the slack stops at
    /// this many starts (2× with overrun steps included), and the full
    /// candidate list — calendar-derived extras appended — is truncated at
    /// 4× this value.
    pub max_window_candidates: usize,
    /// Price added per neighbouring segment that is already caching a sample
    /// while the candidate would be: spreads cache segments out instead of
    /// letting them cluster into walls that block each other's fetch egress
    /// (16 = four Manhattan-distance units of the store score).
    pub cache_neighbor_penalty: u64,
    /// Path-search price added for traversing a switch node adjacent to a
    /// device that is not an endpoint of the current task. Keeps transit
    /// traffic off device ports, which zero-slack stores and fetches need
    /// free at exactly their scheduled instant.
    pub foreign_port_penalty: u64,
    /// Last-resort postponement: how far beyond its deadline a transport may
    /// be shifted when no conflict-free window exists inside its slack.
    ///
    /// A schedule can demand more simultaneous movements at one device than
    /// the device has ports (e.g. three departing samples plus two arriving
    /// inputs around the same instant); a real chip controller serializes
    /// them. The resulting postponement is reported by
    /// [`Architecture::transport_postponement`](crate::Architecture::transport_postponement)
    /// so that the execution-time impact stays visible.
    pub max_deadline_overrun: Seconds,
}

impl Default for RoutingOptions {
    fn default() -> Self {
        RoutingOptions {
            used_edge_cost: 1,
            new_edge_cost: 4,
            allow_device_adjacent_storage: true,
            cache_neighbor_penalty: 16,
            foreign_port_penalty: 2,
            max_window_candidates: 16,
            max_deadline_overrun: 0,
        }
    }
}

/// One routed transportation path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutedPath {
    /// Nodes visited, in order (first = source, last = destination).
    pub nodes: Vec<NodeId>,
    /// Edges traversed, in order (`nodes.len() - 1` entries).
    pub edges: Vec<GridEdgeId>,
    /// Time window during which the path is occupied.
    pub window: Interval,
}

/// Per-stage work counters of the staged routing pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RouterStats {
    /// Tasks successfully routed (commit-stage executions).
    pub tasks_routed: usize,
    /// Candidate windows evaluated by the path-search stage.
    pub windows_tried: usize,
    /// Dijkstra invocations.
    pub path_searches: usize,
    /// Total nodes expanded (heap pops) across all path searches.
    pub nodes_expanded: usize,
    /// Cache segments priced by the store stage's segment index.
    pub segments_priced: usize,
    /// Tasks committed past their schedule-derived deadline.
    pub postponed_tasks: usize,
    /// Routing oracles this router built itself (0 when a prebuilt oracle
    /// was adopted via [`Router::with_oracle`]).
    pub oracle_builds: usize,
    /// Path searches the oracle rejected before any node expansion
    /// (destination-entry precheck) — each one a search the exact Dijkstra
    /// would have run to exhaustion and failed.
    pub oracle_rejected_searches: usize,
    /// Frontier pushes pruned by the oracle's static-reachability
    /// tightening (the admissible bound snaps to ∞ for transit nodes walled
    /// off from the target's component).
    pub oracle_tightenings: usize,
    /// Store-claim candidates pruned by the oracle's producer-region flood
    /// before any probe was paid for them.
    pub oracle_pruned_candidates: usize,
}

/// Dense bitset over grid-edge indices — the used-edge set of the chip.
/// Replaces the previous `HashSet<GridEdgeId>`: `contains` sits on the
/// Dijkstra hot path (every relaxed edge asks it for its price) and the
/// bitset answers it with one shift and mask, allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DenseEdgeSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseEdgeSet {
    fn new(edges: usize) -> Self {
        DenseEdgeSet {
            words: vec![0; edges.div_ceil(64)],
            len: 0,
        }
    }

    #[inline]
    fn contains(&self, edge: GridEdgeId) -> bool {
        let i = edge.index();
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    fn insert(&mut self, edge: GridEdgeId) -> bool {
        let i = edge.index();
        let mask = 1u64 << (i % 64);
        let fresh = self.words[i / 64] & mask == 0;
        if fresh {
            self.words[i / 64] |= mask;
            self.len += 1;
        }
        fresh
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Member edges in ascending id order (deterministic by construction,
    /// unlike the hash-set iteration it replaces).
    fn to_vec(&self) -> Vec<GridEdgeId> {
        let mut out = Vec::with_capacity(self.len);
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(GridEdgeId(w * 64 + b));
                bits &= bits - 1;
            }
        }
        out
    }
}

/// Dense per-sample cache assignment (`sample id → (cache segment, exit
/// node)`), replacing a `HashMap<usize, _>` on the store/fetch path.
#[derive(Debug, Default)]
struct SampleCaches {
    slots: Vec<Option<(GridEdgeId, NodeId)>>,
}

impl SampleCaches {
    fn get(&self, sample: usize) -> Option<(GridEdgeId, NodeId)> {
        self.slots.get(sample).copied().flatten()
    }

    fn set(&mut self, sample: usize, value: (GridEdgeId, NodeId)) {
        if self.slots.len() <= sample {
            self.slots.resize(sample + 1, None);
        }
        self.slots[sample] = Some(value);
    }

    fn remove(&mut self, sample: usize) {
        if let Some(slot) = self.slots.get_mut(sample) {
            *slot = None;
        }
    }
}

/// Bookkeeping of one segment that currently caches a sample.
#[derive(Debug, Clone, Copy)]
struct CacheInfo {
    /// Span during which the segment is blocked (arrival through planned
    /// fetch end plus the postponement guard).
    blocked: Interval,
    /// The reservation the store placed on the segment's calendar (storage
    /// arrival through `reserved_until`); lets the store stage reject a
    /// busy pool member with one indexed load instead of calendar searches.
    reserved: Interval,
    /// The window the fetch is planned to depart in.
    fetch_window: Interval,
    /// End of the reservation the store placed on the segment: planned
    /// fetch end plus `max_deadline_overrun`, so a postponed fetch still
    /// owns its segment while the sample rests past the plan.
    reserved_until: Seconds,
}

/// The time spans a store task must secure on its cache segment.
#[derive(Debug, Clone, Copy)]
struct StoreHorizon {
    /// Window of the store transport itself.
    store_window: Interval,
    /// Span the sample rests in the segment.
    storage: Interval,
    /// Planned (non-empty) departure window of the matching fetch.
    planned_fetch: Interval,
    /// Full span the segment is blocked: store arrival → planned fetch end.
    blocked: Interval,
}

impl StoreHorizon {
    fn new(task: &TransportTask, store_window: Interval, stored_until: Seconds) -> Self {
        let storage = Interval::new(store_window.end.min(stored_until), stored_until);
        let planned_fetch_end = stored_until + task.window_len().max(1);
        StoreHorizon {
            store_window,
            storage,
            planned_fetch: Interval::new(stored_until, planned_fetch_end),
            blocked: Interval::new(store_window.start, planned_fetch_end),
        }
    }
}

/// One Dijkstra frontier entry (min-heap by cost, then node id).
#[derive(Debug, PartialEq, Eq)]
struct SearchEntry {
    cost: u64,
    node: NodeId,
    /// The g-cost behind `cost` (`cost` minus the node's admissible bound),
    /// carried so a pop does not recompute the bound. Not part of the
    /// ordering — and it could not break ties anyway: entries with equal
    /// `(cost, node)` share the node's bound, hence the same `dist`.
    dist: u64,
}

impl Ord for SearchEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .cost
            .cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for SearchEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Dense per-node scratch arrays reused across Dijkstra runs; `stamp`
/// versioning avoids clearing them between searches and the frontier heap
/// keeps its allocation.
#[derive(Debug, Default)]
struct DijkstraScratch {
    dist: Vec<u64>,
    prev: Vec<(NodeId, GridEdgeId)>,
    stamp: Vec<u32>,
    epoch: u32,
    heap: std::collections::BinaryHeap<SearchEntry>,
    // Memo of calendar answers, keyed by (window, state generation).
    // While both are unchanged, `edge_free`/`node_free` are pure: an edge
    // is examined from both of its endpoints, a node once per incoming
    // edge, and sibling probes of one candidate stream flood the same
    // region — caching the first answer elides most of the calendar
    // binary searches that dominate the relax loop.
    cal_epoch: u32,
    memo_ctx: Option<(Interval, u64)>,
    edge_free_stamp: Vec<u32>,
    edge_free_val: Vec<bool>,
    node_free_stamp: Vec<u32>,
    node_free_val: Vec<bool>,
}

impl DijkstraScratch {
    fn for_grid(grid: &ConnectionGrid) -> Self {
        DijkstraScratch {
            dist: vec![0; grid.num_nodes()],
            prev: vec![(NodeId(0), GridEdgeId(0)); grid.num_nodes()],
            stamp: vec![0; grid.num_nodes()],
            epoch: 0,
            heap: std::collections::BinaryHeap::new(),
            cal_epoch: 0,
            memo_ctx: None,
            edge_free_stamp: vec![0; grid.num_edges()],
            edge_free_val: vec![false; grid.num_edges()],
            node_free_stamp: vec![0; grid.num_nodes()],
            node_free_val: vec![false; grid.num_nodes()],
        }
    }

    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: every stale stamp would look current, so reset.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.heap.clear();
    }

    /// Declare the (window, state generation) the calendar memo answers
    /// for; a change invalidates every memoized answer at once.
    fn calendar_context(&mut self, window: Interval, generation: u64) {
        if self.memo_ctx == Some((window, generation)) {
            return;
        }
        self.memo_ctx = Some((window, generation));
        self.cal_epoch = self.cal_epoch.wrapping_add(1);
        if self.cal_epoch == 0 {
            // Wrapped: every stale stamp would look current, so reset.
            self.edge_free_stamp.fill(0);
            self.node_free_stamp.fill(0);
            self.cal_epoch = 1;
        }
    }

    fn edge_free_memo(&mut self, edge: GridEdgeId, query: impl FnOnce() -> bool) -> bool {
        let i = edge.index();
        if self.edge_free_stamp[i] == self.cal_epoch {
            return self.edge_free_val[i];
        }
        let free = query();
        self.edge_free_stamp[i] = self.cal_epoch;
        self.edge_free_val[i] = free;
        free
    }

    fn node_free_memo(&mut self, node: NodeId, query: impl FnOnce() -> bool) -> bool {
        let i = node.index();
        if self.node_free_stamp[i] == self.cal_epoch {
            return self.node_free_val[i];
        }
        let free = query();
        self.node_free_stamp[i] = self.cal_epoch;
        self.node_free_val[i] = free;
        free
    }

    fn dist(&self, node: NodeId) -> u64 {
        if self.stamp[node.index()] == self.epoch {
            self.dist[node.index()]
        } else {
            u64::MAX
        }
    }

    fn set(&mut self, node: NodeId, dist: u64, prev: Option<(NodeId, GridEdgeId)>) {
        let i = node.index();
        self.stamp[i] = self.epoch;
        self.dist[i] = dist;
        if let Some(p) = prev {
            self.prev[i] = p;
        }
    }
}

/// Reusable buffers of the window-selection and store stages. The
/// original implementation allocated a `Vec`, a `HashSet` and a `BTreeSet`
/// per task; these buffers make the stage allocation-free in steady state
/// while reproducing the exact candidate order (linear dedup over the small
/// start list, sort+dedup over the calendar extras).
#[derive(Debug, Default)]
struct WindowScratch {
    /// The produced candidate list (handed out via `mem::take`, returned
    /// after the drive).
    out: Vec<Interval>,
    starts: Vec<Seconds>,
    seen: Vec<Seconds>,
    extras: Vec<Seconds>,
    resources: Vec<WindowResource>,
    /// Producer-region flood of the store stage's claim pruning.
    region: RegionScratch,
}

/// Pop budget of the claim-region flood. Small enough that an open grid —
/// where pruning can never fire — gives up after a handful of calendar
/// probes, large enough to fully map the walled-in pockets around a
/// congested producer (empirically a few dozen transit nodes).
const CLAIM_REGION_POPS: usize = 64;

/// Stamped visited-set + queue of the bounded claim-region flood: the set
/// of transit nodes the producer can reach during one store window. Reused
/// across windows and tasks (allocation-free in steady state); `complete`
/// is only set when the frontier drained within [`CLAIM_REGION_POPS`], i.e.
/// when the region is *exact* and pruning against it is sound.
#[derive(Debug, Default)]
struct RegionScratch {
    stamp: Vec<u32>,
    epoch: u32,
    queue: Vec<NodeId>,
    complete: bool,
}

impl RegionScratch {
    fn begin(&mut self, nodes: usize) {
        if self.stamp.len() < nodes {
            self.stamp.resize(nodes, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
        self.complete = false;
    }

    #[inline]
    fn mark(&mut self, node: NodeId) {
        self.stamp[node.index()] = self.epoch;
    }

    #[inline]
    fn contains(&self, node: NodeId) -> bool {
        self.stamp[node.index()] == self.epoch
    }
}

/// Everything about a routing run that is fixed after [`Router::new`]:
/// grid topology, placement-derived lookup tables and the options.
#[derive(Debug)]
struct RouteCtx<'a> {
    grid: &'a ConnectionGrid,
    placement: &'a Placement,
    options: RoutingOptions,
    /// The precomputed per-architecture search structure: the dense device
    /// tables on the Dijkstra hot path plus the static transit components.
    /// Built once per `(grid, placement)` and shared — across the strict
    /// and relaxed routing passes, across warm restarts, and (through the
    /// server's [`OracleCache`](crate::OracleCache)) across jobs.
    oracle: Arc<RoutingOracle>,
    /// Whether the oracle's reject-only search assists (destination
    /// precheck, h = ∞ tightening, claim-region pruning) are armed. Only on
    /// storage-sized grids, and switchable off so tests can prove the
    /// routed output does not depend on it.
    assists: bool,
    /// Whether the grid is storage-sized (side ≥ `SCALE_GRID_SIDE`). The
    /// scale heuristics — pool-first reuse, cache guards, foreign-port
    /// pricing, A*-directed search — only engage here, so paper-scale grids
    /// reproduce the pre-refactor router's chips exactly.
    scale_mode: bool,
}

/// The mutable routing state: reservation calendars, the used-edge set and
/// the cache bookkeeping. Only commits mutate it; the path search reads it
/// through [`Eval`].
#[derive(Debug)]
struct RouteState {
    reservations: ReservationTable,
    used_edges: DenseEdgeSet,
    /// Cache segment and exit node chosen for each stored sample.
    cache_of_sample: SampleCaches,
    /// Per-edge slot of the segments currently caching a sample, with the
    /// span they are blocked for and the window their fetch is planned in.
    /// Drives the store stage's occupancy pricing and the egress guards.
    active_caches: Vec<Option<CacheInfo>>,
    /// Every segment that has ever cached a sample. Store tasks reuse pool
    /// members first (first-fit interval assignment), keeping the distinct
    /// cache-segment count near the schedule's storage peak.
    cache_pool: BTreeSet<GridEdgeId>,
    /// Pool members in the order they joined (drives the incremental
    /// per-pair pooled candidate lists).
    pool_log: Vec<GridEdgeId>,
    /// Bumped on every commit (and on [`Router::reservations`]). Keys the
    /// per-(window, state) calendar memo in [`DijkstraScratch`]: a memo
    /// entry is only reused while the generation it was recorded under is
    /// still current, so probes between two commits share answers and any
    /// commit invalidates them wholesale.
    generation: u64,
}

impl RouteState {
    fn new(grid: &ConnectionGrid) -> Self {
        RouteState {
            reservations: ReservationTable::new(grid),
            used_edges: DenseEdgeSet::new(grid.num_edges()),
            cache_of_sample: SampleCaches::default(),
            active_caches: vec![None; grid.num_edges()],
            cache_pool: BTreeSet::new(),
            pool_log: Vec::new(),
            generation: 0,
        }
    }
}

/// A resource whose reservation calendar constrains a task's window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WindowResource {
    Edge(GridEdgeId),
    Node(NodeId),
}

/// A read-only view of the context and the routing state for the window
/// and path-search stages. Its methods never change the state; they only
/// write into the scratch buffers and work counters they are handed.
#[derive(Clone, Copy)]
struct Eval<'e, 'a> {
    ctx: &'e RouteCtx<'a>,
    state: &'e RouteState,
}

impl<'e, 'a> Eval<'e, 'a> {
    /// The device occupying a node, if any (dense O(1) lookup).
    fn device_at(&self, node: NodeId) -> Option<biochip_schedule::DeviceId> {
        self.ctx.oracle.device_of_node[node.index()]
    }

    /// Candidate occupation windows inside the task's slack: the preferred
    /// window first, then slack candidates in ascending start order, then
    /// postponed windows up to the configured deadline overrun (last
    /// resort). Besides the arithmetic grid of start times, the calendars
    /// of the resources a window must not conflict with (typically the port
    /// edges of the two devices) are asked for their first feasible windows
    /// directly, so congested tasks jump straight to a plausible start
    /// instead of stepping blindly through their slack.
    fn candidate_windows(
        &self,
        task: &TransportTask,
        allow_overrun: bool,
        ws: &mut WindowScratch,
        out: &mut Vec<Interval>,
    ) {
        out.clear();
        ws.resources.clear();
        self.window_resources(task, &mut ws.resources);
        let len = task.window_len().max(1);
        let cap = self.ctx.options.max_window_candidates.max(1);

        // The pre-refactor candidate sequence, reproduced exactly so every
        // task the old router placed lands in the same window: preferred
        // start, then earliest, latest and a stride over the slack, then
        // arithmetic overrun steps.
        ws.starts.clear();
        ws.starts.push(task.window_start);
        let latest = if task.deadline >= task.earliest_start + len {
            let latest = task.deadline - len;
            ws.starts.push(task.earliest_start);
            ws.starts.push(latest);
            let mut s = task.earliest_start;
            while s <= latest && ws.starts.len() < self.ctx.options.max_window_candidates {
                ws.starts.push(s);
                s += len;
            }
            Some(latest)
        } else {
            None
        };
        let overrun_latest = if allow_overrun && self.ctx.options.max_deadline_overrun > 0 {
            let base = task.deadline.saturating_sub(len).max(task.earliest_start);
            let mut overrun = len;
            while overrun <= self.ctx.options.max_deadline_overrun && ws.starts.len() < 2 * cap {
                ws.starts.push(base + overrun);
                overrun += len;
            }
            Some((base, base + self.ctx.options.max_deadline_overrun))
        } else {
            None
        };
        // First-occurrence dedup, truncated at 2·cap — a linear scan over
        // the (small, bounded) start list replaces the per-task `HashSet`.
        ws.seen.clear();
        for &s in &ws.starts {
            if ws.seen.len() >= 2 * cap {
                break;
            }
            if ws.seen.contains(&s) {
                continue;
            }
            ws.seen.push(s);
            out.push(Interval::new(s, s + len));
        }

        // Calendar-driven extras: the earliest feasible starts on the
        // constraining resources, appended after the legacy sequence — they
        // only decide the outcome when every legacy candidate fails, which
        // is exactly the congested case the calendars resolve.
        ws.extras.clear();
        if let Some(latest) = latest {
            for resource in &ws.resources {
                for earliest in [task.earliest_start, task.window_start.min(latest)] {
                    if let Some(s) = self.first_free_on(*resource, len, earliest, latest) {
                        ws.extras.push(s);
                    }
                }
            }
        }
        if let Some((base, latest)) = overrun_latest {
            for resource in &ws.resources {
                if let Some(s) = self.first_free_on(*resource, len, base + 1, latest) {
                    ws.extras.push(s);
                }
            }
        }
        // Ascending dedup order, as the former `BTreeSet` iterated.
        ws.extras.sort_unstable();
        ws.extras.dedup();
        for &s in &ws.extras {
            let w = Interval::new(s, s + len);
            if !out.contains(&w) {
                out.push(w);
            }
        }
        out.truncate(4 * cap);
    }

    /// The resources whose calendars constrain a task's window: the port
    /// edges of its endpoint devices, plus the end nodes of the cache
    /// segment for fetches.
    fn window_resources(&self, task: &TransportTask, out: &mut Vec<WindowResource>) {
        match task.kind {
            TransportKind::Direct => {
                let from = self.ctx.placement.node_of(task.from_device);
                let to = self.ctx.placement.node_of(task.to_device);
                for &node in &[from, to] {
                    for &edge in self.ctx.grid.incident_edges(node) {
                        out.push(WindowResource::Edge(edge));
                    }
                }
            }
            TransportKind::Store => {
                let from = self.ctx.placement.node_of(task.from_device);
                for &edge in self.ctx.grid.incident_edges(from) {
                    out.push(WindowResource::Edge(edge));
                }
            }
            TransportKind::Fetch => {
                if let Some((cache_edge, exit)) = self.state.cache_of_sample.get(task.sample) {
                    let entry = self.ctx.grid.other_endpoint(cache_edge, exit);
                    out.push(WindowResource::Node(exit));
                    out.push(WindowResource::Node(entry));
                }
                let to = self.ctx.placement.node_of(task.to_device);
                for &edge in self.ctx.grid.incident_edges(to) {
                    out.push(WindowResource::Edge(edge));
                }
            }
        }
    }

    fn first_free_on(
        &self,
        resource: WindowResource,
        duration: Seconds,
        earliest: Seconds,
        latest_start: Seconds,
    ) -> Option<Seconds> {
        match resource {
            WindowResource::Edge(edge) => self.state.reservations.first_free_edge_window(
                edge,
                duration,
                earliest,
                latest_start,
            ),
            WindowResource::Node(node) => self.state.reservations.first_free_node_window(
                node,
                duration,
                earliest,
                latest_start,
            ),
        }
    }

    /// Whether the producer can get a sample out through at least one of its
    /// port edges during the window. When not, no candidate segment can be
    /// reached — the store stage skips the window before pricing the pool.
    fn producer_can_leave(&self, from_node: NodeId, window: Interval) -> bool {
        self.ctx.grid.incident_edges(from_node).iter().any(|&port| {
            self.state.reservations.edge_free(port, window)
                && self
                    .state
                    .reservations
                    .node_free(self.ctx.grid.other_endpoint(port, from_node), window)
        })
    }

    /// Dynamic price of a cache-segment candidate for the given storage
    /// horizon: `None` when the segment is reserved anywhere in the horizon
    /// or a guard rejects it, otherwise the used/new price plus the
    /// cache-neighbour occupancy penalty.
    fn price_segment(
        &self,
        edge: GridEdgeId,
        horizon: &StoreHorizon,
        to_node: NodeId,
    ) -> Option<u64> {
        // O(1) fast path: a segment that currently caches a sample is
        // reserved for that sample's whole horizon; no calendar search
        // needed to reject it.
        if let Some(info) = self.state.active_caches[edge.index()] {
            if info.reserved.overlaps(&horizon.blocked) {
                return None;
            }
        }
        let r = &self.state.reservations;
        if !(r.edge_free(edge, horizon.store_window)
            && r.edge_free(edge, horizon.storage)
            && r.edge_free(edge, horizon.planned_fetch))
        {
            return None;
        }
        if self.ctx.scale_mode
            && (!self.egress_stays_open(edge, horizon.planned_fetch, to_node)
                || self.strangles_cached_neighbor(edge, horizon.blocked)
                || self.starves_device_ports(edge, horizon.blocked))
        {
            return None;
        }
        let base = if self.state.used_edges.contains(edge) {
            self.ctx.options.used_edge_cost
        } else {
            self.ctx.options.new_edge_cost
        };
        if !self.ctx.scale_mode {
            return Some(base);
        }
        Some(
            base + self.ctx.options.cache_neighbor_penalty
                * self.caching_neighbors(edge, horizon.blocked),
        )
    }

    /// Number of incident segments (at either endpoint) that cache a sample
    /// while `span` is blocked — the occupancy term of the store score.
    fn caching_neighbors(&self, edge: GridEdgeId, span: Interval) -> u64 {
        let (x, y) = self.ctx.grid.endpoints(edge);
        let mut count = 0;
        for node in [x, y] {
            for &neighbor in self.ctx.grid.incident_edges(node) {
                if neighbor == edge {
                    continue;
                }
                if let Some(info) = self.state.active_caches[neighbor.index()] {
                    if info.blocked.overlaps(&span) {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    /// Whether a sample cached in `edge` could still leave towards
    /// `to_node` during its planned fetch window: at least one incident
    /// segment at one end must be free for the fetch to depart through.
    /// Edges leading into a foreign device do not count — a fetch path may
    /// only enter its own consumer. Without this guard a distance-greedy
    /// store can pick a spot that is already walled in by longer-lived
    /// caches, and the zero-slack fetch later fails.
    fn egress_stays_open(&self, edge: GridEdgeId, fetch_window: Interval, to_node: NodeId) -> bool {
        let (x, y) = self.ctx.grid.endpoints(edge);
        [x, y].into_iter().any(|node| {
            self.device_at(node).is_none()
                && self.ctx.grid.incident_edges(node).iter().any(|&out| {
                    if out == edge {
                        return false;
                    }
                    let z = self.ctx.grid.other_endpoint(out, node);
                    (self.device_at(z).is_none() || z == to_node)
                        && self.state.reservations.edge_free(out, fetch_window)
                })
        })
    }

    /// Whether caching on `edge` would leave a device with too few
    /// cache-free port edges during the blocked span. Every transport of a
    /// device flows through its handful of ports; parking samples on them
    /// until fewer than two remain (one, on low-degree grid corners)
    /// guarantees that some zero-slack arrival or departure finds every
    /// port occupied.
    fn starves_device_ports(&self, edge: GridEdgeId, blocked: Interval) -> bool {
        let (x, y) = self.ctx.grid.endpoints(edge);
        for node in [x, y] {
            if self.device_at(node).is_none() {
                continue;
            }
            let ports = self.ctx.grid.incident_edges(node);
            let required = ports.len().saturating_sub(1).min(2);
            let cache_free = ports
                .iter()
                .filter(|&&port| {
                    port != edge
                        && self.state.active_caches[port.index()]
                            .is_none_or(|info| !info.blocked.overlaps(&blocked))
                })
                .count();
            if cache_free < required {
                return true;
            }
        }
        false
    }

    /// Whether claiming `edge` for `blocked` would take the **last** free
    /// egress segment of a neighbouring cached sample during its planned
    /// fetch window. Placing such a store would strand the neighbour, so the
    /// candidate is rejected up front.
    fn strangles_cached_neighbor(&self, edge: GridEdgeId, blocked: Interval) -> bool {
        let (x, y) = self.ctx.grid.endpoints(edge);
        for node in [x, y] {
            for &neighbor in self.ctx.grid.incident_edges(node) {
                if neighbor == edge {
                    continue;
                }
                let Some(info) = self.state.active_caches[neighbor.index()] else {
                    continue;
                };
                if !info.fetch_window.overlaps(&blocked) {
                    continue;
                }
                let (nx, ny) = self.ctx.grid.endpoints(neighbor);
                let still_escapes = [nx, ny].into_iter().any(|end| {
                    self.device_at(end).is_none()
                        && self.ctx.grid.incident_edges(end).iter().any(|&out| {
                            out != neighbor
                                && out != edge
                                // The neighbour's consumer is unknown here;
                                // conservatively require a non-device escape.
                                && self
                                    .device_at(self.ctx.grid.other_endpoint(out, end))
                                    .is_none()
                                && self.state.reservations.edge_free(out, info.fetch_window)
                        })
                });
                if !still_escapes {
                    return true;
                }
            }
        }
        false
    }

    /// Read-only probe of one store claim: can the sample be routed from the
    /// producer into `edge` for this horizon? Returns the approach path
    /// (cache segment appended) and the chosen exit node; the commit is the
    /// driver's.
    fn find_cache_entry(
        &self,
        from: NodeId,
        edge: GridEdgeId,
        horizon: &StoreHorizon,
        scratch: &mut DijkstraScratch,
        stats: &mut RouterStats,
    ) -> Option<(RoutedPath, NodeId)> {
        let store_window = horizon.store_window;
        let (x, y) = self.ctx.grid.endpoints(edge);
        scratch.calendar_context(store_window, self.state.generation);
        // Try entering the segment from either endpoint.
        for (entry, exit) in [(x, y), (y, x)] {
            // The sample slides into the segment towards `exit`, so the far
            // end must be a free switch node; the entry may be a device node
            // only if it is the producer itself.
            if self.device_at(exit).is_some()
                || !scratch.node_free_memo(exit, || {
                    self.state.reservations.node_free(exit, store_window)
                })
            {
                continue;
            }
            if self.device_at(entry).is_some() && entry != from {
                continue;
            }
            let Some(mut path) =
                self.shortest_path(from, entry, store_window, Some(edge), scratch, stats)
            else {
                continue;
            };
            path.nodes.push(exit);
            path.edges.push(edge);
            return Some((path, exit));
        }
        None
    }

    /// Read-only probe of one fetch window: the full path (cache segment
    /// first) from the sample's resting segment to the consumer, leaving
    /// through the recorded exit node first and falling back to the other
    /// end of the segment.
    #[allow(clippy::too_many_arguments)]
    fn find_fetch_path(
        &self,
        to: NodeId,
        cache_edge: GridEdgeId,
        first: NodeId,
        second: NodeId,
        window: Interval,
        scratch: &mut DijkstraScratch,
        stats: &mut RouterStats,
    ) -> Option<RoutedPath> {
        for leave in [first, second] {
            let Some(path) =
                self.shortest_path(leave, to, window, Some(cache_edge), scratch, stats)
            else {
                continue;
            };
            // The sample first traverses its cache segment, then the path.
            let entry = self.ctx.grid.other_endpoint(cache_edge, leave);
            let mut nodes = Vec::with_capacity(path.nodes.len() + 1);
            nodes.push(entry);
            nodes.extend(path.nodes.iter().copied());
            let mut edges = Vec::with_capacity(path.edges.len() + 1);
            edges.push(cache_edge);
            edges.extend(path.edges.iter().copied());
            return Some(RoutedPath {
                nodes,
                edges,
                window,
            });
        }
        None
    }

    /// Dijkstra shortest path from `from` to `to` during `window`, avoiding
    /// reserved edges/nodes and foreign device nodes. `skip_edge` is excluded
    /// from the search (used to keep a cache segment for the sample itself).
    fn shortest_path(
        &self,
        from: NodeId,
        to: NodeId,
        window: Interval,
        skip_edge: Option<GridEdgeId>,
        scratch: &mut DijkstraScratch,
        stats: &mut RouterStats,
    ) -> Option<RoutedPath> {
        stats.path_searches += 1;
        if from == to {
            return Some(RoutedPath {
                nodes: vec![from],
                edges: Vec::new(),
                window,
            });
        }
        scratch.calendar_context(window, self.state.generation);
        let endpoint_blocked = |node: NodeId, scratch: &mut DijkstraScratch| {
            self.device_at(node).is_none()
                && !scratch.node_free_memo(node, || self.state.reservations.node_free(node, window))
        };
        if endpoint_blocked(from, scratch) || endpoint_blocked(to, scratch) {
            return None;
        }

        // Oracle precheck: the search can only succeed if some incident
        // edge of `to` admits the final hop — the edge is not the skipped
        // cache segment, its calendar is free for the window, and its far
        // endpoint is the source itself or an unreserved transit switch.
        // The relax loop below applies exactly these tests when stepping
        // into `to`, so a destination with no admissible last hop is a
        // guaranteed miss: rejecting it here skips the exhaustive failed
        // flood without touching any search that can succeed.
        if self.ctx.assists && self.destination_unenterable(from, to, window, skip_edge, scratch) {
            stats.oracle_rejected_searches += 1;
            return None;
        }

        // On storage-sized grids the search is A*-directed by the Manhattan
        // lower bound (admissible and consistent: every step costs at least
        // the cheaper edge price). Paper-scale grids keep plain Dijkstra so
        // their tie-breaking — and thus their synthesized chips — stay
        // exactly as before the refactor.
        let min_edge_cost = self
            .ctx
            .options
            .used_edge_cost
            .min(self.ctx.options.new_edge_cost);
        let heuristic_on = self.ctx.scale_mode;
        let to_coord = self.ctx.grid.coord(to);
        let bound = |node: NodeId| -> u64 {
            if heuristic_on {
                self.ctx.grid.coord(node).manhattan(to_coord) as u64 * min_edge_cost
            } else {
                0
            }
        };
        // Oracle tightening of that bound: for transit nodes statically
        // walled off from `to`'s component by the device placement, the
        // admissible estimate snaps to ∞ — they are never pushed. Such a
        // node cannot lie on *any* path that reaches `to`, so the path the
        // search settles on (and its tie-breaking) is untouched. With a
        // single transit component the test can never exclude a node, so
        // it is skipped wholesale.
        let target: Option<OracleTarget> = (self.ctx.assists
            && self.ctx.oracle.transit_components() > 1)
            .then(|| self.ctx.oracle.target_of(to));
        let from_is_device = self.device_at(from).is_some();
        let to_is_device = self.device_at(to).is_some();

        scratch.begin();
        scratch.set(from, 0, None);
        let from_bound = bound(from);
        scratch.heap.push(SearchEntry {
            cost: from_bound,
            node: from,
            dist: 0,
        });
        let mut reached = false;

        while let Some(SearchEntry {
            cost: _,
            node,
            dist: cost,
        }) = scratch.heap.pop()
        {
            stats.nodes_expanded += 1;
            if node == to {
                reached = true;
                break;
            }
            if cost > scratch.dist(node) {
                continue;
            }
            for &edge in self.ctx.grid.incident_edges(node) {
                if Some(edge) == skip_edge {
                    continue;
                }
                let next = self.ctx.grid.other_endpoint(edge, node);
                // Device nodes may only be path endpoints.
                if next != to && self.device_at(next).is_some() {
                    continue;
                }
                if let Some(target) = &target {
                    if next != to && !self.ctx.oracle.reaches(next, target) {
                        stats.oracle_tightenings += 1;
                        continue;
                    }
                }
                let edge_admits = scratch
                    .edge_free_memo(edge, || self.state.reservations.edge_free(edge, window));
                if !edge_admits
                    || (self.device_at(next).is_none()
                        && !scratch.node_free_memo(next, || {
                            self.state.reservations.node_free(next, window)
                        }))
                {
                    continue;
                }
                let mut edge_cost = if self.state.used_edges.contains(edge) {
                    self.ctx.options.used_edge_cost
                } else {
                    self.ctx.options.new_edge_cost
                };
                // Keep foreign device ports clear (scale grids): crossing a
                // switch that serves another device's port is priced up so
                // transit traffic does not squat on ports that zero-slack
                // transports will need at exactly their scheduled instant.
                // The flat per-node port count, corrected for the search
                // endpoints, equals walking `adjacent_device_nodes[next]`
                // and counting entries that are neither `from` nor `to`.
                if self.ctx.scale_mode {
                    let mut foreign =
                        u64::from(self.ctx.oracle.adjacent_device_count[next.index()]);
                    if foreign > 0 {
                        if from_is_device && self.ctx.grid.edge_between(next, from).is_some() {
                            foreign -= 1;
                        }
                        if to_is_device && self.ctx.grid.edge_between(next, to).is_some() {
                            foreign -= 1;
                        }
                        edge_cost += foreign * self.ctx.options.foreign_port_penalty;
                    }
                }
                let next_cost = cost + edge_cost;
                if next_cost < scratch.dist(next) {
                    scratch.set(next, next_cost, Some((node, edge)));
                    scratch.heap.push(SearchEntry {
                        cost: next_cost + bound(next),
                        node: next,
                        dist: next_cost,
                    });
                }
            }
        }

        if !reached {
            return None;
        }
        let mut nodes = vec![to];
        let mut edges = Vec::new();
        let mut cursor = to;
        while cursor != from {
            let (parent, edge) = scratch.prev[cursor.index()];
            nodes.push(parent);
            edges.push(edge);
            cursor = parent;
        }
        nodes.reverse();
        edges.reverse();
        Some(RoutedPath {
            nodes,
            edges,
            window,
        })
    }

    /// Exact failure precheck of [`shortest_path`](Eval::shortest_path):
    /// `true` when no incident edge of `to` admits the final hop, i.e. the
    /// search is a guaranteed miss. O(degree) against the calendars.
    fn destination_unenterable(
        &self,
        from: NodeId,
        to: NodeId,
        window: Interval,
        skip_edge: Option<GridEdgeId>,
        scratch: &mut DijkstraScratch,
    ) -> bool {
        !self.ctx.grid.incident_edges(to).iter().any(|&edge| {
            if Some(edge) == skip_edge
                || !scratch.edge_free_memo(edge, || self.state.reservations.edge_free(edge, window))
            {
                return false;
            }
            let hop = self.ctx.grid.other_endpoint(edge, to);
            hop == from
                || (self.device_at(hop).is_none()
                    && scratch
                        .node_free_memo(hop, || self.state.reservations.node_free(hop, window)))
        })
    }

    /// Bounded flood of the transit region the producer can reach during
    /// one store window, under exactly the admission rules of
    /// [`shortest_path`](Eval::shortest_path) (minus any `skip_edge`, which
    /// makes the region a superset for every per-candidate skip — sound for
    /// rejection). Runs once before a window's claim streams, so both
    /// candidate phases prune against the same region.
    ///
    /// `region.complete` is only set when the frontier drained within the
    /// pop budget; otherwise the region is partial and pruning stays off.
    /// The flood touches no [`RouterStats`] — it is oracle bookkeeping,
    /// not path-search work.
    fn flood_claim_region(
        &self,
        from: NodeId,
        window: Interval,
        region: &mut RegionScratch,
        scratch: &mut DijkstraScratch,
    ) {
        scratch.calendar_context(window, self.state.generation);
        region.begin(self.ctx.grid.num_nodes());
        region.mark(from);
        region.queue.push(from);
        let mut cursor = 0;
        let mut pops = 0;
        while cursor < region.queue.len() {
            if pops >= CLAIM_REGION_POPS {
                return;
            }
            pops += 1;
            let node = region.queue[cursor];
            cursor += 1;
            for &edge in self.ctx.grid.incident_edges(node) {
                let next = self.ctx.grid.other_endpoint(edge, node);
                if self.device_at(next).is_some() || region.contains(next) {
                    continue;
                }
                if !scratch.edge_free_memo(edge, || self.state.reservations.edge_free(edge, window))
                    || !scratch
                        .node_free_memo(next, || self.state.reservations.node_free(next, window))
                {
                    continue;
                }
                region.mark(next);
                region.queue.push(next);
            }
        }
        region.complete = true;
    }
}

// ---------------------------------------------------------------------------
// The router: driver, commits, public API
// ---------------------------------------------------------------------------

/// Lazy indexes of the store stage: per-pair candidate lists and their
/// pooled subsets, built on first use and extended as the pool grows.
#[derive(Debug, Default)]
struct LazyIndexes {
    segment_index: SegmentIndex,
    /// Per device pair: how much of the pool log is merged in, and the pool
    /// members sorted by that pair's static score — so the reuse scan walks
    /// candidates best-first and stops early instead of pricing the whole
    /// pool.
    pooled_by_pair: HashMap<(usize, usize), (usize, ScoredEdges)>,
}

impl RouteState {
    /// Reserves every switch node and edge of a path for the window and
    /// records the edges as used. Bumps the state generation, which
    /// invalidates every calendar answer memoized in a [`DijkstraScratch`].
    ///
    /// Device nodes are *not* reserved: several samples may arrive at or
    /// leave the same device in overlapping windows (for example the two
    /// inputs of a mixing operation), entering through different channels.
    /// Channel-level conflicts are still excluded because the edges and
    /// switch nodes of concurrent paths may not overlap.
    fn commit_path(
        &mut self,
        ctx: &RouteCtx<'_>,
        path: &RoutedPath,
        window: Interval,
        deadline: Seconds,
        stats: &mut RouterStats,
    ) {
        self.generation += 1;
        for &node in &path.nodes {
            if ctx.oracle.device_of_node[node.index()].is_some() {
                continue;
            }
            self.reservations.reserve_node(node, window);
        }
        for &edge in &path.edges {
            self.reservations.reserve_edge(edge, window);
            self.used_edges.insert(edge);
        }
        stats.tasks_routed += 1;
        if window.end > deadline {
            stats.postponed_tasks += 1;
        }
    }

    /// Commits a store: the approach path, then the cache segment `edge`
    /// (left through `exit`) blocked for the sample's whole horizon.
    #[allow(clippy::too_many_arguments)]
    fn commit_store(
        &mut self,
        ctx: &RouteCtx<'_>,
        task: &TransportTask,
        edge: GridEdgeId,
        exit: NodeId,
        path: &RoutedPath,
        horizon: &StoreHorizon,
        stats: &mut RouterStats,
    ) {
        self.commit_path(ctx, path, horizon.store_window, task.deadline, stats);
        // Block the segment from the moment the sample arrives until the
        // end of its planned fetch window — plus the allowed postponement,
        // so a delayed fetch still owns the segment while the sample rests
        // past the plan — so no later task can claim the segment for the
        // very instant the sample has to leave it. The segment's end nodes
        // stay passable for other paths (the paper's exception).
        let reserved_until = if ctx.scale_mode {
            horizon.planned_fetch.end + ctx.options.max_deadline_overrun
        } else {
            horizon.planned_fetch.end
        };
        self.reservations
            .reserve_edge(edge, Interval::new(horizon.storage.start, reserved_until));
        self.cache_of_sample.set(task.sample, (edge, exit));
        if self.cache_pool.insert(edge) {
            self.pool_log.push(edge);
        }
        self.active_caches[edge.index()] = Some(CacheInfo {
            blocked: Interval::new(horizon.blocked.start, reserved_until),
            reserved: Interval::new(horizon.storage.start, reserved_until),
            fetch_window: horizon.planned_fetch,
            reserved_until,
        });
    }

    /// Commits a fetch: the path out of `cache_edge`, which stays blocked
    /// while the sample rests in it past the originally planned fetch time.
    fn commit_fetch(
        &mut self,
        ctx: &RouteCtx<'_>,
        task: &TransportTask,
        path: &RoutedPath,
        cache_edge: GridEdgeId,
        reserved_until: Seconds,
        stats: &mut RouterStats,
    ) {
        let window = path.window;
        self.commit_path(ctx, path, window, task.deadline, stats);
        self.reservations.reserve_edge(
            cache_edge,
            Interval::new(reserved_until.min(window.end), window.end),
        );
        self.cache_of_sample.remove(task.sample);
        self.active_caches[cache_edge.index()] = None;
    }
}

/// The error of a direct or fetch transport no candidate window admits.
fn routing_failed(task: &TransportTask) -> ArchError {
    ArchError::RoutingFailed {
        from: task.from_device,
        to: task.to_device,
        task: task.describe(),
    }
}

/// A task's copy carrying the window it was actually routed in.
fn routed_in(task: &TransportTask, window: Interval) -> TransportTask {
    let mut routed = task.clone();
    routed.window_start = window.start;
    routed.window_end = window.end;
    routed
}

/// The per-task routing driver: borrows the router's state, indexes,
/// scratch buffers and stats for one [`Router::route`] call.
struct Driver<'d, 'a> {
    ctx: &'d RouteCtx<'a>,
    state: &'d mut RouteState,
    lazy: &'d mut LazyIndexes,
    scratch: &'d mut DijkstraScratch,
    wscratch: &'d mut WindowScratch,
    stats: &'d mut RouterStats,
}

impl Driver<'_, '_> {
    /// Routes one task, with the per-task postponement escalation: the
    /// first attempt only considers windows inside the task's slack;
    /// overrun windows are tried when — and only when — the task cannot be
    /// routed on time.
    fn route_task(&mut self, task: &TransportTask) -> Result<RoutedTransport, ArchError> {
        match self.attempt(task, false) {
            Ok(routed) => Ok(routed),
            Err(_) if self.ctx.options.max_deadline_overrun > 0 => self.attempt(task, true),
            Err(e) => Err(e),
        }
    }

    fn attempt(
        &mut self,
        task: &TransportTask,
        allow_overrun: bool,
    ) -> Result<RoutedTransport, ArchError> {
        match task.kind {
            TransportKind::Direct => self.drive_direct(task, allow_overrun),
            TransportKind::Store => self.drive_store(task, allow_overrun),
            TransportKind::Fetch => self.drive_fetch(task, allow_overrun),
        }
    }

    /// Builds the candidate-window list into the reusable output buffer
    /// (taken out of the scratch; the caller puts it back after the drive).
    fn collect_windows(&mut self, task: &TransportTask, allow_overrun: bool) -> Vec<Interval> {
        let _span = telemetry::span("router", "route.window_select");
        let mut out = std::mem::take(&mut self.wscratch.out);
        let eval = Eval {
            ctx: self.ctx,
            state: self.state,
        };
        eval.candidate_windows(task, allow_overrun, self.wscratch, &mut out);
        out
    }

    // -----------------------------------------------------------------
    // Direct transports
    // -----------------------------------------------------------------

    fn drive_direct(
        &mut self,
        task: &TransportTask,
        allow_overrun: bool,
    ) -> Result<RoutedTransport, ArchError> {
        let from = self.ctx.placement.node_of(task.from_device);
        let to = self.ctx.placement.node_of(task.to_device);
        let windows = self.collect_windows(task, allow_overrun);
        let mut found = None;
        for &window in &windows {
            let _span = telemetry::span("router", "route.path_search");
            self.stats.windows_tried += 1;
            let eval = Eval {
                ctx: self.ctx,
                state: self.state,
            };
            found = eval.shortest_path(from, to, window, None, self.scratch, self.stats);
            if found.is_some() {
                break;
            }
        }
        self.wscratch.out = windows;
        let path = found.ok_or_else(|| routing_failed(task))?;
        let _span = telemetry::span("router", "route.commit");
        self.state
            .commit_path(self.ctx, &path, path.window, task.deadline, self.stats);
        Ok(RoutedTransport {
            task: routed_in(task, path.window),
            path,
            cache_edge: None,
        })
    }

    // -----------------------------------------------------------------
    // Store transports
    // -----------------------------------------------------------------

    /// Routes a store task: producer device → a free channel segment that
    /// will cache the sample.
    ///
    /// Segment selection is **pool-first**: segments that have cached a
    /// sample before (the cache pool) are tried ahead of fresh segments, in
    /// ascending score order. This is first-fit interval assignment — the
    /// number of distinct cache segments stays close to the schedule's peak
    /// concurrent storage instead of growing with the store count. Fresh
    /// segments (via the distance-sorted
    /// [`SegmentIndex`](crate::segment_index)) only join the pool when no
    /// pooled segment is free for the sample's whole storage horizon.
    fn drive_store(
        &mut self,
        task: &TransportTask,
        allow_overrun: bool,
    ) -> Result<RoutedTransport, ArchError> {
        let stored_until = task
            .storage_interval
            .map(|(_, until)| until)
            .unwrap_or(task.deadline);
        let pair_index = self.lazy.segment_index.pair_index(
            self.ctx.grid,
            self.ctx.placement,
            task.from_device,
            task.to_device,
            self.ctx.options.allow_device_adjacent_storage,
        );
        let windows = self.collect_windows(task, allow_overrun);
        let mut region = std::mem::take(&mut self.wscratch.region);
        let result =
            self.drive_store_windows(task, &windows, stored_until, &pair_index, &mut region);
        self.wscratch.region = region;
        self.wscratch.out = windows;
        result
    }

    fn drive_store_windows(
        &mut self,
        task: &TransportTask,
        windows: &[Interval],
        stored_until: Seconds,
        pair_index: &PairIndex,
        region: &mut RegionScratch,
    ) -> Result<RoutedTransport, ArchError> {
        let to_node = self.ctx.placement.node_of(task.to_device);
        let from_node = self.ctx.placement.node_of(task.from_device);
        for &store_window in windows {
            if store_window.end > stored_until {
                // The sample must be resting in its segment before the fetch
                // departs; postponing the store past that point is useless.
                continue;
            }
            let eval = Eval {
                ctx: self.ctx,
                state: self.state,
            };
            if !eval.producer_can_leave(from_node, store_window) {
                continue;
            }
            self.stats.windows_tried += 1;
            let horizon = StoreHorizon::new(task, store_window, stored_until);

            // Oracle early-reject for this window's claim stream: map the
            // transit region the producer can actually reach (bounded
            // flood) once, shared by both candidate phases — no commit
            // happens between them, so the state is the same.
            region.complete = false;
            if self.ctx.assists {
                eval.flood_claim_region(from_node, store_window, region, self.scratch);
            }

            // Phase 1 (scale grids only): reuse a pooled segment, cheapest
            // total score first. Phase 2: bring a fresh segment into the
            // pool.
            let mut claim = None;
            if self.ctx.scale_mode {
                let pooled = self.pooled_list(task, pair_index);
                claim = self.drive_candidates(from_node, to_node, &horizon, pooled, false, region);
            }
            if claim.is_none() {
                let fresh = Rc::clone(&pair_index.sorted);
                claim = self.drive_candidates(from_node, to_node, &horizon, fresh, true, region);
            }
            if let Some((edge, exit, path)) = claim {
                let _span = telemetry::span("router", "route.commit");
                self.state
                    .commit_store(self.ctx, task, edge, exit, &path, &horizon, self.stats);
                let mut routed_task = routed_in(task, store_window);
                routed_task.storage_interval = Some((horizon.storage.start, horizon.storage.end));
                return Ok(RoutedTransport {
                    task: routed_task,
                    path,
                    cache_edge: Some(edge),
                });
            }
        }
        Err(ArchError::NoStorageSegment {
            task: task.describe(),
        })
    }

    /// Walks one candidate stream in exact `(static + dynamic, edge id)`
    /// order, probing the claim of each available segment in turn, and
    /// returns the first claimable one with its exit node and approach
    /// path. Every segment the lazy merge priced counts towards
    /// `segments_priced`.
    fn drive_candidates(
        &mut self,
        from: NodeId,
        to_node: NodeId,
        horizon: &StoreHorizon,
        list: ScoredEdges,
        skip_pool: bool,
        region: &RegionScratch,
    ) -> Option<(GridEdgeId, NodeId, RoutedPath)> {
        if list.is_empty() {
            return None;
        }
        // Store-side path search: segment pricing plus cache-entry claims.
        let _span = telemetry::span("router", "route.path_search");
        let skip_pool = skip_pool && self.ctx.scale_mode;
        let min_price = self
            .ctx
            .options
            .used_edge_cost
            .min(self.ctx.options.new_edge_cost);
        let eval = Eval {
            ctx: self.ctx,
            state: self.state,
        };
        let mut merge = OrderedCandidates::new(list, min_price);
        let claim = loop {
            let next = merge.next_available(|edge| {
                if skip_pool && eval.state.cache_pool.contains(&edge) {
                    None // already tried in phase 1
                } else {
                    eval.price_segment(edge, horizon, to_node)
                }
            });
            let Some(edge) = next else { break None };
            // Oracle pruning: a candidate whose endpoints are both outside
            // the producer's (exact) reachable region is a guaranteed claim
            // miss — the entry probe is a shortest path from the producer,
            // and the flood used the same admission rules. Only the probe
            // is skipped; the merge already priced the candidate, so the
            // winner and `segments_priced` are untouched.
            if region.complete {
                let (x, y) = self.ctx.grid.endpoints(edge);
                if !region.contains(x) && !region.contains(y) {
                    self.stats.oracle_pruned_candidates += 1;
                    continue;
                }
            }
            if let Some((path, exit)) =
                eval.find_cache_entry(from, edge, horizon, self.scratch, self.stats)
            {
                break Some((edge, exit, path));
            }
        };
        self.stats.segments_priced += merge.priced();
        claim
    }

    /// The pool members usable for this task's device pair, sorted by the
    /// pair's static score; newly pooled segments are merged in on demand.
    fn pooled_list(&mut self, task: &TransportTask, pair: &PairIndex) -> ScoredEdges {
        let key = (task.from_device.index(), task.to_device.index());
        let entry = self
            .lazy
            .pooled_by_pair
            .entry(key)
            .or_insert_with(|| (0, Vec::new().into()));
        let pool_log = &self.state.pool_log;
        if entry.0 < pool_log.len() {
            let mut merged: Vec<(u64, GridEdgeId)> = entry.1.to_vec();
            for &edge in &pool_log[entry.0..] {
                if let Some(score) = pair.score_of[edge.index()] {
                    let item = (score, edge);
                    let pos = merged.partition_point(|&x| x < item);
                    merged.insert(pos, item);
                }
            }
            entry.0 = pool_log.len();
            entry.1 = merged.into();
        }
        Rc::clone(&entry.1)
    }

    // -----------------------------------------------------------------
    // Fetch transports
    // -----------------------------------------------------------------

    /// Routes a fetch task: the sample's cache segment → consumer device.
    fn drive_fetch(
        &mut self,
        task: &TransportTask,
        allow_overrun: bool,
    ) -> Result<RoutedTransport, ArchError> {
        let to = self.ctx.placement.node_of(task.to_device);
        let Some((cache_edge, exit)) = self.state.cache_of_sample.get(task.sample) else {
            return Err(ArchError::Inconsistent {
                reason: format!("fetch of sample {} before it was stored", task.sample),
            });
        };
        let reserved_until = self.state.active_caches[cache_edge.index()]
            .map_or(task.window_end, |info| info.reserved_until);
        let other = self.ctx.grid.other_endpoint(cache_edge, exit);

        let windows = self.collect_windows(task, allow_overrun);
        let mut found = None;
        for &window in &windows {
            // The cache segment is already reserved for the sample through
            // the end of its planned fetch window plus the postponement
            // guard. When the fetch is postponed beyond that reservation,
            // the segment must additionally stay free (the sample keeps
            // resting in it) until the actual departure completes. Windows
            // failing that are skipped without being counted.
            let beyond_plan = Interval::new(reserved_until.min(window.end), window.end);
            if !self.state.reservations.edge_free(cache_edge, beyond_plan) {
                continue;
            }
            let _span = telemetry::span("router", "route.path_search");
            self.stats.windows_tried += 1;
            let eval = Eval {
                ctx: self.ctx,
                state: self.state,
            };
            found = eval.find_fetch_path(
                to,
                cache_edge,
                exit,
                other,
                window,
                self.scratch,
                self.stats,
            );
            if found.is_some() {
                break;
            }
        }
        self.wscratch.out = windows;
        let path = found.ok_or_else(|| routing_failed(task))?;
        let _span = telemetry::span("router", "route.commit");
        self.state.commit_fetch(
            self.ctx,
            task,
            &path,
            cache_edge,
            reserved_until,
            self.stats,
        );
        Ok(RoutedTransport {
            task: routed_in(task, path.window),
            path,
            cache_edge: Some(cache_edge),
        })
    }
}

/// The incremental routing engine.
///
/// Tasks must be routed in the order returned by
/// [`extract_transport_tasks`](crate::extract_transport_tasks) (ascending
/// window start); each successful route immediately reserves its resources.
/// Routing is sequential: the commit order is the task order and, within a
/// task, the first feasible candidate by candidate order wins.
#[derive(Debug)]
pub struct Router<'a> {
    ctx: RouteCtx<'a>,
    state: RouteState,
    lazy: LazyIndexes,
    scratch: DijkstraScratch,
    wscratch: WindowScratch,
    stats: RouterStats,
}

impl<'a> Router<'a> {
    /// Creates a router over the given grid and placement, building its own
    /// [`RoutingOracle`]. Prefer [`with_oracle`](Router::with_oracle) when a
    /// prebuilt (cached) oracle for the same architecture exists.
    #[must_use]
    pub fn new(
        grid: &'a ConnectionGrid,
        placement: &'a Placement,
        options: RoutingOptions,
    ) -> Self {
        let oracle = Arc::new(RoutingOracle::build(grid, placement));
        let mut router = Router::with_oracle(grid, placement, options, oracle);
        router.stats.oracle_builds = 1;
        router
    }

    /// Creates a router adopting a prebuilt per-architecture oracle —
    /// typically shared through an [`OracleCache`](crate::OracleCache), so
    /// the strict and relaxed routing passes, warm restarts and concurrent
    /// jobs on the same architecture all amortize one build.
    ///
    /// # Panics
    ///
    /// Panics when the oracle was built for a different grid shape or
    /// device count.
    #[must_use]
    pub fn with_oracle(
        grid: &'a ConnectionGrid,
        placement: &'a Placement,
        options: RoutingOptions,
        oracle: Arc<RoutingOracle>,
    ) -> Self {
        assert!(
            oracle.matches(grid, placement),
            "routing oracle was built for a different architecture"
        );
        let scale_mode = grid.rows().max(grid.cols()) >= crate::segment_index::SCALE_GRID_SIDE;
        Router {
            ctx: RouteCtx {
                grid,
                placement,
                options,
                oracle,
                assists: scale_mode,
                scale_mode,
            },
            state: RouteState::new(grid),
            lazy: LazyIndexes::default(),
            scratch: DijkstraScratch::for_grid(grid),
            wscratch: WindowScratch::default(),
            stats: RouterStats::default(),
        }
    }

    /// Arms or disarms the oracle's reject-only search assists (destination
    /// precheck, h = ∞ tightening, claim-region pruning). The routed chips
    /// are identical either way — the assists only skip guaranteed-miss
    /// work — and this switch exists so tests can prove exactly that.
    /// Assists never engage on paper-scale grids regardless.
    #[must_use]
    pub fn with_oracle_assists(mut self, enabled: bool) -> Self {
        self.ctx.assists = enabled && self.ctx.scale_mode;
        self
    }

    /// Records that this router's oracle was built on its behalf (by a
    /// cache miss) rather than adopted prebuilt.
    pub(crate) fn note_oracle_build(&mut self) {
        self.stats.oracle_builds += 1;
    }

    /// A pristine router over the same grid, placement, options and oracle
    /// — used to restart cold after a failed warm-start replay, since a
    /// partial replay has already mutated this router's reservations. The
    /// oracle `Arc` is carried over, not rebuilt.
    #[must_use]
    pub fn fresh(&self) -> Router<'a> {
        Router::with_oracle(
            self.ctx.grid,
            self.ctx.placement,
            self.ctx.options.clone(),
            Arc::clone(&self.ctx.oracle),
        )
        .with_oracle_assists(self.ctx.assists)
    }

    /// Edges used by at least one routed path so far, in ascending id order.
    #[must_use]
    pub fn used_edges(&self) -> Vec<GridEdgeId> {
        self.state.used_edges.to_vec()
    }

    /// Number of distinct edges used by the routed paths so far.
    #[must_use]
    pub fn used_edge_count(&self) -> usize {
        self.state.used_edges.len()
    }

    /// The reservation table built up so far.
    #[must_use]
    pub fn reservations(&mut self) -> &ReservationTable {
        self.state.generation += 1;
        &self.state.reservations
    }

    /// The per-stage work counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Routes one transportation task through the staged pipeline, reserving
    /// its resources.
    ///
    /// The returned [`RoutedTransport`] carries the task with its *actual*
    /// window (which may have been shifted inside the task's slack) and, for
    /// store tasks, the chosen cache segment and updated storage interval.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::RoutingFailed`] when no conflict-free path exists
    /// inside the task's slack and [`ArchError::NoStorageSegment`] when no
    /// channel segment can cache the sample for its storage interval.
    pub fn route(&mut self, task: &TransportTask) -> Result<RoutedTransport, ArchError> {
        Driver {
            ctx: &self.ctx,
            state: &mut self.state,
            lazy: &mut self.lazy,
            scratch: &mut self.scratch,
            wscratch: &mut self.wscratch,
            stats: &mut self.stats,
        }
        .route_task(task)
    }

    /// Re-commits a transport that an earlier run of this deterministic
    /// router produced — same grid, placement and options — without any
    /// window selection or path search.
    ///
    /// The committed router state after task *i* is a pure function of
    /// tasks `0..=i` (given grid, placement and options), so replaying the
    /// prior [`RoutedTransport`]s of an unchanged task prefix reproduces
    /// the cold router state **byte-identically** while skipping the search
    /// that dominates synthesis time. This is the warm-start fast path of
    /// the edit loop: replay the common prefix, route only the edited
    /// suffix cold. `windows_tried`/`path_searches`/`nodes_expanded`/
    /// `segments_priced` are not advanced (no search ran); `tasks_routed`
    /// and `postponed_tasks` are, exactly as the cold commit would.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::Inconsistent`] when `routed` does not belong to
    /// `task` (mismatched endpoints, kind or sample) or its payload is
    /// malformed (a store without a cache edge, a fetch of a sample that is
    /// not cached). Callers fall back to cold routing on error.
    pub fn replay(
        &mut self,
        task: &TransportTask,
        routed: &RoutedTransport,
    ) -> Result<(), ArchError> {
        let _span = telemetry::span("router", "route.replay_commit");
        if routed.task.kind != task.kind
            || routed.task.sample != task.sample
            || routed.task.from_device != task.from_device
            || routed.task.to_device != task.to_device
        {
            return Err(ArchError::Inconsistent {
                reason: format!(
                    "replayed transport does not match task (sample {}, kind {:?})",
                    task.sample, task.kind
                ),
            });
        }
        let ctx = &self.ctx;
        let stats = &mut self.stats;
        let st = &mut self.state;
        let path = &routed.path;
        match task.kind {
            TransportKind::Direct => {
                st.commit_path(ctx, path, path.window, task.deadline, stats);
            }
            TransportKind::Store => {
                let edge = routed.cache_edge.ok_or_else(|| ArchError::Inconsistent {
                    reason: format!("replayed store of sample {} has no cache edge", task.sample),
                })?;
                // The store path ends in the segment's exit node (pushed by
                // the cache-entry search after the path into the segment).
                let &exit = path.nodes.last().ok_or_else(|| ArchError::Inconsistent {
                    reason: format!("replayed store of sample {} has an empty path", task.sample),
                })?;
                // Rebuild the storage horizon from the *original* task — the
                // routed copy's window and storage fields were overwritten at
                // commit time, but the horizon derives from the task's
                // scheduled fetch-window length.
                let stored_until = task
                    .storage_interval
                    .map(|(_, until)| until)
                    .unwrap_or(task.deadline);
                let horizon = StoreHorizon::new(task, path.window, stored_until);
                st.commit_store(ctx, task, edge, exit, path, &horizon, stats);
            }
            TransportKind::Fetch => {
                let edge = routed.cache_edge.ok_or_else(|| ArchError::Inconsistent {
                    reason: format!("replayed fetch of sample {} has no cache edge", task.sample),
                })?;
                let Some((cached_edge, _exit)) = st.cache_of_sample.get(task.sample) else {
                    return Err(ArchError::Inconsistent {
                        reason: format!(
                            "replayed fetch of sample {} before it was stored",
                            task.sample
                        ),
                    });
                };
                if cached_edge != edge {
                    return Err(ArchError::Inconsistent {
                        reason: format!(
                            "replayed fetch of sample {} names segment {edge} but it rests in {cached_edge}",
                            task.sample
                        ),
                    });
                }
                let reserved_until = st.active_caches[edge.index()]
                    .map_or(task.window_end, |info| info.reserved_until);
                st.commit_fetch(ctx, task, path, edge, reserved_until, stats);
            }
        }
        Ok(())
    }

    /// Routes every task in order — the `for task { route(task) }` loop —
    /// and records the accumulated [`RouterStats`] as a trace point event.
    ///
    /// # Errors
    ///
    /// Propagates the first routing failure.
    pub fn route_all(
        &mut self,
        tasks: &[TransportTask],
    ) -> Result<Vec<RoutedTransport>, ArchError> {
        let result = tasks.iter().map(|t| self.route(t)).collect();
        // Fold the per-stage work counters into the trace as a point event;
        // telemetry only observes the (deterministic) stats, never feeds
        // anything back.
        telemetry::instant(
            "router",
            "router.stats",
            &[
                ("tasks_routed", self.stats.tasks_routed as u64),
                ("windows_tried", self.stats.windows_tried as u64),
                ("path_searches", self.stats.path_searches as u64),
                ("nodes_expanded", self.stats.nodes_expanded as u64),
                ("segments_priced", self.stats.segments_priced as u64),
                ("postponed_tasks", self.stats.postponed_tasks as u64),
                ("oracle_builds", self.stats.oracle_builds as u64),
                (
                    "oracle_rejected_searches",
                    self.stats.oracle_rejected_searches as u64,
                ),
                ("oracle_tightenings", self.stats.oracle_tightenings as u64),
                (
                    "oracle_pruned_candidates",
                    self.stats.oracle_pruned_candidates as u64,
                ),
            ],
        );
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{place_devices, PlacementOptions};
    use biochip_assay::OpId;
    use biochip_schedule::DeviceId;

    fn make_placement(grid: &ConnectionGrid, devices: usize) -> Placement {
        place_devices(grid, devices, &[], &PlacementOptions::default()).unwrap()
    }

    /// Test-only window-stage probe (the stage is driver-internal).
    fn windows_of(
        router: &mut Router<'_>,
        task: &TransportTask,
        allow_overrun: bool,
    ) -> Vec<Interval> {
        let mut out = Vec::new();
        let mut ws = WindowScratch::default();
        let eval = Eval {
            ctx: &router.ctx,
            state: &router.state,
        };
        eval.candidate_windows(task, allow_overrun, &mut ws, &mut out);
        out
    }

    fn direct_task(from: usize, to: usize, start: u64, end: u64) -> TransportTask {
        TransportTask {
            sample: 99,
            producer: OpId(0),
            consumer: OpId(1),
            from_device: DeviceId(from),
            to_device: DeviceId(to),
            kind: TransportKind::Direct,
            window_start: start,
            window_end: end,
            storage_interval: None,
            earliest_start: start,
            deadline: end,
        }
    }

    fn store_task(sample: usize, from: usize, to: usize) -> TransportTask {
        TransportTask {
            sample,
            producer: OpId(0),
            consumer: OpId(1),
            from_device: DeviceId(from),
            to_device: DeviceId(to),
            kind: TransportKind::Store,
            window_start: 10,
            window_end: 15,
            storage_interval: Some((15, 55)),
            earliest_start: 10,
            deadline: 30,
        }
    }

    fn fetch_task(sample: usize, from: usize, to: usize) -> TransportTask {
        TransportTask {
            sample,
            producer: OpId(0),
            consumer: OpId(1),
            from_device: DeviceId(from),
            to_device: DeviceId(to),
            kind: TransportKind::Fetch,
            window_start: 55,
            window_end: 60,
            storage_interval: None,
            earliest_start: 55,
            deadline: 60,
        }
    }

    #[test]
    fn direct_path_connects_the_two_devices() {
        let grid = ConnectionGrid::square(4);
        let placement = make_placement(&grid, 2);
        let mut router = Router::new(&grid, &placement, RoutingOptions::default());
        let routed = router.route(&direct_task(0, 1, 0, 5)).unwrap();
        assert!(routed.cache_edge.is_none());
        assert_eq!(
            routed.path.nodes.first().copied(),
            Some(placement.node_of(DeviceId(0)))
        );
        assert_eq!(
            routed.path.nodes.last().copied(),
            Some(placement.node_of(DeviceId(1)))
        );
        assert_eq!(routed.path.edges.len(), routed.path.nodes.len() - 1);
        assert!(!router.used_edges().is_empty());
    }

    #[test]
    fn overlapping_paths_do_not_share_resources() {
        let grid = ConnectionGrid::square(4);
        let placement = make_placement(&grid, 3);
        let mut router = Router::new(&grid, &placement, RoutingOptions::default());
        let r1 = router.route(&direct_task(0, 1, 0, 5)).unwrap();
        let r2 = router.route(&direct_task(2, 1, 0, 5)).unwrap();
        // Both may end at the same destination device, but when their actual
        // windows overlap they share no edge and no switch node.
        if r1.path.window.overlaps(&r2.path.window) {
            for e in &r1.path.edges {
                assert!(
                    !r2.path.edges.contains(e),
                    "edge {e} shared by concurrent paths"
                );
            }
            let interior1: Vec<NodeId> = r1.path.nodes[1..r1.path.nodes.len() - 1].to_vec();
            for n in &r2.path.nodes[1..r2.path.nodes.len() - 1] {
                assert!(
                    !interior1.contains(n),
                    "switch {n} shared by concurrent paths"
                );
            }
        }
    }

    #[test]
    fn sequential_paths_may_reuse_edges() {
        let grid = ConnectionGrid::square(4);
        let placement = make_placement(&grid, 2);
        let mut router = Router::new(&grid, &placement, RoutingOptions::default());
        let r1 = router.route(&direct_task(0, 1, 0, 5)).unwrap();
        let r2 = router.route(&direct_task(0, 1, 10, 15)).unwrap();
        // With used-edge pricing the second path reuses the first one's edges.
        assert_eq!(r1.path.edges, r2.path.edges);
        assert_eq!(router.used_edges().len(), r1.path.edges.len());
    }

    #[test]
    fn congested_window_is_staggered_inside_the_slack() {
        // Two samples leave device 0 towards device 1 in the same preferred
        // window; the second transport has slack until t = 20 and is shifted
        // instead of failing.
        let grid = ConnectionGrid::square(3);
        let placement = make_placement(&grid, 2);
        let mut router = Router::new(&grid, &placement, RoutingOptions::default());
        let first = router.route(&direct_task(0, 1, 0, 5)).unwrap();
        let mut second = direct_task(0, 1, 0, 5);
        second.deadline = 20;
        let second = router.route(&second).unwrap();
        if second.path.edges == first.path.edges {
            assert!(
                !second.path.window.overlaps(&first.path.window),
                "same segments may only be reused in a later window"
            );
        }
    }

    #[test]
    fn store_then_fetch_uses_the_same_cache_segment() {
        let grid = ConnectionGrid::square(4);
        let placement = make_placement(&grid, 2);
        let mut router = Router::new(&grid, &placement, RoutingOptions::default());
        let stored = router.route(&store_task(3, 0, 1)).unwrap();
        let cache = stored.cache_edge.expect("store chooses a cache segment");
        assert_eq!(stored.path.edges.last().copied(), Some(cache));
        // The segment is blocked during the storage interval.
        let (from, until) = stored.task.storage_interval.unwrap();
        assert!(until > from);
        assert!(!router
            .reservations()
            .edge_free(cache, Interval::new(from + 1, from + 2)));
        let fetched = router.route(&fetch_task(3, 0, 1)).unwrap();
        assert_eq!(fetched.cache_edge, Some(cache));
        assert_eq!(fetched.path.edges.first().copied(), Some(cache));
        assert_eq!(
            fetched.path.nodes.last().copied(),
            Some(placement.node_of(DeviceId(1)))
        );
    }

    #[test]
    fn fetch_before_store_is_an_error() {
        let grid = ConnectionGrid::square(4);
        let placement = make_placement(&grid, 2);
        let mut router = Router::new(&grid, &placement, RoutingOptions::default());
        let err = router.route(&fetch_task(7, 0, 1)).unwrap_err();
        assert!(matches!(err, ArchError::Inconsistent { .. }));
    }

    #[test]
    fn stored_segment_is_not_used_by_other_paths() {
        let grid = ConnectionGrid::square(4);
        let placement = make_placement(&grid, 2);
        let mut router = Router::new(&grid, &placement, RoutingOptions::default());
        let stored = router.route(&store_task(0, 0, 1)).unwrap();
        let cache = stored.cache_edge.unwrap();
        // A direct transport during the storage interval must avoid the
        // cached segment.
        let routed = router.route(&direct_task(0, 1, 20, 25)).unwrap();
        assert!(!routed.path.edges.contains(&cache));
    }

    #[test]
    fn routing_on_a_congested_tiny_grid_fails_gracefully() {
        // 1x2 grid: a single edge between two devices; two concurrent
        // transports with zero slack cannot both be routed.
        let grid = ConnectionGrid::new(1, 2);
        let placement = make_placement(&grid, 2);
        let mut router = Router::new(&grid, &placement, RoutingOptions::default());
        router.route(&direct_task(0, 1, 0, 5)).unwrap();
        let err = router.route(&direct_task(1, 0, 0, 5)).unwrap_err();
        assert!(matches!(err, ArchError::RoutingFailed { .. }));
    }

    #[test]
    fn paths_do_not_cross_foreign_devices() {
        let grid = ConnectionGrid::new(1, 5);
        // Three devices on a line: 0 at one end, 1 at the other, 2 between
        // them. Any path 0 -> 1 would have to cross device 2: impossible.
        let placement = Placement::from_nodes(vec![NodeId(0), NodeId(4), NodeId(2)]);
        let mut router = Router::new(&grid, &placement, RoutingOptions::default());
        let err = router.route(&direct_task(0, 1, 0, 5)).unwrap_err();
        assert!(matches!(err, ArchError::RoutingFailed { .. }));
        // 0 -> 2 (the middle device) is fine: it is the path's endpoint.
        router.route(&direct_task(0, 2, 10, 15)).unwrap();
    }

    #[test]
    fn candidate_windows_start_with_the_preferred_one() {
        let grid = ConnectionGrid::square(3);
        let placement = make_placement(&grid, 2);
        let mut router = Router::new(&grid, &placement, RoutingOptions::default());
        let mut task = direct_task(0, 1, 10, 15);
        task.earliest_start = 0;
        task.deadline = 40;
        let windows = windows_of(&mut router, &task, false);
        assert_eq!(windows[0], Interval::new(10, 15));
        assert!(windows.len() > 1);
        for w in &windows {
            assert!(w.end <= 40 + 5);
            assert_eq!(w.len(), 5);
        }
        // No slack: only the preferred window.
        let tight = direct_task(0, 1, 10, 15);
        assert_eq!(
            windows_of(&mut router, &tight, false),
            vec![Interval::new(10, 15)]
        );
    }

    #[test]
    fn candidate_windows_jump_past_known_congestion() {
        // The port edges of both devices are reserved for [0, 23); the
        // calendar-driven stage must propose 23 as a candidate start even
        // though the arithmetic grid (stepping by the window length from 0)
        // never lands on it.
        let grid = ConnectionGrid::square(3);
        let placement = make_placement(&grid, 2);
        let mut router = Router::new(&grid, &placement, RoutingOptions::default());
        for node in [
            placement.node_of(DeviceId(0)),
            placement.node_of(DeviceId(1)),
        ] {
            for &edge in grid.incident_edges(node) {
                router
                    .state
                    .reservations
                    .reserve_edge(edge, Interval::new(0, 23));
            }
        }
        let mut task = direct_task(0, 1, 0, 5);
        task.deadline = 40;
        let windows = windows_of(&mut router, &task, false);
        assert!(
            windows.contains(&Interval::new(23, 28)),
            "calendar-driven candidate missing from {windows:?}"
        );
        let routed = router.route(&task).unwrap();
        assert!(routed.path.window.start >= 23);
    }

    #[test]
    fn stage_counters_track_the_pipeline() {
        let grid = ConnectionGrid::square(4);
        let placement = make_placement(&grid, 2);
        let mut router = Router::new(&grid, &placement, RoutingOptions::default());
        assert_eq!(
            router.stats(),
            RouterStats {
                oracle_builds: 1,
                ..RouterStats::default()
            }
        );
        router.route(&direct_task(0, 1, 0, 5)).unwrap();
        let after_direct = router.stats();
        assert_eq!(after_direct.tasks_routed, 1);
        assert!(after_direct.windows_tried >= 1);
        assert!(after_direct.path_searches >= 1);
        assert!(after_direct.nodes_expanded > 0);
        assert_eq!(after_direct.segments_priced, 0);
        router.route(&store_task(1, 0, 1)).unwrap();
        let after_store = router.stats();
        assert!(after_store.segments_priced > 0);
        assert_eq!(after_store.tasks_routed, 2);
        assert_eq!(after_store.postponed_tasks, 0);
    }

    #[test]
    fn device_adjacent_storage_fallback_on_a_minimal_grid() {
        // 1x3 line with devices at both ends: every segment touches a
        // device, so storage is only possible with the fallback enabled.
        let grid = ConnectionGrid::new(1, 3);
        let placement = Placement::from_nodes(vec![NodeId(0), NodeId(2)]);

        let strict = RoutingOptions {
            allow_device_adjacent_storage: false,
            ..RoutingOptions::default()
        };
        let mut router = Router::new(&grid, &placement, strict);
        let err = router.route(&store_task(0, 0, 1)).unwrap_err();
        assert!(matches!(err, ArchError::NoStorageSegment { .. }));

        let mut router = Router::new(&grid, &placement, RoutingOptions::default());
        let stored = router.route(&store_task(0, 0, 1)).unwrap();
        let cache = stored.cache_edge.expect("fallback segment chosen");
        let (x, y) = grid.endpoints(cache);
        assert!(
            placement.device_at(x).is_some() || placement.device_at(y).is_some(),
            "the minimal grid only offers device-adjacent segments"
        );
        // The sample can still be fetched out of the fallback segment.
        let fetched = router.route(&fetch_task(0, 0, 1)).unwrap();
        assert_eq!(fetched.cache_edge, Some(cache));
    }

    #[test]
    fn postponement_counter_reports_deadline_overruns() {
        // Same single-edge grid as the graceful-failure test, but with
        // postponement allowed the second transport lands after its deadline
        // and is counted.
        let grid = ConnectionGrid::new(1, 2);
        let placement = make_placement(&grid, 2);
        let options = RoutingOptions {
            max_deadline_overrun: 20,
            ..RoutingOptions::default()
        };
        let mut router = Router::new(&grid, &placement, options);
        router.route(&direct_task(0, 1, 0, 5)).unwrap();
        let second = router.route(&direct_task(1, 0, 0, 5)).unwrap();
        assert!(second.path.window.start >= 5);
        assert_eq!(router.stats().postponed_tasks, 1);
    }

    #[test]
    fn dense_edge_set_tracks_members_in_order() {
        let mut set = DenseEdgeSet::new(200);
        assert!(!set.contains(GridEdgeId(67)));
        assert!(set.insert(GridEdgeId(67)));
        assert!(set.insert(GridEdgeId(3)));
        assert!(set.insert(GridEdgeId(199)));
        assert!(!set.insert(GridEdgeId(67)), "reinsert is a no-op");
        assert!(set.contains(GridEdgeId(67)));
        assert_eq!(set.len(), 3);
        assert_eq!(
            set.to_vec(),
            vec![GridEdgeId(3), GridEdgeId(67), GridEdgeId(199)]
        );
    }

    /// A congested task mix covering all three kinds with slack (so the
    /// window stage actually staggers) for the `route_all` equality test.
    fn congested_tasks() -> Vec<TransportTask> {
        let mut tasks = Vec::new();
        for i in 0..6 {
            let mut t = direct_task(i % 3, (i + 1) % 3, 0, 5);
            t.sample = 200 + i;
            t.deadline = 60;
            tasks.push(t);
        }
        for s in 0..3 {
            let mut store = store_task(s, s % 3, (s + 1) % 3);
            store.deadline = 35;
            tasks.push(store);
        }
        tasks.sort_by_key(|t| t.window_start);
        for s in 0..3 {
            let mut fetch = fetch_task(s, s % 3, (s + 1) % 3);
            fetch.deadline = 90;
            tasks.push(fetch);
        }
        tasks
    }

    #[test]
    fn route_all_matches_the_route_loop() {
        for grid_side in [4, 10] {
            let grid = ConnectionGrid::square(grid_side);
            let placement = make_placement(&grid, 3);
            let tasks = congested_tasks();

            let mut sequential = Router::new(&grid, &placement, RoutingOptions::default());
            let baseline: Vec<RoutedTransport> =
                tasks.iter().map(|t| sequential.route(t).unwrap()).collect();

            let mut batched = Router::new(&grid, &placement, RoutingOptions::default());
            let routed = batched.route_all(&tasks).unwrap();
            assert_eq!(routed, baseline, "side {grid_side}");
            assert_eq!(
                batched.stats(),
                sequential.stats(),
                "side {grid_side}: stage counters diverged"
            );
            assert_eq!(batched.used_edges(), sequential.used_edges());
        }
    }

    #[test]
    fn route_all_propagates_failures_like_the_sequential_loop() {
        let grid = ConnectionGrid::new(1, 2);
        let placement = make_placement(&grid, 2);
        let tasks = vec![direct_task(0, 1, 0, 5), direct_task(1, 0, 0, 5)];
        let mut sequential = Router::new(&grid, &placement, RoutingOptions::default());
        let expected = sequential.route(&tasks[0]).unwrap();
        let expected_err = sequential.route(&tasks[1]).unwrap_err();

        let mut batched = Router::new(&grid, &placement, RoutingOptions::default());
        let err = batched.route_all(&tasks).unwrap_err();
        assert_eq!(format!("{err}"), format!("{expected_err}"));
        let _ = expected;
    }
}
