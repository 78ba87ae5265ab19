//! Precomputed per-architecture routing oracle.
//!
//! Once placement lands, the grid topology and device assignment are frozen
//! for the lifetime of the architecture — but the router used to rebuild its
//! placement-derived lookup tables per [`Router`](crate::Router) and pay
//! full path searches even for queries that are statically or locally
//! doomed. The [`RoutingOracle`] hoists everything derivable from the frozen
//! `(grid, placement)` pair into one immutable, `Arc`-shared structure built
//! exactly once per architecture:
//!
//! - **Dense device tables** — `device_of_node` and the per-node adjacent
//!   device-port counts, the O(1) lookups on the Dijkstra hot path,
//!   previously rebuilt by every router (per grid attempt, per warm
//!   restart, per job).
//! - **Transit components** — connected components of the switch graph (the
//!   grid minus device nodes). Device placement can wall transit regions off
//!   from each other; a node in the wrong component can never lie on a path
//!   to the target, whatever the reservation calendars say. The router uses
//!   this as an *h = ∞* tightening of its admissible A* bound: such nodes
//!   are never pushed onto the frontier.
//! - **Port skeletons** — for every device node, the set of transit
//!   components its ports open into, so source/target components resolve in
//!   O(1) during a search.
//!
//! The oracle carries no [`RoutingOptions`](crate::RoutingOptions): it is a
//! pure function of topology and placement, so strict and
//! deadline-relaxed routing passes — and concurrent server jobs on the same
//! architecture — all share one build through the [`OracleCache`].
//!
//! Everything the oracle feeds back into the router is *reject-only*: it
//! refuses searches and candidates the exact search would also have failed,
//! and prunes frontier nodes that provably cannot reach the target. The
//! routed chips are byte-identical with the oracle on or off; only the work
//! counters shrink.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use biochip_schedule::DeviceId;
use biochip_telemetry as telemetry;

use crate::grid::{ConnectionGrid, NodeId};
use crate::placement::Placement;

/// Component id marking device nodes, which are not part of the transit
/// fabric.
const NO_COMPONENT: u32 = u32::MAX;

/// Maximum distinct transit components a single device node can border (grid
/// degree).
const MAX_PORT_COMPONENTS: usize = 4;

/// The resolved reachability target of one path search: either the transit
/// component the (switch) destination lies in, or the set of components a
/// device destination's ports open into.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OracleTarget {
    components: [u32; MAX_PORT_COMPONENTS],
    len: u8,
}

impl OracleTarget {
    #[inline]
    fn contains(&self, component: u32) -> bool {
        self.components[..self.len as usize].contains(&component)
    }
}

/// Immutable per-architecture search structure shared by every router over
/// the same `(grid, placement)` pair. See the module docs for what it holds
/// and why each piece is sound.
#[derive(Debug)]
pub struct RoutingOracle {
    rows: usize,
    cols: usize,
    num_devices: usize,
    /// Device occupying each grid node, if any (dense O(1) lookup).
    pub(crate) device_of_node: Vec<Option<DeviceId>>,
    /// For each node, how many device nodes are adjacent to it (a switch
    /// next to a device is one of that device's ports). One byte per node:
    /// the router's relax loop only needs the count (corrected for the
    /// search endpoints), and the flat array stays cache-resident.
    pub(crate) adjacent_device_count: Vec<u8>,
    /// Number of transit components (`next_component` after the flood).
    /// When the placement leaves a single component the per-edge
    /// reachability test can never prune and the router skips it wholesale.
    transit_component_count: u32,
    /// Transit-component id per node; [`NO_COMPONENT`] for device nodes.
    component: Vec<u32>,
    /// For each node, the transit components reachable in one hop — the
    /// node's own component for switches, the port components for devices.
    reach: Vec<OracleTarget>,
}

impl RoutingOracle {
    /// Builds the oracle for one frozen `(grid, placement)` pair. Linear in
    /// the grid size; traced as a `route.oracle_build` span so the one-time
    /// cost stays attributable next to the searches it amortizes over.
    #[must_use]
    pub fn build(grid: &ConnectionGrid, placement: &Placement) -> Self {
        let _span = telemetry::span("router", "route.oracle_build");
        let nodes = grid.num_nodes();
        let mut device_of_node = vec![None; nodes];
        for (device, &node) in placement.device_nodes().iter().enumerate() {
            device_of_node[node.index()] = Some(DeviceId(device));
        }
        let mut adjacent_device_count = vec![0u8; nodes];
        for &device_node in placement.device_nodes() {
            for &edge in grid.incident_edges(device_node) {
                let port = grid.other_endpoint(edge, device_node);
                adjacent_device_count[port.index()] += 1;
            }
        }

        // Flood-fill the switch graph (device nodes excluded) into components.
        let mut component = vec![NO_COMPONENT; nodes];
        let mut stack: Vec<NodeId> = Vec::new();
        let mut next_component = 0u32;
        for start in grid.nodes() {
            if device_of_node[start.index()].is_some() || component[start.index()] != NO_COMPONENT {
                continue;
            }
            component[start.index()] = next_component;
            stack.push(start);
            while let Some(node) = stack.pop() {
                for &edge in grid.incident_edges(node) {
                    let next = grid.other_endpoint(edge, node);
                    if device_of_node[next.index()].is_none()
                        && component[next.index()] == NO_COMPONENT
                    {
                        component[next.index()] = next_component;
                        stack.push(next);
                    }
                }
            }
            next_component += 1;
        }

        let mut reach = Vec::with_capacity(nodes);
        for node in grid.nodes() {
            let mut target = OracleTarget {
                components: [NO_COMPONENT; MAX_PORT_COMPONENTS],
                len: 0,
            };
            let mut push = |c: u32| {
                if c != NO_COMPONENT && !target.contains(c) {
                    target.components[target.len as usize] = c;
                    target.len += 1;
                }
            };
            if device_of_node[node.index()].is_some() {
                // A device is reachable exactly through the components its
                // ports open into.
                for &edge in grid.incident_edges(node) {
                    let port = grid.other_endpoint(edge, node);
                    push(component[port.index()]);
                }
            } else {
                push(component[node.index()]);
            }
            reach.push(target);
        }

        RoutingOracle {
            rows: grid.rows(),
            cols: grid.cols(),
            num_devices: placement.len(),
            device_of_node,
            adjacent_device_count,
            component,
            reach,
            transit_component_count: next_component,
        }
    }

    /// Whether this oracle was built for the given grid and placement shape.
    #[must_use]
    pub fn matches(&self, grid: &ConnectionGrid, placement: &Placement) -> bool {
        self.rows == grid.rows() && self.cols == grid.cols() && self.num_devices == placement.len()
    }

    /// Number of transit components the device placement splits the switch
    /// graph into.
    #[must_use]
    pub fn transit_components(&self) -> usize {
        self.transit_component_count as usize
    }

    /// The reachability target for a search destination.
    #[inline]
    pub(crate) fn target_of(&self, to: NodeId) -> OracleTarget {
        self.reach[to.index()]
    }

    /// Whether a transit node can lie on a path that reaches `target`.
    #[inline]
    pub(crate) fn reaches(&self, node: NodeId, target: &OracleTarget) -> bool {
        target.contains(self.component[node.index()])
    }
}

/// Cache key: the architecture identity an oracle is valid for. `scope` is
/// the placement-stage content key when the cache is shared across runs (so
/// distinct problems can never collide), plus the grid shape and the exact
/// device placement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct OracleKey {
    scope: Option<String>,
    rows: usize,
    cols: usize,
    devices: Vec<usize>,
}

/// Shared build-once store of [`RoutingOracle`]s, keyed by architecture
/// identity. One lives inside each `biochip_synth::StageCaches` (so concurrent and
/// warm jobs on the same architecture share one build); synthesis runs
/// without a store fall back to a private instance, which still shares the
/// build across a run's strict/relaxed passes and repeated grid attempts.
///
/// Builds happen *under* the entry lock: when two jobs race on the same
/// architecture, the second blocks for the few milliseconds the first needs
/// rather than duplicating the build.
#[derive(Debug, Default)]
pub struct OracleCache {
    entries: Mutex<HashMap<OracleKey, Arc<RoutingOracle>>>,
    builds: AtomicU64,
    hits: AtomicU64,
}

/// Entry ceiling: an architecture oracle is a few hundred KB at storage
/// scale, and a server mixes at most a handful of live grid shapes. On
/// overflow the map is cleared wholesale — correctness never depends on a
/// hit. It is the one cache map that still clears at its cap instead of
/// evicting least-recently-used, because it builds under its lock (see
/// [`OracleCache`]) and so does not fit the lookup-then-insert LRU.
const ORACLE_CACHE_CAPACITY: usize = 64;

impl OracleCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        OracleCache::default()
    }

    /// Returns the oracle for `(grid, placement)`, building and inserting it
    /// on first sight. The boolean is `true` when this call performed the
    /// build.
    pub fn get_or_build(
        &self,
        scope: Option<&str>,
        grid: &ConnectionGrid,
        placement: &Placement,
    ) -> (Arc<RoutingOracle>, bool) {
        let key = OracleKey {
            scope: scope.map(str::to_owned),
            rows: grid.rows(),
            cols: grid.cols(),
            devices: placement.device_nodes().iter().map(|n| n.index()).collect(),
        };
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(oracle) = entries.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(oracle), false);
        }
        if entries.len() >= ORACLE_CACHE_CAPACITY {
            entries.clear();
        }
        let oracle = Arc::new(RoutingOracle::build(grid, placement));
        entries.insert(key, Arc::clone(&oracle));
        self.builds.fetch_add(1, Ordering::Relaxed);
        (oracle, true)
    }

    /// Oracles built (cache misses) since creation.
    #[must_use]
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Lookups answered from the cache since creation.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Oracles currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether the cache holds no oracle.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridCoord;

    fn placement_at(grid: &ConnectionGrid, coords: &[(usize, usize)]) -> Placement {
        Placement::from_nodes(
            coords
                .iter()
                .map(|&(row, col)| grid.node_at(GridCoord { row, col }))
                .collect(),
        )
    }

    #[test]
    fn open_grid_is_one_component() {
        let grid = ConnectionGrid::square(6);
        let placement = placement_at(&grid, &[(0, 0), (2, 3)]);
        let oracle = RoutingOracle::build(&grid, &placement);
        assert_eq!(oracle.transit_components(), 1);
        let device = grid.node_at(GridCoord { row: 2, col: 3 });
        let far = grid.node_at(GridCoord { row: 5, col: 5 });
        let target = oracle.target_of(device);
        assert!(oracle.reaches(far, &target));
    }

    #[test]
    fn walled_corner_splits_components() {
        // Devices at (0,1) and (1,0) wall the corner switch (0,0) off from
        // the rest of the fabric.
        let grid = ConnectionGrid::square(5);
        let placement = placement_at(&grid, &[(0, 1), (1, 0)]);
        let oracle = RoutingOracle::build(&grid, &placement);
        assert_eq!(oracle.transit_components(), 2);
        let corner = grid.node_at(GridCoord { row: 0, col: 0 });
        let open = grid.node_at(GridCoord { row: 4, col: 4 });
        assert!(!oracle.reaches(corner, &oracle.target_of(open)));
        assert!(oracle.reaches(corner, &oracle.target_of(corner)));
        // Both devices border both components: reachable from either side.
        let walled_device = grid.node_at(GridCoord { row: 0, col: 1 });
        assert!(oracle.reaches(corner, &oracle.target_of(walled_device)));
        assert!(oracle.reaches(open, &oracle.target_of(walled_device)));
    }

    #[test]
    fn cache_builds_once_per_architecture() {
        let grid = ConnectionGrid::square(6);
        let placement = placement_at(&grid, &[(0, 0), (2, 3)]);
        let cache = OracleCache::new();
        let (first, built) = cache.get_or_build(Some("scope-a"), &grid, &placement);
        assert!(built);
        let (second, built) = cache.get_or_build(Some("scope-a"), &grid, &placement);
        assert!(!built);
        assert!(Arc::ptr_eq(&first, &second));
        // A different scope is a different architecture, even on the same
        // grid shape.
        let (_, built) = cache.get_or_build(Some("scope-b"), &grid, &placement);
        assert!(built);
        assert_eq!(cache.builds(), 2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 2);
    }
}
