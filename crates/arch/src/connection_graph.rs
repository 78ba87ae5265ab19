//! The synthesis result: a planar connection graph plus the routed paths.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::error::ArchError;
use crate::grid::{ConnectionGrid, GridEdgeId, NodeId};
use crate::placement::Placement;
use crate::reservation::Interval;
use crate::routing::RoutedPath;
use crate::synthesis::SynthesisStats;
use crate::transport::{TransportKind, TransportTask};

/// One transportation task together with the path that realizes it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutedTransport {
    /// The transportation task from the schedule.
    pub task: TransportTask,
    /// The routed path (nodes, edges, occupation window).
    pub path: RoutedPath,
    /// The channel segment caching the sample (store/fetch tasks only).
    pub cache_edge: Option<GridEdgeId>,
}

/// The devices, switches and kept channel segments of a synthesized chip —
/// the "connection graph" of the paper.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionGraph {
    grid: ConnectionGrid,
    placement: Placement,
    used_edges: BTreeSet<GridEdgeId>,
}

impl ConnectionGraph {
    /// Builds a connection graph from the grid, the placement and the edges
    /// kept after synthesis.
    #[must_use]
    pub fn new(
        grid: ConnectionGrid,
        placement: Placement,
        used_edges: impl IntoIterator<Item = GridEdgeId>,
    ) -> Self {
        ConnectionGraph {
            grid,
            placement,
            used_edges: used_edges.into_iter().collect(),
        }
    }

    /// The underlying connection grid.
    #[must_use]
    pub fn grid(&self) -> &ConnectionGrid {
        &self.grid
    }

    /// The device placement.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Channel segments kept in the chip (used by at least one path).
    #[must_use]
    pub fn used_edges(&self) -> &BTreeSet<GridEdgeId> {
        &self.used_edges
    }

    /// Number of kept channel segments (`n_e` in Table 2).
    #[must_use]
    pub fn used_edge_count(&self) -> usize {
        self.used_edges.len()
    }

    /// Switch nodes: grid nodes that are not devices and touch at least one
    /// kept segment.
    #[must_use]
    pub fn switch_nodes(&self) -> Vec<NodeId> {
        self.grid
            .nodes()
            .filter(|&n| {
                self.placement.device_at(n).is_none()
                    && self
                        .grid
                        .incident_edges(n)
                        .iter()
                        .any(|e| self.used_edges.contains(e))
            })
            .collect()
    }

    /// Valve count of the synthesized chip (`n_v` in Table 2).
    ///
    /// Every kept channel segment incident to a switch node needs one valve
    /// at that switch port so the switch can block or admit flow on that
    /// side (Fig. 5(a) of the paper shows the four-valve switch of a full
    /// crossing). Valves inside mixers are not counted, matching the paper.
    #[must_use]
    pub fn valve_count(&self) -> usize {
        self.switch_nodes()
            .iter()
            .map(|&n| {
                self.grid
                    .incident_edges(n)
                    .iter()
                    .filter(|e| self.used_edges.contains(e))
                    .count()
            })
            .sum()
    }

    /// Valve count of the *full* connection grid (all segments kept), the
    /// denominator of the Fig. 8 valve ratio.
    #[must_use]
    pub fn full_grid_valve_count(&self) -> usize {
        self.grid
            .nodes()
            .filter(|&n| self.placement.device_at(n).is_none())
            .map(|n| self.grid.incident_edges(n).len())
            .sum()
    }

    /// Ratio of kept segments to all grid segments (Fig. 8, "Edge").
    #[must_use]
    pub fn edge_ratio(&self) -> f64 {
        if self.grid.num_edges() == 0 {
            0.0
        } else {
            self.used_edge_count() as f64 / self.grid.num_edges() as f64
        }
    }

    /// Ratio of chip valves to full-grid valves (Fig. 8, "Valve").
    #[must_use]
    pub fn valve_ratio(&self) -> f64 {
        let full = self.full_grid_valve_count();
        if full == 0 {
            0.0
        } else {
            self.valve_count() as f64 / full as f64
        }
    }
}

/// The complete result of architectural synthesis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Architecture {
    connection_graph: ConnectionGraph,
    routes: Vec<RoutedTransport>,
    stats: SynthesisStats,
}

impl Architecture {
    /// Builds an architecture from its connection graph and routed paths.
    #[must_use]
    pub fn new(connection_graph: ConnectionGraph, routes: Vec<RoutedTransport>) -> Self {
        Architecture {
            connection_graph,
            routes,
            stats: SynthesisStats::default(),
        }
    }

    /// Attaches the synthesis work counters (see [`SynthesisStats`]).
    #[must_use]
    pub fn with_stats(mut self, stats: SynthesisStats) -> Self {
        self.stats = stats;
        self
    }

    /// Per-stage work counters of the synthesis that produced this chip.
    #[must_use]
    pub fn stats(&self) -> &SynthesisStats {
        &self.stats
    }

    /// The planar connection graph (devices, switches, kept segments).
    #[must_use]
    pub fn connection_graph(&self) -> &ConnectionGraph {
        &self.connection_graph
    }

    /// The underlying grid.
    #[must_use]
    pub fn grid(&self) -> &ConnectionGrid {
        self.connection_graph.grid()
    }

    /// The device placement.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        self.connection_graph.placement()
    }

    /// All routed transportation paths, in routing order.
    #[must_use]
    pub fn routes(&self) -> &[RoutedTransport] {
        &self.routes
    }

    /// Number of kept channel segments (`n_e`).
    #[must_use]
    pub fn used_edge_count(&self) -> usize {
        self.connection_graph.used_edge_count()
    }

    /// Number of valves (`n_v`).
    #[must_use]
    pub fn valve_count(&self) -> usize {
        self.connection_graph.valve_count()
    }

    /// Paths that cache a sample, i.e. the chip's distributed storage events.
    #[must_use]
    pub fn storage_routes(&self) -> Vec<&RoutedTransport> {
        self.routes
            .iter()
            .filter(|r| r.task.kind == TransportKind::Store)
            .collect()
    }

    /// Total transport postponement: the summed time by which routed
    /// transports finish after their schedule-derived deadlines.
    ///
    /// Zero for conflict-free syntheses; positive when the schedule demanded
    /// more simultaneous movements at a device than its ports allow and the
    /// router had to serialize them (the execution of the affected consumer
    /// operations is delayed by at most this much).
    #[must_use]
    pub fn transport_postponement(&self) -> biochip_assay::Seconds {
        self.routes
            .iter()
            .map(|r| r.path.window.end.saturating_sub(r.task.deadline))
            .sum()
    }

    /// Largest single-transport postponement (see
    /// [`transport_postponement`](Self::transport_postponement)).
    #[must_use]
    pub fn max_transport_postponement(&self) -> biochip_assay::Seconds {
        self.routes
            .iter()
            .map(|r| r.path.window.end.saturating_sub(r.task.deadline))
            .max()
            .unwrap_or(0)
    }

    /// Checks the paper's structural invariants on the synthesized chip.
    ///
    /// * every path is connected (consecutive nodes joined by the listed
    ///   edge) and starts/ends at the right device or cache segment,
    /// * paths with overlapping occupation windows share no edge and no
    ///   interior node,
    /// * a segment caching a sample is not used by any path whose window
    ///   overlaps the storage interval,
    /// * the kept-edge set is exactly the union of all path edges.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::Inconsistent`] describing the first violation.
    pub fn verify(&self) -> Result<(), ArchError> {
        let grid = self.grid();
        let placement = self.placement();

        // Path-local invariants.
        for route in &self.routes {
            let path = &route.path;
            if path.nodes.is_empty() {
                return Err(ArchError::Inconsistent {
                    reason: format!("empty path for {}", route.task.describe()),
                });
            }
            if path.edges.len() + 1 != path.nodes.len() {
                return Err(ArchError::Inconsistent {
                    reason: format!("path length mismatch for {}", route.task.describe()),
                });
            }
            for (i, &edge) in path.edges.iter().enumerate() {
                let (a, b) = grid.endpoints(edge);
                let (from, to) = (path.nodes[i], path.nodes[i + 1]);
                if !((a == from && b == to) || (a == to && b == from)) {
                    return Err(ArchError::Inconsistent {
                        reason: format!(
                            "edge {edge} does not connect {from} and {to} in {}",
                            route.task.describe()
                        ),
                    });
                }
            }
            match route.task.kind {
                TransportKind::Direct => {
                    let expected_from = placement.node_of(route.task.from_device);
                    let expected_to = placement.node_of(route.task.to_device);
                    if path.nodes.first() != Some(&expected_from)
                        || path.nodes.last() != Some(&expected_to)
                    {
                        return Err(ArchError::Inconsistent {
                            reason: format!(
                                "direct path endpoints are wrong for {}",
                                route.task.describe()
                            ),
                        });
                    }
                }
                TransportKind::Store => {
                    let expected_from = placement.node_of(route.task.from_device);
                    if path.nodes.first() != Some(&expected_from) {
                        return Err(ArchError::Inconsistent {
                            reason: format!(
                                "store path does not start at the producer for {}",
                                route.task.describe()
                            ),
                        });
                    }
                    if route.cache_edge.is_none() || path.edges.last().copied() != route.cache_edge
                    {
                        return Err(ArchError::Inconsistent {
                            reason: format!(
                                "store path does not end in its cache segment for {}",
                                route.task.describe()
                            ),
                        });
                    }
                }
                TransportKind::Fetch => {
                    let expected_to = placement.node_of(route.task.to_device);
                    if path.nodes.last() != Some(&expected_to) {
                        return Err(ArchError::Inconsistent {
                            reason: format!(
                                "fetch path does not end at the consumer for {}",
                                route.task.describe()
                            ),
                        });
                    }
                    if route.cache_edge.is_none() || path.edges.first().copied() != route.cache_edge
                    {
                        return Err(ArchError::Inconsistent {
                            reason: format!(
                                "fetch path does not start from its cache segment for {}",
                                route.task.describe()
                            ),
                        });
                    }
                }
            }
        }

        // Conflicts between concurrently occupied paths, checked per
        // resource: two paths can only collide on an edge (or interior node)
        // that both of them use, so it suffices to sort each resource's
        // occupations by window start and sweep for overlaps. Occupations
        // are bucketed per resource by a counting sort on its dense index,
        // and resources are visited in ascending id, so when several
        // conflict, *which* one is reported is deterministic (the error text
        // can reach serialized failure reports).
        let occupied = || {
            self.routes
                .iter()
                .enumerate()
                .filter(|(_, route)| !route.path.window.is_empty())
        };
        let mut edge_usage = Buckets::new(
            grid.num_edges(),
            occupied().flat_map(|(i, route)| route.path.edges.iter().map(move |e| (e.index(), i))),
        );
        let mut node_usage = Buckets::new(
            grid.num_nodes(),
            occupied().flat_map(|(i, route)| {
                let nodes = &route.path.nodes;
                let interior = nodes.get(1..nodes.len().saturating_sub(1)).unwrap_or(&[]);
                interior.iter().map(move |n| (n.index(), i))
            }),
        );
        let window = |i: u32| self.routes[i as usize].path.window;
        let sweep = |usage: &mut [u32]| -> Option<(usize, usize)> {
            usage.sort_unstable_by_key(|&i| (window(i).start, window(i).end, i));
            let mut frontier: Option<(Interval, u32)> = None;
            for &i in usage.iter() {
                if let Some((held, holder)) = frontier {
                    // A route may touch the same resource twice in its own
                    // window (hand-built paths); only cross-route overlaps
                    // are conflicts, matching the old pairwise check.
                    if window(i).start < held.end && holder != i {
                        return Some((holder as usize, i as usize));
                    }
                }
                if frontier.is_none_or(|(held, _)| window(i).end > held.end) {
                    frontier = Some((window(i), i));
                }
            }
            None
        };
        for edge in 0..grid.num_edges() {
            if let Some((a, b)) = sweep(edge_usage.get_mut(edge)) {
                return Err(ArchError::Inconsistent {
                    reason: format!(
                        "edge {} shared by concurrent paths ({} / {})",
                        GridEdgeId(edge),
                        self.routes[a].task.describe(),
                        self.routes[b].task.describe()
                    ),
                });
            }
        }
        for node in 0..grid.num_nodes() {
            if let Some((a, b)) = sweep(node_usage.get_mut(node)) {
                return Err(ArchError::Inconsistent {
                    reason: format!(
                        "node {} shared by concurrent paths ({} / {})",
                        NodeId(node),
                        self.routes[a].task.describe(),
                        self.routes[b].task.describe()
                    ),
                });
            }
        }

        // Storage exclusivity: no path may use a cached segment while the
        // sample rests in it. Only the paths that traverse the cached
        // segment (already bucketed in `edge_usage`) need checking.
        for (i, store) in self.routes.iter().enumerate() {
            let (Some(cache), Some((from, until))) =
                (store.cache_edge, store.task.storage_interval)
            else {
                continue;
            };
            if store.task.kind != TransportKind::Store {
                continue;
            }
            let storage = Interval::new(from, until);
            for &other in edge_usage.get_mut(cache.index()).iter() {
                let other = other as usize;
                if other != i && self.routes[other].path.window.overlaps(&storage) {
                    return Err(ArchError::Inconsistent {
                        reason: format!(
                            "segment {cache} is used by {} while caching sample {}",
                            self.routes[other].task.describe(),
                            store.task.sample
                        ),
                    });
                }
            }
        }

        // Kept edges = union of path edges.
        let mut kept = vec![false; grid.num_edges()];
        for route in &self.routes {
            for edge in &route.path.edges {
                kept[edge.index()] = true;
            }
        }
        let used = self.connection_graph.used_edges();
        let union_size = kept.iter().filter(|&&k| k).count();
        if union_size != used.len() || !used.iter().all(|e| kept.get(e.index()) == Some(&true)) {
            return Err(ArchError::Inconsistent {
                reason: "kept-edge set does not match the union of path edges".to_owned(),
            });
        }
        Ok(())
    }
}

/// Route indices grouped by a dense resource index: one flat array, filled
/// by a counting sort, with each resource's slice in route order.
struct Buckets {
    starts: Vec<usize>,
    routes: Vec<u32>,
}

impl Buckets {
    fn new(resources: usize, uses: impl Iterator<Item = (usize, usize)> + Clone) -> Self {
        let mut starts = vec![0; resources + 1];
        for (resource, _) in uses.clone() {
            starts[resource + 1] += 1;
        }
        for r in 0..resources {
            starts[r + 1] += starts[r];
        }
        let mut next = starts.clone();
        let mut routes = vec![0; starts[resources]];
        for (resource, route) in uses {
            routes[next[resource]] = route as u32;
            next[resource] += 1;
        }
        Buckets { starts, routes }
    }

    fn get_mut(&mut self, resource: usize) -> &mut [u32] {
        &mut self.routes[self.starts[resource]..self.starts[resource + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridCoord;
    use biochip_assay::OpId;
    use biochip_schedule::DeviceId;

    fn simple_setup() -> (ConnectionGrid, Placement) {
        let grid = ConnectionGrid::new(1, 3);
        let placement = Placement::from_nodes(vec![NodeId(0), NodeId(2)]);
        (grid, placement)
    }

    fn direct_route(grid: &ConnectionGrid) -> RoutedTransport {
        let e01 = grid.edge_between(NodeId(0), NodeId(1)).unwrap();
        let e12 = grid.edge_between(NodeId(1), NodeId(2)).unwrap();
        RoutedTransport {
            task: TransportTask {
                sample: 0,
                producer: OpId(0),
                consumer: OpId(1),
                from_device: DeviceId(0),
                to_device: DeviceId(1),
                kind: TransportKind::Direct,
                window_start: 0,
                window_end: 5,
                storage_interval: None,
                earliest_start: 0,
                deadline: 5,
            },
            path: RoutedPath {
                nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
                edges: vec![e01, e12],
                window: Interval::new(0, 5),
            },
            cache_edge: None,
        }
    }

    #[test]
    fn counts_and_ratios() {
        let (grid, placement) = simple_setup();
        let route = direct_route(&grid);
        let cg = ConnectionGraph::new(grid.clone(), placement, route.path.edges.clone());
        assert_eq!(cg.used_edge_count(), 2);
        // Node 1 is the only switch; both kept edges touch it -> 2 valves.
        assert_eq!(cg.switch_nodes(), vec![NodeId(1)]);
        assert_eq!(cg.valve_count(), 2);
        assert_eq!(cg.full_grid_valve_count(), 2);
        assert!((cg.edge_ratio() - 1.0).abs() < 1e-9);
        assert!((cg.valve_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn verify_accepts_consistent_architecture() {
        let (grid, placement) = simple_setup();
        let route = direct_route(&grid);
        let cg = ConnectionGraph::new(grid, placement, route.path.edges.clone());
        let arch = Architecture::new(cg, vec![route]);
        assert!(arch.verify().is_ok());
    }

    #[test]
    fn verify_rejects_wrong_endpoint() {
        let (grid, placement) = simple_setup();
        let mut route = direct_route(&grid);
        route.path.nodes.reverse();
        route.path.edges.reverse();
        let cg = ConnectionGraph::new(grid, placement, route.path.edges.clone());
        let arch = Architecture::new(cg, vec![route]);
        assert!(matches!(arch.verify(), Err(ArchError::Inconsistent { .. })));
    }

    #[test]
    fn verify_rejects_conflicting_paths() {
        let (grid, placement) = simple_setup();
        let a = direct_route(&grid);
        let mut b = direct_route(&grid);
        b.task.sample = 1;
        // Same window, same edges: conflict.
        let edges = a.path.edges.clone();
        let cg = ConnectionGraph::new(grid, placement, edges);
        let arch = Architecture::new(cg, vec![a, b]);
        assert!(matches!(arch.verify(), Err(ArchError::Inconsistent { .. })));
    }

    #[test]
    fn verify_rejects_mismatched_used_edges() {
        let (grid, placement) = simple_setup();
        let route = direct_route(&grid);
        // Claim only one of the two edges is kept.
        let cg = ConnectionGraph::new(grid, placement, vec![route.path.edges[0]]);
        let arch = Architecture::new(cg, vec![route]);
        assert!(matches!(arch.verify(), Err(ArchError::Inconsistent { .. })));
    }

    #[test]
    fn verify_rejects_disconnected_path() {
        let grid = ConnectionGrid::square(3);
        let placement = Placement::from_nodes(vec![
            grid.node_at(GridCoord { row: 0, col: 0 }),
            grid.node_at(GridCoord { row: 2, col: 2 }),
        ]);
        let e = grid
            .edge_between(
                grid.node_at(GridCoord { row: 0, col: 0 }),
                grid.node_at(GridCoord { row: 0, col: 1 }),
            )
            .unwrap();
        let route = RoutedTransport {
            task: TransportTask {
                sample: 0,
                producer: OpId(0),
                consumer: OpId(1),
                from_device: DeviceId(0),
                to_device: DeviceId(1),
                kind: TransportKind::Direct,
                window_start: 0,
                window_end: 5,
                storage_interval: None,
                earliest_start: 0,
                deadline: 5,
            },
            path: RoutedPath {
                // Jumps from (0,1) to (2,2) without an edge in between.
                nodes: vec![
                    grid.node_at(GridCoord { row: 0, col: 0 }),
                    grid.node_at(GridCoord { row: 0, col: 1 }),
                    grid.node_at(GridCoord { row: 2, col: 2 }),
                ],
                edges: vec![e, e],
                window: Interval::new(0, 5),
            },
            cache_edge: None,
        };
        let cg = ConnectionGraph::new(grid, placement, vec![e]);
        let arch = Architecture::new(cg, vec![route]);
        assert!(matches!(arch.verify(), Err(ArchError::Inconsistent { .. })));
    }

    /// A route along `nodes` of a 7×7 grid (ids `row * 7 + col`), occupied
    /// during `[start, end)`.
    fn route_along(
        grid: &ConnectionGrid,
        sample: usize,
        (from, to): (usize, usize),
        kind: TransportKind,
        nodes: &[usize],
        (start, end): (u64, u64),
    ) -> RoutedTransport {
        let nodes: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
        let edges: Vec<GridEdgeId> = nodes
            .windows(2)
            .map(|pair| grid.edge_between(pair[0], pair[1]).unwrap())
            .collect();
        let cache_edge = match kind {
            TransportKind::Store => edges.last().copied(),
            TransportKind::Fetch => edges.first().copied(),
            TransportKind::Direct => None,
        };
        RoutedTransport {
            task: TransportTask {
                sample,
                producer: OpId(sample),
                consumer: OpId(sample + 100),
                from_device: DeviceId(from),
                to_device: DeviceId(to),
                kind,
                window_start: start,
                window_end: end,
                storage_interval: (kind == TransportKind::Store).then_some((end, 20)),
                earliest_start: start,
                deadline: end,
            },
            path: RoutedPath {
                nodes,
                edges,
                window: Interval::new(start, end),
            },
            cache_edge,
        }
    }

    #[test]
    fn verify_reports_the_lowest_conflicting_resource_first() {
        use TransportKind::{Direct, Store};
        let grid = ConnectionGrid::square(7);
        let placement = Placement::from_nodes(
            [0, 1, 3, 4, 22, 24, 16, 30, 25, 27, 19, 33, 42, 45]
                .into_iter()
                .map(NodeId)
                .collect(),
        );
        let edge = |a: usize, b: usize| grid.edge_between(NodeId(a), NodeId(b)).unwrap();
        // Listed before the lower-id conflicts, so route order cannot
        // decide which is reported.
        let edge_high = [
            route_along(&grid, 2, (2, 3), Direct, &[3, 4], (0, 5)),
            route_along(&grid, 3, (2, 3), Direct, &[3, 4], (3, 8)),
        ];
        let edge_low = [
            route_along(&grid, 0, (0, 1), Direct, &[0, 1], (0, 5)),
            route_along(&grid, 1, (0, 1), Direct, &[0, 1], (3, 8)),
        ];
        // Two crossings: paths that share an interior node but no edge.
        let node_high = [
            route_along(&grid, 6, (8, 9), Direct, &[25, 26, 27], (0, 5)),
            route_along(&grid, 7, (10, 11), Direct, &[19, 26, 33], (2, 6)),
        ];
        let node_low = [
            route_along(&grid, 4, (4, 5), Direct, &[22, 23, 24], (0, 5)),
            route_along(&grid, 5, (6, 7), Direct, &[16, 23, 30], (2, 6)),
        ];
        // A sample cached on e(43, 44) from t = 2 while another path
        // crosses that segment at t = 5.
        let storage = [
            route_along(&grid, 8, (12, 13), Store, &[42, 43, 44], (0, 2)),
            route_along(&grid, 9, (13, 12), Direct, &[45, 44, 43, 42], (5, 8)),
        ];
        assert!(edge(0, 1) < edge(3, 4));
        let verify = |groups: &[&[RoutedTransport]]| {
            let routes: Vec<RoutedTransport> = groups.concat();
            let kept: Vec<GridEdgeId> = routes
                .iter()
                .flat_map(|r| r.path.edges.iter().copied())
                .collect();
            let cg = ConnectionGraph::new(grid.clone(), placement.clone(), kept);
            match Architecture::new(cg, routes).verify() {
                Err(ArchError::Inconsistent { reason }) => reason,
                other => panic!("expected a conflict, got {other:?}"),
            }
        };
        let pair = |routes: &[RoutedTransport]| {
            format!(
                "({} / {})",
                routes[0].task.describe(),
                routes[1].task.describe()
            )
        };

        let all: [&[RoutedTransport]; 5] = [&edge_high, &edge_low, &node_high, &node_low, &storage];
        assert_eq!(
            verify(&all),
            format!(
                "edge {} shared by concurrent paths {}",
                edge(0, 1),
                pair(&edge_low)
            )
        );
        assert_eq!(
            verify(&all[2..]),
            format!("node n23 shared by concurrent paths {}", pair(&node_low))
        );
        assert_eq!(
            verify(&all[4..]),
            format!(
                "segment {} is used by {} while caching sample 8",
                edge(43, 44),
                storage[1].task.describe()
            )
        );
        let cg = ConnectionGraph::new(
            grid.clone(),
            placement.clone(),
            storage[0].path.edges.clone(),
        );
        assert!(Architecture::new(cg, vec![storage[0].clone()])
            .verify()
            .is_ok());
    }

    #[test]
    fn storage_routes_filter() {
        let (grid, placement) = simple_setup();
        let route = direct_route(&grid);
        let cg = ConnectionGraph::new(grid, placement, route.path.edges.clone());
        let arch = Architecture::new(cg, vec![route]);
        assert!(arch.storage_routes().is_empty());
    }
}
