//! Distance-indexed lookup of cache-segment candidates for store tasks.
//!
//! The original router scanned **every** grid edge for every store task to
//! find a channel segment that can cache a sample, sorting the full candidate
//! list per task. At 10k-op scale that is the dominant cost of the store
//! stage. This index precomputes, per ordered `(producer device, consumer
//! device)` pair, the grid edges sorted by their *static* score — the
//! traffic-distance term plus the placement-derived penalties, everything
//! that does not change while routing — so a store task walks segments from
//! best to worst and stops as soon as one is free.
//!
//! On storage-sized grids (side ≥ [`SCALE_GRID_SIDE`] = 9) the static score
//! also prices segments **away from the transit fabric**: port switches and
//! the device cluster's interior corridors carry every inter-device path,
//! and samples parked there for thousands of seconds seal whole pockets of
//! the lattice. Small paper-scale grids keep the original
//! distance-plus-device-adjacency ordering bit for bit. (The wide 4-spacing
//! device lattice in `placement` uses its own, higher threshold of 12 — a
//! side of 9–11 routes in scale mode but still places devices at the
//! paper's 2-spacing, because the wide lattice needs the extra room.)
//!
//! The *dynamic* part of a segment's price (whether the edge is already part
//! of the chip, which the router prefers) is folded back in lazily by
//! [`OrderedCandidates`]: it buffers statically-cheap segments in a small
//! heap and yields them in exact `(static + dynamic, edge id)` order, which
//! reproduces the full-scan selection order segment for segment.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::rc::Rc;

use biochip_schedule::DeviceId;

use crate::grid::{ConnectionGrid, GridEdgeId, NodeId};
use crate::placement::Placement;

/// Extra static score of a segment that touches a device node (such segments
/// are last-resort cache locations on very small grids).
pub(crate) const DEVICE_ADJACENT_PENALTY: u64 = 100;

/// Extra static score of a segment that touches a device's *port switch*
/// (a node adjacent to a device). Caching there clogs the fabric every
/// transport of that device has to pass through, so such segments are only
/// chosen when the grid offers nothing further out. Storage-sized grids
/// only.
pub(crate) const PORT_ADJACENT_PENALTY: u64 = 200;

/// Extra static score of a segment inside the device cluster's bounding
/// box. The corridors between devices are the transit fabric every
/// inter-device path flows through; samples parked there seal whole pockets
/// of the lattice. Pricing the interior out pushes storage to the open grid
/// around the cluster, where the egress guards can actually keep escape
/// routes open. Storage-sized grids only.
pub(crate) const CLUSTER_INTERIOR_PENALTY: u64 = 400;

/// Extra static score of a segment outside the storage **comb**: on scale
/// grids caching is steered onto vertical segments in even columns only.
/// A cached segment blocks its edge but not its end nodes, so with every
/// horizontal segment (and every odd column) permanently cache-free the
/// transit fabric stays connected *by construction* — no arrangement of
/// cached samples can wall in a device or another cached sample.
pub(crate) const OFF_COMB_PENALTY: u64 = 800;

/// Grid side length from which the transit-fabric penalties apply (matches
/// the storage-sized grids the scale assays synthesize onto; the paper's
/// benchmarks fit on 4×4–8×8 grids and keep the original scoring).
pub(crate) const SCALE_GRID_SIDE: usize = 9;

/// Whether an edge belongs to the storage comb of a scale grid: vertical
/// (row-adjacent endpoints) and in an even column.
pub(crate) fn on_storage_comb(grid: &ConnectionGrid, edge: GridEdgeId) -> bool {
    let (x, y) = grid.endpoints(edge);
    let (cx, cy) = (grid.coord(x), grid.coord(y));
    cx.col == cy.col && cx.col.is_multiple_of(2)
}

/// Candidate segments of one `(producer, consumer)` device pair.
#[derive(Debug)]
pub(crate) struct PairIndex {
    /// Candidates sorted by `(static score, edge id)`.
    pub(crate) sorted: Rc<[(u64, GridEdgeId)]>,
    /// Static score per edge index; `None` for excluded segments
    /// (device-adjacent when the fallback is disabled).
    pub(crate) score_of: Vec<Option<u64>>,
}

/// Per-device-pair cache-segment candidate lists, built lazily.
#[derive(Debug, Default)]
pub(crate) struct SegmentIndex {
    lists: HashMap<(usize, usize), Rc<PairIndex>>,
    /// The pair-independent part of each edge's static score (its
    /// placement penalty), `None` for excluded segments. Built on first
    /// use: the grid, placement and options are fixed for one router.
    penalties: Option<Vec<Option<u64>>>,
}

impl SegmentIndex {
    /// The candidate segments for a producer → consumer pair. Built on first
    /// use, shared afterwards.
    pub(crate) fn pair_index(
        &mut self,
        grid: &ConnectionGrid,
        placement: &Placement,
        from: DeviceId,
        to: DeviceId,
        allow_device_adjacent: bool,
    ) -> Rc<PairIndex> {
        let key = (from.index(), to.index());
        if let Some(list) = self.lists.get(&key) {
            return Rc::clone(list);
        }
        let penalties = self
            .penalties
            .get_or_insert_with(|| edge_penalties(grid, placement, allow_device_adjacent));
        let from_node = placement.node_of(from);
        let to_node = placement.node_of(to);
        let mut score_of: Vec<Option<u64>> = vec![None; grid.num_edges()];
        let mut max_score = 0;
        for edge in grid.edges() {
            let Some(penalty) = penalties[edge.index()] else {
                continue;
            };
            let (x, y) = grid.endpoints(edge);
            let distance = (grid.distance(from_node, x).min(grid.distance(from_node, y))
                + grid.distance(to_node, x).min(grid.distance(to_node, y)))
                as u64;
            let score = distance * 4 + penalty;
            score_of[edge.index()] = Some(score);
            max_score = max_score.max(score);
        }
        // Counting sort on the small integer score. Edges are placed in id
        // order, so equal scores keep ascending ids: exactly `(score, edge)`
        // order.
        let mut next = vec![0usize; max_score as usize + 2];
        for &score in score_of.iter().flatten() {
            next[score as usize + 1] += 1;
        }
        for s in 1..next.len() {
            next[s] += next[s - 1];
        }
        let mut sorted = vec![(0, GridEdgeId(0)); next[next.len() - 1]];
        for (edge, score) in score_of.iter().enumerate() {
            if let Some(score) = *score {
                let slot = &mut next[score as usize];
                sorted[*slot] = (score, GridEdgeId(edge));
                *slot += 1;
            }
        }
        let index = Rc::new(PairIndex {
            sorted: sorted.into(),
            score_of,
        });
        self.lists.insert(key, Rc::clone(&index));
        index
    }
}

/// The placement penalty of every edge's static score, `None` for a
/// device-adjacent segment when the fallback is disabled.
fn edge_penalties(
    grid: &ConnectionGrid,
    placement: &Placement,
    allow_device_adjacent: bool,
) -> Vec<Option<u64>> {
    let mut is_device = vec![false; grid.num_nodes()];
    for &node in placement.device_nodes() {
        is_device[node.index()] = true;
    }
    let touches_port = |node: NodeId| {
        grid.incident_edges(node)
            .iter()
            .any(|&e| is_device[grid.other_endpoint(e, node).index()])
    };
    let scale_grid = grid.rows().max(grid.cols()) >= SCALE_GRID_SIDE;
    let cluster = cluster_box(grid, placement);
    let in_cluster = |node: NodeId| {
        let c = grid.coord(node);
        c.row >= cluster.0 && c.row <= cluster.1 && c.col >= cluster.2 && c.col <= cluster.3
    };
    grid.edges()
        .map(|edge| {
            let (x, y) = grid.endpoints(edge);
            let touches_device = is_device[x.index()] || is_device[y.index()];
            if touches_device && !allow_device_adjacent {
                return None;
            }
            let mut penalty = if touches_device {
                DEVICE_ADJACENT_PENALTY
            } else {
                0
            };
            if scale_grid {
                if touches_port(x) || touches_port(y) {
                    penalty += PORT_ADJACENT_PENALTY;
                }
                if in_cluster(x) || in_cluster(y) {
                    penalty += CLUSTER_INTERIOR_PENALTY;
                }
                if !on_storage_comb(grid, edge) {
                    penalty += OFF_COMB_PENALTY;
                }
            }
            Some(penalty)
        })
        .collect()
}

/// Bounding box `(min_row, max_row, min_col, max_col)` of the placed
/// devices.
fn cluster_box(grid: &ConnectionGrid, placement: &Placement) -> (usize, usize, usize, usize) {
    let mut min_r = usize::MAX;
    let mut max_r = 0;
    let mut min_c = usize::MAX;
    let mut max_c = 0;
    for &node in placement.device_nodes() {
        let c = grid.coord(node);
        min_r = min_r.min(c.row);
        max_r = max_r.max(c.row);
        min_c = min_c.min(c.col);
        max_c = max_c.max(c.col);
    }
    if min_r == usize::MAX {
        // No devices: an empty box that contains nothing.
        return (1, 0, 1, 0);
    }
    (min_r, max_r, min_c, max_c)
}

/// Yields available segments in exact `(static score + dynamic price, edge)`
/// order without pricing segments that are never reached.
///
/// Because the dynamic price is bounded below by `min_price`, a buffered
/// candidate is globally minimal as soon as the next unpriced static score
/// plus `min_price` exceeds its total — the classic lazy merge used by PnR
/// routers over preprocessed site lists.
pub(crate) struct OrderedCandidates {
    list: Rc<[(u64, GridEdgeId)]>,
    next: usize,
    heap: BinaryHeap<Reverse<(u64, GridEdgeId)>>,
    min_price: u64,
}

impl OrderedCandidates {
    /// Creates an ordered iteration over a statically-sorted candidate
    /// list. `min_price` is the smallest possible dynamic price (the
    /// cheaper of the used/new edge costs).
    pub(crate) fn new(list: Rc<[(u64, GridEdgeId)]>, min_price: u64) -> Self {
        OrderedCandidates {
            list,
            next: 0,
            heap: BinaryHeap::new(),
            min_price,
        }
    }

    /// Next available segment in total-score order. `price` returns the
    /// dynamic price of an available segment and `None` for segments that are
    /// currently unavailable (reserved during the required windows).
    pub(crate) fn next_available(
        &mut self,
        mut price: impl FnMut(GridEdgeId) -> Option<u64>,
    ) -> Option<GridEdgeId> {
        loop {
            if let Some(&Reverse((top_total, top_edge))) = self.heap.peek() {
                let more_to_price = self
                    .list
                    .get(self.next)
                    .is_some_and(|&(s, _)| s + self.min_price <= top_total);
                if !more_to_price {
                    self.heap.pop();
                    return Some(top_edge);
                }
            } else if self.next >= self.list.len() {
                return None;
            }
            let (static_score, edge) = self.list[self.next];
            self.next += 1;
            if let Some(dynamic) = price(edge) {
                self.heap.push(Reverse((static_score + dynamic, edge)));
            }
        }
    }

    /// Number of segments priced so far (for the stage counters).
    pub(crate) fn priced(&self) -> usize {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(list: Vec<(u64, GridEdgeId)>) -> Rc<[(u64, GridEdgeId)]> {
        let mut sorted = list;
        sorted.sort_unstable();
        sorted.into()
    }

    #[test]
    fn ordered_candidates_respect_total_score_and_tie_break() {
        // Static scores 0, 0, 4; dynamic price 4 for e0 and 1 for the rest.
        let list = index_of(vec![
            (0, GridEdgeId(0)),
            (0, GridEdgeId(1)),
            (4, GridEdgeId(2)),
        ]);
        let price = |e: GridEdgeId| Some(if e == GridEdgeId(0) { 4 } else { 1 });
        let mut iter = OrderedCandidates::new(list, 1);
        // Totals: e0 = 4, e1 = 1, e2 = 5 → order e1, e0, e2.
        assert_eq!(iter.next_available(price), Some(GridEdgeId(1)));
        assert_eq!(iter.next_available(price), Some(GridEdgeId(0)));
        assert_eq!(iter.next_available(price), Some(GridEdgeId(2)));
        assert_eq!(iter.next_available(price), None);
    }

    #[test]
    fn equal_totals_yield_the_smaller_edge_id_first() {
        let list = index_of(vec![(3, GridEdgeId(7)), (4, GridEdgeId(2))]);
        // Totals: e7 = 3 + 2 = 5, e2 = 4 + 1 = 5 → tie broken on edge id.
        let price = |e: GridEdgeId| Some(if e == GridEdgeId(7) { 2 } else { 1 });
        let mut iter = OrderedCandidates::new(list, 1);
        assert_eq!(iter.next_available(price), Some(GridEdgeId(2)));
        assert_eq!(iter.next_available(price), Some(GridEdgeId(7)));
    }

    #[test]
    fn unavailable_segments_are_skipped_without_breaking_order() {
        let list = index_of(vec![
            (0, GridEdgeId(0)),
            (4, GridEdgeId(1)),
            (8, GridEdgeId(2)),
        ]);
        let price = |e: GridEdgeId| (e != GridEdgeId(0)).then_some(1);
        let mut iter = OrderedCandidates::new(list, 1);
        assert_eq!(iter.next_available(price), Some(GridEdgeId(1)));
        assert_eq!(iter.next_available(price), Some(GridEdgeId(2)));
        assert_eq!(iter.next_available(price), None);
        assert_eq!(iter.priced(), 3);
    }

    #[test]
    fn lazy_pricing_stops_early() {
        let mut list = vec![(0, GridEdgeId(0))];
        for i in 1..100u64 {
            list.push((i * 10, GridEdgeId(i as usize)));
        }
        let mut iter = OrderedCandidates::new(index_of(list), 1);
        assert_eq!(iter.next_available(|_| Some(1)), Some(GridEdgeId(0)));
        // Only the head and the one lookahead entry were priced.
        assert!(iter.priced() <= 2, "priced {}", iter.priced());
    }

    #[test]
    fn small_grids_keep_the_paper_scoring() {
        // On a 6×6 grid the port/cluster penalties must not apply: scores
        // are distance·4 plus only the device-adjacency penalty.
        let grid = ConnectionGrid::square(6);
        let placement = Placement::from_nodes(vec![NodeId(0), NodeId(14)]);
        let mut index = SegmentIndex::default();
        let pair = index.pair_index(&grid, &placement, DeviceId(0), DeviceId(1), true);
        for &(score, edge) in pair.sorted.iter() {
            let (x, y) = grid.endpoints(edge);
            let touches = placement.device_at(x).is_some() || placement.device_at(y).is_some();
            let distance = (grid.distance(NodeId(0), x).min(grid.distance(NodeId(0), y))
                + grid
                    .distance(NodeId(14), x)
                    .min(grid.distance(NodeId(14), y))) as u64;
            let expected = distance * 4 + if touches { DEVICE_ADJACENT_PENALTY } else { 0 };
            assert_eq!(score, expected, "edge {edge}");
        }
    }

    #[test]
    fn scale_grids_price_the_transit_fabric_out() {
        let grid = ConnectionGrid::square(13);
        let placement = Placement::from_nodes(vec![NodeId(4 * 13 + 4), NodeId(8 * 13 + 8)]);
        let mut index = SegmentIndex::default();
        let pair = index.pair_index(&grid, &placement, DeviceId(0), DeviceId(1), true);
        // An edge far outside the cluster box is cheaper than the same-
        // distance edge inside it.
        let outside = grid
            .edge_between(NodeId(0), NodeId(1))
            .expect("corner edge exists");
        let inside = grid
            .edge_between(NodeId(6 * 13 + 6), NodeId(6 * 13 + 7))
            .expect("center edge exists");
        let score_outside = pair.score_of[outside.index()].unwrap();
        let score_inside = pair.score_of[inside.index()].unwrap();
        assert!(score_inside >= CLUSTER_INTERIOR_PENALTY);
        // The centre edge is much closer, yet the cluster penalty dominates.
        assert!(
            score_inside > score_outside,
            "inside {score_inside} vs outside {score_outside}"
        );
    }
}
