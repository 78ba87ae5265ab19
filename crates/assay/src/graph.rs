//! The sequencing graph data structure.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

use crate::error::GraphError;
use crate::ops::{Operation, OperationKind};
use crate::Seconds;

/// Identifier of an operation within a [`SequencingGraph`].
///
/// Ids are dense indices assigned in insertion order, which makes them usable
/// directly as `Vec` indices in downstream algorithms.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct OpId(pub usize);

impl OpId {
    /// The underlying dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

impl From<usize> for OpId {
    fn from(value: usize) -> Self {
        OpId(value)
    }
}

/// A dependency edge `parent -> child`: the child consumes the fluid sample
/// produced by the parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DependencyEdge {
    /// Producer of the intermediate fluid sample.
    pub parent: OpId,
    /// Consumer of the intermediate fluid sample.
    pub child: OpId,
}

impl DependencyEdge {
    /// Creates a new dependency edge.
    #[must_use]
    pub fn new(parent: OpId, child: OpId) -> Self {
        DependencyEdge { parent, child }
    }
}

/// A directed acyclic graph of fluidic operations describing a bioassay.
///
/// Nodes are [`Operation`]s, edges are producer → consumer dependencies.
/// The structure is append-only: operations and edges can be added but not
/// removed, which keeps [`OpId`]s stable.
///
/// # Example
///
/// ```
/// use biochip_assay::{OperationKind, SequencingGraph};
///
/// let mut g = SequencingGraph::new("demo");
/// let a = g.add_operation_with_duration("a", OperationKind::Mix, 30);
/// let b = g.add_operation_with_duration("b", OperationKind::Mix, 30);
/// g.add_dependency(a, b)?;
/// assert_eq!(g.children(a), &[b]);
/// assert!(g.validate().is_ok());
/// # Ok::<(), biochip_assay::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencingGraph {
    name: String,
    operations: Vec<Operation>,
    /// children[i] = ids of operations that consume the output of operation i.
    children: Vec<Vec<OpId>>,
    /// parents[i] = ids of operations whose output operation i consumes.
    parents: Vec<Vec<OpId>>,
    edges: Vec<DependencyEdge>,
    name_index: HashMap<String, OpId>,
}

// Hand-written (de)serialization: the canonical JSON form carries only
// `{name, operations, edges}`; the adjacency lists and the name index are
// derived state. Rebuilding through `add_operation`/`add_dependency` means
// malformed documents (out-of-range edge endpoints, self-loops, duplicate
// edges) surface as clean errors instead of corrupting invariants and
// panicking later.
impl Serialize for SequencingGraph {
    fn to_json(&self) -> serde::Json {
        serde::Json::object([
            ("name", self.name.to_json()),
            ("operations", self.operations.to_json()),
            ("edges", self.edges.to_json()),
        ])
    }

    fn write_json(&self, w: &mut serde::Writer) {
        w.begin_object();
        w.key("name");
        self.name.write_json(w);
        w.key("operations");
        self.operations.write_json(w);
        w.key("edges");
        self.edges.write_json(w);
        w.end_object();
    }
}

/// The serialized fields of a [`SequencingGraph`], before its derived
/// state is rebuilt.
#[derive(Deserialize)]
struct GraphDocument {
    name: String,
    operations: Vec<Operation>,
    edges: Vec<DependencyEdge>,
}

impl GraphDocument {
    fn into_graph(self) -> Result<SequencingGraph, serde::JsonError> {
        let mut graph = SequencingGraph::new(self.name);
        for op in self.operations {
            graph.add_operation(op);
        }
        for edge in self.edges {
            graph
                .add_dependency(edge.parent, edge.child)
                .map_err(|e| serde::JsonError::new(format!("invalid edge {edge:?}: {e}")))?;
        }
        Ok(graph)
    }
}

impl Deserialize for SequencingGraph {
    fn from_json(value: &serde::Json) -> Result<Self, serde::JsonError> {
        GraphDocument::from_json(value)?.into_graph()
    }

    fn read_json(r: &mut serde::Reader<'_>) -> Result<Self, serde::JsonError> {
        GraphDocument::read_json(r)?.into_graph()
    }
}

impl SequencingGraph {
    /// Creates an empty sequencing graph with the given assay name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        SequencingGraph {
            name: name.into(),
            operations: Vec::new(),
            children: Vec::new(),
            parents: Vec::new(),
            edges: Vec::new(),
            name_index: HashMap::new(),
        }
    }

    /// The assay name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an operation, returning its id.
    ///
    /// Duplicate names are allowed at insertion time but rejected by
    /// [`validate`](Self::validate); use [`AssayBuilder`](crate::AssayBuilder)
    /// for eager checking.
    pub fn add_operation(&mut self, op: Operation) -> OpId {
        let id = OpId(self.operations.len());
        self.name_index.entry(op.name.clone()).or_insert(id);
        self.operations.push(op);
        self.children.push(Vec::new());
        self.parents.push(Vec::new());
        id
    }

    /// Convenience: adds an operation from name/kind/duration.
    pub fn add_operation_with_duration(
        &mut self,
        name: impl Into<String>,
        kind: OperationKind,
        duration: Seconds,
    ) -> OpId {
        self.add_operation(Operation::new(name, kind, duration))
    }

    /// Convenience: adds an operation with the kind's default duration.
    pub fn add_operation_default(&mut self, name: impl Into<String>, kind: OperationKind) -> OpId {
        self.add_operation(Operation::with_default_duration(name, kind))
    }

    /// Adds a dependency edge `parent -> child`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownOperation`] if either endpoint does not
    /// exist, [`GraphError::SelfLoop`] if `parent == child` and
    /// [`GraphError::DuplicateEdge`] if the edge already exists.
    pub fn add_dependency(&mut self, parent: OpId, child: OpId) -> Result<(), GraphError> {
        if parent.index() >= self.operations.len() {
            return Err(GraphError::UnknownOperation { id: parent });
        }
        if child.index() >= self.operations.len() {
            return Err(GraphError::UnknownOperation { id: child });
        }
        if parent == child {
            return Err(GraphError::SelfLoop { id: parent });
        }
        if self.children[parent.index()].contains(&child) {
            return Err(GraphError::DuplicateEdge { parent, child });
        }
        self.children[parent.index()].push(child);
        self.parents[child.index()].push(parent);
        self.edges.push(DependencyEdge::new(parent, child));
        Ok(())
    }

    /// Looks up an operation id by name.
    #[must_use]
    pub fn id_by_name(&self, name: &str) -> Option<OpId> {
        self.name_index.get(name).copied()
    }

    /// The operation with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn operation(&self, id: OpId) -> &Operation {
        &self.operations[id.index()]
    }

    /// The operation with the given id, or `None` if out of range.
    #[must_use]
    pub fn get(&self, id: OpId) -> Option<&Operation> {
        self.operations.get(id.index())
    }

    /// Number of operations.
    #[must_use]
    pub fn num_operations(&self) -> usize {
        self.operations.len()
    }

    /// Number of dependency edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.operations.is_empty()
    }

    /// Iterator over `(id, operation)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, &Operation)> {
        self.operations
            .iter()
            .enumerate()
            .map(|(i, op)| (OpId(i), op))
    }

    /// All operation ids in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = OpId> {
        (0..self.operations.len()).map(OpId)
    }

    /// All dependency edges in insertion order.
    #[must_use]
    pub fn edges(&self) -> &[DependencyEdge] {
        &self.edges
    }

    /// Children (consumers) of the given operation.
    #[must_use]
    pub fn children(&self, id: OpId) -> &[OpId] {
        &self.children[id.index()]
    }

    /// Parents (producers) of the given operation.
    #[must_use]
    pub fn parents(&self, id: OpId) -> &[OpId] {
        &self.parents[id.index()]
    }

    /// Operations with no parents (assay inputs or root mixes).
    #[must_use]
    pub fn roots(&self) -> Vec<OpId> {
        self.ids()
            .filter(|&id| self.parents(id).is_empty())
            .collect()
    }

    /// Operations with no children (assay outputs or final operations).
    #[must_use]
    pub fn sinks(&self) -> Vec<OpId> {
        self.ids()
            .filter(|&id| self.children(id).is_empty())
            .collect()
    }

    /// Ids of operations that occupy a functional device (mix/dilute/heat/detect).
    #[must_use]
    pub fn device_operations(&self) -> Vec<OpId> {
        self.iter()
            .filter(|(_, op)| op.needs_device())
            .map(|(id, _)| id)
            .collect()
    }

    /// A topological ordering of all operations.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CycleDetected`] if the dependency relation is
    /// cyclic.
    pub fn topological_order(&self) -> Result<Vec<OpId>, GraphError> {
        let n = self.operations.len();
        let mut indegree = vec![0usize; n];
        for edge in &self.edges {
            indegree[edge.child.index()] += 1;
        }
        let mut queue: VecDeque<OpId> = (0..n).filter(|&i| indegree[i] == 0).map(OpId).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &child in self.children(id) {
                indegree[child.index()] -= 1;
                if indegree[child.index()] == 0 {
                    queue.push_back(child);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(GraphError::CycleDetected)
        }
    }

    /// Whether the dependency relation is acyclic.
    #[must_use]
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_ok()
    }

    /// Depth of the graph: number of operations on the longest dependency
    /// chain, counting only operations that occupy a device.
    #[must_use]
    pub fn depth(&self) -> usize {
        let Ok(order) = self.topological_order() else {
            return 0;
        };
        let mut level = vec![0usize; self.operations.len()];
        let mut max = 0;
        for &id in &order {
            let own = usize::from(self.operation(id).needs_device());
            let parent_level = self
                .parents(id)
                .iter()
                .map(|p| level[p.index()])
                .max()
                .unwrap_or(0);
            level[id.index()] = parent_level + own;
            max = max.max(level[id.index()]);
        }
        max
    }

    /// Length of the critical path in seconds: the minimum possible execution
    /// time with unlimited devices and zero transport time.
    #[must_use]
    pub fn critical_path(&self) -> Seconds {
        let Ok(order) = self.topological_order() else {
            return 0;
        };
        let mut finish = vec![0u64; self.operations.len()];
        let mut max = 0;
        for &id in &order {
            let start = self
                .parents(id)
                .iter()
                .map(|p| finish[p.index()])
                .max()
                .unwrap_or(0);
            finish[id.index()] = start + self.operation(id).duration;
            max = max.max(finish[id.index()]);
        }
        max
    }

    /// Total work: sum of the durations of all device operations.
    #[must_use]
    pub fn total_work(&self) -> Seconds {
        self.iter()
            .filter(|(_, op)| op.needs_device())
            .map(|(_, op)| op.duration)
            .sum()
    }

    /// Validates structural invariants:
    ///
    /// * the graph is non-empty,
    /// * operation names are unique,
    /// * the dependency relation is acyclic,
    /// * input operations have no parents and output operations have no
    ///   children.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.is_empty() {
            return Err(GraphError::Empty);
        }
        let mut seen = HashSet::new();
        for (id, op) in self.iter() {
            if !seen.insert(op.name.as_str()) {
                return Err(GraphError::DuplicateName {
                    name: op.name.clone(),
                });
            }
            match op.kind {
                OperationKind::Input if !self.parents(id).is_empty() => {
                    return Err(GraphError::InvalidRole {
                        id,
                        reason: "input operations must not have parents".to_owned(),
                    });
                }
                OperationKind::Output if !self.children(id).is_empty() => {
                    return Err(GraphError::InvalidRole {
                        id,
                        reason: "output operations must not have children".to_owned(),
                    });
                }
                _ => {}
            }
        }
        self.topological_order().map(|_| ())
    }
}

impl fmt::Display for SequencingGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "assay `{}`: {} operations, {} dependencies",
            self.name,
            self.num_operations(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> SequencingGraph {
        let mut g = SequencingGraph::new("chain");
        let ids: Vec<OpId> = (0..n)
            .map(|i| g.add_operation_with_duration(format!("o{i}"), OperationKind::Mix, 10))
            .collect();
        for w in ids.windows(2) {
            g.add_dependency(w[0], w[1]).unwrap();
        }
        g
    }

    #[test]
    fn empty_graph_is_invalid() {
        let g = SequencingGraph::new("empty");
        assert_eq!(g.validate(), Err(GraphError::Empty));
    }

    #[test]
    fn add_and_query_operations() {
        let mut g = SequencingGraph::new("t");
        let a = g.add_operation_default("a", OperationKind::Mix);
        let b = g.add_operation_default("b", OperationKind::Detect);
        assert_eq!(g.num_operations(), 2);
        assert_eq!(g.id_by_name("a"), Some(a));
        assert_eq!(g.id_by_name("b"), Some(b));
        assert_eq!(g.id_by_name("c"), None);
        assert_eq!(g.operation(a).kind, OperationKind::Mix);
        assert!(g.get(OpId(99)).is_none());
    }

    #[test]
    fn dependency_errors() {
        let mut g = SequencingGraph::new("t");
        let a = g.add_operation_default("a", OperationKind::Mix);
        let b = g.add_operation_default("b", OperationKind::Mix);
        assert_eq!(
            g.add_dependency(a, OpId(9)),
            Err(GraphError::UnknownOperation { id: OpId(9) })
        );
        assert_eq!(g.add_dependency(a, a), Err(GraphError::SelfLoop { id: a }));
        g.add_dependency(a, b).unwrap();
        assert_eq!(
            g.add_dependency(a, b),
            Err(GraphError::DuplicateEdge {
                parent: a,
                child: b
            })
        );
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let g = chain(5);
        let order = g.topological_order().unwrap();
        assert_eq!(order.len(), 5);
        for edge in g.edges() {
            let pi = order.iter().position(|&x| x == edge.parent).unwrap();
            let ci = order.iter().position(|&x| x == edge.child).unwrap();
            assert!(pi < ci);
        }
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = SequencingGraph::new("cyc");
        let a = g.add_operation_default("a", OperationKind::Mix);
        let b = g.add_operation_default("b", OperationKind::Mix);
        let c = g.add_operation_default("c", OperationKind::Mix);
        g.add_dependency(a, b).unwrap();
        g.add_dependency(b, c).unwrap();
        g.add_dependency(c, a).unwrap();
        assert!(!g.is_acyclic());
        assert_eq!(g.validate(), Err(GraphError::CycleDetected));
    }

    #[test]
    fn duplicate_names_rejected_by_validate() {
        let mut g = SequencingGraph::new("dup");
        g.add_operation_default("a", OperationKind::Mix);
        g.add_operation_default("a", OperationKind::Mix);
        assert!(matches!(
            g.validate(),
            Err(GraphError::DuplicateName { .. })
        ));
    }

    #[test]
    fn input_with_parent_is_invalid() {
        let mut g = SequencingGraph::new("bad");
        let a = g.add_operation_default("a", OperationKind::Mix);
        let i = g.add_operation_default("i", OperationKind::Input);
        g.add_dependency(a, i).unwrap();
        assert!(matches!(g.validate(), Err(GraphError::InvalidRole { .. })));
    }

    #[test]
    fn critical_path_and_depth_of_chain() {
        let g = chain(4);
        assert_eq!(g.depth(), 4);
        assert_eq!(g.critical_path(), 40);
        assert_eq!(g.total_work(), 40);
    }

    #[test]
    fn roots_and_sinks() {
        let g = chain(3);
        assert_eq!(g.roots(), vec![OpId(0)]);
        assert_eq!(g.sinks(), vec![OpId(2)]);
    }

    #[test]
    fn inputs_do_not_contribute_to_depth_or_work() {
        let mut g = SequencingGraph::new("io");
        let i1 = g.add_operation_default("i1", OperationKind::Input);
        let i2 = g.add_operation_default("i2", OperationKind::Input);
        let m = g.add_operation_with_duration("m", OperationKind::Mix, 50);
        g.add_dependency(i1, m).unwrap();
        g.add_dependency(i2, m).unwrap();
        assert_eq!(g.depth(), 1);
        assert_eq!(g.total_work(), 50);
        assert_eq!(g.device_operations(), vec![m]);
    }

    #[test]
    fn display_mentions_counts() {
        let g = chain(3);
        let s = g.to_string();
        assert!(s.contains("3 operations"));
        assert!(s.contains("2 dependencies"));
    }
}
