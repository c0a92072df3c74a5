//! A small deterministic directed graph with node payloads.
//!
//! Nodes are identified by dense [`NodeId`]s in insertion order, which
//! keeps all downstream algorithms (closure, topological sort, DOT
//! export) deterministic — important for reproducible requirement lists.

use std::fmt;

/// Identifier of a node within one [`DiGraph`].
///
/// Ids are dense (`0..node_count`) and stable: removing nodes is not
/// supported, so an id stays valid for the lifetime of its graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32 range"))
    }

    /// The raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A directed edge as a `(source, target)` pair.
pub type EdgeRef = (NodeId, NodeId);

/// A directed graph with payloads of type `N` on the nodes.
///
/// Parallel edges are collapsed; self-loops are allowed (and later
/// rejected by the partial-order layer, mirroring the paper's loop-free
/// assumption).
///
/// # Examples
///
/// ```
/// use fsa_graph::DiGraph;
///
/// let mut g = DiGraph::new();
/// let a = g.add_node("sense");
/// let b = g.add_node("send");
/// assert!(g.add_edge(a, b));
/// assert!(!g.add_edge(a, b), "parallel edges are collapsed");
/// assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DiGraph<N> {
    payloads: Vec<N>,
    /// Adjacency lists, each sorted by id without duplicates
    /// (deterministic iteration, binary-search lookup).
    succ: Vec<Vec<NodeId>>,
    pred: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl<N> DiGraph<N> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            payloads: Vec::new(),
            succ: Vec::new(),
            pred: Vec::new(),
            edge_count: 0,
        }
    }

    /// Creates an empty graph with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        DiGraph {
            payloads: Vec::with_capacity(nodes),
            succ: Vec::with_capacity(nodes),
            pred: Vec::with_capacity(nodes),
            edge_count: 0,
        }
    }

    /// Adds a node carrying `payload` and returns its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId::new(self.payloads.len());
        self.payloads.push(payload);
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        id
    }

    /// Adds the edge `from → to`. Returns `true` if the edge was new.
    ///
    /// # Panics
    ///
    /// Panics if either id does not belong to this graph.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        assert!(from.index() < self.payloads.len(), "unknown source node");
        assert!(to.index() < self.payloads.len(), "unknown target node");
        let new = insert_sorted(&mut self.succ[from.index()], to);
        if new {
            insert_sorted(&mut self.pred[to.index()], from);
            self.edge_count += 1;
        }
        new
    }

    /// Returns `true` if the edge `from → to` exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.succ
            .get(from.index())
            .is_some_and(|s| s.binary_search(&to).is_ok())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.payloads.len()
    }

    /// Number of (distinct) edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn payload(&self, id: NodeId) -> &N {
        &self.payloads[id.index()]
    }

    /// Mutable payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn payload_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.payloads[id.index()]
    }

    /// Iterates over all node ids in insertion order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        (0..self.payloads.len()).map(NodeId::new)
    }

    /// Iterates over `(id, payload)` pairs in insertion order.
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = (NodeId, &N)> {
        self.payloads
            .iter()
            .enumerate()
            .map(|(i, p)| (NodeId::new(i), p))
    }

    /// Iterates over all edges in `(source, target)` order, sorted.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.iter().map(move |t| (NodeId::new(i), *t)))
    }

    /// Successors of `id`, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn successors(&self, id: NodeId) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        self.succ[id.index()].iter().copied()
    }

    /// Predecessors of `id`, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn predecessors(&self, id: NodeId) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        self.pred[id.index()].iter().copied()
    }

    /// Out-degree of `id`.
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.succ[id.index()].len()
    }

    /// In-degree of `id`.
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.pred[id.index()].len()
    }

    /// Nodes with in-degree 0 (the graph's *sources*).
    ///
    /// For a functional flow graph these are the incoming boundary
    /// actions — the origins of information.
    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|n| self.in_degree(*n) == 0)
            .collect()
    }

    /// Nodes with out-degree 0 (the graph's *sinks*).
    ///
    /// For a functional flow graph these are the outgoing boundary
    /// actions — the safety-critical outputs.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|n| self.out_degree(*n) == 0)
            .collect()
    }

    /// Builds the reverse graph (same payloads by clone, edges flipped).
    ///
    /// The paper derives requirements "by reversing the arrows" of the
    /// functional flow graph.
    pub fn reversed(&self) -> DiGraph<N>
    where
        N: Clone,
    {
        let mut g = DiGraph::with_capacity(self.node_count());
        for p in &self.payloads {
            g.add_node(p.clone());
        }
        for (a, b) in self.edges() {
            g.add_edge(b, a);
        }
        g
    }

    /// Maps payloads, preserving structure and node ids.
    pub fn map<M>(&self, mut f: impl FnMut(NodeId, &N) -> M) -> DiGraph<M> {
        DiGraph {
            payloads: self.nodes().map(|(id, p)| f(id, p)).collect(),
            succ: self.succ.clone(),
            pred: self.pred.clone(),
            edge_count: self.edge_count,
        }
    }

    /// Finds the first node (in insertion order) whose payload satisfies
    /// `pred`.
    pub fn find(&self, mut pred: impl FnMut(&N) -> bool) -> Option<NodeId> {
        self.nodes().find(|(_, p)| pred(p)).map(|(id, _)| id)
    }
}

/// Inserts `id` into the sorted list `ids`; `false` if already present.
fn insert_sorted(ids: &mut Vec<NodeId>, id: NodeId) -> bool {
    match ids.binary_search(&id) {
        Ok(_) => false,
        Err(at) => {
            ids.insert(at, id);
            true
        }
    }
}

impl<N: PartialEq> DiGraph<N> {
    /// Finds the first node with exactly this payload.
    pub fn find_payload(&self, payload: &N) -> Option<NodeId> {
        self.find(|p| p == payload)
    }

    /// Returns the node with this payload, inserting it if absent.
    pub fn ensure_node(&mut self, payload: N) -> NodeId {
        match self.find_payload(&payload) {
            Some(id) => id,
            None => self.add_node(payload),
        }
    }
}

impl<N> Default for DiGraph<N> {
    fn default() -> Self {
        DiGraph::new()
    }
}

impl<N: fmt::Debug> fmt::Debug for DiGraph<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiGraph")
            .field("nodes", &self.payloads)
            .field("edges", &self.edges().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        (g, [a, b, c, d])
    }

    #[test]
    fn add_and_query() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(g.predecessors(d).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(*g.payload(c), "c");
    }

    #[test]
    fn sources_and_sinks() {
        let (g, [a, _, _, d]) = diamond();
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![d]);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut g = DiGraph::new();
        let a = g.add_node(1);
        let b = g.add_node(2);
        assert!(g.add_edge(a, b));
        assert!(!g.add_edge(a, b));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loop_allowed_here() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        assert!(g.add_edge(a, a));
        assert!(g.has_edge(a, a));
    }

    #[test]
    fn reversed_flips_edges() {
        let (g, [a, b, _, d]) = diamond();
        let r = g.reversed();
        assert!(r.has_edge(b, a));
        assert!(!r.has_edge(a, b));
        assert_eq!(r.sources(), vec![d]);
        assert_eq!(r.sinks(), vec![a]);
    }

    #[test]
    fn map_preserves_structure() {
        let (g, [a, _, _, d]) = diamond();
        let m = g.map(|id, p| format!("{}:{p}", id.index()));
        assert_eq!(m.node_count(), 4);
        assert_eq!(m.edge_count(), 4);
        assert_eq!(m.payload(a), "0:a");
        assert_eq!(m.payload(d), "3:d");
    }

    #[test]
    fn ensure_node_dedups() {
        let mut g = DiGraph::new();
        let a = g.ensure_node("x");
        let b = g.ensure_node("x");
        let c = g.ensure_node("y");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn payload_mut() {
        let mut g = DiGraph::new();
        let a = g.add_node(1);
        *g.payload_mut(a) += 10;
        assert_eq!(*g.payload(a), 11);
    }

    #[test]
    fn edges_are_sorted_and_deterministic() {
        let (g, _) = diamond();
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g.edges().collect();
        assert_eq!(e1, e2);
        let mut sorted = e1.clone();
        sorted.sort();
        assert_eq!(e1, sorted);
    }

    #[test]
    fn adjacency_stays_sorted_under_any_insertion_order() {
        let mut g = DiGraph::new();
        let ids: Vec<NodeId> = (0..6).map(|i| g.add_node(i)).collect();
        for &(a, b) in &[(3, 1), (3, 5), (3, 0), (0, 1), (5, 1), (3, 1), (2, 1)] {
            g.add_edge(ids[a], ids[b]);
        }
        assert_eq!(g.edge_count(), 6, "the repeated 3 → 1 collapses");
        let succ: Vec<_> = g.successors(ids[3]).map(NodeId::index).collect();
        assert_eq!(succ, vec![0, 1, 5]);
        let pred: Vec<_> = g.predecessors(ids[1]).map(NodeId::index).collect();
        assert_eq!(pred, vec![0, 2, 3, 5]);
        assert!(g.has_edge(ids[3], ids[5]) && !g.has_edge(ids[5], ids[3]));
        let mut sorted: Vec<_> = g.edges().collect();
        sorted.sort();
        assert_eq!(g.edges().collect::<Vec<_>>(), sorted);
        let mapped = g.map(|_, p| p * 10);
        assert_eq!(mapped.edges().collect::<Vec<_>>(), sorted);
        assert_eq!(mapped.edge_count(), 6);
    }

    #[test]
    fn find_payload() {
        let (g, [_, b, _, _]) = diamond();
        assert_eq!(g.find_payload(&"b"), Some(b));
        assert_eq!(g.find_payload(&"zz"), None);
    }
}
