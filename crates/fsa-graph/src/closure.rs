//! Transitive closure of directed graphs.
//!
//! The paper's §4.4 constructs the reflexive transitive closure `ζ*` of
//! the functional-flow relation `ζ`. Two algorithms are provided:
//!
//! * [`closure_warshall`] — classic Floyd–Warshall on a bit matrix,
//!   `O(n³/64)`; works on any graph.
//! * [`closure_dag`] — reverse-topological accumulation of descendant
//!   bit sets, `O(n·e/64)`; the default for functional flow graphs
//!   (which the paper assumes loop-free). For a cyclic input it falls
//!   back to SCC condensation. [`closure_acyclic`] is its DAG half: it
//!   reports a cycle instead, so a caller that needs loop-freedom learns
//!   it from the same topological sort.
//!
//! Both produce a [`Relation`], a dense boolean matrix over node ids.

use crate::bitset::BitSet;
use crate::digraph::{DiGraph, NodeId};
use crate::error::GraphError;
use crate::scc::tarjan_scc;
use crate::topo::topological_sort;

/// A binary relation over the nodes of one graph, stored densely.
///
/// Row `a` holds the set `{ b | (a, b) ∈ R }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    rows: Vec<BitSet>,
}

impl Relation {
    /// The empty relation over `n` nodes.
    pub fn empty(n: usize) -> Self {
        Relation {
            rows: (0..n).map(|_| BitSet::new(n)).collect(),
        }
    }

    /// The identity relation over `n` nodes.
    pub fn identity(n: usize) -> Self {
        let mut r = Relation::empty(n);
        for i in 0..n {
            r.rows[i].insert(i);
        }
        r
    }

    /// Number of nodes the relation ranges over.
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// Inserts the pair `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn insert(&mut self, a: NodeId, b: NodeId) {
        self.rows[a.index()].insert(b.index());
    }

    /// Returns `true` if `(a, b)` is in the relation.
    pub fn contains(&self, a: NodeId, b: NodeId) -> bool {
        self.rows
            .get(a.index())
            .is_some_and(|r| r.contains(b.index()))
    }

    /// The row of `a`: all `b` with `(a, b) ∈ R`.
    pub fn row(&self, a: NodeId) -> &BitSet {
        &self.rows[a.index()]
    }

    /// Iterates over all pairs in the relation, sorted.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(a, row)| row.iter().map(move |b| (NodeId::new(a), NodeId::new(b))))
    }

    /// Number of pairs in the relation.
    pub fn len(&self) -> usize {
        self.rows.iter().map(BitSet::len).sum()
    }

    /// Returns `true` if the relation holds no pair.
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(BitSet::is_empty)
    }

    /// Adds all pairs `(a, a)`.
    pub fn make_reflexive(&mut self) {
        for (i, row) in self.rows.iter_mut().enumerate() {
            row.insert(i);
        }
    }

    /// Checks reflexivity.
    pub fn is_reflexive(&self) -> bool {
        self.rows.iter().enumerate().all(|(i, r)| r.contains(i))
    }

    /// Checks transitivity (`(a,b) ∧ (b,c) ⇒ (a,c)`).
    pub fn is_transitive(&self) -> bool {
        for (a, row) in self.rows.iter().enumerate() {
            for b in row.iter() {
                if !self.rows[b].is_subset(&self.rows[a]) {
                    return false;
                }
            }
        }
        true
    }

    /// Transitively closes the relation in place (Floyd–Warshall on the
    /// bit matrix, `O(n³/64)`); a no-op when already transitive.
    ///
    /// [`crate::order::PartialOrder::try_new`] relies on this to enforce
    /// transitivity *unconditionally* — a non-closed input previously
    /// slipped through release builds and produced an incomplete χ
    /// (missing requirements).
    pub fn close_transitive(&mut self) {
        if self.is_transitive() {
            return;
        }
        let n = self.rows.len();
        for k in 0..n {
            let row_k = self.rows[k].clone();
            for i in 0..n {
                if self.rows[i].contains(k) {
                    self.rows[i].union_with(&row_k);
                }
            }
        }
    }

    /// Checks antisymmetry; returns a violating pair if any.
    pub fn antisymmetry_violation(&self) -> Option<(NodeId, NodeId)> {
        for (a, row) in self.rows.iter().enumerate() {
            for b in row.iter() {
                if a != b && self.rows[b].contains(a) {
                    return Some((NodeId::new(a), NodeId::new(b)));
                }
            }
        }
        None
    }

    /// Checks antisymmetry.
    pub fn is_antisymmetric(&self) -> bool {
        self.antisymmetry_violation().is_none()
    }
}

/// Floyd–Warshall transitive closure (not reflexive).
///
/// Works on arbitrary graphs, `O(n³/64)` time, `O(n²/64)` space.
pub fn closure_warshall<N>(g: &DiGraph<N>) -> Relation {
    let n = g.node_count();
    let mut r = Relation::empty(n);
    for (a, b) in g.edges() {
        r.insert(a, b);
    }
    for k in 0..n {
        let row_k = r.rows[k].clone();
        for i in 0..n {
            if r.rows[i].contains(k) {
                r.rows[i].union_with(&row_k);
            }
        }
    }
    r
}

/// DAG-aware transitive closure (not reflexive).
///
/// Processes nodes in reverse topological order and accumulates
/// descendant sets, `O(n·e/64)`. If `g` is cyclic, condenses it with
/// Tarjan SCC first and expands the component closure back to nodes, so
/// the result always equals [`closure_warshall`].
pub fn closure_dag<N>(g: &DiGraph<N>) -> Relation {
    closure_acyclic(g).unwrap_or_else(|_| closure_via_condensation(g))
}

/// Transitive closure (not reflexive) of an acyclic graph: the DAG half
/// of [`closure_dag`], `O(n·e/64)`.
///
/// On success the graph is loop-free, so the closure is antisymmetric
/// and irreflexive, and it is transitive by construction: with the
/// identity added it is a partial order whose minimal elements are the
/// graph's sources and whose maximal elements are its sinks.
///
/// # Errors
///
/// Returns [`GraphError::CycleDetected`] if `g` has a directed cycle,
/// self-loops included.
pub fn closure_acyclic<N>(g: &DiGraph<N>) -> Result<Relation, GraphError> {
    let order = topological_sort(g)?;
    let n = g.node_count();
    let mut r = Relation::empty(n);
    for &v in order.iter().rev() {
        // descendants(v) = ∪_{s ∈ succ(v)} ({s} ∪ descendants(s)); every
        // successor's row is final, as it comes later in the order. The
        // row is filled in place: it is empty until now.
        let mut acc = std::mem::replace(&mut r.rows[v.index()], BitSet::new(0));
        for s in g.successors(v) {
            acc.insert(s.index());
            acc.union_with(&r.rows[s.index()]);
        }
        r.rows[v.index()] = acc;
    }
    Ok(r)
}

/// Closure of a cyclic graph via SCC condensation.
fn closure_via_condensation<N>(g: &DiGraph<N>) -> Relation {
    let scc = tarjan_scc(g);
    let n = g.node_count();
    // Build the condensation DAG.
    let mut cond: DiGraph<usize> = DiGraph::with_capacity(scc.count());
    for c in 0..scc.count() {
        cond.add_node(c);
    }
    let mut nontrivial = vec![false; scc.count()];
    for (a, b) in g.edges() {
        let (ca, cb) = (scc.component_of[a.index()], scc.component_of[b.index()]);
        if ca == cb {
            nontrivial[ca] = true; // an internal edge ⇒ cycle (incl. self-loop)
        } else {
            cond.add_edge(NodeId::new(ca), NodeId::new(cb));
        }
    }
    let cond_closure = closure_dag(&cond);
    let mut r = Relation::empty(n);
    for a in g.node_ids() {
        let ca = scc.component_of[a.index()];
        // Within a non-trivial SCC every pair is related (incl. a→a).
        if nontrivial[ca] {
            for &b in &scc.components[ca] {
                r.insert(a, b);
            }
        }
        for cb in cond_closure.row(NodeId::new(ca)).iter() {
            for &b in &scc.components[cb] {
                r.insert(a, b);
            }
            if nontrivial[cb] {
                // already covered: all members inserted above
            }
        }
    }
    r
}

/// Reflexive transitive closure `ζ*` of the edge relation of `g`.
///
/// This is the operation of the paper's §4.4:
/// `ζ* = ζ⁺ ∪ {(x, x) | x ∈ Σ}`.
///
/// # Examples
///
/// ```
/// use fsa_graph::{DiGraph, closure::reflexive_transitive_closure};
///
/// let mut g = DiGraph::new();
/// let a = g.add_node("a");
/// let b = g.add_node("b");
/// let c = g.add_node("c");
/// g.add_edge(a, b);
/// g.add_edge(b, c);
/// let r = reflexive_transitive_closure(&g);
/// assert!(r.contains(a, c), "transitivity");
/// assert!(r.contains(a, a), "reflexivity");
/// assert!(!r.contains(c, a));
/// ```
pub fn reflexive_transitive_closure<N>(g: &DiGraph<N>) -> Relation {
    let mut r = closure_dag(g);
    r.make_reflexive();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> DiGraph<usize> {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g
    }

    #[test]
    fn warshall_chain() {
        let g = chain(5);
        let r = closure_warshall(&g);
        assert_eq!(r.len(), 4 + 3 + 2 + 1);
        assert!(r.contains(NodeId::new(0), NodeId::new(4)));
        assert!(!r.contains(NodeId::new(4), NodeId::new(0)));
        assert!(!r.contains(NodeId::new(0), NodeId::new(0)), "not reflexive");
    }

    #[test]
    fn dag_equals_warshall_on_dag() {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..7).map(|i| g.add_node(i)).collect();
        g.add_edge(ids[0], ids[2]);
        g.add_edge(ids[1], ids[2]);
        g.add_edge(ids[2], ids[3]);
        g.add_edge(ids[2], ids[4]);
        g.add_edge(ids[3], ids[5]);
        g.add_edge(ids[4], ids[5]);
        g.add_edge(ids[6], ids[0]);
        assert_eq!(closure_dag(&g), closure_warshall(&g));
    }

    #[test]
    fn dag_equals_warshall_on_cycle() {
        let mut g = DiGraph::new();
        let a = g.add_node(0);
        let b = g.add_node(1);
        let c = g.add_node(2);
        let d = g.add_node(3);
        g.add_edge(a, b);
        g.add_edge(b, a);
        g.add_edge(b, c);
        g.add_edge(d, d);
        assert_eq!(closure_dag(&g), closure_warshall(&g));
        let r = closure_dag(&g);
        assert!(r.contains(a, a), "node on a cycle reaches itself");
        assert!(r.contains(d, d), "self-loop reaches itself");
        assert!(!r.contains(c, c), "acyclic node does not reach itself");
        assert!(r.contains(a, c));
    }

    #[test]
    fn reflexive_closure_matches_paper_example3() {
        // ζ₁ of the paper (Fig. 3): 6 actions, 5 direct flows.
        let mut g = DiGraph::new();
        let sense1 = g.add_node("sense1");
        let pos1 = g.add_node("pos1");
        let send1 = g.add_node("send1");
        let recw = g.add_node("recw");
        let posw = g.add_node("posw");
        let show = g.add_node("show");
        g.add_edge(sense1, send1);
        g.add_edge(pos1, send1);
        g.add_edge(send1, recw);
        g.add_edge(posw, show);
        g.add_edge(recw, show);
        let r = reflexive_transitive_closure(&g);
        // ζ₁* = ζ₁ (5) ∪ reflexive (6) ∪ derived (5)  — 16 pairs.
        assert_eq!(r.len(), 16);
        for (x, y) in [
            (sense1, recw),
            (sense1, show),
            (pos1, recw),
            (pos1, show),
            (send1, show),
        ] {
            assert!(r.contains(x, y), "derived pair missing");
        }
        assert!(r.is_reflexive());
        assert!(r.is_transitive());
        assert!(r.is_antisymmetric());
    }

    #[test]
    fn relation_property_checks() {
        let mut r = Relation::identity(3);
        assert!(r.is_reflexive());
        assert!(r.is_transitive());
        assert!(r.is_antisymmetric());
        r.insert(NodeId::new(0), NodeId::new(1));
        r.insert(NodeId::new(1), NodeId::new(0));
        assert!(!r.is_antisymmetric());
        assert_eq!(
            r.antisymmetry_violation(),
            Some((NodeId::new(0), NodeId::new(1)))
        );
    }

    #[test]
    fn non_transitive_detected() {
        let mut r = Relation::empty(3);
        r.insert(NodeId::new(0), NodeId::new(1));
        r.insert(NodeId::new(1), NodeId::new(2));
        assert!(!r.is_transitive());
        r.insert(NodeId::new(0), NodeId::new(2));
        assert!(r.is_transitive());
    }

    #[test]
    fn pairs_sorted_and_len() {
        let g = chain(3);
        let r = closure_warshall(&g);
        let pairs: Vec<_> = r.pairs().collect();
        assert_eq!(
            pairs,
            vec![
                (NodeId::new(0), NodeId::new(1)),
                (NodeId::new(0), NodeId::new(2)),
                (NodeId::new(1), NodeId::new(2)),
            ]
        );
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!(Relation::empty(3).is_empty());
    }

    #[test]
    fn acyclic_closure_reports_cycles_and_self_loops() {
        let g = chain(4);
        assert_eq!(closure_acyclic(&g), Ok(closure_warshall(&g)));
        let mut looped = chain(3);
        looped.add_edge(NodeId::new(1), NodeId::new(1));
        assert_eq!(
            closure_acyclic(&looped),
            Err(GraphError::CycleDetected(NodeId::new(1)))
        );
        let mut cyclic = chain(3);
        cyclic.add_edge(NodeId::new(2), NodeId::new(0));
        assert!(matches!(
            closure_acyclic(&cyclic),
            Err(GraphError::CycleDetected(_))
        ));
        assert_eq!(closure_dag(&cyclic), closure_warshall(&cyclic));
    }

    #[test]
    fn empty_graph_closure() {
        let g: DiGraph<()> = DiGraph::new();
        assert!(closure_dag(&g).is_empty());
        assert!(closure_warshall(&g).is_empty());
    }
}
