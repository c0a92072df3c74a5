//! Reachability graphs (Definition 3: the behaviour of an APA).
//!
//! States are interned global states; edges are labelled `(t, i)` with
//! the elementary automaton `t` and interpretation `i`. The SH tool
//! prints states as `M-1`, `M-2`, …; [`ReachGraph::state_label`] follows
//! that convention so reproduced outputs match the paper's listings.
//!
//! ### Arena layout
//!
//! The graph does not store one `Vec<BTreeSet<Value>>` per state.
//! Component-local value sets are deduplicated into a *cell pool*
//! (`cells`), and every state is a fixed-width row of `u32` cell ids
//! packed into one contiguous bump arena (`rows`). Breadth-first
//! exploration runs on the crate's arena kernel, which
//! [`crate::Simulator`] shares: states are interned rows, and
//! successors come from the per-`(automaton, local cell row)` firing
//! memo, so a transition rule fires at most once per distinct local
//! state and replays are `u32` row copies — no per-state heap graph, no
//! `GlobalState` clones on the hot path.
//!
//! Outgoing edges use a CSR encoding: `edges` is sorted by source (BFS
//! emits it that way), and `out_off[i]..out_off[i + 1]` delimits state
//! `i`'s slice — one flat offsets array instead of a `Vec<Vec<usize>>`.
//!
//! [`Apa::reachability_reference`] keeps the original
//! `HashMap<GlobalState, usize>` engine; the differential property
//! suite proves the arena kernel bit-identical to it (states in
//! discovery order, edges, labels, symbol numbering).

use crate::arena::{self, CellInterner, FireMemo, InterpSymbols, RowTable};
use crate::error::ApaError;
use crate::model::{Apa, GlobalState};
use crate::value::Value;
use automata::{Symbol, SymbolTable};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt::Write as _;

/// Options for [`Apa::reachability`].
#[derive(Debug, Clone)]
pub struct ReachOptions {
    /// Abort exploration beyond this many states. At most `u32::MAX`:
    /// state ids are `u32`, and a larger limit is rejected up front with
    /// [`ApaError::IdSpaceExceeded`].
    pub max_states: usize,
}

impl Default for ReachOptions {
    fn default() -> Self {
        ReachOptions {
            max_states: 1_000_000,
        }
    }
}

/// An edge label `(t, i)`: elementary automaton plus interpretation.
///
/// Both fields are interned [`Symbol`]s resolved against the owning
/// structure's [`SymbolTable`] (a [`ReachGraph`] or a
/// [`crate::sim::Simulator`]) — labels are `Copy` and comparing or
/// hashing them is integer work, so the dependence-checking pipeline
/// never clones action names per edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionLabel {
    /// The elementary automaton that fired.
    pub automaton: Symbol,
    /// The interpretation `i ∈ Φ_t` (rendered).
    pub interpretation: Symbol,
}

/// The reachability graph of an APA (arena-backed: see the module docs).
#[derive(Debug, Clone)]
pub struct ReachGraph {
    /// Distinct component-local value sets (the cell pool).
    cells: Vec<BTreeSet<Value>>,
    /// Packed state arena: state `i` is `rows[i * width..][..width]`,
    /// one cell id per component.
    rows: Vec<u32>,
    /// Row width = number of state components.
    width: usize,
    /// Number of states (tracked separately so zero-component models
    /// keep a meaningful count despite an empty arena).
    n_states: usize,
    /// Edges `(from, label, to)`, in discovery order (sorted by `from`).
    edges: Vec<(usize, TransitionLabel, usize)>,
    /// CSR offsets: state `i`'s outgoing edges are
    /// `edges[out_off[i] as usize..out_off[i + 1] as usize]`.
    out_off: Vec<u32>,
    component_names: Vec<String>,
    /// Interner shared by every edge label of this graph.
    symbols: SymbolTable,
}

/// Rejects a `max_states` the `u32` state ids cannot reach.
fn check_max_states(options: &ReachOptions) -> Result<(), ApaError> {
    arena::to_u32(options.max_states, "states").map(|_| ())
}

impl Apa {
    /// Computes the reachability graph by breadth-first exploration from
    /// the initial state, on the arena kernel (see the module docs).
    ///
    /// # Errors
    ///
    /// * [`ApaError::StateLimitExceeded`] if more than
    ///   `options.max_states` states are reachable (a model with
    ///   *exactly* `max_states` reachable states succeeds).
    /// * [`ApaError::MalformedSuccessor`] if a transition rule
    ///   misbehaves.
    pub fn reachability(&self, options: &ReachOptions) -> Result<ReachGraph, ApaError> {
        check_max_states(options)?;
        let width = self.component_count();
        let mut memo = FireMemo::new(self);
        let mut states = RowTable::new(width, "states");
        let mut symbols = SymbolTable::new();
        let aut_syms: Vec<Symbol> = self.automaton_names().map(|n| symbols.intern(n)).collect();
        let mut interp_syms = InterpSymbols::default();
        let mut edges: Vec<(usize, TransitionLabel, usize)> = Vec::new();
        states.intern(memo.initial())?;

        let mut current = vec![0u32; width];
        let mut next_row = vec![0u32; width];
        let mut local: Vec<u32> = Vec::new();

        // States indexed in discovery order *are* the BFS queue.
        let mut s = 0usize;
        while s < states.len() {
            current.copy_from_slice(states.row(s));
            for (aut_idx, aut) in self.automata.iter().enumerate() {
                local.clear();
                local.extend(aut.neighbourhood.iter().map(|c| current[c.index()]));
                for j in memo.firings(self, aut_idx, &local)? {
                    let (interp, next_cells) = memo.firing(aut_idx, j);
                    next_row.copy_from_slice(&current);
                    for (slot, c) in aut.neighbourhood.iter().enumerate() {
                        next_row[c.index()] = next_cells[slot];
                    }
                    let (t, fresh) = states.intern(&next_row)?;
                    if fresh && states.len() > options.max_states {
                        return Err(ApaError::StateLimitExceeded {
                            limit: options.max_states,
                        });
                    }
                    // Interpretations are interned at their first edge,
                    // as the reference engine interns them, so symbol
                    // numbering matches bit-for-bit.
                    let interpretation =
                        interp_syms.get(&memo, interp, |name| symbols.intern(name));
                    edges.push((
                        s,
                        TransitionLabel {
                            automaton: aut_syms[aut_idx],
                            interpretation,
                        },
                        t,
                    ));
                }
            }
            s += 1;
        }
        let n_states = states.len();
        ReachGraph::assemble(
            memo.into_cells().into_pool(),
            states.into_rows(),
            width,
            n_states,
            edges,
            self.component_names.clone(),
            symbols,
        )
    }

    /// Reference implementation: the original `HashMap<GlobalState,
    /// usize>` BFS with per-state clones. Kept (and exercised by the
    /// differential property suite and `crates/bench`) as the oracle the
    /// arena kernel must match bit-for-bit — states in discovery order,
    /// edges, labels and symbol numbering.
    ///
    /// # Errors
    ///
    /// Same as [`Apa::reachability`], with identical boundary semantics
    /// for `max_states`.
    pub fn reachability_reference(&self, options: &ReachOptions) -> Result<ReachGraph, ApaError> {
        check_max_states(options)?;
        let mut index: HashMap<GlobalState, usize> = HashMap::new();
        let mut states: Vec<GlobalState> = Vec::new();
        let mut edges: Vec<(usize, TransitionLabel, usize)> = Vec::new();
        let mut queue = VecDeque::new();
        let mut symbols = SymbolTable::new();
        let aut_syms: Vec<Symbol> = self.automaton_names().map(|n| symbols.intern(n)).collect();

        let q0 = self.initial_state().clone();
        index.insert(q0.clone(), 0);
        states.push(q0);
        queue.push_back(0usize);

        while let Some(s) = queue.pop_front() {
            let succs = self.successors(&states[s])?;
            for (aut, interp, next) in succs {
                let t = match index.get(&next) {
                    Some(&t) => t,
                    None => {
                        if states.len() >= options.max_states {
                            return Err(ApaError::StateLimitExceeded {
                                limit: options.max_states,
                            });
                        }
                        let t = states.len();
                        index.insert(next.clone(), t);
                        states.push(next);
                        queue.push_back(t);
                        t
                    }
                };
                let label = TransitionLabel {
                    automaton: aut_syms[aut.index()],
                    interpretation: symbols.intern(&interp),
                };
                edges.push((s, label, t));
            }
        }
        ReachGraph::from_decoded(states, edges, self.component_names.clone(), symbols)
    }
}

impl ReachGraph {
    /// Builds the final graph from arena parts, deriving the CSR
    /// offsets. `edges` must be sorted by source — BFS discovery order
    /// guarantees it; the counting pass below does not reorder.
    ///
    /// # Errors
    ///
    /// [`ApaError::IdSpaceExceeded`] if the edges overflow the `u32` CSR
    /// offsets.
    fn assemble(
        cells: Vec<BTreeSet<Value>>,
        rows: Vec<u32>,
        width: usize,
        n_states: usize,
        edges: Vec<(usize, TransitionLabel, usize)>,
        component_names: Vec<String>,
        symbols: SymbolTable,
    ) -> Result<Self, ApaError> {
        debug_assert!(
            edges.windows(2).all(|w| w[0].0 <= w[1].0),
            "edges by source"
        );
        arena::to_u32(edges.len(), "edges")?;
        let mut out_off = vec![0u32; n_states + 1];
        for &(f, _, _) in &edges {
            out_off[f + 1] += 1;
        }
        for i in 1..out_off.len() {
            out_off[i] += out_off[i - 1];
        }
        Ok(ReachGraph {
            cells,
            rows,
            width,
            n_states,
            edges,
            out_off,
            component_names,
            symbols,
        })
    }

    /// Encodes fully decoded states into the arena representation (used
    /// by [`Apa::reachability_reference`]).
    fn from_decoded(
        states: Vec<GlobalState>,
        edges: Vec<(usize, TransitionLabel, usize)>,
        component_names: Vec<String>,
        symbols: SymbolTable,
    ) -> Result<Self, ApaError> {
        let width = component_names.len();
        let n_states = states.len();
        let mut cells = CellInterner::default();
        let mut rows = Vec::with_capacity(n_states * width);
        for state in &states {
            for set in state {
                rows.push(cells.intern(set)?);
            }
        }
        ReachGraph::assemble(
            cells.into_pool(),
            rows,
            width,
            n_states,
            edges,
            component_names,
            symbols,
        )
    }

    /// The packed cell-id row of state `i`.
    fn row(&self, i: usize) -> &[u32] {
        &self.rows[i * self.width..][..self.width]
    }

    /// Number of reachable states.
    pub fn state_count(&self) -> usize {
        self.n_states
    }

    /// Number of transitions.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The global state with index `i` (0 is the initial state), decoded
    /// from the arena into an owned value.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn state(&self, i: usize) -> GlobalState {
        assert!(i < self.n_states, "state out of range");
        self.row(i)
            .iter()
            .map(|&cid| self.cells[cid as usize].clone())
            .collect()
    }

    /// The SH-tool style name of state `i`: `M-1` for the initial state,
    /// `M-2`, … in discovery order.
    pub fn state_label(&self, i: usize) -> String {
        format!("M-{}", i + 1)
    }

    /// The interner resolving this graph's edge-label [`Symbol`]s.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Resolves a label symbol to its name.
    ///
    /// # Panics
    ///
    /// Panics if `s` does not belong to this graph's table.
    pub fn name(&self, s: Symbol) -> &str {
        self.symbols.name(s)
    }

    /// Iterates over all edges `(from, label, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, TransitionLabel, usize)> + '_ {
        self.edges.iter().map(|(f, l, t)| (*f, *l, *t))
    }

    /// Outgoing edges of state `i` — one contiguous CSR slice, no
    /// indirection through per-state index vectors.
    pub fn outgoing(&self, i: usize) -> impl Iterator<Item = (usize, TransitionLabel, usize)> + '_ {
        self.edges[self.out_off[i] as usize..self.out_off[i + 1] as usize]
            .iter()
            .map(|(f, l, t)| (*f, *l, *t))
    }

    /// The CSR successor layout: `(offsets, targets)` with state `i`'s
    /// successor states at `targets[offsets[i] as usize..offsets[i + 1]
    /// as usize]` (one entry per edge, parallel to edge order). The
    /// offsets borrow; the targets are materialised on demand.
    pub fn csr_successors(&self) -> (&[u32], Vec<u32>) {
        let targets = self
            .edges
            .iter()
            // Construction keeps every state id within u32 (see
            // `ReachOptions::max_states`), so the cast is exact.
            .map(|&(_, _, t)| t as u32)
            .collect();
        (&self.out_off, targets)
    }

    /// States without outgoing transitions — the SH tool's *dead* states.
    pub fn dead_states(&self) -> Vec<usize> {
        (0..self.n_states)
            .filter(|&i| self.out_off[i] == self.out_off[i + 1])
            .collect()
    }

    /// The *minima* of the functional-dependence order: the automata
    /// labelling edges that leave the initial state. §5.4: "Every action
    /// that leaves the initial state on any of the traces is obviously a
    /// minimum, because it does not functionally depend on any other
    /// action to have occurred before."
    pub fn minima(&self) -> Vec<String> {
        self.minima_syms()
            .into_iter()
            .map(|s| self.symbols.name(s).to_owned())
            .collect()
    }

    /// The minima as interned symbols, sorted by name (same order as
    /// [`ReachGraph::minima`]).
    pub fn minima_syms(&self) -> Vec<Symbol> {
        let set: BTreeSet<Symbol> = self.outgoing(0).map(|(_, l, _)| l.automaton).collect();
        let mut v: Vec<Symbol> = set.into_iter().collect();
        v.sort_by_key(|s| self.symbols.name(*s));
        v
    }

    /// The *maxima*: the automata labelling edges into dead states.
    /// §5.4: "In order to identify the maxima we investigate those
    /// actions leading to the dead state from any trace. These actions
    /// do not trigger any further action after they have been performed."
    pub fn maxima(&self) -> Vec<String> {
        self.maxima_syms()
            .into_iter()
            .map(|s| self.symbols.name(s).to_owned())
            .collect()
    }

    /// The maxima as interned symbols, sorted by name (same order as
    /// [`ReachGraph::maxima`]).
    pub fn maxima_syms(&self) -> Vec<Symbol> {
        let dead = self.dead_state_mask();
        let set: BTreeSet<Symbol> = self
            .edges()
            .filter(|(_, _, t)| dead[*t])
            .map(|(_, l, _)| l.automaton)
            .collect();
        let mut v: Vec<Symbol> = set.into_iter().collect();
        v.sort_by_key(|s| self.symbols.name(*s));
        v
    }

    /// `mask[i]` is `true` iff state `i` has no outgoing transition.
    fn dead_state_mask(&self) -> Vec<bool> {
        (0..self.n_states)
            .map(|i| self.out_off[i] == self.out_off[i + 1])
            .collect()
    }

    /// Renders the minima/maxima listing in the style of the paper's
    /// Example 6 output.
    ///
    /// Each automaton appears at most once per section (its first
    /// discovery), matching the deduplication of
    /// [`ReachGraph::minima`] / [`ReachGraph::maxima`]; earlier versions
    /// printed one line per *edge* and thus repeated an action for every
    /// interpretation or interleaving it occurred with.
    pub fn min_max_listing(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "The minima of this analysis:");
        let mut seen = vec![false; self.symbols.len()];
        for (_, l, t) in self.outgoing(0) {
            if !std::mem::replace(&mut seen[l.automaton.index()], true) {
                let _ = writeln!(s, "  {} {}", self.name(l.automaton), self.state_label(t));
            }
        }
        let _ = writeln!(s, "The corresponding maxima:");
        let dead = self.dead_state_mask();
        let mut seen = vec![false; self.symbols.len()];
        for (f, l, t) in self.edges() {
            if dead[t] && !std::mem::replace(&mut seen[l.automaton.index()], true) {
                let _ = writeln!(s, "  {} {}", self.state_label(f), self.name(l.automaton));
            }
        }
        for d in self.dead_states() {
            let _ = writeln!(s, "  {}+\n  +++ dead +++", self.state_label(d));
        }
        s
    }

    /// Converts the behaviour to an NFA over *automaton names*: every
    /// state accepting (the language is the prefix-closed set of action
    /// sequences), initial state `M-1`.
    ///
    /// This is the input to the homomorphism-based abstraction of §5.5.
    pub fn to_nfa(&self) -> automata::Nfa {
        let mut b = automata::Nfa::builder();
        let states: Vec<_> = (0..self.state_count()).map(|_| b.state(true)).collect();
        if !states.is_empty() {
            b.initial(states[0]);
        }
        // One alphabet lookup per *distinct* automaton symbol, not per
        // edge: translate Symbol → SymId through a dense cache.
        let mut sym_cache: Vec<Option<automata::SymId>> = vec![None; self.symbols.len()];
        for (f, l, t) in self.edges() {
            let slot = &mut sym_cache[l.automaton.index()];
            let sym = match *slot {
                Some(sym) => sym,
                None => {
                    let sym = b.symbol(self.symbols.name(l.automaton));
                    *slot = Some(sym);
                    sym
                }
            };
            b.edge(states[f], Some(sym), states[t]);
        }
        b.build()
    }

    /// Converts the graph structure to a [`fsa_graph::DiGraph`] whose
    /// payloads are the `M-i` state labels (edge labels are dropped).
    pub fn to_digraph(&self) -> fsa_graph::DiGraph<String> {
        let mut g = fsa_graph::DiGraph::with_capacity(self.state_count());
        let ids: Vec<_> = (0..self.state_count())
            .map(|i| g.add_node(self.state_label(i)))
            .collect();
        for (f, _, t) in self.edges() {
            g.add_edge(ids[f], ids[t]);
        }
        g
    }

    /// Renders the reachability graph to Graphviz DOT with `(t, i)` edge
    /// labels — the analogue of the paper's Figs. 7 and 9.
    pub fn to_dot(&self, name: &str) -> String {
        let mut s = String::new();
        let clean: String = name
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let _ = writeln!(
            s,
            "digraph {} {{",
            if clean.is_empty() { "g" } else { &clean }
        );
        let _ = writeln!(s, "  rankdir=TB;");
        let _ = writeln!(s, "  node [shape=circle, fontsize=10];");
        for i in 0..self.state_count() {
            let _ = writeln!(s, "  q{} [label=\"{}\"];", i, self.state_label(i));
        }
        for (f, l, t) in self.edges() {
            let _ = writeln!(
                s,
                "  q{} -> q{} [label=\"{} ({})\"];",
                f,
                t,
                self.name(l.automaton),
                self.name(l.interpretation).replace('"', "'")
            );
        }
        s.push_str("}\n");
        s
    }

    /// Checks a state invariant over the whole reachable state space
    /// (the SH tool's "exhaustive validation"). Returns `None` if every
    /// reachable state satisfies `invariant`, otherwise the first
    /// violating state (in discovery order) together with a shortest
    /// transition sequence leading to it from the initial state.
    pub fn check_invariant(
        &self,
        invariant: impl Fn(&GlobalState) -> bool,
    ) -> Option<(usize, Vec<TransitionLabel>)> {
        let violating = (0..self.state_count()).find(|&i| !invariant(&self.state(i)))?;
        Some((violating, self.trace_to(violating)))
    }

    /// A shortest transition sequence from the initial state to state
    /// `target` (empty for the initial state itself).
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn trace_to(&self, target: usize) -> Vec<TransitionLabel> {
        assert!(target < self.state_count(), "state out of range");
        // BFS with parent edges.
        let mut parent: Vec<Option<usize>> = vec![None; self.state_count()]; // edge index
        let mut seen = vec![false; self.state_count()];
        seen[0] = true;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(0usize);
        while let Some(s) = queue.pop_front() {
            if s == target {
                break;
            }
            for e in self.out_off[s] as usize..self.out_off[s + 1] as usize {
                let (_, _, t) = &self.edges[e];
                if !seen[*t] {
                    seen[*t] = true;
                    parent[*t] = Some(e);
                    queue.push_back(*t);
                }
            }
        }
        let mut trace = Vec::new();
        let mut cur = target;
        while let Some(e) = parent[cur] {
            let (f, label, _) = &self.edges[e];
            trace.push(*label);
            cur = *f;
        }
        trace.reverse();
        trace
    }

    /// Resolves a trace of labels to automaton names — convenience for
    /// rendering [`ReachGraph::trace_to`] /
    /// [`ReachGraph::check_invariant`] witnesses.
    pub fn trace_names(&self, trace: &[TransitionLabel]) -> Vec<&str> {
        trace.iter().map(|l| self.name(l.automaton)).collect()
    }

    /// Pretty-prints one global state, e.g. for inspecting the tool's
    /// `M-k` states.
    pub fn format_state(&self, i: usize) -> String {
        let mut s = String::new();
        let _ = write!(s, "{}:", self.state_label(i));
        for (c, &cid) in self.row(i).iter().enumerate() {
            let set = &self.cells[cid as usize];
            if set.is_empty() {
                continue;
            }
            let items: Vec<String> = set.iter().map(|v| v.to_string()).collect();
            let _ = write!(s, " {}={{{}}}", self.component_names[c], items.join(","));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ApaBuilder;
    use crate::rule;
    use crate::value::Value;

    /// Two independent one-shot moves: a 4-state diamond.
    fn diamond_apa() -> Apa {
        let mut b = ApaBuilder::new();
        let a_src = b.component("a_src", [Value::atom("x")]);
        let a_dst = b.component("a_dst", []);
        let b_src = b.component("b_src", [Value::atom("y")]);
        let b_dst = b.component("b_dst", []);
        b.automaton("move_a", [a_src, a_dst], rule::move_any(0, 1));
        b.automaton("move_b", [b_src, b_dst], rule::move_any(0, 1));
        b.build().unwrap()
    }

    /// Asserts two graphs are bit-identical observationally: states in
    /// discovery order, edges with resolved label names, listings.
    fn assert_graphs_identical(a: &ReachGraph, b: &ReachGraph) {
        assert_eq!(a.state_count(), b.state_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for i in 0..a.state_count() {
            assert_eq!(a.state(i), b.state(i), "state {i}");
        }
        let ae: Vec<_> = a
            .edges()
            .map(|(f, l, t)| {
                (
                    f,
                    a.name(l.automaton).to_owned(),
                    a.name(l.interpretation).to_owned(),
                    t,
                )
            })
            .collect();
        let be: Vec<_> = b
            .edges()
            .map(|(f, l, t)| {
                (
                    f,
                    b.name(l.automaton).to_owned(),
                    b.name(l.interpretation).to_owned(),
                    t,
                )
            })
            .collect();
        assert_eq!(ae, be);
        // Raw symbol ids must match too (labels are compared as ints
        // downstream), not just resolved names.
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        assert_eq!(a.min_max_listing(), b.min_max_listing());
        assert_eq!(a.dead_states(), b.dead_states());
    }

    #[test]
    fn diamond_reachability() {
        let g = diamond_apa()
            .reachability(&ReachOptions::default())
            .unwrap();
        assert_eq!(g.state_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.dead_states().len(), 1);
        assert_eq!(g.minima(), vec!["move_a".to_owned(), "move_b".to_owned()]);
        assert_eq!(g.maxima(), vec!["move_a".to_owned(), "move_b".to_owned()]);
    }

    #[test]
    fn chain_reachability() {
        let mut b = ApaBuilder::new();
        let c0 = b.component("c0", [Value::atom("x")]);
        let c1 = b.component("c1", []);
        let c2 = b.component("c2", []);
        b.automaton("first", [c0, c1], rule::move_any(0, 1));
        b.automaton("second", [c1, c2], rule::move_any(0, 1));
        let g = b
            .build()
            .unwrap()
            .reachability(&ReachOptions::default())
            .unwrap();
        assert_eq!(g.state_count(), 3);
        assert_eq!(g.minima(), vec!["first".to_owned()]);
        assert_eq!(g.maxima(), vec!["second".to_owned()]);
        assert_eq!(g.state_label(0), "M-1");
        assert!(g.format_state(0).contains("c0={x}"));
    }

    #[test]
    fn arena_kernel_matches_reference() {
        let apa = diamond_apa();
        let arena = apa.reachability(&ReachOptions::default()).unwrap();
        let reference = apa
            .reachability_reference(&ReachOptions::default())
            .unwrap();
        assert_graphs_identical(&arena, &reference);
    }

    #[test]
    fn arena_kernel_matches_reference_on_cycles() {
        let mut b = ApaBuilder::new();
        let ping = b.component("ping", [Value::atom("t")]);
        let pong = b.component("pong", []);
        b.automaton("serve", [ping, pong], rule::move_any(0, 1));
        b.automaton("return", [pong, ping], rule::move_any(0, 1));
        let apa = b.build().unwrap();
        let arena = apa.reachability(&ReachOptions::default()).unwrap();
        let reference = apa
            .reachability_reference(&ReachOptions::default())
            .unwrap();
        assert_graphs_identical(&arena, &reference);
    }

    #[test]
    fn state_limit_enforced() {
        let apa = diamond_apa();
        let err = apa
            .reachability(&ReachOptions { max_states: 2 })
            .unwrap_err();
        assert_eq!(err, ApaError::StateLimitExceeded { limit: 2 });
    }

    #[test]
    fn state_limit_boundary_is_exact() {
        // The diamond has exactly 4 reachable states: a limit of 4 must
        // succeed and a limit of 3 must fail, identically on the arena
        // kernel and the reference engine.
        let apa = diamond_apa();
        for (limit, ok) in [(4usize, true), (3, false)] {
            let opts = ReachOptions { max_states: limit };
            let outcomes = [
                apa.reachability(&opts).map(|g| g.state_count()),
                apa.reachability_reference(&opts).map(|g| g.state_count()),
            ];
            for (i, got) in outcomes.into_iter().enumerate() {
                if ok {
                    assert_eq!(got, Ok(4), "engine {i} at limit {limit}");
                } else {
                    assert_eq!(
                        got,
                        Err(ApaError::StateLimitExceeded { limit }),
                        "engine {i} at limit {limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn malformed_rule_reported_by_arena_kernel() {
        use crate::rule::{LocalState, TransitionRule};
        struct Bad;
        impl TransitionRule for Bad {
            fn fire(&self, _local: &LocalState) -> Vec<(String, LocalState)> {
                vec![("bad".into(), vec![])]
            }
        }
        let mut b = ApaBuilder::new();
        let c = b.component("c", [Value::atom("x")]);
        b.automaton("t", [c], Box::new(Bad));
        let apa = b.build().unwrap();
        assert!(matches!(
            apa.reachability(&ReachOptions::default()),
            Err(ApaError::MalformedSuccessor { .. })
        ));
    }

    #[test]
    fn to_nfa_language() {
        let g = diamond_apa()
            .reachability(&ReachOptions::default())
            .unwrap();
        let nfa = g.to_nfa();
        assert!(nfa.all_accepting());
        assert!(nfa.accepts(["move_a", "move_b"]));
        assert!(nfa.accepts(["move_b", "move_a"]));
        assert!(nfa.accepts(["move_a"]));
        assert!(!nfa.accepts(["move_a", "move_a"]));
    }

    #[test]
    fn to_digraph_shape() {
        let g = diamond_apa()
            .reachability(&ReachOptions::default())
            .unwrap();
        let dg = g.to_digraph();
        assert_eq!(dg.node_count(), 4);
        assert_eq!(dg.edge_count(), 4);
        assert_eq!(dg.sources().len(), 1);
        assert_eq!(dg.sinks().len(), 1);
        assert_eq!(dg.payload(dg.sources()[0]), "M-1");
    }

    #[test]
    fn dot_and_listing_render() {
        let g = diamond_apa()
            .reachability(&ReachOptions::default())
            .unwrap();
        let dot = g.to_dot("fig 7");
        assert!(dot.starts_with("digraph fig7 {"));
        assert!(dot.contains("move_a"));
        let listing = g.min_max_listing();
        assert!(listing.contains("minima"));
        assert!(listing.contains("+++ dead +++"));
    }

    #[test]
    fn listing_dedupes_multi_interpretation_actions() {
        // One automaton, two interpretations: two edges leave M-1 and
        // two edges enter the dead state, all labelled `move`. The
        // listing must name `move` once per section — the per-edge
        // rendering used to repeat it for every interpretation.
        let mut b = ApaBuilder::new();
        let src = b.component("src", [Value::atom("x"), Value::atom("y")]);
        let dst = b.component("dst", []);
        b.automaton("move", [src, dst], rule::move_any(0, 1));
        let g = b
            .build()
            .unwrap()
            .reachability(&ReachOptions::default())
            .unwrap();
        assert_eq!(g.outgoing(0).count(), 2, "two interpretations fire");
        let listing = g.min_max_listing();
        let move_lines = listing.lines().filter(|l| l.contains("move")).count();
        assert_eq!(
            move_lines, 2,
            "once as minimum, once as maximum:\n{listing}"
        );
        assert_eq!(g.minima(), vec!["move"]);
        assert_eq!(g.maxima(), vec!["move"]);
        assert_eq!(g.minima_syms().len(), 1);
        assert_eq!(g.maxima_syms().len(), 1);
        assert_eq!(g.name(g.minima_syms()[0]), "move");
    }

    #[test]
    fn invariant_holding_everywhere() {
        let g = diamond_apa()
            .reachability(&ReachOptions::default())
            .unwrap();
        // Total token count is conserved (always 2).
        let verdict =
            g.check_invariant(|state| state.iter().map(|set| set.len()).sum::<usize>() == 2);
        assert_eq!(verdict, None);
    }

    #[test]
    fn invariant_violation_with_shortest_trace() {
        let g = diamond_apa()
            .reachability(&ReachOptions::default())
            .unwrap();
        // "a_dst never filled" is violated; shortest witness is one step.
        let (state, trace) = g
            .check_invariant(|s| s[1].is_empty()) // a_dst is component 1
            .expect("violated");
        assert!(!g.state(state)[1].is_empty());
        assert_eq!(trace.len(), 1);
        assert_eq!(g.name(trace[0].automaton), "move_a");
    }

    #[test]
    fn trace_to_initial_is_empty() {
        let g = diamond_apa()
            .reachability(&ReachOptions::default())
            .unwrap();
        assert!(g.trace_to(0).is_empty());
    }

    #[test]
    fn trace_to_dead_state_has_all_moves() {
        let g = diamond_apa()
            .reachability(&ReachOptions::default())
            .unwrap();
        let dead = g.dead_states()[0];
        let trace = g.trace_to(dead);
        assert_eq!(trace.len(), 2);
        let mut names = g.trace_names(&trace);
        names.sort_unstable();
        assert_eq!(names, vec!["move_a", "move_b"]);
    }

    #[test]
    fn csr_successors_parallel_to_edges() {
        let g = diamond_apa()
            .reachability(&ReachOptions::default())
            .unwrap();
        let (offsets, targets) = g.csr_successors();
        assert_eq!(offsets.len(), g.state_count() + 1);
        assert_eq!(targets.len(), g.edge_count());
        for i in 0..g.state_count() {
            let via_csr: Vec<usize> = targets[offsets[i] as usize..offsets[i + 1] as usize]
                .iter()
                .map(|&t| t as usize)
                .collect();
            let via_iter: Vec<usize> = g.outgoing(i).map(|(_, _, t)| t).collect();
            assert_eq!(via_csr, via_iter, "state {i}");
        }
    }

    #[test]
    fn max_states_beyond_u32_state_ids_is_rejected_up_front() {
        // u32::MAX is the largest limit the state ids can honour; one
        // more is a typed error on both engines, before any exploration.
        let apa = diamond_apa();
        let at_ceiling = ReachOptions {
            max_states: u32::MAX as usize,
        };
        assert_eq!(
            apa.reachability(&at_ceiling).map(|g| g.state_count()),
            Ok(4)
        );
        assert_eq!(
            apa.reachability_reference(&at_ceiling)
                .map(|g| g.state_count()),
            Ok(4)
        );
        let Ok(beyond) = usize::try_from(u64::from(u32::MAX) + 1) else {
            return; // a 32-bit usize cannot express the limit at all
        };
        let expected = Err(ApaError::IdSpaceExceeded {
            space: "states",
            requested: u64::from(u32::MAX) + 1,
        });
        let opts = ReachOptions { max_states: beyond };
        assert_eq!(apa.reachability(&opts).map(|g| g.state_count()), expected);
        assert_eq!(
            apa.reachability_reference(&opts).map(|g| g.state_count()),
            expected
        );
    }

    #[test]
    fn cyclic_behaviour_has_no_dead_state() {
        let mut b = ApaBuilder::new();
        let ping = b.component("ping", [Value::atom("t")]);
        let pong = b.component("pong", []);
        b.automaton("serve", [ping, pong], rule::move_any(0, 1));
        b.automaton("return", [pong, ping], rule::move_any(0, 1));
        let g = b
            .build()
            .unwrap()
            .reachability(&ReachOptions::default())
            .unwrap();
        assert_eq!(g.state_count(), 2);
        assert!(g.dead_states().is_empty());
        assert!(g.maxima().is_empty());
    }
}
