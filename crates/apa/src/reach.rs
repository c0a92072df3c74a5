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
//! exploration builds the crate's arena state graph, which
//! [`crate::Simulator`] builds too: states are interned rows, and
//! successors come from the per-`(automaton, local cell row)` firing
//! memo, so a transition rule fires at most once per distinct local
//! state and replays are `u32` row copies — no per-state heap graph, no
//! `GlobalState` clones on the hot path.
//!
//! Outgoing edges use a CSR encoding: the explored graph's edge array,
//! sorted by source (states are expanded in id order), and
//! `out_off[i]..out_off[i + 1]` delimits state `i`'s slice — one flat
//! offsets array instead of a `Vec<Vec<usize>>`.
//!
//! The tests check every graph against a reference engine kept as an
//! oracle (`reach/reference.rs`): the original `HashMap<GlobalState,
//! usize>` search over [`Apa::successors`], which must give the same
//! states in discovery order, edges, labels and symbol numbering.

use crate::arena::{self, Edge, StateGraph};
use crate::error::ApaError;
use crate::model::{Apa, GlobalState};
use crate::value::Value;
use automata::{Symbol, SymbolTable};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Options for [`Apa::reachability`].
#[derive(Debug, Clone)]
pub struct ReachOptions {
    /// Abort exploration beyond this many states. At most `u32::MAX`:
    /// state ids are `u32`, and a larger limit is rejected up front with
    /// [`ApaError::IdSpaceExceeded`].
    ///
    /// The bound applies to each graph that is actually built. The
    /// fragment-wise §5 engine (`fsa_core::assisted::elicit_apa`) explores
    /// every fragment of [`Apa::fragments`] alone, so there it bounds
    /// each fragment, not the recomposed product, whose size is only
    /// computed (with checked arithmetic).
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
    /// The explored graph's edges, by source. An edge's automaton `k` is
    /// symbol `k` of `symbols`, and its interpretation a symbol there.
    edges: Vec<Edge>,
    /// CSR offsets: state `i`'s outgoing edges are
    /// `edges[out_off[i] as usize..out_off[i + 1] as usize]`.
    out_off: Vec<u32>,
    /// Interner shared by every edge label of this graph.
    symbols: SymbolTable,
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
        arena::to_u32(options.max_states, "states")?;
        // The memo's table is the graph's label table: the automaton
        // names first, then interpretations in order of first firing,
        // which is the order of their first edges, since every firing of
        // a new memo entry becomes an edge of the state being expanded.
        let mut symbols = arena::interpretations(self);
        let mut graph = StateGraph::new(self);
        // States are expanded in id order, so each one's edges start
        // where the last one's end.
        let mut out_off = vec![0];
        // States indexed in discovery order *are* the BFS queue.
        let mut s = 0usize;
        while s < graph.states.len() {
            let (lo, hi) = graph.expand(s, &mut symbols).map_err(|(_, e)| e)?;
            out_off.push(hi);
            for at in lo as usize..hi as usize {
                let (_, fresh) = graph.take(s, at)?;
                if fresh && graph.states.len() > options.max_states {
                    return Err(ApaError::StateLimitExceeded {
                        limit: options.max_states,
                    });
                }
            }
            s += 1;
        }
        Ok(ReachGraph {
            width: self.component_count(),
            cells: graph.memo.into_cells().into_pool(),
            rows: graph.states.into_rows(),
            edges: graph.edges,
            out_off,
            symbols,
        })
    }
}

/// The label of a graph edge: automaton `k` is symbol `k`.
fn label(edge: &Edge) -> TransitionLabel {
    TransitionLabel {
        automaton: Symbol::new(edge.automaton as usize),
        interpretation: edge.interp,
    }
}

impl ReachGraph {
    /// The packed cell-id row of state `i`.
    fn row(&self, i: usize) -> &[u32] {
        &self.rows[i * self.width..][..self.width]
    }

    /// Number of reachable states.
    pub fn state_count(&self) -> usize {
        self.out_off.len() - 1
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
        assert!(i < self.state_count(), "state out of range");
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
        (0..self.state_count()).flat_map(|i| self.outgoing(i))
    }

    /// Outgoing edges of state `i` — one contiguous CSR slice, no
    /// indirection through per-state index vectors.
    pub fn outgoing(&self, i: usize) -> impl Iterator<Item = (usize, TransitionLabel, usize)> + '_ {
        self.edges[self.out_off[i] as usize..self.out_off[i + 1] as usize]
            .iter()
            .map(move |e| (i, label(e), e.target as usize))
    }

    /// States without outgoing transitions — the SH tool's *dead* states.
    pub fn dead_states(&self) -> Vec<usize> {
        (0..self.state_count())
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

    /// The automata that fire on some run from the initial state on
    /// which `avoid` never fires, as a set of symbol indices
    /// ([`Symbol::index`]). `avoid` itself is never in it.
    ///
    /// This decides §5.5 precedence on the graph itself: a maximum
    /// functionally depends on a minimum iff it is not in
    /// `fireable_avoiding(minimum)`, i.e. it cannot occur before the
    /// minimum has occurred. One walk answers every maximum at once.
    pub fn fireable_avoiding(&self, avoid: Symbol) -> fsa_graph::BitSet {
        let mut fired = fsa_graph::BitSet::new(self.symbols.len());
        let mut seen = fsa_graph::BitSet::new(self.state_count());
        seen.insert(0);
        let mut stack = vec![0usize];
        while let Some(s) = stack.pop() {
            for (_, label, t) in self.outgoing(s) {
                if label.automaton == avoid {
                    continue;
                }
                fired.insert(label.automaton.index());
                if seen.insert(t) {
                    stack.push(t);
                }
            }
        }
        fired
    }

    /// `mask[i]` is `true` iff state `i` has no outgoing transition.
    fn dead_state_mask(&self) -> Vec<bool> {
        (0..self.state_count())
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
        let mut parent: Vec<Option<(usize, TransitionLabel)>> = vec![None; self.state_count()];
        let mut seen = vec![false; self.state_count()];
        seen[0] = true;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(0usize);
        while let Some(s) = queue.pop_front() {
            if s == target {
                break;
            }
            for (_, label, t) in self.outgoing(s) {
                if !seen[t] {
                    seen[t] = true;
                    parent[t] = Some((s, label));
                    queue.push_back(t);
                }
            }
        }
        let mut trace = Vec::new();
        let mut cur = target;
        while let Some((f, label)) = parent[cur] {
            trace.push(label);
            cur = f;
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
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ApaBuilder;
    use crate::rule::{self, LocalState, TransitionRule};
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

    /// The graph of `apa`, after checking it against the reference
    /// engine: the states in discovery order, the raw edge stream and the
    /// symbol table.
    fn reach(apa: &Apa) -> ReachGraph {
        let g = apa.reachability(&ReachOptions::default()).unwrap();
        let oracle = reference::reachability(apa, &ReachOptions::default()).unwrap();
        let states: Vec<GlobalState> = (0..g.state_count()).map(|i| g.state(i)).collect();
        assert_eq!(states, oracle.states);
        assert_eq!(g.edges().collect::<Vec<_>>(), oracle.edges);
        let table = |t: &SymbolTable| t.iter().map(|(s, n)| (s, n.to_owned())).collect::<Vec<_>>();
        assert_eq!(table(g.symbols()), table(&oracle.symbols));
        g
    }

    /// Both engines' state counts, or their errors, under `max_states`.
    fn outcomes(apa: &Apa, max_states: usize) -> [Result<usize, ApaError>; 2] {
        let opts = ReachOptions { max_states };
        [
            apa.reachability(&opts).map(|g| g.state_count()),
            reference::reachability(apa, &opts).map(|r| r.states.len()),
        ]
    }

    /// A rule whose one firing has no local state at all.
    struct Bad;

    impl TransitionRule for Bad {
        fn fire(&self, _local: &LocalState) -> Vec<(String, LocalState)> {
            vec![("bad".into(), vec![])]
        }
    }

    #[test]
    fn diamond_reachability() {
        let g = reach(&diamond_apa());
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
        let g = reach(&b.build().unwrap());
        assert_eq!(g.state_count(), 3);
        assert_eq!(g.minima(), vec!["first".to_owned()]);
        assert_eq!(g.maxima(), vec!["second".to_owned()]);
        assert_eq!(g.state_label(0), "M-1");
    }

    #[test]
    fn cycles_match_the_reference() {
        let mut b = ApaBuilder::new();
        let ping = b.component("ping", [Value::atom("t")]);
        let pong = b.component("pong", []);
        b.automaton("serve", [ping, pong], rule::move_any(0, 1));
        b.automaton("return", [pong, ping], rule::move_any(0, 1));
        assert_eq!(reach(&b.build().unwrap()).edge_count(), 2);
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
        assert_eq!(outcomes(&apa, 4), [Ok(4), Ok(4)]);
        let over = Err(ApaError::StateLimitExceeded { limit: 3 });
        assert_eq!(outcomes(&apa, 3), [over.clone(), over]);
    }

    #[test]
    fn malformed_rule_reported_by_arena_kernel() {
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
    fn a_malformed_rule_beats_the_state_limit_on_both_engines() {
        // At q₀ `move` finds a second state, one past the limit, and
        // `bad`, declared after it, misbehaves. Both engines fire every
        // automaton at a state before they intern any of its targets, so
        // both report the rule.
        let mut b = ApaBuilder::new();
        let src = b.component("src", [Value::atom("x")]);
        let dst = b.component("dst", []);
        b.automaton("move", [src, dst], rule::move_any(0, 1));
        b.automaton("bad", [src], Box::new(Bad));
        let malformed = Err(ApaError::MalformedSuccessor {
            automaton: "bad".into(),
            expected: 1,
            got: 0,
        });
        assert_eq!(
            outcomes(&b.build().unwrap(), 1),
            [malformed.clone(), malformed]
        );
    }

    #[test]
    fn to_nfa_language() {
        let g = reach(&diamond_apa());
        let nfa = g.to_nfa();
        assert!(nfa.all_accepting());
        assert!(nfa.accepts(["move_a", "move_b"]));
        assert!(nfa.accepts(["move_b", "move_a"]));
        assert!(nfa.accepts(["move_a"]));
        assert!(!nfa.accepts(["move_a", "move_a"]));
    }

    #[test]
    fn dot_and_listing_render() {
        let g = reach(&diamond_apa());
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
        let g = reach(&b.build().unwrap());
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

    /// The names [`ReachGraph::fireable_avoiding`] yields for `avoid`,
    /// after checking the sweep against the NFA-level precedence oracle
    /// for every other automaton.
    fn fireable_names(g: &ReachGraph, avoid: &str) -> Vec<String> {
        let avoid = g.symbols().get(avoid).expect("known automaton");
        let fired = g.fireable_avoiding(avoid);
        let nfa = g.to_nfa();
        let automata: BTreeSet<Symbol> = g.edges().map(|(_, l, _)| l.automaton).collect();
        for &b in automata.iter().filter(|&&b| b != avoid) {
            assert_eq!(
                !fired.contains(b.index()),
                automata::temporal::precedes(&nfa, g.name(avoid), g.name(b)),
                "({}, {})",
                g.name(avoid),
                g.name(b)
            );
        }
        fired
            .iter()
            .map(|i| g.name(Symbol::new(i)).to_owned())
            .collect()
    }

    #[test]
    fn fireable_avoiding_sees_through_a_cycle_only_past_the_minimum() {
        // serve ⇄ return, and finish leaves the cycle from the state
        // only `serve` enters: the maximum is reached only round a
        // cycle that contains the minimum.
        let mut b = ApaBuilder::new();
        let ping = b.component("ping", [Value::atom("t")]);
        let pong = b.component("pong", []);
        let done = b.component("done", []);
        b.automaton("serve", [ping, pong], rule::move_any(0, 1));
        b.automaton("return", [pong, ping], rule::move_any(0, 1));
        b.automaton("finish", [pong, done], rule::move_any(0, 1));
        let g = reach(&b.build().unwrap());
        assert_eq!(g.minima(), vec!["serve"]);
        assert_eq!(g.maxima(), vec!["finish"]);
        assert!(fireable_names(&g, "serve").is_empty());
        assert_eq!(fireable_names(&g, "return"), vec!["serve", "finish"]);
        assert_eq!(fireable_names(&g, "finish"), vec!["serve", "return"]);
    }

    #[test]
    fn fireable_avoiding_skips_every_interpretation_of_the_minimum() {
        // `first` fires with two interpretations from M-1; avoiding it
        // must skip both edges, or `second` would look independent.
        let mut b = ApaBuilder::new();
        let src = b.component("src", [Value::atom("x"), Value::atom("y")]);
        let mid = b.component("mid", []);
        let dst = b.component("dst", []);
        b.automaton("first", [src, mid], rule::move_any(0, 1));
        b.automaton("second", [mid, dst], rule::move_any(0, 1));
        let g = reach(&b.build().unwrap());
        assert_eq!(g.outgoing(0).count(), 2, "two interpretations fire");
        assert!(fireable_names(&g, "first").is_empty());
        assert_eq!(fireable_names(&g, "second"), vec!["first"]);
    }

    #[test]
    fn fireable_avoiding_never_holds_the_avoided_automaton() {
        // In the diamond both moves are minima and maxima.
        let g = reach(&diamond_apa());
        assert_eq!(g.minima(), g.maxima());
        assert_eq!(fireable_names(&g, "move_a"), vec!["move_b"]);
        assert_eq!(fireable_names(&g, "move_b"), vec!["move_a"]);
    }

    #[test]
    fn invariant_holding_everywhere() {
        let g = reach(&diamond_apa());
        // Total token count is conserved (always 2).
        let verdict =
            g.check_invariant(|state| state.iter().map(|set| set.len()).sum::<usize>() == 2);
        assert_eq!(verdict, None);
    }

    #[test]
    fn invariant_violation_with_shortest_trace() {
        let g = reach(&diamond_apa());
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
        let g = reach(&diamond_apa());
        assert!(g.trace_to(0).is_empty());
    }

    #[test]
    fn trace_to_dead_state_has_all_moves() {
        let g = reach(&diamond_apa());
        let dead = g.dead_states()[0];
        let trace = g.trace_to(dead);
        assert_eq!(trace.len(), 2);
        let mut names = g.trace_names(&trace);
        names.sort_unstable();
        assert_eq!(names, vec!["move_a", "move_b"]);
    }

    #[test]
    fn max_states_beyond_u32_state_ids_is_rejected_up_front() {
        // u32::MAX is the largest limit the state ids can honour; one
        // more is a typed error on both engines, before any exploration.
        let apa = diamond_apa();
        assert_eq!(outcomes(&apa, u32::MAX as usize), [Ok(4), Ok(4)]);
        let Ok(beyond) = usize::try_from(u64::from(u32::MAX) + 1) else {
            return; // a 32-bit usize cannot express the limit at all
        };
        let expected = Err(ApaError::IdSpaceExceeded {
            space: "states",
            requested: u64::from(u32::MAX) + 1,
        });
        assert_eq!(outcomes(&apa, beyond), [expected.clone(), expected]);
    }

    #[test]
    fn cyclic_behaviour_has_no_dead_state() {
        let mut b = ApaBuilder::new();
        let ping = b.component("ping", [Value::atom("t")]);
        let pong = b.component("pong", []);
        b.automaton("serve", [ping, pong], rule::move_any(0, 1));
        b.automaton("return", [pong, ping], rule::move_any(0, 1));
        let g = reach(&b.build().unwrap());
        assert_eq!(g.state_count(), 2);
        assert!(g.dead_states().is_empty());
        assert!(g.maxima().is_empty());
    }
}
