//! Temporal properties of finite behaviours.
//!
//! The SH verification tool offers a temporal-logic component for
//! inspecting paths of the reachability graph. This module implements
//! the property patterns functional security analysis needs, directly on
//! behaviour automata (NFAs where every state is accepting and paths are
//! runs of the system):
//!
//! * [`precedes`] — on every run, `b` never occurs before the first `a`
//!   (the *functional dependence* of `b` on `a`: "without such an action
//!   happening as input to the system, the corresponding output action
//!   must not happen as well"),
//! * [`eventually`] — every maximal run contains `a` (a guarantee /
//!   liveness pattern on finite graphs, where maximal runs are those
//!   ending in a dead state or entering a cycle),
//! * [`response`] — after every `a`, every maximal continuation contains
//!   a `b`.

use crate::alphabet::SymId;
use crate::nfa::{Nfa, StateId};
use std::collections::BTreeSet;

/// Forward adjacency of an NFA: `adj[s]` lists `(label, target)` pairs.
///
/// Every decision procedure in this module walks the graph from a state
/// to its successors; [`Nfa::transitions`] only offers a global
/// iterator, so the naive formulation re-scanned *all* transitions per
/// visited state — O(V·E) per query, the dominant cost of the §5.5
/// dependence pipeline before symbol interning. Building the adjacency
/// once makes each traversal O(V+E).
fn adjacency(nfa: &Nfa) -> Vec<Vec<(Option<SymId>, StateId)>> {
    let mut adj: Vec<Vec<(Option<SymId>, StateId)>> = vec![Vec::new(); nfa.state_count()];
    for (from, label, to) in nfa.transitions() {
        adj[from.index()].push((label, to));
    }
    adj
}

/// Decides the precedence property: on every run from the initial
/// states, no occurrence of `b` happens strictly before the first
/// occurrence of `a`.
///
/// Returns `true` vacuously if `b` never occurs, and `false` if `b` is
/// reachable through an `a`-free run. Symbol names not in the alphabet
/// simply never occur.
///
/// # Examples
///
/// ```
/// use automata::{Nfa, temporal::precedes};
///
/// let mut bld = Nfa::builder();
/// let a = bld.symbol("sense");
/// let b = bld.symbol("show");
/// let s0 = bld.state(true);
/// let s1 = bld.state(true);
/// let s2 = bld.state(true);
/// bld.initial(s0);
/// bld.edge(s0, Some(a), s1);
/// bld.edge(s1, Some(b), s2);
/// let n = bld.build();
/// assert!(precedes(&n, "sense", "show"));
/// assert!(!precedes(&n, "show", "sense"));
/// ```
pub fn precedes(nfa: &Nfa, a: &str, b: &str) -> bool {
    let sym_a = nfa.alphabet().get(a);
    let Some(sym_b) = nfa.alphabet().get(b) else {
        return true; // b never occurs
    };
    precedes_sym(nfa, sym_a, sym_b)
}

/// Symbol-level variant of [`precedes`]: `a = None` means "`a` cannot
/// occur" (the property then fails whenever `b` is reachable). Lets
/// callers that already hold interned ids skip the name lookups.
pub fn precedes_sym(nfa: &Nfa, a: Option<SymId>, b: SymId) -> bool {
    let adj = adjacency(nfa);
    precedes_in(nfa, &adj, a, b)
}

/// [`precedes_sym`] over a prebuilt adjacency (shared across queries).
fn precedes_in(
    nfa: &Nfa,
    adj: &[Vec<(Option<SymId>, StateId)>],
    a: Option<SymId>,
    b: SymId,
) -> bool {
    // States reachable via runs containing no `a` (ε counts as no-op).
    let reach = a_free_reachable(nfa, adj, a);
    // Violated iff any such state can fire `b`.
    !reach.iter().any(|s| nfa.step(*s, Some(b)).next().is_some())
}

/// Like [`precedes`], but on violation returns a shortest witnessing
/// run: a word ending in `b` on which no `a` has occurred — the *attack
/// trace* showing the output can happen without its authentic input.
pub fn precedence_counterexample(nfa: &Nfa, a: &str, b: &str) -> Option<Vec<String>> {
    let sym_a = nfa.alphabet().get(a);
    let sym_b = nfa.alphabet().get(b)?;
    let adj = adjacency(nfa);
    // BFS over states along a-free runs, tracking the word.
    let mut parent: std::collections::HashMap<StateId, (StateId, crate::alphabet::SymId)> =
        std::collections::HashMap::new();
    let mut seen: BTreeSet<StateId> = nfa.initial_states().clone();
    let mut queue: std::collections::VecDeque<StateId> = seen.iter().copied().collect();
    let reconstruct =
        |state: StateId,
         parent: &std::collections::HashMap<StateId, (StateId, crate::alphabet::SymId)>|
         -> Vec<String> {
            let mut word = Vec::new();
            let mut cur = state;
            while let Some((prev, sym)) = parent.get(&cur) {
                word.push(nfa.alphabet().name(*sym).to_owned());
                cur = *prev;
            }
            word.reverse();
            word
        };
    while let Some(s) = queue.pop_front() {
        // Can `b` fire here?
        if nfa.step(s, Some(sym_b)).next().is_some() {
            let mut word = reconstruct(s, &parent);
            word.push(b.to_owned());
            return Some(word);
        }
        for &(label, to) in &adj[s.index()] {
            if label.is_some() && label == sym_a {
                continue;
            }
            if seen.insert(to) {
                if let Some(sym) = label {
                    parent.insert(to, (s, sym));
                } else if let Some(&(prev, sym)) = parent.get(&s) {
                    // ε-step: inherit the parent pointer.
                    parent.insert(to, (prev, sym));
                }
                queue.push_back(to);
            }
        }
    }
    None
}

/// States reachable from the initial states without traversing `avoid`.
fn a_free_reachable(
    nfa: &Nfa,
    adj: &[Vec<(Option<SymId>, StateId)>],
    avoid: Option<SymId>,
) -> BTreeSet<StateId> {
    let mut reach: BTreeSet<StateId> = nfa.initial_states().clone();
    let mut stack: Vec<StateId> = reach.iter().copied().collect();
    while let Some(s) = stack.pop() {
        for &(label, to) in &adj[s.index()] {
            if label.is_some() && label == avoid {
                continue;
            }
            if reach.insert(to) {
                stack.push(to);
            }
        }
    }
    reach
}

/// Decides the guarantee property: every *maximal* run contains `a`.
///
/// On a finite behaviour graph, a maximal run either ends in a state
/// without outgoing transitions (a dead state) or is infinite (enters a
/// cycle). The property fails iff an `a`-free run reaches a dead state
/// or an `a`-free cycle.
pub fn eventually(nfa: &Nfa, a: &str) -> bool {
    let sym_a = nfa.alphabet().get(a);
    if sym_a.is_none() && nfa.state_count() > 0 {
        // `a` cannot occur at all; holds only if there are no runs,
        // i.e. no initial states — but builders require one.
        return false;
    }
    let adj = adjacency(nfa);
    let reach = a_free_reachable(nfa, &adj, sym_a);
    // Dead state reachable a-free?
    if reach.iter().any(|s| adj[s.index()].is_empty()) {
        return false;
    }
    // a-free cycle within `reach`?
    !has_cycle_in_subgraph(&adj, &reach, sym_a)
}

/// Decides the response property: after every occurrence of `a`, every
/// maximal continuation contains `b`.
pub fn response(nfa: &Nfa, a: &str, b: &str) -> bool {
    let Some(sym_a) = nfa.alphabet().get(a) else {
        return true; // a never occurs: vacuously true
    };
    let adj = adjacency(nfa);
    // For every target state of an `a`-transition, `eventually b` must
    // hold from there.
    let targets: BTreeSet<StateId> = adj
        .iter()
        .flat_map(|succs| succs.iter())
        .filter(|(label, _)| *label == Some(sym_a))
        .map(|(_, to)| *to)
        .collect();
    let sym_b = nfa.alphabet().get(b);
    targets.iter().all(|&t| eventually_from(&adj, t, sym_b))
}

/// `eventually` evaluated from a specific state.
fn eventually_from(
    adj: &[Vec<(Option<SymId>, StateId)>],
    start: StateId,
    sym_a: Option<SymId>,
) -> bool {
    if sym_a.is_none() {
        // `a` cannot occur; fails unless no run leaves... a run of length
        // zero from a dead state is maximal and contains no `a`.
        return false;
    }
    // Reachable a-free from `start`.
    let mut reach: BTreeSet<StateId> = BTreeSet::new();
    reach.insert(start);
    let mut stack = vec![start];
    while let Some(s) = stack.pop() {
        for &(label, to) in &adj[s.index()] {
            if label.is_some() && label == sym_a {
                continue;
            }
            if reach.insert(to) {
                stack.push(to);
            }
        }
    }
    if reach.iter().any(|s| adj[s.index()].is_empty()) {
        return false;
    }
    !has_cycle_in_subgraph(adj, &reach, sym_a)
}

/// Detects a cycle in the subgraph induced by `states`, ignoring edges
/// labelled `avoid`.
fn has_cycle_in_subgraph(
    adj: &[Vec<(Option<SymId>, StateId)>],
    states: &BTreeSet<StateId>,
    avoid: Option<SymId>,
) -> bool {
    // Iterative DFS with colours.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color = vec![Color::White; adj.len()];
    for &root in states {
        if color[root.index()] != Color::White {
            continue;
        }
        let mut stack: Vec<(StateId, Vec<StateId>, usize)> = Vec::new();
        let succs = |s: StateId| -> Vec<StateId> {
            adj[s.index()]
                .iter()
                .filter(|(label, to)| !(label.is_some() && *label == avoid) && states.contains(to))
                .map(|(_, to)| *to)
                .collect()
        };
        color[root.index()] = Color::Grey;
        stack.push((root, succs(root), 0));
        while let Some(frame) = stack.last_mut() {
            let (node, children, idx) = (frame.0, &frame.1, &mut frame.2);
            if *idx < children.len() {
                let c = children[*idx];
                *idx += 1;
                match color[c.index()] {
                    Color::Grey => return true,
                    Color::White => {
                        color[c.index()] = Color::Grey;
                        let gc = succs(c);
                        stack.push((c, gc, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[node.index()] = Color::Black;
                stack.pop();
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// sense → send → show with pos interleavable before send.
    fn warning_behaviour() -> Nfa {
        let mut b = Nfa::builder();
        let sense = b.symbol("sense");
        let pos = b.symbol("pos");
        let send = b.symbol("send");
        let show = b.symbol("show");
        // states: progress of {sense, pos} then send then show
        let s00 = b.state(true);
        let s10 = b.state(true);
        let s01 = b.state(true);
        let s11 = b.state(true);
        let sent = b.state(true);
        let shown = b.state(true);
        b.initial(s00);
        b.edge(s00, Some(sense), s10);
        b.edge(s00, Some(pos), s01);
        b.edge(s10, Some(pos), s11);
        b.edge(s01, Some(sense), s11);
        b.edge(s11, Some(send), sent);
        b.edge(sent, Some(show), shown);
        b.build()
    }

    #[test]
    fn precedence_holds_for_dependencies() {
        let n = warning_behaviour();
        assert!(precedes(&n, "sense", "show"));
        assert!(precedes(&n, "pos", "show"));
        assert!(precedes(&n, "send", "show"));
        assert!(precedes(&n, "sense", "send"));
    }

    #[test]
    fn precedence_fails_for_independent_actions() {
        let n = warning_behaviour();
        assert!(!precedes(&n, "sense", "pos"), "pos can fire first");
        assert!(!precedes(&n, "pos", "sense"));
        assert!(!precedes(&n, "show", "sense"));
    }

    #[test]
    fn precedence_vacuous_when_b_absent() {
        let n = warning_behaviour();
        assert!(precedes(&n, "sense", "nonexistent"));
    }

    #[test]
    fn precedence_with_unknown_a_fails_if_b_reachable() {
        let n = warning_behaviour();
        assert!(!precedes(&n, "nonexistent", "show"));
    }

    #[test]
    fn counterexample_none_when_precedence_holds() {
        let n = warning_behaviour();
        assert_eq!(precedence_counterexample(&n, "sense", "show"), None);
    }

    #[test]
    fn counterexample_is_shortest_violating_run() {
        let n = warning_behaviour();
        // pos can fire before sense: witness is just ["pos"].
        assert_eq!(
            precedence_counterexample(&n, "sense", "pos"),
            Some(vec!["pos".to_owned()])
        );
        // show before sense is impossible → but sense before... check a
        // longer witness: "send" needs both, so (show, send) asks: can
        // send occur before show? yes, witness ends in send.
        let w = precedence_counterexample(&n, "show", "send").unwrap();
        assert_eq!(w.last().map(String::as_str), Some("send"));
        assert!(!w.contains(&"show".to_owned()));
    }

    #[test]
    fn counterexample_vacuous_cases() {
        let n = warning_behaviour();
        assert_eq!(precedence_counterexample(&n, "sense", "absent"), None);
        let w = precedence_counterexample(&n, "absent", "sense").unwrap();
        assert_eq!(w, vec!["sense".to_owned()]);
    }

    #[test]
    fn eventually_on_terminating_behaviour() {
        let n = warning_behaviour();
        // every maximal run ends ... shown; show occurs on all of them.
        assert!(eventually(&n, "show"));
        assert!(eventually(&n, "send"));
        assert!(eventually(&n, "sense"));
    }

    #[test]
    fn eventually_fails_with_avoiding_cycle() {
        let mut b = Nfa::builder();
        let a = b.symbol("a");
        let idle = b.symbol("idle");
        let s0 = b.state(true);
        let s1 = b.state(true);
        b.initial(s0);
        b.edge(s0, Some(idle), s0); // can idle forever
        b.edge(s0, Some(a), s1);
        b.edge(s1, Some(idle), s1);
        let n = b.build();
        assert!(!eventually(&n, "a"));
    }

    #[test]
    fn eventually_fails_with_dead_state_detour() {
        let mut b = Nfa::builder();
        let a = b.symbol("a");
        let c = b.symbol("c");
        let s0 = b.state(true);
        let s1 = b.state(true);
        let s2 = b.state(true);
        b.initial(s0);
        b.edge(s0, Some(a), s1);
        b.edge(s0, Some(c), s2); // dead end without a
        let n = b.build();
        assert!(!eventually(&n, "a"));
        assert!(!eventually(&n, "nonexistent"));
    }

    #[test]
    fn response_after_a_b_guaranteed() {
        let n = warning_behaviour();
        assert!(response(&n, "send", "show"));
        assert!(response(&n, "sense", "send"));
    }

    #[test]
    fn response_fails_when_continuation_may_die() {
        let mut b = Nfa::builder();
        let a = b.symbol("a");
        let bb = b.symbol("b");
        let c = b.symbol("c");
        let s0 = b.state(true);
        let s1 = b.state(true);
        let s2 = b.state(true);
        let s3 = b.state(true);
        b.initial(s0);
        b.edge(s0, Some(a), s1);
        b.edge(s1, Some(bb), s2);
        b.edge(s1, Some(c), s3); // a then c: dead without b
        let n = b.build();
        assert!(!response(&n, "a", "b"));
        assert!(response(&n, "nonexistent", "b"), "vacuous");
    }
}
