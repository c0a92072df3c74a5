//! Deterministic finite automata with a partial transition function.
//!
//! A missing transition is an implicit, non-accepting sink. For the
//! prefix-closed behaviour languages of reachability graphs this is the
//! natural representation: the automaton simply has no edge for an
//! action the system cannot perform.

use crate::alphabet::{Alphabet, SymId};
use crate::nfa::StateId;
use std::collections::BTreeMap;

/// A deterministic finite automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    pub(crate) alphabet: Alphabet,
    pub(crate) accepting: Vec<bool>,
    pub(crate) initial: StateId,
    /// Partial transition function per state.
    pub(crate) trans: Vec<BTreeMap<SymId, StateId>>,
}

impl Dfa {
    /// Creates a DFA from parts.
    ///
    /// # Panics
    ///
    /// Panics if `initial` or any transition endpoint is out of range.
    pub fn new(
        alphabet: Alphabet,
        accepting: Vec<bool>,
        initial: StateId,
        trans: Vec<BTreeMap<SymId, StateId>>,
    ) -> Self {
        let n = accepting.len();
        assert_eq!(trans.len(), n, "one transition map per state");
        assert!(initial.index() < n, "initial state out of range");
        for m in &trans {
            for (&sym, &t) in m {
                assert!(sym.index() < alphabet.len(), "unknown symbol in transition");
                assert!(t.index() < n, "transition target out of range");
            }
        }
        Dfa {
            alphabet,
            accepting,
            initial,
            trans,
        }
    }

    /// The automaton's alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.accepting.len()
    }

    /// The initial state.
    pub fn initial_state(&self) -> StateId {
        self.initial
    }

    /// Returns `true` if `s` is accepting.
    pub fn is_accepting(&self, s: StateId) -> bool {
        self.accepting[s.index()]
    }

    /// The successor of `s` under `sym`, if defined.
    pub fn step(&self, s: StateId, sym: SymId) -> Option<StateId> {
        self.trans[s.index()].get(&sym).copied()
    }

    /// The successor of `s` under the symbol named `name`, if defined.
    pub fn step_name(&self, s: StateId, name: &str) -> Option<StateId> {
        self.alphabet.get(name).and_then(|sym| self.step(s, sym))
    }

    /// Iterates over all transitions `(from, symbol, to)`.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, SymId, StateId)> + '_ {
        self.trans
            .iter()
            .enumerate()
            .flat_map(|(i, m)| m.iter().map(move |(&sym, &t)| (StateId::new(i), sym, t)))
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.trans.iter().map(BTreeMap::len).sum()
    }

    /// Tests whether the automaton accepts `word` (given as names).
    pub fn accepts<'a>(&self, word: impl IntoIterator<Item = &'a str>) -> bool {
        let mut s = self.initial;
        for name in word {
            let Some(next) = self.step_name(s, name) else {
                return false;
            };
            s = next;
        }
        self.is_accepting(s)
    }

    /// Re-roots the DFA at `new_initial`, keeping everything else.
    ///
    /// Used by the simple-homomorphism check, which inspects the
    /// continuation language of every state.
    ///
    /// # Panics
    ///
    /// Panics if `new_initial` is out of range.
    pub fn rerooted(&self, new_initial: StateId) -> Dfa {
        assert!(
            new_initial.index() < self.state_count(),
            "state out of range"
        );
        let mut d = self.clone();
        d.initial = new_initial;
        d
    }

    /// Converts to an [`crate::Nfa`] (trivially).
    pub fn to_nfa(&self) -> crate::Nfa {
        let mut b = crate::Nfa::builder();
        // Preserve symbol ids by interning in alphabet order.
        for (_, name) in self.alphabet.iter() {
            b.symbol(name);
        }
        let states: Vec<StateId> = self.accepting.iter().map(|&acc| b.state(acc)).collect();
        b.initial(states[self.initial.index()]);
        for (from, sym, to) in self.transitions() {
            b.edge(states[from.index()], Some(sym), states[to.index()]);
        }
        b.build()
    }

    /// The canonical form: states renumbered in BFS order from the
    /// initial state, exploring symbols in name order; unreachable
    /// states dropped. Two minimal DFAs over alphabets with the same
    /// *used* symbol names accept the same language iff their canonical
    /// forms are equal modulo alphabet (see [`crate::equiv`]).
    pub fn canonical(&self) -> Dfa {
        let mut order: Vec<StateId> = Vec::new();
        let mut index_of: Vec<Option<usize>> = vec![None; self.state_count()];
        let mut queue = std::collections::VecDeque::new();
        if self.state_count() > 0 {
            index_of[self.initial.index()] = Some(0);
            order.push(self.initial);
            queue.push_back(self.initial);
        }
        // Symbol exploration order: by name.
        let mut syms: Vec<SymId> = self.alphabet.iter().map(|(id, _)| id).collect();
        syms.sort_by(|a, b| self.alphabet.name(*a).cmp(self.alphabet.name(*b)));
        while let Some(s) = queue.pop_front() {
            for &sym in &syms {
                if let Some(t) = self.step(s, sym) {
                    if index_of[t.index()].is_none() {
                        index_of[t.index()] = Some(order.len());
                        order.push(t);
                        queue.push_back(t);
                    }
                }
            }
        }
        let mut alphabet = Alphabet::new();
        let sym_map: BTreeMap<SymId, SymId> = syms
            .iter()
            .map(|&old| (old, alphabet.intern(self.alphabet.name(old))))
            .collect();
        let accepting: Vec<bool> = order.iter().map(|s| self.is_accepting(*s)).collect();
        let mut trans: Vec<BTreeMap<SymId, StateId>> = vec![BTreeMap::new(); order.len()];
        for (new_from, &old_from) in order.iter().enumerate() {
            for (&sym, &old_to) in &self.trans[old_from.index()] {
                if let Some(new_to) = index_of[old_to.index()] {
                    trans[new_from].insert(sym_map[&sym], StateId::new(new_to));
                }
            }
        }
        Dfa::new(alphabet, accepting, StateId::new(0), trans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DFA for the prefix-closed language pref((ab)*): states 0,1.
    fn ab_star() -> Dfa {
        let mut alphabet = Alphabet::new();
        let a = alphabet.intern("a");
        let b = alphabet.intern("b");
        let trans = vec![
            BTreeMap::from([(a, StateId::new(1))]),
            BTreeMap::from([(b, StateId::new(0))]),
        ];
        Dfa::new(alphabet, vec![true, true], StateId::new(0), trans)
    }

    #[test]
    fn accepts_and_rejects() {
        let d = ab_star();
        assert!(d.accepts([""; 0]));
        assert!(d.accepts(["a"]));
        assert!(d.accepts(["a", "b", "a"]));
        assert!(!d.accepts(["b"]), "missing transition = reject");
        assert!(!d.accepts(["a", "a"]));
        assert!(!d.accepts(["x"]), "unknown symbol = reject");
    }

    #[test]
    fn step_and_counts() {
        let d = ab_star();
        let a = d.alphabet().get("a").unwrap();
        assert_eq!(d.step(StateId::new(0), a), Some(StateId::new(1)));
        assert_eq!(d.step(StateId::new(1), a), None);
        assert_eq!(d.state_count(), 2);
        assert_eq!(d.transition_count(), 2);
    }

    #[test]
    fn rerooted_changes_start() {
        let d = ab_star();
        let r = d.rerooted(StateId::new(1));
        assert!(r.accepts(["b"]));
        assert!(!r.accepts(["a"]));
    }

    #[test]
    fn to_nfa_same_language_samples() {
        let d = ab_star();
        let n = d.to_nfa();
        for w in [vec![], vec!["a"], vec!["a", "b"], vec!["b"], vec!["a", "a"]] {
            assert_eq!(d.accepts(w.iter().copied()), n.accepts(w.iter().copied()));
        }
    }

    #[test]
    fn canonical_renumbers_bfs() {
        // Build a DFA with states in scrambled order; canonical must be
        // invariant under the scrambling.
        let mut alphabet = Alphabet::new();
        let a = alphabet.intern("a");
        let b = alphabet.intern("b");
        // state 2 initial, 2-a->0, 0-b->1
        let trans = vec![
            BTreeMap::from([(b, StateId::new(1))]),
            BTreeMap::new(),
            BTreeMap::from([(a, StateId::new(0))]),
        ];
        let d1 = Dfa::new(
            alphabet.clone(),
            vec![true, true, true],
            StateId::new(2),
            trans,
        );
        // same machine, states already in BFS order
        let trans2 = vec![
            BTreeMap::from([(a, StateId::new(1))]),
            BTreeMap::from([(b, StateId::new(2))]),
            BTreeMap::new(),
        ];
        let d2 = Dfa::new(alphabet, vec![true, true, true], StateId::new(0), trans2);
        assert_eq!(d1.canonical(), d2.canonical());
    }

    #[test]
    fn canonical_drops_unreachable() {
        let mut alphabet = Alphabet::new();
        let a = alphabet.intern("a");
        let trans = vec![
            BTreeMap::new(),
            BTreeMap::from([(a, StateId::new(0))]), // unreachable state 1
        ];
        let d = Dfa::new(alphabet, vec![true, false], StateId::new(0), trans);
        assert_eq!(d.canonical().state_count(), 1);
    }

    #[test]
    #[should_panic(expected = "target out of range")]
    fn invalid_transition_rejected() {
        let mut alphabet = Alphabet::new();
        let a = alphabet.intern("a");
        let trans = vec![BTreeMap::from([(a, StateId::new(5))])];
        let _ = Dfa::new(alphabet, vec![true], StateId::new(0), trans);
    }
}
