//! Nondeterministic finite automata with ε-transitions.
//!
//! The behaviour of an APA — its reachability graph — is an NFA in which
//! every state is accepting; alphabetic homomorphisms introduce
//! ε-transitions when actions are erased.

use crate::alphabet::{Alphabet, SymId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of a state within one automaton.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(u32);

impl StateId {
    /// Creates a state id from a raw index.
    pub fn new(index: usize) -> Self {
        StateId(u32::try_from(index).expect("state index exceeds u32 range"))
    }

    /// The raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A nondeterministic finite automaton; `None` labels are ε-transitions.
///
/// Construct with [`Nfa::builder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nfa {
    alphabet: Alphabet,
    accepting: Vec<bool>,
    initial: BTreeSet<StateId>,
    /// `trans[state][label]` = successor set.
    trans: Vec<BTreeMap<Option<SymId>, BTreeSet<StateId>>>,
}

impl Nfa {
    /// Starts building an NFA.
    pub fn builder() -> NfaBuilder {
        NfaBuilder {
            nfa: Nfa {
                alphabet: Alphabet::new(),
                accepting: Vec::new(),
                initial: BTreeSet::new(),
                trans: Vec::new(),
            },
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

    /// The set of initial states.
    pub fn initial_states(&self) -> &BTreeSet<StateId> {
        &self.initial
    }

    /// Returns `true` if `s` is accepting.
    pub fn is_accepting(&self, s: StateId) -> bool {
        self.accepting[s.index()]
    }

    /// Returns `true` if every state is accepting (behaviour automaton).
    pub fn all_accepting(&self) -> bool {
        self.accepting.iter().all(|a| *a)
    }

    /// Successors of `s` under `label` (`None` = ε).
    pub fn step(&self, s: StateId, label: Option<SymId>) -> impl Iterator<Item = StateId> + '_ {
        self.trans[s.index()]
            .get(&label)
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Iterates over all transitions `(from, label, to)`.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, Option<SymId>, StateId)> + '_ {
        self.trans.iter().enumerate().flat_map(|(i, m)| {
            m.iter().flat_map(move |(label, set)| {
                set.iter().map(move |t| (StateId::new(i), *label, *t))
            })
        })
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.trans
            .iter()
            .map(|m| m.values().map(BTreeSet::len).sum::<usize>())
            .sum()
    }

    /// The ε-closure of a set of states.
    pub fn epsilon_closure(&self, states: &BTreeSet<StateId>) -> BTreeSet<StateId> {
        let mut closure = states.clone();
        let mut stack: Vec<StateId> = states.iter().copied().collect();
        while let Some(s) = stack.pop() {
            for t in self.step(s, None) {
                if closure.insert(t) {
                    stack.push(t);
                }
            }
        }
        closure
    }

    /// Tests whether the automaton accepts `word` (given as names).
    ///
    /// Symbols not in the alphabet make the word rejected.
    pub fn accepts<'a>(&self, word: impl IntoIterator<Item = &'a str>) -> bool {
        let mut current = self.epsilon_closure(&self.initial);
        for name in word {
            let Some(sym) = self.alphabet.get(name) else {
                return false;
            };
            let mut next = BTreeSet::new();
            for s in &current {
                next.extend(self.step(*s, Some(sym)));
            }
            current = self.epsilon_closure(&next);
            if current.is_empty() {
                return false;
            }
        }
        current.iter().any(|s| self.is_accepting(*s))
    }

    /// Enumerates the accepted words of length ≤ `max_len` (as name
    /// vectors), in length-lexicographic order. Intended for tests and
    /// small abstractions; the result can be exponential in `max_len`.
    pub fn words_up_to(&self, max_len: usize) -> Vec<Vec<String>> {
        let mut result = Vec::new();
        let start = self.epsilon_closure(&self.initial);
        // BFS over (state-set, word).
        let mut layer: Vec<(BTreeSet<StateId>, Vec<SymId>)> = vec![(start, Vec::new())];
        let mut syms: Vec<SymId> = self.alphabet.iter().map(|(id, _)| id).collect();
        syms.sort_by_key(|s| self.alphabet.name(*s).to_owned());
        for _len in 0..=max_len {
            let mut next_layer = Vec::new();
            for (states, word) in &layer {
                if states.iter().any(|s| self.is_accepting(*s)) {
                    result.push(
                        word.iter()
                            .map(|s| self.alphabet.name(*s).to_owned())
                            .collect(),
                    );
                }
                if word.len() == max_len {
                    continue;
                }
                for &sym in &syms {
                    let mut tgt = BTreeSet::new();
                    for s in states {
                        tgt.extend(self.step(*s, Some(sym)));
                    }
                    if !tgt.is_empty() {
                        let tgt = self.epsilon_closure(&tgt);
                        let mut w = word.clone();
                        w.push(sym);
                        next_layer.push((tgt, w));
                    }
                }
            }
            layer = next_layer;
            if layer.is_empty() {
                break;
            }
        }
        result
    }
}

/// Builder for [`Nfa`] (see [`Nfa::builder`]).
///
/// # Examples
///
/// ```
/// use automata::Nfa;
///
/// let mut b = Nfa::builder();
/// let a = b.symbol("a");
/// let s0 = b.state(true);
/// let s1 = b.state(true);
/// b.initial(s0);
/// b.edge(s0, Some(a), s1);
/// let nfa = b.build();
/// assert!(nfa.accepts(["a"]));
/// assert!(!nfa.accepts(["a", "a"]));
/// ```
#[derive(Debug, Clone)]
pub struct NfaBuilder {
    nfa: Nfa,
}

impl NfaBuilder {
    /// Interns an action name.
    pub fn symbol(&mut self, name: &str) -> SymId {
        self.nfa.alphabet.intern(name)
    }

    /// Adds a state; `accepting` marks it as final.
    pub fn state(&mut self, accepting: bool) -> StateId {
        let id = StateId::new(self.nfa.accepting.len());
        self.nfa.accepting.push(accepting);
        self.nfa.trans.push(BTreeMap::new());
        id
    }

    /// Marks `s` as an initial state.
    ///
    /// # Panics
    ///
    /// Panics if `s` was not created by this builder.
    pub fn initial(&mut self, s: StateId) {
        assert!(s.index() < self.nfa.accepting.len(), "unknown state");
        self.nfa.initial.insert(s);
    }

    /// Adds the transition `from --label--> to` (`None` = ε).
    ///
    /// # Panics
    ///
    /// Panics if either state was not created by this builder.
    pub fn edge(&mut self, from: StateId, label: Option<SymId>, to: StateId) {
        assert!(
            from.index() < self.nfa.accepting.len(),
            "unknown source state"
        );
        assert!(
            to.index() < self.nfa.accepting.len(),
            "unknown target state"
        );
        self.nfa.trans[from.index()]
            .entry(label)
            .or_default()
            .insert(to);
    }

    /// Finishes construction.
    ///
    /// # Panics
    ///
    /// Panics if no initial state was set on a non-empty automaton.
    pub fn build(self) -> Nfa {
        assert!(
            self.nfa.accepting.is_empty() || !self.nfa.initial.is_empty(),
            "an NFA with states needs at least one initial state"
        );
        self.nfa
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a(b|c)* with all intermediate states accepting? No: only the loop
    /// state accepting.
    fn sample() -> Nfa {
        let mut b = Nfa::builder();
        let a = b.symbol("a");
        let bb = b.symbol("b");
        let c = b.symbol("c");
        let s0 = b.state(false);
        let s1 = b.state(true);
        b.initial(s0);
        b.edge(s0, Some(a), s1);
        b.edge(s1, Some(bb), s1);
        b.edge(s1, Some(c), s1);
        b.build()
    }

    #[test]
    fn accepts_basic() {
        let n = sample();
        assert!(!n.accepts([""; 0]));
        assert!(n.accepts(["a"]));
        assert!(n.accepts(["a", "b", "c", "b"]));
        assert!(!n.accepts(["b"]));
        assert!(!n.accepts(["a", "x"]), "unknown symbol rejects");
    }

    #[test]
    fn epsilon_closure_transitively() {
        let mut b = Nfa::builder();
        let s0 = b.state(false);
        let s1 = b.state(false);
        let s2 = b.state(true);
        b.initial(s0);
        b.edge(s0, None, s1);
        b.edge(s1, None, s2);
        let n = b.build();
        let cl = n.epsilon_closure(&[s0].into_iter().collect());
        assert_eq!(cl, [s0, s1, s2].into_iter().collect());
        assert!(n.accepts([""; 0]), "ε-reach to accepting state");
    }

    #[test]
    fn words_up_to_enumerates() {
        let n = sample();
        let words = n.words_up_to(2);
        let as_strs: Vec<String> = words.iter().map(|w| w.join("")).collect();
        assert_eq!(as_strs, vec!["a", "ab", "ac"]);
    }

    #[test]
    fn counts() {
        let n = sample();
        assert_eq!(n.state_count(), 2);
        assert_eq!(n.transition_count(), 3);
        assert_eq!(n.alphabet().len(), 3);
        assert!(!n.all_accepting());
    }

    #[test]
    #[should_panic(expected = "needs at least one initial state")]
    fn missing_initial_panics() {
        let mut b = Nfa::builder();
        b.state(true);
        let _ = b.build();
    }

    #[test]
    fn empty_automaton_builds() {
        let n = Nfa::builder().build();
        assert_eq!(n.state_count(), 0);
        assert!(!n.accepts([""; 0]));
    }

    #[test]
    fn transitions_iterator() {
        let n = sample();
        let ts: Vec<_> = n.transitions().collect();
        assert_eq!(ts.len(), 3);
        assert!(ts.iter().all(|(_, l, _)| l.is_some()));
    }

    #[test]
    fn nondeterminism_explored() {
        let mut b = Nfa::builder();
        let a = b.symbol("a");
        let s0 = b.state(false);
        let s1 = b.state(false);
        let s2 = b.state(true);
        b.initial(s0);
        b.edge(s0, Some(a), s1);
        b.edge(s0, Some(a), s2);
        let n = b.build();
        assert!(n.accepts(["a"]), "one of two branches accepts");
    }
}
