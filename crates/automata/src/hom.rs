//! Alphabetic language homomorphisms.
//!
//! §5.5 of the paper: "Behaviour abstraction of an APA can be formalised
//! by language homomorphisms, more precisely by alphabetic language
//! homomorphisms `h: Σ* → Σ'*`. By these homomorphisms certain
//! transitions are ignored and others are renamed." A mapping is
//! *alphabetic* if `h(Σ) ⊆ Σ' ∪ {ε}` — each action is either renamed
//! (possibly to itself) or erased.

use crate::nfa::Nfa;
use std::collections::BTreeMap;

/// What happens to a symbol not explicitly mapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefaultRule {
    /// Unmapped symbols keep their name.
    Keep,
    /// Unmapped symbols are erased (mapped to ε).
    Erase,
}

/// An alphabetic language homomorphism over action names.
///
/// # Examples
///
/// The paper's abstraction for Fig. 10: keep only `V1_sense` and
/// `V2_show`, erase everything else.
///
/// ```
/// use automata::Homomorphism;
///
/// let h = Homomorphism::erase_all_except(["V1_sense", "V2_show"]);
/// assert_eq!(h.map_name("V1_sense"), Some("V1_sense".to_owned()));
/// assert_eq!(h.map_name("V1_pos"), None); // erased
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Homomorphism {
    /// Explicit mappings: name → Some(new name) or None (erase).
    map: BTreeMap<String, Option<String>>,
    default: DefaultRule,
}

impl Homomorphism {
    /// The identity homomorphism.
    pub fn identity() -> Self {
        Homomorphism {
            map: BTreeMap::new(),
            default: DefaultRule::Keep,
        }
    }

    /// Erases every symbol except the given ones (which are kept
    /// unchanged) — the abstraction used in §5.5 to focus on one
    /// (maximum, minimum) pair.
    pub fn erase_all_except<'a>(keep: impl IntoIterator<Item = &'a str>) -> Self {
        let map = keep
            .into_iter()
            .map(|k| (k.to_owned(), Some(k.to_owned())))
            .collect();
        Homomorphism {
            map,
            default: DefaultRule::Erase,
        }
    }

    /// A renaming homomorphism: listed symbols are renamed, all others
    /// kept. Useful to identify replicated component actions with one
    /// another (e.g. `V3_sense ↦ V1_sense` when exploiting symmetry).
    pub fn renaming<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> Self {
        let map = pairs
            .into_iter()
            .map(|(from, to)| (from.to_owned(), Some(to.to_owned())))
            .collect();
        Homomorphism {
            map,
            default: DefaultRule::Keep,
        }
    }

    /// Adds/overrides a single mapping. `None` erases the symbol.
    pub fn with(mut self, from: &str, to: Option<&str>) -> Self {
        self.map.insert(from.to_owned(), to.map(str::to_owned));
        self
    }

    /// The image of a symbol name; `None` means erased.
    pub fn map_name(&self, name: &str) -> Option<String> {
        self.image(name).map(str::to_owned)
    }

    /// Borrowing variant of [`Homomorphism::map_name`]: no allocation.
    pub fn image<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        match self.map.get(name) {
            Some(mapped) => mapped.as_deref(),
            None => match self.default {
                DefaultRule::Keep => Some(name),
                DefaultRule::Erase => None,
            },
        }
    }

    /// Compiles the homomorphism against a source [`crate::Alphabet`]: entry
    /// `i` is the image *name* of the source symbol with index `i`
    /// (`None` = erased). One `BTreeMap` lookup per *distinct* source
    /// symbol; [`Homomorphism::apply`] then relabels transitions with
    /// pure index arithmetic.
    pub fn compile<'a>(&'a self, alphabet: &'a crate::alphabet::Alphabet) -> Vec<Option<&'a str>> {
        alphabet.iter().map(|(_, name)| self.image(name)).collect()
    }

    /// The image of a word.
    pub fn map_word<'a>(&self, word: impl IntoIterator<Item = &'a str>) -> Vec<String> {
        word.into_iter().filter_map(|s| self.map_name(s)).collect()
    }

    /// Applies the homomorphism to an automaton: renamed transitions are
    /// relabelled, erased transitions become ε-transitions. The language
    /// of the result is exactly `h(L)`.
    ///
    /// The mapping is compiled once per *distinct* source symbol
    /// (see [`Homomorphism::compile`]); the per-transition work is then
    /// a `Vec` index instead of a map lookup plus `String` clone.
    pub fn apply(&self, nfa: &Nfa) -> Nfa {
        let mut b = Nfa::builder();
        let states: Vec<_> = (0..nfa.state_count())
            .map(|i| b.state(nfa.is_accepting(crate::nfa::StateId::new(i))))
            .collect();
        for s in nfa.initial_states() {
            b.initial(states[s.index()]);
        }
        // `compiled[i]`: target SymId for source symbol i, None = erase.
        let compiled: Vec<Option<crate::alphabet::SymId>> = nfa
            .alphabet()
            .iter()
            .map(|(_, name)| self.image(name).map(|n| b.symbol(n)))
            .collect();
        for (from, label, to) in nfa.transitions() {
            let new_label = label.and_then(|sym| compiled[sym.index()]);
            b.edge(states[from.index()], new_label, states[to.index()]);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{determinize, minimize};

    fn chain(names: &[&str]) -> Nfa {
        let mut b = Nfa::builder();
        let mut prev = b.state(true);
        b.initial(prev);
        for n in names {
            let sym = b.symbol(n);
            let next = b.state(true);
            b.edge(prev, Some(sym), next);
            prev = next;
        }
        b.build()
    }

    #[test]
    fn identity_keeps_everything() {
        let h = Homomorphism::identity();
        assert_eq!(h.map_name("x"), Some("x".to_owned()));
        assert_eq!(h.map_word(["a", "b"]), vec!["a", "b"]);
    }

    #[test]
    fn erase_all_except_on_words() {
        let h = Homomorphism::erase_all_except(["sense", "show"]);
        assert_eq!(
            h.map_word(["sense", "pos", "send", "rec", "show"]),
            vec!["sense", "show"]
        );
    }

    #[test]
    fn renaming_on_words() {
        let h = Homomorphism::renaming([("V3_sense", "V1_sense")]);
        assert_eq!(
            h.map_word(["V3_sense", "V3_pos"]),
            vec!["V1_sense", "V3_pos"]
        );
    }

    #[test]
    fn with_overrides() {
        let h = Homomorphism::identity().with("noise", None);
        assert_eq!(h.map_name("noise"), None);
        assert_eq!(h.map_name("signal"), Some("signal".to_owned()));
    }

    #[test]
    fn apply_image_language() {
        let n = chain(&["sense", "pos", "send", "show"]);
        let h = Homomorphism::erase_all_except(["sense", "show"]);
        let image = h.apply(&n);
        assert!(image.accepts(["sense", "show"]));
        assert!(image.accepts(["sense"]));
        assert!(image.accepts([""; 0]));
        assert!(!image.accepts(["show"]), "show needs sense first");
        let minimal = minimize(&determinize(&image));
        assert_eq!(minimal.state_count(), 3, "chain of two actions");
    }

    #[test]
    fn apply_matches_map_word_on_all_words() {
        let n = chain(&["a", "b", "c"]);
        let h = Homomorphism::erase_all_except(["b"]);
        let image = h.apply(&n);
        // For every word of L, the image automaton accepts h(word).
        for w in n.words_up_to(3) {
            let hw = h.map_word(w.iter().map(String::as_str));
            assert!(
                image.accepts(hw.iter().map(String::as_str)),
                "h({w:?}) = {hw:?} not accepted"
            );
        }
    }

    #[test]
    fn rename_merges_symbols() {
        // Two branches with different names mapped to the same name.
        let mut b = Nfa::builder();
        let x = b.symbol("x");
        let y = b.symbol("y");
        let s0 = b.state(true);
        let s1 = b.state(true);
        let s2 = b.state(true);
        b.initial(s0);
        b.edge(s0, Some(x), s1);
        b.edge(s0, Some(y), s2);
        let n = b.build();
        let h = Homomorphism::renaming([("y", "x")]);
        let image = h.apply(&n);
        let m = minimize(&determinize(&image));
        assert_eq!(m.state_count(), 2, "branches merge under renaming");
        assert!(m.accepts(["x"]));
        assert!(!m.accepts(["y"]));
    }
}
