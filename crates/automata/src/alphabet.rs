//! Interned action alphabets.
//!
//! All automata in this crate carry an [`Alphabet`] mapping action names
//! to dense [`SymId`]s. Cross-automata comparisons (language
//! equivalence, homomorphism application) align symbols *by name*, so
//! two automata never need to share an alphabet instance.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a symbol within one [`Alphabet`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(u32);

impl SymId {
    /// Creates a symbol id from a raw index.
    pub fn new(index: usize) -> Self {
        SymId(u32::try_from(index).expect("symbol index exceeds u32 range"))
    }

    /// The raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A bijection between action names and dense symbol ids.
///
/// # Examples
///
/// ```
/// use automata::Alphabet;
///
/// let mut a = Alphabet::new();
/// let x = a.intern("sense");
/// assert_eq!(a.intern("sense"), x, "interning is idempotent");
/// assert_eq!(a.name(x), "sense");
/// assert_eq!(a.get("sense"), Some(x));
/// assert_eq!(a.get("nope"), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Alphabet {
    names: Vec<String>,
    index: HashMap<String, SymId>,
}

impl Alphabet {
    /// Creates an empty alphabet.
    pub fn new() -> Self {
        Alphabet::default()
    }

    /// Interns `name`, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, name: &str) -> SymId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = SymId::new(self.names.len());
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Looks up the id of `name` without interning.
    pub fn get(&self, name: &str) -> Option<SymId> {
        self.index.get(name).copied()
    }

    /// The name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this alphabet.
    pub fn name(&self, id: SymId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no symbol has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (SymId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (SymId::new(i), n.as_str()))
    }

    /// All names, sorted — the canonical symbol order used by
    /// cross-automata operations.
    pub fn sorted_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.names.iter().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_lookup() {
        let mut a = Alphabet::new();
        let x = a.intern("x");
        let y = a.intern("y");
        assert_ne!(x, y);
        assert_eq!(a.len(), 2);
        assert_eq!(a.name(x), "x");
        assert_eq!(a.get("y"), Some(y));
        assert!(!a.is_empty());
        assert!(Alphabet::new().is_empty());
    }

    #[test]
    fn iter_in_order() {
        let mut a = Alphabet::new();
        a.intern("b");
        a.intern("a");
        let names: Vec<&str> = a.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["b", "a"]);
        assert_eq!(a.sorted_names(), vec!["a", "b"]);
    }
}
