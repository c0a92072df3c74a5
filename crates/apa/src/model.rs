//! APA models: state components, elementary automata, and the builder
//! that glues them together.

use crate::error::ApaError;
use crate::rule::{LocalState, TransitionRule};
use crate::value::Value;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Identifier of a state component (`s ∈ S`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(u32);

impl ComponentId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifier of an elementary automaton (`t ∈ T`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AutomatonId(u32);

impl AutomatonId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for AutomatonId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A global APA state: one value set per state component.
pub type GlobalState = Vec<BTreeSet<Value>>;

pub(crate) struct ElementaryAutomaton {
    pub(crate) name: String,
    pub(crate) neighbourhood: Vec<ComponentId>,
    /// Shared, so the sub-APAs of [`Apa::fragments`] reuse the rule
    /// instead of rebuilding it.
    pub(crate) rule: Arc<dyn TransitionRule>,
}

/// A complete APA model `((Z_s), (Φ_t, Δ_t), N, q₀)`.
///
/// Build with [`ApaBuilder`]; analyse with [`Apa::reachability`].
pub struct Apa {
    pub(crate) component_names: Vec<String>,
    pub(crate) automata: Vec<ElementaryAutomaton>,
    pub(crate) initial: GlobalState,
}

impl Apa {
    /// Number of state components.
    pub fn component_count(&self) -> usize {
        self.component_names.len()
    }

    /// Number of elementary automata.
    pub fn automaton_count(&self) -> usize {
        self.automata.len()
    }

    /// Name of a state component.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn component_name(&self, id: ComponentId) -> &str {
        &self.component_names[id.index()]
    }

    /// Name of an elementary automaton.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn automaton_name(&self, id: AutomatonId) -> &str {
        &self.automata[id.index()].name
    }

    /// All automaton names, in declaration order.
    pub fn automaton_names(&self) -> impl Iterator<Item = &str> {
        self.automata.iter().map(|a| a.name.as_str())
    }

    /// The neighbourhood `N(t)` of an automaton.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn neighbourhood(&self, id: AutomatonId) -> &[ComponentId] {
        &self.automata[id.index()].neighbourhood
    }

    /// The initial state `q₀`.
    pub fn initial_state(&self) -> &GlobalState {
        &self.initial
    }

    /// Computes the successors of `state`: every activated elementary
    /// automaton with every enabled interpretation.
    ///
    /// # Errors
    ///
    /// Returns [`ApaError::MalformedSuccessor`] if a rule produces a
    /// successor of the wrong neighbourhood width.
    pub fn successors(
        &self,
        state: &GlobalState,
    ) -> Result<Vec<(AutomatonId, String, GlobalState)>, ApaError> {
        let mut out = Vec::new();
        for (idx, aut) in self.automata.iter().enumerate() {
            let local: LocalState = aut
                .neighbourhood
                .iter()
                .map(|c| state[c.index()].clone())
                .collect();
            for (interp, next_local) in aut.rule.fire(&local) {
                if next_local.len() != aut.neighbourhood.len() {
                    return Err(ApaError::MalformedSuccessor {
                        automaton: aut.name.clone(),
                        expected: aut.neighbourhood.len(),
                        got: next_local.len(),
                    });
                }
                let mut next = state.clone();
                for (slot, c) in aut.neighbourhood.iter().enumerate() {
                    next[c.index()] = next_local[slot].clone();
                }
                out.push((AutomatonId(idx as u32), interp, next));
            }
        }
        Ok(out)
    }
}

impl Apa {
    /// The independent fragments of the model: the connected components
    /// of the graph that links every automaton to the state components
    /// of its neighbourhood, each as a sub-APA over its own automata and
    /// the components they touch. The sub-APAs share their transition
    /// rules with `self`.
    ///
    /// The split is exact for any APA. No two fragments touch a common
    /// component, so a firing in one never enables or disables a firing
    /// in another, and the reachability graph of `self` is the
    /// interleaving product of the fragments' graphs: its state count is
    /// the product of theirs and its edge count the sum, over
    /// fragments, of each fragment's edges times the other fragments'
    /// states.
    ///
    /// Automata keep their declaration order, and so do the components
    /// within a fragment; fragments are ordered by their first
    /// automaton. A component that no automaton touches is dropped: it
    /// contributes one state and no edges to the product. An APA without
    /// automata has no fragments.
    ///
    /// For the dataflow APA of an instance the fragments are the weakly
    /// connected components of its flow graph.
    ///
    /// # Examples
    ///
    /// ```
    /// use apa::{rule, ApaBuilder, Value};
    ///
    /// let mut b = ApaBuilder::new();
    /// for k in 0..2 {
    ///     let src = b.component(&format!("src{k}"), [Value::atom("x")]);
    ///     let dst = b.component(&format!("dst{k}"), []);
    ///     b.automaton(&format!("move{k}"), [src, dst], rule::move_any(0, 1));
    /// }
    /// let apa = b.build()?;
    /// let parts = apa.fragments();
    /// assert_eq!(parts.len(), 2);
    /// let whole = apa.reachability(&Default::default())?;
    /// let part = parts[0].reachability(&Default::default())?;
    /// assert_eq!((part.state_count(), whole.state_count()), (2, 2 * 2));
    /// # Ok::<(), apa::ApaError>(())
    /// ```
    pub fn fragments(&self) -> Vec<Apa> {
        self.fragment_automata()
            .iter()
            .map(|automata| self.restrict(automata))
            .collect()
    }

    /// The number of [`Apa::fragments`], without building them.
    pub fn fragment_count(&self) -> usize {
        self.fragment_automata().len()
    }

    /// The automaton indices of each fragment, in declaration order,
    /// fragments ordered by their first automaton: union-find over the
    /// components and the automata, joining each automaton to its
    /// neighbourhood.
    fn fragment_automata(&self) -> Vec<Vec<usize>> {
        fn root(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        // Components are nodes `0..n`, automaton `i` is node `n + i`.
        let n = self.component_count();
        let mut parent: Vec<usize> = (0..n + self.automata.len()).collect();
        for (i, aut) in self.automata.iter().enumerate() {
            for c in &aut.neighbourhood {
                let (a, b) = (root(&mut parent, n + i), root(&mut parent, c.index()));
                parent[a] = b;
            }
        }
        let mut group_of_root: HashMap<usize, usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in 0..self.automata.len() {
            let group = *group_of_root
                .entry(root(&mut parent, n + i))
                .or_insert(groups.len());
            if group == groups.len() {
                groups.push(Vec::new());
            }
            groups[group].push(i);
        }
        groups
    }

    /// The sub-APA over `automata` and the components they touch, in
    /// declaration order.
    fn restrict(&self, automata: &[usize]) -> Apa {
        let mut touched = vec![false; self.component_count()];
        for &a in automata {
            for c in &self.automata[a].neighbourhood {
                touched[c.index()] = true;
            }
        }
        // `slot[c]`: component `c`'s id in the sub-APA (read only for
        // touched components).
        let mut slot = vec![0u32; touched.len()];
        let mut component_names = Vec::new();
        let mut initial = Vec::new();
        for (c, _) in touched.iter().enumerate().filter(|(_, &t)| t) {
            // At most as many components as `self`, whose ids fit u32.
            slot[c] = component_names.len() as u32;
            component_names.push(self.component_names[c].clone());
            initial.push(self.initial[c].clone());
        }
        let automata = automata
            .iter()
            .map(|&a| {
                let aut = &self.automata[a];
                ElementaryAutomaton {
                    name: aut.name.clone(),
                    neighbourhood: aut
                        .neighbourhood
                        .iter()
                        .map(|c| ComponentId(slot[c.index()]))
                        .collect(),
                    rule: Arc::clone(&aut.rule),
                }
            })
            .collect();
        Apa {
            component_names,
            automata,
            initial,
        }
    }
}

impl Apa {
    /// Renders the model structure as Graphviz DOT: state components as
    /// ellipses, elementary automata as boxes, undirected-style edges
    /// for the neighbourhood relation — the visual convention of the
    /// paper's Figs. 5, 6 and 8.
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let clean: String = name
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "graph {} {{",
            if clean.is_empty() { "apa" } else { &clean }
        );
        let _ = writeln!(s, "  layout=neato;");
        for (i, comp) in self.component_names.iter().enumerate() {
            let _ = writeln!(s, "  c{i} [shape=ellipse, label=\"{comp}\"];");
        }
        for (i, aut) in self.automata.iter().enumerate() {
            let _ = writeln!(s, "  t{i} [shape=box, label=\"{}\"];", aut.name);
        }
        for (i, aut) in self.automata.iter().enumerate() {
            for c in &aut.neighbourhood {
                let _ = writeln!(s, "  t{i} -- c{};", c.index());
            }
        }
        s.push_str("}\n");
        s
    }
}

impl fmt::Debug for Apa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Apa")
            .field("components", &self.component_names)
            .field(
                "automata",
                &self
                    .automata
                    .iter()
                    .map(|a| (&a.name, &a.neighbourhood))
                    .collect::<Vec<_>>(),
            )
            .field("initial", &self.initial)
            .finish()
    }
}

/// Builder for [`Apa`] models.
///
/// Components are identified by name; declaring an automaton over
/// existing components is how models are *glued*: e.g. every vehicle's
/// `send`/`rec` automata name the one shared `net` component (§5.2 "the
/// net components are mapped together").
pub struct ApaBuilder {
    component_names: Vec<String>,
    by_name: HashMap<String, ComponentId>,
    automata: Vec<ElementaryAutomaton>,
    automaton_names: HashMap<String, AutomatonId>,
    initial: Vec<BTreeSet<Value>>,
    errors: Vec<ApaError>,
}

impl ApaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ApaBuilder {
            component_names: Vec::new(),
            by_name: HashMap::new(),
            automata: Vec::new(),
            automaton_names: HashMap::new(),
            initial: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Declares a state component with its initial value set, returning
    /// its id. Redeclaring a name is an error reported by
    /// [`ApaBuilder::build`].
    pub fn component(
        &mut self,
        name: &str,
        initial: impl IntoIterator<Item = Value>,
    ) -> ComponentId {
        if let Some(&id) = self.by_name.get(name) {
            self.errors.push(ApaError::DuplicateComponent {
                name: name.to_owned(),
            });
            return id;
        }
        let id = ComponentId(self.component_names.len() as u32);
        self.component_names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        self.initial.push(initial.into_iter().collect());
        id
    }

    /// Returns the id of an already-declared component, or declares it
    /// empty. This is the *gluing* entry point for shared components.
    pub fn shared_component(&mut self, name: &str) -> ComponentId {
        match self.by_name.get(name) {
            Some(&id) => id,
            None => self.component(name, []),
        }
    }

    /// Adds values to the initial set of an existing component.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn add_initial(&mut self, id: ComponentId, values: impl IntoIterator<Item = Value>) {
        self.initial[id.index()].extend(values);
    }

    /// Declares an elementary automaton `name` over `neighbourhood` with
    /// transition rule `rule`. The rule's local slots correspond to the
    /// neighbourhood components in the given order.
    pub fn automaton(
        &mut self,
        name: &str,
        neighbourhood: impl IntoIterator<Item = ComponentId>,
        rule: Box<dyn TransitionRule>,
    ) -> AutomatonId {
        let neighbourhood: Vec<ComponentId> = neighbourhood.into_iter().collect();
        if neighbourhood.is_empty() {
            self.errors.push(ApaError::EmptyNeighbourhood {
                automaton: name.to_owned(),
            });
        }
        if self.automaton_names.contains_key(name) {
            self.errors.push(ApaError::DuplicateAutomaton {
                name: name.to_owned(),
            });
        }
        let id = AutomatonId(self.automata.len() as u32);
        self.automaton_names.insert(name.to_owned(), id);
        self.automata.push(ElementaryAutomaton {
            name: name.to_owned(),
            neighbourhood,
            rule: Arc::from(rule),
        });
        id
    }

    /// Finishes construction.
    ///
    /// # Errors
    ///
    /// Returns the first declaration error recorded
    /// ([`ApaError::DuplicateComponent`], [`ApaError::DuplicateAutomaton`]
    /// or [`ApaError::EmptyNeighbourhood`]).
    pub fn build(mut self) -> Result<Apa, ApaError> {
        if !self.errors.is_empty() {
            return Err(self.errors.remove(0));
        }
        Ok(Apa {
            component_names: self.component_names,
            automata: self.automata,
            initial: self.initial,
        })
    }
}

impl Default for ApaBuilder {
    fn default() -> Self {
        ApaBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule;

    #[test]
    fn build_and_query() {
        let mut b = ApaBuilder::new();
        let src = b.component("src", [Value::atom("x")]);
        let dst = b.component("dst", []);
        let t = b.automaton("move", [src, dst], rule::move_any(0, 1));
        let apa = b.build().unwrap();
        assert_eq!(apa.component_count(), 2);
        assert_eq!(apa.automaton_count(), 1);
        assert_eq!(apa.component_name(src), "src");
        assert_eq!(apa.automaton_name(t), "move");
        assert_eq!(apa.neighbourhood(t), &[src, dst]);
        assert_eq!(apa.initial_state()[0].len(), 1);
    }

    #[test]
    fn successors_fire_enabled_automata() {
        let mut b = ApaBuilder::new();
        let src = b.component("src", [Value::atom("x")]);
        let dst = b.component("dst", []);
        b.automaton("move", [src, dst], rule::move_any(0, 1));
        let apa = b.build().unwrap();
        let succs = apa.successors(apa.initial_state()).unwrap();
        assert_eq!(succs.len(), 1);
        let (_, interp, next) = &succs[0];
        assert_eq!(interp, "x");
        assert!(next[0].is_empty());
        assert!(next[1].contains(&Value::atom("x")));
        // From the successor, nothing fires (dst is not a source).
        assert!(apa.successors(next).unwrap().is_empty());
    }

    #[test]
    fn duplicate_component_rejected() {
        let mut b = ApaBuilder::new();
        b.component("x", []);
        b.component("x", []);
        assert!(matches!(
            b.build(),
            Err(ApaError::DuplicateComponent { .. })
        ));
    }

    #[test]
    fn duplicate_automaton_rejected() {
        let mut b = ApaBuilder::new();
        let c = b.component("c", []);
        b.automaton("t", [c], rule::move_any(0, 0));
        b.automaton("t", [c], rule::move_any(0, 0));
        assert!(matches!(
            b.build(),
            Err(ApaError::DuplicateAutomaton { .. })
        ));
    }

    #[test]
    fn empty_neighbourhood_rejected() {
        let mut b = ApaBuilder::new();
        b.component("c", []);
        b.automaton("t", [], rule::move_any(0, 0));
        assert!(matches!(
            b.build(),
            Err(ApaError::EmptyNeighbourhood { .. })
        ));
    }

    #[test]
    fn shared_component_glues() {
        let mut b = ApaBuilder::new();
        let net1 = b.shared_component("net");
        let net2 = b.shared_component("net");
        assert_eq!(net1, net2);
        b.add_initial(net1, [Value::atom("msg")]);
        let apa = b.build().unwrap();
        assert_eq!(apa.initial_state()[net1.index()].len(), 1);
    }

    #[test]
    fn malformed_rule_reported() {
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
            apa.successors(apa.initial_state()),
            Err(ApaError::MalformedSuccessor { .. })
        ));
    }

    #[test]
    fn to_dot_renders_bipartite_structure() {
        let mut b = ApaBuilder::new();
        let src = b.component("src", [Value::atom("x")]);
        let dst = b.component("dst", []);
        b.automaton("move", [src, dst], rule::move_any(0, 1));
        let apa = b.build().unwrap();
        let dot = apa.to_dot("fig 5");
        assert!(dot.starts_with("graph fig5 {"));
        assert!(dot.contains("c0 [shape=ellipse, label=\"src\"];"));
        assert!(dot.contains("t0 [shape=box, label=\"move\"];"));
        assert!(dot.contains("t0 -- c0;"));
        assert!(dot.contains("t0 -- c1;"));
    }

    #[test]
    fn debug_nonempty() {
        let mut b = ApaBuilder::new();
        b.component("c", []);
        let apa = b.build().unwrap();
        assert!(format!("{apa:?}").contains("Apa"));
    }
}
