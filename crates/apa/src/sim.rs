//! Step-wise simulation of APA models, with pluggable fault injection.
//!
//! A [`Simulator`] executes one concrete run of an APA: at each step it
//! picks one of the activated elementary automata (deterministically
//! from a seed) and applies the transition. It can walk the APA as the
//! product of independent parts ([`Simulator::product`]), on their small
//! state graphs instead of the global one, and walks exactly alike.
//! Useful for demos, smoke tests, runtime-monitor fleets and for
//! generating sample traces that must be accepted by the behaviour
//! automaton — a property tested against [`crate::ReachGraph::to_nfa`].
//!
//! [`Fault`] models trace-level attacks on the event stream a simulator
//! produces — dropped events, spoofed events injected before their
//! causal prerequisites, and reordering windows. Faults are applied to
//! a *finished* trace ([`Simulator::inject`] or the generic
//! [`Fault::apply_stream`]), so a faulty run is the honest run plus a
//! deterministic mutation: the runtime monitoring engine
//! (`fsa-runtime`) relies on this determinism for bit-identical
//! violation reports across thread counts.

use crate::arena::{self, Edge, StateGraph, UNTAKEN};
use crate::error::ApaError;
use crate::model::{Apa, GlobalState};
use crate::reach::TransitionLabel;
use automata::{Symbol, SymbolTable};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// A deterministic fault / attack injected into a simulated event
/// stream.
///
/// The three shapes mirror the classic message-level attacker actions
/// against the vehicular scenario: suppressing a measurement
/// ([`Fault::Drop`]), forging a safety-critical output before its
/// authentic cause ([`Fault::Spoof`] — "spoof-before-sense"), and
/// scrambling delivery order within a bounded window
/// ([`Fault::Reorder`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Remove every occurrence of the named action from the stream.
    Drop {
        /// Automaton name of the events to suppress.
        action: String,
    },
    /// Insert one forged occurrence of the named action at the very
    /// beginning of the stream — before anything (in particular before
    /// any `sense`) has happened.
    Spoof {
        /// Automaton name of the forged event.
        action: String,
    },
    /// Reverse every consecutive window of `window` events (a
    /// deterministic bounded reordering; `window <= 1` is the
    /// identity).
    Reorder {
        /// Window size.
        window: usize,
    },
}

impl Fault {
    /// Parses the CLI syntax `drop:<action>`, `spoof:<action>`,
    /// `reorder:<window>`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown kinds or malformed
    /// values. An empty action name (`drop:`, `spoof:`) is rejected
    /// explicitly: such a fault would match no event and silently turn
    /// the injection into a no-op, which is the opposite of what an
    /// attack-simulation flag should do.
    pub fn parse(s: &str) -> Result<Fault, String> {
        let (kind, value) = s
            .split_once(':')
            .ok_or_else(|| format!("expected <kind>:<value>, got `{s}`"))?;
        match kind {
            "drop" | "spoof" if value.is_empty() => Err(format!(
                "{kind} expects a non-empty action name (an empty action would match no event)"
            )),
            "drop" => Ok(Fault::Drop {
                action: value.to_owned(),
            }),
            "spoof" => Ok(Fault::Spoof {
                action: value.to_owned(),
            }),
            "reorder" => match value.parse::<usize>() {
                Ok(w) if w >= 1 => Ok(Fault::Reorder { window: w }),
                _ => Err(format!("reorder expects a positive window, got `{value}`")),
            },
            _ => Err(format!(
                "unknown fault `{kind}` (expected drop:<action>, spoof:<action> or reorder:<window>)"
            )),
        }
    }

    /// Applies this fault to a generic event stream.
    ///
    /// The stream representation is abstract: `matches` decides whether
    /// an event carries the fault's target action and `spoofed` is the
    /// event to forge for [`Fault::Spoof`]. This lets the same
    /// definition mutate `Vec<TransitionLabel>` streams (here) and the
    /// dense `u32` symbol streams of the runtime monitoring engine
    /// without translation.
    pub fn apply_stream<T: Copy>(
        &self,
        events: &mut Vec<T>,
        matches: impl Fn(T) -> bool,
        spoofed: impl FnOnce() -> T,
    ) {
        // `spoofed` is only evaluated for `Fault::Spoof`, preserving
        // the lazy contract for callers with fallible closures.
        let forged = matches!(self, Fault::Spoof { .. }).then(spoofed);
        self.apply_stream_with(events, matches, forged);
    }

    /// Like [`Fault::apply_stream`], with the forged event passed as a
    /// plain `Option`: a [`Fault::Spoof`] with `None` degrades to a
    /// no-op instead of forcing callers to promise (via a panicking
    /// closure) that a forged event can always be built.
    pub fn apply_stream_with<T: Copy>(
        &self,
        events: &mut Vec<T>,
        matches: impl Fn(T) -> bool,
        spoofed: Option<T>,
    ) {
        match self {
            Fault::Drop { .. } => events.retain(|&e| !matches(e)),
            Fault::Spoof { .. } => {
                if let Some(forged) = spoofed {
                    events.insert(0, forged);
                }
            }
            Fault::Reorder { window } => {
                if *window > 1 {
                    for chunk in events.chunks_mut(*window) {
                        chunk.reverse();
                    }
                }
            }
        }
    }

    /// The action name this fault targets (`None` for reordering).
    pub fn action(&self) -> Option<&str> {
        match self {
            Fault::Drop { action } | Fault::Spoof { action } => Some(action),
            Fault::Reorder { .. } => None,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Drop { action } => write!(f, "drop:{action}"),
            Fault::Spoof { action } => write!(f, "spoof:{action}"),
            Fault::Reorder { window } => write!(f, "reorder:{window}"),
        }
    }
}

/// One part of a walk: an APA over automata no other part has, the state
/// graph of it the walk has built so far, and the walk's place in it.
///
/// A state is expanded into its edges on its first visit, and an edge's
/// target is interned the first time a step takes it.
#[derive(Debug)]
struct Part<'a> {
    graph: StateGraph<'a>,
    /// `automata[k]`: the walked APA's index of automaton `k`, ascending
    /// in `k`.
    automata: Vec<u32>,
    /// `components[c]`: the walked APA's index of component `c`.
    components: Vec<usize>,
    /// The current state.
    current: u32,
    /// The current state's edges that the step's merge has not passed
    /// over yet (see [`Simulator::select`]).
    out: (u32, u32),
}

impl<'a> Part<'a> {
    fn new(apa: &'a Apa, automata: Vec<u32>, components: Vec<usize>) -> Self {
        Part {
            graph: StateGraph::new(apa),
            automata,
            components,
            current: 0,
            out: (0, 0),
        }
    }
}

/// Translates memo interpretation symbols (of a table `interps`) into
/// one trace's symbols, asking `intern` for each at its first use there
/// — the point where an [`Apa::successors`]-based walk interns it.
#[derive(Debug, Default)]
struct InterpSymbols(Vec<Option<Symbol>>);

impl InterpSymbols {
    fn get(
        &mut self,
        interps: &SymbolTable,
        interp: Symbol,
        intern: impl FnOnce(&str) -> Symbol,
    ) -> Symbol {
        let i = interp.index();
        if i >= self.0.len() {
            self.0.resize(interps.len(), None);
        }
        *self.0[i].get_or_insert_with(|| intern(interps.name(interp)))
    }

    /// Forgets every translation (the trace's table was replaced).
    fn clear(&mut self) {
        self.0.clear();
    }
}

/// A deterministic, seedable simulator over one APA.
///
/// The simulator walks the APA as a product of *parts*, APAs over
/// disjoint sets of its automata: [`Simulator::new`] walks the APA as
/// its own only part, [`Simulator::product`] walks given parts. Each
/// part builds its state graph lazily, on the arena state graph that
/// [`Apa::reachability`] builds in full, expanding each of its states
/// once. A step
/// gathers every part's edges out of its current state, merged by
/// automaton in the APA's declaration order (one automaton's edges keep
/// their firing order, so the merge is the [`Apa::successors`] order),
/// takes the one a splitmix draw picks and moves only that part. The
/// graphs outlive episodes: [`Simulator::restart`] starts a new run from
/// q₀ on the same graphs, so a fleet of episodes expands each part state
/// once and fires each rule once per distinct local state.
#[derive(Debug)]
pub struct Simulator<'a> {
    apa: &'a Apa,
    parts: Vec<Part<'a>>,
    /// The merge order of a step's edges: the parts' automata in the
    /// APA's order, cut into maximal blocks of one part's, as `(part,
    /// bound)`. A block holds the part's automata, by their index in the
    /// part, below `bound`: those before the next block's; `u32::MAX` for
    /// the part's last block.
    blocks: Vec<(usize, u32)>,
    /// The interpretations every part's memo has fired, seeded with the
    /// APA's automaton names (so they are shared by name across parts).
    interps: SymbolTable,
    trace: Vec<TransitionLabel>,
    /// The episode's interner of trace labels, built on first use: the
    /// automaton names (unique, so automaton `k` is symbol `k`), then the
    /// interpretations in order of first appearance in the trace. A
    /// fleet never asks for it, so restarts skip building it.
    symbols: OnceLock<SymbolTable>,
    /// While `symbols` is unbuilt: the trace's interpretations (symbols
    /// of `interps`) in order of first appearance, numbered after the
    /// automaton names.
    first_seen: Vec<Symbol>,
    interp_syms: InterpSymbols,
    rng_state: u64,
}

impl<'a> Simulator<'a> {
    /// Starts a simulation in the APA's initial state.
    pub fn new(apa: &'a Apa, seed: u64) -> Self {
        let automata = (0..apa.automaton_count() as u32).collect();
        let part = Part::new(apa, automata, (0..apa.component_count()).collect());
        Self::walking(apa, vec![part], seed)
    }

    /// Starts a simulation in the APA's initial state that walks the
    /// product of `parts` instead of the APA's own state graph: the walk
    /// [`Simulator::new`] makes, on graphs as small as the parts'.
    ///
    /// Each part is an APA over some of `apa`'s automata and components,
    /// named, declared in the order and wired as in `apa`; no automaton
    /// is in two parts. The caller vouches that the parts are
    /// independent: in every reachable state, each automaton fires as its
    /// part's copy fires in the part's state (an automaton of no part
    /// never fires), and a component holds the initial values that are
    /// in no part's copy of it, plus what each part's copy holds.
    /// [`Apa::fragments`] and the value-level fragments of an editable
    /// model are such parts; `std::slice::from_ref(apa)` walks the APA as
    /// its own only part.
    ///
    /// # Errors
    ///
    /// [`ApaError::PartMismatch`] if a part names an automaton or a
    /// component `apa` lacks, repeats an automaton of an earlier part,
    /// declares its automata in another order than `apa` or wires one
    /// otherwise.
    pub fn product(apa: &'a Apa, parts: &'a [Apa], seed: u64) -> Result<Self, ApaError> {
        let automata: HashMap<&str, usize> = apa
            .automaton_names()
            .enumerate()
            .map(|(i, name)| (name, i))
            .collect();
        let components: HashMap<&str, usize> = apa
            .component_names
            .iter()
            .enumerate()
            .map(|(i, name)| (name.as_str(), i))
            .collect();
        let mut claimed = vec![false; apa.automaton_count()];
        let mut walk = Vec::with_capacity(parts.len());
        for (p, part) in parts.iter().enumerate() {
            let mismatch = |name: &str| ApaError::PartMismatch {
                part: p,
                name: name.to_owned(),
            };
            let comps = part
                .component_names
                .iter()
                .map(|name| {
                    components
                        .get(name.as_str())
                        .copied()
                        .ok_or_else(|| mismatch(name))
                })
                .collect::<Result<Vec<usize>, ApaError>>()?;
            let mut auts: Vec<u32> = Vec::with_capacity(part.automaton_count());
            for aut in &part.automata {
                let fits = |&g: &usize| {
                    !claimed[g]
                        && auts.last().is_none_or(|&last| (last as usize) < g)
                        && aut
                            .neighbourhood
                            .iter()
                            .map(|c| comps[c.index()])
                            .eq(apa.automata[g].neighbourhood.iter().map(|c| c.index()))
                };
                let g = automata
                    .get(aut.name.as_str())
                    .copied()
                    .filter(fits)
                    .ok_or_else(|| mismatch(&aut.name))?;
                claimed[g] = true;
                // Automata are numbered in `u32` by the builder.
                auts.push(g as u32);
            }
            walk.push(Part::new(part, auts, comps));
        }
        Ok(Self::walking(apa, walk, seed))
    }

    fn walking(apa: &'a Apa, parts: Vec<Part<'a>>, seed: u64) -> Self {
        // Every automaton of a part with its part, in the APA's order,
        // then each block's first automaton and part.
        let mut starts: Vec<(u32, usize)> = parts
            .iter()
            .enumerate()
            .flat_map(|(p, part)| part.automata.iter().map(move |&aut| (aut, p)))
            .collect();
        starts.sort_unstable();
        starts.dedup_by_key(|&mut (_, p)| p);
        let blocks = starts
            .iter()
            .enumerate()
            .map(|(b, &(_, p))| {
                let later = starts[b + 1..].iter().any(|&(_, q)| q == p);
                // The part's automata before the next block's first one
                // (a part has at most the APA's `u32` automata).
                let bound = || {
                    parts[p]
                        .automata
                        .partition_point(|&aut| aut < starts[b + 1].0)
                };
                (p, if later { bound() as u32 } else { u32::MAX })
            })
            .collect();
        Simulator {
            apa,
            parts,
            blocks,
            interps: arena::interpretations(apa),
            trace: Vec::new(),
            symbols: OnceLock::new(),
            first_seen: Vec::new(),
            interp_syms: InterpSymbols::default(),
            rng_state: seed | 1,
        }
    }

    /// Starts a new episode from q₀ under `seed`, with a fresh trace and
    /// symbol table: the run is the one a new simulator with `seed`
    /// makes. The state graphs and the firing memos are kept, so the
    /// episode replays the states earlier episodes expanded instead of
    /// expanding them again.
    pub fn restart(&mut self, seed: u64) {
        for part in &mut self.parts {
            part.current = 0;
        }
        self.trace.clear();
        self.symbols = OnceLock::new();
        self.first_seen.clear();
        self.interp_syms.clear();
        self.rng_state = seed | 1;
    }

    /// The number of part states this simulator has expanded into their
    /// successor edges, over all its episodes: each state of each part
    /// at most once.
    pub fn states_expanded(&self) -> usize {
        self.parts.iter().map(|part| part.graph.expanded).sum()
    }

    /// Builds the episode's symbol table from the labels numbered so far.
    fn build_symbols(&self) -> SymbolTable {
        let mut symbols = SymbolTable::new();
        for name in self.apa.automaton_names() {
            symbols.intern(name);
        }
        for &interp in &self.first_seen {
            symbols.intern(self.interps.name(interp));
        }
        symbols
    }

    /// The current global state, decoded from the parts' cell rows: each
    /// component's initial values in no part's copy of it, plus what
    /// each part's copy holds now.
    pub fn state(&self) -> GlobalState {
        let mut state = self.apa.initial.clone();
        for part in &self.parts {
            for (&c, initial) in part.components.iter().zip(&part.graph.apa.initial) {
                state[c].retain(|value| !initial.contains(value));
            }
        }
        for part in &self.parts {
            let cells = part.graph.memo.cells();
            let row = part.graph.states.row(part.current as usize);
            for (&c, &cell) in part.components.iter().zip(row) {
                state[c].extend(cells.get(cell).iter().cloned());
            }
        }
        state
    }

    /// The labels of the transitions executed so far.
    pub fn trace(&self) -> &[TransitionLabel] {
        &self.trace
    }

    /// The interner resolving this simulator's trace labels.
    pub fn symbols(&self) -> &SymbolTable {
        self.symbols.get_or_init(|| self.build_symbols())
    }

    /// Resolves a label symbol to its name.
    ///
    /// # Panics
    ///
    /// Panics if `s` does not belong to this simulator's table.
    pub fn name(&self, s: Symbol) -> &str {
        self.symbols().name(s)
    }

    /// The automaton names of the trace so far — convenience for
    /// rendering and for feeding [`automata::Nfa::accepts`].
    pub fn trace_names(&self) -> Vec<&str> {
        let symbols = self.symbols();
        self.trace
            .iter()
            .map(|l| symbols.name(l.automaton))
            .collect()
    }

    /// Executes one step; returns the label fired, or `None` if the
    /// simulation reached a dead state.
    ///
    /// The successors are ordered as [`Apa::successors`] orders them
    /// (by automaton, then by the rule's firing order), and the step
    /// takes the one a splitmix draw picks. A step that fails leaves the
    /// walk where it was, so the next one fails alike.
    ///
    /// # Errors
    ///
    /// [`ApaError::MalformedSuccessor`] from rule execution (for the
    /// first automaton in declaration order whose rule misbehaves in the
    /// current state), and [`ApaError::IdSpaceExceeded`] if the kernel's
    /// cell pool, memo or state graph runs out of `u32` ids.
    pub fn step(&mut self) -> Result<Option<TransitionLabel>, ApaError> {
        // Every part's edges out of its current state, expanded on its
        // first visit.
        let mut edges = 0usize;
        let mut failed: Option<(u32, ApaError)> = None;
        for part in &mut self.parts {
            let state = part.current as usize;
            part.out = match part.graph.ranges[state] {
                Some(out) => out,
                None => match part.graph.expand(state, &mut self.interps) {
                    Ok(out) => out,
                    // Each part fails at its first misbehaving automaton;
                    // the APA fails at the first of those.
                    Err((at, e)) => {
                        let at = part.automata.get(at as usize).copied().unwrap_or(u32::MAX);
                        if failed.as_ref().is_none_or(|(first, _)| at < *first) {
                            failed = Some((at, e));
                        }
                        continue;
                    }
                },
            };
            edges += (part.out.1 - part.out.0) as usize;
        }
        if let Some((_, e)) = failed {
            return Err(e);
        }
        if edges == 0 {
            return Ok(None);
        }
        let (rng_state, draw) = splitmix(self.rng_state);
        let (p, at) = self.select((draw as usize) % edges);
        let part = &mut self.parts[p];
        let Edge {
            automaton,
            interp,
            target,
            ..
        } = part.graph.edges[at];
        let automaton = part.automata[automaton as usize];
        part.current = match target {
            UNTAKEN => part.graph.take(part.current as usize, at)?.0,
            target => target,
        };
        self.rng_state = rng_state;
        let interpretation = match self.symbols.get_mut() {
            Some(symbols) => self
                .interp_syms
                .get(&self.interps, interp, |name| symbols.intern(name)),
            None => {
                let (automata, first_seen) = (self.apa.automaton_count(), &mut self.first_seen);
                self.interp_syms.get(&self.interps, interp, |_| {
                    if interp.index() < automata {
                        // Spells an automaton name (see `interps`).
                        interp
                    } else {
                        first_seen.push(interp);
                        Symbol::new(automata + first_seen.len() - 1)
                    }
                })
            }
        };
        let label = TransitionLabel {
            automaton: Symbol::new(automaton as usize),
            interpretation,
        };
        self.trace.push(label);
        Ok(Some(label))
    }

    /// The part and the index in its `edges` of edge `idx` of the step's
    /// edges merged by automaton. Each part's edges are ordered by
    /// automaton, so the merge takes each block's edges in turn from its
    /// part (see `blocks`). Consumes the parts' `out` ranges; `idx` is
    /// below their total length.
    fn select(&mut self, mut idx: usize) -> (usize, usize) {
        for &(p, bound) in &self.blocks {
            let part = &mut self.parts[p];
            let (lo, hi) = part.out;
            let run = match bound {
                u32::MAX => (hi - lo) as usize,
                bound => part.graph.edges[lo as usize..hi as usize]
                    .iter()
                    .take_while(|e| e.automaton < bound)
                    .count(),
            };
            if idx < run {
                return (p, lo as usize + idx);
            }
            idx -= run;
            part.out.0 += run as u32;
        }
        unreachable!("a step draws below its edge count")
    }

    /// Runs until a dead state or `max_steps`, returning the number of
    /// steps executed.
    ///
    /// # Errors
    ///
    /// Propagates rule-execution errors.
    pub fn run(&mut self, max_steps: usize) -> Result<usize, ApaError> {
        let mut steps = 0;
        while steps < max_steps {
            if self.step()?.is_none() {
                break;
            }
            steps += 1;
        }
        Ok(steps)
    }

    /// Applies a [`Fault`] to the trace collected so far.
    ///
    /// [`Fault::Spoof`] interns the forged action into this simulator's
    /// symbol table (with interpretation `spoofed`), so the mutated
    /// trace still resolves through [`Simulator::symbols`] /
    /// [`Simulator::trace_names`].
    pub fn inject(&mut self, fault: &Fault) {
        let mut symbols = self.symbols.take().unwrap_or_else(|| self.build_symbols());
        let target = fault.action().map(|a| symbols.intern(a));
        // Build the forged label up front: it exists exactly when the
        // fault is a spoof carrying an action, so the stream mutation
        // below needs no partial `expect`s.
        let forged = match (fault, target) {
            (Fault::Spoof { .. }, Some(automaton)) => Some(TransitionLabel {
                automaton,
                interpretation: symbols.intern("spoofed"),
            }),
            _ => None,
        };
        self.symbols = OnceLock::from(symbols);
        let mut trace = std::mem::take(&mut self.trace);
        fault.apply_stream_with(
            &mut trace,
            |l: TransitionLabel| Some(l.automaton) == target,
            forged,
        );
        self.trace = trace;
    }
}

/// A split-mix style PRNG step (deterministic, dependency-free): the
/// advanced state and the draw.
fn splitmix(state: u64) -> (u64, u64) {
    let state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    (state, z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ApaBuilder;
    use crate::reach::ReachOptions;
    use crate::rule;
    use crate::value::Value;

    fn pipeline() -> Apa {
        let mut b = ApaBuilder::new();
        let c0 = b.component("c0", [Value::atom("x"), Value::atom("y")]);
        let c1 = b.component("c1", []);
        let c2 = b.component("c2", []);
        b.automaton("first", [c0, c1], rule::move_any(0, 1));
        b.automaton("second", [c1, c2], rule::move_any(0, 1));
        b.build().unwrap()
    }

    /// A token circling between `a` and `b` beside a mover from `src`
    /// to `mid`, and a `check` rule on `mid` whose second firing is
    /// malformed once the mover has fired. The state where that happens
    /// first gets the circling automaton's edge, then fails.
    fn malformed_after_a_move() -> Apa {
        let mut b = ApaBuilder::new();
        let a = b.component("a", [Value::atom("t")]);
        let bb = b.component("b", []);
        let src = b.component("src", [Value::atom("x")]);
        let mid = b.component("mid", []);
        b.automaton("ping", [a, bb], rule::move_any(0, 1));
        b.automaton("pong", [bb, a], rule::move_any(0, 1));
        b.automaton("move", [src, mid], rule::move_any(0, 1));
        b.automaton(
            "check",
            [mid],
            Box::new(rule::FnRule::new(|local: &rule::LocalState| {
                if local[0].is_empty() {
                    Vec::new()
                } else {
                    vec![
                        ("ok".to_owned(), local.clone()),
                        ("bad".to_owned(), Vec::new()),
                    ]
                }
            })),
        );
        b.build().unwrap()
    }

    #[test]
    fn a_failed_expansion_leaves_the_state_graph_unchanged() {
        let apa = malformed_after_a_move();
        let mut sim = Simulator::new(&apa, 5);
        let err = (0..1000)
            .find_map(|_| {
                let graph = &sim.parts[0].graph;
                let (edges, ranges) = (graph.edges.len(), graph.ranges.clone());
                match sim.step() {
                    Ok(Some(_)) => None,
                    Ok(None) => panic!("no state of this APA is dead"),
                    Err(e) => {
                        let part = &sim.parts[0];
                        assert!(part.graph.ranges[part.current as usize].is_none());
                        assert_eq!(part.graph.edges.len(), edges, "no edge left behind");
                        assert_eq!(part.graph.ranges, ranges);
                        Some(e)
                    }
                }
            })
            .expect("the mover fires within 1000 steps");
        assert!(matches!(err, ApaError::MalformedSuccessor { .. }), "{err}");
        let (current, steps, rng) = (sim.parts[0].current, sim.trace.len(), sim.rng_state);
        assert_eq!(sim.step(), Err(err));
        assert_eq!(
            (sim.parts[0].current, sim.trace.len(), sim.rng_state),
            (current, steps, rng)
        );
        assert!(sim.parts[0].graph.ranges[current as usize].is_none());
        assert!(sim.states_expanded() > 0);
    }

    /// Two independent fragments whose automata interleave in
    /// declaration order: a mover chain `x` and a ping-pong `y`.
    fn interleaved() -> Apa {
        let mut b = ApaBuilder::new();
        let x0 = b.component("x0", [Value::atom("a"), Value::atom("b")]);
        let y0 = b.component("y0", [Value::atom("t")]);
        let x1 = b.component("x1", []);
        let y1 = b.component("y1", []);
        let x2 = b.component("x2", []);
        b.automaton("x_first", [x0, x1], rule::move_any(0, 1));
        b.automaton("y_there", [y0, y1], rule::move_any(0, 1));
        b.automaton("x_second", [x1, x2], rule::move_any(0, 1));
        b.automaton("y_back", [y1, y0], rule::move_any(0, 1));
        b.build().unwrap()
    }

    #[test]
    fn a_product_of_interleaved_fragments_walks_as_the_whole() {
        let apa = interleaved();
        let parts = apa.fragments();
        assert_eq!(parts.len(), 2);
        let mut restarted = Simulator::product(&apa, &parts, 0).unwrap();
        for seed in 0..64 {
            let mut whole = Simulator::new(&apa, seed);
            let steps = whole.run(40);
            restarted.restart(seed);
            for product in [
                &mut Simulator::product(&apa, &parts, seed).unwrap(),
                &mut restarted,
            ] {
                assert_eq!(product.run(40), steps, "seed {seed}");
                assert_eq!(product.trace(), whole.trace(), "seed {seed}");
                assert_eq!(product.trace_names(), whole.trace_names(), "seed {seed}");
                assert_eq!(product.state(), whole.state(), "seed {seed}");
            }
        }
        // Each of `x`'s two tokens in one of three places, `t` in one of
        // two: 9 + 2 part states, against 18 states of the whole.
        assert_eq!(restarted.states_expanded(), 9 + 2);
    }

    #[test]
    fn parts_that_do_not_fit_are_typed_errors() {
        let apa = interleaved();
        let mismatch = |parts: &[Apa], part: usize, name: &str| {
            let err = Simulator::product(&apa, parts, 1).map(|_| ()).unwrap_err();
            assert_eq!(
                err,
                ApaError::PartMismatch {
                    part,
                    name: name.to_owned()
                }
            );
        };
        // The same parts twice.
        let mut twice = apa.fragments();
        twice.extend(apa.fragments());
        mismatch(&twice, 2, "x_first");
        // An automaton the APA lacks.
        mismatch(&[pipeline()], 0, "c0");
        // Automata out of the APA's order, and an automaton wired
        // otherwise.
        let part = |automata: &[(&str, bool)]| {
            let mut b = ApaBuilder::new();
            let y0 = b.component("y0", [Value::atom("t")]);
            let y1 = b.component("y1", []);
            for &(name, there) in automata {
                let ends = if there { [y0, y1] } else { [y1, y0] };
                b.automaton(name, ends, rule::move_any(0, 1));
            }
            b.build().unwrap()
        };
        mismatch(
            &[part(&[("y_back", false), ("y_there", true)])],
            0,
            "y_there",
        );
        mismatch(&[part(&[("y_there", false)])], 0, "y_there");
        assert!(Simulator::product(&apa, &[part(&[("y_there", true)])], 1).is_ok());
        assert!(ApaError::PartMismatch {
            part: 3,
            name: "t".into()
        }
        .to_string()
        .starts_with("part 3 does not fit the APA at `t`"));
    }

    #[test]
    fn run_terminates_in_dead_state() {
        let apa = pipeline();
        let mut sim = Simulator::new(&apa, 42);
        let steps = sim.run(100).unwrap();
        assert_eq!(steps, 4, "two items, two hops each");
        assert!(sim.step().unwrap().is_none(), "dead state reached");
        assert_eq!(sim.trace().len(), 4);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let apa = pipeline();
        let mut a = Simulator::new(&apa, 7);
        let mut b = Simulator::new(&apa, 7);
        a.run(100).unwrap();
        b.run(100).unwrap();
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn seeds_explore_different_interleavings() {
        let apa = pipeline();
        let traces: std::collections::BTreeSet<Vec<String>> = (0..32)
            .map(|seed| {
                let mut sim = Simulator::new(&apa, seed);
                sim.run(100).unwrap();
                sim.trace_names().into_iter().map(str::to_owned).collect()
            })
            .collect();
        assert!(traces.len() > 1, "nondeterminism explored across seeds");
    }

    #[test]
    fn traces_accepted_by_behaviour() {
        let apa = pipeline();
        let nfa = apa.reachability(&ReachOptions::default()).unwrap().to_nfa();
        for seed in 0..16 {
            let mut sim = Simulator::new(&apa, seed);
            sim.run(100).unwrap();
            let word = sim.trace_names();
            assert!(nfa.accepts(word.iter().copied()), "trace {word:?}");
        }
    }

    #[test]
    fn fault_parse_roundtrip_and_errors() {
        for (s, f) in [
            (
                "drop:V1_sense",
                Fault::Drop {
                    action: "V1_sense".into(),
                },
            ),
            (
                "spoof:V3_show",
                Fault::Spoof {
                    action: "V3_show".into(),
                },
            ),
            ("reorder:4", Fault::Reorder { window: 4 }),
        ] {
            let parsed = Fault::parse(s).unwrap();
            assert_eq!(parsed, f);
            assert_eq!(parsed.to_string(), s);
        }
        assert!(Fault::parse("nonsense").is_err());
        assert!(Fault::parse("reorder:zero").is_err());
        assert!(Fault::parse("explode:now").is_err());
    }

    /// Regression: `drop:` / `spoof:` used to fall through to the
    /// generic "unknown fault `drop`" arm — a misleading diagnosis for
    /// a *known* kind with a missing action. The empty action name now
    /// gets its own typed message (it would otherwise build a fault
    /// that silently matches nothing).
    #[test]
    fn fault_parse_rejects_empty_action_names_with_a_typed_error() {
        for s in ["drop:", "spoof:"] {
            let err = Fault::parse(s).unwrap_err();
            assert!(
                err.contains("expects a non-empty action name"),
                "{s}: {err}"
            );
            assert!(
                !err.contains("unknown fault"),
                "{s}: the kind is known, the value is missing: {err}"
            );
        }
    }

    #[test]
    fn drop_removes_all_occurrences() {
        let apa = pipeline();
        let mut sim = Simulator::new(&apa, 42);
        sim.run(100).unwrap();
        assert!(sim.trace_names().contains(&"first"));
        sim.inject(&Fault::Drop {
            action: "first".into(),
        });
        assert!(!sim.trace_names().contains(&"first"));
        assert_eq!(sim.trace_names(), vec!["second", "second"]);
    }

    #[test]
    fn spoof_prepends_forged_event() {
        let apa = pipeline();
        let mut sim = Simulator::new(&apa, 42);
        sim.run(100).unwrap();
        sim.inject(&Fault::Spoof {
            action: "second".into(),
        });
        let names = sim.trace_names();
        assert_eq!(names[0], "second");
        assert_eq!(names.len(), 5);
        let first = sim.trace()[0];
        assert_eq!(sim.name(first.interpretation), "spoofed");
    }

    #[test]
    fn reorder_reverses_windows_and_window_one_is_identity() {
        let apa = pipeline();
        let mut sim = Simulator::new(&apa, 42);
        sim.run(100).unwrap();
        let honest = sim.trace().to_vec();
        sim.inject(&Fault::Reorder { window: 1 });
        assert_eq!(sim.trace(), honest.as_slice(), "window 1 is the identity");
        sim.inject(&Fault::Reorder { window: 2 });
        let expected: Vec<_> = honest
            .chunks(2)
            .flat_map(|c| c.iter().rev().copied())
            .collect();
        assert_eq!(sim.trace(), expected.as_slice());
    }

    #[test]
    fn spoof_of_foreign_action_interns_it() {
        let apa = pipeline();
        let mut sim = Simulator::new(&apa, 3);
        sim.run(100).unwrap();
        sim.inject(&Fault::Spoof {
            action: "ATK_inject".into(),
        });
        assert_eq!(sim.trace_names()[0], "ATK_inject");
    }

    #[test]
    fn max_steps_respected() {
        let apa = pipeline();
        let mut sim = Simulator::new(&apa, 1);
        assert_eq!(sim.run(2).unwrap(), 2);
        assert_eq!(sim.trace().len(), 2);
    }

    /// Regression for the former partial `expect`s in `inject`: every
    /// fault kind applies cleanly to an *empty* trace (fresh
    /// simulator), and a spoof with `apply_stream_with(..., None)`
    /// degrades to a no-op instead of panicking.
    #[test]
    fn inject_never_panics_on_fresh_traces() {
        let apa = pipeline();
        for fault in [
            Fault::Drop {
                action: "first".into(),
            },
            Fault::Spoof {
                action: "first".into(),
            },
            Fault::Reorder { window: 3 },
        ] {
            let mut sim = Simulator::new(&apa, 9);
            sim.inject(&fault);
            match fault {
                Fault::Spoof { .. } => assert_eq!(sim.trace().len(), 1, "{fault}"),
                _ => assert!(sim.trace().is_empty(), "{fault}"),
            }
        }
        // Spoof without a forged event is a no-op, not a panic.
        let mut events = vec![1u32, 2, 3];
        Fault::Spoof { action: "x".into() }.apply_stream_with(&mut events, |_| false, None);
        assert_eq!(events, vec![1, 2, 3]);
    }
}
