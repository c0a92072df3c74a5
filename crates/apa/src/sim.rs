//! Step-wise simulation of APA models, with pluggable fault injection.
//!
//! A [`Simulator`] executes one concrete run of an APA: at each step it
//! picks one of the activated elementary automata (deterministically
//! from a seed) and applies the transition. Useful for demos, smoke
//! tests and for generating sample traces that must be accepted by the
//! behaviour automaton — a property tested against
//! [`crate::ReachGraph::to_nfa`].
//!
//! [`Fault`] models trace-level attacks on the event stream a simulator
//! produces — dropped events, spoofed events injected before their
//! causal prerequisites, and reordering windows. Faults are applied to
//! a *finished* trace ([`Simulator::inject`] or the generic
//! [`Fault::apply_stream`]), so a faulty run is the honest run plus a
//! deterministic mutation: the runtime monitoring engine
//! (`fsa-runtime`) relies on this determinism for bit-identical
//! violation reports across thread counts.

use crate::arena::{FireMemo, InterpSymbols};
use crate::error::ApaError;
use crate::model::{Apa, GlobalState};
use crate::reach::TransitionLabel;
use automata::{Symbol, SymbolTable};
use std::fmt;
use std::ops::Range;
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

/// A deterministic, seedable simulator over one APA.
///
/// The simulator runs on the reachability kernel's arena (see
/// [`crate::reach`]): the state is a row of interned cell ids, and each
/// automaton's enabled firings come from the per-`(automaton, local cell
/// row)` firing memo. After a step only the automata whose neighbourhood
/// holds a changed component are looked up again. The memo outlives
/// episodes: [`Simulator::restart`] starts a new run from q₀ on the same
/// memo, so a fleet of episodes fires each rule once per distinct local
/// state.
#[derive(Debug)]
pub struct Simulator<'a> {
    apa: &'a Apa,
    memo: FireMemo,
    /// `readers[c]`: the automata whose neighbourhood contains component
    /// `c`.
    readers: Vec<Vec<usize>>,
    /// The current state as a cell row.
    row: Vec<u32>,
    /// Per automaton: its memo firing range at the current state, or
    /// `None` once a component of its neighbourhood has changed.
    enabled: Vec<Option<Range<usize>>>,
    local: Vec<u32>,
    trace: Vec<TransitionLabel>,
    /// The episode's interner of trace labels, built on first use: the
    /// automaton names (unique, so automaton `k` is symbol `k`), then the
    /// interpretations in order of first appearance in the trace. A
    /// fleet never asks for it, so restarts skip building it.
    symbols: OnceLock<SymbolTable>,
    /// While `symbols` is unbuilt: the trace's interpretations (memo
    /// symbols) in order of first appearance, numbered after the
    /// automaton names.
    first_seen: Vec<Symbol>,
    interp_syms: InterpSymbols,
    rng_state: u64,
}

impl<'a> Simulator<'a> {
    /// Starts a simulation in the APA's initial state.
    pub fn new(apa: &'a Apa, seed: u64) -> Self {
        let memo = FireMemo::new(apa);
        let mut readers = vec![Vec::new(); apa.component_count()];
        for (aut, automaton) in apa.automata.iter().enumerate() {
            for c in &automaton.neighbourhood {
                readers[c.index()].push(aut);
            }
        }
        Simulator {
            apa,
            row: memo.initial().to_vec(),
            memo,
            readers,
            enabled: vec![None; apa.automaton_count()],
            local: Vec::new(),
            trace: Vec::new(),
            symbols: OnceLock::new(),
            first_seen: Vec::new(),
            interp_syms: InterpSymbols::default(),
            rng_state: seed | 1,
        }
    }

    /// Starts a new episode from q₀ under `seed`, with a fresh trace and
    /// symbol table: the run is the one [`Simulator::new`] with `seed`
    /// makes. The firing memo is kept, so the episode replays the local
    /// states earlier episodes visited instead of firing their rules.
    pub fn restart(&mut self, seed: u64) {
        self.row.copy_from_slice(self.memo.initial());
        self.enabled.fill(None);
        self.trace.clear();
        self.symbols = OnceLock::new();
        self.first_seen.clear();
        self.interp_syms.clear();
        self.rng_state = seed | 1;
    }

    /// Builds the episode's symbol table from the labels numbered so far.
    fn build_symbols(&self) -> SymbolTable {
        let mut symbols = SymbolTable::new();
        for name in self.apa.automaton_names() {
            symbols.intern(name);
        }
        for &interp in &self.first_seen {
            symbols.intern(self.memo.interp_name(interp));
        }
        symbols
    }

    /// The current global state, decoded from the cell row.
    pub fn state(&self) -> GlobalState {
        let cells = self.memo.cells();
        self.row.iter().map(|&c| cells.get(c).clone()).collect()
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
    /// takes the one a splitmix draw picks.
    ///
    /// # Errors
    ///
    /// [`ApaError::MalformedSuccessor`] from rule execution (for the
    /// first automaton in declaration order whose rule misbehaves in the
    /// current state), and [`ApaError::IdSpaceExceeded`] if the kernel's
    /// cell pool or memo runs out of `u32` ids.
    pub fn step(&mut self) -> Result<Option<TransitionLabel>, ApaError> {
        let apa = self.apa;
        let mut total = 0;
        for (aut, automaton) in apa.automata.iter().enumerate() {
            if self.enabled[aut].is_none() {
                self.local.clear();
                self.local
                    .extend(automaton.neighbourhood.iter().map(|c| self.row[c.index()]));
                self.enabled[aut] = Some(self.memo.firings(apa, aut, &self.local)?);
            }
            total += self.enabled[aut].as_ref().map_or(0, Range::len);
        }
        if total == 0 {
            return Ok(None);
        }
        let mut choice = (self.next_rand() as usize) % total;
        // `choice < total` by the modulo above, but fail soft (treat as
        // a dead state) rather than panic if the invariant ever breaks.
        let Some((aut, firing)) = self.enabled.iter().enumerate().find_map(|(aut, firings)| {
            let firings = firings.as_ref()?;
            if choice < firings.len() {
                Some((aut, firings.start + choice))
            } else {
                choice -= firings.len();
                None
            }
        }) else {
            return Ok(None);
        };
        let (interp, next) = self.memo.firing(aut, firing);
        for (slot, c) in apa.automata[aut].neighbourhood.iter().enumerate() {
            let c = c.index();
            if self.row[c] != next[slot] {
                self.row[c] = next[slot];
                for &reader in &self.readers[c] {
                    self.enabled[reader] = None;
                }
            }
        }
        let interpretation = match self.symbols.get_mut() {
            Some(symbols) => self
                .interp_syms
                .get(&self.memo, interp, |name| symbols.intern(name)),
            None => {
                let (automata, first_seen) = (apa.automaton_count(), &mut self.first_seen);
                self.interp_syms.get(&self.memo, interp, |_| {
                    if interp.index() < automata {
                        // Spells an automaton name (see `FireMemo`).
                        interp
                    } else {
                        first_seen.push(interp);
                        Symbol::new(automata + first_seen.len() - 1)
                    }
                })
            }
        };
        let label = TransitionLabel {
            automaton: Symbol::new(aut),
            interpretation,
        };
        self.trace.push(label);
        Ok(Some(label))
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

    /// A split-mix style PRNG step (deterministic, dependency-free).
    fn next_rand(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
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
