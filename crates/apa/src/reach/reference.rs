//! The reference reachability engine, kept as the oracle of
//! [`Apa::reachability`]: the original breadth-first search over decoded
//! [`GlobalState`]s, with a `HashMap` index, one [`Apa::successors`] call
//! per state and each interpretation interned at its first edge.
//!
//! It names only `Apa`, `ApaError`, `GlobalState`, `ReachOptions`,
//! `Symbol`, `SymbolTable` and `TransitionLabel` of the module that
//! includes it, so `tests/kernel_differential.rs` and the
//! `reachability_kernel` bench include this file as well.

use super::{Apa, ApaError, GlobalState, ReachOptions, Symbol, SymbolTable, TransitionLabel};
use std::collections::HashMap;

/// A reachability graph, decoded: the states in discovery order (q₀
/// first), the edges `(from, label, to)` in discovery order, and the
/// table the labels' symbols belong to.
pub struct Reference {
    pub states: Vec<GlobalState>,
    pub edges: Vec<(usize, TransitionLabel, usize)>,
    pub symbols: SymbolTable,
}

/// The reachability graph of `apa`, with the errors of
/// [`Apa::reachability`] and the same `max_states` boundary.
pub fn reachability(apa: &Apa, options: &ReachOptions) -> Result<Reference, ApaError> {
    if u32::try_from(options.max_states).is_err() {
        return Err(ApaError::IdSpaceExceeded {
            space: "states",
            requested: options.max_states as u64,
        });
    }
    let mut symbols = SymbolTable::new();
    let automata: Vec<Symbol> = apa.automaton_names().map(|n| symbols.intern(n)).collect();
    let mut index: HashMap<GlobalState, usize> = HashMap::new();
    let mut states = vec![apa.initial_state().clone()];
    index.insert(states[0].clone(), 0);
    let mut edges = Vec::new();
    // States in discovery order are the queue.
    let mut s = 0;
    while s < states.len() {
        for (aut, interp, next) in apa.successors(&states[s])? {
            let t = match index.get(&next) {
                Some(&t) => t,
                None => {
                    if states.len() >= options.max_states {
                        return Err(ApaError::StateLimitExceeded {
                            limit: options.max_states,
                        });
                    }
                    index.insert(next.clone(), states.len());
                    states.push(next);
                    states.len() - 1
                }
            };
            let label = TransitionLabel {
                automaton: automata[aut.index()],
                interpretation: symbols.intern(&interp),
            };
            edges.push((s, label, t));
        }
        s += 1;
    }
    Ok(Reference {
        states,
        edges,
        symbols,
    })
}
