//! Asynchronous Product Automata (APA).
//!
//! An APA (Definition 2 of the paper) consists of
//!
//! * a family of state sets `Z_s, s ∈ S` (here: [`Value`] sets held by
//!   named *state components*),
//! * a family of *elementary automata* `(Φ_t, Δ_t), t ∈ T`, and
//! * a neighbourhood relation `N: T → P(S)` assigning each elementary
//!   automaton the state components it may read and write.
//!
//! An elementary automaton is *activated* in a global state if its
//! transition relation offers a successor for the current values of its
//! neighbourhood; executing it changes only the neighbourhood components.
//! The *behaviour* of an APA is its reachability graph (Definition 3),
//! computed here by [`Apa::reachability`].
//!
//! This crate is the re-implementation of the modelling core of the
//! SH verification tool used in §5 of the paper: models are assembled
//! with [`ApaBuilder`] (including gluing of shared components such as
//! the wireless medium `net`), explored into a [`ReachGraph`], and
//! converted to behaviour automata ([`ReachGraph::to_nfa`]) for the
//! abstraction machinery of the `automata` crate.
//!
//! # Examples
//!
//! A producer/consumer APA with a shared buffer:
//!
//! ```
//! use apa::{ApaBuilder, Value, rule};
//!
//! let mut b = ApaBuilder::new();
//! let src = b.component("src", [Value::atom("item")]);
//! let buf = b.component("buf", []);
//! let dst = b.component("dst", []);
//! b.automaton("produce", [src, buf], rule::move_any(0, 1));
//! b.automaton("consume", [buf, dst], rule::move_any(0, 1));
//! let apa = b.build()?;
//! let graph = apa.reachability(&Default::default())?;
//! assert_eq!(graph.state_count(), 3); // item in src, buf, dst
//! assert_eq!(graph.minima(), vec!["produce".to_owned()]);
//! assert_eq!(graph.maxima(), vec!["consume".to_owned()]);
//! # Ok::<(), apa::ApaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod arena;
pub mod compose;
pub mod error;
pub mod model;
pub mod reach;
pub mod rule;
pub mod sim;
pub mod value;

pub use error::ApaError;
pub use model::{Apa, ApaBuilder, AutomatonId, ComponentId, GlobalState};
pub use reach::{ReachGraph, ReachOptions, TransitionLabel};
pub use sim::{Fault, Simulator};
pub use value::Value;
