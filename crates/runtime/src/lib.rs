//! # fsa-runtime — runtime conformance for elicited requirements
//!
//! The elicitation pipelines (`fsa-core`) *derive* authenticity
//! requirements `auth(a, b, P)` from functional models; this crate
//! *enforces* them at runtime. It closes the loop from §4/§5
//! elicitation to live checking:
//!
//! 1. **Compile** ([`bank`]): every requirement becomes a
//!    symbol-interned precedence-monitor DFA
//!    ([`automata::monitor::precedence_monitor`]); the whole set is
//!    fused into a single flat `u32` transition table with per-monitor
//!    violation latches — advancing the bank on an event is one linear
//!    sweep over a dense state vector.
//! 2. **Stream** ([`fleet`]): seeded [`apa::Simulator`] fleets produce
//!    event streams (optionally mutated by deterministic
//!    [`apa::Fault`] injection — drop, spoof-before-sense, reorder
//!    windows), sharded across scoped threads with a deterministic
//!    stream-order merge: violation reports are bit-identical for any
//!    thread count.
//! 3. **Report**: per-requirement violation counts, the first
//!    counterexample prefix per violation, and
//!    [`fleet::MonitorStats`] (events/sec, per-stage timings, shard
//!    balance).
//!
//! # Examples
//!
//! ```
//! use apa::{ApaBuilder, Value, rule, Fault};
//! use fsa_core::requirements::AuthRequirement;
//! use fsa_core::{Action, Agent};
//! use fsa_runtime::{FleetConfig, monitor_apa};
//!
//! // A two-stage pipeline: `second` cannot honestly precede `first`.
//! let mut b = ApaBuilder::new();
//! let c0 = b.component("c0", [Value::atom("x")]);
//! let c1 = b.component("c1", []);
//! let c2 = b.component("c2", []);
//! b.automaton("first", [c0, c1], rule::move_any(0, 1));
//! b.automaton("second", [c1, c2], rule::move_any(0, 1));
//! let apa = b.build().unwrap();
//!
//! let set = [AuthRequirement::new(
//!     Action::parse("first"),
//!     Action::parse("second"),
//!     Agent::new("P"),
//! )]
//! .into_iter()
//! .collect();
//!
//! // Honest streams: clean.
//! let (_, report) = monitor_apa(&apa, &set, &FleetConfig::default()).unwrap();
//! assert!(report.is_clean());
//!
//! // Drop the authentic cause: every stream trips the monitor.
//! let cfg = FleetConfig {
//!     fault: Some(Fault::Drop { action: "first".into() }),
//!     ..FleetConfig::default()
//! };
//! let (_, attacked) = monitor_apa(&apa, &set, &cfg).unwrap();
//! assert_eq!(attacked.violated(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod error;
pub mod fleet;

pub use bank::{BankRun, CompiledMonitor, MonitorBank, SEEN, VIOLATED, WAITING};
pub use error::RuntimeError;
pub use fleet::{
    episode_seed, monitor_apa, monitor_apa_supervised, run_fleet, run_fleet_supervised,
    Counterexample, FleetConfig, FleetReport, MonitorStats, MonitorVerdict,
};
