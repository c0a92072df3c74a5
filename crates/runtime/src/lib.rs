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
//!    windows), one [`fsa_exec::Supervisor`] chunk per stream
//!    (panic-isolated, retried, cancellable) with a deterministic
//!    stream-order merge: violation reports are bit-identical for any
//!    thread count. [`monitor_apa`] runs the default supervision
//!    policy on the APA itself; [`monitor_apa_supervised`] takes an
//!    explicit one and simulates on the product of the APA's
//!    independent parts ([`apa::Simulator::product`]).
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
//! use fsa_exec::{CancelToken, Supervisor};
//! use fsa_runtime::{FleetConfig, monitor_apa, monitor_apa_supervised};
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
//! // Drop the authentic cause: every stream trips the monitor. A
//! // supervisor with a deadline only changes the policy, not the report.
//! let cfg = FleetConfig {
//!     fault: Some(Fault::Drop { action: "first".into() }),
//!     ..FleetConfig::default()
//! };
//! let deadline = CancelToken::with_deadline(std::time::Duration::from_secs(600));
//! let supervisor = Supervisor::new().with_cancel(deadline);
//! let parts = std::slice::from_ref(&apa);
//! let (_, attacked) = monitor_apa_supervised(&apa, parts, &set, &cfg, &supervisor).unwrap();
//! assert_eq!(attacked.violated(), 1);
//! assert!(attacked.is_complete());
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
    Counterexample, FleetConfig, FleetReport, MonitorStats, MonitorVerdict, MAX_EVENTS_PER_STREAM,
    MAX_STREAMS,
};
