//! Functional security analysis — the paper's core method.
//!
//! Implements both elicitation pipelines of Fuchs & Rieke:
//!
//! * **Manual method (§4)** — [`manual::elicit`]: from an
//!   [`SosInstance`] (a composed functional model), interpret the
//!   functional flow as a relation `ζ`, build the reflexive transitive
//!   closure `ζ*`, restrict it to (minimal, maximal) pairs `χ`, and emit
//!   one authenticity requirement `auth(x, y, stakeholder(y))` per pair.
//! * **Tool-assisted method (§5)** — [`assisted::elicit_from_graph`]:
//!   from an APA reachability graph, read minima and maxima off the
//!   graph and decide functional dependence of each (maximum, minimum)
//!   pair by homomorphic abstraction onto the pair and inspection of the
//!   minimal automaton (or, equivalently, a direct precedence check).
//!
//! Supporting modules: [`action`] (the action terms of Table 1),
//! [`component_model`] (functional component models, Fig. 1),
//! [`instance`] (SoS instance composition, Figs. 2–4), [`boundary`]
//! (boundary-action statistics), [`requirements`] / [`param`]
//! (requirement sets and their first-order parameterisation), and
//! [`classify`] (safety vs. availability evaluation of requirements).
//!
//! # Examples
//!
//! The paper's Example 3 end to end:
//!
//! ```
//! use fsa_core::action::Action;
//! use fsa_core::instance::SosInstanceBuilder;
//! use fsa_core::manual::elicit;
//!
//! let mut b = SosInstanceBuilder::new("two-vehicle");
//! let sense = b.action(Action::parse("sense(ESP_1,sW)"), "D_1");
//! let pos1 = b.action(Action::parse("pos(GPS_1,pos)"), "D_1");
//! let send = b.action(Action::parse("send(CU_1,cam(pos))"), "D_1");
//! let rec = b.action(Action::parse("rec(CU_w,cam(pos))"), "D_w");
//! let posw = b.action(Action::parse("pos(GPS_w,pos)"), "D_w");
//! let show = b.action(Action::parse("show(HMI_w,warn)"), "D_w");
//! b.flow(sense, send);
//! b.flow(pos1, send);
//! b.flow(send, rec);
//! b.flow(rec, show);
//! b.flow(posw, show);
//! let instance = b.build();
//!
//! let report = elicit(&instance)?;
//! let reqs: Vec<String> = report.requirements().iter().map(ToString::to_string).collect();
//! assert_eq!(reqs, vec![
//!     "auth(sense(ESP_1,sW), show(HMI_w,warn), D_w)",
//!     "auth(pos(GPS_1,pos), show(HMI_w,warn), D_w)",
//!     "auth(pos(GPS_w,pos), show(HMI_w,warn), D_w)",
//! ]);
//! # Ok::<(), fsa_core::FsaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod assisted;
pub mod boundary;
pub mod checkpoint;
pub mod classify;
pub mod component_model;
pub mod confidential;
pub mod dataflow;
pub mod delta;
pub mod error;
pub mod explore;
pub mod family;
pub mod incremental;
pub mod instance;
pub mod manual;
pub mod memo;
pub mod param;
pub mod prioritise;
pub mod refine;
pub mod report;
pub mod requirements;
pub mod service;
pub mod verify;

pub use action::{Action, Agent, Param};
pub use error::FsaError;
pub use instance::{SosInstance, SosInstanceBuilder};
pub use requirements::{AuthRequirement, RequirementSet};
