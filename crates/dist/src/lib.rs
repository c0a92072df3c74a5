//! Distributed, resumable instance-space exploration.
//!
//! Scales `fsa explore` across worker processes: a coordinator cuts the
//! flattened `(vector ordinal, mask)` lattice ([`Lattice`]) into
//! contiguous, evenly sized [`ShardRange`]s of positions — a shard may
//! start or end in the middle of a vector — and hands out time-bounded
//! shard *leases* over the `fsa-wire/v1` transport (`fsa-dist/v3`
//! frames). Each worker runs the supervised explore engine over its
//! range once, renewing its lease while the engine runs, with its own
//! crash-safe checkpoint file; every accepted class it reports carries
//! its certificate. The coordinator merges the per-shard accepted logs
//! in canonical `(ordinal, mask)` order under those certificates,
//! recomputing none — reproducing the single-process result
//! bit-identically (property-tested in `tests/dist_props.rs`).
//!
//! Crash tolerance is layered:
//!
//! - a **worker** that dies mid-shard stops renewing its lease (a
//!   killed one also closes its connection); the shard is re-issued,
//!   and the successor resumes from the dead worker's checkpoint file
//!   (store-and-forward on the worker side);
//! - a **coordinator** that dies mid-universe resumes from its own
//!   checksummed state file, in which every completed shard's result
//!   was persisted *before* the worker was allowed to discard it
//!   (store-and-forward on the coordinator side);
//! - a **slow** worker whose lease expired races its replacement
//!   safely: the first result for a shard wins, the duplicate is
//!   acknowledged idempotently.
//!
//! Module map: [`proto`] (frame vocabulary), [`coord`] (lease ledger +
//! merge), [`worker`] (lease → explore and renew → report loop),
//! [`state`] (durable coordinator state), [`local`] (single-machine
//! driver behind `fsa explore --distributed`), [`cli`] (`fsa
//! coordinate` / `fsa work`).
//!
//! [`Lattice`]: fsa_core::explore::Lattice
//! [`ShardRange`]: fsa_core::explore::ShardRange

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod cli;
pub mod coord;
pub mod error;
pub mod local;
pub mod proto;
pub mod state;
pub mod worker;

pub use backoff::Backoff;
pub use coord::{CoordConfig, Coordinator};
pub use error::DistError;
pub use local::{explore_distributed, LocalConfig, WorkerMode};
pub use worker::{run_worker, WorkerConfig};
