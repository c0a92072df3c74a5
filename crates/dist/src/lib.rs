//! Distributed, resumable instance-space exploration.
//!
//! Scales `fsa explore` across worker processes: a coordinator
//! partitions the multiplicity-vector ordinal space into contiguous
//! [`ShardRange`]s and hands out time-bounded shard *leases* over the
//! `fsa-wire/v1` transport; each worker runs the supervised explore
//! engine over its range with its own crash-safe checkpoint file, and
//! the coordinator merges the per-shard accepted logs in canonical
//! `(ordinal, mask)` order — reproducing the single-process result
//! bit-identically (property-tested in `tests/dist_props.rs`).
//!
//! Crash tolerance is layered:
//!
//! - a **worker** that dies mid-shard stops renewing its lease; the
//!   shard is re-issued, and the successor resumes from the dead
//!   worker's checkpoint file (store-and-forward on the worker side);
//! - a **coordinator** that dies mid-universe resumes from its own
//!   checksummed state file, in which every completed shard's result
//!   was persisted *before* the worker was allowed to discard it
//!   (store-and-forward on the coordinator side);
//! - a **slow** worker whose lease expired races its replacement
//!   safely: the first result for a shard wins, the duplicate is
//!   acknowledged idempotently.
//!
//! Module map: [`proto`] (frame vocabulary), [`coord`] (lease ledger +
//! merge), [`worker`] (lease → explore → report loop), [`state`]
//! (durable coordinator state), [`local`] (single-machine driver
//! behind `fsa explore --distributed`), [`cli`] (`fsa coordinate` /
//! `fsa work`).
//!
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
