//! # fsa-exec — supervised execution for long-running analyses
//!
//! The paper's premise is that a system of systems must stay dependable
//! when individual components misbehave — and the analysis engines that
//! *prove* that property deserve the same treatment. This crate is the
//! execution substrate shared by the instance-space exploration
//! (`fsa-core::explore`) and the runtime conformance fleet
//! (`fsa-runtime::fleet`):
//!
//! * [`Supervisor`] — chunked fork-join execution where every chunk runs
//!   under `catch_unwind`: a panicking chunk is quarantined, retried
//!   with deterministic exponential backoff + jitter, and reported as a
//!   [`ChunkFailure`] on exhaustion instead of aborting the run.
//!   Completed chunks are never lost and the merged output is
//!   bit-identical in chunk order whenever no chunk is dropped.
//! * [`CancelToken`] — cooperative cancellation checked at chunk
//!   boundaries: wall-clock deadlines ([`CancelToken::with_deadline`]),
//!   manual cancellation, and a deterministic countdown used by the
//!   kill/resume property tests.
//! * [`Snapshot`] — a tiny versioned + checksummed binary envelope for
//!   checkpoint files (magic, version, length, FNV-1a checksum), with
//!   atomic tmp-file + rename persistence so a `SIGKILL` mid-write can
//!   never leave a torn checkpoint behind.
//! * `FaultPlan` *(feature `chaos`)* — deterministic injected worker
//!   panics and delays, mirroring `apa::sim::Fault`'s design, so the
//!   property tests can prove the supervisor's guarantees.
//! * `net` *(feature `chaos`)* — the transport-level counterpart:
//!   seeded network fault injection (`net::ChaosStream`) and a
//!   frame-aware chaos proxy (`net::ChaosProxy`) for hardening the
//!   serving and distributed wire protocols.

#![forbid(unsafe_code)]

pub mod cancel;
#[cfg(feature = "chaos")]
pub mod chaos;
#[cfg(feature = "chaos")]
pub mod net;
pub mod snapshot;
pub mod supervisor;

pub use cancel::CancelToken;
#[cfg(feature = "chaos")]
pub use chaos::{FaultKind, FaultPlan};
pub use snapshot::{Snapshot, SnapshotError, SnapshotReader};
pub use supervisor::{ChunkFailure, Outcome, RetryPolicy, Supervisor, MAX_THREADS};
