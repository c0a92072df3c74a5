//! `fsa-serve` — the resident multi-session analysis service.
//!
//! The one-shot `fsa` CLI pays the full pipeline on every invocation:
//! parse the specification, build the scenario APA, derive
//! reachability, elicit, *then* answer. This crate keeps those
//! artefacts resident behind a long-running server speaking
//! **fsa-wire/v1** — length-prefixed JSON frames over TCP — so a
//! session's second `elicit` or `monitor` query skips straight to the
//! answer.
//!
//! Layering (each module usable on its own):
//!
//! * [`json`] — a dependency-free JSON reader (the emit side reuses
//!   [`fsa_obs::json`]'s escaping, so wire bytes and obs exports agree);
//! * [`wire`] — 4-byte big-endian length-prefixed framing with size
//!   limits enforced before allocation and drain-aware reads;
//! * [`proto`] — typed `hello`/`open`/`request`/`response`/`error`/
//!   `drain`/`bye` frames with golden, stable encodings;
//! * [`cli`] — the complete `fsa` command surface as buffered runners
//!   returning [`fsa_core::service::Rendered`]; the one-shot binary and
//!   the server share these, making serving responses byte-identical to
//!   one-shot output by construction;
//! * [`flags`] — the one flag parser: every subcommand declares its
//!   flags in a [`flags::Table`], which owns the CLI contract;
//! * [`engines`] — session-scoped [`fsa_core::service::Service`]
//!   implementations over resident models;
//! * [`session`] — one worker per session, bounded request queues
//!   (backpressure), response cache, per-request deadlines;
//! * [`server`] / [`client`] — the TCP server (thread-per-connection,
//!   graceful drain on SIGTERM or `drain` frames) and a small client;
//! * [`signal`] — the SIGTERM → drain-flag hook (the crate's only
//!   unsafe code, a single async-signal-safe atomic store).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod client;
pub mod engines;
pub mod flags;
pub mod json;
pub mod proto;
pub mod server;
pub mod session;
pub mod signal;
pub mod wire;

pub use client::Client;
pub use server::{ServeConfig, ServeSummary, Server};
