//! The `fsa-dist/v3` protocol: JSON frames over `fsa-wire/v1` framing.
//!
//! The distributed layer reuses the serve subsystem's transport
//! ([`fsa_serve::wire`]: 4-byte big-endian length prefix + UTF-8 JSON)
//! and its inbound parser ([`fsa_serve::json`]); this module only
//! defines the frame vocabulary spoken between a coordinator and its
//! workers and the exact encode/decode for each frame.
//!
//! Worker → coordinator:
//!
//! | frame          | fields                                        |
//! |----------------|-----------------------------------------------|
//! | `hello`        | `protocol`                                    |
//! | `lease`        | — (also renews the lease the worker holds)    |
//! | `shard-result` | `start`, `end`, `accepted`, `counters`, `chi`? |
//! | `bye`          | —                                             |
//!
//! A `shard-result`'s `start` and `end` are positions of the flattened
//! `(ordinal, mask)` lattice ([`fsa_core::explore::Lattice`]). Its
//! `accepted` log is grouped by vector:
//! `[[ordinal, [mask, …], "certificates"], …]`, the certificates of a
//! group's masks in order, 16 lower-case hex digits each, in one string
//! (the JSON parser holds numbers as `f64`, exact only up to 2^53, and a
//! certificate is a full `u64`). The optional `chi` member carries the χ
//! union of each vector the log holds entries of
//! ([`fsa_core::explore::VectorChi`]), in ordinal order:
//! `[[ordinal, nodes, cyclic, "rows"], …]`, the rows as 16 lower-case hex
//! digits per word. A frame without it has its χ rebuilt by the merge.
//!
//! Coordinator → worker:
//!
//! | frame         | fields                                              |
//! |---------------|-----------------------------------------------------|
//! | `hello`       | `protocol`, `max_vehicles`, `max_candidates`, `require_connected` |
//! | `lease-grant` | `grant` (`"shard"` / `"retry"` / `"done"`) + fields; a holder's renewal is its own `shard` grant again |
//! | `shard-done`  | `start`, `end`                                      |
//! | `error`       | `message`                                           |
//!
//! Frames are encoded with [`fsa_obs::json`] (stable key order, exact
//! escaping) so the protocol stays byte-deterministic, which the
//! store-and-forward state file relies on for replay equality.

use crate::error::DistError;
use fsa_core::checkpoint::CheckpointCounters;
use fsa_core::explore::{Accepted, VectorChi};
use fsa_obs::json::{write_key, write_str};
use fsa_serve::json::{self, Value};

/// Protocol identifier exchanged in both `hello` frames. Version 2
/// cut shards by lattice position and added each accepted entry's
/// certificate. Version 3 has version 2's frames; its certificates come
/// from the word-wise refinement kernel of `fsa_graph::iso`, so a
/// merge never mixes them with a version-2 peer's.
pub const PROTOCOL: &str = "fsa-dist/v3";

/// Maximum accepted frame size. Shard results carry the full accepted
/// log of a shard, which can far exceed the serve default of 1 MiB on
/// large universes: the largest of the default 5-vehicle run is pinned
/// below this cap by `tests/distributed.rs`.
pub const MAX_FRAME: usize = 8 << 20;

/// The universe configuration the coordinator pushes to every worker
/// in its `hello` frame, so all workers explore the same space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloConfig {
    /// `--max-vehicles` of the distributed run.
    pub max_vehicles: u64,
    /// Candidate budget per worker (workers fail closed on excess;
    /// the coordinator re-checks the global sum at merge time).
    pub max_candidates: u64,
    /// Whether disconnected candidates are skipped.
    pub require_connected: bool,
}

/// Frames a worker sends to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum ToCoordinator {
    /// Protocol handshake; must be the first frame on a connection.
    Hello,
    /// Request a shard lease (also used to renew the current lease).
    Lease,
    /// A completed shard: its range, accepted log (ascending by
    /// ordinal), engine counters and, optionally, χ unions.
    ShardResult {
        /// First lattice position of the shard (inclusive).
        start: u64,
        /// One past the last lattice position of the shard.
        end: u64,
        /// Accepted entries, with their certificates, in discovery order.
        accepted: Vec<Accepted>,
        /// The shard run's engine counters.
        counters: CheckpointCounters,
        /// The χ union of each vector `accepted` holds entries of, in
        /// ordinal order; `None` leaves them to the merge.
        chi: Option<Vec<VectorChi>>,
    },
    /// Clean goodbye before closing the connection.
    Bye,
}

/// Frames the coordinator sends to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// Handshake reply carrying the universe configuration.
    Hello(HelloConfig),
    /// Lease grant: explore `[start, end)`; report back or renew
    /// within `lease_ms` or the lease expires and is re-issued.
    Grant {
        /// First lattice position of the leased shard (inclusive).
        start: u64,
        /// One past the last lattice position of the leased shard.
        end: u64,
        /// Lease validity in milliseconds.
        lease_ms: u64,
    },
    /// No shard is available right now (all leased); ask again after
    /// `retry_ms`.
    Retry {
        /// Suggested back-off in milliseconds.
        retry_ms: u64,
    },
    /// The universe is fully explored; the worker should say `bye`.
    Done,
    /// Acknowledges a `shard-result`: the shard is durably recorded
    /// and the worker may delete its checkpoint for the range.
    ShardDone {
        /// Acknowledged shard start.
        start: u64,
        /// Acknowledged shard end.
        end: u64,
    },
    /// A fatal protocol-level rejection.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// Counter keys in [`CheckpointCounters`] declaration order — the same
/// order `fsa_core::checkpoint` serialises them in.
const COUNTER_KEYS: [&str; 12] = [
    "multiplicity_vectors",
    "subsets_total",
    "orbits_skipped",
    "candidates",
    "candidates_built",
    "disconnected_skipped",
    "certificate_hits",
    "exact_iso_fallbacks",
    "truncated",
    "vectors_completed",
    "failures",
    "retries",
];

fn write_u64_field(out: &mut String, key: &str, v: u64) {
    write_key(out, key);
    out.push_str(&v.to_string());
}

fn write_bool_field(out: &mut String, key: &str, v: bool) {
    write_key(out, key);
    out.push_str(if v { "true" } else { "false" });
}

fn write_counters(out: &mut String, c: &CheckpointCounters) {
    write_key(out, "counters");
    out.push('{');
    let values: [u64; 12] = [
        c.multiplicity_vectors as u64,
        c.subsets_total as u64,
        c.orbits_skipped as u64,
        c.candidates as u64,
        c.candidates_built as u64,
        c.disconnected_skipped as u64,
        c.certificate_hits as u64,
        c.exact_iso_fallbacks as u64,
        u64::from(c.truncated),
        c.vectors_completed as u64,
        c.failures as u64,
        c.retries,
    ];
    for (i, (key, v)) in COUNTER_KEYS.iter().zip(values).enumerate() {
        if i > 0 {
            out.push(',');
        }
        if *key == "truncated" {
            write_bool_field(out, key, v != 0);
        } else {
            write_u64_field(out, key, v);
        }
    }
    out.push('}');
}

/// Writes an accepted log grouped by vector: `[[ordinal, [mask, …],
/// "certificates"], …]`, the certificates of a group's masks in order,
/// 16 lower-case hex digits each, in one string.
fn write_accepted(out: &mut String, accepted: &[Accepted]) {
    use std::fmt::Write as _;
    out.push('[');
    for (i, run) in accepted.chunk_by(|a, b| a.ordinal == b.ordinal).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},[", run[0].ordinal);
        for (j, entry) in run.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", entry.mask);
        }
        out.push_str("],\"");
        for entry in run {
            let _ = write!(out, "{:016x}", entry.certificate);
        }
        out.push_str("\"]");
    }
    out.push(']');
}

/// Writes χ unions: `[[ordinal, nodes, cyclic, "rows"], …]`, the rows
/// as 16 lower-case hex digits per word, in one string.
fn write_chi(out: &mut String, unions: &[VectorChi]) {
    use std::fmt::Write as _;
    out.push('[');
    for (i, union) in unions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "[{},{},{},\"",
            union.ordinal, union.nodes, union.cyclic
        );
        for word in &union.rows {
            let _ = write!(out, "{word:016x}");
        }
        out.push_str("\"]");
    }
    out.push(']');
}

/// Encodes a worker → coordinator frame as one JSON payload.
#[must_use]
pub fn encode_to_coordinator(frame: &ToCoordinator) -> String {
    let mut out = String::from("{");
    match frame {
        ToCoordinator::Hello => {
            write_key(&mut out, "type");
            write_str(&mut out, "hello");
            out.push(',');
            write_key(&mut out, "protocol");
            write_str(&mut out, PROTOCOL);
        }
        ToCoordinator::Lease => {
            write_key(&mut out, "type");
            write_str(&mut out, "lease");
        }
        ToCoordinator::ShardResult {
            start,
            end,
            accepted,
            counters,
            chi,
        } => {
            write_key(&mut out, "type");
            write_str(&mut out, "shard-result");
            out.push(',');
            write_u64_field(&mut out, "start", *start);
            out.push(',');
            write_u64_field(&mut out, "end", *end);
            out.push(',');
            write_key(&mut out, "accepted");
            write_accepted(&mut out, accepted);
            out.push(',');
            write_counters(&mut out, counters);
            if let Some(unions) = chi {
                out.push(',');
                write_key(&mut out, "chi");
                write_chi(&mut out, unions);
            }
        }
        ToCoordinator::Bye => {
            write_key(&mut out, "type");
            write_str(&mut out, "bye");
        }
    }
    out.push('}');
    out
}

/// Encodes a coordinator → worker frame as one JSON payload.
#[must_use]
pub fn encode_to_worker(frame: &ToWorker) -> String {
    let mut out = String::from("{");
    match frame {
        ToWorker::Hello(cfg) => {
            write_key(&mut out, "type");
            write_str(&mut out, "hello");
            out.push(',');
            write_key(&mut out, "protocol");
            write_str(&mut out, PROTOCOL);
            out.push(',');
            write_u64_field(&mut out, "max_vehicles", cfg.max_vehicles);
            out.push(',');
            write_u64_field(&mut out, "max_candidates", cfg.max_candidates);
            out.push(',');
            write_bool_field(&mut out, "require_connected", cfg.require_connected);
        }
        ToWorker::Grant {
            start,
            end,
            lease_ms,
        } => {
            write_key(&mut out, "type");
            write_str(&mut out, "lease-grant");
            out.push(',');
            write_key(&mut out, "grant");
            write_str(&mut out, "shard");
            out.push(',');
            write_u64_field(&mut out, "start", *start);
            out.push(',');
            write_u64_field(&mut out, "end", *end);
            out.push(',');
            write_u64_field(&mut out, "lease_ms", *lease_ms);
        }
        ToWorker::Retry { retry_ms } => {
            write_key(&mut out, "type");
            write_str(&mut out, "lease-grant");
            out.push(',');
            write_key(&mut out, "grant");
            write_str(&mut out, "retry");
            out.push(',');
            write_u64_field(&mut out, "retry_ms", *retry_ms);
        }
        ToWorker::Done => {
            write_key(&mut out, "type");
            write_str(&mut out, "lease-grant");
            out.push(',');
            write_key(&mut out, "grant");
            write_str(&mut out, "done");
        }
        ToWorker::ShardDone { start, end } => {
            write_key(&mut out, "type");
            write_str(&mut out, "shard-done");
            out.push(',');
            write_u64_field(&mut out, "start", *start);
            out.push(',');
            write_u64_field(&mut out, "end", *end);
        }
        ToWorker::Error { message } => {
            write_key(&mut out, "type");
            write_str(&mut out, "error");
            out.push(',');
            write_key(&mut out, "message");
            write_str(&mut out, message);
        }
    }
    out.push('}');
    out
}

fn proto_err(what: &str) -> DistError {
    DistError::Proto(what.to_owned())
}

fn field_u64(v: &Value, key: &str, frame: &str) -> Result<u64, DistError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| proto_err(&format!("`{frame}` frame lacks a numeric `{key}`")))
}

fn field_bool(v: &Value, key: &str, frame: &str) -> Result<bool, DistError> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(proto_err(&format!(
            "`{frame}` frame lacks a boolean `{key}`"
        ))),
    }
}

fn frame_type(v: &Value) -> Result<&str, DistError> {
    v.get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| proto_err("frame lacks a string `type`"))
}

fn check_protocol(v: &Value) -> Result<(), DistError> {
    let got = v
        .get("protocol")
        .and_then(Value::as_str)
        .ok_or_else(|| proto_err("`hello` frame lacks a string `protocol`"))?;
    if got != PROTOCOL {
        return Err(proto_err(&format!(
            "protocol skew: peer speaks `{got}`, this build speaks `{PROTOCOL}`"
        )));
    }
    Ok(())
}

fn parse_counters(v: &Value) -> Result<CheckpointCounters, DistError> {
    let obj = v
        .get("counters")
        .ok_or_else(|| proto_err("`shard-result` frame lacks a `counters` object"))?;
    let num = |key: &str| field_u64(obj, key, "counters");
    let as_usize = |v: u64, key: &str| {
        usize::try_from(v).map_err(|_| proto_err(&format!("counter `{key}` overflows usize")))
    };
    Ok(CheckpointCounters {
        multiplicity_vectors: as_usize(num("multiplicity_vectors")?, "multiplicity_vectors")?,
        subsets_total: as_usize(num("subsets_total")?, "subsets_total")?,
        orbits_skipped: as_usize(num("orbits_skipped")?, "orbits_skipped")?,
        candidates: as_usize(num("candidates")?, "candidates")?,
        candidates_built: as_usize(num("candidates_built")?, "candidates_built")?,
        disconnected_skipped: as_usize(num("disconnected_skipped")?, "disconnected_skipped")?,
        certificate_hits: as_usize(num("certificate_hits")?, "certificate_hits")?,
        exact_iso_fallbacks: as_usize(num("exact_iso_fallbacks")?, "exact_iso_fallbacks")?,
        truncated: field_bool(obj, "truncated", "counters")?,
        vectors_completed: as_usize(num("vectors_completed")?, "vectors_completed")?,
        failures: as_usize(num("failures")?, "failures")?,
        retries: num("retries")?,
    })
}

fn parse_accepted(v: &Value) -> Result<Vec<Accepted>, DistError> {
    let groups = v
        .get("accepted")
        .and_then(Value::as_arr)
        .ok_or_else(|| proto_err("`shard-result` frame lacks an `accepted` array"))?;
    let mut out = Vec::new();
    for group in groups {
        let (ordinal, masks, certificates) = group
            .as_arr()
            .filter(|g| g.len() == 3)
            .and_then(|g| Some((g[0].as_u64()?, g[1].as_arr()?, g[2].as_str()?)))
            .ok_or_else(|| {
                proto_err("`accepted` groups must be `[ordinal, [mask, …], \"certificates\"]`")
            })?;
        let certificates = hex_words(certificates)
            .filter(|words| !masks.is_empty() && words.len() == masks.len())
            .ok_or_else(|| {
                proto_err(
                    "an `accepted` group needs one or more masks and 16 lower-case hex digits \
                     of certificate per mask",
                )
            })?;
        for (mask, certificate) in masks.iter().zip(certificates) {
            let mask = mask
                .as_u64()
                .ok_or_else(|| proto_err("`accepted` mask must be a non-negative integer"))?;
            out.push(Accepted {
                ordinal,
                mask,
                certificate,
            });
        }
    }
    Ok(out)
}

/// The words of a string of 16 lower-case hex digits each, or `None`
/// when it is anything else.
fn hex_words(hex: &str) -> Option<Vec<u64>> {
    let bytes = hex.as_bytes();
    if !bytes.len().is_multiple_of(16)
        || !bytes.iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
    {
        return None;
    }
    Some(
        bytes
            .chunks(16)
            .map(|digits| {
                let digits = std::str::from_utf8(digits).expect("checked ASCII hex digits");
                u64::from_str_radix(digits, 16).expect("checked hex digits")
            })
            .collect(),
    )
}

/// Parses the optional `chi` member against the frame's own `accepted`
/// log: each union must be well formed ([`VectorChi::check`]) and name a
/// vector the log holds entries of, in ascending order.
fn parse_chi(v: &Value, accepted: &[Accepted]) -> Result<Option<Vec<VectorChi>>, DistError> {
    let Some(unions) = v.get("chi") else {
        return Ok(None);
    };
    let unions = unions
        .as_arr()
        .ok_or_else(|| proto_err("`shard-result` member `chi` must be an array"))?;
    let mut groups = accepted.chunk_by(|a, b| a.ordinal == b.ordinal).peekable();
    let mut out = Vec::with_capacity(unions.len());
    for union in unions {
        let (ordinal, nodes, cyclic, rows) = union
            .as_arr()
            .filter(|u| u.len() == 4)
            .and_then(|u| {
                Some((
                    u[0].as_u64()?,
                    u[1].as_u64()?,
                    u[2].as_u64()?,
                    u[3].as_str()?,
                ))
            })
            .ok_or_else(|| {
                proto_err("`chi` unions must be `[ordinal, nodes, cyclic, \"rows\"]`")
            })?;
        let rows = hex_words(rows)
            .ok_or_else(|| proto_err("`chi` rows must be 16 lower-case hex digits per word"))?;
        while groups.next_if(|g| g[0].ordinal < ordinal).is_some() {}
        let entries = groups
            .next_if(|g| g[0].ordinal == ordinal)
            .ok_or_else(|| {
                proto_err(&format!(
                    "the χ union of vector {ordinal} has no entry in the shard, or is out of order"
                ))
            })?
            .len();
        let union = VectorChi {
            ordinal,
            nodes: usize::try_from(nodes).map_err(|_| proto_err("`chi` nodes overflow usize"))?,
            cyclic: usize::try_from(cyclic)
                .map_err(|_| proto_err("`chi` cyclic count overflows usize"))?,
            rows,
        };
        union.check(entries).map_err(|e| proto_err(&e))?;
        out.push(union);
    }
    Ok(Some(out))
}

/// Decodes a worker → coordinator frame.
///
/// # Errors
///
/// [`DistError::Proto`] on malformed JSON, unknown frame types,
/// missing fields, or protocol skew in `hello`.
pub fn decode_to_coordinator(payload: &str) -> Result<ToCoordinator, DistError> {
    let v = json::parse(payload).map_err(|e| proto_err(&e.to_string()))?;
    match frame_type(&v)? {
        "hello" => {
            check_protocol(&v)?;
            Ok(ToCoordinator::Hello)
        }
        "lease" => Ok(ToCoordinator::Lease),
        "shard-result" => {
            let accepted = parse_accepted(&v)?;
            Ok(ToCoordinator::ShardResult {
                start: field_u64(&v, "start", "shard-result")?,
                end: field_u64(&v, "end", "shard-result")?,
                chi: parse_chi(&v, &accepted)?,
                counters: parse_counters(&v)?,
                accepted,
            })
        }
        "bye" => Ok(ToCoordinator::Bye),
        other => Err(proto_err(&format!("unknown worker frame type `{other}`"))),
    }
}

/// Decodes a coordinator → worker frame.
///
/// # Errors
///
/// [`DistError::Proto`] on malformed JSON, unknown frame types or
/// grant kinds, missing fields, or protocol skew in `hello`.
pub fn decode_to_worker(payload: &str) -> Result<ToWorker, DistError> {
    let v = json::parse(payload).map_err(|e| proto_err(&e.to_string()))?;
    match frame_type(&v)? {
        "hello" => {
            check_protocol(&v)?;
            Ok(ToWorker::Hello(HelloConfig {
                max_vehicles: field_u64(&v, "max_vehicles", "hello")?,
                max_candidates: field_u64(&v, "max_candidates", "hello")?,
                require_connected: field_bool(&v, "require_connected", "hello")?,
            }))
        }
        "lease-grant" => {
            let grant = v
                .get("grant")
                .and_then(Value::as_str)
                .ok_or_else(|| proto_err("`lease-grant` frame lacks a string `grant`"))?;
            match grant {
                "shard" => Ok(ToWorker::Grant {
                    start: field_u64(&v, "start", "lease-grant")?,
                    end: field_u64(&v, "end", "lease-grant")?,
                    lease_ms: field_u64(&v, "lease_ms", "lease-grant")?,
                }),
                "retry" => Ok(ToWorker::Retry {
                    retry_ms: field_u64(&v, "retry_ms", "lease-grant")?,
                }),
                "done" => Ok(ToWorker::Done),
                other => Err(proto_err(&format!("unknown grant kind `{other}`"))),
            }
        }
        "shard-done" => Ok(ToWorker::ShardDone {
            start: field_u64(&v, "start", "shard-done")?,
            end: field_u64(&v, "end", "shard-done")?,
        }),
        "error" => Ok(ToWorker::Error {
            message: v
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("unspecified")
                .to_owned(),
        }),
        other => Err(proto_err(&format!(
            "unknown coordinator frame type `{other}`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> CheckpointCounters {
        CheckpointCounters {
            multiplicity_vectors: 3,
            subsets_total: 24,
            orbits_skipped: 10,
            candidates: 14,
            candidates_built: 13,
            disconnected_skipped: 1,
            certificate_hits: 5,
            exact_iso_fallbacks: 2,
            truncated: false,
            vectors_completed: 3,
            failures: 0,
            retries: 1,
        }
    }

    fn entry(ordinal: u64, mask: u64, certificate: u64) -> Accepted {
        Accepted {
            ordinal,
            mask,
            certificate,
        }
    }

    fn union(ordinal: u64, nodes: usize, cyclic: usize, rows: Vec<u64>) -> VectorChi {
        VectorChi {
            ordinal,
            nodes,
            cyclic,
            rows,
        }
    }

    #[test]
    fn worker_frames_round_trip() {
        let frames = [
            ToCoordinator::Hello,
            ToCoordinator::Lease,
            ToCoordinator::ShardResult {
                start: 4,
                end: 9,
                accepted: vec![
                    entry(4, 0, 0),
                    entry(5, 3, u64::MAX),
                    entry(5, 6, 1 << 53 | 1),
                    entry(8, 17, 0xdead_beef),
                ],
                counters: counters(),
                chi: None,
            },
            ToCoordinator::ShardResult {
                start: 4,
                end: 9,
                accepted: vec![entry(4, 0, 0), entry(5, 3, 1), entry(5, 6, 2)],
                counters: counters(),
                chi: Some(vec![
                    union(4, 2, 0, vec![0b10, 0]),
                    union(5, 65, 1, [u64::MAX, 1].repeat(65)),
                ]),
            },
            ToCoordinator::ShardResult {
                start: 0,
                end: 1,
                accepted: Vec::new(),
                counters: counters(),
                chi: Some(Vec::new()),
            },
            ToCoordinator::Bye,
        ];
        for frame in frames {
            let payload = encode_to_coordinator(&frame);
            assert_eq!(decode_to_coordinator(&payload).unwrap(), frame);
        }
    }

    #[test]
    fn coordinator_frames_round_trip() {
        let frames = [
            ToWorker::Hello(HelloConfig {
                max_vehicles: 4,
                max_candidates: 100_000,
                require_connected: true,
            }),
            ToWorker::Grant {
                start: 0,
                end: 7,
                lease_ms: 2000,
            },
            ToWorker::Retry { retry_ms: 250 },
            ToWorker::Done,
            ToWorker::ShardDone { start: 0, end: 7 },
            ToWorker::Error {
                message: "protocol skew".to_owned(),
            },
        ];
        for frame in frames {
            let payload = encode_to_worker(&frame);
            assert_eq!(decode_to_worker(&payload).unwrap(), frame);
        }
    }

    #[test]
    fn golden_encodings_are_stable() {
        // The store-and-forward layer relies on byte-deterministic
        // encoding; pin the exact bytes of representative frames.
        assert_eq!(
            encode_to_coordinator(&ToCoordinator::Hello),
            r#"{"type":"hello","protocol":"fsa-dist/v3"}"#
        );
        assert_eq!(
            encode_to_worker(&ToWorker::Grant {
                start: 2,
                end: 5,
                lease_ms: 100
            }),
            r#"{"type":"lease-grant","grant":"shard","start":2,"end":5,"lease_ms":100}"#
        );
        let frame = |chi| ToCoordinator::ShardResult {
            start: 1,
            end: 9,
            accepted: vec![entry(1, 3, 0xabc), entry(1, 5, u64::MAX), entry(2, 0, 1)],
            counters: counters(),
            chi,
        };
        let counters = concat!(
            r#""counters":{"multiplicity_vectors":3,"subsets_total":24,"orbits_skipped":10,"#,
            r#""candidates":14,"candidates_built":13,"disconnected_skipped":1,"#,
            r#""certificate_hits":5,"exact_iso_fallbacks":2,"truncated":false,"#,
            r#""vectors_completed":3,"failures":0,"retries":1}"#
        );
        let head = concat!(
            r#"{"type":"shard-result","start":1,"end":9,"accepted":"#,
            r#"[[1,[3,5],"0000000000000abcffffffffffffffff"],[2,[0],"0000000000000001"]],"#,
        );
        // Without `chi`, the frame of a worker that ships no unions.
        assert_eq!(
            encode_to_coordinator(&frame(None)),
            format!("{head}{counters}}}")
        );
        // With it: vector 1's union of 3 nodes (1 → 2, one cyclic
        // class) and vector 2's of 1 node.
        assert_eq!(
            encode_to_coordinator(&frame(Some(vec![
                union(1, 3, 1, vec![0, 0b100, 0]),
                union(2, 1, 0, vec![0]),
            ]))),
            format!(
                "{head}{counters},{}}}",
                concat!(
                    r#""chi":[[1,3,1,"000000000000000000000000000000040000000000000000"],"#,
                    r#"[2,1,0,"0000000000000000"]]"#
                )
            )
        );
    }

    #[test]
    fn malformed_unions_are_rejected_with_typed_errors() {
        // A frame with entries of vectors 1 (two) and 2 (one), and the
        // `chi` member `chi`.
        let base = encode_to_coordinator(&ToCoordinator::ShardResult {
            start: 1,
            end: 9,
            accepted: vec![entry(1, 3, 1), entry(1, 5, 2), entry(2, 0, 3)],
            counters: counters(),
            chi: None,
        });
        let with_counters = |chi: &str| format!(r#"{},"chi":{chi}}}"#, &base[..base.len() - 1]);
        let good = with_counters(r#"[[1,3,0,"000000000000000000000000000000040000000000000000"]]"#);
        assert!(
            matches!(
                decode_to_coordinator(&good),
                Ok(ToCoordinator::ShardResult { chi: Some(ref u), .. }) if u.len() == 1
            ),
            "{good}"
        );
        for (what, chi, needle) in [
            ("not an array", r#"{}"#, "must be an array"),
            ("bad shape", r#"[[1,3,0]]"#, "must be `[ordinal"),
            ("bad hex", r#"[[1,1,0,"000000000000000G"]]"#, "hex digits"),
            (
                "upper-case hex",
                r#"[[1,1,0,"000000000000000A"]]"#,
                "hex digits",
            ),
            ("a partial word", r#"[[1,1,0,"0000"]]"#, "hex digits"),
            (
                "the wrong row count",
                r#"[[1,3,0,"00000000000000000000000000000000"]]"#,
                "not 3 rows of 1",
            ),
            (
                "a bit that names no node",
                r#"[[1,3,0,"000000000000000000000000000000080000000000000000"]]"#,
                "beyond its 3 nodes",
            ),
            (
                "a vector with no entry",
                r#"[[4,1,0,"0000000000000000"]]"#,
                "no entry",
            ),
            (
                "out of order",
                r#"[[2,1,0,"0000000000000000"],[1,1,0,"0000000000000000"]]"#,
                "no entry",
            ),
            (
                "more cyclic classes than entries",
                r#"[[2,1,2,"0000000000000000"]]"#,
                "cyclic",
            ),
        ] {
            let payload = with_counters(chi);
            match decode_to_coordinator(&payload) {
                Err(DistError::Proto(m)) => assert!(m.contains(needle), "{what}: {m}"),
                other => panic!("{what}: {other:?} for {payload}"),
            }
        }
    }

    #[test]
    fn a_version_1_hello_is_a_protocol_skew() {
        for payload in [
            r#"{"type":"hello","protocol":"fsa-dist/v1"}"#,
            r#"{"type":"hello","protocol":"fsa-dist/v1","max_vehicles":4,"max_candidates":9,"require_connected":true}"#,
        ] {
            let to_coordinator = decode_to_coordinator(payload);
            let to_worker = decode_to_worker(payload);
            for err in [to_coordinator.map(|_| ()), to_worker.map(|_| ())] {
                assert!(
                    matches!(&err, Err(DistError::Proto(m))
                        if m.contains("protocol skew") && m.contains("fsa-dist/v1")),
                    "{payload}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn a_version_2_hello_is_a_protocol_skew() {
        // Version 2 frames have version 3's layout; their certificates
        // came from the byte-wise FNV kernel.
        for payload in [
            r#"{"type":"hello","protocol":"fsa-dist/v2"}"#,
            r#"{"type":"hello","protocol":"fsa-dist/v2","max_vehicles":4,"max_candidates":9,"require_connected":true}"#,
        ] {
            let to_coordinator = decode_to_coordinator(payload);
            let to_worker = decode_to_worker(payload);
            for err in [to_coordinator.map(|_| ()), to_worker.map(|_| ())] {
                assert!(
                    matches!(&err, Err(DistError::Proto(m))
                        if m.contains("protocol skew") && m.contains("fsa-dist/v2")),
                    "{payload}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn malformed_frames_are_rejected() {
        for payload in [
            "not json",
            r#"{"no_type":1}"#,
            r#"{"type":"warp"}"#,
            r#"{"type":"hello"}"#,
            r#"{"type":"shard-result","start":1}"#,
            r#"{"type":"shard-result","start":1,"end":2,"accepted":[[1]],"counters":{}}"#,
            r#"{"type":"shard-result","start":1,"end":2,"accepted":[[1,-3]],"counters":{}}"#,
            // The v1 flat `[ordinal, mask]` pairs.
            r#"{"type":"shard-result","start":1,"end":2,"accepted":[[1,3]],"counters":{}}"#,
            r#"{"type":"shard-result","start":1,"end":2,"accepted":[[1,[],""]],"counters":{}}"#,
            r#"{"type":"shard-result","start":1,"end":2,"accepted":[[1,[3],12]],"counters":{}}"#,
            r#"{"type":"shard-result","start":1,"end":2,"accepted":[[1,[3],"abc"]],"counters":{}}"#,
            r#"{"type":"shard-result","start":1,"end":2,"accepted":[[1,[3,4],"000000000000abcd"]],"counters":{}}"#,
            r#"{"type":"shard-result","start":1,"end":2,"accepted":[[1,[3],"000000000000ABCD"]],"counters":{}}"#,
            r#"{"type":"shard-result","start":1,"end":2,"accepted":[[1,[3],"+00000000000abcd"]],"counters":{}}"#,
            r#"{"type":"shard-result","start":1,"end":2,"accepted":[[1,[-3],"000000000000abcd"]],"counters":{}}"#,
        ] {
            assert!(
                matches!(decode_to_coordinator(payload), Err(DistError::Proto(_))),
                "accepted: {payload}"
            );
        }
        for payload in [
            r#"{"type":"hello","protocol":"fsa-dist/v3"}"#, // missing config
            r#"{"type":"lease-grant"}"#,
            r#"{"type":"lease-grant","grant":"maybe"}"#,
            r#"{"type":"lease-grant","grant":"shard","start":0}"#,
            r#"{"type":"shard-done","start":0}"#,
        ] {
            assert!(
                matches!(decode_to_worker(payload), Err(DistError::Proto(_))),
                "accepted: {payload}"
            );
        }
    }
}
