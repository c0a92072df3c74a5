//! Checkpoint format of the supervised exploration engine.
//!
//! A checkpoint is a *decision log*, not a state dump: it records which
//! `(multiplicity-vector ordinal, flow-subset mask)` pairs have been
//! accepted as class representatives so far, each with its certificate,
//! plus the frontier (the next vector ordinal and the canonical masks
//! of the current vector that are still unbuilt) and the deterministic
//! counters. Resuming re-derives everything else — the certificate
//! class map is rebuilt by offering the accepted pairs under their
//! certificates in their original discovery order, which is cheap (no
//! scan, no certificate, no dedup search space) and exactly
//! deterministic.
//!
//! The on-disk envelope is [`fsa_exec::Snapshot`]: magic, schema
//! version, length, FNV-1a checksum, atomic rename. Every corruption
//! mode (truncation, bit flip, version skew, configuration skew)
//! surfaces as a clean [`FsaError::CorruptCheckpoint`]; a checkpoint
//! that cannot be written is an [`FsaError::CheckpointWrite`].
//!
//! The configuration fingerprint covers the component models (names,
//! stakeholder templates, multiplicity bounds, template actions,
//! internal flows), the connection rules and the enumeration options —
//! but deliberately *not* the thread count or supervision policy:
//! resuming on a different number of threads is supported and
//! bit-identical.

use crate::component_model::ComponentModel;
use crate::error::FsaError;
use crate::explore::{Accepted, BudgetPolicy, ConnectionRule, ExploreOptions};
use fsa_exec::{Snapshot, SnapshotError, SnapshotReader};
use std::path::Path;

/// Schema version of [`ExploreCheckpoint`] payloads. Version 2 added
/// each accepted entry's certificate. Version 3 has the same layout, but
/// its certificates come from the word-wise refinement kernel of
/// [`fsa_graph::iso`]: a version-2 file's certificates would put
/// isomorphic candidates in other buckets than a resumed run's, so
/// version-1 and version-2 files are rejected.
pub const EXPLORE_CHECKPOINT_VERSION: u32 = 3;

/// Deterministic counters persisted with a checkpoint, so a resumed
/// run reports the same statistics as an uninterrupted one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointCounters {
    /// See [`crate::explore::ExploreStats::multiplicity_vectors`].
    pub multiplicity_vectors: usize,
    /// See [`crate::explore::ExploreStats::subsets_total`].
    pub subsets_total: usize,
    /// See [`crate::explore::ExploreStats::orbits_skipped`].
    pub orbits_skipped: usize,
    /// See [`crate::explore::ExploreStats::candidates`].
    pub candidates: usize,
    /// See [`crate::explore::ExploreStats::candidates_built`].
    pub candidates_built: usize,
    /// See [`crate::explore::ExploreStats::disconnected_skipped`].
    pub disconnected_skipped: usize,
    /// See [`crate::explore::ExploreStats::certificate_hits`].
    pub certificate_hits: usize,
    /// See [`crate::explore::ExploreStats::exact_iso_fallbacks`].
    pub exact_iso_fallbacks: usize,
    /// See [`crate::explore::ExploreStats::truncated`].
    pub truncated: bool,
    /// See [`crate::explore::ExploreStats::vectors_completed`].
    pub vectors_completed: usize,
    /// See [`crate::explore::ExploreStats::failures`].
    pub failures: usize,
    /// See [`crate::explore::ExploreStats::retries`].
    pub retries: u64,
}

/// One persisted snapshot of a supervised exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreCheckpoint {
    /// Fingerprint of models, rules and options (see
    /// [`config_fingerprint`]); a mismatch on resume is rejected.
    pub fingerprint: u64,
    /// Ordinal (in [`crate::explore`]'s canonical odometer order over
    /// non-empty multiplicity vectors) of the vector being processed;
    /// equal to the total vector count when the run had completed.
    pub next_ordinal: u64,
    /// Canonical masks of vector `next_ordinal` not yet instantiated.
    /// Empty ⇔ the checkpoint sits at a vector boundary.
    pub pending_masks: Vec<u64>,
    /// `(vector ordinal, mask)` and certificate of every accepted class
    /// representative, in discovery order.
    pub accepted: Vec<Accepted>,
    /// Deterministic counters at checkpoint time.
    pub counters: CheckpointCounters,
}

fn corrupt(e: SnapshotError) -> FsaError {
    FsaError::CorruptCheckpoint {
        reason: e.to_string(),
    }
}

impl ExploreCheckpoint {
    /// Writes the checkpoint atomically (tmp file + rename).
    ///
    /// # Errors
    ///
    /// [`FsaError::CheckpointWrite`] wrapping the filesystem failure.
    pub fn write(&self, path: &Path) -> Result<(), FsaError> {
        self.snapshot(EXPLORE_CHECKPOINT_VERSION)
            .write_atomic(path)
            .map_err(|e| FsaError::CheckpointWrite {
                reason: e.to_string(),
            })
    }

    /// The checkpoint as a snapshot payload of version `version`.
    fn snapshot(&self, version: u32) -> Snapshot {
        let mut s = Snapshot::new(version);
        s.put_u64(self.fingerprint);
        s.put_u64(self.next_ordinal);
        s.put_usize(self.pending_masks.len());
        for &mask in &self.pending_masks {
            s.put_u64(mask);
        }
        s.put_usize(self.accepted.len());
        for entry in &self.accepted {
            s.put_u64(entry.ordinal);
            s.put_u64(entry.mask);
            s.put_u64(entry.certificate);
        }
        let c = &self.counters;
        s.put_usize(c.multiplicity_vectors);
        s.put_usize(c.subsets_total);
        s.put_usize(c.orbits_skipped);
        s.put_usize(c.candidates);
        s.put_usize(c.candidates_built);
        s.put_usize(c.disconnected_skipped);
        s.put_usize(c.certificate_hits);
        s.put_usize(c.exact_iso_fallbacks);
        s.put_bool(c.truncated);
        s.put_usize(c.vectors_completed);
        s.put_usize(c.failures);
        s.put_u64(c.retries);
        s
    }

    /// Reads and validates the checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// [`FsaError::CorruptCheckpoint`] on any of: missing file,
    /// truncation, bit flip (checksum mismatch), version skew, or a
    /// structurally impossible payload.
    pub fn read(path: &Path) -> Result<Self, FsaError> {
        let mut r = SnapshotReader::read(path, EXPLORE_CHECKPOINT_VERSION).map_err(corrupt)?;
        let inner = |r: &mut SnapshotReader| -> Result<ExploreCheckpoint, SnapshotError> {
            let fingerprint = r.u64()?;
            let next_ordinal = r.u64()?;
            let pending_len = r.usize()?;
            let mut pending_masks = Vec::new();
            for _ in 0..pending_len {
                pending_masks.push(r.u64()?);
            }
            let accepted_len = r.usize()?;
            let mut accepted = Vec::new();
            for _ in 0..accepted_len {
                accepted.push(Accepted {
                    ordinal: r.u64()?,
                    mask: r.u64()?,
                    certificate: r.u64()?,
                });
            }
            let counters = CheckpointCounters {
                multiplicity_vectors: r.usize()?,
                subsets_total: r.usize()?,
                orbits_skipped: r.usize()?,
                candidates: r.usize()?,
                candidates_built: r.usize()?,
                disconnected_skipped: r.usize()?,
                certificate_hits: r.usize()?,
                exact_iso_fallbacks: r.usize()?,
                truncated: r.bool()?,
                vectors_completed: r.usize()?,
                failures: r.usize()?,
                retries: r.u64()?,
            };
            Ok(ExploreCheckpoint {
                fingerprint,
                next_ordinal,
                pending_masks,
                accepted,
                counters,
            })
        };
        let checkpoint = inner(&mut r).map_err(corrupt)?;
        r.finish().map_err(corrupt)?;
        Ok(checkpoint)
    }
}

/// Incremental FNV-1a with length-prefixed framing (so `("ab","c")` and
/// `("a","bc")` hash differently).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Domain-separation tag hashed into every configuration fingerprint.
/// Bump when the fingerprint's field coverage changes so checkpoints
/// written under the old coverage can never alias the new one.
const FINGERPRINT_DOMAIN: &str = "fsa-explore-config/v3";

/// Fingerprint of the enumeration configuration: component models
/// (name, stakeholder template, multiplicity bound, template actions,
/// internal flows), connection rules, and [`ExploreOptions`] — minus
/// the thread count, which a resumed run may legitimately change.
///
/// Coverage contract (audited; every semantics-affecting knob of a
/// resumable enumeration must appear here so `--resume` under changed
/// flags fails closed as a fingerprint mismatch):
///
/// * **max-vehicles** — the multiplicity bound of the vehicle model is
///   the `usize` paired with each [`ComponentModel`], hashed below;
/// * **budget** (`--budget`) — [`ExploreOptions::max_candidates`];
/// * **truncation policy** (`--truncate`) — [`ExploreOptions::on_budget`];
/// * **connectivity filter** (`--all`) —
///   [`ExploreOptions::require_connected`];
/// * **shard range** — [`ExploreOptions::shard`]; a checkpoint written
///   while exploring one shard of the multiplicity space must fail
///   closed when resumed against another shard (or against the whole
///   universe), because its frontier and accepted log only cover that
///   range.
///
/// Deliberately excluded: `threads` (a laptop run may finish on a
/// bigger box, bit-identically) and the observability handle (exports
/// never change the enumeration).
#[must_use]
pub fn config_fingerprint(
    models: &[(ComponentModel, usize)],
    rules: &[ConnectionRule],
    options: &ExploreOptions,
) -> u64 {
    let mut h = Fnv::new();
    h.str(FINGERPRINT_DOMAIN);
    h.u64(models.len() as u64);
    for (model, max) in models {
        h.str(model.name());
        h.str(model.stakeholder_template());
        h.u64(*max as u64);
        h.u64(model.actions().len() as u64);
        for action in model.actions() {
            h.str(&action.to_string());
        }
        h.u64(model.flows().len() as u64);
        for &(from, to, policy) in model.flows() {
            h.u64(from as u64);
            h.u64(to as u64);
            h.u64(u64::from(policy));
        }
    }
    h.u64(rules.len() as u64);
    for rule in rules {
        h.str(&rule.from_model);
        h.u64(rule.from_action as u64);
        h.str(&rule.to_model);
        h.u64(rule.to_action as u64);
    }
    h.u64(u64::from(options.require_connected));
    h.u64(options.max_candidates as u64);
    h.u64(match options.on_budget {
        BudgetPolicy::Error => 0,
        BudgetPolicy::Truncate => 1,
    });
    match options.shard {
        None => h.u64(0),
        Some(shard) => {
            h.u64(1);
            h.u64(shard.start);
            h.u64(shard.end);
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExploreCheckpoint {
        ExploreCheckpoint {
            fingerprint: 0xFEED,
            next_ordinal: 3,
            pending_masks: vec![5, 9],
            accepted: vec![
                Accepted {
                    ordinal: 0,
                    mask: 0,
                    certificate: 0x0123_4567_89ab_cdef,
                },
                Accepted {
                    ordinal: 1,
                    mask: 3,
                    certificate: u64::MAX,
                },
                Accepted {
                    ordinal: 3,
                    mask: 1,
                    certificate: 7,
                },
            ],
            counters: CheckpointCounters {
                multiplicity_vectors: 4,
                subsets_total: 20,
                orbits_skipped: 6,
                candidates: 14,
                candidates_built: 12,
                disconnected_skipped: 2,
                certificate_hits: 7,
                exact_iso_fallbacks: 1,
                truncated: false,
                vectors_completed: 3,
                failures: 0,
                retries: 2,
            },
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fsa_ckpt_{tag}_{}.bin", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let path = temp_path("roundtrip");
        let cp = sample();
        cp.write(&path).unwrap();
        assert_eq!(ExploreCheckpoint::read(&path).unwrap(), cp);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_truncated_and_flipped_files_are_corrupt_checkpoints() {
        let path = temp_path("corrupt");
        // Missing file.
        std::fs::remove_file(&path).ok();
        let err = ExploreCheckpoint::read(&path).unwrap_err();
        assert!(matches!(err, FsaError::CorruptCheckpoint { .. }), "{err}");
        // Truncated file.
        sample().write(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = ExploreCheckpoint::read(&path).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Bit-flipped file.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        let err = ExploreCheckpoint::read(&path).unwrap_err();
        assert!(matches!(err, FsaError::CorruptCheckpoint { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_skew_is_reported() {
        let path = temp_path("skew");
        let mut s = Snapshot::new(EXPLORE_CHECKPOINT_VERSION + 1);
        s.put_u64(1);
        s.write_atomic(&path).unwrap();
        let err = ExploreCheckpoint::read(&path).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_version_1_checkpoint_is_rejected() {
        // The version-1 layout: accepted entries without certificates.
        let path = temp_path("v1");
        let cp = sample();
        let mut s = Snapshot::new(1);
        s.put_u64(cp.fingerprint);
        s.put_u64(cp.next_ordinal);
        s.put_usize(cp.pending_masks.len());
        for &mask in &cp.pending_masks {
            s.put_u64(mask);
        }
        s.put_usize(cp.accepted.len());
        for entry in &cp.accepted {
            s.put_u64(entry.ordinal);
            s.put_u64(entry.mask);
        }
        s.write_atomic(&path).unwrap();
        let err = ExploreCheckpoint::read(&path).unwrap_err();
        assert!(
            matches!(&err, FsaError::CorruptCheckpoint { reason }
                if reason.contains("version 1") && reason.contains("version 3")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_version_2_checkpoint_is_rejected() {
        // The version-2 layout is version 3's; its certificates came from
        // the byte-wise FNV kernel.
        let path = temp_path("v2");
        sample().snapshot(2).write_atomic(&path).unwrap();
        let err = ExploreCheckpoint::read(&path).unwrap_err();
        assert!(
            matches!(&err, FsaError::CorruptCheckpoint { reason }
                if reason.contains("version 2") && reason.contains("version 3")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_unwritable_checkpoint_is_a_write_error_and_leaves_no_temp_file() {
        let dir = temp_path("unwritable");
        std::fs::create_dir_all(&dir).unwrap();
        // The rename onto a directory fails after the temp file is written.
        let err = sample().write(&dir).unwrap_err();
        assert!(matches!(err, FsaError::CheckpointWrite { .. }), "{err}");
        assert!(
            err.to_string().starts_with("cannot write checkpoint"),
            "{err}"
        );
        let mut tmp = dir.clone().into_os_string();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
        // A missing directory fails before anything is written.
        let err = sample()
            .write(&dir.join("missing").join("c.fsas"))
            .unwrap_err();
        assert!(matches!(err, FsaError::CheckpointWrite { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_separates_configurations() {
        let mut model = ComponentModel::new("S", "Op");
        model.action("emit(SNS_i,val)");
        let models = vec![(model.clone(), 2usize)];
        let rules: Vec<ConnectionRule> = Vec::new();
        let options = ExploreOptions::default();
        let base = config_fingerprint(&models, &rules, &options);
        // Same configuration ⇒ same fingerprint.
        assert_eq!(base, config_fingerprint(&models, &rules, &options));
        // Multiplicity bound, action set, and options all separate.
        assert_ne!(
            base,
            config_fingerprint(&[(model.clone(), 3)], &rules, &options)
        );
        let mut bigger = model.clone();
        bigger.action("emit2(SNS_i,val)");
        assert_ne!(base, config_fingerprint(&[(bigger, 2)], &rules, &options));
        let other_options = ExploreOptions {
            require_connected: !options.require_connected,
            ..options.clone()
        };
        assert_ne!(base, config_fingerprint(&models, &rules, &other_options));
        // Thread count does NOT change the fingerprint (cross-thread
        // resume is supported).
        let threaded = ExploreOptions {
            threads: 8,
            ..options
        };
        assert_eq!(base, config_fingerprint(&models, &rules, &threaded));
    }

    #[test]
    fn fingerprint_separates_shard_ranges() {
        use crate::explore::ShardRange;
        let mut model = ComponentModel::new("S", "Op");
        model.action("emit(SNS_i,val)");
        let models = vec![(model, 2usize)];
        let rules: Vec<ConnectionRule> = Vec::new();
        let unsharded = config_fingerprint(&models, &rules, &ExploreOptions::default());
        let shard = |start, end| ExploreOptions {
            shard: Some(ShardRange::new(start, end)),
            ..Default::default()
        };
        let first = config_fingerprint(&models, &rules, &shard(0, 1));
        let second = config_fingerprint(&models, &rules, &shard(1, 2));
        // A shard checkpoint can be resumed neither against the whole
        // universe nor against a different shard.
        assert_ne!(unsharded, first);
        assert_ne!(first, second);
        assert_eq!(first, config_fingerprint(&models, &rules, &shard(0, 1)));
    }
}
