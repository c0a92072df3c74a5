//! Store-and-forward coordinator state.
//!
//! The coordinator's work/result queue is not kept only in memory: each
//! time a shard result is accepted it is appended to a versioned state
//! file in the same checkpoint envelope the supervised engine uses
//! (`FSAS` magic + version + length + FNV-1a checksum, written via
//! atomic tmp+rename — see [`fsa_exec::Snapshot`]). A coordinator that
//! is killed mid-universe therefore resumes from the file: completed
//! shards are seeded as done, and only the remaining ranges are
//! re-leased to workers.
//!
//! The file embeds the `fsa-explore-config/v3` fingerprint of the
//! *unsharded* configuration plus the shard layout, and loading fails
//! closed with [`DistError::State`] when either disagrees with the
//! coordinator's current configuration. Version 2 of the file holds
//! lattice-position shard ranges and each accepted entry's certificate.
//! Version 3 keeps that layout for the certificates of the word-wise
//! refinement kernel ([`fsa_core::checkpoint::EXPLORE_CHECKPOINT_VERSION`]
//! 3); version-1 and version-2 files are rejected.

use crate::error::DistError;
use fsa_core::checkpoint::CheckpointCounters;
use fsa_core::explore::{Accepted, ShardRange};
use fsa_exec::{Snapshot, SnapshotReader};
use std::path::Path;

/// Snapshot payload version of the coordinator state file.
pub const STATE_VERSION: u32 = 3;

/// One shard's durable record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// The shard's range of lattice positions.
    pub range: ShardRange,
    /// `Some((accepted, counters))` once the shard's result has been
    /// accepted; `None` while the shard is still outstanding.
    pub done: Option<(Vec<Accepted>, CheckpointCounters)>,
}

/// The coordinator's durable state: configuration header + per-shard
/// completion records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordState {
    /// `fsa-explore-config/v3` fingerprint of the unsharded run.
    pub fingerprint: u64,
    /// `--max-vehicles` of the run.
    pub max_vehicles: u64,
    /// Global candidate budget.
    pub max_candidates: u64,
    /// Whether disconnected candidates are skipped.
    pub require_connected: bool,
    /// All shards of the universe, in ascending range order.
    pub shards: Vec<ShardRecord>,
}

impl CoordState {
    /// How many shards have durably completed.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.shards.iter().filter(|s| s.done.is_some()).count()
    }

    /// Serialises the state into a checksummed snapshot and writes it
    /// atomically (tmp + fsync + rename + directory fsync) to `path`.
    ///
    /// Durability, not just atomicity, is load-bearing here: the
    /// coordinator acknowledges a `shard-result` only after this
    /// returns, and the worker deletes its own checkpoint on that
    /// ack. If the ack could outrun the disk, a machine crash would
    /// leave *neither* side holding the shard's result.
    ///
    /// # Errors
    ///
    /// [`DistError::State`] on I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), DistError> {
        self.snapshot(STATE_VERSION)
            .write_atomic(path)
            .map_err(|e| DistError::State(format!("cannot write {}: {e}", path.display())))
    }

    /// The state as a snapshot payload of version `version`.
    fn snapshot(&self, version: u32) -> Snapshot {
        let mut snap = Snapshot::new(version);
        snap.put_u64(self.fingerprint);
        snap.put_u64(self.max_vehicles);
        snap.put_u64(self.max_candidates);
        snap.put_bool(self.require_connected);
        snap.put_usize(self.shards.len());
        for shard in &self.shards {
            snap.put_u64(shard.range.start);
            snap.put_u64(shard.range.end);
            snap.put_bool(shard.done.is_some());
            if let Some((accepted, c)) = &shard.done {
                snap.put_usize(accepted.len());
                for entry in accepted {
                    snap.put_u64(entry.ordinal);
                    snap.put_u64(entry.mask);
                    snap.put_u64(entry.certificate);
                }
                snap.put_usize(c.multiplicity_vectors);
                snap.put_usize(c.subsets_total);
                snap.put_usize(c.orbits_skipped);
                snap.put_usize(c.candidates);
                snap.put_usize(c.candidates_built);
                snap.put_usize(c.disconnected_skipped);
                snap.put_usize(c.certificate_hits);
                snap.put_usize(c.exact_iso_fallbacks);
                snap.put_bool(c.truncated);
                snap.put_usize(c.vectors_completed);
                snap.put_usize(c.failures);
                snap.put_u64(c.retries);
            }
        }
        snap
    }

    /// Loads and checksum-validates a state file.
    ///
    /// # Errors
    ///
    /// [`DistError::State`] when the file is unreadable, corrupt,
    /// version-skewed, or structurally invalid (unsorted shard
    /// ranges, gaps, overlaps).
    pub fn load(path: &Path) -> Result<CoordState, DistError> {
        let bad = |e: &dyn std::fmt::Display| {
            DistError::State(format!("cannot load {}: {e}", path.display()))
        };
        let mut r = SnapshotReader::read(path, STATE_VERSION).map_err(|e| bad(&e))?;
        let mut read = || -> Result<CoordState, fsa_exec::SnapshotError> {
            let fingerprint = r.u64()?;
            let max_vehicles = r.u64()?;
            let max_candidates = r.u64()?;
            let require_connected = r.bool()?;
            let count = r.usize()?;
            let mut shards = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                let start = r.u64()?;
                let end = r.u64()?;
                let done = if r.bool()? {
                    let n = r.usize()?;
                    let mut accepted = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
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
                    Some((accepted, counters))
                } else {
                    None
                };
                shards.push(ShardRecord {
                    range: ShardRange { start, end },
                    done,
                });
            }
            Ok(CoordState {
                fingerprint,
                max_vehicles,
                max_candidates,
                require_connected,
                shards,
            })
        };
        let state = read().map_err(|e| bad(&e))?;
        r.finish().map_err(|e| bad(&e))?;
        for pair in state.shards.windows(2) {
            if pair[0].range.end != pair[1].range.start {
                return Err(DistError::State(format!(
                    "shard layout in {} has a gap or overlap at ordinal {}",
                    path.display(),
                    pair[0].range.end
                )));
            }
        }
        Ok(state)
    }

    /// Verifies that a loaded state file belongs to this run's
    /// configuration and shard layout.
    ///
    /// The layout is compared range by range, so a file written under
    /// another shard count or another lattice is rejected.
    ///
    /// # Errors
    ///
    /// [`DistError::State`] naming the first disagreeing field.
    pub fn check_compatible(&self, expected: &CoordState) -> Result<(), DistError> {
        if self.fingerprint != expected.fingerprint {
            return Err(DistError::State(
                "config fingerprint mismatch: the state file was written under a different \
                 model/rule/option configuration"
                    .to_owned(),
            ));
        }
        if self.max_vehicles != expected.max_vehicles
            || self.max_candidates != expected.max_candidates
            || self.require_connected != expected.require_connected
        {
            return Err(DistError::State(
                "universe configuration mismatch between the state file and this run".to_owned(),
            ));
        }
        let mine: Vec<ShardRange> = self.shards.iter().map(|s| s.range).collect();
        let theirs: Vec<ShardRange> = expected.shards.iter().map(|s| s.range).collect();
        if mine != theirs {
            return Err(DistError::State(format!(
                "shard layout mismatch: state file has {} shards, this run wants {}",
                mine.len(),
                theirs.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fsa-dist-state-{tag}-{}.fsas", std::process::id()))
    }

    fn sample() -> CoordState {
        CoordState {
            fingerprint: 0xDEAD_BEEF,
            max_vehicles: 3,
            max_candidates: 100_000,
            require_connected: true,
            shards: vec![
                ShardRecord {
                    range: ShardRange { start: 0, end: 4 },
                    done: Some((
                        vec![
                            Accepted {
                                ordinal: 0,
                                mask: 0,
                                certificate: 1,
                            },
                            Accepted {
                                ordinal: 1,
                                mask: 2,
                                certificate: u64::MAX,
                            },
                            Accepted {
                                ordinal: 3,
                                mask: 5,
                                certificate: 0xfeed,
                            },
                        ],
                        CheckpointCounters {
                            multiplicity_vectors: 4,
                            subsets_total: 12,
                            orbits_skipped: 3,
                            candidates: 9,
                            candidates_built: 9,
                            disconnected_skipped: 0,
                            certificate_hits: 6,
                            exact_iso_fallbacks: 1,
                            truncated: false,
                            vectors_completed: 4,
                            failures: 0,
                            retries: 0,
                        },
                    )),
                },
                ShardRecord {
                    range: ShardRange { start: 4, end: 7 },
                    done: None,
                },
            ],
        }
    }

    #[test]
    fn state_round_trips_through_disk() {
        let path = temp_path("roundtrip");
        let state = sample();
        state.save(&path).unwrap();
        let loaded = CoordState::load(&path).unwrap();
        assert_eq!(loaded, state);
        assert_eq!(loaded.completed(), 1);
        loaded.check_compatible(&state).unwrap();
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_version_1_state_file_is_rejected() {
        // The version-1 layout: accepted entries without certificates.
        let path = temp_path("v1");
        let state = sample();
        let mut snap = Snapshot::new(1);
        snap.put_u64(state.fingerprint);
        snap.put_u64(state.max_vehicles);
        snap.put_u64(state.max_candidates);
        snap.put_bool(state.require_connected);
        snap.put_usize(state.shards.len());
        for shard in &state.shards {
            snap.put_u64(shard.range.start);
            snap.put_u64(shard.range.end);
            snap.put_bool(false);
        }
        snap.write_atomic(&path).unwrap();
        let err = CoordState::load(&path).unwrap_err();
        assert!(
            matches!(&err, DistError::State(m) if m.contains("version 1") && m.contains("version 3")),
            "{err}"
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_version_2_state_file_is_rejected() {
        // The version-2 layout is version 3's; its certificates came from
        // the byte-wise FNV kernel.
        let path = temp_path("v2");
        sample().snapshot(2).write_atomic(&path).unwrap();
        let err = CoordState::load(&path).unwrap_err();
        assert!(
            matches!(&err, DistError::State(m) if m.contains("version 2") && m.contains("version 3")),
            "{err}"
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_and_skewed_files_fail_closed() {
        let path = temp_path("corrupt");
        sample().save(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(CoordState::load(&path), Err(DistError::State(_))));
        fs::write(&path, b"FSASnot a snapshot").unwrap();
        assert!(matches!(CoordState::load(&path), Err(DistError::State(_))));
        fs::remove_file(&path).unwrap();
        assert!(matches!(CoordState::load(&path), Err(DistError::State(_))));
    }

    #[test]
    fn incompatible_states_are_rejected() {
        let state = sample();
        let mut other = state.clone();
        other.fingerprint ^= 1;
        assert!(other.check_compatible(&state).is_err());
        let mut other = state.clone();
        other.max_vehicles = 4;
        assert!(other.check_compatible(&state).is_err());
        let mut other = state.clone();
        other.shards.pop();
        assert!(other.check_compatible(&state).is_err());
        // Completion status differences are fine: that is the point
        // of resuming.
        let mut other = state.clone();
        other.shards[0].done = None;
        other.check_compatible(&state).unwrap();
    }

    #[test]
    fn gapped_layouts_are_rejected_on_load() {
        let path = temp_path("gap");
        let mut state = sample();
        state.shards[1].range.start = 5;
        state.save(&path).unwrap();
        assert!(matches!(CoordState::load(&path), Err(DistError::State(_))));
        fs::remove_file(&path).unwrap();
    }
}
