//! Cross-crate resilience properties of the supervised execution layer
//! (`fsa_exec`), exercised through the public facade: the vehicular
//! exploration (`vanet` → `fsa_core::explore`) and the monitor fleet
//! (`fsa_runtime::fleet`) under deadlines, interruptions, resume, and
//! (feature `chaos`) injected worker panics.

use fsa::core::explore::{CheckpointSpec, ExecOptions, Exploration, ExploreOptions};
use fsa::exec::{CancelToken, Supervisor};
use fsa::vanet::exploration::{explore_scenario, explore_scenario_supervised};

/// Renders the deterministic part of an exploration: instance names,
/// graph shapes, and the replayable counters.
fn fingerprint(e: &Exploration) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for i in &e.instances {
        let _ = writeln!(out, "{} {:?}", i.name(), i.graph());
    }
    let s = &e.universe.stats;
    let _ = writeln!(
        out,
        "v={} s={} o={} c={} b={} d={} cls={}",
        s.multiplicity_vectors,
        s.subsets_total,
        s.orbits_skipped,
        s.candidates,
        s.candidates_built,
        s.disconnected_skipped,
        s.classes
    );
    out
}

#[test]
fn supervised_exploration_is_thread_and_batch_invariant() {
    let golden = explore_scenario(2, &ExploreOptions::default()).unwrap();
    let golden_fp = fingerprint(&golden);
    for threads in [1usize, 4, 8] {
        for batch in [1usize, 7, 256] {
            let options = ExploreOptions {
                threads,
                ..ExploreOptions::default()
            };
            let exec = ExecOptions {
                batch,
                ..ExecOptions::default()
            };
            let sup = explore_scenario_supervised(2, &options, &exec).unwrap();
            assert_eq!(
                fingerprint(&sup),
                golden_fp,
                "threads {threads} batch {batch}"
            );
            assert!(!sup.universe.stats.cancelled);
            assert_eq!(sup.universe.stats.failures, 0);
        }
    }
}

#[test]
fn interrupt_then_resume_across_thread_counts_is_bit_identical() {
    let golden = explore_scenario(2, &ExploreOptions::default()).unwrap();
    let golden_fp = fingerprint(&golden);
    let dir = std::env::temp_dir().join(format!("fsa-resilience-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.fsas");

    let mut interruptions = 0usize;
    for k in [1u64, 3, 9, 17, 33] {
        // Interrupt a sequential run after `k` cancellation-gate ticks…
        let exec = ExecOptions {
            supervisor: Supervisor::new().with_cancel(CancelToken::countdown(k)),
            batch: 1,
            checkpoint: Some(CheckpointSpec {
                path: path.clone(),
                every: 1,
                at_end: true,
            }),
            resume: None,
        };
        let partial = explore_scenario_supervised(2, &ExploreOptions::default(), &exec).unwrap();
        if partial.universe.stats.cancelled {
            interruptions += 1;
            assert!(
                partial.universe.stats.vectors_completed < partial.universe.stats.vectors_total,
                "k={k}: a cancelled run reports incomplete vector coverage"
            );
        }
        // …and resume on four threads: the configuration fingerprint
        // deliberately excludes the thread count, so a laptop run can
        // finish on a bigger box — bit-identically.
        let exec = ExecOptions {
            resume: Some(path.clone()),
            ..ExecOptions::default()
        };
        let options = ExploreOptions {
            threads: 4,
            ..ExploreOptions::default()
        };
        let resumed = explore_scenario_supervised(2, &options, &exec).unwrap();
        assert!(resumed.universe.stats.resumed);
        assert_eq!(fingerprint(&resumed), golden_fp, "k={k}");
    }
    assert!(interruptions > 0, "the countdown sweep must interrupt");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervised_union_matches_threaded_union_and_degrades_cleanly() {
    use fsa::core::{FsaError, RequirementSet};
    let options = ExploreOptions {
        threads: 2,
        ..ExploreOptions::default()
    };
    let exploration = explore_scenario(2, &options).unwrap();
    // Oracle: a sequential fold of the per-instance §4 elicitations.
    let mut golden = RequirementSet::new();
    let mut skipped = 0usize;
    for instance in &exploration.instances {
        match fsa::core::manual::elicit(instance) {
            Ok(report) => golden.extend(report.requirements()),
            Err(FsaError::CircularDependency { .. }) => skipped += 1,
            Err(e) => panic!("{}: {e}", instance.name()),
        }
    }
    let out = &exploration.universe;
    assert!(!out.stats.cancelled);
    assert_eq!(out.requirements, golden);
    assert_eq!(out.loop_skipped, skipped);

    // An expired deadline finds no class, so it unions nothing, but
    // does not error.
    let exec = ExecOptions {
        supervisor: Supervisor::new()
            .with_cancel(CancelToken::with_deadline(std::time::Duration::ZERO)),
        ..ExecOptions::default()
    };
    let out = explore_scenario_supervised(2, &options, &exec)
        .unwrap()
        .universe;
    assert!(out.stats.cancelled);
    assert!(out.classes.is_empty());
    assert!(out.requirements.is_empty());
}

#[test]
fn fleet_deadline_yields_partial_coverage_not_an_error() {
    use fsa::core::requirements::AuthRequirement;
    use fsa::core::{Action, Agent};
    use fsa::runtime::{monitor_apa_supervised, FleetConfig};
    let apa = fsa::vanet::forwarding::forwarding_chain_apa().unwrap();
    let set = [AuthRequirement::new(
        Action::parse("V1_sense"),
        Action::parse("V3_show"),
        Agent::new("D_3"),
    )]
    .into_iter()
    .collect();
    let cfg = FleetConfig {
        streams: 6,
        events_per_stream: 64,
        ..FleetConfig::default()
    };
    let sup = Supervisor::new().with_cancel(CancelToken::countdown(2));
    let (_, report) =
        monitor_apa_supervised(&apa, std::slice::from_ref(&apa), &set, &cfg, &sup).unwrap();
    assert!(report.cancelled);
    assert_eq!(report.streams_completed, 2);
    assert!(!report.is_complete());
    assert!(report.render().contains("stream coverage 2/6"));
}

/// Chaos: deterministic injected worker panics (feature `chaos`). A
/// healed panic must leave every report bit-identical; an unhealable
/// one must quarantine only its own chunk.
#[cfg(feature = "chaos")]
mod chaos {
    use super::*;
    use fsa::exec::{FaultPlan, RetryPolicy};
    use std::time::Duration;

    fn fast_retry(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_delay: Duration::from_micros(10),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn seeded_panic_spray_heals_to_bit_identical_exploration() {
        let golden = explore_scenario(2, &ExploreOptions::default()).unwrap();
        let golden_fp = fingerprint(&golden);
        for threads in [1usize, 4, 8] {
            let options = ExploreOptions {
                threads,
                ..ExploreOptions::default()
            };
            let exec = ExecOptions {
                supervisor: Supervisor::new()
                    .with_retry(fast_retry(2))
                    .with_fault_plan(FaultPlan::new().seeded(0xBEEF, "explore:", 25)),
                batch: 4,
                ..ExecOptions::default()
            };
            let sup = explore_scenario_supervised(2, &options, &exec).unwrap();
            assert_eq!(fingerprint(&sup), golden_fp, "threads {threads}");
            assert_eq!(sup.universe.stats.failures, 0);
        }
    }

    #[test]
    fn exhausted_retries_quarantine_without_aborting_the_fleet() {
        use fsa::core::requirements::AuthRequirement;
        use fsa::core::{Action, Agent};
        use fsa::runtime::{monitor_apa_supervised, FleetConfig};
        let apa = fsa::vanet::forwarding::forwarding_chain_apa().unwrap();
        let set = [AuthRequirement::new(
            Action::parse("V1_sense"),
            Action::parse("V3_show"),
            Agent::new("D_3"),
        )]
        .into_iter()
        .collect();
        let cfg = FleetConfig {
            streams: 6,
            events_per_stream: 64,
            threads: 3,
            ..FleetConfig::default()
        };
        let sup = Supervisor::new()
            .with_retry(fast_retry(1))
            .with_fault_plan(FaultPlan::new().panic_on("fleet:stream", 4, u32::MAX));
        let (_, report) =
            monitor_apa_supervised(&apa, std::slice::from_ref(&apa), &set, &cfg, &sup).unwrap();
        assert_eq!(report.streams_completed, 5);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].chunk, 4);
        assert!(report.render().contains("quarantined"));
    }
}

/// Resuming under a *changed* configuration must fail closed: every
/// flag that feeds the checkpoint fingerprint (budget, budget policy,
/// connectivity filter, universe size) rejects the checkpoint with a
/// clean `CorruptCheckpoint`, while fingerprint-neutral flags (thread
/// count) resume bit-identically.
#[test]
fn resume_under_changed_flags_fails_closed_per_fingerprint_field() {
    use fsa::core::explore::BudgetPolicy;
    use fsa::core::FsaError;

    let golden = explore_scenario(2, &ExploreOptions::default()).unwrap();
    let golden_fp = fingerprint(&golden);
    let dir = std::env::temp_dir().join(format!("fsa-resume-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("changed-flags.fsas");

    // Interrupt a default-configured run early so the checkpoint holds
    // a genuine mid-enumeration frontier.
    let exec = ExecOptions {
        supervisor: Supervisor::new().with_cancel(CancelToken::countdown(3)),
        batch: 1,
        checkpoint: Some(CheckpointSpec {
            path: path.clone(),
            every: 1,
            at_end: true,
        }),
        resume: None,
    };
    let partial = explore_scenario_supervised(2, &ExploreOptions::default(), &exec).unwrap();
    assert!(
        partial.universe.stats.cancelled,
        "countdown(3) must interrupt"
    );

    let resume_exec = || ExecOptions {
        resume: Some(path.clone()),
        ..ExecOptions::default()
    };

    // Fingerprinted flags: each change alone must reject the resume.
    let changed: Vec<(&str, usize, ExploreOptions)> = vec![
        (
            "budget",
            2,
            ExploreOptions {
                max_candidates: 99_999,
                ..ExploreOptions::default()
            },
        ),
        (
            "budget policy",
            2,
            ExploreOptions {
                on_budget: BudgetPolicy::Truncate,
                ..ExploreOptions::default()
            },
        ),
        (
            "connectivity filter",
            2,
            ExploreOptions {
                require_connected: false,
                ..ExploreOptions::default()
            },
        ),
        ("universe size", 3, ExploreOptions::default()),
        (
            "shard range",
            2,
            ExploreOptions {
                shard: Some(fsa::core::explore::ShardRange { start: 0, end: 1 }),
                ..ExploreOptions::default()
            },
        ),
    ];
    for (what, n, options) in changed {
        let err = explore_scenario_supervised(n, &options, &resume_exec()).unwrap_err();
        assert!(
            matches!(
                &err,
                FsaError::CorruptCheckpoint { reason }
                    if reason.contains("different model/rule/option configuration")
            ),
            "changed {what}: expected a fingerprint rejection, got {err}"
        );
    }

    // Thread count is deliberately outside the fingerprint: the resumed
    // run completes and is bit-identical to an uninterrupted one.
    for threads in [1usize, 4] {
        let options = ExploreOptions {
            threads,
            ..ExploreOptions::default()
        };
        let resumed = explore_scenario_supervised(2, &options, &resume_exec()).unwrap();
        assert!(resumed.universe.stats.resumed);
        assert_eq!(fingerprint(&resumed), golden_fp, "threads {threads}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cross_shard_resume_fails_closed() {
    use fsa::core::explore::ShardRange;
    use fsa::core::FsaError;

    let dir = std::env::temp_dir().join(format!("fsa-resume-shard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shard-0-3.fsas");
    let shard = ShardRange { start: 0, end: 3 };
    let sharded = |shard| ExploreOptions {
        shard,
        ..ExploreOptions::default()
    };

    // A completed sharded run leaves a boundary checkpoint for its
    // own shard.
    let exec = ExecOptions {
        checkpoint: Some(CheckpointSpec {
            path: path.clone(),
            every: 1,
            at_end: true,
        }),
        ..ExecOptions::default()
    };
    let own = explore_scenario_supervised(3, &sharded(Some(shard)), &exec).unwrap();

    // Resuming the checkpoint under a different shard — or none — is
    // a config-fingerprint mismatch: another worker must never adopt
    // a foreign shard's frontier.
    let resume_exec = || ExecOptions {
        resume: Some(path.clone()),
        ..ExecOptions::default()
    };
    for other in [None, Some(ShardRange { start: 3, end: 7 })] {
        let err = explore_scenario_supervised(3, &sharded(other), &resume_exec()).unwrap_err();
        assert!(
            matches!(
                &err,
                FsaError::CorruptCheckpoint { reason }
                    if reason.contains("different model/rule/option configuration")
            ),
            "shard {other:?}: expected a fingerprint rejection, got {err}"
        );
    }

    // The matching shard resumes as an idempotent no-op.
    let resumed = explore_scenario_supervised(3, &sharded(Some(shard)), &resume_exec()).unwrap();
    assert!(resumed.universe.stats.resumed);
    assert_eq!(fingerprint(&resumed), fingerprint(&own));
    let _ = std::fs::remove_dir_all(&dir);
}
