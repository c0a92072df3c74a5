//! Property tests for distributed sharding (the `fsa_dist` tentpole):
//!
//! * Shard partitioning is *complete*: for any universe size and any
//!   shard count, the ranges tile `[0, total)` contiguously — no
//!   ordinal is lost, none is enumerated twice.
//! * The distributed pipeline is *bit-identical*: running every shard
//!   independently through the class engine, round-tripping each
//!   result through the `fsa-dist/v1` `shard-result` frame, and
//!   merging the accepted logs in canonical order reproduces the
//!   unsharded exploration exactly — classes, requirement union,
//!   accepted log, and the
//!   `Σ shard hits + merge duplicates = single-process hits` identity.

use fsa::core::checkpoint::CheckpointCounters;
use fsa::core::explore::{
    explore_universe, merge_accepted, vector_space, ExecOptions, ExploreOptions, ShardRange,
};
use fsa::dist::proto::{decode_to_coordinator, encode_to_coordinator, ToCoordinator};
use fsa::vanet::exploration::scenario_universe;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Partition completeness on arbitrary (total, shards) pairs —
    /// independent of any universe.
    #[test]
    fn shard_partition_tiles_the_ordinal_space(total in 0u64..10_000, shards in 0usize..64) {
        let ranges = ShardRange::partition(total, shards);
        prop_assert!(!ranges.is_empty());
        // Never more shards than ordinals: the coordinator finds a shard
        // by its range, so two equal (empty) ranges would be one shard.
        prop_assert_eq!(ranges.len(), shards.clamp(1, total.max(1) as usize));
        if total > 0 {
            prop_assert!(ranges.iter().all(|r| !r.is_empty()), "empty range: {:?}", ranges);
        }
        prop_assert_eq!(ranges[0].start, 0);
        prop_assert_eq!(ranges[ranges.len() - 1].end, total);
        for pair in ranges.windows(2) {
            prop_assert_eq!(pair[0].end, pair[1].start, "gap or overlap");
        }
        let sum: u64 = ranges.iter().map(ShardRange::len).sum();
        prop_assert_eq!(sum, total);
        // Balance: contiguous ranges differ by at most one ordinal.
        let lens: Vec<u64> = ranges.iter().map(ShardRange::len).collect();
        let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced: {:?}", lens);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random universes × random shard counts: shard → frame
    /// round-trip → merge is bit-identical to the unsharded run.
    #[test]
    fn sharded_merge_is_bit_identical_to_unsharded(
        max_vehicles in 1usize..4,
        shards in 1usize..13,
        require_connected in any::<bool>(),
    ) {
        let (models, rules) = scenario_universe(max_vehicles);
        let options = ExploreOptions {
            require_connected,
            ..ExploreOptions::default()
        };
        let golden = explore_universe(&models, &rules, &options, &ExecOptions::default()).unwrap();

        let total = vector_space(&models);
        let mut all_accepted = Vec::new();
        let mut hits = 0usize;
        let mut candidates = 0usize;
        for range in ShardRange::partition(total, shards) {
            let shard_options = ExploreOptions {
                shard: Some(range),
                ..options.clone()
            };
            let part =
                explore_universe(&models, &rules, &shard_options, &ExecOptions::default()).unwrap();
            // Ship the shard through the wire frame it would really
            // travel in.
            let frame = ToCoordinator::ShardResult {
                start: range.start,
                end: range.end,
                accepted: part.accepted(),
                counters: CheckpointCounters {
                    certificate_hits: part.stats.certificate_hits,
                    candidates: part.stats.candidates,
                    ..CheckpointCounters::default()
                },
            };
            let decoded = decode_to_coordinator(&encode_to_coordinator(&frame)).unwrap();
            let ToCoordinator::ShardResult { accepted, counters, .. } = decoded else {
                prop_assert!(false, "frame round-trip changed the type");
                unreachable!()
            };
            prop_assert_eq!(&accepted, &part.accepted());
            all_accepted.extend(accepted);
            hits += counters.certificate_hits;
            candidates += counters.candidates;
        }

        let merged = merge_accepted(&models, &rules, &all_accepted).unwrap();
        prop_assert_eq!(&merged.universe.classes, &golden.classes);
        prop_assert_eq!(&merged.universe.requirements, &golden.requirements);
        prop_assert_eq!(merged.universe.loop_skipped, golden.loop_skipped);
        prop_assert_eq!(merged.universe.accepted(), golden.accepted());
        prop_assert_eq!(candidates, golden.stats.candidates);
        prop_assert_eq!(hits + merged.duplicates, golden.stats.certificate_hits);
    }
}
