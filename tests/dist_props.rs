//! Property tests for distributed sharding (the `fsa_dist` tentpole):
//!
//! * Shard partitioning is *complete*: for any lattice size and any
//!   shard count, the ranges tile `[0, total)` contiguously — no
//!   position is lost, none is enumerated twice.
//! * The distributed pipeline is *bit-identical*: running every shard
//!   independently through the class engine, round-tripping each
//!   result through the `fsa-dist/v3` `shard-result` frame, and
//!   merging the accepted logs in canonical order under their carried
//!   certificates reproduces the unsharded exploration exactly —
//!   classes, requirement union, accepted log, the summed scan counters
//!   and the `Σ shard hits + merge duplicates = single-process hits`
//!   identity — for position cuts that split vectors mid-mask.

use fsa::core::checkpoint::CheckpointCounters;
use fsa::core::explore::{
    explore_universe, merge_accepted, ExecOptions, ExploreOptions, Lattice, ShardRange,
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
        // Never more shards than positions: the coordinator finds a
        // shard by its range, so two equal (empty) ranges would be one
        // shard.
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
        // Balance: contiguous ranges differ by at most one position.
        let lens: Vec<u64> = ranges.iter().map(ShardRange::len).collect();
        let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced: {:?}", lens);
    }
}

/// The cut points of a shard layout: an even partition into `shards`,
/// the last vector cut into `last_pieces` equal pieces, and one cut
/// drawn from `seed` — so shards start and end mid-vector.
fn cuts(lattice: &Lattice, shards: usize, last_pieces: u64, seed: u64) -> Vec<ShardRange> {
    let total = lattice.positions();
    let last = lattice
        .position(lattice.vectors() - 1, 0)
        .expect("the last vector has a mask 0");
    let mut cuts: Vec<u64> = ShardRange::partition(total, shards)
        .iter()
        .map(|r| r.start)
        .chain((1..last_pieces).map(|k| last + k * (total - last) / last_pieces))
        .chain([seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) % total, total])
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2)
        .map(|w| ShardRange::new(w[0], w[1]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random universes × random position cuts: shard → frame
    /// round-trip → merge is bit-identical to the unsharded run.
    #[test]
    fn sharded_merge_is_bit_identical_to_unsharded(
        max_vehicles in 1usize..4,
        shards in 1usize..13,
        last_pieces in 1u64..9,
        seed in any::<u64>(),
        require_connected in any::<bool>(),
    ) {
        let (models, rules) = scenario_universe(max_vehicles);
        let options = ExploreOptions {
            require_connected,
            ..ExploreOptions::default()
        };
        let golden = explore_universe(&models, &rules, &options, &ExecOptions::default()).unwrap();
        let lattice = Lattice::new(&models, &rules).unwrap();
        let ranges = cuts(&lattice, shards, last_pieces, seed);
        let mid_vector = ranges
            .iter()
            .filter(|r| (0..lattice.vectors()).all(|o| lattice.position(o, 0) != Some(r.start)))
            .count();
        prop_assert!(last_pieces == 1 || mid_vector > 0, "{:?}", ranges);

        let mut all_accepted = Vec::new();
        let mut sum = CheckpointCounters::default();
        for range in ranges {
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
                    multiplicity_vectors: part.stats.multiplicity_vectors,
                    subsets_total: part.stats.subsets_total,
                    orbits_skipped: part.stats.orbits_skipped,
                    candidates: part.stats.candidates,
                    certificate_hits: part.stats.certificate_hits,
                    ..CheckpointCounters::default()
                },
            };
            let decoded = decode_to_coordinator(&encode_to_coordinator(&frame)).unwrap();
            prop_assert_eq!(&decoded, &frame);
            let ToCoordinator::ShardResult { accepted, counters: c, .. } = decoded else {
                prop_assert!(false, "frame round-trip changed the type");
                unreachable!()
            };
            all_accepted.extend(accepted);
            sum.multiplicity_vectors += c.multiplicity_vectors;
            sum.subsets_total += c.subsets_total;
            sum.orbits_skipped += c.orbits_skipped;
            sum.candidates += c.candidates;
            sum.certificate_hits += c.certificate_hits;
        }

        let merged = merge_accepted(&models, &rules, &all_accepted).unwrap();
        prop_assert_eq!(&merged.universe.classes, &golden.classes);
        prop_assert_eq!(&merged.universe.requirements, &golden.requirements);
        prop_assert_eq!(merged.universe.loop_skipped, golden.loop_skipped);
        prop_assert_eq!(merged.universe.accepted(), golden.accepted());
        let g = &golden.stats;
        prop_assert_eq!(sum.multiplicity_vectors, g.multiplicity_vectors);
        prop_assert_eq!(sum.subsets_total, g.subsets_total);
        prop_assert_eq!(sum.orbits_skipped, g.orbits_skipped);
        prop_assert_eq!(sum.candidates, g.candidates);
        prop_assert_eq!(sum.certificate_hits + merged.duplicates, g.certificate_hits);
    }
}
