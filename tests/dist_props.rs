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
//! * The shipped χ unions are an optimisation only: a merge with every
//!   shard's unions equals one where some or all shards dropped theirs,
//!   cross-shard duplicates included.

use fsa::core::checkpoint::CheckpointCounters;
use fsa::core::component_model::ComponentModel;
use fsa::core::explore::{
    explore_universe, merge_accepted, Accepted, ConnectionRule, ExecOptions, ExploreOptions,
    Lattice, MergedExploration, ShardLog, ShardRange, VectorChi,
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
    /// round-trip → merge is bit-identical to the unsharded run, and to
    /// the merge where the shards that `ship` does not name dropped
    /// their χ unions.
    #[test]
    fn sharded_merge_is_bit_identical_to_unsharded(
        max_vehicles in 1usize..4,
        shards in 1usize..13,
        last_pieces in 1u64..9,
        seed in any::<u64>(),
        require_connected in any::<bool>(),
        ship in any::<u64>(),
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

        let mut parts = Vec::new();
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
                chi: Some(part.unions),
            };
            let decoded = decode_to_coordinator(&encode_to_coordinator(&frame)).unwrap();
            prop_assert_eq!(&decoded, &frame);
            let ToCoordinator::ShardResult { accepted, counters: c, chi, .. } = decoded else {
                prop_assert!(false, "frame round-trip changed the type");
                unreachable!()
            };
            parts.push((accepted, chi));
            sum.multiplicity_vectors += c.multiplicity_vectors;
            sum.subsets_total += c.subsets_total;
            sum.orbits_skipped += c.orbits_skipped;
            sum.candidates += c.candidates;
            sum.certificate_hits += c.certificate_hits;
        }

        let merged = merge_shipping(&models, &rules, &parts, u64::MAX);
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
        for ship in [ship, 0] {
            let other = merge_shipping(&models, &rules, &parts, ship);
            prop_assert!(same_merge(&merged, &other), "ship {:#x}", ship);
        }
    }
}

/// Merges per-shard `(accepted, unions)` pairs, shard `i` shipping its
/// unions only when bit `i % 64` of `ship` is set.
fn merge_shipping(
    models: &[(ComponentModel, usize)],
    rules: &[ConnectionRule],
    parts: &[(Vec<Accepted>, Option<Vec<VectorChi>>)],
    ship: u64,
) -> MergedExploration {
    let logs: Vec<ShardLog> = parts
        .iter()
        .enumerate()
        .map(|(i, (accepted, unions))| ShardLog {
            accepted,
            unions: unions.as_deref().filter(|_| ship >> (i % 64) & 1 == 1),
        })
        .collect();
    merge_accepted(models, rules, &logs).unwrap()
}

/// Two merges agree on everything they report.
fn same_merge(a: &MergedExploration, b: &MergedExploration) -> bool {
    let (x, y) = (&a.universe, &b.universe);
    x.classes == y.classes
        && x.requirements == y.requirements
        && x.loop_skipped == y.loop_skipped
        && x.unions == y.unions
        && a.duplicates == b.duplicates
        && (x.stats.certificate_hits, x.stats.exact_iso_fallbacks)
            == (y.stats.certificate_hits, y.stats.exact_iso_fallbacks)
}

/// Twin models `A` and `B` with the same action templates, so a
/// composition and its copy with the roles of `A` and `B` swapped are
/// isomorphic but lie in different vectors: cuts between vectors give
/// cross-shard duplicates (the scenario universes have none up to four
/// vehicles). `seed` picks the multiplicities and the connection rules.
fn twin_universe(seed: u64) -> (Vec<(ComponentModel, usize)>, Vec<ConnectionRule>) {
    let model = |name: &str| {
        let mut m = ComponentModel::new(name, "U_i");
        let rec = m.action("rec(C_i,v)");
        let send = m.action("send(C_i,v)");
        m.flow(rec, send);
        m
    };
    let models = vec![
        (model("A"), 1 + (seed & 1) as usize),
        (model("B"), 1 + (seed >> 1 & 1) as usize),
    ];
    let rules = [("A", "B"), ("B", "A"), ("A", "A"), ("B", "B")]
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| i < 2 || seed >> (2 + i) & 1 == 1)
        .map(|(_, (from, to))| ConnectionRule::new(from, 1, to, 0))
        .collect();
    (models, rules)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Twin universes cut at every vector boundary and at random
    /// positions: a merge with every shard's χ unions equals one where
    /// the shards that `ship` does not name dropped theirs, and both
    /// equal the unsharded run.
    #[test]
    fn a_merge_with_unions_equals_one_without(
        universe in any::<u64>(),
        seed in any::<u64>(),
        ship in any::<u64>(),
        require_connected in any::<bool>(),
    ) {
        let (models, rules) = twin_universe(universe);
        let options = ExploreOptions {
            require_connected,
            ..ExploreOptions::default()
        };
        let golden = explore_universe(&models, &rules, &options, &ExecOptions::default()).unwrap();
        let lattice = Lattice::new(&models, &rules).unwrap();
        let total = lattice.positions();
        let mut cuts: Vec<u64> = (0..lattice.vectors())
            .filter_map(|o| lattice.position(o, 0))
            .chain((1..4).map(|k| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(k * 16) % total))
            .chain([total])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let parts: Vec<(Vec<Accepted>, Option<Vec<VectorChi>>)> = cuts
            .windows(2)
            .map(|w| {
                let shard = ExploreOptions {
                    shard: Some(ShardRange::new(w[0], w[1])),
                    ..options.clone()
                };
                let part = explore_universe(&models, &rules, &shard, &ExecOptions::default()).unwrap();
                (part.accepted(), Some(part.unions))
            })
            .collect();
        let shipped = merge_shipping(&models, &rules, &parts, u64::MAX);
        prop_assert!(shipped.duplicates > 0, "no cross-shard duplicate");
        prop_assert_eq!(&shipped.universe.classes, &golden.classes);
        prop_assert_eq!(&shipped.universe.requirements, &golden.requirements);
        prop_assert_eq!(shipped.universe.loop_skipped, golden.loop_skipped);
        for ship in [ship, 0] {
            let other = merge_shipping(&models, &rules, &parts, ship);
            prop_assert!(same_merge(&shipped, &other), "ship {:#x}", ship);
        }
    }
}
