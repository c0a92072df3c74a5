//! Property tests for the streaming certificate engine (§4.2):
//!
//! * Certificate-bucketed dedup must keep exactly the same isomorphism
//!   classes as the quadratic pairwise `dedup_isomorphic` baseline, on
//!   arbitrary labelled digraphs — including WL-hard inputs where the
//!   colour-refinement certificate collides and only the exact
//!   `find_isomorphism` fallback can split the bucket.
//! * Exploration is deterministic and *bit-identical* for every thread
//!   count: parallelism is an implementation detail, never a semantics.
//! * The class engine's §4.4 union over χ on adjacency rows equals the
//!   union of the manual reports' requirement sets on random component
//!   models and rules, cycles and policy flows included, and skips
//!   exactly the instances the manual method rejects as cyclic — on
//!   every thread count, after a mid-vector resume, across a sharded
//!   merge, and for a run cancelled mid-vector (over exactly the
//!   classes it returns).
//! * Shape-graph certificates of the 3- and 4-vehicle universes are
//!   pinned, so a change to colour refinement cannot silently move a
//!   certificate, and so are the `certificate hits` and `exact iso
//!   fallbacks` counts that `--stats` and fsabench report.

use fsa::core::checkpoint::ExploreCheckpoint;
use fsa::core::component_model::ComponentModel;
use fsa::core::explore::{
    compose_accepted, enumerate_instances, explore_universe, merge_accepted, BudgetPolicy,
    CheckpointSpec, ConnectionRule, ExecOptions, ExploreOptions, Lattice, ShardLog, ShardRange,
};
use fsa::core::manual::elicit;
use fsa::core::{FsaError, RequirementSet, SosInstance};
use fsa::exec::{CancelToken, Supervisor};
use fsa::graph::iso::{
    are_isomorphic, canonical_certificate, dedup_isomorphic, dedup_isomorphic_certified,
};
use fsa::graph::DiGraph;
use fsa::vanet::exploration::explore_scenario;
use proptest::prelude::*;

/// A batch of small random labelled digraphs drawn from `seed`, with a
/// deliberately tiny label alphabet so isomorphic duplicates (and near
/// misses) are common.
fn arb_graph_batch() -> impl Strategy<Value = Vec<DiGraph<String>>> {
    (1usize..12, any::<u64>()).prop_map(|(batch, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let labels = ["a", "b", "c"];
        (0..batch)
            .map(|_| {
                let n = 1 + (next() as usize) % 5;
                let mut g = DiGraph::new();
                let ids: Vec<_> = (0..n)
                    .map(|_| g.add_node(labels[(next() as usize) % labels.len()].to_owned()))
                    .collect();
                // Random edge set (density ~1/3), self-loops allowed:
                // the dedup machinery is label-and-shape only and must
                // not assume acyclicity.
                for &u in &ids {
                    for &v in &ids {
                        if next() % 3 == 0 {
                            g.add_edge(u, v);
                        }
                    }
                }
                g
            })
            .collect()
    })
}

/// A random universe drawn from `seed`: 1–3 component models (the first
/// with up to 2 copies, the others with 1) whose actions form a chain
/// from the first (input) to the last (output) action, plus random
/// forward shortcuts, some of them policy flows; and 1–3 connection
/// rules from some model's output to some model's input. Each rule is
/// joined by its reverse with probability 1/2, and a composition that
/// uses both directions between the same copies closes a cycle.
fn random_universe(seed: u64) -> (Vec<(ComponentModel, usize)>, Vec<ConnectionRule>) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let model_count = 1 + next() % 3;
    let mut models = Vec::with_capacity(model_count);
    let mut sizes = Vec::with_capacity(model_count);
    for m in 0..model_count {
        let mut model = ComponentModel::new(&format!("M{m}"), &format!("U{m}_i"));
        let k = 2 + next() % 3;
        let ids: Vec<usize> = (0..k)
            .map(|j| model.action(&format!("a{j}(M{m}_i,v)")))
            .collect();
        for pair in ids.windows(2) {
            model.flow(pair[0], pair[1]);
        }
        for from in 0..k {
            for to in from + 2..k {
                match next() % 4 {
                    0 => model.flow(ids[from], ids[to]),
                    1 => model.policy_flow(ids[from], ids[to]),
                    _ => {}
                }
            }
        }
        let copies = if m == 0 { 1 + next() % 2 } else { 1 };
        models.push((model, copies));
        sizes.push(k);
    }
    let mut rules = Vec::new();
    for _ in 0..1 + next() % 3 {
        let from = next() % model_count;
        let to = next() % model_count;
        rules.push(ConnectionRule::new(
            &format!("M{from}"),
            sizes[from] - 1,
            &format!("M{to}"),
            0,
        ));
        if next() % 2 == 0 {
            rules.push(ConnectionRule::new(
                &format!("M{to}"),
                sizes[to] - 1,
                &format!("M{from}"),
                0,
            ));
        }
    }
    (models, rules)
}

/// The options [`random_universe`]`(seed)` is explored with: connected
/// or not by the seed's lowest bit, truncated at 2 000 candidates.
fn random_options(seed: u64) -> ExploreOptions {
    ExploreOptions {
        require_connected: seed & 1 == 0,
        max_candidates: 2_000,
        on_budget: BudgetPolicy::Truncate,
        ..ExploreOptions::default()
    }
}

/// The instances of [`random_universe`]`(seed)` under
/// [`random_options`].
fn random_instances(seed: u64) -> Vec<SosInstance> {
    let (models, rules) = random_universe(seed);
    enumerate_instances(&models, &rules, &random_options(seed)).expect("random universe explores")
}

/// Interrupts the class engine on [`random_universe`]`(seed)` after 1,
/// 2, 4, … cancellation checks (one candidate per batch) until a run
/// completes. Each cancelled run's union must be the manual fold over
/// exactly the classes it returns; each run cancelled mid-vector is
/// resumed from the checkpoint it left, and the resumed union must be
/// `oracle` with `cyclic` loop skips. Returns how many runs were
/// cancelled mid-vector.
fn check_interrupted_unions(seed: u64, oracle: &RequirementSet, cyclic: usize) -> usize {
    let (models, rules) = random_universe(seed);
    let options = random_options(seed);
    let path = std::env::temp_dir().join(format!(
        "fsa_explore_props_union_{}_{:?}.ckpt",
        std::process::id(),
        std::thread::current().id()
    ));
    let mut mid_vector = 0;
    for k in (0..40).map(|i| 1u64 << i) {
        let exec = ExecOptions {
            supervisor: Supervisor::new().with_cancel(CancelToken::countdown(k)),
            batch: 1,
            // Only the checkpoint written at the cancellation point.
            checkpoint: Some(CheckpointSpec {
                path: path.clone(),
                every: usize::MAX,
                at_end: true,
            }),
            resume: None,
        };
        let partial = explore_universe(&models, &rules, &options, &exec).expect("explores");
        if !partial.stats.cancelled {
            break;
        }
        let returned = compose_accepted(&models, &rules, &partial.accepted()).expect("composes");
        let (fold, skipped) = manual_union(&returned).expect("manual union");
        assert_eq!(
            &partial.requirements, &fold,
            "seed {} cancelled at {}",
            seed, k
        );
        assert_eq!(
            partial.loop_skipped, skipped,
            "seed {} cancelled at {}",
            seed, k
        );
        if ExploreCheckpoint::read(&path)
            .expect("checkpoint")
            .pending_masks
            .is_empty()
        {
            continue;
        }
        mid_vector += 1;
        let resume = ExecOptions {
            resume: Some(path.clone()),
            ..ExecOptions::default()
        };
        let resumed = explore_universe(&models, &rules, &options, &resume).expect("resumes");
        assert_eq!(
            &resumed.requirements, oracle,
            "seed {} resumed from {}",
            seed, k
        );
        assert_eq!(
            resumed.loop_skipped, cyclic,
            "seed {} resumed from {}",
            seed, k
        );
    }
    let _ = std::fs::remove_file(&path);
    mid_vector
}

/// The §4.4 union as the fold of the manual reports' requirement sets
/// over the acyclic instances, and the number of cyclic instances.
fn manual_union(instances: &[SosInstance]) -> Result<(RequirementSet, usize), FsaError> {
    let mut union = RequirementSet::new();
    let mut cyclic = 0;
    for instance in instances {
        match elicit(instance) {
            Ok(report) => union = union.union(&report.requirement_set()),
            Err(FsaError::CircularDependency { .. }) => cyclic += 1,
            Err(e) => return Err(e),
        }
    }
    Ok((union, cyclic))
}

#[test]
fn random_universes_close_cycles_and_carry_policy_flows() {
    // The union differential below is only as strong as its inputs:
    // the generator must reach cyclic compositions, acyclic ones with
    // requirements, and instances with policy flows.
    let (mut cyclic, mut requirements, mut policy) = (0, 0, 0);
    for seed in 0..32u64 {
        let instances = random_instances(seed);
        let (union, skipped) = manual_union(&instances).expect("manual union");
        cyclic += skipped;
        requirements += union.len();
        policy += instances
            .iter()
            .filter(|i| {
                i.graph()
                    .edges()
                    .any(|(a, b)| i.flow_kind(a, b) == Some(fsa::core::instance::FlowKind::Policy))
            })
            .count();
    }
    assert!(cyclic > 0, "no cyclic composition drawn");
    assert!(requirements > 0, "no requirement elicited");
    assert!(policy > 0, "no policy flow drawn");
    // The interruption sweep of the union differential must reach
    // runs cancelled mid-vector.
    let mut mid_vector = 0;
    for seed in 0..8u64 {
        let (union, skipped) = manual_union(&random_instances(seed)).expect("manual union");
        mid_vector += check_interrupted_unions(seed, &union, skipped);
    }
    assert!(mid_vector > 0, "no run was cancelled mid-vector");
}

/// FNV-1a-64 over the little-endian bytes of `certificates`, in order.
fn certificate_digest(certificates: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in certificates {
        for byte in c.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// [`certificate_digest`] of the 3-vehicle universe's shape-graph
/// certificates, in instance order.
const PINNED_3V_DIGEST: u64 = 0x3e01_8487_cc60_3c7a;

/// [`certificate_digest`] of the 4-vehicle universe's shape-graph
/// certificates, in instance order.
const PINNED_4V_DIGEST: u64 = 0xb748_a4b3_85d4_096b;

#[test]
fn three_vehicle_certificates_are_pinned() {
    // Certificates decide which candidates share a bucket, so they fix
    // the `certificate hits` and `exact iso fallbacks` counts — the
    // deterministic counters `--stats` and fsabench report — and they
    // are carried in checkpoints, coordinator state files and shard
    // results. A change to colour refinement or to the certificate trace
    // moves this digest: it must keep the bucket partition (the counts
    // below) and come with new versions of those three formats.
    let explored = explore_scenario(3, &ExploreOptions::default()).expect("explores");
    assert_eq!(explored.instances.len(), 103);
    let digest = certificate_digest(
        explored
            .instances
            .iter()
            .map(|i| canonical_certificate(&i.shape_graph())),
    );
    assert_eq!(digest, PINNED_3V_DIGEST, "digest {digest:#018x}");
    // No bucket is hit at 3 vehicles: every candidate's certificate is
    // new, and every connected candidate founds a class.
    let stats = &explored.universe.stats;
    assert_eq!((stats.certificate_hits, stats.exact_iso_fallbacks), (0, 0));
    assert_eq!(stats.classes, stats.candidates - stats.disconnected_skipped);
    assert_eq!((stats.candidates, stats.disconnected_skipped), (137, 34));
}

#[test]
fn four_vehicle_certificates_are_pinned() {
    // As above, at the scale whose `exact iso fallbacks 9` CI checks;
    // the digest must not depend on the thread count either.
    for threads in [1usize, 2] {
        let options = ExploreOptions {
            threads,
            ..ExploreOptions::default()
        };
        let explored = explore_scenario(4, &options).expect("explores");
        assert_eq!(explored.instances.len(), 3015, "threads {threads}");
        let digest = certificate_digest(
            explored
                .instances
                .iter()
                .map(|i| canonical_certificate(&i.shape_graph())),
        );
        assert_eq!(
            digest, PINNED_4V_DIGEST,
            "threads {threads}: digest {digest:#018x}"
        );
        // Nine candidates hit a bucket, and none of the nine exact
        // fallbacks finds a duplicate (3 399 − 384 = 3 015): all nine
        // are 1-WL collisions between non-isomorphic compositions.
        let stats = &explored.universe.stats;
        assert_eq!(
            (stats.certificate_hits, stats.exact_iso_fallbacks),
            (9, 9),
            "threads {threads}"
        );
        assert_eq!(stats.classes, stats.candidates - stats.disconnected_skipped);
        assert_eq!((stats.candidates, stats.disconnected_skipped), (3399, 384));
    }
}

/// Multiset equality of isomorphism classes: same length, and a
/// bijection between the two lists under graph isomorphism.
fn same_classes(a: &[DiGraph<String>], b: &[DiGraph<String>]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut used = vec![false; b.len()];
    'outer: for g in a {
        for (i, h) in b.iter().enumerate() {
            if !used[i] && are_isomorphic(g, h) {
                used[i] = true;
                continue 'outer;
            }
        }
        return false;
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn certificate_is_isomorphism_invariant_under_relabelling(batch in arb_graph_batch()) {
        for g in &batch {
            // Reverse node insertion order: an isomorphic copy with a
            // different adjacency layout.
            let n = g.node_count();
            let mut h = DiGraph::new();
            let ids: Vec<_> = g
                .node_ids()
                .rev()
                .map(|id| h.add_node(g.payload(id).clone()))
                .collect();
            for e in g.edges() {
                h.add_edge(ids[n - 1 - e.0.index()], ids[n - 1 - e.1.index()]);
            }
            prop_assert_eq!(canonical_certificate(g), canonical_certificate(&h));
        }
    }

    #[test]
    fn certified_dedup_matches_pairwise_baseline(batch in arb_graph_batch()) {
        let pairwise = dedup_isomorphic(batch.clone());
        let certified = dedup_isomorphic_certified(batch.clone());
        prop_assert_eq!(pairwise.len(), certified.len());
        prop_assert!(same_classes(&pairwise, &certified));
    }

    #[test]
    fn scenario_exploration_is_bit_identical_across_threads(max_vehicles in 1usize..4) {
        let seq = explore_scenario(max_vehicles, &ExploreOptions::default()).expect("sequential");
        for threads in [2usize, 4, 8] {
            let par = explore_scenario(
                max_vehicles,
                &ExploreOptions { threads, ..Default::default() },
            )
            .expect("parallel");
            prop_assert_eq!(par.instances.len(), seq.instances.len(), "threads {}", threads);
            for (p, s) in par.instances.iter().zip(seq.instances.iter()) {
                prop_assert_eq!(p.name(), s.name(), "threads {}", threads);
                prop_assert_eq!(
                    canonical_certificate(&p.shape_graph()),
                    canonical_certificate(&s.shape_graph()),
                    "threads {}", threads
                );
                let pa: Vec<String> =
                    p.graph().nodes().map(|(_, a)| a.to_string()).collect();
                let sa: Vec<String> =
                    s.graph().nodes().map(|(_, a)| a.to_string()).collect();
                prop_assert_eq!(pa, sa, "threads {}", threads);
            }
            // Unions (and the skipped-cycle count) agree for every
            // worker count.
            let (par_union, seq_union) = (&par.universe, &seq.universe);
            prop_assert_eq!(par_union.loop_skipped, seq_union.loop_skipped, "threads {}", threads);
            let pu: Vec<String> =
                par_union.requirements.iter().map(ToString::to_string).collect();
            let su: Vec<String> =
                seq_union.requirements.iter().map(ToString::to_string).collect();
            prop_assert_eq!(pu, su, "threads {}", threads);
            // Engine counters are deterministic too — the parallel scan
            // partitions the same canonical subset stream.
            prop_assert_eq!(par.universe.stats.candidates, seq.universe.stats.candidates);
            prop_assert_eq!(par.universe.stats.orbits_skipped, seq.universe.stats.orbits_skipped);
            prop_assert_eq!(par.universe.stats.classes, seq.universe.stats.classes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chi_pair_union_matches_the_manual_report_fold(seed in any::<u64>()) {
        let instances = random_instances(seed);
        let (oracle, cyclic) = manual_union(&instances).expect("manual union");
        let (models, rules) = random_universe(seed);
        for threads in [1usize, 2, 3] {
            // The class engine's union, on adjacency rows.
            let options = ExploreOptions { threads, ..random_options(seed) };
            let universe = explore_universe(&models, &rules, &options, &ExecOptions::default())
                .expect("explores");
            prop_assert_eq!(&universe.requirements, &oracle, "seed {} threads {}", seed, threads);
            prop_assert_eq!(universe.loop_skipped, cyclic, "seed {} threads {}", seed, threads);
        }
        check_interrupted_unions(seed, &oracle, cyclic);
        // A sharded merge (shards cannot truncate, so only universes
        // within the budget).
        let options = random_options(seed);
        let golden = explore_universe(&models, &rules, &options, &ExecOptions::default())
            .expect("explores");
        if !golden.stats.truncated {
            let positions = Lattice::new(&models, &rules).expect("lattice").positions();
            let parts: Vec<_> = ShardRange::partition(positions, 3)
                .into_iter()
                .map(|range| {
                    let shard = ExploreOptions {
                        shard: Some(range),
                        on_budget: BudgetPolicy::Error,
                        ..options.clone()
                    };
                    let part = explore_universe(&models, &rules, &shard, &ExecOptions::default())
                        .expect("shard explores");
                    (part.accepted(), part.unions)
                })
                .collect();
            // The shards ship their χ unions, as distributed workers do.
            let logs: Vec<ShardLog> = parts
                .iter()
                .map(|(accepted, unions)| ShardLog {
                    accepted,
                    unions: Some(unions),
                })
                .collect();
            let merged = merge_accepted(&models, &rules, &logs).expect("merges").universe;
            prop_assert_eq!(&merged.requirements, &oracle, "seed {} merged", seed);
            prop_assert_eq!(merged.loop_skipped, cyclic, "seed {} merged", seed);
        }
    }
}

/// One model `A` of at most two copies, with `outputs` output and
/// `inputs` input actions and a connection rule from every output to
/// every input: one copy has no candidate flow, two have
/// `2 · outputs · inputs`, permuted by swapping the copies.
fn wide_universe(
    outputs: usize,
    inputs: usize,
) -> (Vec<(ComponentModel, usize)>, Vec<ConnectionRule>) {
    let mut model = ComponentModel::new("A", "U_i");
    let ins: Vec<usize> = (0..inputs)
        .map(|k| model.action(&format!("in{k}(A_i,v)")))
        .collect();
    let outs: Vec<usize> = (0..outputs)
        .map(|k| model.action(&format!("out{k}(A_i,v)")))
        .collect();
    for (&i, &o) in ins.iter().zip(outs.iter().cycle()) {
        model.flow(i, o);
    }
    let rules = outs
        .iter()
        .flat_map(|&o| {
            ins.iter()
                .map(move |&i| ConnectionRule::new("A", o, "A", i))
        })
        .collect();
    (vec![(model, 2)], rules)
}

#[test]
fn a_thirty_flow_vector_stops_at_the_budget_not_at_a_flow_cap() {
    // Two copies with 30 candidate flows: 2^30 subsets, of which only
    // the orbit minima the budget admits are generated.
    let (models, rules) = wide_universe(3, 5);
    let truncating = ExploreOptions {
        max_candidates: 200,
        on_budget: BudgetPolicy::Truncate,
        ..ExploreOptions::default()
    };
    let universe =
        explore_universe(&models, &rules, &truncating, &ExecOptions::default()).expect("explores");
    let stats = &universe.stats;
    assert!(stats.truncated);
    assert_eq!(
        (
            stats.multiplicity_vectors,
            stats.candidates,
            stats.subsets_total
        ),
        (2, 200, 1 + (1 << 30))
    );
    // The one-copy vector has one candidate. The two-copy vector's scan
    // stops at its 200th minimum, mask 319, and counts the 120 masks
    // below it that the copy swap maps lower.
    assert_eq!(stats.orbits_skipped, 120);
    assert!(universe
        .classes
        .iter()
        .all(|c| c.ordinal < 2 && c.mask < 1 << 30));
    // Under the failing policy the budget, not the flow count, ends it.
    let failing = ExploreOptions {
        max_candidates: 1_000_000,
        ..ExploreOptions::default()
    };
    let err = explore_universe(&models, &rules, &failing, &ExecOptions::default()).unwrap_err();
    assert_eq!(err, FsaError::BudgetExceeded { limit: 1_000_000 });
    // A mask has 63 bits: 64 flows are a typed error.
    let (models, rules) = wide_universe(4, 8);
    let err = explore_universe(&models, &rules, &failing, &ExecOptions::default()).unwrap_err();
    assert!(
        matches!(&err, FsaError::InvalidComponentModel { reason } if reason.contains("too many candidate external flows")),
        "{err:?}"
    );
}
