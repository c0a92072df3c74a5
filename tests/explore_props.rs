//! Property tests for the streaming certificate engine (§4.2):
//!
//! * Certificate-bucketed dedup must keep exactly the same isomorphism
//!   classes as the quadratic pairwise `dedup_isomorphic` baseline, on
//!   arbitrary labelled digraphs — including WL-hard inputs where the
//!   colour-refinement certificate collides and only the exact
//!   `find_isomorphism` fallback can split the bucket.
//! * Exploration is deterministic and *bit-identical* for every thread
//!   count: parallelism is an implementation detail, never a semantics.

use fsa::core::explore::{union_requirements, ExploreOptions};
use fsa::exec::Supervisor;
use fsa::graph::iso::{
    are_isomorphic, canonical_certificate, dedup_isomorphic, dedup_isomorphic_certified,
    dedup_isomorphic_certified_parallel,
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
        for threads in [1usize, 2, 4, 8] {
            let parallel = dedup_isomorphic_certified_parallel(batch.clone(), threads);
            // The parallel path is bit-identical to the sequential
            // certified path (same representatives, same order), not
            // merely class-equal.
            prop_assert_eq!(parallel.len(), certified.len(), "threads {}", threads);
            for (p, c) in parallel.iter().zip(certified.iter()) {
                let pn: Vec<_> = p.nodes().map(|(_, l)| l.clone()).collect();
                let cn: Vec<_> = c.nodes().map(|(_, l)| l.clone()).collect();
                prop_assert_eq!(pn, cn, "threads {}", threads);
                let pe: Vec<_> = p.edges().map(|e| (e.0, e.1)).collect();
                let ce: Vec<_> = c.edges().map(|e| (e.0, e.1)).collect();
                prop_assert_eq!(pe, ce, "threads {}", threads);
            }
        }
    }

    #[test]
    fn scenario_exploration_is_bit_identical_across_threads(max_vehicles in 1usize..4) {
        let seq = explore_scenario(max_vehicles, &ExploreOptions::default()).expect("sequential");
        let seq_union =
            union_requirements(&seq.instances, 1, &Supervisor::new()).expect("union");
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
            // worker count on both sides.
            let par_union =
                union_requirements(&par.instances, threads, &Supervisor::new()).expect("union");
            prop_assert!(par_union.is_complete(), "threads {}", threads);
            prop_assert_eq!(par_union.loop_skipped, seq_union.loop_skipped, "threads {}", threads);
            let pu: Vec<String> =
                par_union.requirements.iter().map(ToString::to_string).collect();
            let su: Vec<String> =
                seq_union.requirements.iter().map(ToString::to_string).collect();
            prop_assert_eq!(pu, su, "threads {}", threads);
            // Engine counters are deterministic too — the parallel scan
            // partitions the same canonical subset stream.
            prop_assert_eq!(par.stats.candidates, seq.stats.candidates);
            prop_assert_eq!(par.stats.orbits_skipped, seq.stats.orbits_skipped);
            prop_assert_eq!(par.stats.classes, seq.stats.classes);
        }
    }
}
