//! Property tests for the graph substrate: closure algorithms, partial
//! orders and isomorphism.

use fsa::graph::closure::{closure_dag, closure_warshall, reflexive_transitive_closure};
use fsa::graph::iso::are_isomorphic;
use fsa::graph::order::PartialOrder;
use fsa::graph::topo::{is_acyclic, topological_sort};
use fsa::graph::DiGraph;
use proptest::prelude::*;

/// A random digraph (possibly cyclic) over `n` nodes.
fn arb_graph() -> impl Strategy<Value = DiGraph<usize>> {
    (1usize..10, any::<u64>(), 0u64..60).prop_map(|(n, seed, density)| {
        let mut g = DiGraph::new();
        let nodes: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for i in 0..n {
            for j in 0..n {
                if i != j && next() % 100 < density {
                    g.add_edge(nodes[i], nodes[j]);
                }
            }
        }
        g
    })
}

/// A random DAG (edges forward only).
fn arb_dag() -> impl Strategy<Value = DiGraph<usize>> {
    arb_graph().prop_map(|g| {
        let mut dag = DiGraph::new();
        for (_, p) in g.nodes() {
            dag.add_node(*p);
        }
        for (a, b) in g.edges() {
            if a < b {
                dag.add_edge(a, b);
            }
        }
        dag
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dag_closure_equals_warshall(g in arb_graph()) {
        prop_assert_eq!(closure_dag(&g), closure_warshall(&g));
    }

    #[test]
    fn closure_is_transitive_and_monotone(g in arb_graph()) {
        let r = reflexive_transitive_closure(&g);
        prop_assert!(r.is_reflexive());
        prop_assert!(r.is_transitive());
        for (a, b) in g.edges() {
            prop_assert!(r.contains(a, b), "closure must contain every edge");
        }
    }

    #[test]
    fn dag_closure_is_partial_order(g in arb_dag()) {
        let r = reflexive_transitive_closure(&g);
        let order = PartialOrder::try_new(r).expect("DAG closure is a partial order");
        // Minimal/maximal elements are exactly sources/sinks.
        prop_assert_eq!(order.minimal_elements(), g.sources());
        prop_assert_eq!(order.maximal_elements(), g.sinks());
    }

    #[test]
    fn chi_is_subset_of_min_times_max(g in arb_dag()) {
        let order = PartialOrder::try_new(reflexive_transitive_closure(&g)).unwrap();
        let minima = order.minimal_elements();
        let maxima = order.maximal_elements();
        for (x, y) in order.min_max_restriction() {
            prop_assert!(minima.contains(&x));
            prop_assert!(maxima.contains(&y));
            prop_assert!(order.le(x, y));
            prop_assert!(x != y);
        }
    }

    #[test]
    fn topological_order_respects_edges(g in arb_dag()) {
        let order = topological_sort(&g).expect("DAG");
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        for (a, b) in g.edges() {
            prop_assert!(pos[&a] < pos[&b]);
        }
    }

    #[test]
    fn cycle_detection_agrees_with_scc(g in arb_graph()) {
        let scc = fsa::graph::scc::tarjan_scc(&g);
        prop_assert_eq!(is_acyclic(&g), scc.is_acyclic(&g));
    }

    #[test]
    fn isomorphism_invariant_under_relabelling(g in arb_dag()) {
        // Re-insert the nodes in reverse order: isomorphic by construction.
        let n = g.node_count();
        let mut h = DiGraph::new();
        let nodes: Vec<_> = (0..n).rev().map(|i| h.add_node(*g.payload(fsa::graph::NodeId::new(i)))).collect();
        // node i of g corresponds to nodes[n-1-i] of h
        for (a, b) in g.edges() {
            h.add_edge(nodes[n - 1 - a.index()], nodes[n - 1 - b.index()]);
        }
        prop_assert!(are_isomorphic(&g, &h));
    }

    #[test]
    fn isomorphism_detects_edge_count_difference(g in arb_dag()) {
        if g.node_count() >= 2 && g.edge_count() > 0 {
            // Drop one edge: never isomorphic (labels are distinct ints,
            // so any mapping is the identity).
            let mut h = DiGraph::new();
            for (_, p) in g.nodes() {
                h.add_node(*p);
            }
            let edges: Vec<_> = g.edges().collect();
            for &(a, b) in edges.iter().skip(1) {
                h.add_edge(a, b);
            }
            prop_assert!(!are_isomorphic(&g, &h));
        }
    }

    #[test]
    fn shortest_path_is_minimal(g in arb_dag()) {
        use fsa::graph::path::{all_simple_paths, shortest_path};
        let nodes: Vec<_> = g.node_ids().collect();
        for &a in nodes.iter().take(3) {
            for &b in nodes.iter().rev().take(3) {
                let sp = shortest_path(&g, a, b);
                let all = all_simple_paths(&g, a, b, 200);
                match sp {
                    None => prop_assert!(all.is_empty()),
                    Some(p) => {
                        prop_assert!(!all.is_empty());
                        let min_len = all.iter().map(Vec::len).min().unwrap();
                        prop_assert_eq!(p.len(), min_len);
                        // The path is a real path.
                        for w in p.windows(2) {
                            prop_assert!(g.has_edge(w[0], w[1]));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unavoidable_nodes_lie_on_every_path(g in arb_dag()) {
        use fsa::graph::path::{all_simple_paths, unavoidable_intermediates};
        let nodes: Vec<_> = g.node_ids().collect();
        for &a in nodes.iter().take(2) {
            for &b in nodes.iter().rev().take(2) {
                if a == b {
                    continue;
                }
                let mids = unavoidable_intermediates(&g, a, b);
                let all = all_simple_paths(&g, a, b, 500);
                for m in &mids {
                    prop_assert!(
                        all.iter().all(|p| p.contains(m)),
                        "unavoidable {:?} missing from some path", m
                    );
                }
                // Conversely: interior nodes on *all* paths are listed.
                if !all.is_empty() {
                    for &candidate in nodes.iter() {
                        if candidate == a || candidate == b {
                            continue;
                        }
                        let on_all = all.iter().all(|p| p.contains(&candidate));
                        prop_assert_eq!(
                            mids.contains(&candidate),
                            on_all,
                            "candidate {:?}", candidate
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hasse_covers_generate_same_order(g in arb_dag()) {
        // The closure of the covering relation equals the original order.
        let order = PartialOrder::try_new(reflexive_transitive_closure(&g)).unwrap();
        let mut hasse = DiGraph::new();
        for (_, p) in g.nodes() {
            hasse.add_node(*p);
        }
        for (a, b) in order.covers() {
            hasse.add_edge(a, b);
        }
        let rebuilt = reflexive_transitive_closure(&hasse);
        prop_assert_eq!(rebuilt, order.relation().clone());
    }
}

/// An SoS instance drawn from `seed`: 1–70 actions (1–2 words per
/// adjacency row) over three stakeholders, with random functional and
/// policy flows, self-loops and back edges, so cyclic and acyclic
/// compositions both occur.
fn random_flow_instance(seed: u64) -> fsa::core::SosInstance {
    random_flow_instance_of(seed, 1..=70)
}

/// [`random_flow_instance`] with its action count drawn from `sizes`.
/// Half the graphs have no back edge, and a self-loop is rare, so DAGs
/// occur as well as cycles; sparse graphs leave actions isolated.
fn random_flow_instance_of(
    seed: u64,
    sizes: std::ops::RangeInclusive<usize>,
) -> fsa::core::SosInstance {
    use fsa::core::action::Action;
    use fsa::core::instance::SosInstanceBuilder;
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let n = sizes.start() + (next() % (sizes.end() - sizes.start() + 1) as u64) as usize;
    let mut b = SosInstanceBuilder::new("random");
    let ids: Vec<_> = (0..n)
        .map(|i| {
            b.action(
                Action::parse(&format!("a{i}(C_{},v)", i % 5)),
                &format!("P_{}", i % 3),
            )
        })
        .collect();
    // Expected out-degree 1/4 to 3; back edges in half the graphs.
    let density = 1 + next() % 12;
    let back_edges = next() % 2 == 0;
    for (i, &x) in ids.iter().enumerate() {
        for (j, &y) in ids.iter().enumerate() {
            if next() % (4 * n as u64) >= density {
                continue;
            }
            let roll = next();
            let allowed = i < j || (i == j && roll % 4 == 0) || (back_edges && roll % 3 == 0);
            if allowed && roll % 2 == 0 {
                b.policy_flow(x, y);
            } else if allowed {
                b.flow(x, y);
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The adjacency-row χ kernel is `manual::chi_nodes` on graphs of
    /// 0–130 actions (up to three words per row) with cycles, self-loops
    /// and policy flows: the same pairs, and `None` exactly when
    /// `chi_nodes` rejects the flow as circular.
    #[test]
    fn row_chi_kernel_matches_chi_nodes(seed in any::<u64>()) {
        use fsa::core::manual::chi_nodes;
        use fsa::core::FsaError;
        use fsa::graph::bitset::{set_bits, AdjacencyRows, ChiScratch};
        let instance = random_flow_instance_of(seed, 0..=130);
        let n = instance.action_count();
        let mut rows = AdjacencyRows::new(n);
        for (x, y) in instance.graph().edges() {
            rows.add_edge(x.index(), y.index());
        }
        let mut scratch = ChiScratch::default();
        match (chi_nodes(&instance), rows.chi(&mut scratch)) {
            (Ok(mut want), Some(chi)) => {
                want.sort();
                let got: Vec<_> = chi
                    .chunks(rows.words_per_row().max(1))
                    .enumerate()
                    .flat_map(|(x, row)| set_bits(row).map(move |y| (x, y)))
                    .map(|(x, y)| (fsa::graph::NodeId::new(x), fsa::graph::NodeId::new(y)))
                    .collect();
                prop_assert_eq!(got, want, "seed {}", seed);
            }
            (Err(FsaError::CircularDependency { .. }), None) => {}
            (want, got) => prop_assert!(false, "seed {}: chi_nodes {:?}, kernel {:?}", seed, want, got),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `manual::elicit` reads §4's order off the DAG (sources, sinks and
    /// the closure's rows) and classifies on the non-policy closure; on
    /// random flows of 0–40 actions it reports what the reference does:
    /// `closure_warshall` → `PartialOrder::try_new` → the (min, max)
    /// restriction, with relevance from the closure of
    /// `functional_subgraph()`. A cycle names the reference's pair.
    #[test]
    fn manual_elicitation_matches_the_reference_order(seed in any::<u64>()) {
        use fsa::core::manual::{chi_nodes, elicit};
        use fsa::core::requirements::Relevance;
        use fsa::core::{Action, FsaError};
        use fsa::graph::{GraphError, NodeId};
        let instance = random_flow_instance_of(seed, 0..=40);
        let action = |n: NodeId| instance.action(n).clone();
        match (elicit(&instance), PartialOrder::try_new(closure_warshall(instance.graph()))) {
            (Ok(report), Ok(order)) => {
                prop_assert_eq!(report.closure_size(), order.relation().len(), "seed {}", seed);
                let minima: Vec<Action> = order.minimal_elements().into_iter().map(action).collect();
                let maxima: Vec<Action> = order.maximal_elements().into_iter().map(action).collect();
                prop_assert_eq!(report.minima(), &minima[..], "seed {}", seed);
                prop_assert_eq!(report.maxima(), &maxima[..], "seed {}", seed);
                let mut chi = order.min_max_restriction();
                chi.sort_by_key(|&(x, y)| (y, x));
                prop_assert_eq!(chi_nodes(&instance).unwrap(), chi.clone(), "seed {}", seed);
                let pairs: Vec<(Action, Action)> = chi.iter().map(|&(x, y)| (action(x), action(y))).collect();
                prop_assert_eq!(report.chi(), &pairs[..], "seed {}", seed);
                let functional = closure_warshall(&instance.functional_subgraph());
                let want: Vec<Relevance> = chi
                    .iter()
                    .map(|&(x, y)| if functional.contains(x, y) { Relevance::Safety } else { Relevance::Availability })
                    .collect();
                let got: Vec<Relevance> = report.classified_requirements().iter().map(|c| c.relevance).collect();
                prop_assert_eq!(got, want, "seed {}", seed);
            }
            (Err(FsaError::CircularDependency { first, second }), Err(GraphError::NotAntisymmetric(a, b))) => {
                prop_assert_eq!((first, second), (action(a), action(b)), "seed {}", seed);
            }
            (got, want) => prop_assert!(false, "seed {}: elicit {:?}, reference {:?}", seed, got.map(|r| r.closure_size()), want.map(|o| o.relation().len())),
        }
    }
}

/// The 0–40-action flows of
/// [`manual_elicitation_matches_the_reference_order`] reach every shape
/// it is meant to compare on.
#[test]
fn small_random_flows_reach_dags_cycles_self_loops_isolated_actions_and_policy() {
    use fsa::core::instance::FlowKind;
    use fsa::graph::topo::is_acyclic;
    let (mut empty, mut dags, mut cyclic, mut looped_orders) = (0, 0, 0, 0);
    let (mut self_loops, mut isolated, mut policy) = (0, 0, 0);
    for seed in 0..512u64 {
        let instance = random_flow_instance_of(seed, 0..=40);
        let g = instance.graph();
        empty += usize::from(g.node_count() == 0);
        let acyclic = is_acyclic(g);
        dags += usize::from(acyclic && g.edge_count() > 0);
        let circular = fsa::core::manual::chi_nodes(&instance).is_err();
        cyclic += usize::from(circular);
        // Self-loops without a longer cycle: an order, but no DAG.
        looped_orders += usize::from(!acyclic && !circular);
        self_loops += usize::from(g.edges().any(|(x, y)| x == y));
        isolated += usize::from(g.node_ids().any(|n| g.in_degree(n) + g.out_degree(n) == 0));
        policy += usize::from(
            g.edges()
                .any(|(x, y)| instance.flow_kind(x, y) == Some(FlowKind::Policy)),
        );
    }
    assert!(
        empty > 0
            && dags > 50
            && cyclic > 50
            && looped_orders > 10
            && self_loops > 50
            && isolated > 50
            && policy > 50,
        "empty {empty}, DAGs {dags}, cyclic {cyclic}, looped orders {looped_orders}, \
         self-loops {self_loops}, isolated {isolated}, policy {policy}"
    );
}

#[test]
fn random_flow_instances_reach_cycles_self_loops_and_policy_flows() {
    use fsa::core::instance::FlowKind;
    let (mut cyclic, mut self_loops, mut policy, mut chi) = (0, 0, 0, 0);
    for seed in 0..256u64 {
        let instance = random_flow_instance(seed);
        let g = instance.graph();
        match fsa::core::manual::chi_nodes(&instance) {
            Ok(pairs) => chi += usize::from(!pairs.is_empty()),
            Err(_) => cyclic += 1,
        }
        self_loops += usize::from(g.edges().any(|(x, y)| x == y));
        policy += usize::from(
            g.edges()
                .any(|(x, y)| instance.flow_kind(x, y) == Some(FlowKind::Policy)),
        );
    }
    assert!(
        cyclic > 10 && self_loops > 10 && policy > 10 && chi > 10,
        "cyclic {cyclic}, self-loops {self_loops}, policy {policy}, with χ {chi}"
    );
}
