//! Differential property suite for the arena/bitset kernels (and the
//! cross-run certificate cache): the rewritten hot paths must be
//! *bit-identical* to the retained legacy oracles on random inputs —
//! same states, same edges, same interned symbols, same verdicts, same
//! rendered requirements, same simulated walks, for every dependence
//! method, prune setting and thread count. A faster kernel that
//! disagrees with its oracle on one random APA is a bug, not an
//! optimisation.

use fsa::apa::rule::{FnRule, LocalState};
use fsa::apa::{
    rule, Apa, ApaBuilder, ApaError, GlobalState, ReachOptions, Simulator, TransitionLabel, Value,
};
use fsa::automata::{Symbol, SymbolTable};
use fsa::core::assisted::{elicit_with_options, DependenceMethod, ElicitOptions};
use fsa::core::explore::ExploreOptions;
use fsa::core::Agent;
use fsa::vanet::exploration::explore_scenario;
use proptest::prelude::*;

/// A random token-mover APA (same shape as `parallel_props`): `n`
/// chained/branching components wired pseudo-randomly from `seed`,
/// with forward-only movers so every run terminates.
fn arb_apa() -> impl Strategy<Value = Apa> {
    (2usize..6, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut b = ApaBuilder::new();
        let comps: Vec<_> = (0..n)
            .map(|i| {
                if i == 0 {
                    b.component(&format!("c{i}"), [Value::atom("x"), Value::atom("y")])
                } else {
                    b.component(&format!("c{i}"), [])
                }
            })
            .collect();
        let mut k = 0;
        for i in 0..n - 1 {
            b.automaton(
                &format!("m{k}"),
                [comps[i], comps[i + 1]],
                rule::move_any(0, 1),
            );
            k += 1;
            let j = i + 1 + (next() as usize) % (n - i - 1).max(1);
            if j < n && j != i + 1 && next() % 2 == 0 {
                b.automaton(&format!("m{k}"), [comps[i], comps[j]], rule::move_any(0, 1));
                k += 1;
            }
        }
        b.build().expect("valid mover APA")
    })
}

/// The simulator's oracle: the walk it made before it ran on the firing
/// memo — every step fires every rule through `Apa::successors` and takes
/// the successor a splitmix draw picks. Returns `run`'s result, the
/// trace, its symbol table and the final state.
fn oracle_walk(
    apa: &Apa,
    seed: u64,
    max_steps: usize,
) -> (
    Result<usize, ApaError>,
    Vec<TransitionLabel>,
    SymbolTable,
    GlobalState,
) {
    let mut symbols = SymbolTable::new();
    let auts: Vec<Symbol> = apa.automaton_names().map(|n| symbols.intern(n)).collect();
    let (mut state, mut rng, mut trace) = (apa.initial_state().clone(), seed | 1, Vec::new());
    let result = loop {
        if trace.len() == max_steps {
            break Ok(max_steps);
        }
        let successors = match apa.successors(&state) {
            Ok(s) if !s.is_empty() => s,
            Ok(_) => break Ok(trace.len()),
            Err(e) => break Err(e),
        };
        rng = rng.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = (rng ^ (rng >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        let choice = ((z ^ (z >> 31)) as usize) % successors.len();
        let (aut, interp, next) = successors.into_iter().nth(choice).unwrap();
        let interpretation = symbols.intern(&interp);
        trace.push(TransitionLabel {
            automaton: auts[aut.index()],
            interpretation,
        });
        state = next;
    };
    (result, trace, symbols, state)
}

/// Runs `sim` for `max_steps` and checks it walked exactly as the oracle
/// does from a fresh start under `seed`: the step count (or the error,
/// after the same number of steps), the labels, the symbol numbering,
/// the trace names and the final state.
fn assert_walks_like_the_oracle(apa: &Apa, sim: &mut Simulator<'_>, seed: u64, max_steps: usize) {
    let (result, trace, symbols, state) = oracle_walk(apa, seed, max_steps);
    assert_eq!(sim.run(max_steps), result, "seed {seed}");
    assert_eq!(sim.trace(), trace.as_slice(), "seed {seed}");
    let names = |t: &SymbolTable| t.iter().map(|(s, n)| (s, n.to_owned())).collect::<Vec<_>>();
    assert_eq!(names(sim.symbols()), names(&symbols), "seed {seed}");
    let oracle_names: Vec<&str> = trace.iter().map(|l| symbols.name(l.automaton)).collect();
    assert_eq!(sim.trace_names(), oracle_names, "seed {seed}");
    assert_eq!(sim.state(), state, "seed {seed}");
}

/// Checks `Simulator::new` and `restart` against the oracle for a run of
/// seeds: a fresh simulator per seed, and one simulator restarted
/// through all of them, its memo carried across the episodes.
fn assert_simulator_matches_oracle(apa: &Apa, seeds: &[u64], max_steps: usize) {
    let mut restarted = Simulator::new(apa, seeds[0]);
    for (i, &seed) in seeds.iter().enumerate() {
        assert_walks_like_the_oracle(apa, &mut Simulator::new(apa, seed), seed, max_steps);
        if i > 0 {
            restarted.restart(seed);
        }
        assert_walks_like_the_oracle(apa, &mut restarted, seed, max_steps);
    }
}

/// Tokens circling between two components: every run is infinite.
fn ping_pong_apa() -> Apa {
    let mut b = ApaBuilder::new();
    let ping = b.component("ping", [Value::atom("t")]);
    let pong = b.component("pong", []);
    b.automaton("serve", [ping, pong], rule::move_any(0, 1));
    b.automaton("return", [pong, ping], rule::move_any(0, 1));
    b.build().expect("valid cyclic APA")
}

/// A mover chain whose `check` rule turns malformed only once token `y`
/// reaches `mid` — never in q₀ — beside an unrelated mover that shifts
/// the step at which that happens from seed to seed. The malformed
/// firing follows a well-formed one, so a failed memo fill must leave
/// nothing behind for the local states later episodes fill.
fn late_malformed_apa() -> Apa {
    let mut b = ApaBuilder::new();
    let src = b.component("src", [Value::atom("x"), Value::atom("y")]);
    let mid = b.component("mid", []);
    let from = b.component("from", [Value::atom("a"), Value::atom("b")]);
    let to = b.component("to", []);
    b.automaton("noise", [from, to], rule::move_any(0, 1));
    b.automaton("move", [src, mid], rule::move_any(0, 1));
    b.automaton(
        "check",
        [mid],
        Box::new(FnRule::new(|local: &LocalState| {
            if local[0].contains(&Value::atom("y")) {
                vec![
                    ("ok".to_owned(), local.clone()),
                    ("bad".to_owned(), Vec::new()),
                ]
            } else {
                Vec::new()
            }
        })),
    );
    b.build().expect("valid APA")
}

#[test]
fn simulator_matches_the_oracle_on_the_scenarios() {
    use fsa::vanet::apa_model::{n_pair_apa, two_vehicle_apa};
    use fsa::vanet::forwarding::{forwarding_chain_apa, forwarding_chain_apa_with, RangeConfig};
    use fsa::vanet::semantics::ApaSemantics;
    let scenarios = [
        ("two", two_vehicle_apa(ApaSemantics::PAPER)),
        ("chain", forwarding_chain_apa()),
        (
            "attacked",
            forwarding_chain_apa_with(RangeConfig::default(), true),
        ),
        ("six", n_pair_apa(3, ApaSemantics::PAPER)),
    ];
    let seeds: Vec<u64> = (0..24).chain([0xF5A, u64::MAX]).collect();
    for (name, apa) in scenarios {
        let apa = apa.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_simulator_matches_oracle(&apa, &seeds, 1000);
        // Cut runs short too: a restart from the middle of an episode.
        assert_simulator_matches_oracle(&apa, &seeds, 7);
    }
    assert_simulator_matches_oracle(&ping_pong_apa(), &seeds, 200);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simulator_walks_are_bit_identical_to_the_successor_oracle(
        apa in arb_apa(),
        first in any::<u64>(),
        episodes in 1usize..6,
        max_steps in 1usize..40,
    ) {
        let seeds: Vec<u64> = (0..episodes as u64)
            .map(|e| first.wrapping_add(e.wrapping_mul(0x9e3779b97f4a7c15)))
            .collect();
        assert_simulator_matches_oracle(&apa, &seeds, max_steps);
    }

    #[test]
    fn a_rule_turning_malformed_later_fails_at_the_same_step(first in any::<u64>()) {
        let apa = late_malformed_apa();
        let seeds = [first, first ^ 0x5555, first.wrapping_add(1)];
        assert_simulator_matches_oracle(&apa, &seeds, 100);
        let mut sim = Simulator::new(&apa, first);
        prop_assert!(
            matches!(sim.run(100), Err(ApaError::MalformedSuccessor { .. })),
            "y reaches mid on every run"
        );
        // Stepping again reports the same error from the same state.
        let steps = sim.trace().len();
        prop_assert!(matches!(sim.step(), Err(ApaError::MalformedSuccessor { .. })));
        prop_assert_eq!(sim.trace().len(), steps);
    }

    #[test]
    fn arena_kernel_is_bit_identical_to_the_reference_bfs(apa in arb_apa()) {
        let options = ReachOptions::default();
        let arena = apa.reachability(&options).expect("arena kernel");
        let oracle = apa.reachability_reference(&options).expect("reference");
        prop_assert_eq!(arena.state_count(), oracle.state_count());
        prop_assert_eq!(arena.edge_count(), oracle.edge_count());
        for i in 0..oracle.state_count() {
            prop_assert_eq!(arena.state(i), oracle.state(i), "state {}", i);
        }
        let a: Vec<_> = arena.edges().collect();
        let o: Vec<_> = oracle.edges().collect();
        prop_assert_eq!(a, o, "edge streams diverge");
        for (sym, name) in oracle.symbols().iter() {
            prop_assert_eq!(arena.symbols().name(sym), name);
        }
        prop_assert_eq!(arena.dead_states(), oracle.dead_states());
        // The CSR layout is a faithful re-encoding of the edge list.
        let (off, targets) = arena.csr_successors();
        prop_assert_eq!(off.len(), arena.state_count() + 1);
        prop_assert_eq!(targets.len(), arena.edge_count());
        for (src, _, dst) in arena.edges() {
            let row = &targets[off[src] as usize..off[src + 1] as usize];
            prop_assert!(row.contains(&(dst as u32)), "edge {}→{} missing from CSR", src, dst);
        }
    }

    #[test]
    fn state_limit_verdict_agrees_across_all_engines(apa in arb_apa()) {
        let n = apa
            .reachability(&ReachOptions::default())
            .expect("unbounded")
            .state_count();
        for limit in [n, n.saturating_sub(1).max(1)] {
            let options = ReachOptions { max_states: limit };
            let arena = apa.reachability(&options);
            let oracle = apa.reachability_reference(&options);
            prop_assert_eq!(
                arena.is_ok(), oracle.is_ok(),
                "limit {}: arena {:?} vs reference {:?}", limit, arena.is_ok(), oracle.is_ok()
            );
            // The exact boundary: a limit equal to the state count
            // succeeds, one below fails (when the space has > 1 state).
            if limit == n {
                prop_assert!(arena.is_ok());
            } else if n > 1 {
                prop_assert!(arena.is_err());
            }
        }
    }

    #[test]
    fn elicitation_from_arena_and_reference_graphs_is_bit_identical(apa in arb_apa()) {
        let options = ReachOptions::default();
        let arena = apa.reachability(&options).expect("arena");
        let oracle = apa.reachability_reference(&options).expect("reference");
        for method in [DependenceMethod::Abstraction, DependenceMethod::Precedence] {
            for prune in [false, true] {
                for threads in [1usize, 4] {
                    let opts = ElicitOptions { method, threads, prune };
                    let a = elicit_with_options(&arena, &opts, |_| Agent::new("P"));
                    let o = elicit_with_options(&oracle, &opts, |_| Agent::new("P"));
                    prop_assert_eq!(
                        &a.verdicts, &o.verdicts,
                        "method {:?} prune {} threads {}", method, prune, threads
                    );
                    let ar: Vec<String> = a.requirements.iter().map(ToString::to_string).collect();
                    let or: Vec<String> = o.requirements.iter().map(ToString::to_string).collect();
                    prop_assert_eq!(ar, or);
                }
            }
        }
    }
}

/// Warm-vs-cold certificate cache over the real vehicular universes:
/// the cached run must reproduce the cacheless instance stream
/// bit-identically while discharging every duplicate without an exact
/// isomorphism check (no certificate collisions exist in these
/// universes — a collision would show up as a nonzero fallback count,
/// which is exactly what the assertion pins).
#[test]
fn cert_cache_warm_scenario_runs_are_bit_identical_with_zero_fallbacks() {
    for max_vehicles in 1usize..=3 {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "fsa-diff-certcache-{max_vehicles}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let options = ExploreOptions {
            cert_cache: Some(path.clone()),
            ..ExploreOptions::default()
        };
        let cold = explore_scenario(max_vehicles, &options).expect("cold run");
        let warm = explore_scenario(max_vehicles, &options).expect("warm run");
        assert_eq!(
            warm.stats.exact_iso_fallbacks, 0,
            "max_vehicles {max_vehicles}: warm run must trust the census"
        );
        assert_eq!(warm.stats.cert_cache_skips, warm.stats.certificate_hits);
        assert_eq!(warm.stats.classes, cold.stats.classes);
        assert_eq!(warm.instances.len(), cold.instances.len());
        for (w, c) in warm.instances.iter().zip(cold.instances.iter()) {
            assert_eq!(w.name(), c.name(), "max_vehicles {max_vehicles}");
            let wa: Vec<String> = w.graph().nodes().map(|(_, a)| a.to_string()).collect();
            let ca: Vec<String> = c.graph().nodes().map(|(_, a)| a.to_string()).collect();
            assert_eq!(wa, ca, "max_vehicles {max_vehicles}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
