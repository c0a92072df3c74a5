//! Differential property suite for the arena/bitset kernels: the
//! rewritten hot paths must be *bit-identical* to the retained legacy
//! oracles on random inputs — same states, same edges, same interned
//! symbols, same verdicts, same rendered requirements, same simulated
//! walks, for every dependence method and thread count. The simulator
//! is checked walking both an APA itself and the product of its
//! independent fragments, and so is the monitor fleet built on it.
//! A faster kernel that disagrees with its oracle on one random APA is
//! a bug, not an optimisation.

use fsa::apa::rule::{FnRule, LocalState};
use fsa::apa::{
    rule, Apa, ApaBuilder, ApaError, GlobalState, ReachOptions, Simulator, TransitionLabel, Value,
};
use fsa::automata::{Symbol, SymbolTable};
use fsa::core::assisted::{
    dependence_by_precedence, elicit_apa, elicit_with_options, DependenceMethod, ElicitOptions,
};
use fsa::core::delta::{EditModel, Flow, ModelDelta};
use fsa::core::requirements::{AuthRequirement, RequirementSet};
use fsa::core::{Action, Agent};
use fsa::obs::Obs;
use fsa::runtime::{run_fleet, run_fleet_supervised, FleetConfig, MonitorBank};
use proptest::prelude::*;

#[path = "support/edit_models.rs"]
mod edit_models;

#[path = "../crates/apa/src/reach/reference.rs"]
mod reference;

/// A random token-mover APA (same shape as `monitor_props`): `n`
/// chained/branching components wired pseudo-randomly from `seed`,
/// with forward-only movers so every run terminates.
fn arb_apa() -> impl Strategy<Value = Apa> {
    (2usize..6, any::<u64>()).prop_map(|(n, seed)| {
        let mut b = ApaBuilder::new();
        add_mover_shape(&mut b, "", n, seed);
        b.build().expect("valid mover APA")
    })
}

/// Adds one [`arb_apa`] shape to `b`, its components and automata named
/// with `prefix`.
fn add_mover_shape(b: &mut ApaBuilder, prefix: &str, n: usize, seed: u64) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let comps: Vec<_> = (0..n)
        .map(|i| {
            if i == 0 {
                b.component(
                    &format!("{prefix}c{i}"),
                    [Value::atom("x"), Value::atom("y")],
                )
            } else {
                b.component(&format!("{prefix}c{i}"), [])
            }
        })
        .collect();
    let mut k = 0;
    for i in 0..n - 1 {
        b.automaton(
            &format!("{prefix}m{k}"),
            [comps[i], comps[i + 1]],
            rule::move_any(0, 1),
        );
        k += 1;
        let j = i + 1 + (next() as usize) % (n - i - 1).max(1);
        if j < n && j != i + 1 && next() % 2 == 0 {
            b.automaton(
                &format!("{prefix}m{k}"),
                [comps[i], comps[j]],
                rule::move_any(0, 1),
            );
            k += 1;
        }
    }
}

/// 1–4 renamed [`arb_apa`] shapes glued side by side into one APA,
/// sometimes with a ping-pong fragment (no dead state, so the product
/// has no maxima) and sometimes with a component no automaton touches.
/// Shapes have 2–3 components, so the global product stays small
/// enough for the abstraction oracle.
fn arb_glued_apa() -> impl Strategy<Value = Apa> {
    (1usize..5, any::<u64>(), any::<bool>(), any::<bool>()).prop_map(
        |(shapes, seed, ping_pong, idle)| {
            let mut b = ApaBuilder::new();
            if idle {
                b.component("idle", [Value::atom("z")]);
            }
            for p in 0..shapes {
                let shape_seed = seed.wrapping_add((p as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let n = 2 + (shape_seed >> 61) as usize % 2;
                add_mover_shape(&mut b, &format!("s{p}"), n, shape_seed);
            }
            if ping_pong {
                let ping = b.component("ping", [Value::atom("t")]);
                let pong = b.component("pong", []);
                b.automaton("serve", [ping, pong], rule::move_any(0, 1));
                b.automaton("return", [pong, ping], rule::move_any(0, 1));
            }
            b.build().expect("valid glued APA")
        },
    )
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

/// The compiled sub-APAs of `model`'s independent value-level
/// fragments: the parts `fsa monitor` walks an editable scenario on.
fn fragment_parts(model: &EditModel) -> Vec<Apa> {
    model
        .fragments()
        .iter()
        .map(|fragment| {
            fragment
                .model()
                .compile()
                .expect("a fragment of a valid model compiles")
        })
        .collect()
}

/// Checks the walk over the product of `parts` against the oracle's
/// walk of `apa`, as [`assert_simulator_matches_oracle`] checks the
/// walk of `apa` itself.
fn assert_product_matches_oracle(apa: &Apa, parts: &[Apa], seeds: &[u64], max_steps: usize) {
    let product = |seed| Simulator::product(apa, parts, seed).expect("the parts fit the APA");
    let mut restarted = product(seeds[0]);
    for (i, &seed) in seeds.iter().enumerate() {
        assert_walks_like_the_oracle(apa, &mut product(seed), seed, max_steps);
        if i > 0 {
            restarted.restart(seed);
        }
        assert_walks_like_the_oracle(apa, &mut restarted, seed, max_steps);
    }
}

/// Two sender/receiver chains through one shared `net`, their flows
/// declared alternately: the chains are separate value-level fragments
/// (`x` and `y` never meet) whose automata interleave in declaration
/// order, and which share a component.
fn interleaved_chains() -> EditModel {
    let mut model = EditModel::new();
    for line in [
        "add-component src_a x",
        "add-component src_b y",
        "add-component net",
        "add-component dst_a",
        "add-component dst_b",
        "add-component idle z",
        "add-flow send_a move-atom:x src_a net",
        "add-flow send_b move-atom:y src_b net",
        "add-flow recv_a move-atom:x net dst_a",
        "add-flow recv_b move-atom:y net dst_b",
        "add-flow back_b move-atom:y dst_b src_b",
    ] {
        let delta = ModelDelta::parse(line).expect("valid delta");
        model.apply(&delta).expect("applicable delta");
    }
    model
}

/// `a` and `b` side by side, `b`'s names prefixed with `b_`, their flows
/// declared alternately: the fragments of `a` and of `b` interleave in
/// declaration order.
fn side_by_side(a: &EditModel, b: &EditModel) -> EditModel {
    let rename = |name: &str| format!("b_{name}");
    let mut deltas: Vec<ModelDelta> = a
        .components()
        .iter()
        .map(|c| (c.name.clone(), c))
        .chain(b.components().iter().map(|c| (rename(&c.name), c)))
        .map(|(name, c)| ModelDelta::AddComponent {
            name,
            initial: c.initial.clone(),
        })
        .collect();
    let b_flows: Vec<Flow> = b
        .flows()
        .iter()
        .map(|f| Flow {
            name: rename(&f.name),
            from: rename(&f.from),
            to: rename(&f.to),
            kind: f.kind.clone(),
        })
        .collect();
    for i in 0..a.flows().len().max(b_flows.len()) {
        for flow in [a.flows().get(i), b_flows.get(i)].into_iter().flatten() {
            deltas.push(ModelDelta::AddFlow { flow: flow.clone() });
        }
    }
    let mut model = EditModel::new();
    for delta in &deltas {
        model.apply(delta).expect("disjoint names apply");
    }
    model
}

/// Checks that a fleet walking the product of `parts` reports exactly
/// what the one-part fleet on `apa` reports, at 1, 2 and 3 threads,
/// honest and under a drop and a reorder fault.
fn assert_product_fleet_matches(apa: &Apa, parts: &[Apa], set: &RequirementSet, seed: u64) {
    let bank = MonitorBank::for_apa(set, apa).expect("the bank compiles");
    let dropped = apa
        .automaton_names()
        .next()
        .expect("an automaton")
        .to_owned();
    for fault in [
        None,
        Some(fsa::apa::Fault::Drop { action: dropped }),
        Some(fsa::apa::Fault::Reorder { window: 3 }),
    ] {
        for threads in [1, 2, 3] {
            let cfg = FleetConfig {
                streams: 5,
                events_per_stream: 300,
                seed,
                threads,
                fault: fault.clone(),
                ..FleetConfig::default()
            };
            let one = run_fleet(apa, &bank, &cfg).expect("one-part fleet");
            let product = run_fleet_supervised(apa, parts, &bank, &cfg, &Default::default())
                .expect("product fleet");
            assert_eq!(product.render(), one.render(), "{fault:?} at {threads}");
            assert_eq!(product.stats.shard_events, one.stats.shard_events);
        }
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

#[test]
fn product_walks_match_the_oracle_on_the_editable_scenarios_and_interleaved_chains() {
    use fsa::vanet::apa_model::n_pair_model;
    let seeds: Vec<u64> = (0..24).chain([0xF5A, u64::MAX]).collect();
    for (model, fragments) in [
        (n_pair_model(1), 1),
        (n_pair_model(3), 3),
        (interleaved_chains(), 2),
    ] {
        let apa = model.compile().expect("valid model");
        let parts = fragment_parts(&model);
        assert_eq!(parts.len(), fragments, "{model:?}");
        assert_product_matches_oracle(&apa, &parts, &seeds, 1000);
        assert_product_matches_oracle(&apa, &parts, &seeds, 7);
    }
    // `six` is three contiguous blocks of automata; the chains interleave.
    let chains = fragment_parts(&interleaved_chains());
    let names: Vec<Vec<&str>> = chains
        .iter()
        .map(|p| p.automaton_names().collect())
        .collect();
    assert_eq!(
        names,
        [vec!["send_a", "recv_a"], vec!["send_b", "recv_b", "back_b"]]
    );
}

#[test]
fn product_fleets_report_as_the_global_fleet_on_two_and_six() {
    use fsa::serve::engines::ScenarioModel;
    for name in ["two", "six"] {
        let mut model = ScenarioModel::load(name).expect("scenario loads");
        let (apa, parts, set) = model.split_elicited().expect("elicitation");
        assert_eq!(parts.len(), 2 * usize::from(name == "six") + 1, "{name}");
        assert_product_fleet_matches(apa, parts, set, 41);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A random edit model after a random edit sequence, alone and side
    /// by side with a second one (their fragments interleaving): the
    /// walk over its fragments' sub-APAs is the oracle's walk of the
    /// compiled model, step for step, label for label, state for state.
    #[test]
    fn product_walks_of_edited_models_match_the_oracle(
        n in 2usize..6,
        seed in any::<u64>(),
        edits in 0usize..7,
        first in any::<u64>(),
        max_steps in 1usize..60,
    ) {
        let model = edit_models::edited_model(n, seed, edits);
        let other = edit_models::edited_model(2 + n % 3, seed ^ first, edits / 2);
        let seeds = [first, first ^ 0x5555, first.wrapping_add(1)];
        for model in [side_by_side(&model, &other), model] {
            let apa = model.compile().expect("an edited model compiles");
            assert_product_matches_oracle(&apa, &fragment_parts(&model), &seeds, max_steps);
        }
    }

    /// On two such models side by side, a fleet on the fragments reports
    /// what the one-part fleet reports, at every thread count.
    #[test]
    fn product_fleets_of_edited_models_report_as_the_global_fleet(
        n in 2usize..6,
        seed in any::<u64>(),
        edits in 0usize..7,
    ) {
        let model = side_by_side(
            &edit_models::edited_model(n, seed, edits),
            &edit_models::edited_model(n, !seed, edits),
        );
        let apa = model.compile().expect("an edited model compiles");
        let flows: Vec<&str> = apa.automaton_names().collect();
        // Precedence monitors between consecutive flows: some hold, some
        // trip, and a dropped first flow trips more.
        let set: RequirementSet = flows
            .windows(2)
            .map(|w| AuthRequirement::new(Action::parse(w[0]), Action::parse(w[1]), Agent::new("P")))
            .collect();
        if !set.is_empty() {
            assert_product_fleet_matches(&apa, &fragment_parts(&model), &set, seed);
        }
    }

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
        // Every input §5 reads off a graph: the states in discovery
        // order, the raw edge stream and the symbol table.
        let options = ReachOptions::default();
        let arena = apa.reachability(&options).expect("arena kernel");
        let oracle = reference::reachability(&apa, &options).expect("reference");
        prop_assert_eq!(arena.state_count(), oracle.states.len());
        for (i, state) in oracle.states.iter().enumerate() {
            prop_assert_eq!(&arena.state(i), state, "state {}", i);
        }
        let a: Vec<_> = arena.edges().collect();
        prop_assert_eq!(a, oracle.edges, "edge streams diverge");
        prop_assert_eq!(arena.symbols().len(), oracle.symbols.len());
        for (sym, name) in oracle.symbols.iter() {
            prop_assert_eq!(arena.symbols().name(sym), name);
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
            let arena = apa.reachability(&options).map(|g| g.state_count());
            let oracle = reference::reachability(&apa, &options).map(|r| r.states.len());
            prop_assert_eq!(&arena, &oracle, "limit {}", limit);
            // The exact boundary: a limit equal to the state count
            // succeeds, one below fails (when the space has > 1 state).
            if limit == n {
                prop_assert_eq!(arena, Ok(n));
            } else if n > 1 {
                prop_assert_eq!(arena, Err(ApaError::StateLimitExceeded { limit }));
            }
        }
    }

    #[test]
    fn fragments_partition_the_automata_and_multiply_out(apa in arb_glued_apa()) {
        let fragments = apa.fragments();
        prop_assert_eq!(fragments.len(), apa.fragment_count());
        // Every automaton lands in exactly one fragment; a fragment
        // lists its automata in declaration order, and the fragments
        // are ordered by their first automaton.
        let position = |name: &str| apa.automaton_names().position(|n| n == name);
        let positions: Vec<Vec<usize>> = fragments
            .iter()
            .map(|f| f.automaton_names().map(|n| position(n).expect("known automaton")).collect())
            .collect();
        for p in &positions {
            prop_assert!(!p.is_empty() && p.windows(2).all(|w| w[0] < w[1]), "{:?}", positions);
        }
        prop_assert!(positions.windows(2).all(|w| w[0][0] < w[1][0]), "{:?}", positions);
        let mut all: Vec<usize> = positions.concat();
        all.sort_unstable();
        prop_assert_eq!(all, (0..apa.automaton_count()).collect::<Vec<_>>());
        // The global graph is the interleaving product of theirs.
        let global = apa.reachability(&ReachOptions::default()).expect("global");
        let counts: Vec<(usize, usize)> = fragments
            .iter()
            .map(|f| {
                let g = f.reachability(&ReachOptions::default()).expect("fragment");
                (g.state_count(), g.edge_count())
            })
            .collect();
        let states: usize = counts.iter().map(|&(s, _)| s).product();
        let edges: usize = (0..counts.len())
            .map(|i| {
                let others: usize = (0..counts.len())
                    .filter(|&j| j != i)
                    .map(|j| counts[j].0)
                    .product();
                counts[i].1 * others
            })
            .sum();
        prop_assert_eq!(states, global.state_count());
        prop_assert_eq!(edges, global.edge_count());
    }

    #[test]
    fn fragment_engine_matches_the_global_product_oracle(apa in arb_glued_apa()) {
        let global = apa.reachability(&ReachOptions::default()).expect("global");
        let behaviour = global.to_nfa();
        let mut by_abstraction = Vec::new();
        for method in [DependenceMethod::Abstraction, DependenceMethod::Precedence] {
            let opts = ElicitOptions { method };
            let at = format!("method {method:?}");
            let split = elicit_apa(&apa, &opts, &Obs::disabled(), Agent::new)
                .expect("fragment engine");
            let oracle = elicit_with_options(&global, &opts, Agent::new);
            prop_assert_eq!(split.state_count, oracle.state_count, "{}", at);
            prop_assert_eq!(split.edge_count, oracle.edge_count, "{}", at);
            prop_assert_eq!(&split.minima, &oracle.minima, "{}", at);
            prop_assert_eq!(&split.maxima, &oracle.maxima, "{}", at);
            prop_assert_eq!(&split.verdicts, &oracle.verdicts, "{}", at);
            prop_assert_eq!(&split.requirements, &oracle.requirements, "{}", at);
            prop_assert_eq!(split.stats.pairs_total, oracle.stats.pairs_total, "{}", at);
            prop_assert_eq!(split.stats.fragments, apa.fragment_count(), "{}", at);
            if method == DependenceMethod::Abstraction {
                by_abstraction.clone_from(&split.verdicts);
                continue;
            }
            // The graph walk against the NFA-level precedence oracle
            // on the global behaviour, and against abstraction.
            for verdicts in [&split.verdicts, &oracle.verdicts] {
                prop_assert_eq!(verdicts.len(), by_abstraction.len(), "{}", at);
                for (v, abstraction) in verdicts.iter().zip(&by_abstraction) {
                    let pair = format!("{at} ({}, {})", v.minimum, v.maximum);
                    prop_assert_eq!(
                        v.dependent,
                        dependence_by_precedence(&behaviour, &v.minimum, &v.maximum),
                        "{}", pair
                    );
                    prop_assert_eq!(v.dependent, abstraction.dependent, "{}", pair);
                }
            }
        }
    }
}

#[test]
fn an_apa_without_automata_has_no_fragments_and_one_state() {
    let mut b = ApaBuilder::new();
    b.component("idle", [Value::atom("z")]);
    let apa = b.build().expect("valid APA");
    assert!(apa.fragments().is_empty());
    let report = elicit_apa(&apa, &ElicitOptions::default(), &Obs::disabled(), |m| {
        Agent::new(m)
    })
    .expect("fragment engine");
    assert_eq!((report.state_count, report.edge_count), (1, 0));
    assert!(report.minima.is_empty() && report.maxima.is_empty());
    assert!(report.verdicts.is_empty());
}
