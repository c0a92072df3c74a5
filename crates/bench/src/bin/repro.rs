//! Regenerates every table and figure of the paper as text.
//!
//! Usage: `cargo run -p bench --bin repro [-- <experiment>]` where
//! `<experiment>` is one of `t1 f1 f2 f3 f4 f5 f7 f9 f10 evita ablation simplicity explore
//! all` (default `all`). EXPERIMENTS.md records the paper-vs-measured
//! comparison for each.

use apa::ReachOptions;
use fsa_core::assisted::{dependence_by_abstraction, elicit_from_graph, DependenceMethod};
use fsa_core::boundary::boundary_stats;
use fsa_core::manual::elicit;
use fsa_core::param::parameterise_over;
use fsa_core::report::{render_assisted, render_manual};
use fsa_graph::dot::{to_dot, DotOptions};
use vanet::apa_model::{four_vehicle_apa, single_vehicle_apa, stakeholder_of, two_vehicle_apa};
use vanet::semantics::ApaSemantics;
use vanet::{component_models, evita, instances, table1};

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    let run_all = arg == "all";
    let mut ran = false;
    let mut section = |id: &str, title: &str, body: fn()| {
        if run_all || arg == id {
            println!("\n======== {id}: {title} ========");
            body();
            ran = true;
        }
    };

    section("t1", "Table 1 — actions of the example system", t1);
    section("f1", "Fig. 1 — functional component models", f1);
    section("f2", "Fig. 2 / Examples 1-2 — RSU warns vehicle w", f2);
    section("f3", "Fig. 3 / Example 3 — two-vehicle warning", f3);
    section(
        "f4",
        "Fig. 4 / §4.4 — forwarding chain and requirement (4)",
        f4,
    );
    section("f5", "Fig. 5 — APA model of a vehicle", f5);
    section(
        "f7",
        "Figs. 6-7 / Examples 5-6 — two-vehicle reachability",
        f7,
    );
    section("f9", "Figs. 8-9 — four-vehicle reachability", f9);
    section("f10", "Figs. 10-11 / Example 7 — abstraction per pair", f10);
    section("evita", "§4.4 — EVITA-scale statistics", evita_repro);
    section(
        "ablation",
        "DESIGN §2.3 — consumption-semantics ablation",
        ablation,
    );
    section(
        "simplicity",
        "§5.5 theory — simplicity of the per-pair abstractions",
        simplicity,
    );
    section(
        "figures",
        "DOT renderings of the figure analogues (written to target/repro-figures)",
        figures,
    );
    section(
        "baselines",
        "§2 — coverage of the architect-archetype baselines",
        baselines_repro,
    );
    section(
        "explore",
        "§4.2 — instance-space enumeration and requirement union",
        explore,
    );

    if !ran {
        eprintln!(
            "unknown experiment `{arg}`; use one of: t1 f1 f2 f3 f4 f5 f7 f9 f10 evita ablation simplicity explore baselines figures all"
        );
        std::process::exit(2);
    }
}

fn t1() {
    print!("{}", table1::render());
}

fn f1() {
    let (rsu, _) = component_models::rsu_model();
    println!(
        "Fig. 1(a) RSU model: {} action(s), {} internal flow(s)",
        rsu.actions().len(),
        rsu.flows().len()
    );
    let (vehicle, _) = component_models::vehicle_model();
    println!(
        "Fig. 1(b) vehicle model: {} actions, {} internal flows (1 policy: pos -> fwd)",
        vehicle.actions().len(),
        vehicle.flows().len()
    );
    let inst = instances::two_vehicle_warning();
    println!("\nDOT of the composed Fig. 3 instance:");
    print!(
        "{}",
        to_dot(inst.graph(), &DotOptions::default(), |_, a| a.to_string())
    );
}

fn f2() {
    let report = elicit(&instances::rsu_warns_vehicle()).expect("loop-free");
    print!("{}", render_manual(&report));
}

fn f3() {
    let report = elicit(&instances::two_vehicle_warning()).expect("loop-free");
    print!("{}", render_manual(&report));
    println!("paper: |zeta1| = 5, |zeta1*| = 16, chi1 = requirements (1)-(3)");
}

fn f4() {
    for forwarders in 1..=3 {
        let report = elicit(&instances::forwarding_chain(forwarders)).expect("loop-free");
        println!(
            "chi with {forwarders} forwarder(s): {} requirements ({} availability)",
            report.requirements().len(),
            report
                .classified_requirements()
                .iter()
                .filter(|c| c.relevance == fsa_core::requirements::Relevance::Availability)
                .count()
        );
    }
    let report = elicit(&instances::forwarding_chain(3)).expect("loop-free");
    println!("first-order form over V_forward = {{2,3,4}}:");
    for form in parameterise_over(&report.requirement_set(), 2, Some(&["2", "3", "4"])) {
        println!("  {form}");
    }
}

fn f5() {
    let apa = single_vehicle_apa().expect("valid model");
    println!(
        "vehicle APA: {} state components, {} elementary automata",
        apa.component_count(),
        apa.automaton_count()
    );
    for name in apa.automaton_names() {
        println!("  {name}");
    }
}

fn f7() {
    let graph = two_vehicle_apa(ApaSemantics::PAPER)
        .expect("valid model")
        .reachability(&ReachOptions::default())
        .expect("bounded");
    println!(
        "reachability graph: {} states, {} transitions (paper tool: 13 states; see DESIGN.md §2.3)",
        graph.state_count(),
        graph.edge_count()
    );
    print!("{}", graph.min_max_listing());
    let report = elicit_from_graph(&graph, DependenceMethod::Abstraction, stakeholder_of);
    print!("{}", render_assisted(&report));
}

fn f9() {
    let g2 = two_vehicle_apa(ApaSemantics::PAPER)
        .expect("valid model")
        .reachability(&ReachOptions::default())
        .expect("bounded");
    let g4 = four_vehicle_apa(ApaSemantics::PAPER)
        .expect("valid model")
        .reachability(&ReachOptions::default())
        .expect("bounded");
    println!(
        "four-vehicle reachability: {} states = {}^2 (paper tool: 169 = 13^2)",
        g4.state_count(),
        g2.state_count()
    );
    print!("{}", g4.min_max_listing());
}

fn f10() {
    let graph = four_vehicle_apa(ApaSemantics::PAPER)
        .expect("valid model")
        .reachability(&ReachOptions::default())
        .expect("bounded");
    let behaviour = graph.to_nfa();
    let (dep, chain) = dependence_by_abstraction(&behaviour, "V1_sense", "V2_show");
    println!(
        "(V1_sense, V2_show): {} — minimal automaton {} states (Fig. 10 chain)",
        verdict(dep),
        chain.state_count()
    );
    let (dep, diamond) = dependence_by_abstraction(&behaviour, "V1_sense", "V4_show");
    println!(
        "(V1_sense, V4_show): {} — minimal automaton {} states (Fig. 11 diamond)",
        verdict(dep),
        diamond.state_count()
    );
    let report = elicit_from_graph(&graph, DependenceMethod::Abstraction, stakeholder_of);
    print!("{}", render_assisted(&report));
}

fn verdict(dep: bool) -> &'static str {
    if dep {
        "dependent"
    } else {
        "independent"
    }
}

fn evita_repro() {
    let inst = evita::onboard_instance();
    let report = elicit(&inst).expect("loop-free");
    let stats = boundary_stats(&inst);
    println!("paper-reported vs measured:");
    println!(
        "  component boundary actions: {} vs {}",
        evita::EVITA_EXPECTED.component_boundary,
        stats.component_boundary_count()
    );
    println!(
        "  system boundary actions:    {} vs {}",
        evita::EVITA_EXPECTED.system_boundary,
        stats.system_boundary_count()
    );
    println!(
        "  maximal / minimal:          {}/{} vs {}/{}",
        evita::EVITA_EXPECTED.maximal,
        evita::EVITA_EXPECTED.minimal,
        report.maxima().len(),
        report.minima().len()
    );
    println!(
        "  authenticity requirements:  {} vs {}",
        evita::EVITA_EXPECTED.requirements,
        report.requirements().len()
    );
}

fn simplicity() {
    // The SH tool checks that abstractions are *simple homomorphisms*
    // so abstract verdicts carry over. Report the verdict for every
    // (minimum, maximum) abstraction on the two-vehicle behaviour.
    let graph = two_vehicle_apa(ApaSemantics::PAPER)
        .expect("valid model")
        .reachability(&ReachOptions::default())
        .expect("bounded");
    let behaviour = graph.to_nfa();
    for minimum in graph.minima() {
        for maximum in graph.maxima() {
            let h = automata::Homomorphism::erase_all_except([minimum.as_str(), maximum.as_str()]);
            let verdict = automata::simple::check(&behaviour, &h);
            println!(
                "  h preserving ({minimum}, {maximum}): {}",
                match &verdict {
                    automata::simple::Simplicity::Simple => "simple".to_owned(),
                    automata::simple::Simplicity::NotSimple { witness } =>
                        format!("NOT simple (witness prefix: {})", witness.join(" ")),
                }
            );
        }
    }
}

fn explore() {
    use fsa_core::explore::{ExecOptions, ExploreOptions};
    for max_vehicles in 1..=2usize {
        let universe = vanet::exploration::explore_scenario_universe(
            max_vehicles,
            &ExploreOptions::default(),
            &ExecOptions::default(),
        )
        .expect("bounded enumeration");
        println!(
            "1 RSU + up to {max_vehicles} vehicle(s): {} structurally different instances, union = {} requirements ({} cyclic skipped)",
            universe.classes.len(),
            universe.requirements.len(),
            universe.loop_skipped
        );
    }
}

fn figures() {
    let dir = std::path::Path::new("target/repro-figures");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return;
    }
    let write = |name: &str, content: String| {
        let path = dir.join(name);
        match std::fs::write(&path, content) {
            Ok(()) => println!("  wrote {}", path.display()),
            Err(e) => eprintln!("  cannot write {}: {e}", path.display()),
        }
    };
    // Fig. 1/3: the functional flow graph of the two-vehicle instance.
    let inst = instances::two_vehicle_warning();
    write(
        "fig3_flow_graph.dot",
        to_dot(inst.graph(), &DotOptions::default(), |_, a| a.to_string()),
    );
    // Figs. 2 and 4 in the paper's boxed-component style.
    write(
        "fig2_rsu_warns_vehicle.dot",
        fsa_core::report::instance_to_dot(&instances::rsu_warns_vehicle()),
    );
    write(
        "fig4_forwarding.dot",
        fsa_core::report::instance_to_dot(&instances::three_vehicle_forwarding()),
    );
    // Figs. 5, 6, 8: APA model structures (components -- automata).
    write(
        "fig5_vehicle_apa.dot",
        single_vehicle_apa().expect("valid model").to_dot("fig5"),
    );
    write(
        "fig6_two_vehicle_apa.dot",
        two_vehicle_apa(ApaSemantics::PAPER)
            .expect("valid model")
            .to_dot("fig6"),
    );
    write(
        "fig8_four_vehicle_apa.dot",
        four_vehicle_apa(ApaSemantics::PAPER)
            .expect("valid model")
            .to_dot("fig8"),
    );
    // Fig. 7: the two-vehicle reachability graph.
    let g2 = two_vehicle_apa(ApaSemantics::PAPER)
        .expect("valid model")
        .reachability(&ReachOptions::default())
        .expect("bounded");
    write("fig7_reachability.dot", g2.to_dot("fig7"));
    // Fig. 9: the four-vehicle reachability graph.
    let g4 = four_vehicle_apa(ApaSemantics::PAPER)
        .expect("valid model")
        .reachability(&ReachOptions::default())
        .expect("bounded");
    write("fig9_reachability.dot", g4.to_dot("fig9"));
    // Figs. 10/11: minimal automata of the abstractions.
    let behaviour = g4.to_nfa();
    let (_, chain) = dependence_by_abstraction(&behaviour, "V1_sense", "V2_show");
    write(
        "fig10_dependent_pair.dot",
        automata::dot::dfa_to_dot(&chain, "fig10"),
    );
    let (_, diamond) = dependence_by_abstraction(&behaviour, "V1_sense", "V4_show");
    write(
        "fig11_independent_pair.dot",
        automata::dot::dfa_to_dot(&diamond, "fig11"),
    );
}

fn baselines_repro() {
    use baselines::channel::channel_baseline;
    use baselines::trust_zone::trust_zone_baseline;
    use baselines::{coverage, TrustAssumption};
    for (label, inst) in [
        ("fig3 two-vehicle", instances::two_vehicle_warning()),
        ("fig4 forwarding", instances::three_vehicle_forwarding()),
        ("evita on-board", evita::onboard_instance()),
    ] {
        let reference = elicit(&inst).expect("loop-free").requirement_set();
        println!("{label}: FSA elicits {} requirements", reference.len());
        for baseline in [channel_baseline(&inst), trust_zone_baseline(&inst)] {
            let trusted = coverage(&inst, &baseline, &reference, &TrustAssumption::AllOwners);
            let untrusted = coverage(&inst, &baseline, &reference, &TrustAssumption::Nothing);
            println!(
                "  {:52} {:>2} reqs; coverage: {:>5.1}% (internals trusted) / {:>5.1}% (in-vehicle attacker)",
                baseline.name,
                baseline.requirements.len(),
                trusted.ratio() * 100.0,
                untrusted.ratio() * 100.0,
            );
        }
    }
    println!(
        "(the baselines look adequate only while component internals are assumed\n trustworthy; what they leave open is exactly the manipulation of in-vehicle\n communication and computation that section 2 warns about)"
    );
}

fn ablation() {
    println!("two-vehicle / four-vehicle state counts per consumption semantics:");
    for semantics in ApaSemantics::ALL {
        let g2 = two_vehicle_apa(semantics)
            .expect("valid model")
            .reachability(&ReachOptions::default())
            .expect("bounded");
        let g4 = four_vehicle_apa(semantics)
            .expect("valid model")
            .reachability(&ReachOptions::default())
            .expect("bounded");
        println!(
            "  {:>26}: {:>3} states / {:>5} states, dead states: {}",
            semantics.tag(),
            g2.state_count(),
            g4.state_count(),
            g2.dead_states().len()
        );
    }
    println!("(paper tool reported 13 / 169; printed Δ-relations give 12 / 144)");
}
