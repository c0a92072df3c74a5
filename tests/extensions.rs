//! Integration tests for the extension features: family verification
//! (§6 self-similarity), confidentiality derivation (§6 future work),
//! hop refinement, requirement verification with attack traces, and
//! APA simulation.

use fsa::apa::sim::Simulator;
use fsa::apa::ReachOptions;
use fsa::core::action::Action;
use fsa::core::confidential::{elicit_confidentiality, ConfidentialityPolicy, Level};
use fsa::core::family::verify_recurrence;
use fsa::core::manual::elicit;
use fsa::core::refine::refine;
use fsa::core::verify::{verify_requirements, Checker};
use fsa::vanet::apa_model::{stakeholder_of, two_vehicle_apa};
use fsa::vanet::instances::{forwarding_chain, two_vehicle_warning};
use fsa::vanet::semantics::ApaSemantics;

#[test]
fn forwarding_family_is_self_similar() {
    // §4.4's recurrence χᵢ = χᵢ₋₁ ∪ {(pos(GPS_i,pos), show(HMI_w,warn))},
    // verified as a self-similar family up to 6 forwarders.
    let result = verify_recurrence(
        forwarding_chain,
        |step| (step + 1).to_string(), // forwarder k has vehicle tag k+1
        6,
    )
    .unwrap();
    assert!(result.self_similar);
    assert_eq!(result.base.len(), 3, "χ₀ = requirements (1)-(3)");
    assert_eq!(result.templates.len(), 1);
    assert_eq!(
        result.templates[0].to_string(),
        "auth(pos(GPS_x,pos), show(HMI_w,warn), D_w)",
        "the paper's requirement (4), first-order form"
    );
    assert_eq!(result.domain, vec!["2", "3", "4", "5", "6", "7"]);
}

#[test]
fn confidentiality_of_the_warning_scenario() {
    // The cam broadcast reveals the sender's position to everyone: with
    // GPS classified restricted and the broadcast public, a violated
    // noflow requirement appears — matching the privacy concerns the
    // paper defers to Schaub et al. [26].
    let inst = two_vehicle_warning();
    let policy = ConfidentialityPolicy::new()
        .classify(Action::parse("pos(GPS_1,pos)"), Level::RESTRICTED)
        .clear(Action::parse("show(HMI_w,warn)"), Level::PUBLIC);
    let reqs = elicit_confidentiality(&inst, &policy);
    assert_eq!(reqs.len(), 1);
    assert!(reqs[0].violated, "V1's position flows to Vw's display");
    // Clearing the display resolves it.
    let policy = ConfidentialityPolicy::new()
        .classify(Action::parse("pos(GPS_1,pos)"), Level::RESTRICTED)
        .clear(Action::parse("show(HMI_w,warn)"), Level::RESTRICTED);
    assert!(elicit_confidentiality(&inst, &policy).is_empty());
}

#[test]
fn refinement_chains_for_all_fig3_requirements() {
    let inst = two_vehicle_warning();
    let report = elicit(&inst).unwrap();
    let mut decomposed = 0;
    for req in report.requirements() {
        let refinement = refine(&inst, &req).unwrap();
        for w in refinement.hops.windows(2) {
            assert_eq!(w[0].consequent, w[1].antecedent, "hops chain");
        }
        if refinement.is_decomposed() {
            decomposed += 1;
        }
    }
    assert_eq!(decomposed, 2, "sense and pos_1 refine through send/rec");
}

#[test]
fn elicited_requirements_verified_on_their_own_behaviour() {
    // Soundness loop: requirements elicited from the two-vehicle APA
    // hold on that very behaviour (by construction), via both checkers.
    let graph = two_vehicle_apa(ApaSemantics::PAPER)
        .unwrap()
        .reachability(&ReachOptions::default())
        .unwrap();
    let report = fsa::core::assisted::elicit_from_graph(
        &graph,
        fsa::core::assisted::DependenceMethod::Abstraction,
        stakeholder_of,
    );
    let behaviour = graph.to_nfa();
    for checker in [Checker::Precedence, Checker::Monitor] {
        let verdicts = verify_requirements(&behaviour, &report.requirements, checker);
        assert!(verdicts.iter().all(|v| v.holds()), "{checker:?}");
    }
}

#[test]
fn simulated_traces_respect_elicited_requirements() {
    // Every simulated run of the two-vehicle APA satisfies every
    // elicited precedence: outputs never precede their inputs.
    let apa = two_vehicle_apa(ApaSemantics::PAPER).unwrap();
    let graph = apa.reachability(&ReachOptions::default()).unwrap();
    let report = fsa::core::assisted::elicit_from_graph(
        &graph,
        fsa::core::assisted::DependenceMethod::Precedence,
        stakeholder_of,
    );
    for seed in 0..50 {
        let mut sim = Simulator::new(&apa, seed);
        sim.run(100).unwrap();
        let trace = sim.trace_names();
        for req in &report.requirements {
            let a = req.antecedent.to_string();
            let b = req.consequent.to_string();
            let first_b = trace.iter().position(|s| **s == *b.as_str());
            let first_a = trace.iter().position(|s| **s == *a.as_str());
            if let Some(pb) = first_b {
                let pa = first_a.expect("antecedent must appear before consequent");
                assert!(pa < pb, "seed {seed}: {req} violated by {trace:?}");
            }
        }
    }
}

#[test]
fn forwarding_chain_manual_equals_tool_assisted_per_hop_count() {
    // The strongest cross-validation: for the multi-hop forwarding
    // scenario, the tool-assisted pipeline on the extended APA elicits —
    // for the final receiver's display — exactly the requirements the
    // manual pipeline derives from the Fig. 4-style functional model,
    // modulo the action-naming convention (pos(GPS_k,pos) ↔ Vk_pos).
    use fsa::core::assisted::{elicit_from_graph, DependenceMethod};
    use fsa::vanet::forwarding::forwarding_chain_apa_n;

    for forwarders in 0..=2usize {
        // Manual side: χ of the functional model; translate to APA names.
        let manual = elicit(&forwarding_chain(forwarders)).unwrap();
        let receiver_tag = (forwarders + 2).to_string();
        let translate = |a: &fsa::core::Action| -> String {
            let idx = a
                .indices()
                .first()
                .map(|s| s.to_string())
                .unwrap_or_default();
            let tag = if idx == "w" {
                receiver_tag.clone()
            } else {
                idx
            };
            format!("V{tag}_{}", a.name())
        };
        let mut expected: Vec<String> = manual
            .requirements()
            .iter()
            .map(|r| {
                format!(
                    "auth({}, {}, D_{receiver_tag})",
                    translate(&r.antecedent),
                    translate(&r.consequent)
                )
            })
            .collect();
        expected.sort();

        // Tool side: precedence elicitation, restricted to the final show.
        let graph = forwarding_chain_apa_n(forwarders)
            .unwrap()
            .reachability(&ReachOptions::default())
            .unwrap();
        let report = elicit_from_graph(&graph, DependenceMethod::Precedence, stakeholder_of);
        let show = format!("V{receiver_tag}_show");
        let mut got: Vec<String> = report
            .requirements
            .iter()
            .filter(|r| r.consequent.to_string() == show)
            .map(ToString::to_string)
            .collect();
        got.sort();
        assert_eq!(got, expected, "forwarders = {forwarders}");
    }
}

#[test]
fn dead_simulated_state_is_a_reachability_dead_state() {
    let apa = two_vehicle_apa(ApaSemantics::PAPER).unwrap();
    let graph = apa.reachability(&ReachOptions::default()).unwrap();
    let dead = graph.dead_states();
    assert_eq!(dead.len(), 1);
    let mut sim = Simulator::new(&apa, 3);
    sim.run(1000).unwrap();
    assert_eq!(sim.state(), graph.state(dead[0]));
}
