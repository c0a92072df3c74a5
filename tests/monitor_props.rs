//! Property tests linking §4/§5 elicitation to runtime checking.
//!
//! 1. **Soundness of the loop**: a monitor bank compiled from the
//!    requirements elicited for an instance must report **zero**
//!    violations on fault-free simulator traces of the same instance —
//!    elicited precedence properties hold on every honest run, and the
//!    latched `SEEN` state makes episode concatenation conservative.
//! 2. **Determinism**: fleet violation reports (counts *and* first
//!    counterexamples) are bit-identical at 1/2/4/8 worker threads,
//!    with and without fault injection.

use fsa::apa::sim::Fault;
use fsa::apa::{rule, Apa, ApaBuilder, ReachOptions, Value};
use fsa::core::assisted::{elicit_from_graph, DependenceMethod};
use fsa::core::Agent;
use fsa::runtime::{monitor_apa, FleetConfig, MonitorBank};
use proptest::prelude::*;

/// A random token-mover APA: forward-only token flow, so runs
/// terminate and the reachability graph is finite (same family as
/// `arb_apa` in `tests/kernel_differential.rs`).
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

/// Elicits the APA's own requirements (§5 precedence pipeline).
fn elicit_own_requirements(apa: &Apa) -> fsa::core::requirements::RequirementSet {
    let graph = apa.reachability(&ReachOptions::default()).expect("finite");
    elicit_from_graph(&graph, DependenceMethod::Precedence, |_| Agent::new("P")).requirements
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fault-free fleets never violate the requirements elicited from
    /// the very model that generates the traces.
    #[test]
    fn fault_free_traces_trip_no_monitor(apa in arb_apa(), seed in any::<u64>()) {
        let set = elicit_own_requirements(&apa);
        if set.is_empty() {
            return; // nothing elicitable for this shape
        }
        let cfg = FleetConfig {
            streams: 6,
            events_per_stream: 96,
            seed,
            threads: 2,
            ..FleetConfig::default()
        };
        let (_, report) = monitor_apa(&apa, &set, &cfg).expect("fleet runs");
        prop_assert!(report.is_clean(), "violations on honest traces:\n{}", report.render());
        prop_assert!(report.events > 0);
    }

    /// Violation reports are bit-identical across 1/2/4/8 threads —
    /// honest and under injected faults alike.
    #[test]
    fn reports_bit_identical_across_threads(
        apa in arb_apa(),
        seed in any::<u64>(),
        fault_pick in 0usize..4,
        window in 2usize..6,
    ) {
        let set = elicit_own_requirements(&apa);
        if set.is_empty() {
            return;
        }
        // Target the antecedent/consequent of the first requirement so
        // drops and spoofs actually matter.
        let first = set.iter().next().expect("non-empty");
        let fault = match fault_pick {
            0 => None,
            1 => Some(Fault::Drop { action: first.antecedent.to_string() }),
            2 => Some(Fault::Spoof { action: first.consequent.to_string() }),
            _ => Some(Fault::Reorder { window }),
        };
        let mut renders = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let cfg = FleetConfig {
                streams: 11,
                events_per_stream: 64,
                seed,
                threads,
                fault: fault.clone(),
                ..FleetConfig::default()
            };
            let (_, report) = monitor_apa(&apa, &set, &cfg).expect("fleet runs");
            renders.push(report.render());
        }
        prop_assert!(
            renders.windows(2).all(|w| w[0] == w[1]),
            "fault {fault:?}:\n{renders:?}"
        );
    }

    /// Spoofing a consequent at stream start trips exactly the
    /// monitors with that consequent; reordering with window 1 is the
    /// identity (still clean).
    #[test]
    fn spoof_trips_exactly_expected_monitors(apa in arb_apa(), seed in any::<u64>()) {
        let set = elicit_own_requirements(&apa);
        if set.is_empty() {
            return;
        }
        let victim = set.iter().next().expect("non-empty").consequent.to_string();
        let cfg = FleetConfig {
            streams: 4,
            events_per_stream: 64,
            seed,
            threads: 2,
            fault: Some(Fault::Spoof { action: victim.clone() }),
            ..FleetConfig::default()
        };
        let (bank, report) = monitor_apa(&apa, &set, &cfg).expect("fleet runs");
        for (meta, verdict) in bank.monitors().iter().zip(&report.verdicts) {
            let expected = meta.requirement.consequent.to_string() == victim;
            prop_assert_eq!(
                !verdict.holds(),
                expected,
                "monitor {} against spoof of {}", verdict.requirement, victim
            );
            if expected {
                let ce = verdict.first.as_ref().expect("violated");
                prop_assert_eq!(ce.event_index, 0, "spoof is the first event");
                prop_assert_eq!(ce.prefix.clone(), vec![victim.clone()]);
            }
        }

        let identity = FleetConfig {
            fault: Some(Fault::Reorder { window: 1 }),
            ..cfg
        };
        let (_, clean) = monitor_apa(&apa, &set, &identity).expect("fleet runs");
        prop_assert!(clean.is_clean(), "window-1 reorder must be the identity");
    }
}

/// The vehicular forwarding chain, fault-free, stays clean for many
/// seeds — the concrete §4.4 instance of the property above.
#[test]
fn forwarding_chain_fleet_is_clean() {
    let apa = fsa::vanet::forwarding::forwarding_chain_apa().unwrap();
    let graph = apa.reachability(&ReachOptions::default()).unwrap();
    let set = elicit_from_graph(
        &graph,
        DependenceMethod::Precedence,
        fsa::vanet::apa_model::stakeholder_of,
    )
    .requirements;
    let bank = MonitorBank::for_apa(&set, &apa).unwrap();
    assert_eq!(bank.len(), set.len());
    for seed in 0..8u64 {
        let cfg = FleetConfig {
            streams: 5,
            events_per_stream: 300,
            seed,
            threads: 4,
            ..FleetConfig::default()
        };
        let report = fsa::runtime::run_fleet(&apa, &bank, &cfg).unwrap();
        assert!(report.is_clean(), "seed {seed}:\n{}", report.render());
    }
}
