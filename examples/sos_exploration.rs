//! Instance-space exploration (§4.2): enumerate all structurally
//! different SoS compositions of the scenario's component models,
//! neglect isomorphic combinations, and union the elicited requirements
//! across instances (§4.4).
//!
//! Run with `cargo run --example sos_exploration`.

use fsa::core::explore::ExploreOptions;
use fsa::core::manual::elicit;
use fsa::vanet::exploration::explore_scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for max_vehicles in 1..=2 {
        let exploration = explore_scenario(max_vehicles, &ExploreOptions::default())?;
        let instances = &exploration.instances;
        println!(
            "universe with 1 RSU and up to {max_vehicles} vehicle(s): {} structurally \
             different connected instances",
            instances.len()
        );
        for inst in instances {
            let summary = match elicit(inst) {
                Ok(report) => format!(
                    "{} actions, {} requirements",
                    inst.action_count(),
                    report.requirements().len()
                ),
                Err(e) => format!("skipped ({e})"),
            };
            println!("  {:24} {summary}", inst.name());
        }
        // The engine unions the requirements of the classes it keeps.
        let union = &exploration.universe.requirements;
        println!(
            "union over the universe: {} requirements ({} cyclic compositions skipped)\n",
            union.len(),
            exploration.universe.loop_skipped
        );
        if max_vehicles == 2 {
            for r in union.iter().take(10) {
                println!("  {r}");
            }
            assert!(union
                .iter()
                .any(|r| r.antecedent.name() == "sense" && r.consequent.name() == "show"));
        }
    }
    Ok(())
}
