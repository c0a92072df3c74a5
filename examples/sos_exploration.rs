//! Instance-space exploration (§4.2): enumerate all structurally
//! different SoS compositions of the scenario's component models,
//! neglect isomorphic combinations, and union the elicited requirements
//! across instances (§4.4).
//!
//! Run with `cargo run --example sos_exploration`.

use fsa::core::explore::{union_requirements, ExploreOptions};
use fsa::core::manual::elicit;
use fsa::exec::Supervisor;
use fsa::vanet::exploration::enumerate_scenario_instances;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for max_vehicles in 1..=2 {
        let instances = enumerate_scenario_instances(max_vehicles, &ExploreOptions::default())?;
        println!(
            "universe with 1 RSU and up to {max_vehicles} vehicle(s): {} structurally \
             different connected instances",
            instances.len()
        );
        for inst in &instances {
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
        let union = union_requirements(&instances, 1, &Supervisor::new())?;
        println!(
            "union over the universe: {} requirements ({} cyclic compositions skipped)\n",
            union.requirements.len(),
            union.loop_skipped
        );
        let union = union.requirements;
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
