//! Text rendering of elicitation results.
//!
//! Used by the `repro` binary to regenerate the paper's listings
//! (Examples 3, 6, 7 and the requirement lists of §4.4).

use crate::assisted::AssistedReport;
use crate::manual::ElicitationReport;
use crate::param::{parameterise, ReqForm};
use std::fmt::Write as _;

/// Renders a manual-pipeline report in the style of §4.4.
pub fn render_manual(report: &ElicitationReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Functional security analysis: {} ==",
        report.instance_name()
    );
    let _ = writeln!(
        s,
        "zeta (direct functional flows): {} pairs",
        report.zeta().len()
    );
    for (a, b) in report.zeta() {
        let _ = writeln!(s, "  ({a}, {b})");
    }
    let _ = writeln!(
        s,
        "zeta* (reflexive transitive closure): {} pairs",
        report.closure_size()
    );
    let _ = writeln!(s, "minimal elements (incoming boundary actions):");
    for a in report.minima() {
        let _ = writeln!(s, "  {a}");
    }
    let _ = writeln!(s, "maximal elements (outgoing boundary actions):");
    for a in report.maxima() {
        let _ = writeln!(s, "  {a}");
    }
    let _ = writeln!(
        s,
        "chi (min x max restriction): {} pairs",
        report.chi().len()
    );
    let _ = writeln!(s, "authenticity requirements:");
    for c in report.classified_requirements() {
        let _ = writeln!(s, "  {}   [{}]", c.requirement, c.relevance);
    }
    let _ = writeln!(
        s,
        "boundary statistics: {} component boundary actions, {} system boundary actions ({} maximal, {} minimal)",
        report.boundary().component_boundary_count(),
        report.boundary().system_boundary_count(),
        report.boundary().maximal.len(),
        report.boundary().minimal.len(),
    );
    s
}

/// Renders the parameterised (first-order) form of the requirement set.
pub fn render_parameterised(report: &ElicitationReport, min_group_size: usize) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "parameterised requirements:");
    for form in parameterise(&report.requirement_set(), min_group_size) {
        match &form {
            ReqForm::Plain(r) => {
                let _ = writeln!(s, "  {r}");
            }
            ReqForm::ForAll { .. } => {
                let _ = writeln!(s, "  {form}");
            }
        }
    }
    s
}

/// Renders a manual-pipeline report as a Markdown document (summary
/// table per requirement with classification), for inclusion in design
/// documentation.
pub fn render_markdown(report: &ElicitationReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "## Functional security analysis: {}\n",
        report.instance_name()
    );
    let _ = writeln!(
        s,
        "*|ζ| = {}, |ζ*| = {}; {} minimal and {} maximal elements; {} component boundary actions.*\n",
        report.zeta().len(),
        report.closure_size(),
        report.minima().len(),
        report.maxima().len(),
        report.boundary().component_boundary_count(),
    );
    let _ = writeln!(
        s,
        "| # | antecedent | consequent | stakeholder | relevance |"
    );
    let _ = writeln!(s, "|---|---|---|---|---|");
    for (i, c) in report.classified_requirements().iter().enumerate() {
        let _ = writeln!(
            s,
            "| {} | `{}` | `{}` | {} | {} |",
            i + 1,
            c.requirement.antecedent,
            c.requirement.consequent,
            c.requirement.stakeholder,
            c.relevance
        );
    }
    s
}

/// Renders an SoS instance to Graphviz DOT with one cluster per owning
/// component instance — the boxed-vehicle convention of the paper's
/// Figs. 2–4. Policy flows are dashed.
pub fn instance_to_dot(instance: &crate::SosInstance) -> String {
    use std::collections::BTreeMap;
    let g = instance.graph();
    let mut clusters: BTreeMap<&str, Vec<fsa_graph::NodeId>> = BTreeMap::new();
    for id in g.node_ids() {
        clusters.entry(instance.owner(id)).or_default().push(id);
    }
    let mut s = String::new();
    let _ = writeln!(s, "digraph instance {{");
    let _ = writeln!(s, "  rankdir=LR;");
    let _ = writeln!(s, "  node [shape=box, fontsize=10];");
    for (i, (owner, nodes)) in clusters.iter().enumerate() {
        let _ = writeln!(s, "  subgraph cluster_{i} {{");
        let _ = writeln!(s, "    label=\"{}\";", owner.replace('"', "'"));
        for id in nodes {
            let _ = writeln!(
                s,
                "    n{} [label=\"{}\"];",
                id.index(),
                instance.action(*id).to_string().replace('"', "'")
            );
        }
        let _ = writeln!(s, "  }}");
    }
    for (a, b) in g.edges() {
        let style = match instance.flow_kind(a, b) {
            Some(crate::instance::FlowKind::Policy) => " [style=dashed]",
            _ => "",
        };
        let _ = writeln!(s, "  n{} -> n{}{style};", a.index(), b.index());
    }
    s.push_str("}\n");
    s
}

/// Renders a tool-assisted report in the style of Examples 6/7.
pub fn render_assisted(report: &AssistedReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "reachability graph: {} states, {} transitions",
        report.state_count, report.edge_count
    );
    let _ = writeln!(s, "minima: {}", report.minima.join(", "));
    let _ = writeln!(s, "maxima: {}", report.maxima.join(", "));
    let _ = writeln!(s, "dependence matrix (min x max):");
    for v in &report.verdicts {
        let states = v
            .minimal_automaton_states
            .map(|n| format!(" ({n}-state minimal automaton)"))
            .unwrap_or_default();
        let _ = writeln!(
            s,
            "  {} -> {}: {}{}",
            v.minimum,
            v.maximum,
            if v.dependent {
                "dependent"
            } else {
                "independent"
            },
            states
        );
    }
    let _ = writeln!(s, "requirements:");
    for r in &report.requirements {
        let _ = writeln!(s, "  {r}");
    }
    s
}

/// Renders the dependence-checking engine's per-stage statistics
/// (the `--stats` output of the `fsa` binary).
pub fn render_stats(stats: &crate::assisted::PipelineStats) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "pipeline stats ({} fragment(s)):", stats.fragments);
    let _ = writeln!(
        s,
        "  reachability:    {:?} ({} state(s) built)",
        stats.reach, stats.reach_states
    );
    let _ = writeln!(s, "  min/max scan:    {:?}", stats.min_max);
    let _ = writeln!(s, "  pair evaluation: {:?}", stats.pair_eval);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::instance::SosInstanceBuilder;
    use crate::manual::elicit;

    fn sample_report() -> ElicitationReport {
        let mut b = SosInstanceBuilder::new("sample");
        let a = b.action(Action::parse("pos(GPS_2,pos)"), "D_2");
        let c = b.action(Action::parse("pos(GPS_3,pos)"), "D_3");
        let z = b.action(Action::parse("show(HMI_w,warn)"), "D_w");
        b.flow(a, z);
        b.flow(c, z);
        elicit(&b.build()).unwrap()
    }

    #[test]
    fn render_manual_contains_sections() {
        let text = render_manual(&sample_report());
        assert!(text.contains("zeta"));
        assert!(text.contains("minimal elements"));
        assert!(text.contains("authenticity requirements"));
        assert!(text.contains("auth(pos(GPS_2,pos), show(HMI_w,warn), D_w)"));
        assert!(text.contains("[safety]"));
    }

    #[test]
    fn render_markdown_table() {
        let text = render_markdown(&sample_report());
        assert!(text.starts_with("## Functional security analysis"));
        assert!(text.contains("| # | antecedent |"));
        assert!(text.contains("| 1 | `pos(GPS_2,pos)` | `show(HMI_w,warn)` | D_w | safety |"));
        assert!(text.contains("|ζ| = 2"));
    }

    #[test]
    fn render_parameterised_groups() {
        let text = render_parameterised(&sample_report(), 2);
        assert!(text.contains("forall x in {2,3}"));
    }

    #[test]
    fn instance_to_dot_clusters_by_owner() {
        use crate::instance::SosInstanceBuilder;
        let mut b = SosInstanceBuilder::new("t");
        let a = b.action_owned(Action::parse("sense(ESP_1,sW)"), "D_1", "V1");
        let c = b.action_owned(Action::parse("rec(CU_w,cam(pos))"), "D_w", "Vw");
        let d = b.action_owned(Action::parse("fwd(CU_w,cam(pos))"), "D_w", "Vw");
        b.flow(a, c);
        b.policy_flow(c, d);
        let dot = instance_to_dot(&b.build());
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains("label=\"V1\";"));
        assert!(dot.contains("label=\"Vw\";"));
        assert!(dot.contains("n0 -> n1;"));
        assert!(dot.contains("n1 -> n2 [style=dashed];"));
    }

    #[test]
    fn render_assisted_lists_verdicts() {
        use crate::action::Agent;
        use crate::assisted::{AssistedReport, PairVerdict};
        use crate::requirements::{AuthRequirement, RequirementSet};
        let report = AssistedReport {
            state_count: 12,
            edge_count: 20,
            minima: vec!["V1_sense".into()],
            maxima: vec!["V2_show".into()],
            verdicts: vec![PairVerdict {
                minimum: "V1_sense".into(),
                maximum: "V2_show".into(),
                dependent: true,
                minimal_automaton_states: Some(3),
            }],
            requirements: [AuthRequirement::new(
                Action::parse("V1_sense"),
                Action::parse("V2_show"),
                Agent::new("D_2"),
            )]
            .into_iter()
            .collect::<RequirementSet>(),
            stats: crate::assisted::PipelineStats::default(),
        };
        let text = render_assisted(&report);
        assert!(text.contains("12 states"));
        assert!(text.contains("dependent (3-state minimal automaton)"));
        assert!(text.contains("auth(V1_sense, V2_show, D_2)"));
    }

    #[test]
    fn render_stats_lists_stages() {
        let stats = crate::assisted::PipelineStats {
            pairs_total: 6,
            fragments: 3,
            reach_states: 87,
            ..Default::default()
        };
        let text = render_stats(&stats);
        let stages: Vec<&str> = text
            .lines()
            .map(|line| line.split(':').next().unwrap_or_default().trim())
            .collect();
        assert_eq!(
            stages,
            [
                "pipeline stats (3 fragment(s))",
                "reachability",
                "min/max scan",
                "pair evaluation"
            ]
        );
        assert!(text.contains("(87 state(s) built)"));
    }
}
