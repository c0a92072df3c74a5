//! The manual elicitation pipeline (§4 of the paper).
//!
//! From an [`SosInstance`]:
//!
//! 1. interpret the functional flow as the relation `ζ` on actions,
//! 2. construct the reflexive transitive closure `ζ*` (a partial order
//!    for loop-free flows),
//! 3. identify the minimal elements (incoming boundary actions) and the
//!    maximal elements (outgoing boundary actions),
//! 4. restrict `ζ*` to (minimal, maximal) pairs: the relation `χ`,
//! 5. emit `auth(x, y, stakeholder(y))` for every `(x, y) ∈ χ`, and
//! 6. evaluate every requirement's safety relevance (§4.4 /
//!    [`crate::classify`]).

use crate::action::Action;
use crate::boundary::{boundary_stats, BoundaryStats};
use crate::classify::Classifier;
use crate::error::FsaError;
use crate::instance::SosInstance;
use crate::requirements::{AuthRequirement, Relevance, RequirementSet};
use fsa_graph::closure::{closure_acyclic, reflexive_transitive_closure, Relation};
use fsa_graph::{GraphError, NodeId, PartialOrder};

/// A requirement together with its safety evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifiedRequirement {
    /// The requirement.
    pub requirement: AuthRequirement,
    /// Its relevance (safety vs. availability).
    pub relevance: Relevance,
}

/// The result of one manual elicitation run.
#[derive(Debug, Clone)]
pub struct ElicitationReport {
    instance_name: String,
    zeta: Vec<(Action, Action)>,
    closure_size: usize,
    minima: Vec<Action>,
    maxima: Vec<Action>,
    chi: Vec<(Action, Action)>,
    requirements: Vec<ClassifiedRequirement>,
    boundary: BoundaryStats,
}

impl ElicitationReport {
    /// Name of the analysed instance.
    pub fn instance_name(&self) -> &str {
        &self.instance_name
    }

    /// The direct functional-flow relation `ζ`.
    pub fn zeta(&self) -> &[(Action, Action)] {
        &self.zeta
    }

    /// `|ζ*|` — the number of pairs in the reflexive transitive closure.
    pub fn closure_size(&self) -> usize {
        self.closure_size
    }

    /// The minimal elements (incoming boundary actions).
    pub fn minima(&self) -> &[Action] {
        &self.minima
    }

    /// The maximal elements (outgoing boundary actions).
    pub fn maxima(&self) -> &[Action] {
        &self.maxima
    }

    /// The restriction `χ` of `ζ*` to (minimal, maximal) pairs.
    pub fn chi(&self) -> &[(Action, Action)] {
        &self.chi
    }

    /// The elicited requirements with their classification, in χ order.
    pub fn classified_requirements(&self) -> &[ClassifiedRequirement] {
        &self.requirements
    }

    /// The elicited requirements as a canonical [`RequirementSet`].
    pub fn requirement_set(&self) -> RequirementSet {
        self.requirements
            .iter()
            .map(|c| c.requirement.clone())
            .collect()
    }

    /// The elicited requirements, in χ order (antecedents grouped by
    /// consequent).
    pub fn requirements(&self) -> Vec<AuthRequirement> {
        self.requirements
            .iter()
            .map(|c| c.requirement.clone())
            .collect()
    }

    /// Only the safety-relevant requirements.
    pub fn safety_requirements(&self) -> Vec<AuthRequirement> {
        self.requirements
            .iter()
            .filter(|c| c.relevance == Relevance::Safety)
            .map(|c| c.requirement.clone())
            .collect()
    }

    /// Boundary statistics of the instance.
    pub fn boundary(&self) -> &BoundaryStats {
        &self.boundary
    }
}

/// The relation `χ` of `instance` as node pairs (steps 2–4 above):
/// `ζ*` → (minimal, maximal) restriction, ordered by maximal element
/// first (requirements grouped per output action, as the paper lists
/// them), then by antecedent node.
///
/// Every `(x, y)` yields `auth(action(x), action(y), stakeholder(y))`;
/// this is all the §4.4 union needs of an instance, so it never builds an
/// [`ElicitationReport`].
///
/// # Errors
///
/// * [`FsaError::CircularDependency`] if the functional flow has a
///   cycle (the paper's loop-freedom assumption is violated).
pub fn chi_nodes(instance: &SosInstance) -> Result<Vec<(NodeId, NodeId)>, FsaError> {
    flow_order(instance).map(|order| order.chi())
}

/// `ζ*` of an instance's functional flow with its minimal and maximal
/// elements, each list in node order.
struct FlowOrder {
    closure: Relation,
    minima: Vec<NodeId>,
    maxima: Vec<NodeId>,
}

impl FlowOrder {
    /// `χ` in report order (see [`chi_nodes`]): for each maximum `y`,
    /// the minima `x ≠ y` below it.
    fn chi(&self) -> Vec<(NodeId, NodeId)> {
        let mut chi = Vec::new();
        for &y in &self.maxima {
            for &x in &self.minima {
                if x != y && self.closure.contains(x, y) {
                    chi.push((x, y));
                }
            }
        }
        chi
    }
}

/// `ζ*` of the instance's functional flow as a partial order.
///
/// A loop-free flow — the paper's assumption — is read off its DAG: the
/// topological sort that builds the closure proves it a partial order,
/// whose minima are the flow's sources and maxima its sinks. A flow
/// with a cycle goes through [`PartialOrder::try_new`], which names a
/// pair on a cycle and accepts a self-loop alone.
fn flow_order(instance: &SosInstance) -> Result<FlowOrder, FsaError> {
    let g = instance.graph();
    if let Ok(mut closure) = closure_acyclic(g) {
        closure.make_reflexive();
        return Ok(FlowOrder {
            closure,
            minima: g.sources(),
            maxima: g.sinks(),
        });
    }
    let order = PartialOrder::try_new(reflexive_transitive_closure(g)).map_err(|e| match e {
        GraphError::NotAntisymmetric(a, b) => FsaError::CircularDependency {
            first: instance.action(a).clone(),
            second: instance.action(b).clone(),
        },
        other => FsaError::InvalidComponentModel {
            reason: other.to_string(),
        },
    })?;
    Ok(FlowOrder {
        minima: order.minimal_elements(),
        maxima: order.maximal_elements(),
        closure: order.relation().clone(),
    })
}

/// Runs the manual pipeline on one instance.
///
/// # Errors
///
/// * [`FsaError::CircularDependency`] if the functional flow has a
///   cycle (the paper's loop-freedom assumption is violated).
pub fn elicit(instance: &SosInstance) -> Result<ElicitationReport, FsaError> {
    let g = instance.graph();
    // The report also lists |ζ*|, the minima and the maxima, so it keeps
    // the order [`chi_nodes`] would drop.
    let order = flow_order(instance)?;
    let chi_nodes = order.chi();

    let classifier = Classifier::new(instance);
    let mut requirements = Vec::with_capacity(chi_nodes.len());
    for &(x, y) in &chi_nodes {
        let req = AuthRequirement::new(
            instance.action(x).clone(),
            instance.action(y).clone(),
            instance.stakeholder(y).clone(),
        );
        let relevance = classifier.classify_nodes(x, y);
        requirements.push(ClassifiedRequirement {
            requirement: req,
            relevance,
        });
    }

    Ok(ElicitationReport {
        instance_name: instance.name().to_owned(),
        zeta: g
            .edges()
            .map(|(a, b)| (instance.action(a).clone(), instance.action(b).clone()))
            .collect(),
        closure_size: order.closure.len(),
        minima: order
            .minima
            .iter()
            .map(|&n| instance.action(n).clone())
            .collect(),
        maxima: order
            .maxima
            .iter()
            .map(|&n| instance.action(n).clone())
            .collect(),
        chi: chi_nodes
            .iter()
            .map(|&(x, y)| (instance.action(x).clone(), instance.action(y).clone()))
            .collect(),
        requirements,
        boundary: boundary_stats(instance),
    })
}

/// Explains a requirement by a shortest functional-flow path from its
/// antecedent to its consequent — the dependency chain an architect
/// reviews when judging the requirement (as §4.4 does for requirement
/// (4)). Returns `None` if either action is missing or no path exists.
pub fn explain(instance: &SosInstance, req: &AuthRequirement) -> Option<Vec<Action>> {
    let a = instance.find(&req.antecedent)?;
    let b = instance.find(&req.consequent)?;
    let path = fsa_graph::path::shortest_path(instance.graph(), a, b)?;
    Some(
        path.into_iter()
            .map(|n| instance.action(n).clone())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::SosInstanceBuilder;

    /// The paper's Fig. 3 instance (Example 3).
    fn fig3() -> SosInstance {
        let mut b = SosInstanceBuilder::new("fig3");
        let sense = b.action_owned(Action::parse("sense(ESP_1,sW)"), "D_1", "V1");
        let pos1 = b.action_owned(Action::parse("pos(GPS_1,pos)"), "D_1", "V1");
        let send = b.action_owned(Action::parse("send(CU_1,cam(pos))"), "D_1", "V1");
        let rec = b.action_owned(Action::parse("rec(CU_w,cam(pos))"), "D_w", "Vw");
        let posw = b.action_owned(Action::parse("pos(GPS_w,pos)"), "D_w", "Vw");
        let show = b.action_owned(Action::parse("show(HMI_w,warn)"), "D_w", "Vw");
        b.flow(sense, send);
        b.flow(pos1, send);
        b.flow(send, rec);
        b.flow(rec, show);
        b.flow(posw, show);
        b.build()
    }

    #[test]
    fn example3_zeta_star_has_16_pairs() {
        // ζ₁ (5) ∪ reflexive (6) ∪ derived (5).
        let report = elicit(&fig3()).unwrap();
        assert_eq!(report.zeta().len(), 5);
        assert_eq!(report.closure_size(), 16);
    }

    #[test]
    fn example3_chi_gives_requirements_1_to_3() {
        let report = elicit(&fig3()).unwrap();
        assert_eq!(report.minima().len(), 3);
        assert_eq!(report.maxima(), &[Action::parse("show(HMI_w,warn)")]);
        let reqs: Vec<String> = report
            .requirements()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            reqs,
            vec![
                "auth(sense(ESP_1,sW), show(HMI_w,warn), D_w)",
                "auth(pos(GPS_1,pos), show(HMI_w,warn), D_w)",
                "auth(pos(GPS_w,pos), show(HMI_w,warn), D_w)",
            ]
        );
    }

    #[test]
    fn example3_all_safety_relevant() {
        let report = elicit(&fig3()).unwrap();
        assert!(report
            .classified_requirements()
            .iter()
            .all(|c| c.relevance == Relevance::Safety));
        assert_eq!(report.safety_requirements().len(), 3);
    }

    #[test]
    fn stakeholder_is_of_the_consequent() {
        let report = elicit(&fig3()).unwrap();
        assert!(report
            .requirements()
            .iter()
            .all(|r| r.stakeholder.name() == "D_w"));
    }

    #[test]
    fn cycle_reported_with_actions() {
        let mut b = SosInstanceBuilder::new("cyclic");
        let a = b.action(Action::parse("a"), "P");
        let c = b.action(Action::parse("c"), "P");
        b.flow(a, c);
        b.flow(c, a);
        let instance = b.build();
        match elicit(&instance) {
            Err(FsaError::CircularDependency { first, second }) => {
                assert_ne!(first, second);
            }
            other => panic!("expected cycle error, got {other:?}"),
        }
        assert!(matches!(
            chi_nodes(&instance),
            Err(FsaError::CircularDependency { .. })
        ));
    }

    #[test]
    fn a_self_loop_is_no_circular_dependency() {
        // The looped action has itself as a predecessor, so it is no
        // source of the flow graph, yet it is minimal in ζ*.
        let mut b = SosInstanceBuilder::new("looped");
        let a = b.action(Action::parse("tick(CLK_1)"), "D_1");
        let c = b.action(Action::parse("show(HMI_1,warn)"), "D_1");
        b.flow(a, a);
        b.flow(a, c);
        let instance = b.build();
        let report = elicit(&instance).unwrap();
        assert_eq!(report.closure_size(), 3);
        assert_eq!(report.minima(), &[Action::parse("tick(CLK_1)")]);
        assert_eq!(report.maxima(), &[Action::parse("show(HMI_1,warn)")]);
        assert_eq!(chi_nodes(&instance).unwrap(), vec![(a, c)]);
    }

    #[test]
    fn empty_instance() {
        let report = elicit(&SosInstanceBuilder::new("empty").build()).unwrap();
        assert!(report.requirements().is_empty());
        assert_eq!(report.closure_size(), 0);
    }

    #[test]
    fn explain_gives_dependency_chain() {
        let inst = fig3();
        let report = elicit(&inst).unwrap();
        let req = &report.requirements()[0]; // sense → show
        let chain = explain(&inst, req).unwrap();
        let labels: Vec<String> = chain.iter().map(ToString::to_string).collect();
        assert_eq!(
            labels,
            vec![
                "sense(ESP_1,sW)",
                "send(CU_1,cam(pos))",
                "rec(CU_w,cam(pos))",
                "show(HMI_w,warn)",
            ]
        );
    }

    #[test]
    fn explain_none_for_unrelated_actions() {
        let inst = fig3();
        let bogus = crate::requirements::AuthRequirement::new(
            Action::parse("show(HMI_w,warn)"),
            Action::parse("sense(ESP_1,sW)"),
            crate::action::Agent::new("D_w"),
        );
        assert_eq!(explain(&inst, &bogus), None);
        let missing = crate::requirements::AuthRequirement::new(
            Action::parse("ghost"),
            Action::parse("show(HMI_w,warn)"),
            crate::action::Agent::new("D_w"),
        );
        assert_eq!(explain(&inst, &missing), None);
    }

    #[test]
    fn chi_nodes_are_the_reports_chi() {
        let inst = fig3();
        let report = elicit(&inst).unwrap();
        let chi: Vec<(Action, Action)> = chi_nodes(&inst)
            .unwrap()
            .into_iter()
            .map(|(x, y)| (inst.action(x).clone(), inst.action(y).clone()))
            .collect();
        assert_eq!(chi, report.chi());
    }

    #[test]
    fn requirement_set_dedups() {
        let report = elicit(&fig3()).unwrap();
        assert_eq!(report.requirement_set().len(), 3);
    }
}
