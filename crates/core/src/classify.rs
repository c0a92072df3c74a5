//! Safety evaluation of elicited requirements.
//!
//! §4.4: "the resulting requirements have to be evaluated regarding
//! their meaning for the functional safety of the system." The paper's
//! requirement (4) — authenticity of a *forwarding* vehicle's position —
//! originates from the position-based forwarding policy, which "is
//! introduced for performance reasons"; breaking it "cannot cause the
//! warning of a driver that should not be warned", so it is an
//! availability rather than a safety requirement.
//!
//! The mechanisation: a requirement `auth(a, b, P)` is **safety
//! relevant** iff `b` still depends on `a` when all policy-motivated
//! flows are removed, i.e. iff a path from `a` to `b` exists in the
//! functional (non-policy) subgraph. Otherwise the dependency exists
//! only through a policy and the requirement is classified
//! [`Relevance::Availability`].

use crate::error::FsaError;
use crate::instance::{FlowKind, SosInstance};
use crate::requirements::{AuthRequirement, Relevance};
use fsa_graph::closure::reflexive_transitive_closure;
use fsa_graph::DiGraph;

/// Classifies one requirement against its instance.
///
/// For many requirements over the same instance prefer [`Classifier`],
/// which computes the functional closure once.
///
/// # Errors
///
/// Returns [`FsaError::UnknownAction`] if the requirement's actions are
/// not part of `instance`.
pub fn classify(instance: &SosInstance, req: &AuthRequirement) -> Result<Relevance, FsaError> {
    Classifier::new(instance).classify(instance, req)
}

/// A reusable classifier holding the precomputed reflexive transitive
/// closure of the instance's functional (non-policy) subgraph.
#[derive(Debug, Clone)]
pub struct Classifier {
    closure: fsa_graph::closure::Relation,
}

impl Classifier {
    /// Precomputes the functional closure of `instance`: the closure of
    /// its non-policy flows, over node ids alone.
    pub fn new(instance: &SosInstance) -> Self {
        let g = instance.graph();
        let mut functional = DiGraph::with_capacity(g.node_count());
        for _ in g.node_ids() {
            functional.add_node(());
        }
        for (x, y) in g.edges() {
            if instance.flow_kind(x, y) == Some(FlowKind::Functional) {
                functional.add_edge(x, y);
            }
        }
        Classifier {
            closure: reflexive_transitive_closure(&functional),
        }
    }

    /// Classifies `req`; `instance` must be the one passed to
    /// [`Classifier::new`].
    ///
    /// # Errors
    ///
    /// Returns [`FsaError::UnknownAction`] if the requirement's actions
    /// are not part of `instance`.
    pub fn classify(
        &self,
        instance: &SosInstance,
        req: &AuthRequirement,
    ) -> Result<Relevance, FsaError> {
        let a = instance
            .find(&req.antecedent)
            .ok_or_else(|| FsaError::UnknownAction(req.antecedent.to_string()))?;
        let b = instance
            .find(&req.consequent)
            .ok_or_else(|| FsaError::UnknownAction(req.consequent.to_string()))?;
        Ok(self.classify_nodes(a, b))
    }

    /// Classifies a dependency given directly by node ids.
    pub fn classify_nodes(&self, a: fsa_graph::NodeId, b: fsa_graph::NodeId) -> Relevance {
        if self.closure.contains(a, b) {
            Relevance::Safety
        } else {
            Relevance::Availability
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, Agent};
    use crate::instance::SosInstanceBuilder;

    fn req(a: &str, b: &str) -> AuthRequirement {
        AuthRequirement::new(Action::parse(a), Action::parse(b), Agent::new("D_w"))
    }

    /// A miniature of Fig. 4: V2 forwards V1's warning to Vw. The flow
    /// pos(GPS_2) → fwd(CU_2) exists only because of the forwarding
    /// policy.
    fn forwarding_instance() -> SosInstance {
        let mut b = SosInstanceBuilder::new("fig4-mini");
        let sense1 = b.action(Action::parse("sense(ESP_1,sW)"), "D_1");
        let send1 = b.action(Action::parse("send(CU_1,cam(pos))"), "D_1");
        let rec2 = b.action(Action::parse("rec(CU_2,cam(pos))"), "D_2");
        let pos2 = b.action(Action::parse("pos(GPS_2,pos)"), "D_2");
        let fwd2 = b.action(Action::parse("fwd(CU_2,cam(pos))"), "D_2");
        let recw = b.action(Action::parse("rec(CU_w,cam(pos))"), "D_w");
        let show = b.action(Action::parse("show(HMI_w,warn)"), "D_w");
        b.flow(sense1, send1);
        b.flow(send1, rec2);
        b.flow(rec2, fwd2);
        b.policy_flow(pos2, fwd2); // the position-based forwarding policy
        b.flow(fwd2, recw);
        b.flow(recw, show);
        b.build()
    }

    #[test]
    fn functional_dependency_is_safety() {
        let inst = forwarding_instance();
        let r = req("sense(ESP_1,sW)", "show(HMI_w,warn)");
        assert_eq!(classify(&inst, &r).unwrap(), Relevance::Safety);
    }

    #[test]
    fn policy_only_dependency_is_availability() {
        // This is requirement (4) of the paper.
        let inst = forwarding_instance();
        let r = req("pos(GPS_2,pos)", "show(HMI_w,warn)");
        assert_eq!(classify(&inst, &r).unwrap(), Relevance::Availability);
    }

    #[test]
    fn unknown_action_reported() {
        let inst = forwarding_instance();
        let r = req("nope", "show(HMI_w,warn)");
        assert!(matches!(
            classify(&inst, &r),
            Err(FsaError::UnknownAction(_))
        ));
    }

    #[test]
    fn mixed_paths_count_as_safety() {
        // If a functional path exists besides a policy path, it is safety.
        let mut b = SosInstanceBuilder::new("t");
        let a = b.action(Action::parse("a"), "P");
        let m = b.action(Action::parse("m"), "P");
        let z = b.action(Action::parse("z"), "P");
        b.policy_flow(a, z);
        b.flow(a, m);
        b.flow(m, z);
        let inst = b.build();
        let r = req("a", "z");
        assert_eq!(classify(&inst, &r).unwrap(), Relevance::Safety);
    }
}
