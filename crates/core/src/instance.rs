//! SoS instances: composed functional models.
//!
//! §4.2 of the paper: "the overall system of systems … consists of a
//! number of instances of the functional components. The synthesis of
//! the internal flow between the actions within the component instances
//! and the external flow between systems … builds the global system of
//! systems behaviour." An [`SosInstance`] is the resulting action graph,
//! with stakeholders and component ownership attached to each action.

use crate::action::{Action, Agent};
use fsa_graph::iso::CertifiedClasses;
use fsa_graph::{DiGraph, NodeId};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// The kind of a functional flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlowKind {
    /// A flow required by the system's (safety) function.
    Functional,
    /// A flow introduced by a policy for non-safety reasons (e.g. the
    /// position-based forwarding policy, introduced "for performance
    /// reasons, such that bandwidth is saved"). Dependencies that exist
    /// *only* through policy flows yield availability — not safety —
    /// requirements (§4.4, requirement (4)).
    Policy,
}

/// A concrete SoS instance: a functional flow graph over actions.
#[derive(Debug, Clone)]
pub struct SosInstance {
    name: String,
    graph: DiGraph<Action>,
    stakeholders: Vec<Agent>,
    owners: Vec<Arc<str>>,
    policy_edges: BTreeSet<(NodeId, NodeId)>,
}

impl SosInstance {
    /// The instance name (e.g. `"fig3: V1 warns Vw"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The functional flow graph.
    pub fn graph(&self) -> &DiGraph<Action> {
        &self.graph
    }

    /// Number of actions.
    pub fn action_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The action at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn action(&self, id: NodeId) -> &Action {
        self.graph.payload(id)
    }

    /// The stakeholder of the action at `id` — the agent that must be
    /// assured of requirements concerning this action.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn stakeholder(&self, id: NodeId) -> &Agent {
        &self.stakeholders[id.index()]
    }

    /// The owning component instance of the action at `id` (e.g. `"V1"`,
    /// `"RSU"`); actions without an explicit owner belong to `"env"`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn owner(&self, id: NodeId) -> &str {
        &self.owners[id.index()]
    }

    /// Finds the node of an action.
    pub fn find(&self, action: &Action) -> Option<NodeId> {
        self.graph.find_payload(action)
    }

    /// The kind of the flow `from → to`; `None` if there is no such
    /// flow.
    pub fn flow_kind(&self, from: NodeId, to: NodeId) -> Option<FlowKind> {
        if !self.graph.has_edge(from, to) {
            return None;
        }
        Some(if self.policy_edges.contains(&(from, to)) {
            FlowKind::Policy
        } else {
            FlowKind::Functional
        })
    }

    /// The subgraph containing only functional (non-policy) flows, used
    /// by the safety classification.
    pub fn functional_subgraph(&self) -> DiGraph<Action> {
        let mut g = DiGraph::with_capacity(self.graph.node_count());
        for (_, a) in self.graph.nodes() {
            g.add_node(a.clone());
        }
        for (x, y) in self.graph.edges() {
            if !self.policy_edges.contains(&(x, y)) {
                g.add_edge(x, y);
            }
        }
        g
    }

    /// A builder holding this instance, for composing it with further
    /// flows.
    pub(crate) fn to_builder(&self) -> SosInstanceBuilder {
        SosInstanceBuilder {
            name: self.name.clone(),
            graph: self.graph.clone(),
            stakeholders: self.stakeholders.clone(),
            owners: self.owners.clone(),
            policy_edges: self.policy_edges.clone(),
        }
    }

    /// The *shape* graph: actions with instance indices erased, labelled
    /// with the owning component's template identity. Two instances are
    /// structurally interchangeable iff their shape graphs are
    /// isomorphic.
    pub fn shape_graph(&self) -> DiGraph<String> {
        self.graph.map(|_, a| a.shape().to_string())
    }

    /// De-duplicates instances up to isomorphism of their shape graphs,
    /// keeping the first representative of each class. §4.2:
    /// "Isomorphic combinations can be neglected." Each shape graph is
    /// built once and bucketed by its certificate; exact isomorphism
    /// runs only within a bucket.
    pub fn dedup_isomorphic(instances: Vec<SosInstance>) -> Vec<SosInstance> {
        let mut classes = CertifiedClasses::new();
        instances
            .into_iter()
            .filter(|inst| classes.insert(inst.shape_graph()).is_some())
            .collect()
    }
}

impl fmt::Display for SosInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SoS instance `{}`:", self.name)?;
        for (id, a) in self.graph.nodes() {
            writeln!(
                f,
                "  [{}] {} (owner {})",
                id.index(),
                a,
                self.owners[id.index()]
            )?;
        }
        for (x, y) in self.graph.edges() {
            let kind = if self.policy_edges.contains(&(x, y)) {
                " [policy]"
            } else {
                ""
            };
            writeln!(
                f,
                "  {} -> {}{kind}",
                self.graph.payload(x),
                self.graph.payload(y)
            )?;
        }
        Ok(())
    }
}

/// Builder for [`SosInstance`].
///
/// # Examples
///
/// ```
/// use fsa_core::action::Action;
/// use fsa_core::instance::SosInstanceBuilder;
///
/// let mut b = SosInstanceBuilder::new("demo");
/// let a = b.action(Action::parse("in(x)"), "P");
/// let c = b.action(Action::parse("out(y)"), "P");
/// b.flow(a, c);
/// let inst = b.build();
/// assert_eq!(inst.action_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SosInstanceBuilder {
    name: String,
    graph: DiGraph<Action>,
    stakeholders: Vec<Agent>,
    owners: Vec<Arc<str>>,
    policy_edges: BTreeSet<(NodeId, NodeId)>,
}

impl SosInstanceBuilder {
    /// Starts a new instance named `name`.
    pub fn new(name: &str) -> Self {
        SosInstanceBuilder {
            name: name.to_owned(),
            graph: DiGraph::new(),
            stakeholders: Vec::new(),
            owners: Vec::new(),
            policy_edges: BTreeSet::new(),
        }
    }

    /// Adds an action with its stakeholder; the owner defaults to the
    /// stakeholder's name.
    pub fn action(&mut self, action: Action, stakeholder: &str) -> NodeId {
        self.action_owned(action, stakeholder, stakeholder)
    }

    /// Adds an action with an explicit owning component instance.
    pub fn action_owned(&mut self, action: Action, stakeholder: &str, owner: &str) -> NodeId {
        self.action_shared(action, Agent::new(stakeholder), Arc::from(owner))
    }

    /// Adds an action whose stakeholder and owner handles are shared
    /// with the other actions of its component instance.
    pub(crate) fn action_shared(
        &mut self,
        action: Action,
        stakeholder: Agent,
        owner: Arc<str>,
    ) -> NodeId {
        let id = self.graph.add_node(action);
        self.stakeholders.push(stakeholder);
        self.owners.push(owner);
        id
    }

    /// Adds a functional flow `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if either id was not created by this builder.
    pub fn flow(&mut self, from: NodeId, to: NodeId) {
        self.graph.add_edge(from, to);
        // A functional flow overrides an earlier policy marking.
        self.policy_edges.remove(&(from, to));
    }

    /// Adds a policy-motivated flow `from → to` (see
    /// [`FlowKind::Policy`]).
    ///
    /// # Panics
    ///
    /// Panics if either id was not created by this builder.
    pub fn policy_flow(&mut self, from: NodeId, to: NodeId) {
        if self.graph.add_edge(from, to) {
            self.policy_edges.insert((from, to));
        }
    }

    /// Number of actions added so far.
    pub fn action_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Finishes construction. (Loop-freedom is *not* checked here — the
    /// elicitation pipeline reports cycles with the offending actions.)
    pub fn build(self) -> SosInstance {
        SosInstance {
            name: self.name,
            graph: self.graph,
            stakeholders: self.stakeholders,
            owners: self.owners,
            policy_edges: self.policy_edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> SosInstance {
        let mut b = SosInstanceBuilder::new("t");
        let x = b.action_owned(Action::parse("sense(ESP_1,sW)"), "D_1", "V1");
        let y = b.action_owned(Action::parse("send(CU_1,cam(pos))"), "D_1", "V1");
        let z = b.action_owned(Action::parse("rec(CU_2,cam(pos))"), "D_2", "V2");
        b.flow(x, y);
        b.flow(y, z);
        b.build()
    }

    #[test]
    fn build_and_query() {
        let inst = simple();
        assert_eq!(inst.name(), "t");
        assert_eq!(inst.action_count(), 3);
        let x = inst.find(&Action::parse("sense(ESP_1,sW)")).unwrap();
        assert_eq!(inst.stakeholder(x).name(), "D_1");
        assert_eq!(inst.owner(x), "V1");
        assert!(inst.find(&Action::parse("nope")).is_none());
    }

    #[test]
    fn flow_kinds() {
        let mut b = SosInstanceBuilder::new("t");
        let a = b.action(Action::parse("a"), "P");
        let c = b.action(Action::parse("c"), "P");
        let d = b.action(Action::parse("d"), "P");
        b.flow(a, c);
        b.policy_flow(a, d);
        let inst = b.build();
        assert_eq!(inst.flow_kind(a, c), Some(FlowKind::Functional));
        assert_eq!(inst.flow_kind(a, d), Some(FlowKind::Policy));
        assert_eq!(inst.flow_kind(c, d), None);
    }

    #[test]
    fn functional_flow_overrides_policy() {
        let mut b = SosInstanceBuilder::new("t");
        let a = b.action(Action::parse("a"), "P");
        let c = b.action(Action::parse("c"), "P");
        b.policy_flow(a, c);
        b.flow(a, c);
        let inst = b.build();
        assert_eq!(inst.flow_kind(a, c), Some(FlowKind::Functional));
    }

    #[test]
    fn functional_subgraph_drops_policy_edges() {
        let mut b = SosInstanceBuilder::new("t");
        let a = b.action(Action::parse("a"), "P");
        let c = b.action(Action::parse("c"), "P");
        let d = b.action(Action::parse("d"), "P");
        b.flow(a, c);
        b.policy_flow(c, d);
        let inst = b.build();
        let g = inst.functional_subgraph();
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(a, c));
        assert!(!g.has_edge(c, d));
    }

    #[test]
    fn shape_graph_erases_indices() {
        let inst = simple();
        let shape = inst.shape_graph();
        let labels: Vec<&String> = shape.nodes().map(|(_, l)| l).collect();
        assert!(labels.contains(&&"sense(ESP,sW)".to_owned()));
        assert!(labels.contains(&&"rec(CU,cam(pos))".to_owned()));
    }

    #[test]
    fn dedup_isomorphic_instances() {
        // Same structure with different instance indices → one class.
        let make = |i: &str, j: &str| {
            let mut b = SosInstanceBuilder::new("x");
            let s = b.action(Action::parse(&format!("sense(ESP_{i},sW)")), "D");
            let t = b.action(Action::parse(&format!("send(CU_{j},cam(pos))")), "D");
            b.flow(s, t);
            b.build()
        };
        let reps = SosInstance::dedup_isomorphic(vec![make("1", "1"), make("3", "7")]);
        assert_eq!(reps.len(), 1);
        // Different structure survives.
        let mut b = SosInstanceBuilder::new("y");
        b.action(Action::parse("sense(ESP_1,sW)"), "D");
        let only_node = b.build();
        let reps = SosInstance::dedup_isomorphic(vec![make("1", "1"), only_node]);
        assert_eq!(reps.len(), 2);
    }

    #[test]
    fn display_lists_actions_and_flows() {
        let inst = simple();
        let s = inst.to_string();
        assert!(s.contains("sense(ESP_1,sW)"));
        assert!(s.contains("->"));
    }
}
