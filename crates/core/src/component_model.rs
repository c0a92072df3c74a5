//! Functional component models (Fig. 1 of the paper).
//!
//! A [`ComponentModel`] describes one system type (a vehicle, a roadside
//! unit) by its template actions — parameterised by an instance index
//! `i` — and the internal functional flows among them. Instantiating the
//! model substitutes a concrete index (`i ↦ 1`) and adds the actions to
//! an [`SosInstanceBuilder`]; external flows between instances are then
//! connected explicitly, which is the *synthesis* step of §4.2.

use crate::action::{Action, Agent, Param};
use crate::error::FsaError;
use crate::instance::SosInstanceBuilder;
use fsa_graph::NodeId;
use std::sync::Arc;

/// Index of a template action within its [`ComponentModel`].
pub type TemplateActionId = usize;

/// A functional component model: template actions plus internal flows.
#[derive(Debug, Clone)]
pub struct ComponentModel {
    name: String,
    stakeholder_template: String,
    actions: Vec<Action>,
    flows: Vec<(TemplateActionId, TemplateActionId, bool)>, // (from, to, is_policy)
}

impl ComponentModel {
    /// Creates an empty model. `stakeholder_template` names the agent
    /// responsible for this component's actions, with the instance index
    /// as suffix — e.g. `"D_i"` for the driver of vehicle `i`.
    pub fn new(name: &str, stakeholder_template: &str) -> Self {
        ComponentModel {
            name: name.to_owned(),
            stakeholder_template: stakeholder_template.to_owned(),
            actions: Vec::new(),
            flows: Vec::new(),
        }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stakeholder template (the agent entitled to the results of
    /// every instance of this model).
    pub fn stakeholder_template(&self) -> &str {
        &self.stakeholder_template
    }

    /// Adds a template action (use index `i` in parameters, e.g.
    /// `sense(ESP_i,sW)`), returning its template id.
    pub fn action(&mut self, template: &str) -> TemplateActionId {
        self.add_action(Action::parse(template))
    }

    /// Adds a template action already built as an [`Action`], returning
    /// its template id.
    pub fn add_action(&mut self, template: Action) -> TemplateActionId {
        self.actions.push(template);
        self.actions.len() - 1
    }

    /// Adds an internal functional flow between two template actions.
    pub fn flow(&mut self, from: TemplateActionId, to: TemplateActionId) {
        self.flows.push((from, to, false));
    }

    /// Adds an internal policy-motivated flow (see
    /// [`crate::instance::FlowKind::Policy`]).
    pub fn policy_flow(&mut self, from: TemplateActionId, to: TemplateActionId) {
        self.flows.push((from, to, true));
    }

    /// The template actions.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// The internal flows as `(from, to, is_policy)` triples.
    pub fn flows(&self) -> &[(TemplateActionId, TemplateActionId, bool)] {
        &self.flows
    }

    /// Validates that all flows reference existing template actions.
    ///
    /// # Errors
    ///
    /// Returns [`FsaError::InvalidComponentModel`] on a dangling
    /// reference.
    pub fn validate(&self) -> Result<(), FsaError> {
        for &(from, to, _) in &self.flows {
            if from >= self.actions.len() || to >= self.actions.len() {
                return Err(FsaError::InvalidComponentModel {
                    reason: format!(
                        "flow ({from}, {to}) references a template action out of range (model `{}` has {})",
                        self.name,
                        self.actions.len()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Instantiates the model with a concrete `index`, adding all
    /// actions and internal flows to `builder`. Returns a handle for
    /// connecting external flows.
    ///
    /// # Errors
    ///
    /// Returns [`FsaError::InvalidComponentModel`] if the model fails
    /// [`ComponentModel::validate`].
    pub fn instantiate(
        &self,
        index: &str,
        builder: &mut SosInstanceBuilder,
    ) -> Result<ComponentInstance, FsaError> {
        self.validate()?;
        let stakeholder = Agent::new(&instantiate_name(&self.stakeholder_template, index));
        let owner: Arc<str> = if index.is_empty() {
            Arc::from(self.name.as_str())
        } else {
            Arc::from(format!("{}{}", self.name, index))
        };
        let nodes: Vec<NodeId> = self
            .actions
            .iter()
            .map(|template| {
                builder.action_shared(
                    template.rename_index("i", index),
                    stakeholder.clone(),
                    Arc::clone(&owner),
                )
            })
            .collect();
        for &(from, to, is_policy) in &self.flows {
            if is_policy {
                builder.policy_flow(nodes[from], nodes[to]);
            } else {
                builder.flow(nodes[from], nodes[to]);
            }
        }
        Ok(ComponentInstance { owner, nodes })
    }
}

/// Substitutes the index into a `Base_i` style template name.
fn instantiate_name(template: &str, index: &str) -> String {
    let p = Param::parse(template);
    match p.index() {
        Some("i") if !index.is_empty() => p.with_index(index).to_string(),
        _ => template.to_owned(),
    }
}

/// One instantiated component within an SoS instance under construction.
#[derive(Debug, Clone)]
pub struct ComponentInstance {
    owner: Arc<str>,
    nodes: Vec<NodeId>,
}

impl ComponentInstance {
    /// The owner label of this instance (e.g. `"V1"`).
    pub fn owner(&self) -> &str {
        &self.owner
    }

    /// The instance node of a template action.
    ///
    /// # Panics
    ///
    /// Panics if `template` is out of range.
    pub fn node(&self, template: TemplateActionId) -> NodeId {
        self.nodes[template]
    }

    /// All instance nodes, in template order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;

    /// The reduced vehicle model of Fig. 1(b) (without `fwd`).
    fn vehicle_model() -> (ComponentModel, [TemplateActionId; 5]) {
        let mut m = ComponentModel::new("V", "D_i");
        let sense = m.action("sense(ESP_i,sW)");
        let pos = m.action("pos(GPS_i,pos)");
        let send = m.action("send(CU_i,cam(pos))");
        let rec = m.action("rec(CU_i,cam(pos))");
        let show = m.action("show(HMI_i,warn)");
        m.flow(sense, send);
        m.flow(pos, send);
        m.flow(pos, show);
        m.flow(rec, show);
        (m, [sense, pos, send, rec, show])
    }

    #[test]
    fn instantiate_substitutes_index() {
        let (m, [sense, _, _, _, show]) = vehicle_model();
        let mut b = SosInstanceBuilder::new("t");
        let v1 = m.instantiate("1", &mut b).unwrap();
        let inst = b.build();
        assert_eq!(
            inst.action(v1.node(sense)),
            &Action::parse("sense(ESP_1,sW)")
        );
        assert_eq!(inst.stakeholder(v1.node(show)).name(), "D_1");
        assert_eq!(inst.owner(v1.node(show)), "V1");
        assert_eq!(v1.owner(), "V1");
    }

    #[test]
    fn instantiate_twice_and_connect() {
        let (m, [_, _, send, rec, show]) = vehicle_model();
        let mut b = SosInstanceBuilder::new("t");
        let v1 = m.instantiate("1", &mut b).unwrap();
        let vw = m.instantiate("w", &mut b).unwrap();
        // external flow: V1 send → Vw rec
        b.flow(v1.node(send), vw.node(rec));
        let inst = b.build();
        assert_eq!(inst.action_count(), 10);
        assert!(inst.graph().has_edge(v1.node(send), vw.node(rec)));
        assert_eq!(
            inst.action(vw.node(show)),
            &Action::parse("show(HMI_w,warn)")
        );
    }

    #[test]
    fn empty_index_keeps_names() {
        let mut m = ComponentModel::new("RSU", "Operator");
        let send = m.action("send(cam(pos))");
        let mut b = SosInstanceBuilder::new("t");
        let rsu = m.instantiate("", &mut b).unwrap();
        let inst = b.build();
        assert_eq!(
            inst.action(rsu.node(send)),
            &Action::parse("send(cam(pos))")
        );
        assert_eq!(inst.owner(rsu.node(send)), "RSU");
        assert_eq!(inst.stakeholder(rsu.node(send)).name(), "Operator");
    }

    #[test]
    fn policy_flows_instantiate_as_policy() {
        let mut m = ComponentModel::new("V", "D_i");
        let pos = m.action("pos(GPS_i,pos)");
        let fwd = m.action("fwd(CU_i,cam(pos))");
        m.policy_flow(pos, fwd);
        let mut b = SosInstanceBuilder::new("t");
        let v = m.instantiate("2", &mut b).unwrap();
        let inst = b.build();
        assert_eq!(
            inst.flow_kind(v.node(pos), v.node(fwd)),
            Some(crate::instance::FlowKind::Policy)
        );
    }

    #[test]
    fn invalid_flow_detected() {
        let mut m = ComponentModel::new("X", "P");
        m.action("a");
        m.flows.push((0, 7, false));
        assert!(m.validate().is_err());
        let mut b = SosInstanceBuilder::new("t");
        assert!(m.instantiate("1", &mut b).is_err());
    }

    #[test]
    fn accessors() {
        let (m, _) = vehicle_model();
        assert_eq!(m.name(), "V");
        assert_eq!(m.actions().len(), 5);
        assert_eq!(m.flows().len(), 4);
    }
}
