//! Lowering the AST to [`fsa_core::SosInstance`] values.

use crate::ast::{File, InstanceDecl, ModelDecl, Term};
use crate::error::ParseError;
use fsa_core::action::{Action, Param};
use fsa_core::component_model::ComponentModel;
use fsa_core::instance::{SosInstance, SosInstanceBuilder};
use std::collections::HashMap;

/// Lowers a parsed file to SoS instances.
///
/// # Errors
///
/// Returns [`ParseError`] on duplicate action identifiers, flows
/// referencing undeclared actions, `use` of unknown models, or
/// `connect` endpoints that do not resolve.
pub fn lower(file: &File<'_>) -> Result<Vec<SosInstance>, ParseError> {
    let mut models: HashMap<&str, (ComponentModel, HashMap<&str, usize>)> = HashMap::new();
    for m in &file.models {
        if models.contains_key(m.name) {
            return Err(ParseError::new(
                m.span,
                format!("duplicate model `{}`", m.name),
            ));
        }
        models.insert(m.name, lower_model(m)?);
    }
    file.instances
        .iter()
        .map(|inst| lower_instance(inst, &models))
        .collect()
}

/// Builds a [`ComponentModel`] plus the action-id lookup table.
fn lower_model<'a>(
    decl: &ModelDecl<'a>,
) -> Result<(ComponentModel, HashMap<&'a str, usize>), ParseError> {
    let mut model = ComponentModel::new(decl.name, decl.stakeholder);
    let mut ids: HashMap<&str, usize> = HashMap::new();
    for a in &decl.actions {
        if ids.contains_key(a.id) {
            return Err(ParseError::new(
                a.span,
                format!(
                    "duplicate action identifier `{}` in model `{}`",
                    a.id, decl.name
                ),
            ));
        }
        let template = model.add_action(term_to_action(&a.term));
        ids.insert(a.id, template);
    }
    for f in &decl.flows {
        let from = *ids.get(f.from).ok_or_else(|| {
            ParseError::new(
                f.span,
                format!("flow references undeclared action `{}`", f.from),
            )
        })?;
        let to = *ids.get(f.to).ok_or_else(|| {
            ParseError::new(
                f.span,
                format!("flow references undeclared action `{}`", f.to),
            )
        })?;
        if f.policy {
            model.policy_flow(from, to);
        } else {
            model.flow(from, to);
        }
    }
    Ok((model, ids))
}

fn lower_instance(
    decl: &InstanceDecl<'_>,
    models: &HashMap<&str, (ComponentModel, HashMap<&str, usize>)>,
) -> Result<SosInstance, ParseError> {
    let mut builder = SosInstanceBuilder::new(decl.name);
    let mut by_id = HashMap::with_capacity(decl.actions.len());
    for a in &decl.actions {
        if by_id.contains_key(a.id) {
            return Err(ParseError::new(
                a.span,
                format!("duplicate action identifier `{}`", a.id),
            ));
        }
        let stakeholder = a.stakeholder.unwrap_or("env");
        let owner = a.owner.unwrap_or(stakeholder);
        let node = builder.action_owned(term_to_action(&a.term), stakeholder, owner);
        by_id.insert(a.id, node);
    }

    // Instantiate used component models.
    let mut components: HashMap<
        &str,
        (
            fsa_core::component_model::ComponentInstance,
            &HashMap<&str, usize>,
        ),
    > = HashMap::new();
    for u in &decl.uses {
        let (model, ids) = models.get(u.model).ok_or_else(|| {
            ParseError::new(u.span, format!("use of unknown model `{}`", u.model))
        })?;
        if components.contains_key(u.alias) {
            return Err(ParseError::new(
                u.span,
                format!("duplicate component alias `{}`", u.alias),
            ));
        }
        let handle = model
            .instantiate(u.index, &mut builder)
            .map_err(|e| ParseError::new(u.span, e.to_string()))?;
        components.insert(u.alias, (handle, ids));
    }

    for f in &decl.flows {
        let from = *by_id.get(f.from).ok_or_else(|| {
            ParseError::new(
                f.span,
                format!("flow references undeclared action `{}`", f.from),
            )
        })?;
        let to = *by_id.get(f.to).ok_or_else(|| {
            ParseError::new(
                f.span,
                format!("flow references undeclared action `{}`", f.to),
            )
        })?;
        if f.policy {
            builder.policy_flow(from, to);
        } else {
            builder.flow(from, to);
        }
    }

    for c in &decl.connects {
        let resolve = |alias: &str, action: &str| -> Result<fsa_graph::NodeId, ParseError> {
            let (handle, ids) = components.get(alias).ok_or_else(|| {
                ParseError::new(
                    c.span,
                    format!("connect references unknown component `{alias}`"),
                )
            })?;
            let template = *ids.get(action).ok_or_else(|| {
                ParseError::new(
                    c.span,
                    format!("component `{alias}` has no action `{action}`"),
                )
            })?;
            Ok(handle.node(template))
        };
        let from = resolve(c.from_alias, c.from_action)?;
        let to = resolve(c.to_alias, c.to_action)?;
        if c.policy {
            builder.policy_flow(from, to);
        } else {
            builder.flow(from, to);
        }
    }
    Ok(builder.build())
}

/// Converts a parsed term into an [`Action`]: the head is the action's
/// name, and each top-level argument's text is one parameter, so a
/// nested argument such as `cam(pos)` is a parameter of that base name,
/// as [`Action::parse`] reads the term's text.
fn term_to_action(term: &Term<'_>) -> Action {
    Action::new(
        term.head,
        term.args.iter().map(|arg| {
            if arg.args.is_empty() {
                Param::parse(arg.head)
            } else {
                Param::parse(&arg.to_string())
            }
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;
    use fsa_core::instance::FlowKind;

    fn lower_src(src: &str) -> Result<Vec<SosInstance>, ParseError> {
        lower(&parse_file(src).unwrap())
    }

    #[test]
    fn lowers_actions_flows_and_metadata() {
        let src = r#"
        instance "t" {
            action a = sense(ESP_1, sW) owner V1 stakeholder D_1;
            action b = show(HMI_1, warn) stakeholder D_1;
            action c = tick;
            flow a -> b;
            policy flow c -> b;
        }
        "#;
        let instances = lower_src(src).unwrap();
        assert_eq!(instances.len(), 1);
        let inst = &instances[0];
        assert_eq!(inst.action_count(), 3);
        let a = inst.find(&Action::parse("sense(ESP_1,sW)")).unwrap();
        let b = inst.find(&Action::parse("show(HMI_1,warn)")).unwrap();
        let c = inst.find(&Action::parse("tick")).unwrap();
        assert_eq!(inst.owner(a), "V1");
        assert_eq!(inst.stakeholder(b).name(), "D_1");
        assert_eq!(inst.owner(b), "D_1", "owner defaults to stakeholder");
        assert_eq!(inst.stakeholder(c).name(), "env");
        assert_eq!(inst.flow_kind(a, b), Some(FlowKind::Functional));
        assert_eq!(inst.flow_kind(c, b), Some(FlowKind::Policy));
    }

    /// Lowering builds each action from its term; `Action::parse` of the
    /// term's text is the oracle: same name, parameters and text, for
    /// plain, indexed, nested, spaced and empty argument lists.
    #[test]
    fn actions_lower_as_their_terms_text_parses() {
        let src = r#"instance "t" {
            action a = tick;
            action b = f();
            action c = sense(ESP_1, sW);
            action d = send( CU_w , cam( pos ) );
            action e = fwd(cam(pos_2, x_y), _x, a_b_c, g(h(i)));
        }"#;
        let file = parse_file(src).unwrap();
        let inst = &lower(&file).unwrap()[0];
        for (decl, (_, got)) in file.instances[0].actions.iter().zip(inst.graph().nodes()) {
            let want = Action::parse(&decl.term.to_string());
            assert_eq!(got, &want, "{}", decl.term);
            assert_eq!(got.params(), want.params(), "{}", decl.term);
            assert_eq!(got.as_str(), decl.term.to_string(), "{}", decl.term);
        }
    }

    #[test]
    fn duplicate_action_id_rejected() {
        let src = r#"instance "t" { action a = x; action a = y; }"#;
        let err = lower_src(src).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn undeclared_flow_endpoint_rejected() {
        let src = r#"instance "t" { action a = x; flow a -> ghost; }"#;
        let err = lower_src(src).unwrap_err();
        assert!(err.message.contains("undeclared"), "{err}");
        assert!(err.message.contains("ghost"), "{err}");
    }

    #[test]
    fn end_to_end_elicitation_from_source() {
        let src = r#"
        instance "fig3" {
            action sense_1 = sense(ESP_1, sW) owner V1 stakeholder D_1;
            action pos_1 = pos(GPS_1, pos) owner V1 stakeholder D_1;
            action send_1 = send(CU_1, cam(pos)) owner V1 stakeholder D_1;
            action rec_w = rec(CU_w, cam(pos)) owner Vw stakeholder D_w;
            action pos_w = pos(GPS_w, pos) owner Vw stakeholder D_w;
            action show_w = show(HMI_w, warn) owner Vw stakeholder D_w;
            flow sense_1 -> send_1;
            flow pos_1 -> send_1;
            flow send_1 -> rec_w;
            flow rec_w -> show_w;
            flow pos_w -> show_w;
        }
        "#;
        let instances = lower_src(src).unwrap();
        let report = fsa_core::manual::elicit(&instances[0]).unwrap();
        assert_eq!(report.requirements().len(), 3);
        assert_eq!(report.closure_size(), 16);
    }

    #[test]
    fn empty_instance_lowers() {
        let instances = lower_src(r#"instance "empty" { }"#).unwrap();
        assert_eq!(instances[0].action_count(), 0);
    }

    const VEHICLE_MODEL: &str = r#"
    model V stakeholder D_i {
        action sense = sense(ESP_i, sW);
        action pos = pos(GPS_i, pos);
        action send = send(CU_i, cam(pos));
        action rec = rec(CU_i, cam(pos));
        action show = show(HMI_i, warn);
        flow sense -> send;
        flow pos -> send;
        flow rec -> show;
        flow pos -> show;
    }
    "#;

    #[test]
    fn model_use_connect_lowers_fig3() {
        let src = format!(
            "{VEHICLE_MODEL}
            instance \"fig3 via models\" {{
                use V as v1 index 1;
                use V as vw index w;
                connect v1.send -> vw.rec;
            }}"
        );
        let instances = lower_src(&src).unwrap();
        let inst = &instances[0];
        assert_eq!(inst.action_count(), 10);
        let report = fsa_core::manual::elicit(inst).unwrap();
        // The two unused actions of each full vehicle (rec of v1, sense/
        // send of vw …) add extra boundary pairs; check the key
        // dependency is present with the right stakeholder.
        let wanted = "auth(sense(ESP_1,sW), show(HMI_w,warn), D_w)";
        assert!(
            report
                .requirements()
                .iter()
                .any(|r| r.to_string() == wanted),
            "missing {wanted}; got {:?}",
            report.requirements()
        );
    }

    #[test]
    fn policy_connect_lowers_as_policy() {
        let src = format!(
            "{VEHICLE_MODEL}
            instance \"p\" {{
                use V as a index 1;
                use V as b index 2;
                policy connect a.send -> b.rec;
            }}"
        );
        let inst = &lower_src(&src).unwrap()[0];
        let from = inst.find(&Action::parse("send(CU_1,cam(pos))")).unwrap();
        let to = inst.find(&Action::parse("rec(CU_2,cam(pos))")).unwrap();
        assert_eq!(inst.flow_kind(from, to), Some(FlowKind::Policy));
    }

    #[test]
    fn unknown_model_rejected() {
        let src = r#"instance "x" { use GHOST as g index 1; }"#;
        let err = lower_src(src).unwrap_err();
        assert!(err.message.contains("unknown model"), "{err}");
    }

    #[test]
    fn duplicate_alias_rejected() {
        let src = format!(
            "{VEHICLE_MODEL}
            instance \"x\" {{ use V as a index 1; use V as a index 2; }}"
        );
        let err = lower_src(&src).unwrap_err();
        assert!(err.message.contains("duplicate component alias"), "{err}");
    }

    #[test]
    fn bad_connect_endpoints_rejected() {
        let src = format!(
            "{VEHICLE_MODEL}
            instance \"x\" {{ use V as a index 1; connect a.nope -> a.show; }}"
        );
        let err = lower_src(&src).unwrap_err();
        assert!(err.message.contains("no action `nope`"), "{err}");
        let src = format!(
            "{VEHICLE_MODEL}
            instance \"x\" {{ use V as a index 1; connect ghost.send -> a.rec; }}"
        );
        let err = lower_src(&src).unwrap_err();
        assert!(err.message.contains("unknown component"), "{err}");
    }

    #[test]
    fn duplicate_model_rejected() {
        let src = "model A stakeholder P { } model A stakeholder P { } ";
        let err = lower_src(src).unwrap_err();
        assert!(err.message.contains("duplicate model"), "{err}");
    }
}
