//! Typed model deltas over an *editable* scenario model.
//!
//! The paper's assisted method recomputes reachability and dependence
//! from scratch for every component-model variant. This module gives
//! the variant loop structure: an [`EditModel`] is a declarative VANET
//! component model (components with initial values, named flows with a
//! closed [`FlowKind`] vocabulary, stakeholder tags) that compiles to
//! exactly the same [`apa::Apa`] as the hand-built scenarios in
//! `fsa-vanet`, plus a typed [`ModelDelta`] vocabulary describing edits
//! to it.
//!
//! The second half of the module is the *fragmentation analysis*: a
//! value-footprint fixpoint that over-approximates which values each
//! flow can ever read or write, partitioning the live flows into
//! independent fragments whose reachability graphs compose by product.
//! A [`Fragment`] borrows its parent model and writes its memo key (the
//! canonical encoding of its sub-model) without building that
//! sub-model. [`crate::incremental::IncrementalElicitor`] analyses each
//! fragment once, memoises the result under that key, and recomposes
//! the full report — bit-identical to a from-scratch run.

use crate::action::Agent;
use apa::rule::{FnRule, LocalState, TransitionRule};
use apa::{Apa, ApaBuilder, ApaError, Value};
use fsa_graph::bitset::set_bits;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::error::Error;
use std::fmt;

/// A literal value of the editable model: an atom or an integer.
///
/// This is the *declarative* counterpart of [`apa::Value`] restricted
/// to what initial states use; structured tuples (CAM messages) only
/// arise dynamically through [`FlowKind::SendCam`] flows.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ValueLit {
    /// A named atom, e.g. `sW` or `warn`.
    Atom(String),
    /// An integer, e.g. a GPS coordinate.
    Int(i64),
}

impl ValueLit {
    /// Parses a token: integers (with optional sign) become
    /// [`ValueLit::Int`], everything else an atom.
    pub fn parse(token: &str) -> ValueLit {
        match token.parse::<i64>() {
            Ok(i) => ValueLit::Int(i),
            Err(_) => ValueLit::Atom(token.to_owned()),
        }
    }

    /// Converts the literal to an [`apa::Value`].
    pub fn to_value(&self) -> Value {
        match self {
            ValueLit::Atom(a) => Value::atom(a),
            ValueLit::Int(i) => Value::int(*i),
        }
    }
}

impl fmt::Display for ValueLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueLit::Atom(a) => write!(f, "{a}"),
            ValueLit::Int(i) => write!(f, "{i}"),
        }
    }
}

/// The closed vocabulary of flow behaviours an editable model can use.
///
/// Each kind installs a transition rule identical to the hand-written
/// closures of `fsa-vanet`'s `apa_model` (which delegates here, so the
/// two cannot drift). Text forms, as used by [`ModelDelta::parse`]:
/// `move`, `move-atom:ATOM`, `send-cam:VEHICLE`, `recv-cam:RANGE`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlowKind {
    /// Move any value from the source to the target component.
    Move,
    /// Move a specific atom from the source to the target component.
    MoveAtom(String),
    /// The paper's CAM broadcast: when the warning atom `sW` is on the
    /// source bus, consume it together with one position integer and
    /// emit a `(cam, VEHICLE, position)` tuple onto the target.
    SendCam {
        /// The sender identity stamped into the CAM tuple.
        vehicle: String,
    },
    /// The paper's CAM reception: for every `cam` tuple on the source
    /// whose coordinate is strictly within `range` of an own-position
    /// integer on the target, put the `warn` atom onto the target.
    RecvCam {
        /// Reception radius (strict `<` comparison of coordinate
        /// distance, matching `fsa-vanet`'s `Range`).
        range: u64,
        /// Consume the CAM message on firing (the paper's semantics);
        /// `false` retains it (broadcast-retain variant).
        consume_msg: bool,
        /// Consume the own-position integer on firing (the paper's
        /// semantics); `false` retains it.
        consume_gps: bool,
    },
}

impl FlowKind {
    /// Parses the text form (see type docs). `recv-cam:RANGE` uses the
    /// paper's consume/consume semantics.
    pub fn parse(token: &str) -> Result<FlowKind, DeltaError> {
        if token == "move" {
            return Ok(FlowKind::Move);
        }
        if let Some(atom) = token.strip_prefix("move-atom:") {
            if atom.is_empty() {
                return Err(DeltaError::parse(token, "move-atom needs an atom"));
            }
            return Ok(FlowKind::MoveAtom(atom.to_owned()));
        }
        if let Some(vehicle) = token.strip_prefix("send-cam:") {
            if vehicle.is_empty() {
                return Err(DeltaError::parse(token, "send-cam needs a vehicle id"));
            }
            return Ok(FlowKind::SendCam {
                vehicle: vehicle.to_owned(),
            });
        }
        if let Some(range) = token.strip_prefix("recv-cam:") {
            let range: u64 = range
                .parse()
                .map_err(|_| DeltaError::parse(token, "recv-cam needs an integer range"))?;
            return Ok(FlowKind::RecvCam {
                range,
                consume_msg: true,
                consume_gps: true,
            });
        }
        Err(DeltaError::parse(token, "unknown flow kind"))
    }

    /// Builds the transition rule for this kind — the exact closures
    /// `fsa-vanet` installs for its vehicles.
    pub fn rule(&self) -> Box<dyn TransitionRule> {
        match self {
            FlowKind::Move => apa::rule::move_any(0, 1),
            FlowKind::MoveAtom(atom) => {
                let wanted = Value::atom(atom);
                apa::rule::move_matching(0, 1, move |v| *v == wanted)
            }
            FlowKind::SendCam { vehicle } => send_cam_rule(vehicle.clone()),
            FlowKind::RecvCam {
                range,
                consume_msg,
                consume_gps,
            } => recv_cam_rule(*range, *consume_msg, *consume_gps),
        }
    }
}

impl fmt::Display for FlowKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowKind::Move => write!(f, "move"),
            FlowKind::MoveAtom(a) => write!(f, "move-atom:{a}"),
            FlowKind::SendCam { vehicle } => write!(f, "send-cam:{vehicle}"),
            FlowKind::RecvCam {
                range,
                consume_msg,
                consume_gps,
            } => {
                write!(f, "recv-cam:{range}")?;
                if !consume_msg || !consume_gps {
                    // Programmatic retain variants have no single-token
                    // text form; render the flags for diagnostics.
                    write!(f, "[msg={consume_msg},gps={consume_gps}]")?;
                }
                Ok(())
            }
        }
    }
}

/// The CAM broadcast rule over `[bus, net]` — shared between the
/// editable-model compiler and `fsa-vanet::apa_model::add_vehicle`.
pub fn send_cam_rule(vehicle: String) -> Box<dyn TransitionRule> {
    Box::new(FnRule::new(move |local: &LocalState| {
        let warn = Value::atom("sW");
        if !local[0].contains(&warn) {
            return Vec::new();
        }
        local[0]
            .iter()
            .filter_map(Value::as_int)
            .map(|coord| {
                let mut next = local.clone();
                next[0].remove(&warn);
                next[0].remove(&Value::int(coord));
                let msg =
                    Value::tuple([Value::atom("cam"), Value::atom(&vehicle), Value::int(coord)]);
                next[1].insert(msg.clone());
                (msg.to_string(), next)
            })
            .collect()
    }))
}

/// The CAM reception rule over `[net, bus]` — shared between the
/// editable-model compiler and `fsa-vanet::apa_model::add_vehicle`.
/// Distance is strict (`< range`), matching `fsa-vanet`'s `Range`.
pub fn recv_cam_rule(range: u64, consume_msg: bool, consume_gps: bool) -> Box<dyn TransitionRule> {
    Box::new(FnRule::new(move |local: &LocalState| {
        let mut firings = Vec::new();
        for msg in local[0].iter().filter(|m| m.has_tag("cam")) {
            let Some(msg_coord) = msg.field(2).and_then(Value::as_int) else {
                continue;
            };
            for own_coord in local[1].iter().filter_map(Value::as_int) {
                if msg_coord.abs_diff(own_coord) >= range {
                    continue;
                }
                let mut next = local.clone();
                if consume_msg {
                    next[0].remove(msg);
                }
                if consume_gps {
                    next[1].remove(&Value::int(own_coord));
                }
                next[1].insert(Value::atom("warn"));
                firings.push((msg.to_string(), next));
            }
        }
        firings
    }))
}

/// A named flow: an elementary automaton over a `[from, to]`
/// neighbourhood with a [`FlowKind`] behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    /// Automaton name (the action name in the elicited requirements).
    pub name: String,
    /// Source component name.
    pub from: String,
    /// Target component name.
    pub to: String,
    /// Behaviour.
    pub kind: FlowKind,
}

/// A named component with its initial value set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Component name.
    pub name: String,
    /// Initial values (a set: APA components hold value *sets*).
    pub initial: BTreeSet<ValueLit>,
}

/// The editable scenario model: components, flows, stakeholder tags.
///
/// Declaration order is preserved — compiling declares components then
/// automata in their stored order, so a model built by replaying the
/// same declarations as a hand-built scenario compiles to an identical
/// [`apa::Apa`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EditModel {
    components: Vec<Component>,
    flows: Vec<Flow>,
    stakeholders: BTreeMap<String, String>,
}

/// A typed model edit. Text forms (one per line, parsed by
/// [`ModelDelta::parse`]):
///
/// ```text
/// add-component NAME [VALUE...]
/// remove-component NAME
/// set-initial NAME [VALUE...]
/// add-flow NAME KIND FROM TO
/// remove-flow NAME
/// rewire-flow NAME FROM TO
/// retag-stakeholder AUTOMATON AGENT
/// ```
///
/// where `KIND` is a [`FlowKind`] text form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelDelta {
    /// Declare a new component with the given initial values.
    AddComponent {
        /// Component name (must be fresh).
        name: String,
        /// Initial values.
        initial: BTreeSet<ValueLit>,
    },
    /// Remove a component no flow is attached to.
    RemoveComponent {
        /// Component name.
        name: String,
    },
    /// Replace a component's initial value set.
    SetInitial {
        /// Component name.
        name: String,
        /// The new initial values.
        initial: BTreeSet<ValueLit>,
    },
    /// Add a flow between two existing, distinct components.
    AddFlow {
        /// The flow to add (its name must be fresh).
        flow: Flow,
    },
    /// Remove a flow.
    RemoveFlow {
        /// Flow name.
        name: String,
    },
    /// Re-attach an existing flow to a new `[from, to]` pair.
    RewireFlow {
        /// Flow name.
        name: String,
        /// New source component.
        from: String,
        /// New target component.
        to: String,
    },
    /// Assign the stakeholder agent responsible for an automaton's
    /// requirements (defaults to the `V<tag>_x ↦ D_<tag>` convention).
    RetagStakeholder {
        /// Automaton (flow) name.
        automaton: String,
        /// Agent name.
        agent: String,
    },
}

/// Errors from parsing or applying [`ModelDelta`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// A delta line or token could not be parsed.
    Parse {
        /// The offending input.
        input: String,
        /// What went wrong.
        message: String,
    },
    /// A referenced component does not exist.
    UnknownComponent(String),
    /// A referenced flow does not exist.
    UnknownFlow(String),
    /// A component with this name already exists.
    DuplicateComponent(String),
    /// A flow with this name already exists.
    DuplicateFlow(String),
    /// The component still has flows attached and cannot be removed.
    ComponentInUse {
        /// The component.
        component: String,
        /// One attached flow.
        flow: String,
    },
    /// A flow's source and target must differ.
    SelfLoop {
        /// The flow.
        flow: String,
    },
}

impl DeltaError {
    fn parse(input: &str, message: &str) -> DeltaError {
        DeltaError::Parse {
            input: input.to_owned(),
            message: message.to_owned(),
        }
    }
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Parse { input, message } => write!(f, "cannot parse `{input}`: {message}"),
            DeltaError::UnknownComponent(n) => write!(f, "unknown component `{n}`"),
            DeltaError::UnknownFlow(n) => write!(f, "unknown flow `{n}`"),
            DeltaError::DuplicateComponent(n) => write!(f, "component `{n}` already exists"),
            DeltaError::DuplicateFlow(n) => write!(f, "flow `{n}` already exists"),
            DeltaError::ComponentInUse { component, flow } => {
                write!(f, "component `{component}` is still used by flow `{flow}`")
            }
            DeltaError::SelfLoop { flow } => {
                write!(f, "flow `{flow}` must connect two distinct components")
            }
        }
    }
}

impl Error for DeltaError {}

impl ModelDelta {
    /// Parses one delta line (see [`ModelDelta`] for the grammar).
    pub fn parse(line: &str) -> Result<ModelDelta, DeltaError> {
        fn need(
            tokens: &mut std::str::SplitWhitespace<'_>,
            line: &str,
            what: &str,
        ) -> Result<String, DeltaError> {
            tokens
                .next()
                .map(str::to_owned)
                .ok_or_else(|| DeltaError::parse(line, &format!("missing {what}")))
        }
        let mut tokens = line.split_whitespace();
        let op = tokens
            .next()
            .ok_or_else(|| DeltaError::parse(line, "empty delta"))?;
        let delta = match op {
            "add-component" => ModelDelta::AddComponent {
                name: need(&mut tokens, line, "component name")?,
                initial: tokens.by_ref().map(ValueLit::parse).collect(),
            },
            "remove-component" => ModelDelta::RemoveComponent {
                name: need(&mut tokens, line, "component name")?,
            },
            "set-initial" => ModelDelta::SetInitial {
                name: need(&mut tokens, line, "component name")?,
                initial: tokens.by_ref().map(ValueLit::parse).collect(),
            },
            "add-flow" => ModelDelta::AddFlow {
                flow: Flow {
                    name: need(&mut tokens, line, "flow name")?,
                    kind: FlowKind::parse(&need(&mut tokens, line, "flow kind")?)?,
                    from: need(&mut tokens, line, "source component")?,
                    to: need(&mut tokens, line, "target component")?,
                },
            },
            "remove-flow" => ModelDelta::RemoveFlow {
                name: need(&mut tokens, line, "flow name")?,
            },
            "rewire-flow" => ModelDelta::RewireFlow {
                name: need(&mut tokens, line, "flow name")?,
                from: need(&mut tokens, line, "source component")?,
                to: need(&mut tokens, line, "target component")?,
            },
            "retag-stakeholder" => ModelDelta::RetagStakeholder {
                automaton: need(&mut tokens, line, "automaton name")?,
                agent: need(&mut tokens, line, "agent name")?,
            },
            other => return Err(DeltaError::parse(line, &format!("unknown edit `{other}`"))),
        };
        if let Some(extra) = tokens.next() {
            return Err(DeltaError::parse(
                line,
                &format!("unexpected trailing token `{extra}`"),
            ));
        }
        Ok(delta)
    }
}

impl fmt::Display for ModelDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let vals = |f: &mut fmt::Formatter<'_>, initial: &BTreeSet<ValueLit>| {
            for v in initial {
                write!(f, " {v}")?;
            }
            Ok(())
        };
        match self {
            ModelDelta::AddComponent { name, initial } => {
                write!(f, "add-component {name}")?;
                vals(f, initial)
            }
            ModelDelta::RemoveComponent { name } => write!(f, "remove-component {name}"),
            ModelDelta::SetInitial { name, initial } => {
                write!(f, "set-initial {name}")?;
                vals(f, initial)
            }
            ModelDelta::AddFlow { flow } => write!(
                f,
                "add-flow {} {} {} {}",
                flow.name, flow.kind, flow.from, flow.to
            ),
            ModelDelta::RemoveFlow { name } => write!(f, "remove-flow {name}"),
            ModelDelta::RewireFlow { name, from, to } => {
                write!(f, "rewire-flow {name} {from} {to}")
            }
            ModelDelta::RetagStakeholder { automaton, agent } => {
                write!(f, "retag-stakeholder {automaton} {agent}")
            }
        }
    }
}

/// One step of an edit script: a delta or an `elicit` checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptStep {
    /// Apply this delta.
    Delta(ModelDelta),
    /// Re-elicit the requirement set and render it.
    Elicit,
}

/// Parses an edit script: one [`ModelDelta`] or the literal `elicit`
/// per line; blank lines and `#` comments are skipped. If the script
/// does not end with an `elicit` step, one is appended, so every
/// script yields at least one report.
pub fn parse_script(text: &str) -> Result<Vec<ScriptStep>, DeltaError> {
    let mut steps = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "elicit" {
            steps.push(ScriptStep::Elicit);
        } else {
            steps.push(ScriptStep::Delta(ModelDelta::parse(line)?));
        }
    }
    if !matches!(steps.last(), Some(ScriptStep::Elicit)) {
        steps.push(ScriptStep::Elicit);
    }
    Ok(steps)
}

/// The stakeholder convention of the paper's VANET scenarios: automaton
/// `V<tag>_x` is the responsibility of driver `D_<tag>`; anything else
/// falls back to `D_?`. `fsa-vanet::apa_model::stakeholder_of`
/// delegates here.
pub fn default_stakeholder(automaton: &str) -> Agent {
    let tag = automaton
        .strip_prefix('V')
        .and_then(|rest| rest.split('_').next())
        .unwrap_or("?");
    Agent::new(&format!("D_{tag}"))
}

impl EditModel {
    /// An empty model.
    pub fn new() -> EditModel {
        EditModel::default()
    }

    /// The components in declaration order.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The flows in declaration order.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// The stakeholder agent for an automaton: an explicit
    /// `retag-stakeholder` tag if present, else the
    /// [`default_stakeholder`] convention.
    pub fn stakeholder(&self, automaton: &str) -> Agent {
        match self.stakeholders.get(automaton) {
            Some(agent) => Agent::new(agent),
            None => default_stakeholder(automaton),
        }
    }

    fn component_idx(&self, name: &str) -> Option<usize> {
        self.components.iter().position(|c| c.name == name)
    }

    fn flow_idx(&self, name: &str) -> Option<usize> {
        self.flows.iter().position(|f| f.name == name)
    }

    /// Applies one delta. Validation happens before any mutation, so a
    /// failed apply leaves the model unchanged.
    pub fn apply(&mut self, delta: &ModelDelta) -> Result<(), DeltaError> {
        match delta {
            ModelDelta::AddComponent { name, initial } => {
                if self.component_idx(name).is_some() {
                    return Err(DeltaError::DuplicateComponent(name.clone()));
                }
                self.components.push(Component {
                    name: name.clone(),
                    initial: initial.clone(),
                });
            }
            ModelDelta::RemoveComponent { name } => {
                let idx = self
                    .component_idx(name)
                    .ok_or_else(|| DeltaError::UnknownComponent(name.clone()))?;
                if let Some(f) = self.flows.iter().find(|f| f.from == *name || f.to == *name) {
                    return Err(DeltaError::ComponentInUse {
                        component: name.clone(),
                        flow: f.name.clone(),
                    });
                }
                self.components.remove(idx);
            }
            ModelDelta::SetInitial { name, initial } => {
                let idx = self
                    .component_idx(name)
                    .ok_or_else(|| DeltaError::UnknownComponent(name.clone()))?;
                self.components[idx].initial = initial.clone();
            }
            ModelDelta::AddFlow { flow } => {
                if self.flow_idx(&flow.name).is_some() {
                    return Err(DeltaError::DuplicateFlow(flow.name.clone()));
                }
                if self.component_idx(&flow.from).is_none() {
                    return Err(DeltaError::UnknownComponent(flow.from.clone()));
                }
                if self.component_idx(&flow.to).is_none() {
                    return Err(DeltaError::UnknownComponent(flow.to.clone()));
                }
                if flow.from == flow.to {
                    return Err(DeltaError::SelfLoop {
                        flow: flow.name.clone(),
                    });
                }
                self.flows.push(flow.clone());
            }
            ModelDelta::RemoveFlow { name } => {
                let idx = self
                    .flow_idx(name)
                    .ok_or_else(|| DeltaError::UnknownFlow(name.clone()))?;
                self.flows.remove(idx);
            }
            ModelDelta::RewireFlow { name, from, to } => {
                let idx = self
                    .flow_idx(name)
                    .ok_or_else(|| DeltaError::UnknownFlow(name.clone()))?;
                if self.component_idx(from).is_none() {
                    return Err(DeltaError::UnknownComponent(from.clone()));
                }
                if self.component_idx(to).is_none() {
                    return Err(DeltaError::UnknownComponent(to.clone()));
                }
                if from == to {
                    return Err(DeltaError::SelfLoop { flow: name.clone() });
                }
                let flow = &mut self.flows[idx];
                flow.from = from.clone();
                flow.to = to.clone();
            }
            ModelDelta::RetagStakeholder { automaton, agent } => {
                if self.flow_idx(automaton).is_none() {
                    return Err(DeltaError::UnknownFlow(automaton.clone()));
                }
                self.stakeholders.insert(automaton.clone(), agent.clone());
            }
        }
        Ok(())
    }

    /// Compiles to an [`apa::Apa`]: components in declaration order,
    /// then one elementary automaton per flow in declaration order.
    pub fn compile(&self) -> Result<Apa, ApaError> {
        let mut builder = ApaBuilder::new();
        let mut ids = BTreeMap::new();
        for c in &self.components {
            let id = builder.component(&c.name, c.initial.iter().map(ValueLit::to_value));
            ids.insert(c.name.clone(), id);
        }
        for f in &self.flows {
            builder.automaton(&f.name, [ids[&f.from], ids[&f.to]], f.kind.rule());
        }
        builder.build()
    }

    /// The canonical text encoding of the model's components and flows:
    /// the payload of the incremental memo's keys (see
    /// [`Fragment::write_key`]). Two properties make such a key safe
    /// without any invalidation:
    ///
    /// * it is injective: every name is length-prefixed and every value
    ///   tagged with its kind, so the text decodes back to the model's
    ///   components and flows;
    /// * it leaves out only what no analysis of the model reads:
    ///   declaration order (components and flows are sorted by name;
    ///   counts are invariant under it, and minima, maxima and verdicts
    ///   are kept by name) and stakeholder tags (requirements are
    ///   attributed from the whole model at recomposition).
    ///
    /// One line per record, tokens separated by a space:
    ///
    /// ```text
    /// c STR (a STR | iINT)*       a component and its initial values
    /// f STR KIND STR STR          a flow: name, kind, from, to
    /// KIND = move | move-atom STR | send-cam STR | recv-cam RANGE BOOL BOOL
    /// STR  = LEN:BYTES
    /// ```
    pub fn canonical_encoding(&self) -> String {
        let mut out = String::new();
        write_canonical(
            &mut out,
            self.components
                .iter()
                .map(|c| (c.name.as_str(), c.initial.iter())),
            self.flows.iter(),
        );
        out
    }

    /// Partitions the live flows into independent fragments (see module
    /// docs and DESIGN.md §2.11), in the order of their first flows.
    /// Flows that can never fire under the value-footprint
    /// over-approximation are dropped entirely: they contribute no
    /// states, edges, minima, maxima, or verdicts.
    ///
    /// Values are interned once per call. Two live flows share a
    /// fragment when they touch a common value on a common component,
    /// which a map from each (component, value) to the first flow that
    /// touches it decides without comparing flows pairwise.
    pub fn fragments(&self) -> Vec<Fragment<'_>> {
        let mut values = Interner::default();
        let sw = values.id(Val::Atom("sW"));
        let warn = values.id(Val::Atom("warn"));
        let index: HashMap<&str, usize> = self
            .components
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.as_str(), i))
            .collect();
        // Every flow's (from, to) as component indices; `apply` keeps
        // both endpoints declared.
        let ends: Vec<(usize, usize)> = self
            .flows
            .iter()
            .map(|f| (index[f.from.as_str()], index[f.to.as_str()]))
            .collect();
        // Each component's initial value ids, in its set order.
        let initial: Vec<Vec<usize>> = self
            .components
            .iter()
            .map(|c| c.initial.iter().map(|v| values.id(Val::of(v))).collect())
            .collect();
        let footprint = self.value_footprint(&ends, &initial, &mut values, sw, warn);

        // The values each live flow touches: (flow, on `from`, on `to`).
        let mut live: Vec<(usize, ValSet, ValSet)> = Vec::new();
        for (i, f) in self.flows.iter().enumerate() {
            let (from, to) = ends[i];
            let touched = touched_values(
                &f.kind,
                &footprint[from],
                &footprint[to],
                &mut values,
                sw,
                warn,
            );
            if let Some((on_from, on_to)) = touched {
                live.push((i, on_from, on_to));
            }
        }

        // Union-find over live flows, through the first flow seen
        // touching each (component, value).
        let mut parent: Vec<usize> = (0..live.len()).collect();
        let mut first: HashMap<(usize, usize), usize> = HashMap::new();
        for (a, (i, on_from, on_to)) in live.iter().enumerate() {
            let (from, to) = ends[*i];
            for (component, touched) in [(from, on_from), (to, on_to)] {
                for value in touched.iter() {
                    let b = *first.entry((component, value)).or_insert(a);
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
            }
        }
        // Group live flows by root, in first-flow order.
        let mut group_of: Vec<Option<usize>> = vec![None; live.len()];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for a in 0..live.len() {
            let root = find(&mut parent, a);
            let g = *group_of[root].get_or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(a);
        }
        // Each fragment: its adjacent components in declaration order
        // with share-restricted initials, its flows in declaration
        // order.
        groups
            .into_iter()
            .map(|members| {
                let mut share: BTreeMap<usize, ValSet> = BTreeMap::new();
                for &m in &members {
                    let (i, on_from, on_to) = &live[m];
                    let (from, to) = ends[*i];
                    share.entry(from).or_default().union_with(on_from);
                    share.entry(to).or_default().union_with(on_to);
                }
                let components = share
                    .iter()
                    .map(|(&c, shared)| {
                        let component = &self.components[c];
                        let kept = component
                            .initial
                            .iter()
                            .zip(&initial[c])
                            .filter(|&(_, &id)| shared.contains(id))
                            .map(|(value, _)| value)
                            .collect();
                        (component.name.as_str(), kept)
                    })
                    .collect();
                let flows = members.iter().map(|&m| &self.flows[live[m].0]).collect();
                Fragment { components, flows }
            })
            .collect()
    }

    /// The value-footprint fixpoint: for each component (by index), an
    /// over-approximation of every value it can ever contain. A flow is
    /// evaluated again whenever a component it reads gains a value.
    fn value_footprint<'m>(
        &'m self,
        ends: &[(usize, usize)],
        initial: &[Vec<usize>],
        values: &mut Interner<'m>,
        sw: usize,
        warn: usize,
    ) -> Vec<ValSet> {
        let mut footprint: Vec<ValSet> = initial
            .iter()
            .map(|ids| ids.iter().copied().collect())
            .collect();
        // The flows that read each component: every flow reads its
        // `from`, and a CAM reception also reads its own positions on
        // its `to`.
        let mut readers: Vec<Vec<usize>> = vec![Vec::new(); self.components.len()];
        for (i, (f, &(from, to))) in self.flows.iter().zip(ends).enumerate() {
            readers[from].push(i);
            if matches!(f.kind, FlowKind::RecvCam { .. }) {
                readers[to].push(i);
            }
        }
        let mut queued = vec![true; self.flows.len()];
        let mut work: VecDeque<usize> = (0..self.flows.len()).collect();
        while let Some(i) = work.pop_front() {
            queued[i] = false;
            let (from, to) = ends[i];
            // `apply` rejects self-loops, so `from != to`.
            let mut target = std::mem::take(&mut footprint[to]);
            let source = &footprint[from];
            let changed = match &self.flows[i].kind {
                FlowKind::Move => target.union_with(source),
                FlowKind::MoveAtom(a) => values
                    .get(Val::Atom(a))
                    .is_some_and(|atom| source.contains(atom) && target.insert(atom)),
                FlowKind::SendCam { vehicle } => {
                    let mut changed = false;
                    if source.contains(sw) {
                        for id in source.iter() {
                            if let Val::Int(coord) = values.val(id) {
                                changed |= target.insert(values.id(Val::Cam(vehicle, coord)));
                            }
                        }
                    }
                    changed
                }
                FlowKind::RecvCam { range, .. } => {
                    let in_range = source.iter().any(|msg| match values.val(msg) {
                        Val::Cam(_, coord) => target.iter().any(|own| match values.val(own) {
                            Val::Int(own) => coord.abs_diff(own) < *range,
                            _ => false,
                        }),
                        _ => false,
                    });
                    in_range && target.insert(warn)
                }
            };
            footprint[to] = target;
            if changed {
                for &r in &readers[to] {
                    if !queued[r] {
                        queued[r] = true;
                        work.push_back(r);
                    }
                }
            }
        }
        footprint
    }
}

/// The values a flow of `kind` can read or write on its `from` and `to`
/// components, whose footprints are `source` and `target`, or `None`
/// when the flow can never fire (dead flow). The sets quantify over the
/// *full* footprint of the adjacent components (not a
/// fragment-restricted view) — this conservatism is what makes values
/// outside a fragment's share provably inert for its flows.
fn touched_values<'m>(
    kind: &'m FlowKind,
    source: &ValSet,
    target: &ValSet,
    values: &mut Interner<'m>,
    sw: usize,
    warn: usize,
) -> Option<(ValSet, ValSet)> {
    let ints = |set: &ValSet, values: &Interner<'m>| -> Vec<(usize, i64)> {
        set.iter()
            .filter_map(|id| match values.val(id) {
                Val::Int(i) => Some((id, i)),
                _ => None,
            })
            .collect()
    };
    match kind {
        FlowKind::Move => (!source.is_empty()).then(|| (source.clone(), source.clone())),
        FlowKind::MoveAtom(a) => {
            let atom = values.get(Val::Atom(a)).filter(|&id| source.contains(id))?;
            let only: ValSet = [atom].into_iter().collect();
            Some((only.clone(), only))
        }
        FlowKind::SendCam { vehicle } => {
            let positions = ints(source, values);
            if !source.contains(sw) || positions.is_empty() {
                return None;
            }
            let mut on_from: ValSet = positions.iter().map(|&(id, _)| id).collect();
            on_from.insert(sw);
            let on_to = positions
                .iter()
                .map(|&(_, coord)| values.id(Val::Cam(vehicle, coord)))
                .collect();
            Some((on_from, on_to))
        }
        FlowKind::RecvCam { range, .. } => {
            let own = ints(target, values);
            let cams: Vec<(usize, i64)> = source
                .iter()
                .filter_map(|id| match values.val(id) {
                    Val::Cam(_, coord) if own.iter().any(|&(_, o)| coord.abs_diff(o) < *range) => {
                        Some((id, coord))
                    }
                    _ => None,
                })
                .collect();
            if cams.is_empty() {
                return None;
            }
            let mut on_to: ValSet = own
                .iter()
                .filter(|&&(_, o)| cams.iter().any(|&(_, coord)| coord.abs_diff(o) < *range))
                .map(|&(id, _)| id)
                .collect();
            on_to.insert(warn);
            Some((cams.iter().map(|&(id, _)| id).collect(), on_to))
        }
    }
}

/// The root of `x` in a union-find forest, compressing the path.
fn find(parent: &mut [usize], x: usize) -> usize {
    let mut root = x;
    while parent[root] != root {
        root = parent[root];
    }
    let mut cur = x;
    while parent[cur] != root {
        let next = parent[cur];
        parent[cur] = root;
        cur = next;
    }
    root
}

/// Appends the canonical encoding of `components` (name, initial values
/// in set order) and `flows`, given in any order (see
/// [`EditModel::canonical_encoding`]).
fn write_canonical<'a, V>(
    out: &mut String,
    components: impl Iterator<Item = (&'a str, V)>,
    flows: impl Iterator<Item = &'a Flow>,
) where
    V: Iterator<Item = &'a ValueLit>,
{
    let mut components: Vec<(&str, V)> = components.collect();
    components.sort_unstable_by_key(|(name, _)| *name);
    for (name, initial) in components {
        out.push('c');
        write_str(out, name);
        for value in initial {
            match value {
                ValueLit::Atom(a) => {
                    out.push_str(" a");
                    write_str(out, a);
                }
                ValueLit::Int(i) => {
                    out.push_str(" i");
                    if *i < 0 {
                        out.push('-');
                    }
                    push_decimal(out, i.unsigned_abs());
                }
            }
        }
        out.push('\n');
    }
    let mut flows: Vec<&Flow> = flows.collect();
    flows.sort_unstable_by(|a, b| a.name.cmp(&b.name));
    for f in flows {
        out.push('f');
        write_str(out, &f.name);
        match &f.kind {
            FlowKind::Move => out.push_str(" move"),
            FlowKind::MoveAtom(atom) => {
                out.push_str(" move-atom");
                write_str(out, atom);
            }
            FlowKind::SendCam { vehicle } => {
                out.push_str(" send-cam");
                write_str(out, vehicle);
            }
            FlowKind::RecvCam {
                range,
                consume_msg,
                consume_gps,
            } => {
                out.push_str(" recv-cam ");
                push_decimal(out, *range);
                for consume in [consume_msg, consume_gps] {
                    out.push_str(if *consume { " true" } else { " false" });
                }
            }
        }
        write_str(out, &f.from);
        write_str(out, &f.to);
        out.push('\n');
    }
}

/// Appends ` LEN:BYTES`: a length-prefixed string, so no byte of `s`
/// can be mistaken for a separator.
fn write_str(out: &mut String, s: &str) {
    out.push(' ');
    push_decimal(out, s.len() as u64);
    out.push(':');
    out.push_str(s);
}

/// Appends the decimal digits of `n` (keys are written on every
/// elicit, so without the formatting machinery).
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// One fragment of an [`EditModel`] (see [`EditModel::fragments`]): the
/// parent's components it touches, with their share-restricted initial
/// values, and its flows, both in declaration order. It borrows the
/// parent, so a fragment whose analysis is memoised never builds its
/// sub-model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment<'m> {
    components: Vec<(&'m str, Vec<&'m ValueLit>)>,
    flows: Vec<&'m Flow>,
}

impl Fragment<'_> {
    /// Appends the fragment's memo key: exactly
    /// `self.model().canonical_encoding()`, written from the parent
    /// model.
    pub fn write_key(&self, out: &mut String) {
        write_canonical(
            out,
            self.components
                .iter()
                .map(|(name, initial)| (*name, initial.iter().copied())),
            self.flows.iter().copied(),
        );
    }

    /// The fragment's sub-model, with no stakeholder tags; it compiles
    /// and analyses on its own.
    pub fn model(&self) -> EditModel {
        EditModel {
            components: self
                .components
                .iter()
                .map(|(name, initial)| Component {
                    name: (*name).to_owned(),
                    initial: initial.iter().map(|&v| v.clone()).collect(),
                })
                .collect(),
            flows: self.flows.iter().map(|&f| f.clone()).collect(),
            stakeholders: BTreeMap::new(),
        }
    }
}

/// The abstract value domain of the footprint analysis: atoms,
/// integers, and CAM tuples (the only structured values the
/// [`FlowKind`] vocabulary can produce), borrowing names from the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Val<'m> {
    Atom(&'m str),
    Int(i64),
    Cam(&'m str, i64),
}

impl<'m> Val<'m> {
    fn of(lit: &'m ValueLit) -> Val<'m> {
        match lit {
            ValueLit::Atom(a) => Val::Atom(a),
            ValueLit::Int(i) => Val::Int(*i),
        }
    }
}

/// The values of one fragmentation, interned to dense ids.
#[derive(Default)]
struct Interner<'m> {
    ids: HashMap<Val<'m>, usize>,
    values: Vec<Val<'m>>,
}

impl<'m> Interner<'m> {
    fn id(&mut self, value: Val<'m>) -> usize {
        *self.ids.entry(value).or_insert_with(|| {
            self.values.push(value);
            self.values.len() - 1
        })
    }

    fn get(&self, value: Val<'m>) -> Option<usize> {
        self.ids.get(&value).copied()
    }

    fn val(&self, id: usize) -> Val<'m> {
        self.values[id]
    }
}

/// A set of interned value ids, one bit each.
#[derive(Debug, Clone, Default)]
struct ValSet(Vec<u64>);

impl ValSet {
    fn insert(&mut self, id: usize) -> bool {
        let (word, bit) = (id / 64, 1u64 << (id % 64));
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }

    fn contains(&self, id: usize) -> bool {
        self.0
            .get(id / 64)
            .is_some_and(|word| word & (1u64 << (id % 64)) != 0)
    }

    fn union_with(&mut self, other: &ValSet) -> bool {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        let mut changed = false;
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            changed |= *b & !*a != 0;
            *a |= b;
        }
        changed
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&word| word == 0)
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(&self.0)
    }
}

impl FromIterator<usize> for ValSet {
    fn from_iter<I: IntoIterator<Item = usize>>(ids: I) -> ValSet {
        let mut set = ValSet::default();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

/// The fragmenter as it stood before values were interned: owned
/// value sets, a round-robin fixpoint and a pairwise flow comparison.
/// Kept as the oracle of the differential tests.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn fragments(model: &EditModel) -> Vec<EditModel> {
        let footprint = value_footprint(model);
        // Touched value sets per live flow: (on `from`, on `to`).
        let mut live: Vec<(usize, BTreeSet<Val>, BTreeSet<Val>)> = Vec::new();
        for (i, f) in model.flows.iter().enumerate() {
            if let Some((on_from, on_to)) = touched_values(f, &footprint) {
                live.push((i, on_from, on_to));
            }
        }
        // Union-find over live flows: merge two flows when they touch a
        // common value on a shared component.
        let mut parent: Vec<usize> = (0..live.len()).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for a in 0..live.len() {
            for b in (a + 1)..live.len() {
                let fa = &model.flows[live[a].0];
                let fb = &model.flows[live[b].0];
                let mut interacts = false;
                for (ca, va) in [(&fa.from, &live[a].1), (&fa.to, &live[a].2)] {
                    for (cb, vb) in [(&fb.from, &live[b].1), (&fb.to, &live[b].2)] {
                        if ca == cb && va.intersection(vb).next().is_some() {
                            interacts = true;
                        }
                    }
                }
                if interacts {
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
            }
        }
        // Group live flows by root, in first-flow order.
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for idx in 0..live.len() {
            let root = find(&mut parent, idx);
            match groups.iter_mut().find(|(r, _)| *r == root) {
                Some((_, members)) => members.push(idx),
                None => groups.push((root, vec![idx])),
            }
        }
        // Build each fragment sub-model: adjacent components in
        // declaration order with share-restricted initials, member
        // flows in declaration order.
        groups
            .into_iter()
            .map(|(_, members)| {
                let mut share: BTreeMap<&str, BTreeSet<Val>> = BTreeMap::new();
                let mut flow_idxs: Vec<usize> = members.iter().map(|&m| live[m].0).collect();
                flow_idxs.sort_unstable();
                for &m in &members {
                    let (i, on_from, on_to) = &live[m];
                    let f = &model.flows[*i];
                    share
                        .entry(&f.from)
                        .or_default()
                        .extend(on_from.iter().cloned());
                    share
                        .entry(&f.to)
                        .or_default()
                        .extend(on_to.iter().cloned());
                }
                let components: Vec<Component> = model
                    .components
                    .iter()
                    .filter_map(|c| {
                        let s = share.get(c.name.as_str())?;
                        let initial = c
                            .initial
                            .iter()
                            .filter(|v| s.contains(&Val::from_lit(v)))
                            .cloned()
                            .collect();
                        Some(Component {
                            name: c.name.clone(),
                            initial,
                        })
                    })
                    .collect();
                let flows: Vec<Flow> = flow_idxs.iter().map(|&i| model.flows[i].clone()).collect();
                EditModel {
                    components,
                    flows,
                    stakeholders: BTreeMap::new(),
                }
            })
            .collect()
    }

    /// The value-footprint fixpoint: for each component, an
    /// over-approximation of every value it can ever contain.
    fn value_footprint(model: &EditModel) -> BTreeMap<String, BTreeSet<Val>> {
        let mut v: BTreeMap<String, BTreeSet<Val>> = model
            .components
            .iter()
            .map(|c| {
                (
                    c.name.clone(),
                    c.initial.iter().map(Val::from_lit).collect(),
                )
            })
            .collect();
        loop {
            let mut changed = false;
            for f in &model.flows {
                let from = v.get(&f.from).cloned().unwrap_or_default();
                let mut add: BTreeSet<Val> = BTreeSet::new();
                match &f.kind {
                    FlowKind::Move => add = from,
                    FlowKind::MoveAtom(a) => {
                        let atom = Val::Atom(a.clone());
                        if from.contains(&atom) {
                            add.insert(atom);
                        }
                    }
                    FlowKind::SendCam { vehicle } => {
                        if from.contains(&Val::Atom("sW".to_owned())) {
                            for val in &from {
                                if let Val::Int(i) = val {
                                    add.insert(Val::Cam {
                                        vehicle: vehicle.clone(),
                                        coord: *i,
                                    });
                                }
                            }
                        }
                    }
                    FlowKind::RecvCam { range, .. } => {
                        let to = v.get(&f.to).cloned().unwrap_or_default();
                        let in_range = from.iter().any(|val| match val {
                            Val::Cam { coord, .. } => to.iter().any(|o| match o {
                                Val::Int(own) => coord.abs_diff(*own) < *range,
                                _ => false,
                            }),
                            _ => false,
                        });
                        if in_range {
                            add.insert(Val::Atom("warn".to_owned()));
                        }
                    }
                }
                if !add.is_empty() {
                    let target = v.entry(f.to.clone()).or_default();
                    for val in add {
                        changed |= target.insert(val);
                    }
                }
            }
            if !changed {
                return v;
            }
        }
    }

    /// The values a flow can read or write on its `from` and `to`
    /// components under the footprint, or `None` when the flow can
    /// never fire (dead flow). The sets quantify over the *full*
    /// footprint of the adjacent components (not a fragment-restricted
    /// view) — this conservatism is what makes values outside a
    /// fragment's share provably inert for its flows.
    fn touched_values(
        f: &Flow,
        footprint: &BTreeMap<String, BTreeSet<Val>>,
    ) -> Option<(BTreeSet<Val>, BTreeSet<Val>)> {
        let empty = BTreeSet::new();
        let from = footprint.get(&f.from).unwrap_or(&empty);
        let to = footprint.get(&f.to).unwrap_or(&empty);
        match &f.kind {
            FlowKind::Move => {
                if from.is_empty() {
                    None
                } else {
                    Some((from.clone(), from.clone()))
                }
            }
            FlowKind::MoveAtom(a) => {
                let atom = Val::Atom(a.clone());
                if from.contains(&atom) {
                    Some((BTreeSet::from([atom.clone()]), BTreeSet::from([atom])))
                } else {
                    None
                }
            }
            FlowKind::SendCam { vehicle } => {
                let warn = Val::Atom("sW".to_owned());
                let ints: Vec<i64> = from
                    .iter()
                    .filter_map(|v| match v {
                        Val::Int(i) => Some(*i),
                        _ => None,
                    })
                    .collect();
                if !from.contains(&warn) || ints.is_empty() {
                    return None;
                }
                let mut on_from: BTreeSet<Val> = ints.iter().map(|&i| Val::Int(i)).collect();
                on_from.insert(warn);
                let on_to = ints
                    .iter()
                    .map(|&i| Val::Cam {
                        vehicle: vehicle.clone(),
                        coord: i,
                    })
                    .collect();
                Some((on_from, on_to))
            }
            FlowKind::RecvCam { range, .. } => {
                let own: Vec<i64> = to
                    .iter()
                    .filter_map(|v| match v {
                        Val::Int(i) => Some(*i),
                        _ => None,
                    })
                    .collect();
                let cams: BTreeSet<Val> = from
                    .iter()
                    .filter(|v| match v {
                        Val::Cam { coord, .. } => own.iter().any(|o| coord.abs_diff(*o) < *range),
                        _ => false,
                    })
                    .cloned()
                    .collect();
                if cams.is_empty() {
                    return None;
                }
                let mut on_to: BTreeSet<Val> = to
                    .iter()
                    .filter(|v| match v {
                        Val::Int(own) => cams.iter().any(|c| match c {
                            Val::Cam { coord, .. } => coord.abs_diff(*own) < *range,
                            _ => false,
                        }),
                        _ => false,
                    })
                    .cloned()
                    .collect();
                on_to.insert(Val::Atom("warn".to_owned()));
                Some((cams, on_to))
            }
        }
    }

    /// The abstract value domain of the footprint analysis: atoms,
    /// integers, and CAM tuples (the only structured values the
    /// [`FlowKind`] vocabulary can produce).
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    enum Val {
        Atom(String),
        Int(i64),
        Cam { vehicle: String, coord: i64 },
    }

    impl Val {
        fn from_lit(lit: &ValueLit) -> Val {
            match lit {
                ValueLit::Atom(a) => Val::Atom(a.clone()),
                ValueLit::Int(i) => Val::Int(*i),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply_all(model: &mut EditModel, lines: &[&str]) {
        for line in lines {
            let delta = ModelDelta::parse(line).expect(line);
            model.apply(&delta).expect(line);
        }
    }

    /// `pairs` warner/receiver pairs 10 000 apart, in the same element
    /// order as `fsa-vanet`'s `n_pair_model` (one pair is its
    /// `two_vehicle_apa`).
    fn n_pair_model(pairs: usize) -> EditModel {
        let mut lines = Vec::new();
        for k in 0..pairs {
            let base = 10_000 * k;
            for (tag, position, esp) in [(2 * k + 1, base, " sW"), (2 * k + 2, base + 50, "")] {
                lines.push(format!("add-component esp{tag}{esp}"));
                lines.push(format!("add-component gps{tag} {position}"));
                lines.push(format!("add-component bus{tag}"));
                lines.push(format!("add-component hmi{tag}"));
                if tag == 1 {
                    lines.push("add-component net".to_owned());
                }
                lines.extend(pair_flows(tag));
            }
        }
        let mut m = EditModel::new();
        apply_all(
            &mut m,
            &lines.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        m
    }

    /// The five flows of vehicle `tag`, as `n_pair_model` declares them.
    fn pair_flows(tag: usize) -> [String; 5] {
        [
            format!("add-flow V{tag}_sense move esp{tag} bus{tag}"),
            format!("add-flow V{tag}_pos move gps{tag} bus{tag}"),
            format!("add-flow V{tag}_send send-cam:V{tag} bus{tag} net"),
            format!("add-flow V{tag}_rec recv-cam:100 net bus{tag}"),
            format!("add-flow V{tag}_show move-atom:warn bus{tag} hmi{tag}"),
        ]
    }

    /// The 36 deltas by which a pair leaves the last zone of an
    /// `n_pair_model(pairs)` and the pair tagged `arriving` (its
    /// receiver is `arriving + 1`) takes its place, as the `serve-edit`
    /// benchmark workload swaps them.
    fn pair_swap(pairs: usize, leaving: usize, arriving: usize) -> Vec<String> {
        let base = 10_000 * (pairs - 1);
        let mut lines = Vec::new();
        for tag in [leaving, leaving + 1] {
            for flow in ["sense", "pos", "send", "rec", "show"] {
                lines.push(format!("remove-flow V{tag}_{flow}"));
            }
            for component in ["esp", "gps", "bus", "hmi"] {
                lines.push(format!("remove-component {component}{tag}"));
            }
        }
        for (tag, position, esp) in [(arriving, base, " sW"), (arriving + 1, base + 50, "")] {
            lines.push(format!("add-component esp{tag}{esp}"));
            lines.push(format!("add-component gps{tag} {position}"));
            lines.push(format!("add-component bus{tag}"));
            lines.push(format!("add-component hmi{tag}"));
            lines.extend(pair_flows(tag));
        }
        lines
    }

    fn pair_model() -> EditModel {
        n_pair_model(1)
    }

    #[test]
    fn delta_lines_round_trip_through_display() {
        for line in [
            "add-component esp1 sW 7",
            "remove-component esp1",
            "set-initial gps1 0 50",
            "add-flow V1_send send-cam:V1 bus1 net",
            "add-flow V1_rec recv-cam:100 net bus1",
            "add-flow V1_show move-atom:warn bus1 hmi1",
            "add-flow V1_pos move gps1 bus1",
            "remove-flow V1_pos",
            "rewire-flow V1_pos gps1 bus2",
            "retag-stakeholder V1_show D_1",
        ] {
            let delta = ModelDelta::parse(line).expect(line);
            assert_eq!(delta.to_string(), line);
            assert_eq!(ModelDelta::parse(&delta.to_string()).unwrap(), delta);
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for line in [
            "",
            "frobnicate x",
            "add-flow V1 move esp1",
            "add-flow V1 warp esp1 bus1",
            "add-flow V1 recv-cam:far net bus1",
            "add-flow V1 move esp1 bus1 extra",
            "remove-component",
            "retag-stakeholder V1_show",
        ] {
            assert!(ModelDelta::parse(line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn apply_validates_before_mutating() {
        let mut m = pair_model();
        let before = m.clone();
        for line in [
            "add-component esp1",
            "remove-component nosuch",
            "remove-component esp1", // in use by V1_sense
            "set-initial nosuch 1",
            "add-flow V1_sense move esp1 bus1",
            "add-flow X move esp1 esp1",
            "add-flow X move nosuch bus1",
            "remove-flow nosuch",
            "rewire-flow nosuch esp1 bus1",
            "rewire-flow V1_pos gps1 gps1",
            "retag-stakeholder nosuch D_1",
        ] {
            let delta = ModelDelta::parse(line).expect(line);
            assert!(m.apply(&delta).is_err(), "accepted: {line}");
            assert_eq!(m, before, "mutated on failed apply: {line}");
        }
    }

    #[test]
    fn edits_apply_in_place_and_a_retag_leaves_the_key_unchanged() {
        let mut m = pair_model();
        apply_all(
            &mut m,
            &["set-initial gps1 0 30", "rewire-flow V1_pos gps1 bus2"],
        );
        let gps1 = m.components().iter().find(|c| c.name == "gps1").unwrap();
        assert_eq!(
            gps1.initial,
            BTreeSet::from([ValueLit::Int(0), ValueLit::Int(30)])
        );
        let pos = m.flows().iter().find(|f| f.name == "V1_pos").unwrap();
        assert_eq!((pos.from.as_str(), pos.to.as_str()), ("gps1", "bus2"));
        // Stakeholders only attribute requirements, which is done from
        // the whole model at recomposition: no memo key depends on them.
        let key = m.canonical_encoding();
        apply_all(&mut m, &["retag-stakeholder V1_show D_9"]);
        assert_eq!(m.stakeholder("V1_show").to_string(), "D_9");
        assert_eq!(m.canonical_encoding(), key);
    }

    #[test]
    fn default_stakeholder_follows_the_vehicle_tag() {
        assert_eq!(default_stakeholder("V2_show").to_string(), "D_2");
        assert_eq!(default_stakeholder("V14_rec").to_string(), "D_14");
        assert_eq!(default_stakeholder("rsu_relay").to_string(), "D_?");
    }

    #[test]
    fn compiled_pair_matches_the_paper_scenario() {
        let apa = pair_model().compile().unwrap();
        let graph = apa.reachability(&apa::ReachOptions::default()).unwrap();
        assert_eq!(graph.state_count(), 12);
        assert_eq!(graph.dead_states().len(), 1);
        assert_eq!(graph.minima(), vec!["V1_pos", "V1_sense", "V2_pos"]);
        assert_eq!(graph.maxima(), vec!["V2_show"]);
    }

    #[test]
    fn script_parsing_appends_a_final_elicit() {
        let steps =
            parse_script("# warm-up\n\nset-initial gps1 0\nelicit\nset-initial gps1 30\n").unwrap();
        assert_eq!(steps.len(), 4);
        assert!(matches!(steps[1], ScriptStep::Elicit));
        assert!(matches!(steps[3], ScriptStep::Elicit));
        assert!(parse_script("not a delta").is_err());
    }

    #[test]
    fn fragments_split_independent_pairs_and_drop_dead_flows() {
        // Two pairs far apart: each pair is one fragment; the
        // receiver-side sense/send flows are dead (no sW) and dropped.
        let mut m = pair_model();
        apply_all(
            &mut m,
            &[
                "add-component esp3 sW",
                "add-component gps3 10000",
                "add-component bus3",
                "add-component hmi3",
                "add-flow V3_sense move esp3 bus3",
                "add-flow V3_pos move gps3 bus3",
                "add-flow V3_send send-cam:V3 bus3 net",
                "add-flow V3_rec recv-cam:100 net bus3",
                "add-flow V3_show move-atom:warn bus3 hmi3",
                "add-component esp4",
                "add-component gps4 10050",
                "add-component bus4",
                "add-component hmi4",
                "add-flow V4_sense move esp4 bus4",
                "add-flow V4_pos move gps4 bus4",
                "add-flow V4_send send-cam:V4 bus4 net",
                "add-flow V4_rec recv-cam:100 net bus4",
                "add-flow V4_show move-atom:warn bus4 hmi4",
            ],
        );
        let frags = m.fragments();
        assert_eq!(frags.len(), 2, "{frags:#?}");
        let names: Vec<BTreeSet<String>> = frags
            .iter()
            .map(|f| f.model().flows().iter().map(|fl| fl.name.clone()).collect())
            .collect();
        assert!(names[0].contains("V1_send") && names[0].contains("V2_show"));
        assert!(names[1].contains("V3_send") && names[1].contains("V4_show"));
        // Dead flows appear in no fragment.
        for dead in ["V2_sense", "V2_send", "V4_sense", "V4_send"] {
            assert!(names.iter().all(|n| !n.contains(dead)), "{dead} survived");
        }
        // Each fragment analyses to the familiar 12-state pair graph.
        for frag in &frags {
            let g = frag
                .model()
                .compile()
                .unwrap()
                .reachability(&apa::ReachOptions::default())
                .unwrap();
            assert_eq!(g.state_count(), 12);
        }
        // Each fragment holds its own pair's components only.
        let components = |f: &Fragment<'_>| -> Vec<String> {
            f.model()
                .components()
                .iter()
                .map(|c| c.name.clone())
                .collect()
        };
        assert!(components(&frags[0]).contains(&"bus1".to_owned()));
        assert!(!components(&frags[0]).contains(&"bus3".to_owned()));
    }

    #[test]
    fn in_range_pairs_share_the_net_and_merge() {
        // Both receivers in range of both senders: one fragment.
        let mut m = pair_model();
        apply_all(
            &mut m,
            &[
                "add-component esp3 sW",
                "add-component gps3 30",
                "add-component bus3",
                "add-component hmi3",
                "add-flow V3_sense move esp3 bus3",
                "add-flow V3_pos move gps3 bus3",
                "add-flow V3_send send-cam:V3 bus3 net",
                "add-flow V3_rec recv-cam:100 net bus3",
                "add-flow V3_show move-atom:warn bus3 hmi3",
            ],
        );
        assert_eq!(m.fragments().len(), 1);
    }

    #[test]
    fn canonical_encoding_ignores_declaration_order() {
        let mut a = EditModel::new();
        apply_all(
            &mut a,
            &[
                "add-component x 1 2",
                "add-component y",
                "add-flow f move x y",
                "add-flow g move y x",
            ],
        );
        let mut b = EditModel::new();
        apply_all(
            &mut b,
            &[
                "add-component y",
                "add-component x 2 1",
                "add-flow g move y x",
                "add-flow f move x y",
            ],
        );
        assert_eq!(a.canonical_encoding(), b.canonical_encoding());
        let mut c = b.clone();
        apply_all(&mut c, &["set-initial x 1"]);
        assert_ne!(a.canonical_encoding(), c.canonical_encoding());
    }

    #[test]
    fn canonical_encoding_tells_every_field_apart() {
        let component = |name: &str, initial: &[ValueLit]| Component {
            name: name.to_owned(),
            initial: initial.iter().cloned().collect(),
        };
        let flow = |name: &str, kind: FlowKind, from: &str, to: &str| Flow {
            name: name.to_owned(),
            from: from.to_owned(),
            to: to.to_owned(),
            kind,
        };
        let recv = |range, consume_msg, consume_gps| FlowKind::RecvCam {
            range,
            consume_msg,
            consume_gps,
        };
        let model = |components, flows| EditModel {
            components,
            flows,
            stakeholders: BTreeMap::new(),
        };
        let (atom, int) = (ValueLit::Atom("5".to_owned()), ValueLit::Int(5));
        let xy = || vec![component("x", &[]), component("y", &[])];
        let mut variants = vec![
            // The atom `5` against the integer 5.
            model(vec![component("a", &[atom])], vec![]),
            model(vec![component("a", &[int])], vec![]),
            // A component `a b` with no value against a component `a`
            // holding the atom `b`.
            model(vec![component("a b", &[])], vec![]),
            model(
                vec![component("a", &[ValueLit::Atom("b".to_owned())])],
                vec![],
            ),
        ];
        // Every field of a flow: its name, each kind with each of its
        // parameters, and each endpoint.
        for (name, kind, from, to) in [
            ("f", FlowKind::Move, "x", "y"),
            ("g", FlowKind::Move, "x", "y"),
            ("f", FlowKind::Move, "y", "x"),
            ("f", FlowKind::MoveAtom("sW".to_owned()), "x", "y"),
            ("f", FlowKind::MoveAtom("warn".to_owned()), "x", "y"),
            (
                "f",
                FlowKind::SendCam {
                    vehicle: "V1".to_owned(),
                },
                "x",
                "y",
            ),
            (
                "f",
                FlowKind::SendCam {
                    vehicle: "V2".to_owned(),
                },
                "x",
                "y",
            ),
            ("f", recv(100, true, true), "x", "y"),
            ("f", recv(50, true, true), "x", "y"),
            ("f", recv(100, false, true), "x", "y"),
            ("f", recv(100, true, false), "x", "y"),
        ] {
            variants.push(model(xy(), vec![flow(name, kind, from, to)]));
        }
        let keys: BTreeSet<String> = variants.iter().map(EditModel::canonical_encoding).collect();
        assert_eq!(keys.len(), variants.len(), "{keys:#?}");
    }

    /// A deterministic LCG, so each input draws its wiring from one
    /// seed.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        }
    }

    /// A random initial-value clause over a small vocabulary.
    fn random_values(next: &mut impl FnMut() -> u64) -> String {
        let atoms = ["x", "y", "sW"]
            .into_iter()
            .filter(|_| next().is_multiple_of(3));
        let atoms: Vec<String> = atoms.map(str::to_owned).collect();
        let ints = [0, 30, 120, 10_000]
            .into_iter()
            .filter(|_| next().is_multiple_of(4));
        let ints: Vec<String> = ints.map(|i: u64| i.to_string()).collect();
        [atoms, ints].concat().join(" ")
    }

    fn random_kind(next: &mut impl FnMut() -> u64) -> String {
        match next() % 5 {
            0 => "move-atom:x".to_owned(),
            1 => format!("send-cam:V{}", 1 + next() % 2),
            2 => format!("recv-cam:{}", [50, 100, 200][(next() % 3) as usize]),
            _ => "move".to_owned(),
        }
    }

    /// `n` components with random initial values and a forward chain of
    /// random flows, as `tests/incremental_props.rs` builds its models.
    fn random_model(n: usize, next: &mut impl FnMut() -> u64) -> EditModel {
        let mut lines = Vec::new();
        for i in 0..n {
            lines.push(format!("add-component c{i} {}", random_values(next)));
        }
        for i in 0..n - 1 {
            lines.push(format!(
                "add-flow f{i} {} c{i} c{}",
                random_kind(next),
                i + 1
            ));
        }
        let mut m = EditModel::new();
        apply_all(
            &mut m,
            &lines.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        m
    }

    /// A random edit of any kind against `m`; it may not apply.
    fn random_delta(
        m: &EditModel,
        fresh: &mut usize,
        next: &mut impl FnMut() -> u64,
    ) -> ModelDelta {
        let comps = m.components();
        let flows = m.flows();
        let mut comp = || match comps.len() {
            0 => "none".to_owned(),
            n => comps[(next() as usize) % n].name.clone(),
        };
        let (a, b) = (comp(), comp());
        let flow = if flows.is_empty() {
            "f0".to_owned()
        } else {
            flows[(next() as usize) % flows.len()].name.clone()
        };
        *fresh += 1;
        let line = match next() % 8 {
            0 => format!("add-component n{fresh} {}", random_values(next)),
            1 => format!("remove-component {a}"),
            2 | 3 => format!("set-initial {a} {}", random_values(next)),
            4 => format!("add-flow g{fresh} {} {a} {b}", random_kind(next)),
            5 => format!("remove-flow {flow}"),
            6 => format!("rewire-flow {flow} {a} {b}"),
            _ => format!("retag-stakeholder {flow} D_{}", next() % 3),
        };
        ModelDelta::parse(line.trim_end()).expect("generator emits parseable lines")
    }

    /// The interned fragmenter returns the reference's fragments — the
    /// same order, components, share-restricted initials and flows —
    /// and each key is its sub-model's canonical encoding.
    fn assert_fragments_match_the_reference(m: &EditModel, when: &str) {
        let fragments = m.fragments();
        let built: Vec<EditModel> = fragments.iter().map(Fragment::model).collect();
        assert_eq!(built, reference::fragments(m), "{when}");
        for (fragment, sub) in fragments.iter().zip(&built) {
            let mut key = String::new();
            fragment.write_key(&mut key);
            assert_eq!(key, sub.canonical_encoding(), "{when}");
        }
    }

    /// Random edits, checking the fragmenter after each one that applies.
    fn check_random_edits(m: &mut EditModel, seed: u64, edits: usize) {
        let mut next = lcg(seed);
        let mut fresh = 0;
        for _ in 0..edits {
            let delta = random_delta(m, &mut fresh, &mut next);
            if m.apply(&delta).is_ok() {
                assert_fragments_match_the_reference(m, &format!("seed {seed}, after {delta}"));
            }
        }
    }

    #[test]
    fn the_interned_fragmenter_matches_the_reference_on_vehicle_pairs() {
        for pairs in 1..=5 {
            let mut m = n_pair_model(pairs);
            assert_fragments_match_the_reference(&m, &format!("{pairs} pair(s)"));
            // `serve-edit`'s receiver move, out of range and back, and
            // its swap of the last zone's pair.
            let mut last = 2 * pairs - 1;
            for (round, position) in [300, 50, 300, 50].into_iter().enumerate() {
                apply_all(&mut m, &[format!("set-initial gps2 {position}").as_str()]);
                assert_fragments_match_the_reference(&m, &format!("gps2 at {position}"));
                if pairs > 1 {
                    let arriving = 2 * pairs + 1 + 2 * round;
                    let swap = pair_swap(pairs, last, arriving);
                    assert_eq!(swap.len(), 36);
                    apply_all(&mut m, &swap.iter().map(String::as_str).collect::<Vec<_>>());
                    assert_fragments_match_the_reference(&m, &format!("pair {arriving} arrived"));
                    last = arriving;
                }
            }
            check_random_edits(&mut m, pairs as u64, 40);
        }
    }

    #[test]
    fn a_reception_is_evaluated_again_when_its_receiver_gains_a_position() {
        // The receiver's position reaches `bus2` only through `pos`,
        // declared after `rec`: the fixpoint must evaluate `rec` again
        // when `bus2` gains a value, though `rec` reads it on its `to`,
        // or the `warn` that `show` moves never reaches `bus2`.
        let mut m = EditModel::new();
        apply_all(
            &mut m,
            &[
                "add-component bus1 sW 0",
                "add-component net",
                "add-component bus2",
                "add-component gps2 30",
                "add-component hmi2",
                "add-flow send send-cam:V1 bus1 net",
                "add-flow rec recv-cam:100 net bus2",
                "add-flow pos move gps2 bus2",
                "add-flow show move-atom:warn bus2 hmi2",
            ],
        );
        assert_fragments_match_the_reference(&m, "reception first");
        let flows: Vec<String> = m.fragments()[0]
            .model()
            .flows()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        assert_eq!(flows, ["send", "rec", "pos", "show"]);
    }

    #[test]
    fn the_interned_fragmenter_matches_the_reference_on_random_models() {
        for seed in 0..200u64 {
            let mut next = lcg(seed);
            let n = 2 + (next() % 4) as usize;
            let mut m = random_model(n, &mut next);
            assert_fragments_match_the_reference(&m, &format!("seed {seed}"));
            check_random_edits(&mut m, seed, 12);
        }
    }
}
