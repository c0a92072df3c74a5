//! The random edit-model generator shared by the property suites: a
//! random base model and random edit deltas against it, every wiring
//! drawn from one `u64` seed. Include it with
//! `#[path = "support/edit_models.rs"] mod edit_models;`.

#![allow(dead_code)]

use fsa::core::delta::{EditModel, Flow, ModelDelta};

/// A deterministic inline LCG so each proptest case draws its whole
/// wiring from one `u64` seed (same idiom as `arb_apa` in
/// `kernel_differential.rs`).
pub fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    }
}

pub const ATOMS: [&str; 3] = ["x", "y", "sW"];
pub const INTS: [u64; 4] = [0, 30, 120, 10000];

/// A random initial-value clause: a space-joined subset of the small
/// atom/int vocabulary (possibly empty).
pub fn random_values(next: &mut impl FnMut() -> u64) -> String {
    let mut vals = Vec::new();
    for a in ATOMS {
        if next().is_multiple_of(3) {
            vals.push(a.to_owned());
        }
    }
    for i in INTS {
        if next().is_multiple_of(4) {
            vals.push(i.to_string());
        }
    }
    vals.join(" ")
}

/// A random flow-kind token. Send/recv CAM flows exercise the tuple
/// machinery; movers keep fragments connected.
pub fn random_kind(next: &mut impl FnMut() -> u64) -> String {
    match next() % 5 {
        0 => "move-atom:x".to_owned(),
        1 => format!("send-cam:V{}", 1 + next() % 2),
        2 => format!("recv-cam:{}", [50, 100, 200][(next() % 3) as usize]),
        _ => "move".to_owned(),
    }
}

/// Builds a random base model: `n` components with random initial
/// values and a forward chain of random flows (every value-moving rule
/// conserves or shrinks the token multiset, so reachability is finite).
pub fn random_model(n: usize, next: &mut impl FnMut() -> u64) -> EditModel {
    let mut model = EditModel::new();
    let mut lines = Vec::new();
    for i in 0..n {
        lines.push(
            format!("add-component c{i} {}", random_values(next))
                .trim_end()
                .to_owned(),
        );
    }
    for i in 0..n - 1 {
        lines.push(format!(
            "add-flow f{i} {} c{i} c{}",
            random_kind(next),
            i + 1
        ));
    }
    for line in lines {
        let delta = ModelDelta::parse(&line).expect("generator emits valid lines");
        model
            .apply(&delta)
            .expect("generator emits applicable deltas");
    }
    model
}

/// Draws one candidate edit against the current model. May be
/// inapplicable (e.g. removing a component with attached flows) — the
/// caller filters by trial application, which is itself part of the
/// property: rejected deltas must leave both paths untouched.
pub fn random_delta(
    model: &EditModel,
    fresh: &mut usize,
    next: &mut impl FnMut() -> u64,
) -> ModelDelta {
    let comps = model.components();
    let flows = model.flows();
    let comp = |next: &mut dyn FnMut() -> u64| -> String {
        comps[(next() as usize) % comps.len()].name.clone()
    };
    let line = match next() % 8 {
        0 => {
            *fresh += 1;
            format!("add-component n{fresh} {}", random_values(next))
                .trim_end()
                .to_owned()
        }
        1 => format!("remove-component {}", comp(next)),
        2 | 3 => format!("set-initial {} {}", comp(next), random_values(next))
            .trim_end()
            .to_owned(),
        4 => {
            *fresh += 1;
            format!(
                "add-flow g{fresh} {} {} {}",
                random_kind(next),
                comp(next),
                comp(next)
            )
        }
        5 if !flows.is_empty() => format!(
            "remove-flow {}",
            flows[(next() as usize) % flows.len()].name
        ),
        6 if !flows.is_empty() => format!(
            "rewire-flow {} {} {}",
            flows[(next() as usize) % flows.len()].name,
            comp(next),
            comp(next)
        ),
        _ => {
            let auto = if flows.is_empty() {
                "f0".to_owned()
            } else {
                flows[(next() as usize) % flows.len()].name.clone()
            };
            format!("retag-stakeholder {auto} D_{}", next() % 3)
        }
    };
    ModelDelta::parse(&line).expect("generator emits parseable lines")
}

/// Removes a random component together with the flows attached to it,
/// then declares all of them again with the same content: the model is
/// unchanged up to declaration order.
pub fn redeclare(model: &EditModel, next: &mut impl FnMut() -> u64) -> Vec<ModelDelta> {
    let comps = model.components();
    if comps.is_empty() {
        return Vec::new();
    }
    let component = comps[(next() as usize) % comps.len()].clone();
    let attached: Vec<Flow> = model
        .flows()
        .iter()
        .filter(|f| f.from == component.name || f.to == component.name)
        .cloned()
        .collect();
    let mut deltas: Vec<ModelDelta> = attached
        .iter()
        .map(|f| ModelDelta::RemoveFlow {
            name: f.name.clone(),
        })
        .collect();
    deltas.push(ModelDelta::RemoveComponent {
        name: component.name.clone(),
    });
    deltas.push(ModelDelta::AddComponent {
        name: component.name,
        initial: component.initial,
    });
    deltas.extend(
        attached
            .into_iter()
            .map(|flow| ModelDelta::AddFlow { flow }),
    );
    deltas
}

/// Removes a random flow and adds it again under the same name and
/// endpoints with a random kind: same names, possibly new content.
pub fn rekind(model: &EditModel, next: &mut impl FnMut() -> u64) -> Vec<ModelDelta> {
    let flows = model.flows();
    if flows.is_empty() {
        return Vec::new();
    }
    let flow = flows[(next() as usize) % flows.len()].clone();
    let line = format!(
        "add-flow {} {} {} {}",
        flow.name,
        random_kind(next),
        flow.from,
        flow.to
    );
    vec![
        ModelDelta::RemoveFlow { name: flow.name },
        ModelDelta::parse(&line).expect("generator emits parseable lines"),
    ]
}

/// A random model (`n` components) after up to `edits` random deltas
/// that apply: the generator's random edit sequence, rejected deltas
/// skipped.
pub fn edited_model(n: usize, seed: u64, edits: usize) -> EditModel {
    let mut next = lcg(seed);
    let mut model = random_model(n, &mut next);
    let mut fresh = 0usize;
    let mut applied = 0usize;
    for _ in 0..edits * 4 {
        if applied == edits {
            break;
        }
        let deltas = match next() % 4 {
            0 => redeclare(&model, &mut next),
            1 => rekind(&model, &mut next),
            _ => vec![random_delta(&model, &mut fresh, &mut next)],
        };
        let mut trial = model.clone();
        if deltas.iter().all(|d| trial.apply(d).is_ok()) {
            model = trial;
            applied += 1;
        }
    }
    model
}
