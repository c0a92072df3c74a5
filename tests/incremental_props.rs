//! Property tests for the incremental elicitation engine: after *any*
//! sequence of model edits, [`IncrementalElicitor::elicit`] must be
//! bit-identical (every report field except timings) to a from-scratch
//! `elicit_with_options` run on the final model. Memoisation is an implementation detail, never a semantics:
//! the memo keys are content-addressed and nothing is invalidated, so
//! the engine here only ever sees the edited model.

use fsa::apa::ReachOptions;
use fsa::core::assisted::{
    elicit_with_options, AssistedReport, DependenceMethod, ElicitOptions, PairVerdict,
};
use fsa::core::delta::{EditModel, ModelDelta};
use fsa::core::incremental::IncrementalElicitor;
use fsa::obs::Obs;
use proptest::prelude::*;
use std::collections::hash_map::{Entry, HashMap};

#[path = "support/edit_models.rs"]
mod edit_models;

use edit_models::{lcg, random_delta, random_model, redeclare, rekind};

/// Everything a fragment's memo entry stands for: the outputs of its
/// from-scratch analysis that stakeholder tags do not change (counts,
/// minima, maxima, verdicts), or `None` when exploring it fails.
type Analysis = Option<(usize, usize, Vec<String>, Vec<String>, Vec<PairVerdict>)>;

fn analyse(model: &EditModel, method: DependenceMethod) -> Analysis {
    let graph = model
        .compile()
        .ok()?
        .reachability(&ReachOptions::default())
        .ok()?;
    let r = elicit_with_options(&graph, &ElicitOptions { method }, |max| {
        model.stakeholder(max)
    });
    Some((r.state_count, r.edge_count, r.minima, r.maxima, r.verdicts))
}

/// From-scratch reference run on the final model; `None` when the
/// model has no behaviour worth comparing (compile/reachability
/// failure — the incremental path must then fail too).
fn from_scratch(model: &EditModel) -> Option<AssistedReport> {
    let apa = model.compile().ok()?;
    let graph = apa.reachability(&ReachOptions::default()).ok()?;
    Some(elicit_with_options(
        &graph,
        &ElicitOptions {
            method: DependenceMethod::Precedence,
        },
        |max| model.stakeholder(max),
    ))
}

/// Every field except `stats` (timings differ run to run by design).
fn assert_bit_identical(incremental: &AssistedReport, scratch: &AssistedReport, when: &str) {
    assert_eq!(
        incremental.state_count, scratch.state_count,
        "states {when}"
    );
    assert_eq!(incremental.edge_count, scratch.edge_count, "edges {when}");
    assert_eq!(incremental.minima, scratch.minima, "minima {when}");
    assert_eq!(incremental.maxima, scratch.maxima, "maxima {when}");
    assert_eq!(incremental.verdicts, scratch.verdicts, "verdicts {when}");
    assert_eq!(
        incremental.requirements, scratch.requirements,
        "requirements {when}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random model, random edit sequence (including rejected edits,
    /// no-op edits, and explicit edit/undo pairs): the memoised engine
    /// stays bit-identical to from-scratch after every single edit and
    /// for every thread count on the final model.
    #[test]
    fn incremental_elicitation_matches_from_scratch(
        n in 2usize..5,
        seed in any::<u64>(),
        edits in 1usize..7,
    ) {
        let mut next = lcg(seed);
        let obs = Obs::disabled();
        let mut model = random_model(n, &mut next);
        let mut engine = IncrementalElicitor::new(64).unwrap().method(DependenceMethod::Precedence);
        let mut fresh = 0usize;

        // Warm the memo on the base model (when it has behaviour).
        if let Some(scratch) = from_scratch(&model) {
            let report = engine.elicit(&model, &obs).expect("incremental base");
            assert_bit_identical(&report, &scratch, "on the base model");
        }

        let mut applied = 0usize;
        let mut attempts = 0usize;
        while applied < edits && attempts < edits * 4 {
            attempts += 1;
            let delta = random_delta(&model, &mut fresh, &mut next);
            // Trial-apply on a clone: generators may draw inapplicable
            // deltas (dangling names, attached components) and those
            // must reject without corrupting either path.
            let mut trial = model.clone();
            if trial.apply(&delta).is_err() {
                let before = model.clone();
                prop_assert!(
                    model.apply(&delta).is_err(),
                    "the model must reject what its clone rejects: {}",
                    delta
                );
                prop_assert_eq!(&model, &before, "a rejected delta changed the model");
                continue;
            }
            // Occasionally turn a `set-initial` into an edit/undo pair:
            // apply it, then immediately restore the previous values.
            let undo = if let ModelDelta::SetInitial { name, .. } = &delta {
                let before = model
                    .components()
                    .iter()
                    .find(|c| &c.name == name)
                    .map(|c| c.initial.clone());
                before.filter(|_| next().is_multiple_of(3)).map(|initial| ModelDelta::SetInitial {
                    name: name.clone(),
                    initial,
                })
            } else {
                None
            };
            model.apply(&delta).expect("trial-checked delta");
            applied += 1;
            if let Some(undo) = undo {
                model.apply(&undo).expect("undo of a set-initial");
            }
            if let Some(scratch) = from_scratch(&model) {
                let report = engine.elicit(&model, &obs).expect("incremental after edit");
                assert_bit_identical(&report, &scratch, &format!("after edit {delta}"));
            }
        }
    }

    /// Key completeness, the guard that replaced memo invalidation:
    /// along a random edit sequence (every delta kind; components
    /// removed and declared again with their flows, same content in a
    /// new declaration order; flows declared again under their old name
    /// with a new kind), any two fragments with equal memo keys have
    /// equal from-scratch analyses under both dependence methods.
    #[test]
    fn equal_memo_keys_mean_equal_fragment_analyses(
        n in 2usize..5,
        seed in any::<u64>(),
        edits in 1usize..7,
    ) {
        let mut next = lcg(seed);
        let mut model = random_model(n, &mut next);
        let mut fresh = 0usize;
        let mut seen: HashMap<String, [Analysis; 2]> = HashMap::new();
        for step in 0..=edits {
            if step > 0 {
                let deltas = match next() % 4 {
                    0 => redeclare(&model, &mut next),
                    1 => rekind(&model, &mut next),
                    _ => vec![random_delta(&model, &mut fresh, &mut next)],
                };
                let mut trial = model.clone();
                if deltas.iter().any(|d| trial.apply(d).is_err()) {
                    continue;
                }
                model = trial;
            }
            for fragment in model.fragments() {
                let mut key = String::new();
                fragment.write_key(&mut key);
                let sub = fragment.model();
                let analyses = [DependenceMethod::Abstraction, DependenceMethod::Precedence]
                    .map(|method| analyse(&sub, method));
                match seen.entry(key) {
                    Entry::Vacant(e) => {
                        e.insert(analyses);
                    }
                    Entry::Occupied(e) => prop_assert_eq!(
                        e.get(),
                        &analyses,
                        "two fragments share the key {:?}",
                        e.key()
                    ),
                }
            }
        }
    }

    /// A no-op edit (re-asserting the current initial values) must not
    /// change the report, and repeating the same elicit must hit the
    /// memo rather than recompute.
    #[test]
    fn noop_edits_and_repeats_are_stable(n in 2usize..4, seed in any::<u64>()) {
        let mut next = lcg(seed);
        let obs = Obs::disabled();
        let mut model = random_model(n, &mut next);
        if from_scratch(&model).is_none() {
            return; // degenerate model with no behaviour: nothing to compare
        }
        let mut engine = IncrementalElicitor::new(64).unwrap().method(DependenceMethod::Precedence);
        let first = engine.elicit(&model, &obs).expect("first run");
        let noop = ModelDelta::SetInitial {
            name: model.components()[0].name.clone(),
            initial: model.components()[0].initial.clone(),
        };
        model.apply(&noop).expect("no-op edit");
        let again = engine.elicit(&model, &obs).expect("after no-op");
        assert_bit_identical(&again, &first, "after a no-op edit");
        let before = engine.memo_counters().misses;
        let third = engine.elicit(&model, &obs).expect("repeat");
        assert_bit_identical(&third, &first, "on repeat");
        prop_assert_eq!(
            engine.memo_counters().misses, before,
            "a repeated elicit must be pure memo hits"
        );
    }
}
