//! Pricing incremental elicitation (PR 7).
//!
//! The incremental engine memoises each fragment's analysis under the
//! fragment's content, so after a model edit only fragments with new
//! content are analysed. These groups pin the headline claim: on the
//! six-vehicle scenario, a single-component edit followed by
//! re-elicitation is at least an order of magnitude cheaper than
//! eliciting the edited model from scratch.
//!
//! * `incremental_edit/single_component_edit` — warm engine, apply
//!   `set-initial gps5 20010`, re-elicit, undo, re-elicit: both model
//!   states are memoised, so every iteration is two all-hit elicits.
//! * `incremental_edit/from_scratch` — compile + reachability +
//!   `elicit_with_options` on the same edited model, no memo.
//! * `incremental_edit/warm_replay` — repeat elicitation with no edit:
//!   the pure memo-lookup floor.

use criterion::{criterion_group, criterion_main, Criterion};
use fsa_core::assisted::{elicit_with_options, DependenceMethod, ElicitOptions};
use fsa_core::delta::{EditModel, ModelDelta};
use fsa_core::incremental::IncrementalElicitor;
use fsa_obs::Obs;
use std::hint::black_box;

const MEMO_CAPACITY: usize = 256;

fn six_vehicle_model() -> EditModel {
    vanet::apa_model::n_pair_model(3)
}

fn edit_and_undo() -> (ModelDelta, ModelDelta) {
    (
        ModelDelta::parse("set-initial gps5 20010").expect("edit parses"),
        ModelDelta::parse("set-initial gps5 20000").expect("undo parses"),
    )
}

fn from_scratch(model: &EditModel) {
    let graph = model
        .compile()
        .expect("model compiles")
        .reachability(&apa::ReachOptions::default())
        .expect("reachability");
    black_box(elicit_with_options(
        &graph,
        &ElicitOptions {
            method: DependenceMethod::Precedence,
        },
        |max| model.stakeholder(max),
    ));
}

fn bench_incremental_edit(c: &mut Criterion) {
    let obs = Obs::disabled();
    let (edit, undo) = edit_and_undo();

    let mut group = c.benchmark_group("incremental_edit");
    group.sample_size(20);

    // Warm engine: the base model is memoised up front and the edited
    // state on the first iteration, so every iteration pays the edit
    // path of a warm session.
    let mut model = six_vehicle_model();
    let mut engine = IncrementalElicitor::new(MEMO_CAPACITY)
        .unwrap()
        .method(DependenceMethod::Precedence);
    engine.elicit(&model, &obs).expect("warm base");
    group.bench_function("single_component_edit", |b| {
        b.iter(|| {
            model.apply(&edit).expect("edit");
            black_box(engine.elicit(&model, &obs).expect("re-elicit"));
            model.apply(&undo).expect("undo");
            black_box(engine.elicit(&model, &obs).expect("re-elicit undone"));
        })
    });

    // The comparison point: the same pair of model states, each
    // elicited from scratch (what a non-incremental tool pays).
    let mut edited = six_vehicle_model();
    edited.apply(&edit).expect("edit applies");
    group.bench_function("from_scratch", |b| {
        b.iter(|| {
            from_scratch(black_box(&edited));
            from_scratch(black_box(&six_vehicle_model()));
        })
    });

    // Floor: no edit at all — a repeated elicit is pure memo lookups.
    let replay_model = six_vehicle_model();
    let mut replay = IncrementalElicitor::new(MEMO_CAPACITY)
        .unwrap()
        .method(DependenceMethod::Precedence);
    replay.elicit(&replay_model, &obs).expect("warm replay");
    group.bench_function("warm_replay", |b| {
        b.iter(|| {
            black_box(
                replay
                    .elicit(black_box(&replay_model), &obs)
                    .expect("replay"),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_incremental_edit);
criterion_main!(benches);
