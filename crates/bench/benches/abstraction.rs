//! Experiment S3 (ablation) / Figs. 10-11: the two dependence decision
//! procedures — homomorphic abstraction + minimal automaton vs. direct
//! precedence check — on the four-vehicle behaviour.

use apa::ReachOptions;
use criterion::{criterion_group, criterion_main, Criterion};
use fsa_core::assisted::{
    dependence_by_abstraction, dependence_by_precedence, elicit_with_options, DependenceMethod,
    ElicitOptions,
};
use std::hint::black_box;
use vanet::apa_model::{four_vehicle_apa, n_pair_apa, stakeholder_of};
use vanet::semantics::ApaSemantics;

fn bench_dependence(c: &mut Criterion) {
    let graph = four_vehicle_apa(ApaSemantics::PAPER)
        .expect("valid model")
        .reachability(&ReachOptions::default())
        .expect("bounded");
    let behaviour = graph.to_nfa();

    let mut group = c.benchmark_group("dependence");
    group.bench_function("abstraction_dependent_pair", |b| {
        b.iter(|| {
            black_box(dependence_by_abstraction(
                black_box(&behaviour),
                "V1_sense",
                "V2_show",
            ))
        })
    });
    group.bench_function("abstraction_independent_pair", |b| {
        b.iter(|| {
            black_box(dependence_by_abstraction(
                black_box(&behaviour),
                "V1_sense",
                "V4_show",
            ))
        })
    });
    group.bench_function("precedence_dependent_pair", |b| {
        b.iter(|| {
            black_box(dependence_by_precedence(
                black_box(&behaviour),
                "V1_sense",
                "V2_show",
            ))
        })
    });
    group.bench_function("precedence_independent_pair", |b| {
        b.iter(|| {
            black_box(dependence_by_precedence(
                black_box(&behaviour),
                "V1_sense",
                "V4_show",
            ))
        })
    });
    group.finish();

    // The full minimisation pipeline on the homomorphic image.
    let mut group = c.benchmark_group("abstraction_pipeline");
    group.bench_function("determinize_minimize_image", |b| {
        let h = automata::Homomorphism::erase_all_except(["V1_sense", "V2_show"]);
        b.iter(|| {
            let image = h.apply(black_box(&behaviour));
            black_box(automata::ops::minimize(&automata::ops::determinize(&image)))
        })
    });
    group.finish();
}

/// The full §5.5 dependence-checking engine on the three-pair
/// (six-vehicle) behaviour: the abstraction method vs. the precedence
/// method (one walk per minimum). Verdicts are bit-identical across
/// methods (see `tests/kernel_differential.rs`); only the wall-clock
/// differs.
fn bench_engine(c: &mut Criterion) {
    let graph = n_pair_apa(3, ApaSemantics::PAPER)
        .expect("valid model")
        .reachability(&ReachOptions::default())
        .expect("bounded");

    let mut group = c.benchmark_group("elicitation_engine");
    group.sample_size(10);

    // The pre-engine baseline: one independent decision-procedure call
    // per (minimum, maximum) pair, with the seed's O(V·E) reachability
    // scan (`a_free_reachable` re-walked the full transition list for
    // every popped state) — what `elicit_from_graph` did before the
    // engine landed.
    let behaviour = graph.to_nfa();
    let minima = graph.minima();
    let maxima = graph.maxima();
    group.bench_function("seed_per_pair_precedence", |b| {
        b.iter(|| {
            let mut dependent = 0usize;
            for max in &maxima {
                for min in &minima {
                    if min != max && bench::seed_precedes(black_box(&behaviour), min, max) {
                        dependent += 1;
                    }
                }
            }
            black_box(dependent)
        })
    });

    // The same grid with the current per-call decision procedure
    // (adjacency-indexed BFS, rebuilt per call).
    group.bench_function("naive_per_pair_precedence", |b| {
        b.iter(|| {
            let mut dependent = 0usize;
            for max in &maxima {
                for min in &minima {
                    if min != max && dependence_by_precedence(black_box(&behaviour), min, max) {
                        dependent += 1;
                    }
                }
            }
            black_box(dependent)
        })
    });

    for (name, options) in [
        (
            "seq_naive",
            ElicitOptions {
                method: DependenceMethod::Abstraction,
            },
        ),
        ("seq_precedence", ElicitOptions::service(1)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(elicit_with_options(
                    black_box(&graph),
                    &options,
                    stakeholder_of,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dependence, bench_engine);
criterion_main!(benches);
