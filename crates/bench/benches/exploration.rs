//! Experiment S5: instance-space enumeration (§4.2) — cost of
//! generating, de-duplicating and analysing all structurally different
//! compositions of the scenario's component models.
//!
//! The dedup benches compare the quadratic pairwise baseline against the
//! streaming certificate engine on the same candidate stream (each
//! isomorphism class of the universe, duplicated `DUP` times — the
//! pre-dedup candidate flood the enumerator would otherwise feed it).
//! `pairwise_dedup` is only run at 2 and 3 vehicles: at 4 vehicles the
//! stream holds 4 × 3015 ≈ 12 000 graphs and the O(n · classes) exact
//! isomorphism scan needs tens of millions of backtracking checks —
//! infeasible per iteration, which is exactly why the certificate
//! engine exists. The certificate paths handle the same 4-vehicle
//! stream in a single hash pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsa_core::explore::{ExecOptions, ExploreOptions};
use fsa_graph::iso::{canonical_certificate, dedup_isomorphic, dedup_isomorphic_certified};
use fsa_graph::DiGraph;
use std::hint::black_box;
use vanet::exploration::{enumerate_scenario_instances, explore_scenario_universe};

/// Duplication factor of the candidate stream fed to the dedup benches.
const DUP: usize = 4;

/// The shape graphs of the `max_vehicles` universe, duplicated `DUP`
/// times — a candidate stream whose class count is known.
fn candidate_stream(max_vehicles: usize) -> Vec<DiGraph<String>> {
    let instances =
        enumerate_scenario_instances(max_vehicles, &ExploreOptions::default()).expect("bounded");
    let shapes: Vec<DiGraph<String>> = instances.iter().map(|i| i.shape_graph()).collect();
    let mut stream = Vec::with_capacity(shapes.len() * DUP);
    for _ in 0..DUP {
        stream.extend(shapes.iter().cloned());
    }
    stream
}

fn bench_exploration(c: &mut Criterion) {
    let mut group = c.benchmark_group("exploration");
    group.sample_size(10);

    // What `fsa explore` runs: the class engine with its requirement
    // union, on one thread, composing no instance. Each iteration also
    // drops its universe (3 015 classes at 4 vehicles).
    let exec = ExecOptions::default();
    for max_vehicles in [1usize, 2, 3, 4] {
        group.bench_with_input(
            BenchmarkId::new("enumerate", max_vehicles),
            &max_vehicles,
            |b, &mv| {
                b.iter(|| {
                    black_box(
                        explore_scenario_universe(mv, &ExploreOptions::default(), &exec)
                            .expect("bounded"),
                    )
                })
            },
        );
    }
    // The same with 4 worker threads, on the scale target: 16 candidate
    // flows → 65 536 subsets for the full (1 RSU, 4 V) multiplicity
    // vector, enumerated with orbit pruning.
    group.bench_function("enumerate_threads4/4", |b| {
        b.iter(|| {
            black_box(
                explore_scenario_universe(
                    4,
                    &ExploreOptions {
                        threads: 4,
                        ..Default::default()
                    },
                    &exec,
                )
                .expect("bounded"),
            )
        })
    });

    // Dedup head-to-head on identical candidate streams.
    for max_vehicles in [2usize, 3] {
        let stream = candidate_stream(max_vehicles);
        group.bench_with_input(
            BenchmarkId::new("pairwise_dedup", max_vehicles),
            &stream,
            |b, s| b.iter(|| black_box(dedup_isomorphic(s.clone()))),
        );
    }
    for max_vehicles in [2usize, 3, 4] {
        let stream = candidate_stream(max_vehicles);
        group.bench_with_input(
            BenchmarkId::new("certificate_dedup", max_vehicles),
            &stream,
            |b, s| b.iter(|| black_box(dedup_isomorphic_certified(s.clone()))),
        );
    }

    // Certificates alone (colour refinement plus the canonical trace):
    // one per class of the 4-vehicle universe (3015 shape graphs),
    // without bucketing or exact isomorphism.
    let shapes: Vec<DiGraph<String>> = enumerate_scenario_instances(4, &ExploreOptions::default())
        .expect("bounded")
        .iter()
        .map(|i| i.shape_graph())
        .collect();
    group.bench_with_input(BenchmarkId::new("certificate", 4), &shapes, |b, shapes| {
        b.iter(|| {
            black_box(
                shapes
                    .iter()
                    .map(|g| canonical_certificate(black_box(g)))
                    .fold(0u64, u64::wrapping_add),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_exploration);
criterion_main!(benches);
