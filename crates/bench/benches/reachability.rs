//! Experiment S1 / Figs. 7 & 9: reachability-graph computation.
//!
//! The state count grows geometrically with the number of independent
//! vehicle pairs (paper: 13 → 169; printed Δ-semantics: 12 → 144); this
//! bench charts the cost of computing those graphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vanet::apa_model::n_pair_apa;
use vanet::semantics::ApaSemantics;

fn bench_reachability(c: &mut Criterion) {
    let mut group = c.benchmark_group("reachability");
    for pairs in 1..=3usize {
        let apa = n_pair_apa(pairs, ApaSemantics::PAPER).expect("valid model");
        let states = apa
            .reachability(&apa::ReachOptions::default())
            .expect("bounded")
            .state_count();
        group.bench_with_input(
            BenchmarkId::new(
                "n_pair_paper_semantics",
                format!("{pairs}pairs_{states}states"),
            ),
            &pairs,
            |b, _| {
                b.iter(|| {
                    let g = apa
                        .reachability(black_box(&apa::ReachOptions::default()))
                        .expect("bounded");
                    black_box(g.state_count())
                })
            },
        );
    }
    group.finish();
}

fn bench_semantics_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("reachability_semantics");
    for semantics in ApaSemantics::ALL {
        let apa = n_pair_apa(2, semantics).expect("valid model");
        group.bench_with_input(
            BenchmarkId::new("four_vehicle", semantics.tag()),
            &semantics,
            |b, _| {
                b.iter(|| {
                    let g = apa
                        .reachability(black_box(&apa::ReachOptions::default()))
                        .expect("bounded");
                    black_box(g.state_count())
                })
            },
        );
    }
    group.finish();
}

fn bench_arena_vs_reference(c: &mut Criterion) {
    // The arena/CSR kernel against the retained HashMap-of-GlobalState
    // oracle, both single-threaded on the six-vehicle (3-pair, 1728
    // state) instance. The kernel is the default `reachability`; the
    // oracle is what every release before the arena rewrite shipped.
    let apa = n_pair_apa(3, ApaSemantics::PAPER).expect("valid model");
    let mut group = c.benchmark_group("reachability_kernel");
    group.bench_function("arena_csr", |b| {
        b.iter(|| {
            black_box(
                apa.reachability(black_box(&apa::ReachOptions::default()))
                    .expect("bounded"),
            )
        })
    });
    group.bench_function("reference_hashmap", |b| {
        b.iter(|| {
            black_box(
                apa.reachability_reference(black_box(&apa::ReachOptions::default()))
                    .expect("bounded"),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_reachability,
    bench_semantics_variants,
    bench_arena_vs_reference
);
criterion_main!(benches);
