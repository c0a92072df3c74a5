//! Scaling of the manual pipeline (closure → χ → requirements) on
//! layered synthetic models, plus parameterisation cost.

use bench::layered_instance;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsa_core::manual::elicit;
use fsa_core::param::parameterise;
use std::hint::black_box;

fn bench_elicit_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("elicit_layered");
    for (layers, width) in [(4, 4), (8, 8), (12, 12)] {
        let inst = layered_instance(layers, width);
        group.bench_with_input(
            BenchmarkId::new("elicit", inst.action_count()),
            &inst,
            |b, inst| b.iter(|| black_box(elicit(black_box(inst)).expect("loop-free"))),
        );
    }
    group.finish();
}

fn bench_random_traffic(c: &mut Criterion) {
    // Experiment S7: elicitation on randomly generated V2V topologies.
    use vanet::generator::{random_traffic_instance, TrafficConfig};
    let topology = |vehicles| {
        random_traffic_instance(
            &TrafficConfig {
                vehicles,
                ..Default::default()
            },
            42,
        )
    };
    let mut group = c.benchmark_group("elicit_random_traffic");
    group.sample_size(10);
    for vehicles in [50usize, 200, 500] {
        let inst = topology(vehicles);
        group.bench_with_input(BenchmarkId::new("vehicles", vehicles), &inst, |b, inst| {
            b.iter(|| black_box(elicit(black_box(inst)).expect("loop-free")))
        });
    }
    // The whole of `fsa elicit SPEC` but file and terminal I/O, on the
    // sizes of fsabench's `elicit` topologies: parse the rendered spec,
    // run §4, render the report.
    for vehicles in [110usize, 290] {
        let source = speclang::pretty::render(&topology(vehicles));
        group.bench_with_input(BenchmarkId::new("spec", vehicles), &source, |b, source| {
            b.iter(|| {
                let instances = speclang::parse(black_box(source)).expect("a rendered spec parses");
                let report = elicit(&instances[0]).expect("loop-free");
                black_box(fsa_core::report::render_manual(&report))
            })
        });
    }
    group.finish();
}

fn bench_parameterise(c: &mut Criterion) {
    let inst = vanet::instances::forwarding_chain(64);
    let set = elicit(&inst).expect("loop-free").requirement_set();
    c.bench_function("parameterise_64_forwarders", |b| {
        b.iter(|| black_box(parameterise(black_box(&set), 2)))
    });
}

/// The tool-assisted pipeline on the dataflow APA of a layered model:
/// the full dependence-checking engine (minima/maxima scan + one
/// precedence walk per minimum over the reachability graph), against
/// the seed's per-pair queries.
fn bench_assisted_engine(c: &mut Criterion) {
    use fsa_core::assisted::{elicit_with_options, ElicitOptions};
    use fsa_core::dataflow::dataflow_apa;
    use fsa_core::Agent;

    let inst = bench::layered_instance(3, 8);
    let graph = dataflow_apa(&inst)
        .expect("loop-free")
        .reachability(&apa::ReachOptions::default())
        .expect("bounded");

    let mut group = c.benchmark_group("assisted_engine_layered");
    group.sample_size(10);

    // The pre-engine baseline: independent seed-style O(V·E)
    // precedence queries per grid pair.
    let behaviour = graph.to_nfa();
    let minima = graph.minima();
    let maxima = graph.maxima();
    group.bench_function("seed_per_pair", |b| {
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

    let options = ElicitOptions::service(1);
    group.bench_function("threads_1", |b| {
        b.iter(|| {
            black_box(elicit_with_options(black_box(&graph), &options, |_| {
                Agent::new("P")
            }))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_elicit_scaling,
    bench_random_traffic,
    bench_parameterise,
    bench_assisted_engine
);
criterion_main!(benches);
