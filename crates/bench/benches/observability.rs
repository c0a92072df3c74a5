//! Pricing the observability layer (PR 5).
//!
//! The acceptance bar is **< 2 % overhead** for a *disabled* [`Obs`]
//! handle — the default on every engine entry point — over the same
//! engine before the probes existed. Since every probe compiles to one
//! `Option` branch, the honest way to price that is to benchmark the
//! instrumented engines with `Obs::disabled()` (today's plain path)
//! against `Obs::enabled()` (every span/counter recorded), and to
//! price the raw probe primitives in isolation. The enabled deltas on
//! real workloads bound the disabled cost from above: disabled mode
//! does strictly less work per probe.
//!
//! Groups:
//! * `obs_probe`     — raw cost of one span / counter / histogram hit,
//!   disabled vs. enabled (nanoseconds; disabled must be ~1 ns).
//! * `obs_elicit`    — assisted pipeline, disabled vs. enabled.
//! * `obs_explore`   — 3-vehicle instance exploration, disabled vs.
//!   enabled.
//! * `obs_fleet`     — 8×512 monitor fleet, disabled vs. enabled.
//! * `obs_export`    — snapshot + stats/trace serialisation of a
//!   fleet-sized registry (the once-per-run artefact cost).

use criterion::{criterion_group, criterion_main, Criterion};
use fsa_obs::Obs;
use std::hint::black_box;
use std::time::Duration;

fn bench_probe_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_probe");
    for (mode, obs) in [("disabled", Obs::disabled()), ("enabled", Obs::enabled())] {
        group.bench_function(format!("span_{mode}"), |b| {
            b.iter(|| black_box(obs.span("bench.probe").finish()))
        });
        group.bench_function(format!("counter_{mode}"), |b| {
            b.iter(|| obs.counter_add(black_box("bench.counter"), black_box(1)))
        });
        group.bench_function(format!("histogram_{mode}"), |b| {
            b.iter(|| {
                obs.record_duration(
                    black_box("bench.hist"),
                    Duration::from_nanos(black_box(512)),
                )
            })
        });
    }
    group.finish();
}

fn bench_elicit_overhead(c: &mut Criterion) {
    use fsa_core::assisted::{elicit_observed, ElicitOptions};
    use fsa_core::dataflow::dataflow_apa;
    use fsa_core::Agent;

    let inst = bench::layered_instance(3, 8);
    let graph = dataflow_apa(&inst)
        .expect("loop-free")
        .reachability(&apa::ReachOptions::default())
        .expect("bounded");
    let options = ElicitOptions::service(1);

    let mut group = c.benchmark_group("obs_elicit");
    group.sample_size(20);
    for (mode, obs) in [("disabled", Obs::disabled()), ("enabled", Obs::enabled())] {
        group.bench_function(format!("assisted_3x8_{mode}"), |b| {
            b.iter(|| {
                black_box(elicit_observed(black_box(&graph), &options, &obs, |_| {
                    Agent::new("P")
                }))
            })
        });
    }
    group.finish();
}

fn bench_explore_overhead(c: &mut Criterion) {
    use fsa_core::explore::ExploreOptions;
    use vanet::exploration::explore_scenario;

    let mut group = c.benchmark_group("obs_explore");
    group.sample_size(10);
    for (mode, obs) in [("disabled", Obs::disabled()), ("enabled", Obs::enabled())] {
        let options = ExploreOptions {
            threads: 4,
            obs: obs.clone(),
            ..ExploreOptions::default()
        };
        group.bench_function(format!("explore_3v_t4_{mode}"), |b| {
            b.iter(|| black_box(explore_scenario(3, black_box(&options)).unwrap()))
        });
    }
    group.finish();
}

fn bench_fleet_overhead(c: &mut Criterion) {
    use fsa_core::requirements::AuthRequirement;
    use fsa_core::{Action, Agent};
    use fsa_runtime::{monitor_apa, FleetConfig};

    let apa = vanet::forwarding::forwarding_chain_apa().expect("valid model");
    let set: fsa_core::requirements::RequirementSet = [AuthRequirement::new(
        Action::parse("V1_sense"),
        Action::parse("V3_show"),
        Agent::new("D_3"),
    )]
    .into_iter()
    .collect();

    let mut group = c.benchmark_group("obs_fleet");
    group.sample_size(20);
    for (mode, obs) in [("disabled", Obs::disabled()), ("enabled", Obs::enabled())] {
        let cfg = FleetConfig {
            streams: 8,
            events_per_stream: 512,
            threads: 4,
            obs: obs.clone(),
            ..FleetConfig::default()
        };
        group.bench_function(format!("fleet_8x512_t4_{mode}"), |b| {
            b.iter(|| black_box(monitor_apa(&apa, &set, black_box(&cfg)).unwrap()))
        });
    }
    group.finish();
}

fn bench_export_cost(c: &mut Criterion) {
    use fsa_core::requirements::AuthRequirement;
    use fsa_core::{Action, Agent};
    use fsa_runtime::{monitor_apa, FleetConfig};

    // Fill a registry with a realistic fleet run's worth of series.
    let apa = vanet::forwarding::forwarding_chain_apa().expect("valid model");
    let set: fsa_core::requirements::RequirementSet = [AuthRequirement::new(
        Action::parse("V1_sense"),
        Action::parse("V3_show"),
        Agent::new("D_3"),
    )]
    .into_iter()
    .collect();
    let obs = Obs::enabled();
    let cfg = FleetConfig {
        streams: 8,
        events_per_stream: 512,
        threads: 4,
        obs: obs.clone(),
        ..FleetConfig::default()
    };
    monitor_apa(&apa, &set, &cfg).unwrap();

    let mut group = c.benchmark_group("obs_export");
    group.bench_function("snapshot", |b| b.iter(|| black_box(obs.snapshot())));
    let snapshot = obs.snapshot();
    group.bench_function("stats_json", |b| {
        b.iter(|| black_box(snapshot.to_stats_json()))
    });
    group.bench_function("trace_json", |b| {
        b.iter(|| black_box(snapshot.to_trace_json()))
    });
    group.bench_function("jsonl", |b| b.iter(|| black_box(snapshot.to_jsonl())));
    group.finish();
}

criterion_group!(
    benches,
    bench_probe_primitives,
    bench_elicit_overhead,
    bench_explore_overhead,
    bench_fleet_overhead,
    bench_export_cost
);
criterion_main!(benches);
