//! Experiment S6: runtime conformance monitoring (§2.7) — throughput
//! of the fused monitor bank on streaming APA traces.
//!
//! `bank_feed` is the acceptance-criterion bench: the six-vehicle
//! requirement set (three warner/forwarder pairs, paper semantics)
//! compiled into one flat transition table and fed a pre-generated
//! event stream — the hot loop is one table lookup per (monitor,
//! event). The criterion number divided into the stream length must
//! exceed 1M events/sec single-threaded in release mode.
//!
//! `fleet_end_to_end` measures the full pipeline (simulate → inject →
//! check) at 1/2/4 worker threads, whose reports are bit-identical by
//! construction.
//!
//! `simulate` prices trace generation for one fleet stream of the
//! six-vehicle scenario (114 episodes of 18 steps): a cold
//! `Simulator::new` per episode against one simulator restarted per
//! episode, which keeps its firing memo across the episodes.

use apa::{Apa, ReachOptions, Simulator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsa_core::assisted::{elicit_from_graph, DependenceMethod};
use fsa_core::requirements::RequirementSet;
use fsa_runtime::{monitor_apa, FleetConfig, MonitorBank};
use std::hint::black_box;
use vanet::apa_model::{n_pair_apa, stakeholder_of};
use vanet::semantics::ApaSemantics;

/// The six-vehicle scenario (three warner/forwarder pairs) and its
/// elicited requirement set — the bench workload named in the issue.
fn six_vehicle() -> (Apa, RequirementSet) {
    let apa = n_pair_apa(3, ApaSemantics::PAPER).expect("valid model");
    let graph = apa
        .reachability(&ReachOptions::default())
        .expect("finite behaviour");
    let set = elicit_from_graph(&graph, DependenceMethod::Precedence, stakeholder_of).requirements;
    assert!(!set.is_empty(), "six-vehicle model elicits requirements");
    (apa, set)
}

/// A long honest event stream for the bank, pre-mapped to bank
/// symbols: simulator episodes concatenated until `len` events.
fn honest_stream(apa: &Apa, bank: &MonitorBank, len: usize) -> Vec<u32> {
    let mut events = Vec::with_capacity(len);
    let mut seed = 0x6_5EED;
    let mut sim = Simulator::new(apa, seed);
    while events.len() < len {
        sim.run(4096).expect("honest run");
        for label in sim.trace() {
            events.push(bank.event_symbol(sim.symbols().name(label.automaton)));
            if events.len() == len {
                break;
            }
        }
        seed += 1;
        sim.restart(seed);
    }
    events
}

fn bench_monitoring(c: &mut Criterion) {
    let (apa, set) = six_vehicle();
    let bank = MonitorBank::for_apa(&set, &apa).expect("compiles");

    // Acceptance criterion: fused-bank throughput on a pre-generated
    // stream (pure check stage, single thread).
    let mut group = c.benchmark_group("monitoring");
    const STREAM: usize = 1 << 16;
    let events = honest_stream(&apa, &bank, STREAM);
    group.bench_function(
        BenchmarkId::new("bank_feed", format!("{}mon", bank.len())),
        |b| {
            b.iter(|| {
                let mut run = bank.start();
                bank.feed(&mut run, black_box(&events));
                black_box(run.events)
            })
        },
    );

    // Compilation cost: requirement set → fused table.
    group.bench_function("compile_bank", |b| {
        b.iter(|| black_box(MonitorBank::for_apa(black_box(&set), &apa).expect("compiles")))
    });

    // End-to-end fleet (simulate + inject + check) across worker
    // counts; the per-thread reports are bit-identical.
    for threads in [1usize, 2, 4] {
        let cfg = FleetConfig {
            streams: 8,
            events_per_stream: 2048,
            threads,
            ..FleetConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("fleet_end_to_end", threads),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    let (_, report) = monitor_apa(&apa, &set, cfg).expect("fleet runs");
                    assert!(report.verdicts.iter().all(|v| v.holds()));
                    black_box(report.events)
                })
            },
        );
    }
    group.finish();

    // Trace generation for one fleet stream: 114 episodes of the
    // six-vehicle model, cold per episode or restarted on one memo.
    const EPISODES: u64 = 114;
    let mut group = c.benchmark_group("simulate");
    group.bench_function("new_per_episode", |b| {
        b.iter(|| {
            let mut steps = 0;
            for episode in 0..EPISODES {
                let mut sim = Simulator::new(&apa, black_box(episode));
                steps += sim.run(4096).expect("honest run");
            }
            black_box(steps)
        })
    });
    group.bench_function("restart_per_episode", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&apa, 0);
            let mut steps = 0;
            for episode in 0..EPISODES {
                sim.restart(black_box(episode));
                steps += sim.run(4096).expect("honest run");
            }
            black_box(steps)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_monitoring);
criterion_main!(benches);
