//! Pricing distributed exploration (the `fsa_dist` coordinator/worker
//! stack) against the single-process supervised engine on the same
//! universes.
//!
//! * `distributed/single_process_v{3,4}` — the baseline: one
//!   supervised engine over the whole vector space.
//! * `distributed/workers_{1,2}_v{3,4}` — a real TCP coordinator on
//!   loopback plus in-process thread workers. `workers_1` prices the
//!   pure distribution overhead (leasing, framing, store-and-forward
//!   state writes, merge) with zero parallelism to pay for it;
//!   `workers_2` shows what two workers claw back on these small
//!   universes.
//! * `lease_protocol_tax` — the per-lease frame cost in isolation:
//!   encode/decode of one `lease` round-trip and one `shard-result`
//!   carrying a realistic accepted log.
//! * `retry_backoff` — lease contention under oversubscription: 16
//!   workers fighting over 4 shards, pacing themselves with the
//!   seeded decorrelated jitter. The coordinator holds a contended
//!   request until a shard frees up or the universe is done, so a
//!   worker only sleeps when a hold runs out (500 ms).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsa_core::checkpoint::CheckpointCounters;
use fsa_core::explore::{Accepted, ExecOptions, ExploreOptions};
use fsa_dist::local::{explore_distributed, LocalConfig, WorkerMode};
use fsa_dist::proto::{
    decode_to_coordinator, decode_to_worker, encode_to_coordinator, encode_to_worker,
    ToCoordinator, ToWorker,
};
use std::hint::black_box;
use vanet::exploration::explore_scenario_supervised;

fn bench_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed");
    group.sample_size(10);
    for max_vehicles in [3usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("single_process", format!("v{max_vehicles}")),
            &max_vehicles,
            |b, &n| {
                b.iter(|| {
                    black_box(
                        explore_scenario_supervised(
                            n,
                            &ExploreOptions::default(),
                            &ExecOptions::default(),
                        )
                        .unwrap(),
                    )
                })
            },
        );
        for workers in [1usize, 2] {
            group.bench_with_input(
                BenchmarkId::new(format!("workers_{workers}"), format!("v{max_vehicles}")),
                &max_vehicles,
                |b, &n| {
                    let config = LocalConfig {
                        max_vehicles: n,
                        workers,
                        ..LocalConfig::default()
                    };
                    b.iter(|| {
                        black_box(explore_distributed(&config, &WorkerMode::Threads).unwrap())
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_lease_tax(c: &mut Criterion) {
    let mut group = c.benchmark_group("lease_protocol_tax");
    let grant = ToWorker::Grant {
        start: 3,
        end: 7,
        lease_ms: 2000,
    };
    group.bench_function("lease_roundtrip", |b| {
        b.iter(|| {
            let req = encode_to_coordinator(black_box(&ToCoordinator::Lease));
            black_box(decode_to_coordinator(&req).unwrap());
            let rsp = encode_to_worker(black_box(&grant));
            black_box(decode_to_worker(&rsp).unwrap())
        })
    });
    // A realistic shard result: the densest 3-vehicle shard carries a
    // few hundred accepted entries.
    let accepted: Vec<Accepted> = (0..512u64)
        .map(|i| Accepted {
            ordinal: 3 + i / 128,
            mask: i * 37 % 4096,
            certificate: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        })
        .collect();
    let result = ToCoordinator::ShardResult {
        start: 3,
        end: 8,
        accepted,
        counters: CheckpointCounters::default(),
        chi: None,
    };
    group.bench_function("shard_result_roundtrip", |b| {
        b.iter(|| {
            let frame = encode_to_coordinator(black_box(&result));
            black_box(decode_to_coordinator(&frame).unwrap())
        })
    });
    group.finish();
}

fn bench_retry_backoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("retry_backoff");
    group.sample_size(10);
    // 16 workers over 4 shards: at any moment 12 workers hold no
    // lease and are pacing themselves on `retry` frames, so the retry
    // policy dominates how fast freed shards change hands.
    group.bench_function("decorrelated_jitter", |b| {
        let config = LocalConfig {
            max_vehicles: 2,
            workers: 16,
            shards: Some(4),
            ..LocalConfig::default()
        };
        b.iter(|| black_box(explore_distributed(&config, &WorkerMode::Threads).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_distributed,
    bench_lease_tax,
    bench_retry_backoff
);
criterion_main!(benches);
