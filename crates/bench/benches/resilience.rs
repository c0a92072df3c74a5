//! Supervised engine cost and checkpoint cost.
//!
//! Every exploration and fleet runs under the supervised execution
//! layer (`catch_unwind` + work-stealing chunks); these groups price the
//! 3-vehicle exploration and an 8×512 fleet on it. The checkpoint
//! benches price one atomic snapshot write/read round-trip so the
//! `--checkpoint-every` default can be chosen against real numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use fsa_core::checkpoint::{config_fingerprint, CheckpointCounters, ExploreCheckpoint};
use fsa_core::explore::{Accepted, ExecOptions, ExploreOptions};
use fsa_exec::Supervisor;
use std::hint::black_box;
use vanet::exploration::explore_scenario_supervised;

fn bench_supervised_exploration(c: &mut Criterion) {
    let mut group = c.benchmark_group("resilience");
    group.sample_size(20);
    for threads in [1usize, 4] {
        let options = ExploreOptions {
            threads,
            ..ExploreOptions::default()
        };
        group.bench_function(format!("explore_supervised_3v_t{threads}"), |b| {
            let exec = ExecOptions::default();
            b.iter(|| {
                black_box(explore_scenario_supervised(3, black_box(&options), &exec).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_supervised_fleet(c: &mut Criterion) {
    use fsa_core::requirements::AuthRequirement;
    use fsa_core::{Action, Agent};
    use fsa_runtime::{monitor_apa_supervised, FleetConfig};
    let apa = vanet::forwarding::forwarding_chain_apa().expect("valid model");
    let set: fsa_core::requirements::RequirementSet = [AuthRequirement::new(
        Action::parse("V1_sense"),
        Action::parse("V3_show"),
        Agent::new("D_3"),
    )]
    .into_iter()
    .collect();
    let cfg = FleetConfig {
        streams: 8,
        events_per_stream: 512,
        threads: 4,
        ..FleetConfig::default()
    };
    let parts = std::slice::from_ref(&apa);
    let mut group = c.benchmark_group("resilience");
    group.bench_function("fleet_supervised_8x512_t4", |b| {
        let sup = Supervisor::new();
        b.iter(|| {
            black_box(monitor_apa_supervised(&apa, parts, &set, black_box(&cfg), &sup).unwrap())
        })
    });
    group.finish();
}

fn bench_checkpoint_io(c: &mut Criterion) {
    // A realistically-sized checkpoint: ~1k accepted (ordinal, mask,
    // certificate) decisions — larger than any 3-vehicle run produces.
    let fingerprint = config_fingerprint(&[], &[], &ExploreOptions::default());
    let cp = ExploreCheckpoint {
        fingerprint,
        next_ordinal: 64,
        pending_masks: (0..256u64).collect(),
        accepted: (0..1024u64)
            .map(|i| Accepted {
                ordinal: i / 16,
                mask: i,
                certificate: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            })
            .collect(),
        counters: CheckpointCounters::default(),
    };
    let dir = std::env::temp_dir().join(format!("fsa-bench-ck-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.fsas");

    let mut group = c.benchmark_group("resilience");
    group.bench_function("checkpoint_write_atomic_1k", |b| {
        b.iter(|| cp.write(black_box(&path)).unwrap())
    });
    cp.write(&path).unwrap();
    group.bench_function("checkpoint_read_validate_1k", |b| {
        b.iter(|| black_box(ExploreCheckpoint::read(black_box(&path)).unwrap()))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_supervised_exploration,
    bench_supervised_fleet,
    bench_checkpoint_io
);
criterion_main!(benches);
