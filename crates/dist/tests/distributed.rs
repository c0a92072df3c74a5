//! End-to-end distributed exploration over real TCP on loopback:
//! bit-identity against the single-process engine, lease renewal,
//! expiry and re-issue, coordinator restart from the store-and-forward
//! state file, and the frame cap.

use fsa_core::explore::{ExecOptions, ExploreOptions, Universe};
use fsa_dist::coord::{CoordConfig, Coordinator};
use fsa_dist::error::DistError;
use fsa_dist::local::{explore_distributed, LocalConfig, WorkerMode};
use fsa_dist::proto::{
    decode_to_worker, encode_to_coordinator, ToCoordinator, ToWorker, MAX_FRAME,
};
use fsa_dist::state::CoordState;
use fsa_dist::worker::{run_worker, WorkerConfig};
use fsa_obs::Obs;
use fsa_serve::wire;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

#[path = "../../../tests/support/temp_dir.rs"]
mod temp_dir;

use temp_dir::TempDir;

/// Held by the tests that let the driver create its ephemeral state
/// directory, so one of them can tell which directories are its own.
static EPHEMERAL_DIRS: Mutex<()> = Mutex::new(());

/// This process's ephemeral driver directories (`fsa-dist-<pid>-<n>`).
fn ephemeral_dirs() -> Vec<PathBuf> {
    let prefix = format!("fsa-dist-{}-", std::process::id());
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .map(|e| e.path())
        .collect();
    dirs.sort();
    dirs
}

fn golden(max_vehicles: usize) -> Universe {
    vanet::exploration::explore_scenario_universe(
        max_vehicles,
        &ExploreOptions::default(),
        &ExecOptions::default(),
    )
    .unwrap()
}

fn assert_same_universe(a: &Universe, b: &Universe) {
    assert_eq!(a.classes, b.classes);
    assert_eq!(a.requirements, b.requirements);
    assert_eq!(a.loop_skipped, b.loop_skipped);
}

#[test]
fn three_vehicle_distributed_is_bit_identical() {
    let _dirs = EPHEMERAL_DIRS.lock().unwrap_or_else(|e| e.into_inner());
    let obs = Obs::enabled();
    let config = LocalConfig {
        max_vehicles: 3,
        workers: 3,
        shards: Some(5),
        obs: obs.clone(),
        ..LocalConfig::default()
    };
    let dist = explore_distributed(&config, &WorkerMode::Threads).unwrap();
    let single = vanet::exploration::explore_scenario(3, &ExploreOptions::default()).unwrap();
    assert_same_universe(&single.universe, &dist.universe);
    // `explore_distributed` also composes the same instances.
    assert_eq!(dist.instances.len(), single.instances.len());
    for (x, y) in dist.instances.iter().zip(&single.instances) {
        assert_eq!(x.name(), y.name());
        assert_eq!(x.graph(), y.graph());
    }
    let (d, s) = (&dist.universe.stats, &single.universe.stats);
    assert_eq!(d.candidates, s.candidates);
    // The cross-shard identity: Σ shard hits + merge duplicates.
    assert_eq!(d.certificate_hits, s.certificate_hits);
    assert_eq!(d.classes, s.classes);
    assert!(d.merge_time.is_some() && s.merge_time.is_none());
    let snapshot = obs.snapshot();
    assert_eq!(snapshot.counter("dist.shards_completed"), Some(5));
    assert!(snapshot.counter("dist.leases_granted").unwrap_or(0) >= 5);
    assert!(snapshot.counter("dist.merge_micros").is_some());
    // The rendered CLI report is byte-identical by construction.
    let a = fsa_serve::cli::render_exploration(&single, 3, false, false, 1);
    let b = fsa_serve::cli::render_exploration(&dist, 3, false, false, 1);
    assert_eq!(a.stdout, b.stdout);
}

#[test]
fn expired_lease_is_reissued_and_the_result_still_matches() {
    let obs = Obs::enabled();
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordConfig {
            max_vehicles: 2,
            shards: 3,
            lease_ms: 100,
            obs: obs.clone(),
            ..CoordConfig::default()
        },
    )
    .unwrap();
    let addr = coordinator.addr().unwrap().to_string();
    let coord = std::thread::spawn(move || coordinator.run());

    // A "dead" worker: takes a lease, then goes silent without
    // disconnecting — exactly what a SIGSTOPped or wedged process
    // looks like. Its lease must expire and be re-issued.
    let dead_addr = addr.clone();
    std::thread::spawn(move || {
        let stream = TcpStream::connect(&dead_addr).unwrap();
        let mut reader = stream.try_clone().unwrap();
        let mut writer = stream;
        wire::write_frame(&mut writer, &encode_to_coordinator(&ToCoordinator::Hello)).unwrap();
        let hello = wire::read_frame(&mut reader, MAX_FRAME).unwrap().unwrap();
        assert!(matches!(
            decode_to_worker(&hello).unwrap(),
            ToWorker::Hello(_)
        ));
        wire::write_frame(&mut writer, &encode_to_coordinator(&ToCoordinator::Lease)).unwrap();
        let grant = wire::read_frame(&mut reader, MAX_FRAME).unwrap().unwrap();
        assert!(matches!(
            decode_to_worker(&grant).unwrap(),
            ToWorker::Grant { .. }
        ));
        // Hold the lease (and the socket) far past its deadline.
        std::thread::sleep(Duration::from_secs(30));
    });

    // Give the dead worker a head start so it owns a lease first.
    std::thread::sleep(Duration::from_millis(150));
    let guard = TempDir::new("dist-it-expiry");
    let dir = guard.path().to_path_buf();
    let worker = WorkerConfig {
        state_dir: dir.clone(),
        ..WorkerConfig::default()
    };
    run_worker(&addr, &worker).unwrap();
    let dist = coord.join().unwrap().unwrap();
    assert_same_universe(&golden(2), &dist);
    let snapshot = obs.snapshot();
    assert!(snapshot.counter("dist.leases_expired").unwrap_or(0) >= 1);
    assert!(snapshot.counter("dist.leases_reissued").unwrap_or(0) >= 1);
}

#[test]
fn coordinator_resumes_from_its_state_file() {
    let guard = TempDir::new("dist-it-resume");
    let dir = guard.path().to_path_buf();
    let state_path = dir.join("coordinator.fsas");
    let obs = Obs::enabled();
    let config = LocalConfig {
        max_vehicles: 2,
        workers: 1,
        shards: Some(4),
        state_dir: Some(dir.clone()),
        ..LocalConfig::default()
    };
    let first = explore_distributed(&config, &WorkerMode::Threads).unwrap();
    let single = golden(2);
    assert_same_universe(&single, &first.universe);

    // The state file recorded every shard result before the workers
    // were allowed to drop their checkpoints.
    let state = CoordState::load(&state_path).unwrap();
    assert_eq!(state.completed(), 4);

    // Simulate a coordinator killed before the last shard completed:
    // forget one shard, restart. Only the forgotten range is
    // re-explored, and the merged result is unchanged.
    let mut partial = state.clone();
    partial.shards[2].done = None;
    partial.save(&state_path).unwrap();
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordConfig {
            max_vehicles: 2,
            shards: 4,
            state_path: Some(state_path.clone()),
            obs: obs.clone(),
            ..CoordConfig::default()
        },
    )
    .unwrap();
    let addr = coordinator.addr().unwrap().to_string();
    let coord = std::thread::spawn(move || coordinator.run());
    let worker = WorkerConfig {
        state_dir: dir.clone(),
        ..WorkerConfig::default()
    };
    run_worker(&addr, &worker).unwrap();
    let resumed = coord.join().unwrap().unwrap();
    assert_same_universe(&single, &resumed);
    assert!(resumed.stats.resumed);
    let snapshot = obs.snapshot();
    assert_eq!(snapshot.counter("dist.shards_resumed"), Some(3));
    assert_eq!(snapshot.counter("dist.shards_completed"), Some(1));

    // A state file from a different configuration fails closed.
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordConfig {
            max_vehicles: 3,
            shards: 4,
            state_path: Some(state_path),
            ..CoordConfig::default()
        },
    )
    .unwrap();
    assert!(matches!(coordinator.run(), Err(DistError::State(_))));
}

#[test]
fn exhausted_workers_abort_the_run() {
    // A candidate budget of 1 kills every worker on its first shard;
    // the driver must abort instead of waiting forever, and remove its
    // ephemeral state directory on the way out.
    let _dirs = EPHEMERAL_DIRS.lock().unwrap_or_else(|e| e.into_inner());
    let before = ephemeral_dirs();
    let config = LocalConfig {
        max_vehicles: 2,
        workers: 1,
        max_candidates: 1,
        ..LocalConfig::default()
    };
    let err = explore_distributed(&config, &WorkerMode::Threads).unwrap_err();
    assert!(matches!(err, DistError::Worker(_)), "{err}");
    assert_eq!(
        ephemeral_dirs(),
        before,
        "the state directory was left behind"
    );
}

#[test]
fn a_shard_outliving_several_leases_finishes_in_one_engine_run() {
    // One shard holds the whole 4-vehicle universe and runs for many
    // 150 ms leases: the worker renews mid-run instead of parking, so
    // the engine runs once, never resumes, and no lease expires.
    let obs = Obs::enabled();
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordConfig {
            max_vehicles: 4,
            shards: 1,
            lease_ms: 150,
            obs: obs.clone(),
            ..CoordConfig::default()
        },
    )
    .unwrap();
    let addr = coordinator.addr().unwrap().to_string();
    let coord = std::thread::spawn(move || coordinator.run());
    let guard = TempDir::new("dist-it-renewal");
    let dir = guard.path().to_path_buf();
    let worker_obs = Obs::enabled();
    let worker = WorkerConfig {
        state_dir: dir.clone(),
        obs: worker_obs.clone(),
        ..WorkerConfig::default()
    };
    let started = std::time::Instant::now();
    run_worker(&addr, &worker).unwrap();
    let took = started.elapsed();
    let dist = coord.join().unwrap().unwrap();
    assert_same_universe(&golden(4), &dist);
    let worker_stats = worker_obs.snapshot();
    assert_eq!(worker_stats.span_count("dist.shard"), 1);
    assert_eq!(worker_stats.counter("dist.worker_resumes"), None);
    assert_eq!(worker_stats.counter("dist.worker_shards"), Some(1));
    let stats = obs.snapshot();
    assert_eq!(stats.counter("dist.leases_expired"), None);
    assert_eq!(stats.counter("dist.leases_granted"), Some(1));
    let renewed = stats.counter("dist.leases_renewed").unwrap_or(0);
    let renewals = worker_stats.counter("dist.worker_renewals").unwrap_or(0);
    assert_eq!(renewals, renewed);
    if took > Duration::from_millis(3 * 150) {
        assert!(renewed >= 2, "{renewed} renewals in {took:?}");
    }
    println!("{renewed} renewals in {took:?}");
}

/// The default 5-vehicle run: 8 shards (two workers) cut evenly over
/// its 34 673 240 positions. Every `shard-result` frame must fit under
/// `MAX_FRAME`. Explores the whole universe, about 6 s in a release
/// build: run with `cargo test --release -p fsa-dist --test distributed
/// -- --ignored`.
#[test]
#[ignore = "explores the 5-vehicle universe; run in release"]
fn the_largest_five_vehicle_shard_result_fits_under_the_frame_cap() {
    use fsa_core::checkpoint::CheckpointCounters;
    use fsa_core::explore::{explore_universe, Lattice, ShardRange};

    let (models, rules) = vanet::exploration::scenario_universe(5);
    let lattice = Lattice::new(&models, &rules).unwrap();
    assert_eq!(lattice.positions(), 34_673_240);
    let mut largest = (0usize, 0usize);
    for range in ShardRange::partition(lattice.positions(), 8) {
        let options = ExploreOptions {
            max_candidates: 100_000_000,
            shard: Some(range),
            ..ExploreOptions::default()
        };
        let part = explore_universe(&models, &rules, &options, &ExecOptions::default()).unwrap();
        let frame = encode_to_coordinator(&ToCoordinator::ShardResult {
            start: range.start,
            end: range.end,
            accepted: part.accepted(),
            counters: CheckpointCounters::default(),
            chi: Some(part.unions),
        });
        println!(
            "shard {range}: {} entries, {} bytes",
            part.classes.len(),
            frame.len()
        );
        largest = largest.max((frame.len(), part.classes.len()));
    }
    println!(
        "largest shard-result: {} bytes, {} entries",
        largest.0, largest.1
    );
    assert!(largest.0 < MAX_FRAME, "{} bytes", largest.0);
}

#[test]
fn a_worker_survives_a_dropped_coordinator_connection_and_reacquires_its_lease() {
    use fsa_dist::proto::HelloConfig;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    // A scripted coordinator: the first connection is dropped right
    // after the worker asks for a lease (a coordinator crash from the
    // worker's point of view); the second is served normally and told
    // the universe is done. The pre-reconnect worker treated the drop
    // as a clean exit and never came back.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let accepts = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&accepts);
    let fake = std::thread::spawn(move || {
        for conn in 0..2 {
            let (stream, _) = listener.accept().unwrap();
            seen.fetch_add(1, Ordering::SeqCst);
            let mut reader = stream.try_clone().unwrap();
            let mut writer = stream;
            let hello = wire::read_frame(&mut reader, MAX_FRAME).unwrap().unwrap();
            assert!(matches!(
                fsa_dist::proto::decode_to_coordinator(&hello).unwrap(),
                ToCoordinator::Hello
            ));
            wire::write_frame(
                &mut writer,
                &fsa_dist::proto::encode_to_worker(&ToWorker::Hello(HelloConfig {
                    max_vehicles: 1,
                    max_candidates: 1_000_000,
                    require_connected: true,
                })),
            )
            .unwrap();
            let lease = wire::read_frame(&mut reader, MAX_FRAME).unwrap().unwrap();
            assert!(matches!(
                fsa_dist::proto::decode_to_coordinator(&lease).unwrap(),
                ToCoordinator::Lease
            ));
            if conn == 0 {
                drop(reader);
                drop(writer); // mid-protocol cut, no reply
                continue;
            }
            wire::write_frame(
                &mut writer,
                &fsa_dist::proto::encode_to_worker(&ToWorker::Done),
            )
            .unwrap();
            // The worker says `bye` on its way out.
            let _ = wire::read_frame(&mut reader, MAX_FRAME);
        }
    });
    let guard = TempDir::new("dist-it-reconnect");
    let dir = guard.path().to_path_buf();
    let obs = Obs::enabled();
    let worker = WorkerConfig {
        state_dir: dir.clone(),
        obs: obs.clone(),
        ..WorkerConfig::default()
    };
    run_worker(&addr, &worker).unwrap();
    fake.join().unwrap();
    assert_eq!(
        accepts.load(std::sync::atomic::Ordering::SeqCst),
        2,
        "the worker must reconnect after the drop"
    );
    let snapshot = obs.snapshot();
    assert_eq!(snapshot.counter("dist.worker_sessions"), Some(2));
    assert_eq!(snapshot.counter("dist.worker_reconnects"), Some(1));
}

#[test]
fn a_worker_that_never_reaches_a_coordinator_reports_an_error() {
    // A port nothing listens on: every attempt is refused, the budget
    // drains, and the failure is typed — not a hang, not a panic.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    let guard = TempDir::new("dist-it-unreachable");
    let dir = guard.path().to_path_buf();
    let worker = WorkerConfig {
        state_dir: dir.clone(),
        reconnect: 3,
        ..WorkerConfig::default()
    };
    let err = run_worker(&addr, &worker).unwrap_err();
    assert!(matches!(err, DistError::Io(_)), "{err}");
    assert!(err.to_string().contains("3 attempts"), "{err}");
}

#[test]
fn connections_beyond_the_coordinator_cap_are_paced_with_retry_not_threads() {
    use fsa_dist::proto::{decode_to_worker as dec, encode_to_coordinator as enc};

    let obs = Obs::enabled();
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordConfig {
            max_vehicles: 1,
            shards: 2,
            max_conns: 1,
            obs: obs.clone(),
            ..CoordConfig::default()
        },
    )
    .unwrap();
    let addr = coordinator.addr().unwrap().to_string();
    let coord = std::thread::spawn(move || coordinator.run());

    // Occupy the only slot with a raw handshaked connection.
    let squatter = TcpStream::connect(&addr).unwrap();
    let mut sq_reader = squatter.try_clone().unwrap();
    let mut sq_writer = squatter;
    wire::write_frame(&mut sq_writer, &enc(&ToCoordinator::Hello)).unwrap();
    let hello = wire::read_frame(&mut sq_reader, MAX_FRAME)
        .unwrap()
        .unwrap();
    assert!(matches!(dec(&hello).unwrap(), ToWorker::Hello(_)));

    // A second raw connection is bounced with `retry` and closed —
    // no handler thread, no handshake.
    let mut bounced = TcpStream::connect(&addr).unwrap();
    bounced
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let frame = wire::read_frame(&mut bounced, MAX_FRAME).unwrap().unwrap();
    assert!(
        matches!(dec(&frame).unwrap(), ToWorker::Retry { .. }),
        "expected retry, got {frame}"
    );
    assert_eq!(wire::read_frame(&mut bounced, MAX_FRAME).unwrap(), None);
    drop(bounced);

    // A real worker started while the slot is taken keeps retrying
    // (retry-at-handshake is contention, not failure) and completes
    // the universe once the squatter leaves.
    let guard = TempDir::new("dist-it-cap");
    let dir = guard.path().to_path_buf();
    let w_addr = addr.clone();
    let w_dir = dir.clone();
    let worker = std::thread::spawn(move || {
        run_worker(
            &w_addr,
            &WorkerConfig {
                state_dir: w_dir,
                reconnect: 50,
                ..WorkerConfig::default()
            },
        )
    });
    std::thread::sleep(Duration::from_millis(200));
    drop(sq_reader);
    drop(sq_writer);
    worker.join().unwrap().unwrap();
    let dist = coord.join().unwrap().unwrap();
    assert_same_universe(&golden(1), &dist);
    assert!(obs.snapshot().counter("dist.conn_rejected").unwrap_or(0) >= 1);
}

#[test]
fn a_worker_resends_a_finished_result_whose_ack_was_lost() {
    use fsa_core::explore::Lattice;
    use fsa_dist::proto::{decode_to_coordinator as dec, encode_to_worker as enc, HelloConfig};
    use std::net::TcpListener;

    // A scripted coordinator leases the whole 2-vehicle universe, reads
    // the `shard-result` and drops the connection without an ack. The
    // worker's next session must open with the identical frame, from
    // memory: its engine runs once and writes no checkpoint.
    let (models, rules) = vanet::exploration::scenario_universe(2);
    let positions = Lattice::new(&models, &rules).unwrap().positions();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let hello = HelloConfig {
            max_vehicles: 2,
            max_candidates: 1_000_000,
            require_connected: true,
        };
        let mut results = Vec::new();
        for conn in 0..2 {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = stream.try_clone().unwrap();
            let mut writer = stream;
            let mut read = || wire::read_frame(&mut reader, MAX_FRAME).unwrap().unwrap();
            assert_eq!(dec(&read()).unwrap(), ToCoordinator::Hello);
            wire::write_frame(&mut writer, &enc(&ToWorker::Hello(hello))).unwrap();
            if conn == 0 {
                assert_eq!(dec(&read()).unwrap(), ToCoordinator::Lease);
                let grant = ToWorker::Grant {
                    start: 0,
                    end: positions,
                    lease_ms: 60_000,
                };
                wire::write_frame(&mut writer, &enc(&grant)).unwrap();
                results.push(read());
                continue; // dropped before the ack
            }
            results.push(read());
            let done = ToWorker::ShardDone {
                start: 0,
                end: positions,
            };
            wire::write_frame(&mut writer, &enc(&done)).unwrap();
            assert_eq!(dec(&read()).unwrap(), ToCoordinator::Lease);
            wire::write_frame(&mut writer, &enc(&ToWorker::Done)).unwrap();
            let _ = wire::read_frame(&mut reader, MAX_FRAME); // bye
        }
        results
    });
    let dir = TempDir::new("dist-it-resend");
    let obs = Obs::enabled();
    let worker = WorkerConfig {
        state_dir: dir.path().to_path_buf(),
        obs: obs.clone(),
        ..WorkerConfig::default()
    };
    run_worker(&addr, &worker).unwrap();
    let results = fake.join().unwrap();
    assert_eq!(results[0], results[1], "the resent frame differs");
    let ToCoordinator::ShardResult { accepted, chi, .. } = dec(&results[0]).unwrap() else {
        panic!("not a shard-result: {}", results[0]);
    };
    assert_eq!(accepted, golden(2).accepted());
    assert_eq!(chi, Some(golden(2).unions));
    let snapshot = obs.snapshot();
    assert_eq!(snapshot.span_count("dist.shard"), 1, "the engine ran again");
    assert_eq!(snapshot.counter("dist.worker_sessions"), Some(2));
    assert_eq!(snapshot.counter("dist.worker_resends"), Some(1));
    assert_eq!(snapshot.counter("dist.worker_shards"), Some(1));
    assert_eq!(snapshot.counter("explore.checkpoints_written"), Some(0));
    assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 0);
}

#[test]
fn four_vehicle_shards_write_no_checkpoint() {
    // Every shard of the default 8 holds fewer than `CHECKPOINT_EVERY`
    // candidates, and a finished shard writes no final checkpoint: the
    // worker keeps its result until the ack.
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordConfig {
            max_vehicles: 4,
            shards: 8,
            ..CoordConfig::default()
        },
    )
    .unwrap();
    let addr = coordinator.addr().unwrap().to_string();
    let coord = std::thread::spawn(move || coordinator.run());
    let dir = TempDir::new("dist-it-no-checkpoint");
    let obs = Obs::enabled();
    let worker = WorkerConfig {
        state_dir: dir.path().to_path_buf(),
        obs: obs.clone(),
        ..WorkerConfig::default()
    };
    run_worker(&addr, &worker).unwrap();
    let dist = coord.join().unwrap().unwrap();
    assert_same_universe(&golden(4), &dist);
    let snapshot = obs.snapshot();
    assert_eq!(snapshot.counter("dist.worker_shards"), Some(8));
    assert_eq!(snapshot.counter("explore.checkpoints_written"), Some(0));
    assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 0);
}
