//! Seeded network-chaos property suite (the `chaos` feature).
//!
//! Every test here drives a real served session or a real distributed
//! exploration through a deterministic fault schedule — stalls,
//! trickles, short reads, cut connections, duplicated frames, garbage
//! bytes — and holds the same two-sided bar everywhere:
//!
//! - **benign** schedules (delay-shaped faults only) must *heal*: the
//!   run terminates with output byte-identical to a clean run;
//! - **lossy/hostile** schedules may also end in a *typed* error or a
//!   lost connection — but never a hang, a panic, or silently
//!   corrupted output.
//!
//! Sockets carry read timeouts well below the test harness timeout,
//! so a regression shows up as a failed assertion, not a stuck CI
//! job. The suite covers 36 seeded schedules: 28 on the serve layer
//! (client-side [`ChaosStream`]) and 8 on the distributed layer (a
//! frame-aware [`ChaosProxy`] between workers and coordinator).
//!
//! [`ChaosStream`]: fsa::exec::net::ChaosStream
//! [`ChaosProxy`]: fsa::exec::net::ChaosProxy
#![cfg(feature = "chaos")]

use fsa::exec::net::{ChaosConfig, ChaosProxy, ChaosStream, ProxyFaults};
use fsa::obs::Obs;
use fsa::serve::proto::{ServerFrame, SpecPayload};
use fsa::serve::{Client, ServeConfig, ServeSummary, Server};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn start(config: ServeConfig) -> (String, Arc<AtomicBool>, JoinHandle<ServeSummary>) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let drain = server.drain_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, drain, join)
}

fn fig3_payload() -> SpecPayload {
    SpecPayload {
        name: "specs/fig3.fsa".to_owned(),
        source: std::fs::read_to_string("specs/fig3.fsa").expect("read specs/fig3.fsa"),
    }
}

/// One served session over a chaos-wrapped socket: open a fig3
/// session, run `elicit --param`, close. Returns the response stdout,
/// or a typed description of where the transport gave out.
fn chaotic_session(addr: &str, cfg: ChaosConfig) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // The guard below every read: chaos may stall, the test must not.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .expect("write timeout");
    stream.set_nodelay(true).ok();
    let mut client = Client::handshake(ChaosStream::new(stream, cfg))?;
    let session = client.open(Some(fig3_payload()), None)?;
    let reply = client.request(session, 1, "elicit", &["--param".to_owned()], None)?;
    let out = match reply {
        ServerFrame::Response {
            exit: 0, stdout, ..
        } => Ok(stdout),
        ServerFrame::Error { code, message, .. } => Err(format!("typed error {code}: {message}")),
        other => Err(format!("unexpected frame {other:?}")),
    };
    let _ = client.bye();
    out
}

/// The clean baseline every healed run must match byte-for-byte.
fn clean_baseline(addr: &str) -> String {
    let mut client = Client::connect(addr).expect("clean connect");
    let session = client.open(Some(fig3_payload()), None).expect("clean open");
    let reply = client
        .request(session, 1, "elicit", &["--param".to_owned()], None)
        .expect("clean request");
    let ServerFrame::Response {
        exit: 0, stdout, ..
    } = reply
    else {
        panic!("clean run failed: {reply:?}");
    };
    client.bye().expect("clean bye");
    stdout
}

#[test]
fn benign_fault_schedules_heal_to_byte_identical_responses() {
    let (addr, drain, join) = start(ServeConfig::default());
    let baseline = clean_baseline(&addr);
    // 16 schedules of delay-shaped faults (stalls, trickled writes,
    // short reads — nothing that loses or damages bytes): every one
    // must heal to the exact clean bytes. No "mostly equal", no
    // retries — the transport alone absorbs the weather.
    for seed in 0..16u64 {
        let got = chaotic_session(&addr, ChaosConfig::benign(seed))
            .unwrap_or_else(|e| panic!("seed {seed}: benign chaos must heal, got {e}"));
        assert_eq!(got, baseline, "seed {seed}: healed bytes differ");
    }
    drain.store(true, Ordering::SeqCst);
    let summary = join.join().expect("server");
    assert_eq!(summary.connections, 17, "16 chaotic + 1 clean session");
}

#[test]
fn lossy_and_hostile_schedules_end_in_typed_errors_or_identical_bytes() {
    let (addr, drain, join) = start(ServeConfig {
        // Tight enough that injected stalls can trip it — eviction
        // with `slow-peer` is one of the *allowed* outcomes.
        frame_deadline: Duration::from_secs(2),
        ..ServeConfig::default()
    });
    let baseline = clean_baseline(&addr);
    let mut healed = 0usize;
    let mut failed = 0usize;
    // 8 lossy (cuts) + 4 hostile (cuts, garbage bytes, duplicated
    // writes) schedules: each run either heals bit-identically or
    // surfaces an error the caller can type on — and always returns.
    let schedules = (0..8u64)
        .map(ChaosConfig::lossy)
        .chain((0..4u64).map(ChaosConfig::hostile));
    for (i, cfg) in schedules.enumerate() {
        let begun = Instant::now();
        match chaotic_session(&addr, cfg) {
            Ok(got) => {
                assert_eq!(got, baseline, "schedule {i}: survived but bytes differ");
                healed += 1;
            }
            Err(e) => {
                assert!(!e.is_empty());
                failed += 1;
            }
        }
        assert!(
            begun.elapsed() < Duration::from_secs(30),
            "schedule {i} exceeded its deadline"
        );
    }
    assert_eq!(healed + failed, 12);
    drain.store(true, Ordering::SeqCst);
    join.join().expect("server");
}

#[test]
fn distributed_exploration_through_a_lossy_proxy_merges_bit_identical() {
    use fsa::core::explore::{ExecOptions, ExploreOptions};
    use fsa::dist::{CoordConfig, Coordinator, WorkerConfig};

    let golden = vanet::exploration::explore_scenario_universe(
        2,
        &ExploreOptions::default(),
        &ExecOptions::default(),
    )
    .expect("single-process golden");

    // 8 schedules: 4 proxy fault mixes × 2 worker thread counts. The
    // proxy cuts, truncates, stalls, duplicates and corrupts frames
    // between the workers and the coordinator; reconnects, lease
    // re-issue and store-and-forward must absorb all of it, and the
    // merged exploration must equal the single-process run exactly.
    type Schedule = (u64, fn(u64) -> ProxyFaults, usize);
    let schedules: [Schedule; 8] = [
        (11, ProxyFaults::lossy, 1),
        (12, ProxyFaults::lossy, 2),
        (13, ProxyFaults::lossy, 1),
        (14, ProxyFaults::lossy, 2),
        (15, ProxyFaults::hostile, 1),
        (16, ProxyFaults::hostile, 2),
        (17, ProxyFaults::hostile, 1),
        (18, ProxyFaults::hostile, 2),
    ];
    for (seed, faults, threads) in schedules {
        let dir =
            std::env::temp_dir().join(format!("fsa-chaos-dist-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("state dir");
        let obs = Obs::enabled();
        let coordinator = Coordinator::bind(
            "127.0.0.1:0",
            CoordConfig {
                max_vehicles: 2,
                shards: 4,
                lease_ms: 400,
                state_path: Some(dir.join("coordinator.fsas")),
                obs: obs.clone(),
                ..CoordConfig::default()
            },
        )
        .expect("bind coordinator");
        let upstream = coordinator.addr().expect("coordinator addr");
        let proxy = ChaosProxy::start(upstream, faults(seed)).expect("start proxy");
        let proxy_addr = proxy.addr().to_string();
        let coord = std::thread::spawn(move || coordinator.run());
        let workers: Vec<_> = (0..2u64)
            .map(|i| {
                let addr = proxy_addr.clone();
                let config = WorkerConfig {
                    state_dir: dir.clone(),
                    threads,
                    seed: seed * 1000 + i,
                    reconnect: 16,
                    ..WorkerConfig::default()
                };
                std::thread::spawn(move || fsa::dist::run_worker(&addr, &config))
            })
            .collect();
        // Watchdog: chaos may slow the run down, never wedge it.
        let begun = Instant::now();
        while !coord.is_finished() {
            assert!(
                begun.elapsed() < Duration::from_secs(120),
                "seed {seed}: distributed run wedged under chaos"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let merged = coord
            .join()
            .expect("coordinator thread")
            .unwrap_or_else(|e| panic!("seed {seed}: coordinator failed: {e}"));
        for (i, w) in workers.into_iter().enumerate() {
            w.join()
                .expect("worker thread")
                .unwrap_or_else(|e| panic!("seed {seed}: worker {i} failed: {e}"));
        }
        drop(proxy);
        assert_eq!(merged.classes, golden.classes, "seed {seed}");
        assert_eq!(merged.requirements, golden.requirements, "seed {seed}");
        assert_eq!(merged.loop_skipped, golden.loop_skipped, "seed {seed}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
