//! Single-machine driver: `fsa explore --distributed --workers N`.
//!
//! Runs a coordinator on an ephemeral loopback port plus N workers —
//! as child processes re-invoking the `fsa` binary (`fsa work`), or
//! as in-process threads (tests, library use) — and returns the
//! merged exploration. The result is bit-identical to the
//! single-process engine; only the execution is distributed.
//!
//! The run is the `dist` span, over `dist.spawn` (state directory,
//! coordinator and workers), `dist.wait` (until the coordinator holds
//! every result and the workers said goodbye), `dist.merge` and
//! `dist.drain` (reaping the workers and removing an ephemeral state
//! directory), all on the calling thread.

use crate::coord::{CoordConfig, Coordinator, Served};
use crate::error::DistError;
use crate::worker::{run_worker, WorkerConfig};
use fsa_core::explore::{compose_accepted, Exploration, ExploreOptions, Universe};
use fsa_obs::Obs;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the driver runs its workers.
#[derive(Debug, Clone)]
pub enum WorkerMode {
    /// Spawn `exe work --connect ...` child processes (the production
    /// path: crash isolation, separate address spaces).
    Processes {
        /// The binary to re-invoke (normally `std::env::current_exe`).
        exe: PathBuf,
    },
    /// Run workers as in-process threads (tests, benches).
    Threads,
}

/// Configuration of a local distributed run.
#[derive(Debug, Clone)]
pub struct LocalConfig {
    /// Universe size: one RSU plus up to this many vehicles.
    pub max_vehicles: usize,
    /// Worker count.
    pub workers: usize,
    /// Shard count; defaults to `4 × workers` so slow shards
    /// rebalance across workers. The coordinator cuts the lattice's
    /// positions evenly, at most one shard per position.
    pub shards: Option<usize>,
    /// Lease validity in milliseconds.
    pub lease_ms: u64,
    /// Checkpoint/state directory; an ephemeral one is created (and
    /// removed once the workers are reaped, whatever the outcome) when
    /// unset, and the coordinator then keeps its ledger in memory only.
    /// A worker process writes its stderr to `worker-<i>.stderr` here,
    /// which is read and removed when the worker is reaped.
    pub state_dir: Option<PathBuf>,
    /// Global candidate budget.
    pub max_candidates: usize,
    /// Whether disconnected candidates are skipped.
    pub require_connected: bool,
    /// Threads per worker.
    pub threads: usize,
    /// Base seed for the workers' jittered backoff; each worker gets
    /// a distinct stream derived from it and its index.
    pub seed: u64,
    /// Observability handle (owned by the coordinator side).
    pub obs: Obs,
}

impl Default for LocalConfig {
    fn default() -> Self {
        let explore = ExploreOptions::default();
        LocalConfig {
            max_vehicles: 3,
            workers: 2,
            shards: None,
            lease_ms: 2000,
            state_dir: None,
            max_candidates: explore.max_candidates,
            require_connected: explore.require_connected,
            threads: 1,
            seed: 0x5EED_0F5A,
            obs: Obs::disabled(),
        }
    }
}

/// The per-worker backoff seed: the run's base seed spread across
/// worker indices through the splitmix64 increment so neighbouring
/// workers draw unrelated jitter streams.
fn worker_seed(base: u64, index: usize) -> u64 {
    base ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Distinguishes concurrently created ephemeral state directories
/// within one process.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

enum Workers {
    /// Worker processes, each with the file in the state directory
    /// that its stderr goes to (`worker-<i>.stderr`).
    Children(Vec<(Child, PathBuf)>),
    Handles(Vec<JoinHandle<Result<(), DistError>>>),
}

/// Reads the stderr file of a reaped worker, removes it and returns
/// its last non-blank line.
fn last_line(path: &Path) -> Option<String> {
    let bytes = std::fs::read(path);
    let _ = std::fs::remove_file(path);
    let bytes = bytes.ok()?;
    let text = String::from_utf8_lossy(&bytes);
    let last = text.lines().rev().find(|line| !line.trim().is_empty())?;
    Some(last.trim_end().to_owned())
}

impl Workers {
    /// How many workers are still running.
    fn alive(&mut self) -> usize {
        match self {
            Workers::Children(children) => {
                let mut running = 0;
                for (child, _) in children.iter_mut() {
                    if matches!(child.try_wait(), Ok(None)) {
                        running += 1;
                    }
                }
                running
            }
            Workers::Handles(handles) => handles.iter().filter(|h| !h.is_finished()).count(),
        }
    }

    /// Reaps every worker, draining the pool. Returns how many exited
    /// cleanly and the first failure found.
    fn reap(&mut self) -> (usize, Option<String>) {
        let mut ok = 0usize;
        let mut first = None;
        match self {
            Workers::Children(children) => {
                for (mut child, stderr) in children.drain(..) {
                    let status = child.wait();
                    let said = last_line(&stderr);
                    match status {
                        Ok(status) if !status.success() => {
                            first.get_or_insert(match said {
                                Some(line) => format!("worker exited with {status}: {line}"),
                                None => format!("worker exited with {status}"),
                            });
                        }
                        Err(e) => {
                            first.get_or_insert(format!("worker not reapable: {e}"));
                        }
                        Ok(_) => ok += 1,
                    }
                }
            }
            Workers::Handles(handles) => {
                for handle in handles.drain(..) {
                    match handle.join() {
                        Ok(Err(e)) => {
                            first.get_or_insert(e.to_string());
                        }
                        Err(_) => {
                            first.get_or_insert("worker thread panicked".to_owned());
                        }
                        Ok(Ok(())) => ok += 1,
                    }
                }
            }
        }
        (ok, first)
    }

    fn kill(&mut self) {
        if let Workers::Children(children) = self {
            for (child, _) in children {
                let _ = child.kill();
            }
        }
    }
}

/// How often the driver looks at its workers while it waits for the
/// coordinator's result (which wakes it at once).
const WORKER_CHECK: Duration = Duration::from_millis(50);

/// How long the driver waits for the coordinator once every worker
/// has exited and at least one of them cleanly.
const DRAINED_GRACE: Duration = Duration::from_secs(60);

/// Runs a full distributed exploration on this machine and returns
/// the merged result with each class's composed instance: the merged
/// universe, then [`fsa_core::explore::compose_accepted`] over its
/// accepted log.
///
/// # Errors
///
/// [`DistError::Io`] when workers cannot be spawned,
/// [`DistError::Worker`] when every worker died before the universe
/// completed, plus everything [`Coordinator::run`] can return and
/// [`DistError::Fsa`] if the composition fails.
pub fn explore_distributed(
    config: &LocalConfig,
    mode: &WorkerMode,
) -> Result<Exploration, DistError> {
    let universe = explore_distributed_universe(config, mode)?;
    let (models, rules) = vanet::exploration::scenario_universe(config.max_vehicles);
    let instances = compose_accepted(&models, &rules, &universe.accepted())?;
    Ok(Exploration {
        universe,
        instances,
    })
}

/// [`explore_distributed`] without the composition: the merged
/// universe — its classes, requirement union and statistics — which is
/// what `fsa explore --distributed` prints.
pub(crate) fn explore_distributed_universe(
    config: &LocalConfig,
    mode: &WorkerMode,
) -> Result<Universe, DistError> {
    let _run = config.obs.span("dist");
    let spawn = config.obs.span("dist.spawn");
    let (state_dir, ephemeral) = match &config.state_dir {
        Some(dir) => (dir.clone(), false),
        None => {
            let dir = std::env::temp_dir().join(format!(
                "fsa-dist-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            (dir, true)
        }
    };
    std::fs::create_dir_all(&state_dir)
        .map_err(|e| DistError::Io(format!("state dir {}: {e}", state_dir.display())))?;
    let mut pool = Workers::Handles(Vec::new());
    let result = run_local(config, mode, &state_dir, ephemeral, &mut pool, spawn)
        .and_then(|served| served.merge());
    let _drain = config.obs.span("dist.drain");
    if result.is_err() {
        pool.kill();
    }
    // Workers drain on their own `done` grants; reap them, then no
    // process writes to the state directory any more.
    let _ = pool.reap();
    if ephemeral {
        let _ = std::fs::remove_dir_all(&state_dir);
    }
    result
}

/// Runs the coordinator on a thread and the workers into `pool`, ends
/// `spawn`, and waits for the coordinator to hold every result.
fn run_local(
    config: &LocalConfig,
    mode: &WorkerMode,
    state_dir: &Path,
    ephemeral: bool,
    pool: &mut Workers,
    spawn: fsa_obs::Span,
) -> Result<Served, DistError> {
    let workers = config.workers.max(1);
    let shards = config.shards.unwrap_or(4 * workers).max(1);
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordConfig {
            max_vehicles: config.max_vehicles,
            shards,
            lease_ms: config.lease_ms,
            max_candidates: config.max_candidates,
            require_connected: config.require_connected,
            // Nothing resumes an ephemeral run, so its ledger is not
            // written (and fsynced) after every shard.
            state_path: (!ephemeral).then(|| state_dir.join("coordinator.fsas")),
            obs: config.obs.clone(),
            ..CoordConfig::default()
        },
    )?;
    let addr = coordinator.addr()?.to_string();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(coordinator.serve());
    });
    match mode {
        WorkerMode::Processes { exe } => {
            *pool = Workers::Children(Vec::with_capacity(workers));
            for i in 0..workers {
                let stderr = state_dir.join(format!("worker-{i}.stderr"));
                let file = File::create(&stderr)
                    .map_err(|e| DistError::Io(format!("{}: {e}", stderr.display())))?;
                let child = Command::new(exe)
                    .args([
                        "work",
                        "--connect",
                        &addr,
                        "--state-dir",
                        &state_dir.display().to_string(),
                        "--threads",
                        &config.threads.max(1).to_string(),
                        "--seed",
                        &worker_seed(config.seed, i).to_string(),
                    ])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::from(file))
                    .spawn()
                    .map_err(|e| {
                        let _ = std::fs::remove_file(&stderr);
                        DistError::Io(format!("spawn {}: {e}", exe.display()))
                    })?;
                if let Workers::Children(children) = pool {
                    children.push((child, stderr));
                }
            }
        }
        WorkerMode::Threads => {
            let handles = (0..workers)
                .map(|i| {
                    let addr = addr.clone();
                    let worker = WorkerConfig {
                        state_dir: state_dir.to_path_buf(),
                        threads: config.threads.max(1),
                        seed: worker_seed(config.seed, i),
                        ..WorkerConfig::default()
                    };
                    std::thread::spawn(move || run_worker(&addr, &worker))
                })
                .collect();
            *pool = Workers::Handles(handles);
        }
    }
    spawn.finish();
    let _wait = config.obs.span("dist.wait");
    // Supervise: the coordinator's result wakes the driver at once. A
    // worker that received its `done` grant exits cleanly *before* the
    // coordinator has served, so an empty pool is only fatal
    // when every worker actually failed — otherwise the coordinator
    // already holds every result and just needs time. If no worker
    // exited cleanly, the run can never finish; abort rather than wait
    // forever. (The coordinator thread is left waiting for results;
    // the process is about to exit anyway.)
    let mut drained: Option<Instant> = None;
    loop {
        match rx.recv_timeout(WORKER_CHECK) {
            Ok(result) => return result,
            Err(RecvTimeoutError::Disconnected) => {
                return Err(DistError::Worker("coordinator panicked".to_owned()))
            }
            Err(RecvTimeoutError::Timeout) => {}
        }
        if drained.is_none() && pool.alive() == 0 {
            let (ok, failure) = pool.reap();
            if ok == 0 {
                let detail = failure.unwrap_or_else(|| "workers exited silently".to_owned());
                return Err(DistError::Worker(format!(
                    "all {workers} workers exited before the universe completed: {detail}"
                )));
            }
            drained = Some(Instant::now());
        }
        // Some workers believe the universe is done; bound the wait in
        // case a clean exit raced a lost shard.
        if drained.is_some_and(|at| at.elapsed() > DRAINED_GRACE) {
            return Err(DistError::Worker(format!(
                "coordinator did not finish within {}s of all {workers} workers draining",
                DRAINED_GRACE.as_secs()
            )));
        }
    }
}
