//! CLI entry points: `fsa coordinate`, `fsa work`, and the engine
//! behind `fsa explore --distributed`.
//!
//! These commands are intercepted by the one-shot `fsa` binary before
//! [`fsa_serve::cli::dispatch`] (they are long-running networked
//! processes, not request/response runners); the binary also calls
//! [`register`] at startup so `fsa explore --distributed` can find the
//! local driver.

use crate::coord::{CoordConfig, Coordinator};
use crate::local::{explore_distributed_universe, LocalConfig, WorkerMode};
use crate::worker::{run_worker, WorkerConfig};
use fsa_core::explore::{ExploreOptions, Universe};
use fsa_core::service::{Rendered, ServiceCtx};
use fsa_serve::cli::{emit, render_universe, Flag, Flags, ObsOutputs};
use std::path::PathBuf;

const COORDINATE_USAGE: &str = "usage:
  fsa coordinate --listen HOST:PORT [--max-vehicles N] [--shards N] [--lease-ms N] [--state F]

Serve shard leases to `fsa work` processes until the instance universe
is fully explored, then print the merged exploration — byte-identical
to the single-process `fsa explore`. The first stdout line is
`listening on HOST:PORT` (with the resolved port for `:0`).
  --listen HOST:PORT   bind address; port 0 picks an ephemeral port
  --max-vehicles N     universe bound (default 2)
  --shards N           contiguous shards to partition the vector
                       space into (default 8; at most one per vector)
  --lease-ms N         shard lease before a silent worker's shard is
                       re-issued (default 2000)
  --state F            store-and-forward state file: completed shards
                       are persisted to F (atomic, checksummed,
                       fsynced before each shard is acknowledged) and
                       a compatible existing F is resumed from
  --max-conns N        accept-side connection cap (default 256);
                       excess workers are told to retry and closed
  --budget N           global candidate budget across all shards
  --all                keep disconnected compositions too
  --stats              print merged engine statistics
  --stats-json F       write span/counter statistics (fsa-obs/v1) to F
                       (includes the dist.* lease/merge counters)
  --trace-json F       write a chrome://tracing view of the run to F";

const WORK_USAGE: &str = "usage:
  fsa work --connect HOST:PORT [--state-dir D] [--threads N]
           [--seed N] [--reconnect N]

Connect to an `fsa coordinate` process and work shard leases until the
universe is done. Each shard checkpoints to its own file under the
state directory, so a killed worker's successor resumes the shard
instead of restarting it. A lost coordinator connection is retried
with jittered backoff and a fresh handshake (the lease is re-acquired
and the shard resumes from its checkpoint), so a coordinator restart
costs a pause, not the run.
  --connect HOST:PORT  coordinator address
  --state-dir D        directory for shard checkpoint files (default .)
  --threads N          worker threads for candidate building (default 1)
  --seed N             backoff jitter seed (default: derived from the
                       process id; give fleet members distinct seeds)
  --reconnect N        consecutive failed connection attempts before
                       the worker gives up (default 8); any successful
                       handshake refills the budget";

fn wants_help(args: &[String]) -> bool {
    args.iter()
        .any(|a| matches!(a.as_str(), "--help" | "-h" | "help"))
}

fn help(usage: &str) -> Rendered {
    Rendered {
        stdout: format!("{usage}\n"),
        ..Rendered::default()
    }
}

/// The engine handed to [`fsa_serve::cli::register_distributed_engine`]:
/// a local coordinator plus `fsa work` child processes re-invoking the
/// current executable.
fn process_engine(req: &fsa_serve::cli::DistributedRequest) -> Result<Universe, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let config = LocalConfig {
        max_vehicles: req.max_vehicles,
        workers: req.workers,
        shards: req.shards,
        lease_ms: req.lease_ms,
        state_dir: req.state_dir.as_ref().map(PathBuf::from),
        max_candidates: req
            .budget
            .unwrap_or(ExploreOptions::default().max_candidates),
        require_connected: req.require_connected,
        threads: req.threads,
        obs: req.obs.clone(),
        ..LocalConfig::default()
    };
    explore_distributed_universe(&config, &WorkerMode::Processes { exe }).map_err(|e| e.to_string())
}

/// Registers the process-spawning local driver as the engine behind
/// `fsa explore --distributed`. Call once at binary startup.
pub fn register() {
    fsa_serve::cli::register_distributed_engine(process_engine);
}

/// `fsa coordinate` — run a coordinator to completion and print the
/// merged exploration. Returns the process exit code.
#[must_use]
pub fn coordinate_command(args: &[String]) -> u8 {
    if wants_help(args) {
        return emit(&help(COORDINATE_USAGE));
    }
    let mut listen: Option<String> = None;
    let mut max_vehicles = 2usize;
    let mut shards = 8usize;
    let mut lease_ms = 2000u64;
    let mut state: Option<String> = None;
    let mut max_conns = 256usize;
    let mut budget: Option<usize> = None;
    let mut all = false;
    let mut stats = false;
    let mut outputs = ObsOutputs::default();
    let mut flags = Flags::new(args, COORDINATE_USAGE);
    while let Some(flag) = flags.next_flag() {
        let flag = match flag {
            Ok(f) => f,
            Err(r) => return emit(&r),
        };
        let (name, inline) = match flag {
            Flag::Named(n, v) => (n, v),
            Flag::Positional(p) => return emit(&flags.positional(&p)),
        };
        match name.as_str() {
            "listen" => match flags.value("listen", inline) {
                Ok(v) => listen = Some(v),
                Err(r) => return emit(&r),
            },
            "max-vehicles" => match flags.positive("max-vehicles", inline) {
                Ok(n) => max_vehicles = n,
                Err(r) => return emit(&r),
            },
            "shards" => match flags.positive("shards", inline) {
                Ok(n) => shards = n,
                Err(r) => return emit(&r),
            },
            "lease-ms" => match flags.positive("lease-ms", inline) {
                Ok(n) => lease_ms = n as u64,
                Err(r) => return emit(&r),
            },
            "state" => match flags.value("state", inline) {
                Ok(v) => state = Some(v),
                Err(r) => return emit(&r),
            },
            "max-conns" => match flags.positive("max-conns", inline) {
                Ok(n) => max_conns = n,
                Err(r) => return emit(&r),
            },
            "budget" => match flags.positive("budget", inline) {
                Ok(n) => budget = Some(n),
                Err(r) => return emit(&r),
            },
            "all" => all = true,
            "stats" => stats = true,
            "stats-json" => match flags.value("stats-json", inline) {
                Ok(v) => outputs.stats_json = Some(v),
                Err(r) => return emit(&r),
            },
            "trace-json" => match flags.value("trace-json", inline) {
                Ok(v) => outputs.trace_json = Some(v),
                Err(r) => return emit(&r),
            },
            other => return emit(&flags.unknown(other)),
        }
    }
    let Some(listen) = listen else {
        return emit(&Rendered::usage_error(
            "--listen is required",
            COORDINATE_USAGE,
        ));
    };
    let obs = outputs.obs(&ServiceCtx::one_shot());
    let config = CoordConfig {
        max_vehicles,
        shards,
        lease_ms,
        max_candidates: budget.unwrap_or(ExploreOptions::default().max_candidates),
        require_connected: !all,
        state_path: state.map(PathBuf::from),
        max_conns,
        obs: obs.clone(),
    };
    let coordinator = match Coordinator::bind(&listen, config) {
        Ok(c) => c,
        Err(e) => return emit(&Rendered::failure(&e.to_string())),
    };
    let addr = match coordinator.addr() {
        Ok(a) => a,
        Err(e) => return emit(&Rendered::failure(&e.to_string())),
    };
    // Announce the resolved address immediately (workers and test
    // harnesses parse this line to find an ephemeral port).
    {
        use std::io::Write as _;
        println!("listening on {addr}");
        let _ = std::io::stdout().flush();
    }
    match coordinator.run() {
        Ok(universe) => {
            let mut r = render_universe(&universe, max_vehicles, all, stats);
            outputs.collect(&obs, &mut r);
            emit(&r)
        }
        Err(e) => emit(&Rendered::failure(&e.to_string())),
    }
}

/// `fsa work` — connect to a coordinator and work shard leases until
/// the universe is done. Returns the process exit code.
#[must_use]
pub fn work_command(args: &[String]) -> u8 {
    if wants_help(args) {
        return emit(&help(WORK_USAGE));
    }
    let mut connect: Option<String> = None;
    let mut state_dir = String::from(".");
    let mut threads = 1usize;
    // Distinct default jitter seeds per process keep an un-configured
    // fleet from re-synchronising its backoff sleeps.
    let mut seed = u64::from(std::process::id());
    let mut reconnect = 8usize;
    let mut flags = Flags::new(args, WORK_USAGE);
    while let Some(flag) = flags.next_flag() {
        let flag = match flag {
            Ok(f) => f,
            Err(r) => return emit(&r),
        };
        let (name, inline) = match flag {
            Flag::Named(n, v) => (n, v),
            Flag::Positional(p) => return emit(&flags.positional(&p)),
        };
        match name.as_str() {
            "connect" => match flags.value("connect", inline) {
                Ok(v) => connect = Some(v),
                Err(r) => return emit(&r),
            },
            "state-dir" => match flags.value("state-dir", inline) {
                Ok(v) => state_dir = v,
                Err(r) => return emit(&r),
            },
            "threads" => match flags.positive("threads", inline) {
                Ok(n) => threads = n,
                Err(r) => return emit(&r),
            },
            "seed" => match flags.seed("seed", inline) {
                Ok(n) => seed = n,
                Err(r) => return emit(&r),
            },
            "reconnect" => match flags.positive("reconnect", inline) {
                Ok(n) => reconnect = n,
                Err(r) => return emit(&r),
            },
            other => return emit(&flags.unknown(other)),
        }
    }
    let Some(connect) = connect else {
        return emit(&Rendered::usage_error("--connect is required", WORK_USAGE));
    };
    let config = WorkerConfig {
        state_dir: PathBuf::from(state_dir),
        threads,
        seed,
        reconnect,
        ..WorkerConfig::default()
    };
    match run_worker(&connect, &config) {
        Ok(()) => 0,
        Err(e) => emit(&Rendered::failure(&e.to_string())),
    }
}
