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
use fsa_serve::cli::{emit, help, render_universe, ObsOutputs};
use fsa_serve::flags::{Kind, Table};
use std::path::PathBuf;

const COORDINATE_USAGE: &str = "usage:
  fsa coordinate --listen HOST:PORT [--max-vehicles N] [--shards N] [--lease-ms N] [--state F]
                 [--max-conns N] [--budget N] [--all] [--stats]

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

/// The flags of `fsa coordinate`.
#[derive(Default)]
struct CoordinateFlags {
    listen: Option<String>,
    max_vehicles: Option<usize>,
    shards: Option<usize>,
    lease_ms: Option<usize>,
    state: Option<String>,
    max_conns: Option<usize>,
    budget: Option<usize>,
    all: bool,
    stats: bool,
    outputs: ObsOutputs,
}

const COORDINATE: Table<CoordinateFlags> = Table::new(
    COORDINATE_USAGE,
    &[
        ("listen", Kind::Text(|f| &mut f.listen)),
        ("max-vehicles", Kind::Positive(|f| &mut f.max_vehicles)),
        ("shards", Kind::Positive(|f| &mut f.shards)),
        ("lease-ms", Kind::Positive(|f| &mut f.lease_ms)),
        ("state", Kind::Text(|f| &mut f.state)),
        ("max-conns", Kind::Positive(|f| &mut f.max_conns)),
        ("budget", Kind::Positive(|f| &mut f.budget)),
        ("all", Kind::Switch(|f| &mut f.all)),
        ("stats", Kind::Switch(|f| &mut f.stats)),
        ("stats-json", Kind::Text(|f| &mut f.outputs.stats_json)),
        ("trace-json", Kind::Text(|f| &mut f.outputs.trace_json)),
    ],
);

/// `fsa coordinate` — run a coordinator to completion and print the
/// merged exploration. Returns the process exit code.
#[must_use]
pub fn coordinate_command(args: &[String]) -> u8 {
    if wants_help(args) {
        return emit(&help(COORDINATE_USAGE));
    }
    let mut f = CoordinateFlags::default();
    if let Err(r) = COORDINATE.parse(args, &[], &mut f) {
        return emit(&r);
    }
    let max_vehicles = f.max_vehicles.unwrap_or(2);
    let Some(listen) = f.listen else {
        return emit(&Rendered::usage_error(
            "--listen is required",
            COORDINATE_USAGE,
        ));
    };
    let obs = f.outputs.obs(&ServiceCtx::one_shot());
    let config = CoordConfig {
        max_vehicles,
        shards: f.shards.unwrap_or(8),
        lease_ms: f.lease_ms.map_or(2000, |ms| ms as u64),
        max_candidates: f.budget.unwrap_or(ExploreOptions::default().max_candidates),
        require_connected: !f.all,
        state_path: f.state.map(PathBuf::from),
        max_conns: f.max_conns.unwrap_or(256),
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
            let mut r = render_universe(&universe, max_vehicles, f.all, f.stats);
            f.outputs.collect(&obs, &mut r);
            emit(&r)
        }
        Err(e) => emit(&Rendered::failure(&e.to_string())),
    }
}

/// The flags of `fsa work`.
#[derive(Default)]
struct WorkFlags {
    connect: Option<String>,
    state_dir: Option<String>,
    threads: Option<usize>,
    seed: Option<u64>,
    reconnect: Option<usize>,
}

const WORK: Table<WorkFlags> = Table::new(
    WORK_USAGE,
    &[
        ("connect", Kind::Text(|f| &mut f.connect)),
        ("state-dir", Kind::Text(|f| &mut f.state_dir)),
        ("threads", Kind::Positive(|f| &mut f.threads)),
        ("seed", Kind::Unsigned(|f| &mut f.seed)),
        ("reconnect", Kind::Positive(|f| &mut f.reconnect)),
    ],
);

/// `fsa work` — connect to a coordinator and work shard leases until
/// the universe is done. Returns the process exit code.
#[must_use]
pub fn work_command(args: &[String]) -> u8 {
    if wants_help(args) {
        return emit(&help(WORK_USAGE));
    }
    let mut f = WorkFlags::default();
    if let Err(r) = WORK.parse(args, &[], &mut f) {
        return emit(&r);
    }
    let Some(connect) = f.connect else {
        return emit(&Rendered::usage_error("--connect is required", WORK_USAGE));
    };
    let config = WorkerConfig {
        state_dir: PathBuf::from(f.state_dir.unwrap_or_else(|| ".".to_owned())),
        threads: f.threads.unwrap_or(1),
        // Distinct default jitter seeds per process keep an
        // un-configured fleet from re-synchronising its backoff sleeps.
        seed: f.seed.unwrap_or_else(|| u64::from(std::process::id())),
        reconnect: f.reconnect.unwrap_or(8),
        ..WorkerConfig::default()
    };
    match run_worker(&connect, &config) {
        Ok(()) => 0,
        Err(e) => emit(&Rendered::failure(&e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_serve::cli::GLOBAL_USAGE;
    use fsa_serve::flags::usage_flags;
    use std::collections::BTreeSet;

    fn names<T>(table: &Table<T>) -> BTreeSet<&'static str> {
        table.flags.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn every_table_matches_its_usage_text() {
        let exports = BTreeSet::from(["stats-json", "trace-json"]);
        for (names, usage, what) in [
            (names(&COORDINATE), COORDINATE_USAGE, "coordinate"),
            (names(&WORK), WORK_USAGE, "work"),
        ] {
            assert_eq!(names, usage_flags(usage), "{what}: table vs usage text");
            // Its own synopsis and its global one list every flag but
            // the exports.
            let prefix = format!("  fsa {what} ");
            let mut lines = GLOBAL_USAGE.lines().skip_while(|l| !l.starts_with(&prefix));
            let first = lines.next().expect("global synopsis");
            let global: Vec<&str> = std::iter::once(first)
                .chain(lines.take_while(|l| l.starts_with("   ")))
                .collect();
            let own = usage.split("\n\n").next().unwrap_or(usage);
            for synopsis in [own, &global.join("\n")] {
                let listed = usage_flags(synopsis);
                assert!(listed.is_subset(&names), "{what}: {listed:?}");
                let missing: BTreeSet<_> = names.difference(&listed).copied().collect();
                assert!(missing.is_subset(&exports), "{what}: omits {missing:?}");
            }
        }
    }
}
