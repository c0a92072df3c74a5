//! The worker: lease → explore → report, with durable checkpoints
//! and a reconnecting transport.
//!
//! A worker connects to a coordinator, handshakes, and then loops
//! requesting shard leases. Each leased shard runs once through the
//! supervised explore engine restricted to the shard's
//! [`ShardRange`], while a thread of the session renews the lease
//! about every third of it with the `lease` request (the coordinator
//! re-grants the holder its own shard). The engine is cancelled only
//! when a renewal is not answered with that grant: the lease was lost,
//! the coordinator is gone or the universe is done.
//!
//! A shard checkpoints to its own [`ExploreCheckpoint`] file under the
//! worker's state directory, for crash recovery only: every
//! `CHECKPOINT_EVERY` (32 768) built candidates and when its engine is
//! cancelled, so a `SIGKILL`ed worker's replacement, picking up the
//! re-issued lease, resumes the shard from the last checkpoint instead
//! of from scratch, and a cancelled engine resumes from its own. A
//! finished shard writes no final checkpoint: the worker keeps its
//! result in memory until the coordinator acknowledges it, and resends
//! it at the start of its next session when the ack was lost — to a
//! coordinator of the same configuration only, without re-running the
//! engine. A shard of fewer candidates writes no file at all.
//! Checkpoint files are pid-suffixed (`shard-<start>-<end>.<pid>.fsas`):
//! [`fsa_exec::Snapshot::write_atomic`] stages through a fixed
//! `<path>.tmp`, so two workers sharing one file name could race on
//! the staging file; distinct names keep every writer exclusive
//! while resume still finds a predecessor's newest file by prefix.
//!
//! **Connection loss is not the end of the run.** A dropped, stalled,
//! or corrupted coordinator connection ends the *session*, not the
//! worker: the worker sleeps a seeded decorrelated-jitter backoff
//! ([`crate::backoff`]), reconnects, re-handshakes, and asks for a
//! lease again — the coordinator re-grants an interrupted shard to
//! whoever asks (the durable checkpoint makes resumption cheap), so a
//! restarted coordinator or a flaky link costs one backoff, not the
//! shard; a finished result waiting for its ack costs one resend. Only
//! after [`WorkerConfig::reconnect`] consecutive failed *connection
//! attempts* does the worker give up — cleanly when it ever worked a
//! session (its checkpoints are safe on disk and the coordinator is
//! simply gone, presumably finished), with an error when the
//! coordinator was never reachable at all.
//!
//! [`ExploreCheckpoint`]: fsa_core::checkpoint::ExploreCheckpoint

use crate::backoff::Backoff;
use crate::error::DistError;
use crate::proto::{
    decode_to_worker, encode_to_coordinator, HelloConfig, ToCoordinator, ToWorker, MAX_FRAME,
};
use fsa_core::checkpoint::CheckpointCounters;
use fsa_core::explore::{
    explore_universe, CheckpointSpec, ExecOptions, ExploreOptions, ShardRange,
};
use fsa_core::FsaError;
use fsa_exec::{CancelToken, Supervisor};
use fsa_obs::Obs;
use fsa_serve::wire::{self, FrameEvent, ReadLimits, WireError};
use std::fs;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// How long the worker waits for the coordinator's reply to any
/// single request before declaring the session lost. Replies are
/// cheap (the most expensive is a shard-result ack, which fsyncs the
/// coordinator state file), so this is generous.
const REPLY_DEADLINE_MS: u64 = 5_000;

/// Candidates a shard builds between two of its checkpoints. Every
/// checkpoint is a full snapshot of the shard's accepted log, fsynced
/// twice, so its cost grows with the shard: at 4096 the largest shard
/// of the 5-vehicle universe wrote 58 of them, up to 5.4 MB each, for
/// 1.4 of its 5.3 s. At 32768 it writes 7. The successor of a
/// `SIGKILL`ed worker re-builds at most this many candidates, under
/// half a second there. A cancelled engine still checkpoints at once; a
/// finished one does not (its result stays in memory until acked).
const CHECKPOINT_EVERY: usize = 32_768;

/// Socket-level read/write timeout; the polling granularity under
/// the frame deadlines, not a protocol timeout of its own.
const SOCKET_TIMEOUT_MS: u64 = 100;

/// First delay of a reconnect streak.
const RECONNECT_BASE_MS: u64 = 25;

/// Ceiling of a reconnect streak.
const RECONNECT_CAP_MS: u64 = 1_000;

/// First delay of a lease-contention streak (the coordinator's
/// `retry` hint can only raise individual draws, never the floor).
const RETRY_BASE_MS: u64 = 10;

/// Ceiling of a lease-contention streak.
const RETRY_CAP_MS: u64 = 2_000;

/// Configuration of one worker process (or thread).
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Directory for the worker's shard checkpoint files.
    pub state_dir: PathBuf,
    /// Worker threads for candidate building inside a shard.
    pub threads: usize,
    /// Seed for this worker's jittered backoff streams. Give each
    /// worker of a fleet a distinct seed or they re-synchronise.
    pub seed: u64,
    /// How many *consecutive* failed connection attempts end the
    /// worker. Any session that reaches a handshake refills the
    /// budget, so a long run tolerates any number of transient drops.
    pub reconnect: usize,
    /// Observability handle for the worker's `dist.worker_*` counters,
    /// its `dist.shard` spans and each shard engine's `explore.*` series
    /// (workers run with it disabled by default; the coordinator owns
    /// the run's `dist.*` counters).
    pub obs: Obs,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            state_dir: PathBuf::from("."),
            threads: 1,
            seed: 0,
            reconnect: 8,
            obs: Obs::disabled(),
        }
    }
}

/// One protocol round-trip, with transport trouble folded into a
/// dedicated outcome: a coordinator that goes away, stalls past the
/// reply deadline, or ships a frame that no longer decodes is not an
/// error for the worker — its checkpoints are durable and the
/// reconnect loop decides what happens next.
enum Step {
    Frame(ToWorker),
    Gone,
}

fn roundtrip(
    reader: &mut TcpStream,
    writer: &mut TcpStream,
    frame: &ToCoordinator,
) -> Result<Step, DistError> {
    let deadline = Duration::from_millis(REPLY_DEADLINE_MS);
    match wire::write_frame_deadline(writer, &encode_to_coordinator(frame), Some(deadline)) {
        Ok(()) => {}
        // Our own frame exceeding the cap is a bug, not weather.
        Err(e @ WireError::Oversize { .. }) => return Err(e.into()),
        Err(_) => return Ok(Step::Gone),
    }
    let limits = ReadLimits {
        max_frame: MAX_FRAME,
        frame_deadline: Some(deadline),
        idle_deadline: Some(Instant::now() + deadline),
    };
    match wire::read_frame_event(reader, &limits, &|| false) {
        Ok(FrameEvent::Frame(payload)) => match decode_to_worker(&payload) {
            Ok(frame) => Ok(Step::Frame(frame)),
            // A frame that does not decode means the stream is
            // corrupt; nothing after it can be trusted either.
            Err(_) => Ok(Step::Gone),
        },
        // Eof: closed between frames. Idle: reply never started.
        Ok(FrameEvent::Eof | FrameEvent::Idle) => Ok(Step::Gone),
        // Truncated/Stalled mid-frame, a garbled length prefix
        // (Oversize), invalid UTF-8, socket errors: all transport
        // damage, all survivable.
        Err(_) => Ok(Step::Gone),
    }
}

/// The worker's own checkpoint file for a shard.
fn own_checkpoint(state_dir: &Path, shard: ShardRange) -> PathBuf {
    state_dir.join(format!(
        "shard-{}-{}.{}.fsas",
        shard.start,
        shard.end,
        std::process::id()
    ))
}

/// The newest checkpoint file any worker left for this shard, by
/// modification time.
fn newest_checkpoint(state_dir: &Path, shard: ShardRange) -> Option<PathBuf> {
    let prefix = format!("shard-{}-{}.", shard.start, shard.end);
    let mut best: Option<(std::time::SystemTime, PathBuf)> = None;
    for entry in fs::read_dir(state_dir).ok()?.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with(&prefix) || !name.ends_with(".fsas") {
            continue;
        }
        let Ok(meta) = entry.metadata() else { continue };
        let Ok(mtime) = meta.modified() else { continue };
        if best.as_ref().is_none_or(|(t, _)| mtime >= *t) {
            best = Some((mtime, entry.path()));
        }
    }
    best.map(|(_, path)| path)
}

/// A fully explored shard whose `shard-result` the coordinator has not
/// acknowledged yet, with the configuration it was explored under.
struct Finished {
    config: HelloConfig,
    shard: ShardRange,
    frame: ToCoordinator,
}

/// Runs one leased shard through the engine once, resuming from the
/// newest checkpoint any worker left for it. Returns `None` when
/// `cancel` stopped the run (its progress is in this worker's
/// checkpoint) and the shard's `shard-result` frame, with its χ
/// unions, when the shard is fully explored.
fn run_shard(
    cfg: &HelloConfig,
    worker: &WorkerConfig,
    shard: ShardRange,
    cancel: &CancelToken,
) -> Result<Option<ToCoordinator>, DistError> {
    let (models, rules) = vanet::exploration::scenario_universe(cfg.max_vehicles as usize);
    let max_candidates = usize::try_from(cfg.max_candidates).unwrap_or(usize::MAX);
    let options = ExploreOptions {
        require_connected: cfg.require_connected,
        max_candidates,
        threads: worker.threads.max(1),
        obs: worker.obs.clone(),
        shard: Some(shard),
        ..ExploreOptions::default()
    };
    let own = own_checkpoint(&worker.state_dir, shard);
    let mut resume = newest_checkpoint(&worker.state_dir, shard);
    let _span = worker.obs.span("dist.shard");
    loop {
        let exec = ExecOptions {
            supervisor: Supervisor::new().with_cancel(cancel.clone()),
            batch: 32,
            checkpoint: Some(CheckpointSpec {
                path: own.clone(),
                every: CHECKPOINT_EVERY,
                at_end: false,
            }),
            resume: resume.clone(),
        };
        match explore_universe(&models, &rules, &options, &exec) {
            Ok(universe) => {
                if universe.stats.resumed {
                    worker.obs.counter_add("dist.worker_resumes", 1);
                }
                if universe.stats.cancelled {
                    return Ok(None);
                }
                let stats = &universe.stats;
                let counters = CheckpointCounters {
                    multiplicity_vectors: stats.multiplicity_vectors,
                    subsets_total: stats.subsets_total,
                    orbits_skipped: stats.orbits_skipped,
                    candidates: stats.candidates,
                    candidates_built: stats.candidates_built,
                    disconnected_skipped: stats.disconnected_skipped,
                    certificate_hits: stats.certificate_hits,
                    exact_iso_fallbacks: stats.exact_iso_fallbacks,
                    truncated: stats.truncated,
                    vectors_completed: stats.vectors_completed,
                    failures: stats.failures,
                    retries: stats.retries,
                };
                return Ok(Some(ToCoordinator::ShardResult {
                    start: shard.start,
                    end: shard.end,
                    accepted: universe.accepted(),
                    counters,
                    chi: Some(universe.unions),
                }));
            }
            // A stale or foreign checkpoint (e.g. written under a
            // different configuration) fails closed; drop it and run
            // the shard from scratch once.
            Err(FsaError::CorruptCheckpoint { .. }) if resume.is_some() => {
                if let Some(path) = resume.take() {
                    let _ = fs::remove_file(path);
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// How working a granted shard ended.
enum Worked {
    /// The engine explored the whole shard: its `shard-result`.
    Explored(ToCoordinator),
    /// A renewal was not answered with the shard's own grant; the
    /// engine was cancelled. Holds the answer, a reply to `lease`.
    Lost(Step),
}

/// Works a granted shard: the engine runs on this thread while a
/// thread of its own renews the lease about every third of `lease_ms`
/// (it sleeps until then, so a short shard never waits for it), and
/// cancels the engine when a renewal is answered with anything but the
/// shard's own grant.
fn work_shard(
    reader: &mut TcpStream,
    writer: &mut TcpStream,
    cfg: &HelloConfig,
    config: &WorkerConfig,
    shard: ShardRange,
    lease_ms: u64,
) -> Result<Worked, DistError> {
    let cancel = CancelToken::new();
    let period = Duration::from_millis((lease_ms / 3).max(1));
    std::thread::scope(|scope| {
        // Dropped when the engine returns, or unwinds: the renewer stops.
        let (stop, stopped) = mpsc::channel::<()>();
        let canceller = cancel.clone();
        let renewer = scope.spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(period) {
                let reply = roundtrip(reader, writer, &ToCoordinator::Lease);
                if let Ok(Step::Frame(ToWorker::Grant { start, end, .. })) = &reply {
                    if ShardRange::new(*start, *end) == shard {
                        config.obs.counter_add("dist.worker_renewals", 1);
                        continue;
                    }
                }
                // The lease is lost (or the coordinator is): stop the
                // engine at its next batch boundary, where it
                // checkpoints for the shard's next holder.
                canceller.cancel();
                return Some(reply);
            }
            None
        });
        let explored = run_shard(cfg, config, shard, &cancel);
        drop(stop);
        let lost = renewer.join().expect("the lease renewer does not panic");
        match (explored, lost) {
            (Err(e), _) => Err(e),
            (Ok(_), Some(reply)) => reply.map(Worked::Lost),
            (Ok(Some(frame)), None) => Ok(Worked::Explored(frame)),
            (Ok(None), None) => Err(DistError::Worker(
                "the shard's engine stopped without being cancelled".to_owned(),
            )),
        }
    })
}

/// How one connected session ended.
enum SessionEnd {
    /// The coordinator reported the universe complete.
    Done,
    /// The connection was lost (or corrupted) *after* a successful
    /// handshake; reconnect with a refreshed attempt budget.
    Lost,
    /// No session was established: connect failed, the coordinator
    /// closed or stalled during the handshake, or it answered the
    /// handshake with `retry` (connection cap). Counts against the
    /// consecutive-attempt budget.
    Unreachable,
}

/// Sends the finished shard in `pending` and reads the ack. `Ok(None)`:
/// acknowledged, so the result and this worker's checkpoint for the
/// shard (an intermediate one, if it wrote any) are dropped;
/// `Ok(Some(end))`: the session ended first, and the result is kept for
/// the next session.
fn deliver(
    reader: &mut TcpStream,
    writer: &mut TcpStream,
    config: &WorkerConfig,
    pending: &mut Option<Finished>,
) -> Result<Option<SessionEnd>, DistError> {
    let finished = pending.as_ref().expect("a finished shard to deliver");
    match roundtrip(reader, writer, &finished.frame)? {
        Step::Frame(ToWorker::ShardDone { .. }) => {
            config.obs.counter_add("dist.worker_shards", 1);
            // The coordinator acks only a recorded result (one it keeps
            // a state file for is fsynced there first).
            let _ = fs::remove_file(own_checkpoint(&config.state_dir, finished.shard));
            *pending = None;
            Ok(None)
        }
        Step::Frame(ToWorker::Error { message }) => Err(DistError::Worker(message)),
        // Desynchronised pairing (a duplicated reply): reconnect and
        // resend — the ack path is idempotent.
        Step::Frame(_) => {
            config.obs.counter_add("dist.worker_desync", 1);
            Ok(Some(SessionEnd::Lost))
        }
        // The result may or may not have landed; resend it.
        Step::Gone => Ok(Some(SessionEnd::Lost)),
    }
}

/// Runs one connection's worth of work: connect, handshake, resend a
/// finished shard whose ack was lost, then lease → explore → report
/// until the universe is done or the connection dies.
fn work_session(
    addr: &str,
    config: &WorkerConfig,
    contention: &mut Backoff,
    pending: &mut Option<Finished>,
) -> Result<SessionEnd, DistError> {
    let Ok(stream) = TcpStream::connect(addr) else {
        return Ok(SessionEnd::Unreachable);
    };
    stream.set_nodelay(true).ok();
    let timeout = Some(Duration::from_millis(SOCKET_TIMEOUT_MS));
    stream
        .set_read_timeout(timeout)
        .map_err(|e| DistError::Io(e.to_string()))?;
    stream
        .set_write_timeout(timeout)
        .map_err(|e| DistError::Io(e.to_string()))?;
    let mut reader = stream
        .try_clone()
        .map_err(|e| DistError::Io(e.to_string()))?;
    let mut writer = stream;
    let cfg = match roundtrip(&mut reader, &mut writer, &ToCoordinator::Hello)? {
        Step::Frame(ToWorker::Hello(cfg)) => cfg,
        // The coordinator is at its connection cap: back off like any
        // other contention and try again (without refilling the
        // attempt budget — a permanently saturated coordinator must
        // not pin the worker forever).
        Step::Frame(ToWorker::Retry { .. }) => {
            std::thread::sleep(contention.next_delay());
            return Ok(SessionEnd::Unreachable);
        }
        Step::Frame(ToWorker::Error { message }) => return Err(DistError::Worker(message)),
        Step::Frame(other) => {
            return Err(DistError::Proto(format!(
                "expected `hello` reply, got {other:?}"
            )))
        }
        Step::Gone => return Ok(SessionEnd::Unreachable),
    };
    config.obs.counter_add("dist.worker_sessions", 1);
    // A result explored under another configuration is no use here.
    if pending
        .as_ref()
        .is_some_and(|finished| finished.config != cfg)
    {
        *pending = None;
    }
    if pending.is_some() {
        config.obs.counter_add("dist.worker_resends", 1);
        if let Some(end) = deliver(&mut reader, &mut writer, config, pending)? {
            return Ok(end);
        }
    }
    // Every iteration handles one reply to a `lease` request: a grant
    // (fresh, or answering a renewal that found the lease lost), a
    // retry, or done.
    let mut reply = roundtrip(&mut reader, &mut writer, &ToCoordinator::Lease)?;
    loop {
        let Step::Frame(frame) = reply else {
            return Ok(SessionEnd::Lost);
        };
        reply = match frame {
            ToWorker::Grant {
                start,
                end,
                lease_ms,
            } => {
                contention.reset();
                let shard = ShardRange { start, end };
                let frame =
                    match work_shard(&mut reader, &mut writer, &cfg, config, shard, lease_ms)? {
                        Worked::Explored(frame) => frame,
                        Worked::Lost(step) => {
                            reply = step;
                            continue;
                        }
                    };
                *pending = Some(Finished {
                    config: cfg,
                    shard,
                    frame,
                });
                if let Some(end) = deliver(&mut reader, &mut writer, config, pending)? {
                    return Ok(end);
                }
                roundtrip(&mut reader, &mut writer, &ToCoordinator::Lease)?
            }
            ToWorker::Retry { .. } => {
                std::thread::sleep(contention.next_delay());
                roundtrip(&mut reader, &mut writer, &ToCoordinator::Lease)?
            }
            ToWorker::Done => {
                let _ = wire::write_frame_deadline(
                    &mut writer,
                    &encode_to_coordinator(&ToCoordinator::Bye),
                    Some(Duration::from_millis(REPLY_DEADLINE_MS)),
                );
                return Ok(SessionEnd::Done);
            }
            ToWorker::Error { message } => return Err(DistError::Worker(message)),
            // A frame that decodes but does not answer our request —
            // a duplicated or replayed reply on a damaged transport.
            // The pairing is unrecoverable mid-stream, but a fresh
            // session re-pairs from the handshake; the coordinator's
            // handshake, grant and ack paths are all idempotent.
            _ => {
                config.obs.counter_add("dist.worker_desync", 1);
                return Ok(SessionEnd::Lost);
            }
        };
    }
}

/// Connects to a coordinator and works shards until the coordinator
/// reports the universe done, reconnecting through transient drops.
///
/// A lost connection (including a coordinator restart — its state
/// file preserves completed shards, re-leasing the interrupted one is
/// cheap thanks to the worker's checkpoint, and a finished result whose
/// ack was lost is resent) costs a jittered backoff and a new
/// handshake. The worker only stops on
/// [`WorkerConfig::reconnect`] *consecutive* failed attempts: that is
/// a clean exit when some session was worked before (the coordinator
/// has presumably finished and gone away), and an error when the
/// coordinator was never reachable.
///
/// # Errors
///
/// [`DistError::Io`] when the coordinator was never reachable,
/// [`DistError::Proto`] on protocol violations,
/// [`DistError::Worker`] when the coordinator rejects this worker,
/// and [`DistError::Fsa`] when a shard fails analytically (e.g. the
/// per-worker candidate budget).
pub fn run_worker(addr: &str, config: &WorkerConfig) -> Result<(), DistError> {
    fs::create_dir_all(&config.state_dir)
        .map_err(|e| DistError::Io(format!("state dir {}: {e}", config.state_dir.display())))?;
    let budget = config.reconnect.max(1);
    let mut attempts = budget;
    let mut connected_once = false;
    // Independent seeded streams: reconnect pacing and lease
    // contention are separate streaks (losing a connection should not
    // inherit a grown lease-contention delay, and vice versa).
    let mut reconnect = Backoff::new(
        RECONNECT_BASE_MS,
        RECONNECT_CAP_MS,
        config.seed ^ 0xA076_1D64_78BD_642F,
    );
    let mut contention = Backoff::new(
        RETRY_BASE_MS,
        RETRY_CAP_MS,
        config.seed ^ 0xE703_7ED1_A0B4_28DB,
    );
    let mut pending = None;
    loop {
        match work_session(addr, config, &mut contention, &mut pending)? {
            SessionEnd::Done => return Ok(()),
            SessionEnd::Lost => {
                connected_once = true;
                attempts = budget;
                reconnect.reset();
                config.obs.counter_add("dist.worker_reconnects", 1);
            }
            SessionEnd::Unreachable => {}
        }
        attempts -= 1;
        if attempts == 0 {
            if connected_once {
                // We worked at least one session and now the
                // coordinator is gone for good — it finished (our
                // `done` grant was lost with the connection) or an
                // operator took it down. A result still waiting for its
                // ack goes with us (a successor resumes its shard from
                // our last checkpoint, if any); this is a clean exit,
                // mirroring the pre-reconnect contract that a vanished
                // coordinator is not a worker error.
                return Ok(());
            }
            return Err(DistError::Io(format!(
                "coordinator at {addr} unreachable after {budget} attempts"
            )));
        }
        std::thread::sleep(reconnect.next_delay());
    }
}
