//! The coordinator: shard leasing, result collection, canonical merge.
//!
//! A [`Coordinator`] owns a TCP listener and the shard ledger of one
//! universe. Workers connect, handshake (`hello`), and then loop
//! requesting *leases*: time-bounded exclusive claims on one
//! contiguous [`ShardRange`] of the universe's `(ordinal, mask)`
//! [`Lattice`]. A worker renews its lease while it explores, with the
//! same `lease` request: the holder is granted its own shard again. A
//! worker that goes silent past its lease deadline (killed, wedged,
//! partitioned) simply stops renewing; the sweep at the next lease
//! request expires the claim and the shard is re-issued to whoever asks
//! next. A lease request that finds every unfinished shard leased out
//! is held (up to the `retry` hint) until a shard frees up or the
//! universe completes, so an idle worker hears `done` the moment the
//! last result lands instead of after its backoff sleep. Completed
//! shards are durably recorded through [`CoordState`]
//! (store-and-forward: the accepted log travels worker → coordinator
//! memory → checksummed state file before the shard is acknowledged),
//! so a coordinator restarted mid-universe re-leases only the
//! unfinished ranges.
//!
//! Connections are accepted on a thread of their own, blocked in
//! `accept`; the run waits on the ledger's condition variable for the
//! last result and for the connections to drain, and wakes the accept
//! loop with a connection of its own when it is done.
//!
//! Once every shard is done the accepted logs are merged in shard order
//! — which is ascending `(ordinal, mask)` order by construction —
//! through [`fsa_core::explore::merge_accepted`], under the certificates
//! and with the χ unions the workers computed, reproducing the
//! single-process classes and union bit-identically. The unions are
//! kept in memory only: a shard resumed from the state file has its χ
//! rebuilt.

use crate::error::DistError;
use crate::proto::{
    decode_to_coordinator, encode_to_worker, HelloConfig, ToCoordinator, ToWorker, MAX_FRAME,
};
use crate::state::{CoordState, ShardRecord};
use fsa_core::checkpoint::{config_fingerprint, CheckpointCounters};
use fsa_core::explore::{
    merge_accepted, Accepted, ExploreOptions, ExploreStats, Lattice, ShardLog, ShardRange,
    Universe, VectorChi,
};
use fsa_core::FsaError;
use fsa_obs::Obs;
use fsa_serve::wire;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a coordinator run.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Universe size: one RSU plus up to this many vehicles.
    pub max_vehicles: usize,
    /// How many contiguous shards to cut the lattice's positions into;
    /// capped at one per position, so every shard is non-empty
    /// ([`ShardRange::partition`]).
    pub shards: usize,
    /// Lease validity in milliseconds; a worker must complete or renew
    /// within this window or its shard is re-issued.
    pub lease_ms: u64,
    /// Global candidate budget, re-checked across all shards at merge.
    pub max_candidates: usize,
    /// Whether disconnected candidates are skipped.
    pub require_connected: bool,
    /// Optional store-and-forward state file. When set, completed
    /// shards are persisted there and an existing compatible file is
    /// resumed from.
    pub state_path: Option<PathBuf>,
    /// Accept-side connection cap: a worker connecting beyond it is
    /// answered with a `retry` frame and closed instead of getting a
    /// handler thread, so a reconnect stampede degrades into paced
    /// retries rather than unbounded threads.
    pub max_conns: usize,
    /// Observability handle for the `dist.*` counters and spans.
    pub obs: Obs,
}

impl Default for CoordConfig {
    fn default() -> Self {
        let explore = ExploreOptions::default();
        CoordConfig {
            max_vehicles: 3,
            shards: 8,
            lease_ms: 2000,
            max_candidates: explore.max_candidates,
            require_connected: explore.require_connected,
            state_path: None,
            max_conns: 256,
            obs: Obs::disabled(),
        }
    }
}

/// An outstanding lease on one shard.
struct Lease {
    conn: u64,
    deadline: Instant,
}

/// Shared coordinator ledger: the durable state plus in-memory lease
/// and connection bookkeeping (leases are deliberately *not* persisted
/// — after a restart every unfinished shard is simply pending again).
struct Inner {
    state: CoordState,
    /// The χ unions each completed shard shipped (not persisted).
    unions: Vec<Option<Vec<VectorChi>>>,
    leases: Vec<Option<Lease>>,
    ever_leased: Vec<bool>,
    remaining: usize,
    /// Connections with a running handler thread.
    conns: usize,
    /// Why the accept loop stopped, when it failed.
    failure: Option<DistError>,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Notified whenever a waiter may have something to act on: a
    /// result recorded, a lease released, a connection closed, the
    /// accept loop failed.
    changed: Condvar,
    shutdown: AtomicBool,
    obs: Obs,
    lease_ms: u64,
    state_path: Option<PathBuf>,
    hello: HelloConfig,
    /// The universe's lattice, to check that a result's entries lie in
    /// its shard.
    lattice: Lattice,
}

impl Shared {
    /// Expires overdue leases. Called under the lock.
    fn sweep(&self, inner: &mut Inner, now: Instant) {
        for slot in &mut inner.leases {
            if let Some(lease) = slot {
                if lease.deadline <= now {
                    *slot = None;
                    self.obs.counter_add("dist.leases_expired", 1);
                }
            }
        }
    }

    /// Answers a `lease` request. When every unfinished shard is
    /// leased out the request is held (`dist.leases_held`) until a
    /// shard frees up (a result, a release, the earliest lease
    /// deadline) or the universe completes, for at most the `retry`
    /// hint; only then is the answer `retry`.
    fn grant(&self, conn: u64) -> ToWorker {
        let retry_ms = self.lease_ms.clamp(10, 500);
        let hold_until = Instant::now() + Duration::from_millis(retry_ms);
        let mut inner = self.lock();
        let mut held = false;
        loop {
            let now = Instant::now();
            if let Some(reply) = self.try_grant(&mut inner, conn, now) {
                return reply;
            }
            if now >= hold_until {
                return ToWorker::Retry { retry_ms };
            }
            if !held {
                held = true;
                self.obs.counter_add("dist.leases_held", 1);
            }
            let wake = inner
                .leases
                .iter()
                .flatten()
                .map(|lease| lease.deadline)
                .fold(hold_until, Instant::min);
            inner = self
                .changed
                .wait_timeout(inner, wake.saturating_duration_since(now))
                .expect("coordinator ledger poisoned")
                .0;
        }
    }

    /// A renewal, a fresh shard or `done`; `None` when every unfinished
    /// shard is leased to another worker. Called under the lock.
    fn try_grant(&self, inner: &mut Inner, conn: u64, now: Instant) -> Option<ToWorker> {
        let deadline = now + Duration::from_millis(self.lease_ms);
        self.sweep(inner, now);
        // Renewal: a worker that already holds a lease (it is mid-shard
        // and checking in) gets the same shard back.
        for (i, slot) in inner.leases.iter_mut().enumerate() {
            if let Some(lease) = slot {
                if lease.conn == conn {
                    lease.deadline = deadline;
                    self.obs.counter_add("dist.leases_renewed", 1);
                    let range = inner.state.shards[i].range;
                    return Some(ToWorker::Grant {
                        start: range.start,
                        end: range.end,
                        lease_ms: self.lease_ms,
                    });
                }
            }
        }
        if inner.remaining == 0 {
            return Some(ToWorker::Done);
        }
        let i = (0..inner.state.shards.len())
            .find(|&i| inner.state.shards[i].done.is_none() && inner.leases[i].is_none())?;
        inner.leases[i] = Some(Lease { conn, deadline });
        self.obs.counter_add("dist.leases_granted", 1);
        if inner.ever_leased[i] {
            self.obs.counter_add("dist.leases_reissued", 1);
        }
        inner.ever_leased[i] = true;
        let range = inner.state.shards[i].range;
        Some(ToWorker::Grant {
            start: range.start,
            end: range.end,
            lease_ms: self.lease_ms,
        })
    }

    fn record_result(
        &self,
        start: u64,
        end: u64,
        accepted: Vec<Accepted>,
        counters: CheckpointCounters,
        chi: Option<Vec<VectorChi>>,
    ) -> Result<ToWorker, DistError> {
        let mut inner = self.lock();
        let Some(i) = inner
            .state
            .shards
            .iter()
            .position(|s| s.range.start == start && s.range.end == end)
        else {
            return Ok(ToWorker::Error {
                message: format!("no shard has range [{start}, {end})"),
            });
        };
        if inner.state.shards[i].done.is_some() {
            // A re-issued shard finished twice (the original worker was
            // slow, not dead). The first result won; acknowledge so the
            // late worker drops its checkpoint and moves on.
            return Ok(ToWorker::ShardDone { start, end });
        }
        let range = ShardRange::new(start, end);
        if let Some(bad) = accepted.iter().find(|a| {
            self.lattice
                .position(a.ordinal, a.mask)
                .is_none_or(|p| !range.contains(p))
        }) {
            return Ok(ToWorker::Error {
                message: format!(
                    "accepted entry (vector {}, mask {}) lies outside the shard range [{start}, {end})",
                    bad.ordinal, bad.mask
                ),
            });
        }
        inner.state.shards[i].done = Some((accepted, counters));
        inner.unions[i] = chi;
        inner.leases[i] = None;
        inner.remaining -= 1;
        // Store-and-forward: the result must be durable before the
        // acknowledgement that lets the worker delete its checkpoint.
        // `save` goes through `Snapshot::write_atomic`, which fsyncs
        // the temp file *and* its directory before this call returns,
        // so the `shard-done` ack below is never observable while the
        // state that justifies it sits only in the page cache.
        if let Some(path) = &self.state_path {
            inner.state.save(path)?;
        }
        self.obs.counter_add("dist.shards_completed", 1);
        self.changed.notify_all();
        Ok(ToWorker::ShardDone { start, end })
    }

    /// Releases every lease held by a connection that closed, and
    /// retires the connection.
    fn close_conn(&self, conn: u64) {
        let mut inner = self.lock();
        for slot in &mut inner.leases {
            if slot.as_ref().is_some_and(|l| l.conn == conn) {
                *slot = None;
                self.obs.counter_add("dist.leases_expired", 1);
            }
        }
        inner.conns -= 1;
        self.changed.notify_all();
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("coordinator ledger poisoned")
    }
}

/// Answers an over-cap connection with a `retry` frame — under a
/// write timeout and deadline, so a peer that connects and then never
/// reads cannot block the accept loop — and closes it.
fn reject_busy(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(50)));
    let frame = encode_to_worker(&ToWorker::Retry { retry_ms: 100 });
    let _ = wire::write_frame_deadline(&mut stream, &frame, Some(Duration::from_millis(200)));
}

fn handle_conn(stream: TcpStream, conn: u64, shared: &Shared) -> Result<(), DistError> {
    stream.set_read_timeout(Some(Duration::from_millis(25)))?;
    // The write timeout plus the per-frame write deadline below bound
    // how long a worker that stops draining its socket can pin this
    // handler thread (its lease simply expires and is re-issued).
    stream.set_write_timeout(Some(Duration::from_millis(25)))?;
    stream.set_nodelay(true).ok();
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    let stop = || shared.shutdown.load(Ordering::Relaxed);
    let mut reply = |frame: &ToWorker| -> Result<(), DistError> {
        wire::write_frame_deadline(
            &mut writer,
            &encode_to_worker(frame),
            Some(Duration::from_millis(2_000)),
        )
        .map_err(DistError::from)
    };
    let Some(first) = wire::read_frame_with_stop(&mut reader, MAX_FRAME, &stop)? else {
        return Ok(());
    };
    match decode_to_coordinator(&first)? {
        ToCoordinator::Hello => {}
        other => {
            reply(&ToWorker::Error {
                message: format!("expected `hello` first, got {other:?}"),
            })?;
            return Err(DistError::Proto("handshake out of order".to_owned()));
        }
    }
    reply(&ToWorker::Hello(shared.hello))?;
    while let Some(payload) = wire::read_frame_with_stop(&mut reader, MAX_FRAME, &stop)? {
        match decode_to_coordinator(&payload)? {
            ToCoordinator::Lease => reply(&shared.grant(conn))?,
            ToCoordinator::ShardResult {
                start,
                end,
                accepted,
                counters,
                chi,
            } => {
                let ack = shared.record_result(start, end, accepted, counters, chi)?;
                let fatal = matches!(ack, ToWorker::Error { .. });
                reply(&ack)?;
                if fatal {
                    return Err(DistError::Proto("rejected shard result".to_owned()));
                }
            }
            ToCoordinator::Bye => return Ok(()),
            // Idempotent re-handshake (mirrors the serve layer): a
            // transport that replays or duplicates frames must not be
            // able to turn a healthy session into a protocol error.
            ToCoordinator::Hello => reply(&ToWorker::Hello(shared.hello))?,
        }
    }
    Ok(())
}

/// Accepts workers until shutdown, each on a handler thread of its
/// own, and returns the handler threads. An accept error other than an
/// interruption is recorded as the run's failure.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    max_conns: usize,
) -> Vec<JoinHandle<()>> {
    let mut handles = Vec::new();
    let mut conn_id = 0u64;
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return handles;
        }
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                shared.lock().failure = Some(DistError::Io(format!("accept: {e}")));
                shared.changed.notify_all();
                return handles;
            }
        };
        {
            let mut inner = shared.lock();
            if inner.conns >= max_conns.max(1) {
                drop(inner);
                // Over the cap: a paced `retry` instead of a handler
                // thread. The worker treats it like lease contention
                // and comes back jittered.
                shared.obs.counter_add("dist.conn_rejected", 1);
                reject_busy(stream);
                continue;
            }
            inner.conns += 1;
        }
        conn_id += 1;
        let conn = conn_id;
        let shared = Arc::clone(shared);
        handles.push(std::thread::spawn(move || {
            if handle_conn(stream, conn, &shared).is_err() {
                shared.obs.counter_add("dist.conn_errors", 1);
            }
            shared.close_conn(conn);
        }));
    }
}

/// The address a connection of our own reaches `bound` at, to wake an
/// accept blocked on it: the loopback address of its family when it is
/// bound to the unspecified one.
fn wake_addr(mut bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        bound.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    bound
}

/// A bound, not-yet-running coordinator.
pub struct Coordinator {
    listener: TcpListener,
    config: CoordConfig,
}

impl Coordinator {
    /// Binds the coordinator's listener (e.g. `"127.0.0.1:0"` for an
    /// ephemeral port).
    ///
    /// # Errors
    ///
    /// [`DistError::Io`] when the address cannot be bound.
    pub fn bind(addr: &str, config: CoordConfig) -> Result<Coordinator, DistError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| DistError::Io(format!("bind {addr}: {e}")))?;
        Ok(Coordinator { listener, config })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// [`DistError::Io`] when the socket address cannot be read.
    pub fn addr(&self) -> Result<SocketAddr, DistError> {
        self.listener.local_addr().map_err(DistError::from)
    }

    /// Serves workers until the universe is fully explored (the
    /// `dist.wait` span), then merges all shard results into the
    /// canonical exploration (`dist.merge`).
    ///
    /// # Errors
    ///
    /// [`DistError::State`] for an incompatible or corrupt state
    /// file, [`DistError::Io`] for transport failures, and
    /// [`DistError::Fsa`] when the merge or the global candidate
    /// budget fails.
    pub fn run(self) -> Result<Universe, DistError> {
        let served = {
            let _wait = self.config.obs.span("dist.wait");
            self.serve()?
        };
        served.merge()
    }

    /// Serves workers until every shard's result is recorded and the
    /// workers have said goodbye, and returns the results to merge.
    ///
    /// # Errors
    ///
    /// [`DistError::State`] for an incompatible or corrupt state
    /// file, [`DistError::Io`] for transport failures, and
    /// [`DistError::Fsa`] when the universe's lattice cannot be built.
    pub fn serve(self) -> Result<Served, DistError> {
        let CoordConfig {
            max_vehicles,
            shards,
            lease_ms,
            max_candidates,
            require_connected,
            state_path,
            max_conns,
            obs,
        } = self.config;
        let (models, rules) = vanet::exploration::scenario_universe(max_vehicles);
        let options = ExploreOptions {
            require_connected,
            max_candidates,
            ..ExploreOptions::default()
        };
        let fingerprint = config_fingerprint(&models, &rules, &options);
        let lattice = Lattice::new(&models, &rules)?;
        let ranges = ShardRange::partition(lattice.positions(), shards.max(1));
        let base = CoordState {
            fingerprint,
            max_vehicles: max_vehicles as u64,
            max_candidates: max_candidates as u64,
            require_connected,
            shards: ranges
                .iter()
                .map(|&range| ShardRecord { range, done: None })
                .collect(),
        };
        let state = match &state_path {
            Some(path) if path.exists() => {
                let loaded = CoordState::load(path)?;
                loaded.check_compatible(&base)?;
                obs.counter_add("dist.shards_resumed", loaded.completed() as u64);
                loaded
            }
            Some(path) => {
                base.save(path)?;
                base
            }
            None => base,
        };
        let resumed = state.completed();
        let shard_count = state.shards.len();
        let remaining = shard_count - resumed;
        let wake = wake_addr(self.listener.local_addr()?);
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                state,
                unions: vec![None; shard_count],
                leases: (0..shard_count).map(|_| None).collect(),
                ever_leased: vec![false; shard_count],
                remaining,
                conns: 0,
                failure: None,
            }),
            changed: Condvar::new(),
            shutdown: AtomicBool::new(false),
            obs: obs.clone(),
            lease_ms: lease_ms.max(1),
            state_path,
            hello: HelloConfig {
                max_vehicles: max_vehicles as u64,
                max_candidates: max_candidates as u64,
                require_connected,
            },
            lattice,
        });
        let listener = self.listener;
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared, max_conns))
        };
        // The last result, or the accept loop's failure.
        let failure = {
            let mut inner = shared.lock();
            while inner.remaining > 0 && inner.failure.is_none() {
                inner = shared
                    .changed
                    .wait(inner)
                    .expect("coordinator ledger poisoned");
            }
            inner.failure.take()
        };
        if failure.is_none() {
            // Drain: connected workers get `done` grants on their next
            // lease request and say `bye`; give them one lease interval
            // of grace so they exit on a clean frame instead of a cut
            // connection (which would send them into reconnect
            // purgatory against a closed listener). The stop flag then
            // bounds how long a genuinely silent connection can hold
            // its handler.
            let grace = Instant::now() + Duration::from_millis(shared.lease_ms + 500);
            let mut inner = shared.lock();
            while inner.conns > 0 {
                let now = Instant::now();
                if now >= grace {
                    break;
                }
                inner = shared
                    .changed
                    .wait_timeout(inner, grace - now)
                    .expect("coordinator ledger poisoned")
                    .0;
            }
        }
        shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop with a connection of our own; it sees
        // the stop flag and returns its handlers, which see it too. An
        // accept loop that already failed has dropped the listener. A
        // wake that cannot connect leaves the loop blocked, unjoined.
        let woken = TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok();
        if woken || acceptor.is_finished() {
            if let Ok(handlers) = acceptor.join() {
                for handler in handlers {
                    let _ = handler.join();
                }
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        let mut inner = shared.lock();
        Ok(Served {
            models,
            rules,
            shards: std::mem::take(&mut inner.state.shards),
            unions: std::mem::take(&mut inner.unions),
            lattice: shared.lattice.clone(),
            max_candidates,
            resumed: resumed > 0,
            obs,
        })
    }
}

/// A coordinator that served every shard: the results to merge.
pub struct Served {
    models: Vec<(fsa_core::component_model::ComponentModel, usize)>,
    rules: Vec<fsa_core::explore::ConnectionRule>,
    shards: Vec<ShardRecord>,
    unions: Vec<Option<Vec<VectorChi>>>,
    lattice: Lattice,
    max_candidates: usize,
    resumed: bool,
    obs: Obs,
}

impl Served {
    /// Merges the shards, with the χ unions they shipped, into the
    /// canonical [`Universe`], bit-identical to the single-process run
    /// (the `dist.merge` span). Its statistics are the shard counters'
    /// sums plus the merge's own duplicates, exact checks and time: a
    /// merged run has no thread count and no scan, build or dedup
    /// timings.
    ///
    /// # Errors
    ///
    /// [`DistError::Fsa`] when the merge or the global candidate budget
    /// fails.
    pub fn merge(self) -> Result<Universe, DistError> {
        let _span = self.obs.span("dist.merge");
        let merge_start = Instant::now();
        let mut logs = Vec::with_capacity(self.shards.len());
        let mut sum = CheckpointCounters::default();
        // Candidates the shards offered to their class maps without
        // founding a class.
        let mut shard_duplicates = 0usize;
        for (shard, unions) in self.shards.iter().zip(&self.unions) {
            let Some((accepted, c)) = &shard.done else {
                return Err(DistError::State(format!(
                    "cannot merge: shard {} is not done",
                    shard.range
                )));
            };
            logs.push(ShardLog {
                accepted,
                unions: unions.as_deref(),
            });
            shard_duplicates +=
                (c.candidates_built - c.disconnected_skipped).saturating_sub(accepted.len());
            sum.multiplicity_vectors += c.multiplicity_vectors;
            sum.subsets_total += c.subsets_total;
            sum.orbits_skipped += c.orbits_skipped;
            sum.candidates += c.candidates;
            sum.candidates_built += c.candidates_built;
            sum.disconnected_skipped += c.disconnected_skipped;
            sum.exact_iso_fallbacks += c.exact_iso_fallbacks;
            sum.failures += c.failures;
            sum.retries += c.retries;
        }
        if sum.candidates > self.max_candidates {
            return Err(DistError::Fsa(FsaError::BudgetExceeded {
                limit: self.max_candidates,
            }));
        }
        let merged = merge_accepted(&self.models, &self.rules, &logs)?;
        let elapsed = merge_start.elapsed();
        self.obs
            .counter_add("dist.merge_micros", elapsed.as_micros() as u64);
        let vectors = usize::try_from(self.lattice.vectors()).unwrap_or(usize::MAX);
        let stats = ExploreStats {
            multiplicity_vectors: sum.multiplicity_vectors,
            subsets_total: sum.subsets_total,
            orbits_skipped: sum.orbits_skipped,
            candidates: sum.candidates,
            disconnected_skipped: sum.disconnected_skipped,
            // The single-process count: a shard's duplicate hit a bucket
            // there too, and a shard's founding entries hit exactly the
            // buckets that the merge finds non-empty. (Without certificate
            // collisions this is `Σ shard hits + merge duplicates`,
            // property-tested in tests/dist_props.rs.)
            certificate_hits: shard_duplicates + merged.universe.stats.certificate_hits,
            // Each cross-shard duplicate costs the merge an exact check.
            // Equal to the single-process count unless certificates
            // collide; then it depends on the cuts.
            exact_iso_fallbacks: sum.exact_iso_fallbacks
                + merged.universe.stats.exact_iso_fallbacks,
            classes: merged.universe.classes.len(),
            truncated: false,
            // Every shard completed, each vector's masks with it.
            vectors_total: vectors,
            vectors_completed: vectors,
            candidates_built: sum.candidates_built,
            failures: sum.failures,
            retries: sum.retries,
            resumed: self.resumed,
            merge_time: Some(elapsed),
            ..ExploreStats::default()
        };
        stats.mirror_counters(&self.obs);
        Ok(Universe {
            stats,
            ..merged.universe
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::JoinHandle;

    /// A ledger of `shards` one-position shards, none leased or done,
    /// with connections 1 and 2 open.
    fn ledger(shards: u64, lease_ms: u64, obs: &Obs) -> Arc<Shared> {
        let shards: Vec<ShardRecord> = (0..shards)
            .map(|i| ShardRecord {
                range: ShardRange {
                    start: i,
                    end: i + 1,
                },
                done: None,
            })
            .collect();
        let n = shards.len();
        Arc::new(Shared {
            inner: Mutex::new(Inner {
                state: CoordState {
                    fingerprint: 0,
                    max_vehicles: 1,
                    max_candidates: 1,
                    require_connected: true,
                    shards,
                },
                unions: vec![None; n],
                leases: (0..n).map(|_| None).collect(),
                ever_leased: vec![false; n],
                remaining: n,
                conns: 2,
                failure: None,
            }),
            changed: Condvar::new(),
            shutdown: AtomicBool::new(false),
            obs: obs.clone(),
            lease_ms,
            state_path: None,
            hello: HelloConfig {
                max_vehicles: 1,
                max_candidates: 1,
                require_connected: true,
            },
            lattice: {
                let (models, rules) = vanet::exploration::scenario_universe(1);
                Lattice::new(&models, &rules).unwrap()
            },
        })
    }

    /// Connection `conn` asks for a lease on its own thread; the reply
    /// comes back with the time it took.
    fn ask(shared: &Arc<Shared>, conn: u64) -> JoinHandle<(ToWorker, Duration)> {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            let asked = Instant::now();
            let reply = shared.grant(conn);
            (reply, asked.elapsed())
        })
    }

    /// Returns once a lease request is waiting on the ledger. The
    /// counter is bumped under the ledger lock, which the request
    /// only gives up by waiting, so whatever the caller does with the
    /// ledger next happens while the request is held.
    fn until_held(obs: &Obs) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while obs.snapshot().counter("dist.leases_held").is_none() {
            assert!(Instant::now() < give_up, "the request was never held");
            std::thread::yield_now();
        }
    }

    /// Well inside the 500 ms hold, however loaded the machine.
    const PROMPT: Duration = Duration::from_millis(400);

    #[test]
    fn a_held_request_hears_done_as_soon_as_the_last_result_lands() {
        let obs = Obs::enabled();
        let shared = ledger(1, 60_000, &obs);
        assert!(matches!(shared.grant(1), ToWorker::Grant { start: 0, .. }));
        let waiter = ask(&shared, 2);
        until_held(&obs);
        let ack = shared
            .record_result(0, 1, Vec::new(), CheckpointCounters::default(), None)
            .unwrap();
        assert!(matches!(ack, ToWorker::ShardDone { start: 0, end: 1 }));
        let (reply, waited) = waiter.join().unwrap();
        assert!(matches!(reply, ToWorker::Done), "{reply:?}");
        assert!(waited < PROMPT, "answered after {waited:?}");
    }

    #[test]
    fn a_held_request_takes_over_a_released_shard() {
        let obs = Obs::enabled();
        let shared = ledger(1, 60_000, &obs);
        assert!(matches!(shared.grant(1), ToWorker::Grant { start: 0, .. }));
        let waiter = ask(&shared, 2);
        until_held(&obs);
        shared.close_conn(1);
        let (reply, waited) = waiter.join().unwrap();
        assert!(
            matches!(
                reply,
                ToWorker::Grant {
                    start: 0,
                    end: 1,
                    ..
                }
            ),
            "{reply:?}"
        );
        assert!(waited < PROMPT, "answered after {waited:?}");
    }

    #[test]
    fn a_held_request_takes_over_an_expired_lease() {
        // Lease and hold are both 100 ms; the lease, taken first,
        // lapses before the hold ends.
        let obs = Obs::enabled();
        let shared = ledger(1, 100, &obs);
        assert!(matches!(shared.grant(1), ToWorker::Grant { start: 0, .. }));
        let (reply, _) = ask(&shared, 2).join().unwrap();
        assert!(
            matches!(
                reply,
                ToWorker::Grant {
                    start: 0,
                    end: 1,
                    ..
                }
            ),
            "{reply:?}"
        );
        assert_eq!(shared.lock().leases[0].as_ref().map(|l| l.conn), Some(2));
        let counters = obs.snapshot();
        assert_eq!(counters.counter("dist.leases_held"), Some(1));
        assert_eq!(counters.counter("dist.leases_expired"), Some(1));
        assert_eq!(counters.counter("dist.leases_reissued"), Some(1));
    }

    #[test]
    fn an_unanswerable_request_is_told_to_retry_after_the_hint() {
        let shared = ledger(1, 1_000, &Obs::disabled());
        assert!(matches!(shared.grant(1), ToWorker::Grant { start: 0, .. }));
        let (reply, waited) = ask(&shared, 2).join().unwrap();
        assert!(
            matches!(reply, ToWorker::Retry { retry_ms: 500 }),
            "{reply:?}"
        );
        assert!(
            waited >= Duration::from_millis(500),
            "answered after {waited:?}"
        );
    }
}
