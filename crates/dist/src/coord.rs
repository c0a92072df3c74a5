//! The coordinator: shard leasing, result collection, canonical merge.
//!
//! A [`Coordinator`] owns a TCP listener and the shard ledger of one
//! universe. Workers connect, handshake (`hello`), and then loop
//! requesting *leases*: time-bounded exclusive claims on one
//! contiguous [`ShardRange`] of the global multiplicity-vector
//! ordinal space. A worker that goes silent past its lease deadline
//! (killed, wedged, partitioned) simply stops renewing; the sweep at
//! the next lease request expires the claim and the shard is
//! re-issued to whoever asks next. A lease request that finds every
//! unfinished shard leased out is held (up to the `retry` hint) until
//! a shard frees up or the universe completes, so an idle worker hears
//! `done` the moment the last result lands instead of after its
//! backoff sleep. Completed shards are durably
//! recorded through [`CoordState`] (store-and-forward: the accepted
//! log travels worker → coordinator memory → checksummed state file
//! before the shard is acknowledged), so a coordinator restarted
//! mid-universe re-leases only the unfinished ranges.
//!
//! Once every shard is done the accepted `(ordinal, mask)` logs are
//! concatenated in shard order — which is ascending global ordinal
//! order by construction — and replayed through
//! [`fsa_core::explore::merge_accepted`], which certifies every entry
//! on its adjacency rows and composes nothing, reproducing the
//! single-process classes and union bit-identically.

use crate::error::DistError;
use crate::proto::{
    decode_to_coordinator, encode_to_worker, HelloConfig, ToCoordinator, ToWorker, MAX_FRAME,
};
use crate::state::{CoordState, ShardRecord};
use fsa_core::checkpoint::{config_fingerprint, CheckpointCounters};
use fsa_core::explore::{
    merge_accepted, vector_space, ExploreOptions, ExploreStats, ShardRange, Universe,
};
use fsa_core::FsaError;
use fsa_obs::Obs;
use fsa_serve::wire;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Configuration of a coordinator run.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Universe size: one RSU plus up to this many vehicles.
    pub max_vehicles: usize,
    /// How many contiguous shards to partition the vector space into;
    /// capped at one per vector, so every shard is non-empty
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
/// bookkeeping (leases are deliberately *not* persisted — after a
/// restart every unfinished shard is simply pending again).
struct Inner {
    state: CoordState,
    leases: Vec<Option<Lease>>,
    ever_leased: Vec<bool>,
    remaining: usize,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Notified whenever a held lease request may now be answered: a
    /// result recorded or a lease released.
    changed: Condvar,
    shutdown: AtomicBool,
    obs: Obs,
    lease_ms: u64,
    state_path: Option<PathBuf>,
    hello: HelloConfig,
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
        // and checking in, or was deadline-cancelled and wants to
        // resume from its checkpoint) gets the same shard back.
        for (i, slot) in inner.leases.iter_mut().enumerate() {
            if let Some(lease) = slot {
                if lease.conn == conn {
                    lease.deadline = deadline;
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
        conn: u64,
        start: u64,
        end: u64,
        accepted: Vec<(u64, u64)>,
        counters: CheckpointCounters,
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
        if let Some(bad) = accepted.iter().find(|(o, _)| *o < start || *o >= end) {
            return Ok(ToWorker::Error {
                message: format!(
                    "accepted ordinal {} lies outside the shard range [{start}, {end})",
                    bad.0
                ),
            });
        }
        inner.state.shards[i].done = Some((accepted, counters));
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
        let _ = conn;
        Ok(ToWorker::ShardDone { start, end })
    }

    /// Releases every lease held by a disconnected worker.
    fn release_conn(&self, conn: u64) {
        let mut inner = self.lock();
        for slot in &mut inner.leases {
            if slot.as_ref().is_some_and(|l| l.conn == conn) {
                *slot = None;
                self.obs.counter_add("dist.leases_expired", 1);
                self.changed.notify_all();
            }
        }
    }

    fn remaining(&self) -> usize {
        self.lock().remaining
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
            } => {
                let ack = shared.record_result(conn, start, end, accepted, counters)?;
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

    /// Serves workers until the universe is fully explored, then
    /// merges all shard results into the canonical exploration.
    ///
    /// # Errors
    ///
    /// [`DistError::State`] for an incompatible or corrupt state
    /// file, [`DistError::Io`] for transport failures, and
    /// [`DistError::Fsa`] when the merge or the global candidate
    /// budget fails.
    pub fn run(self) -> Result<Universe, DistError> {
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
        let total = vector_space(&models);
        let ranges = ShardRange::partition(total, shards.max(1));
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
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                state,
                leases: (0..shard_count).map(|_| None).collect(),
                ever_leased: vec![false; shard_count],
                remaining,
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
        });
        self.listener.set_nonblocking(true)?;
        let mut handles = Vec::new();
        let mut conn_id = 0u64;
        let active = Arc::new(AtomicUsize::new(0));
        while shared.remaining() > 0 {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if active.load(Ordering::Relaxed) >= max_conns.max(1) {
                        // Over the cap: a paced `retry` instead of a
                        // handler thread. The worker treats it like
                        // lease contention and comes back jittered.
                        obs.counter_add("dist.conn_rejected", 1);
                        reject_busy(stream);
                        continue;
                    }
                    conn_id += 1;
                    let conn = conn_id;
                    let shared = Arc::clone(&shared);
                    active.fetch_add(1, Ordering::Relaxed);
                    let conn_active = Arc::clone(&active);
                    handles.push(std::thread::spawn(move || {
                        let outcome = handle_conn(stream, conn, &shared);
                        shared.release_conn(conn);
                        if outcome.is_err() {
                            shared.obs.counter_add("dist.conn_errors", 1);
                        }
                        conn_active.fetch_sub(1, Ordering::Relaxed);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(DistError::Io(format!("accept: {e}"))),
            }
        }
        // Drain: connected workers get `done` grants on their next
        // lease request and say `bye`; give them one lease interval
        // of grace so they exit on a clean frame instead of a cut
        // connection (which would send them into reconnect purgatory
        // against a closed listener). The stop flag then bounds how
        // long a genuinely silent connection can hold its handler.
        let grace = Instant::now() + Duration::from_millis(shared.lease_ms + 500);
        while active.load(Ordering::Relaxed) > 0 && Instant::now() < grace {
            std::thread::sleep(Duration::from_millis(5));
        }
        shared.shutdown.store(true, Ordering::Relaxed);
        for handle in handles {
            let _ = handle.join();
        }
        let inner = shared.lock();
        merge_state(
            &models,
            &rules,
            &inner.state,
            max_candidates,
            resumed > 0,
            &obs,
        )
    }
}

/// Merges a fully completed [`CoordState`] into the canonical
/// [`Universe`], bit-identical to the single-process run. Its
/// statistics are the shard counters' sums plus the merge time: a
/// merged run has no thread count and no scan, build or dedup timings.
fn merge_state(
    models: &[(fsa_core::component_model::ComponentModel, usize)],
    rules: &[fsa_core::explore::ConnectionRule],
    state: &CoordState,
    max_candidates: usize,
    resumed: bool,
    obs: &Obs,
) -> Result<Universe, DistError> {
    let span = obs.span("dist.merge");
    let merge_start = Instant::now();
    let mut all_accepted = Vec::new();
    let mut sum = CheckpointCounters::default();
    for shard in &state.shards {
        let Some((accepted, c)) = &shard.done else {
            return Err(DistError::State(format!(
                "cannot merge: shard {} is not done",
                shard.range
            )));
        };
        all_accepted.extend_from_slice(accepted);
        sum.multiplicity_vectors += c.multiplicity_vectors;
        sum.subsets_total += c.subsets_total;
        sum.orbits_skipped += c.orbits_skipped;
        sum.candidates += c.candidates;
        sum.candidates_built += c.candidates_built;
        sum.disconnected_skipped += c.disconnected_skipped;
        sum.certificate_hits += c.certificate_hits;
        sum.exact_iso_fallbacks += c.exact_iso_fallbacks;
        sum.vectors_completed += c.vectors_completed;
        sum.failures += c.failures;
        sum.retries += c.retries;
    }
    if sum.candidates > max_candidates {
        return Err(DistError::Fsa(FsaError::BudgetExceeded {
            limit: max_candidates,
        }));
    }
    let merged = merge_accepted(models, rules, &all_accepted)?;
    let elapsed = merge_start.elapsed();
    span.finish();
    obs.counter_add("dist.merge_micros", elapsed.as_micros() as u64);
    let stats = ExploreStats {
        multiplicity_vectors: sum.multiplicity_vectors,
        subsets_total: sum.subsets_total,
        orbits_skipped: sum.orbits_skipped,
        candidates: sum.candidates,
        disconnected_skipped: sum.disconnected_skipped,
        // Cross-shard duplicates surface at merge time; the identity
        // `Σ shard hits + merge duplicates = single-process hits`
        // holds exactly (property-tested in tests/dist_props.rs).
        certificate_hits: sum.certificate_hits + merged.duplicates,
        // Merge-time bucket collisions that needed an exact check are
        // not attributable to a shard; this stays the shard sum.
        exact_iso_fallbacks: sum.exact_iso_fallbacks,
        classes: merged.universe.classes.len(),
        truncated: false,
        vectors_total: usize::try_from(vector_space(models)).unwrap_or(usize::MAX),
        vectors_completed: sum.vectors_completed,
        candidates_built: sum.candidates_built,
        failures: sum.failures,
        retries: sum.retries,
        resumed,
        merge_time: Some(elapsed),
        ..ExploreStats::default()
    };
    stats.mirror_counters(obs);
    Ok(Universe {
        stats,
        ..merged.universe
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::JoinHandle;

    /// A ledger of `shards` one-vector shards, none leased or done.
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
                leases: (0..n).map(|_| None).collect(),
                ever_leased: vec![false; n],
                remaining: n,
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
            .record_result(1, 0, 1, Vec::new(), CheckpointCounters::default())
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
        shared.release_conn(1);
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
