//! Panic-isolated, retrying, cancel-aware chunked execution.
//!
//! [`Supervisor::run_chunks`] is the one fork-join primitive shared by
//! the exploration and monitoring engines: a *stage* is split into
//! `chunks` independent units of work; each unit runs under
//! `catch_unwind`, is retried with deterministic exponential backoff +
//! jitter when it panics, and is reported as a [`ChunkFailure`] when the
//! retries are exhausted — the run carries on with the surviving
//! chunks. Application-level errors (`Err` returned by the chunk
//! closure) are *not* retried: they are deterministic analysis failures
//! and propagate immediately, smallest chunk index first.
//!
//! Completed chunk results are merged in ascending chunk order, so the
//! output of a supervised stage is bit-identical for every worker
//! thread count.

use crate::cancel::CancelToken;
#[cfg(feature = "chaos")]
use crate::chaos::FaultPlan;
use fsa_obs::Obs;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
#[cfg(feature = "chaos")]
use std::sync::Arc;
use std::time::Duration;

/// Retry discipline for panicked chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first panicking attempt (`0` = fail fast).
    pub max_retries: u32,
    /// Base backoff delay; attempt `k` waits `base · 2^k` plus jitter.
    pub base_delay: Duration,
    /// Upper bound on the exponential part of the backoff.
    pub max_delay: Duration,
    /// Seed of the deterministic jitter (same seed ⇒ same delays).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
            seed: 0xEC5,
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff before retry `attempt` (0-based) of
    /// `chunk` in `stage`: `min(base · 2^attempt, max)` plus a seeded
    /// jitter in `[0, base)`.
    #[must_use]
    pub fn backoff(&self, stage: &str, chunk: usize, attempt: u32) -> Duration {
        let base = self.base_delay.as_nanos() as u64;
        let exp = base
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
            .min(self.max_delay.as_nanos() as u64);
        let jitter = if base == 0 {
            0
        } else {
            splitmix(
                self.seed ^ fnv(stage.as_bytes()) ^ (chunk as u64) ^ (u64::from(attempt) << 32),
            ) % base
        };
        Duration::from_nanos(exp.saturating_add(jitter))
    }
}

/// One quarantined chunk: every attempt panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFailure {
    /// Stage label (e.g. `explore:build`, `fleet:stream`).
    pub stage: String,
    /// Chunk index within the stage.
    pub chunk: usize,
    /// Attempts made (1 + retries).
    pub attempts: u32,
    /// The panic payload of the last attempt, rendered.
    pub message: String,
}

impl fmt::Display for ChunkFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} chunk {} failed after {} attempt(s): {}",
            self.stage, self.chunk, self.attempts, self.message
        )
    }
}

/// Result of one supervised stage.
#[derive(Debug, Clone)]
pub struct Outcome<T> {
    /// `(chunk index, value)` for every completed chunk, ascending.
    pub results: Vec<(usize, T)>,
    /// Quarantined chunks (retries exhausted), ascending by index.
    pub failures: Vec<ChunkFailure>,
    /// `true` if the stage stopped early at a chunk boundary because
    /// the [`CancelToken`] tripped; chunks never started are neither in
    /// `results` nor in `failures`.
    pub cancelled: bool,
    /// Chunks the stage was asked to run.
    pub chunks_total: usize,
    /// Total panicking attempts that were retried.
    pub retries: u64,
}

impl<T> Outcome<T> {
    /// `true` when every chunk completed (nothing dropped, nothing
    /// cancelled) — the merged output then covers the whole stage.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.results.len() == self.chunks_total
    }

    /// The completed values in chunk order, discarding the indices.
    #[must_use]
    pub fn into_values(self) -> Vec<T> {
        self.results.into_iter().map(|(_, v)| v).collect()
    }
}

/// The most worker threads one stage may be asked for: every `--threads`
/// flag of the `fsa` CLI refuses a larger count as a usage error, before
/// any thread starts.
pub const MAX_THREADS: usize = 256;

/// Supervision *policy*: retry discipline, cancellation, and (under the
/// `chaos` feature) a deterministic fault plan. Thread counts are
/// passed per stage — the supervisor owns behaviour, not resources.
#[derive(Debug, Clone, Default)]
pub struct Supervisor {
    /// Retry discipline for panicked chunks.
    pub retry: RetryPolicy,
    /// Cooperative cancellation, checked at chunk boundaries.
    pub cancel: CancelToken,
    /// Observability handle. The default ([`Obs::disabled`]) records
    /// nothing and costs one branch per event; an enabled handle counts
    /// per-chunk attempts, retries, backoff delay (log2 histogram), and
    /// quarantine events.
    pub obs: Obs,
    #[cfg(feature = "chaos")]
    fault_plan: Option<Arc<FaultPlan>>,
}

impl Supervisor {
    /// A supervisor with the default retry policy and a token that
    /// never cancels.
    #[must_use]
    pub fn new() -> Self {
        Supervisor::default()
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces the cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Installs an observability handle (see [`Obs`]).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Installs a deterministic fault plan (chaos testing only).
    #[cfg(feature = "chaos")]
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Runs `chunks` units of `stage` over `threads` workers, each unit
    /// panic-isolated and retried per [`RetryPolicy`]. The calling thread
    /// is one of the workers, so `threads` workers spawn `threads - 1`
    /// threads.
    ///
    /// Chunk indices are handed out through a shared counter (work
    /// stealing), but results are merged in ascending chunk order, so
    /// the outcome does not depend on `threads`.
    ///
    /// # Errors
    ///
    /// The first (smallest chunk index) application-level `Err` returned
    /// by `f`; remaining workers stop at the next chunk boundary.
    pub fn run_chunks<T, E, F>(
        &self,
        stage: &str,
        threads: usize,
        chunks: usize,
        f: F,
    ) -> Result<Outcome<T>, E>
    where
        F: Fn(usize) -> Result<T, E> + Sync,
        T: Send,
        E: Send,
    {
        let threads = threads.max(1).min(chunks.max(1));
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);

        let worker = |local: &mut WorkerState<T, E>| loop {
            if abort.load(Ordering::SeqCst) {
                return;
            }
            if self.cancel.is_cancelled() {
                local.cancelled = true;
                return;
            }
            let chunk = next.fetch_add(1, Ordering::SeqCst);
            if chunk >= chunks {
                return;
            }
            match self.run_one(stage, chunk, &f, &mut local.retries) {
                ChunkRun::Done(v) => local.results.push((chunk, v)),
                ChunkRun::Failed(failure) => local.failures.push(failure),
                ChunkRun::Error(e) => {
                    local.errors.push((chunk, e));
                    abort.store(true, Ordering::SeqCst);
                    return;
                }
            }
        };

        let mut caller = WorkerState::default();
        let mut states: Vec<WorkerState<T, E>> = if threads <= 1 {
            worker(&mut caller);
            vec![caller]
        } else {
            // The caller is the first worker: it takes chunks at once,
            // while the other `threads - 1` start (a thread can take
            // longer to start than a short stage takes to run).
            std::thread::scope(|scope| {
                let helpers: Vec<_> = (1..threads)
                    .map(|_| {
                        let worker = &worker;
                        scope.spawn(move || {
                            let mut state = WorkerState::default();
                            worker(&mut state);
                            state
                        })
                    })
                    .collect();
                worker(&mut caller);
                std::iter::once(caller)
                    .chain(
                        helpers
                            .into_iter()
                            // Unreachable in practice: the worker loop
                            // catches chunk panics itself. Treat a
                            // harness-level panic as an empty worker.
                            .map(|h| h.join().unwrap_or_default()),
                    )
                    .collect()
            })
        };

        let mut errors: Vec<(usize, E)> = states
            .iter_mut()
            .flat_map(|s| std::mem::take(&mut s.errors))
            .collect();
        if !errors.is_empty() {
            errors.sort_by_key(|(chunk, _)| *chunk);
            return Err(errors.remove(0).1);
        }

        let mut results = Vec::with_capacity(chunks);
        let mut failures = Vec::new();
        let mut retries = 0u64;
        let mut cancelled = false;
        for state in states {
            results.extend(state.results);
            failures.extend(state.failures);
            retries += state.retries;
            cancelled |= state.cancelled;
        }
        results.sort_by_key(|(chunk, _)| *chunk);
        failures.sort_by_key(|failure| failure.chunk);
        if cancelled {
            self.obs.counter_add("supervisor.cancelled_stages", 1);
        }
        Ok(Outcome {
            results,
            failures,
            cancelled,
            chunks_total: chunks,
            retries,
        })
    }

    /// Per-chunk accounting: one `supervisor.chunks` tick plus the
    /// number of attempts the chunk consumed (1 when nothing panicked).
    fn record_chunk_done(&self, attempts: u32) {
        self.obs.counter_add("supervisor.chunks", 1);
        self.obs
            .counter_add("supervisor.attempts", u64::from(attempts));
    }

    /// One chunk: fault-plan hooks, `catch_unwind`, retry loop.
    fn run_one<T, E, F>(
        &self,
        stage: &str,
        chunk: usize,
        f: &F,
        retries: &mut u64,
    ) -> ChunkRun<T, E>
    where
        F: Fn(usize) -> Result<T, E>,
    {
        let mut attempt = 0u32;
        loop {
            let run = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "chaos")]
                if let Some(plan) = &self.fault_plan {
                    plan.before_attempt(stage, chunk, attempt);
                }
                f(chunk)
            }));
            match run {
                Ok(Ok(v)) => {
                    self.record_chunk_done(attempt + 1);
                    return ChunkRun::Done(v);
                }
                Ok(Err(e)) => {
                    self.record_chunk_done(attempt + 1);
                    return ChunkRun::Error(e);
                }
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    if attempt >= self.retry.max_retries {
                        self.record_chunk_done(attempt + 1);
                        self.obs.counter_add("supervisor.quarantined", 1);
                        return ChunkRun::Failed(ChunkFailure {
                            stage: stage.to_owned(),
                            chunk,
                            attempts: attempt + 1,
                            message,
                        });
                    }
                    let delay = self.retry.backoff(stage, chunk, attempt);
                    self.obs.counter_add("supervisor.retries", 1);
                    self.obs.record_duration("supervisor.backoff", delay);
                    std::thread::sleep(delay);
                    *retries += 1;
                    attempt += 1;
                }
            }
        }
    }
}

/// Per-worker accumulation; merged deterministically after the join.
struct WorkerState<T, E> {
    results: Vec<(usize, T)>,
    failures: Vec<ChunkFailure>,
    errors: Vec<(usize, E)>,
    retries: u64,
    cancelled: bool,
}

impl<T, E> Default for WorkerState<T, E> {
    fn default() -> Self {
        WorkerState {
            results: Vec::new(),
            failures: Vec::new(),
            errors: Vec::new(),
            retries: 0,
            cancelled: false,
        }
    }
}

enum ChunkRun<T, E> {
    Done(T),
    Failed(ChunkFailure),
    Error(E),
}

/// Renders a panic payload (the common `&str` / `String` cases).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// FNV-1a over bytes (stage-label hashing for jitter derivation).
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// splitmix64 finaliser (deterministic jitter).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(sup: &Supervisor, threads: usize, chunks: usize) -> Outcome<usize> {
        sup.run_chunks::<usize, (), _>("test:squares", threads, chunks, |i| Ok(i * i))
            .expect("no app errors")
    }

    /// `threads` workers are the caller and `threads - 1` spawned
    /// threads: no more than that many other threads run a chunk.
    #[test]
    fn the_caller_is_one_of_the_workers() {
        let caller = std::thread::current().id();
        let sup = Supervisor::new();
        for threads in [1usize, 2, 3] {
            let ran = std::sync::Mutex::new(std::collections::HashSet::new());
            sup.run_chunks::<(), (), _>("test:who", threads, 256, |_| {
                ran.lock()
                    .expect("no chunk panics")
                    .insert(std::thread::current().id());
                Ok(())
            })
            .expect("no app errors");
            let ran = ran.into_inner().expect("no chunk panics");
            let others = ran.iter().filter(|&&id| id != caller).count();
            assert!(
                others < threads,
                "{threads} workers, {others} other threads"
            );
        }
    }

    #[test]
    fn merge_is_in_chunk_order_for_every_thread_count() {
        let sup = Supervisor::new();
        let golden = squares(&sup, 1, 37);
        assert!(golden.is_complete());
        for threads in [2usize, 4, 8] {
            let out = squares(&sup, threads, 37);
            assert!(out.is_complete());
            assert_eq!(out.results, golden.results, "threads {threads}");
        }
        assert_eq!(
            golden.into_values(),
            (0..37).map(|i| i * i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_chunks_is_a_complete_empty_outcome() {
        let out = squares(&Supervisor::new(), 4, 0);
        assert!(out.is_complete());
        assert!(out.results.is_empty());
        assert!(!out.cancelled);
    }

    #[test]
    fn app_error_propagates_smallest_chunk_first() {
        let sup = Supervisor::new();
        for threads in [1usize, 4] {
            let err = sup
                .run_chunks::<usize, usize, _>("test:err", threads, 64, |i| {
                    if i % 7 == 3 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                })
                .unwrap_err();
            // Sequential: chunk 3 errors first. Parallel: some erroring
            // chunk surfaces; the smallest *observed* one is returned.
            assert_eq!(err % 7, 3, "threads {threads}");
            if threads == 1 {
                assert_eq!(err, 3);
            }
        }
    }

    #[test]
    fn panicking_chunk_is_quarantined_not_fatal() {
        let sup = Supervisor::new().with_retry(RetryPolicy {
            max_retries: 1,
            base_delay: Duration::from_micros(10),
            ..RetryPolicy::default()
        });
        for threads in [1usize, 4] {
            let out = sup
                .run_chunks::<usize, (), _>("test:panic", threads, 16, |i| {
                    assert!(i != 5, "chunk 5 always panics");
                    Ok(i)
                })
                .expect("panics are not app errors");
            assert!(!out.is_complete());
            assert_eq!(out.results.len(), 15, "threads {threads}");
            assert!(out.results.iter().all(|&(c, v)| c == v && c != 5));
            assert_eq!(out.failures.len(), 1);
            let failure = &out.failures[0];
            assert_eq!((failure.chunk, failure.attempts), (5, 2));
            assert!(failure.message.contains("chunk 5 always panics"));
            assert!(failure.to_string().contains("test:panic chunk 5"));
            assert_eq!(out.retries, 1);
        }
    }

    #[test]
    fn retry_heals_transient_panics() {
        use std::sync::Mutex;
        let attempts: Mutex<std::collections::HashMap<usize, u32>> = Mutex::new(Default::default());
        let sup = Supervisor::new().with_retry(RetryPolicy {
            max_retries: 2,
            base_delay: Duration::from_micros(10),
            ..RetryPolicy::default()
        });
        let out = sup
            .run_chunks::<usize, (), _>("test:transient", 1, 8, |i| {
                // A panicking attempt poisons the mutex; recovery is
                // exactly what the retry is for.
                let mut map = attempts
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let seen = map.entry(i).or_insert(0);
                *seen += 1;
                assert!(i != 3 || *seen > 2, "chunk 3 panics twice, then heals");
                Ok(i)
            })
            .unwrap();
        assert!(out.is_complete());
        assert_eq!(out.retries, 2);
        assert!(out.failures.is_empty());
    }

    #[test]
    fn cancellation_stops_at_chunk_boundaries() {
        let sup = Supervisor::new().with_cancel(CancelToken::countdown(5));
        let out = squares(&sup, 1, 100);
        assert!(out.cancelled);
        assert!(!out.is_complete());
        // Exactly 5 boundary checks passed before the trip.
        assert_eq!(out.results.len(), 5);
        assert_eq!(
            out.results,
            (0..5).map(|i| (i, i * i)).collect::<Vec<_>>(),
            "the completed prefix is the canonical prefix"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 0..6 {
            let a = p.backoff("stage", 7, attempt);
            let b = p.backoff("stage", 7, attempt);
            assert_eq!(a, b, "same inputs, same delay");
            assert!(a <= p.max_delay + p.base_delay);
        }
        assert_ne!(
            p.backoff("stage", 1, 0),
            p.backoff("stage", 2, 0),
            "jitter separates chunks"
        );
        let grow0 = p.backoff("s", 0, 0);
        let grow4 = p.backoff("s", 0, 4);
        assert!(grow4 > grow0, "exponential part grows");
    }

    #[test]
    fn observability_counts_attempts_retries_and_quarantines() {
        let obs = Obs::enabled();
        let sup = Supervisor::new()
            .with_retry(RetryPolicy {
                max_retries: 1,
                base_delay: Duration::from_micros(10),
                ..RetryPolicy::default()
            })
            .with_obs(obs.clone());
        let out = sup
            .run_chunks::<usize, (), _>("test:obs", 2, 8, |i| {
                assert!(i != 5, "chunk 5 always panics");
                Ok(i)
            })
            .expect("panics are not app errors");
        assert_eq!(out.failures.len(), 1);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("supervisor.chunks"), Some(8));
        // 7 clean chunks × 1 attempt + chunk 5 × 2 attempts.
        assert_eq!(snap.counter("supervisor.attempts"), Some(9));
        assert_eq!(snap.counter("supervisor.retries"), Some(1));
        assert_eq!(snap.counter("supervisor.quarantined"), Some(1));
        let hist = snap.histogram("supervisor.backoff").expect("one delay");
        assert_eq!(hist.count, 1);
        assert!(hist.min_ns >= 10_000, "backoff >= base delay");
    }

    #[test]
    fn observability_disabled_by_default_records_nothing() {
        let sup = Supervisor::new();
        assert!(!sup.obs.is_enabled());
        let out = squares(&sup, 2, 16);
        assert!(out.is_complete());
        assert!(sup.obs.snapshot().counters.is_empty());
    }
}
