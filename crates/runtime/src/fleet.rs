//! Driving monitor banks from simulator fleets.
//!
//! A *fleet* is a set of independent event streams, each produced by
//! one seeded [`apa::Simulator`] over the same APA (restarted
//! episode-by-episode until the stream's event quota is met — the
//! precedence monitors latch `SEEN`, so concatenating honest episodes
//! never fabricates violations). A stream's simulator keeps its firing
//! memo across its episodes; it belongs to the stream, not to a worker,
//! so what the memo holds never depends on the thread count. Streams
//! are sharded across `std::thread::scope` workers in contiguous
//! stream-id ranges and the per-stream results are merged in stream
//! order, so the violation report is **bit-identical for every thread
//! count** — the same discipline as the dependence grid and the
//! exploration engine.
//!
//! Fault injection ([`apa::Fault`]) mutates each stream after assembly
//! and before checking: dropped antecedents, spoofed consequents before
//! their cause, bounded reordering. Faults are deterministic trace
//! transforms, so attacked reports shard just as reproducibly as honest
//! ones.

use crate::bank::{BankRun, MonitorBank, VIOLATED};
use crate::error::RuntimeError;
use apa::sim::{Fault, Simulator};
use apa::Apa;
use fsa_exec::{ChunkFailure, Supervisor};
use fsa_obs::Obs;
use std::fmt;
use std::time::Duration;

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of independent event streams.
    pub streams: usize,
    /// Event quota per stream (episodes are concatenated until the
    /// quota is met or the model goes quiet).
    pub events_per_stream: usize,
    /// Base seed; stream `i`, episode `e` simulates with a splitmix of
    /// `(seed, i, e)`.
    pub seed: u64,
    /// Worker threads (`0`/`1` = sequential). Reports are bit-identical
    /// for every value.
    pub threads: usize,
    /// Optional fault/attack injected into every stream.
    pub fault: Option<Fault>,
    /// Longest counterexample prefix retained per violation (the tail
    /// ending at the violating event; longer prefixes are truncated).
    pub prefix_limit: usize,
    /// Observability handle. [`Obs::disabled`] (the default) records
    /// nothing and costs one branch per probe; an enabled handle gets
    /// the `fleet` root span, per-stream `fleet.simulate`/`fleet.check`
    /// spans + histograms (the per-shard split), the `fleet.merge`
    /// span, and the `fleet.*` counters mirrored from [`MonitorStats`].
    /// Supervised runs record their `supervisor.*` series through the
    /// [`Supervisor`]'s own handle; point both at the same registry for
    /// a unified trace.
    pub obs: Obs,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            streams: 8,
            events_per_stream: 1024,
            seed: 0xF5A,
            threads: 1,
            fault: None,
            prefix_limit: 64,
            obs: Obs::disabled(),
        }
    }
}

/// The first (lowest stream id, then earliest event) counterexample
/// observed for one monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Stream the violation occurred on.
    pub stream: usize,
    /// 0-based position of the violating event within the stream.
    pub event_index: u64,
    /// Event names up to and including the violating event (possibly
    /// truncated to the configured prefix limit).
    pub prefix: Vec<String>,
    /// Whether the prefix was truncated at the front.
    pub truncated: bool,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stream {} event {}: [{}{}]",
            self.stream,
            self.event_index,
            if self.truncated { "…, " } else { "" },
            self.prefix.join(", ")
        )
    }
}

/// The fleet-wide verdict for one monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorVerdict {
    /// The rendered requirement `auth(a, b, P)`.
    pub requirement: String,
    /// Number of streams on which the monitor tripped.
    pub violating_streams: usize,
    /// The first counterexample (see [`Counterexample`]); `None` if the
    /// monitor held everywhere.
    pub first: Option<Counterexample>,
}

impl MonitorVerdict {
    /// Returns `true` if the monitor held on every stream.
    pub fn holds(&self) -> bool {
        self.violating_streams == 0
    }
}

impl fmt::Display for MonitorVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.first {
            None => write!(f, "{}: holds on all streams", self.requirement),
            Some(ce) => write!(
                f,
                "{}: VIOLATED on {} stream(s); first at {}",
                self.requirement, self.violating_streams, ce
            ),
        }
    }
}

/// Throughput and shard statistics of one fleet run.
#[derive(Debug, Clone, Default)]
pub struct MonitorStats {
    /// Time to compile the bank (filled by [`monitor_apa`]; zero when
    /// the bank was compiled elsewhere).
    pub compile: Duration,
    /// Summed per-worker time spent simulating streams.
    pub simulate: Duration,
    /// Summed per-worker time spent in the fused check loop.
    pub check: Duration,
    /// Wall-clock time of the sharded run.
    pub wall: Duration,
    /// Total events checked across the fleet.
    pub events: u64,
    /// Events checked per wall-clock second.
    pub events_per_sec: f64,
    /// Events handled per worker shard (shard balance).
    pub shard_events: Vec<u64>,
    /// Worker threads used.
    pub threads: usize,
}

impl fmt::Display for MonitorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "monitor stats:")?;
        if !self.compile.is_zero() {
            writeln!(f, "  compile          {:>12?}", self.compile)?;
        }
        writeln!(f, "  simulate (sum)   {:>12?}", self.simulate)?;
        writeln!(f, "  check (sum)      {:>12?}", self.check)?;
        writeln!(f, "  wall             {:>12?}", self.wall)?;
        writeln!(f, "  events           {:>12}", self.events)?;
        writeln!(f, "  events/sec       {:>12.0}", self.events_per_sec)?;
        writeln!(f, "  threads          {:>12}", self.threads)?;
        let (min, max) = (
            self.shard_events.iter().min().copied().unwrap_or(0),
            self.shard_events.iter().max().copied().unwrap_or(0),
        );
        writeln!(f, "  shard balance    {:>12}", format!("{min}..{max} ev"))?;
        Ok(())
    }
}

impl MonitorStats {
    /// Reconstructs the stats from an observability
    /// [`Snapshot`](fsa_obs::Snapshot) of a single fleet run — the
    /// struct is a *view* over the snapshot: `compile`, `simulate`,
    /// `check` and `wall` come from the `fleet.compile` /
    /// `fleet.simulate` / `fleet.check` / `fleet` span totals,
    /// everything else from the mirrored `fleet.*` counters
    /// (`events_per_sec` is derived with the same formula the live
    /// path uses). Only meaningful when the registry observed exactly
    /// one run.
    ///
    /// # Errors
    ///
    /// [`crate::RuntimeError::CounterOutOfRange`] when a recorded `u64`
    /// counter does not fit this target's `usize` (fail closed instead
    /// of truncating on 32-bit targets).
    pub fn from_snapshot(snapshot: &fsa_obs::Snapshot) -> Result<MonitorStats, RuntimeError> {
        let wall = snapshot.span_total("fleet");
        let events = snapshot.counter("fleet.events").unwrap_or(0);
        let threads_raw = snapshot.counter("fleet.threads").unwrap_or(0);
        let threads =
            usize::try_from(threads_raw).map_err(|_| RuntimeError::CounterOutOfRange {
                name: "fleet.threads".to_owned(),
                value: threads_raw,
            })?;
        Ok(MonitorStats {
            compile: snapshot.span_total("fleet.compile"),
            simulate: snapshot.span_total("fleet.simulate"),
            check: snapshot.span_total("fleet.check"),
            wall,
            events,
            events_per_sec: events as f64 / wall.as_secs_f64().max(f64::EPSILON),
            shard_events: snapshot
                .counters
                .iter()
                .filter(|c| c.name.starts_with("fleet.shard."))
                .map(|c| c.value)
                .collect(),
            threads,
        })
    }

    /// Mirrors the scalar fields into the registry's counters so a
    /// snapshot self-describes (see [`MonitorStats::from_snapshot`]).
    /// Shard counters are zero-padded (`fleet.shard.0007.events`) so
    /// the registry's lexicographic order is the worker order. No-op
    /// when `obs` is disabled.
    fn mirror_counters(&self, obs: &Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.counter_add("fleet.events", self.events);
        obs.counter_add("fleet.threads", self.threads as u64);
        for (w, &ev) in self.shard_events.iter().enumerate() {
            obs.counter_add(&format!("fleet.shard.{w:04}.events"), ev);
        }
    }
}

/// The result of one fleet run: per-monitor verdicts (deterministic)
/// plus throughput statistics (timing-dependent).
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One verdict per compiled monitor, in bank order.
    pub verdicts: Vec<MonitorVerdict>,
    /// Streams the fleet was asked to check.
    pub streams: usize,
    /// Streams that actually completed. Equal to `streams` for
    /// unsupervised runs; under [`run_fleet_supervised`] a deadline or
    /// quarantined stream leaves this smaller, and the verdicts cover
    /// only the completed streams.
    pub streams_completed: usize,
    /// Total events checked (over completed streams).
    pub events: u64,
    /// Streams quarantined by the supervisor (every retry panicked).
    /// Empty for unsupervised runs.
    pub failures: Vec<ChunkFailure>,
    /// `true` if the run stopped early at a stream boundary because the
    /// supervisor's deadline / cancel token tripped.
    pub cancelled: bool,
    /// Throughput and shard statistics.
    pub stats: MonitorStats,
}

impl FleetReport {
    /// Number of monitors violated on at least one stream.
    pub fn violated(&self) -> usize {
        self.verdicts.iter().filter(|v| !v.holds()).count()
    }

    /// Returns `true` if every monitor held on every stream.
    pub fn is_clean(&self) -> bool {
        self.violated() == 0
    }

    /// Returns `true` when every requested stream completed — the
    /// verdicts then cover the whole fleet, and (for supervised runs)
    /// are bit-identical to an unsupervised run.
    pub fn is_complete(&self) -> bool {
        self.streams_completed == self.streams && !self.cancelled && self.failures.is_empty()
    }

    /// The deterministic part of the report, rendered — identical for
    /// every thread count (used by the determinism property tests and
    /// the CLI).
    pub fn render(&self) -> String {
        let mut out = String::new();
        use fmt::Write as _;
        let _ = writeln!(
            out,
            "{} monitor(s), {} stream(s), {} event(s): {} violated",
            self.verdicts.len(),
            self.streams,
            self.events,
            self.violated()
        );
        for v in &self.verdicts {
            let _ = writeln!(out, "  {v}");
        }
        if !self.is_complete() {
            let _ = writeln!(
                out,
                "  stream coverage {}/{} (partial{})",
                self.streams_completed,
                self.streams,
                if self.cancelled { ", cancelled" } else { "" }
            );
            for failure in &self.failures {
                let _ = writeln!(out, "  quarantined: {failure}");
            }
        }
        out
    }
}

/// One recorded violation: `(monitor, event_index, prefix, truncated)`.
type Violation = (usize, u64, Vec<String>, bool);

/// Per-stream intermediate result.
struct StreamResult {
    events: u64,
    /// One [`Violation`] per violated monitor.
    violations: Vec<Violation>,
}

/// Worker-local timing accumulator.
#[derive(Default, Clone)]
struct WorkerLog {
    simulate: Duration,
    check: Duration,
    events: u64,
}

/// The simulator seed of episode `episode` of stream `stream` in a fleet
/// with base seed `seed` (a splitmix of the three): the fleet's streams
/// are a function of this derivation alone.
///
/// fsabench's traced `monitor` pipeline keeps a copy of this function, so
/// that it simulates the very streams `fsa monitor` checks; a change here
/// must be made there too.
pub fn episode_seed(seed: u64, stream: u64, episode: u64) -> u64 {
    let mut z =
        seed ^ stream.wrapping_mul(0x9e3779b97f4a7c15) ^ episode.wrapping_mul(0xd1b54a32d192ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Runs one stream: simulate episodes, inject the fault, check.
///
/// `root` is the id of the fleet's root span, so per-stream spans on
/// worker threads parent correctly across threads. The [`WorkerLog`]
/// is filled from the *same* measurements the spans record, which is
/// what keeps [`MonitorStats`] identical whether or not observability
/// is enabled.
fn run_stream(
    apa: &Apa,
    bank: &MonitorBank,
    apa_to_bank: &[u32],
    cfg: &FleetConfig,
    stream: usize,
    root: Option<u64>,
    log: &mut WorkerLog,
) -> Result<StreamResult, RuntimeError> {
    // --- Simulate: assemble the event stream episode by episode. -----
    let span = cfg.obs.span_under("fleet.simulate", root);
    let mut events = simulate_stream(apa, apa_to_bank, cfg, stream)?;
    // --- Inject the fault (deterministic trace transform). -----------
    if let Some(fault) = &cfg.fault {
        let target = fault.action().map(|a| bank.event_symbol(a));
        fault.apply_stream(
            &mut events,
            |e| Some(e) == target,
            || target.unwrap_or_else(|| bank.other_symbol()),
        );
    }
    let simulated = span.finish();
    log.simulate += simulated;
    cfg.obs.record_duration("fleet.simulate", simulated);

    // --- Check: one fused sweep per event. ---------------------------
    let span = cfg.obs.span_under("fleet.check", root);
    let mut run = bank.start();
    bank.feed(&mut run, &events);
    let checked = span.finish();
    log.check += checked;
    cfg.obs.record_duration("fleet.check", checked);
    log.events += run.events;

    let violations = extract_violations(bank, &run, &events, cfg.prefix_limit)?;
    Ok(StreamResult {
        events: run.events,
        violations,
    })
}

/// Assembles stream `stream`'s honest event stream as bank symbols: one
/// simulator, restarted per episode, until the event quota is met or
/// the model is quiet from its initial state.
fn simulate_stream(
    apa: &Apa,
    apa_to_bank: &[u32],
    cfg: &FleetConfig,
    stream: usize,
) -> Result<Vec<u32>, RuntimeError> {
    let mut events: Vec<u32> = Vec::with_capacity(cfg.events_per_stream);
    let mut sim = Simulator::new(apa, episode_seed(cfg.seed, stream as u64, 0));
    let mut episode = 0u64;
    while events.len() < cfg.events_per_stream {
        if episode > 0 {
            sim.restart(episode_seed(cfg.seed, stream as u64, episode));
        }
        let steps = sim
            .run(cfg.events_per_stream - events.len())
            .map_err(|e| RuntimeError::Simulation(e.to_string()))?;
        if steps == 0 {
            break;
        }
        // Automaton names are interned first, so `label.automaton.index()`
        // *is* the elementary-automaton index.
        events.extend(sim.trace().iter().map(|l| apa_to_bank[l.automaton.index()]));
        episode += 1;
    }
    Ok(events)
}

/// Reads the violations off a finished [`BankRun`]: `(monitor,
/// event index, prefix, truncated)` for every monitor in `VIOLATED`.
///
/// # Errors
///
/// [`RuntimeError::MissingViolationPosition`] if a monitor latched
/// `VIOLATED` without a recorded position — an internal invariant
/// breach surfaced as an error rather than a panic, so one corrupted
/// stream degrades to a reportable failure instead of tearing down the
/// whole fleet.
fn extract_violations(
    bank: &MonitorBank,
    run: &BankRun,
    events: &[u32],
    prefix_limit: usize,
) -> Result<Vec<Violation>, RuntimeError> {
    let mut violations = Vec::new();
    for (m, &s) in run.states.iter().enumerate() {
        if s != VIOLATED {
            continue;
        }
        let idx =
            run.first_violation[m].ok_or(RuntimeError::MissingViolationPosition { monitor: m })?;
        let end = idx as usize + 1;
        let start = end.saturating_sub(prefix_limit.max(1));
        let prefix = events[start..end]
            .iter()
            .map(|&sym| bank.event_name(sym).to_owned())
            .collect();
        violations.push((m, idx, prefix, start > 0));
    }
    Ok(violations)
}

/// Checks a simulator fleet against a compiled bank.
///
/// Streams are sharded over `cfg.threads` scoped workers in contiguous
/// ranges; the merge walks streams in index order, so the verdict
/// vector (violation counts **and** first counterexamples) does not
/// depend on the thread count.
///
/// # Errors
///
/// * [`RuntimeError::NoStreams`] if `cfg.streams == 0`.
/// * [`RuntimeError::Simulation`] if an underlying APA step fails.
pub fn run_fleet(
    apa: &Apa,
    bank: &MonitorBank,
    cfg: &FleetConfig,
) -> Result<FleetReport, RuntimeError> {
    if cfg.streams == 0 {
        return Err(RuntimeError::NoStreams);
    }
    let run = cfg.obs.span("fleet");
    let root = Some(run.id()).filter(|&id| id != 0);
    // Automaton index → bank event symbol, computed once.
    let apa_to_bank: Vec<u32> = apa
        .automaton_names()
        .map(|n| bank.event_symbol(n))
        .collect();

    let threads = cfg.threads.clamp(1, cfg.streams);
    let chunk = cfg.streams.div_ceil(threads);
    let mut results: Vec<Option<Result<StreamResult, RuntimeError>>> = Vec::new();
    results.resize_with(cfg.streams, || None);
    let mut logs = vec![WorkerLog::default(); results.chunks(chunk).count()];

    if threads <= 1 {
        let log = &mut logs[0];
        for (i, slot) in results.iter_mut().enumerate() {
            *slot = Some(run_stream(apa, bank, &apa_to_bank, cfg, i, root, log));
        }
    } else {
        std::thread::scope(|scope| {
            for (w, (chunk_slots, log)) in
                results.chunks_mut(chunk).zip(logs.iter_mut()).enumerate()
            {
                let apa_to_bank = &apa_to_bank;
                scope.spawn(move || {
                    for (k, slot) in chunk_slots.iter_mut().enumerate() {
                        let i = w * chunk + k;
                        *slot = Some(run_stream(apa, bank, apa_to_bank, cfg, i, root, log));
                    }
                });
            }
        });
    }

    // Deterministic merge in stream order.
    let merge = cfg.obs.span("fleet.merge");
    let mut counts = vec![0usize; bank.len()];
    let mut firsts: Vec<Option<Counterexample>> = vec![None; bank.len()];
    let mut total_events = 0u64;
    for (i, slot) in results.into_iter().enumerate() {
        let sr = slot.ok_or(RuntimeError::StreamNotRun { stream: i })??;
        total_events += sr.events;
        for (m, idx, prefix, truncated) in sr.violations {
            counts[m] += 1;
            if firsts[m].is_none() {
                firsts[m] = Some(Counterexample {
                    stream: i,
                    event_index: idx,
                    prefix,
                    truncated,
                });
            }
        }
    }
    let verdicts = bank
        .monitors()
        .iter()
        .zip(counts)
        .zip(firsts)
        .map(|((meta, violating_streams), first)| MonitorVerdict {
            requirement: meta.requirement.to_string(),
            violating_streams,
            first,
        })
        .collect();
    drop(merge);
    let wall = run.finish();
    let stats = MonitorStats {
        compile: Duration::ZERO,
        simulate: logs.iter().map(|l| l.simulate).sum(),
        check: logs.iter().map(|l| l.check).sum(),
        wall,
        events: total_events,
        events_per_sec: total_events as f64 / wall.as_secs_f64().max(f64::EPSILON),
        shard_events: logs.iter().map(|l| l.events).collect(),
        threads,
    };
    stats.mirror_counters(&cfg.obs);
    Ok(FleetReport {
        verdicts,
        streams: cfg.streams,
        streams_completed: cfg.streams,
        events: total_events,
        failures: Vec::new(),
        cancelled: false,
        stats,
    })
}

/// Like [`run_fleet`], executed under a [`Supervisor`]: each stream is
/// one panic-isolated, retried chunk of the `fleet:stream` stage.
///
/// * A stream that panics on every retry is quarantined as a
///   [`ChunkFailure`] in [`FleetReport::failures`] — the fleet carries
///   on with the surviving streams.
/// * If the supervisor's [`fsa_exec::CancelToken`] (e.g. a deadline)
///   trips, the run stops at the next stream boundary and reports the
///   completed prefix, with [`FleetReport::streams_completed`] < the
///   requested count and `cancelled = true`.
/// * When nothing was dropped, the report renders **bit-identically**
///   to [`run_fleet`] for every thread count: verdicts are merged in
///   ascending stream order regardless of which worker ran what.
///
/// # Errors
///
/// * [`RuntimeError::NoStreams`] if `cfg.streams == 0`.
/// * [`RuntimeError::Simulation`] if an underlying APA step fails
///   (application errors are deterministic and are not retried).
pub fn run_fleet_supervised(
    apa: &Apa,
    bank: &MonitorBank,
    cfg: &FleetConfig,
    supervisor: &Supervisor,
) -> Result<FleetReport, RuntimeError> {
    if cfg.streams == 0 {
        return Err(RuntimeError::NoStreams);
    }
    let run = cfg.obs.span("fleet");
    let root = Some(run.id()).filter(|&id| id != 0);
    let apa_to_bank: Vec<u32> = apa
        .automaton_names()
        .map(|n| bank.event_symbol(n))
        .collect();

    let threads = cfg.threads.clamp(1, cfg.streams);
    let outcome = supervisor.run_chunks::<(StreamResult, WorkerLog), RuntimeError, _>(
        "fleet:stream",
        threads,
        cfg.streams,
        |i| {
            let mut log = WorkerLog::default();
            let sr = run_stream(apa, bank, &apa_to_bank, cfg, i, root, &mut log)?;
            Ok((sr, log))
        },
    )?;

    // Deterministic merge in stream order over the completed streams
    // (outcome.results is sorted ascending by chunk = stream index).
    let merge = cfg.obs.span("fleet.merge");
    let mut counts = vec![0usize; bank.len()];
    let mut firsts: Vec<Option<Counterexample>> = vec![None; bank.len()];
    let mut total_events = 0u64;
    let mut logs = Vec::with_capacity(outcome.results.len());
    let streams_completed = outcome.results.len();
    for (i, (sr, log)) in outcome.results {
        total_events += sr.events;
        logs.push(log);
        for (m, idx, prefix, truncated) in sr.violations {
            counts[m] += 1;
            if firsts[m].is_none() {
                firsts[m] = Some(Counterexample {
                    stream: i,
                    event_index: idx,
                    prefix,
                    truncated,
                });
            }
        }
    }
    let verdicts = bank
        .monitors()
        .iter()
        .zip(counts)
        .zip(firsts)
        .map(|((meta, violating_streams), first)| MonitorVerdict {
            requirement: meta.requirement.to_string(),
            violating_streams,
            first,
        })
        .collect();
    drop(merge);
    let wall = run.finish();
    let stats = MonitorStats {
        compile: Duration::ZERO,
        simulate: logs.iter().map(|l| l.simulate).sum(),
        check: logs.iter().map(|l| l.check).sum(),
        wall,
        events: total_events,
        events_per_sec: total_events as f64 / wall.as_secs_f64().max(f64::EPSILON),
        shard_events: logs.iter().map(|l| l.events).collect(),
        threads,
    };
    stats.mirror_counters(&cfg.obs);
    Ok(FleetReport {
        verdicts,
        streams: cfg.streams,
        streams_completed,
        events: total_events,
        failures: outcome.failures,
        cancelled: outcome.cancelled,
        stats,
    })
}

/// One-call pipeline: compile the bank for `apa` from `set`, run the
/// fleet, and account the compile time in the report's stats.
///
/// # Errors
///
/// Propagates [`MonitorBank::compile`] and [`run_fleet`] errors.
pub fn monitor_apa(
    apa: &Apa,
    set: &fsa_core::requirements::RequirementSet,
    cfg: &FleetConfig,
) -> Result<(MonitorBank, FleetReport), RuntimeError> {
    let span = cfg.obs.span("fleet.compile");
    let bank = MonitorBank::for_apa(set, apa)?;
    let compile = span.finish();
    let mut report = run_fleet(apa, &bank, cfg)?;
    report.stats.compile = compile;
    Ok((bank, report))
}

/// Like [`monitor_apa`], but driving the fleet under a [`Supervisor`]
/// (see [`run_fleet_supervised`]).
///
/// # Errors
///
/// Propagates [`MonitorBank::compile`] and [`run_fleet_supervised`]
/// errors.
pub fn monitor_apa_supervised(
    apa: &Apa,
    set: &fsa_core::requirements::RequirementSet,
    cfg: &FleetConfig,
    supervisor: &Supervisor,
) -> Result<(MonitorBank, FleetReport), RuntimeError> {
    let span = cfg.obs.span("fleet.compile");
    let bank = MonitorBank::for_apa(set, apa)?;
    let compile = span.finish();
    let mut report = run_fleet_supervised(apa, &bank, cfg, supervisor)?;
    report.stats.compile = compile;
    Ok((bank, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apa::rule;
    use apa::{ApaBuilder, Value};
    use fsa_core::requirements::{AuthRequirement, RequirementSet};
    use fsa_core::{Action, Agent};

    /// first moves tokens c0→c1, second c1→c2: `second` cannot happen
    /// before `first`.
    fn pipeline_apa() -> Apa {
        let mut b = ApaBuilder::new();
        let c0 = b.component("c0", [Value::atom("x"), Value::atom("y")]);
        let c1 = b.component("c1", []);
        let c2 = b.component("c2", []);
        b.automaton("first", [c0, c1], rule::move_any(0, 1));
        b.automaton("second", [c1, c2], rule::move_any(0, 1));
        b.build().unwrap()
    }

    fn reqs(pairs: &[(&str, &str)]) -> RequirementSet {
        pairs
            .iter()
            .map(|(a, b)| AuthRequirement::new(Action::parse(a), Action::parse(b), Agent::new("P")))
            .collect()
    }

    #[test]
    fn honest_fleet_is_clean() {
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        let (_, report) = monitor_apa(&apa, &set, &FleetConfig::default()).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.events > 0);
        assert_eq!(report.streams, 8);
    }

    #[test]
    fn dropped_antecedent_trips_exactly_that_monitor() {
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        let cfg = FleetConfig {
            fault: Some(Fault::Drop {
                action: "first".into(),
            }),
            ..FleetConfig::default()
        };
        let (_, report) = monitor_apa(&apa, &set, &cfg).unwrap();
        assert_eq!(report.violated(), 1);
        let v = &report.verdicts[0];
        assert_eq!(v.violating_streams, report.streams);
        let ce = v.first.as_ref().unwrap();
        assert_eq!(ce.stream, 0);
        assert_eq!(ce.prefix.last().map(String::as_str), Some("second"));
        assert!(!ce.prefix.contains(&"first".to_owned()));
    }

    #[test]
    fn spoofed_consequent_trips_at_event_zero() {
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        let cfg = FleetConfig {
            fault: Some(Fault::Spoof {
                action: "second".into(),
            }),
            ..FleetConfig::default()
        };
        let (_, report) = monitor_apa(&apa, &set, &cfg).unwrap();
        let ce = report.verdicts[0].first.as_ref().unwrap();
        assert_eq!((ce.stream, ce.event_index), (0, 0));
        assert_eq!(ce.prefix, vec!["second".to_owned()]);
        assert!(!ce.truncated);
    }

    #[test]
    fn reports_bit_identical_across_thread_counts() {
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        for fault in [
            None,
            Some(Fault::Drop {
                action: "first".into(),
            }),
            Some(Fault::Reorder { window: 3 }),
        ] {
            let mut renders = Vec::new();
            for threads in [1usize, 2, 4, 8] {
                let cfg = FleetConfig {
                    streams: 13,
                    events_per_stream: 200,
                    threads,
                    fault: fault.clone(),
                    ..FleetConfig::default()
                };
                let (_, report) = monitor_apa(&apa, &set, &cfg).unwrap();
                renders.push(report.render());
            }
            assert!(
                renders.windows(2).all(|w| w[0] == w[1]),
                "fault {fault:?}: {renders:?}"
            );
        }
    }

    /// FNV-1a-64 over the little-endian bytes of the symbols.
    fn fnv1a64(symbols: impl IntoIterator<Item = u32>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in symbols.into_iter().flat_map(u32::to_le_bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Pins the streams of the benchmark's `monitor` workload (`fsa
    /// monitor --scenario six --streams 8 --events 16384 --seed 1`): the
    /// 8 bank-symbol streams, concatenated in stream order, hash to the
    /// digest the fleet produced when it built one simulator per
    /// episode. A change to the simulator's walk, the episode seeding or
    /// the bank's symbol numbering moves it.
    #[test]
    fn monitor_workload_streams_are_pinned() {
        use fsa_core::assisted::{elicit_from_graph, DependenceMethod};
        use vanet::apa_model::{n_pair_apa, stakeholder_of};
        let apa = n_pair_apa(3, vanet::semantics::ApaSemantics::PAPER).unwrap();
        let graph = apa.reachability(&apa::ReachOptions::default()).unwrap();
        let set = elicit_from_graph(&graph, DependenceMethod::Precedence, stakeholder_of);
        let bank = MonitorBank::for_apa(&set.requirements, &apa).unwrap();
        let apa_to_bank: Vec<u32> = apa
            .automaton_names()
            .map(|n| bank.event_symbol(n))
            .collect();
        let cfg = FleetConfig {
            streams: 8,
            events_per_stream: 16384usize.div_ceil(8),
            seed: 1,
            ..FleetConfig::default()
        };
        let mut all = Vec::new();
        for stream in 0..cfg.streams {
            let events = simulate_stream(&apa, &apa_to_bank, &cfg, stream).unwrap();
            assert_eq!(events.len(), cfg.events_per_stream, "stream {stream}");
            all.extend(events);
        }
        assert_eq!(fnv1a64(all), 0x31cb_526a_694a_2248);
    }

    #[test]
    fn zero_streams_is_an_error() {
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        let cfg = FleetConfig {
            streams: 0,
            ..FleetConfig::default()
        };
        assert_eq!(
            monitor_apa(&apa, &set, &cfg).unwrap_err(),
            RuntimeError::NoStreams
        );
    }

    #[test]
    fn prefix_limit_truncates_counterexamples() {
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        let cfg = FleetConfig {
            streams: 1,
            events_per_stream: 40,
            prefix_limit: 2,
            fault: Some(Fault::Drop {
                action: "first".into(),
            }),
            ..FleetConfig::default()
        };
        let (_, report) = monitor_apa(&apa, &set, &cfg).unwrap();
        let ce = report.verdicts[0].first.as_ref().unwrap();
        assert!(ce.prefix.len() <= 2);
        if ce.event_index >= 2 {
            assert!(ce.truncated);
        }
    }

    #[test]
    fn violated_monitor_without_position_is_an_error_not_a_panic() {
        // Regression for the old `expect("violated monitors have a
        // position")`: a doctored BankRun (VIOLATED latch, no recorded
        // position) must surface as a RuntimeError.
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        let bank = MonitorBank::for_apa(&set, &apa).unwrap();
        let mut run = bank.start();
        run.states[0] = VIOLATED;
        run.first_violation[0] = None;
        let err = extract_violations(&bank, &run, &[], 8).unwrap_err();
        assert_eq!(err, RuntimeError::MissingViolationPosition { monitor: 0 });
        assert!(err.to_string().contains("monitor 0"));
    }

    #[test]
    fn extract_violations_reads_positions_when_present() {
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        let bank = MonitorBank::for_apa(&set, &apa).unwrap();
        let mut run = bank.start();
        run.states[0] = VIOLATED;
        run.first_violation[0] = Some(1);
        let events = vec![bank.event_symbol("second"), bank.event_symbol("second")];
        let vs = extract_violations(&bank, &run, &events, 8).unwrap();
        assert_eq!(vs.len(), 1);
        let (m, idx, ref prefix, truncated) = vs[0];
        assert_eq!((m, idx, truncated), (0, 1, false));
        assert_eq!(prefix, &vec!["second".to_owned(); 2]);
    }

    #[test]
    fn supervised_fleet_matches_legacy_bit_identically() {
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        for fault in [
            None,
            Some(Fault::Drop {
                action: "first".into(),
            }),
        ] {
            for threads in [1usize, 4] {
                let cfg = FleetConfig {
                    streams: 13,
                    events_per_stream: 200,
                    threads,
                    fault: fault.clone(),
                    ..FleetConfig::default()
                };
                let (_, legacy) = monitor_apa(&apa, &set, &cfg).unwrap();
                let (_, sup) =
                    monitor_apa_supervised(&apa, &set, &cfg, &Supervisor::new()).unwrap();
                assert!(sup.is_complete());
                assert_eq!(
                    legacy.render(),
                    sup.render(),
                    "fault {fault:?} threads {threads}"
                );
                assert_eq!(sup.streams_completed, 13);
            }
        }
    }

    #[test]
    fn deadline_degrades_fleet_to_partial_with_coverage() {
        use fsa_exec::CancelToken;
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        let cfg = FleetConfig {
            streams: 8,
            events_per_stream: 64,
            ..FleetConfig::default()
        };
        // Countdown token: exactly 3 stream boundaries pass the gate.
        let sup = Supervisor::new().with_cancel(CancelToken::countdown(3));
        let (_, report) = monitor_apa_supervised(&apa, &set, &cfg, &sup).unwrap();
        assert!(report.cancelled);
        assert!(!report.is_complete());
        assert_eq!(report.streams_completed, 3);
        assert_eq!(report.streams, 8);
        let rendered = report.render();
        assert!(rendered.contains("stream coverage 3/8"), "{rendered}");
        assert!(rendered.contains("cancelled"), "{rendered}");
        // An already-expired wall-clock deadline completes nothing.
        let sup =
            Supervisor::new().with_cancel(CancelToken::with_deadline(std::time::Duration::ZERO));
        let (_, report) = monitor_apa_supervised(&apa, &set, &cfg, &sup).unwrap();
        assert!(report.cancelled);
        assert_eq!(report.streams_completed, 0);
        assert_eq!(report.events, 0);
    }

    #[test]
    fn supervised_partial_prefix_is_the_canonical_prefix() {
        // The completed streams of a cancelled run are exactly streams
        // 0..k and their verdict contributions match a full run's.
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        let cfg = FleetConfig {
            streams: 8,
            events_per_stream: 100,
            fault: Some(Fault::Drop {
                action: "first".into(),
            }),
            ..FleetConfig::default()
        };
        use fsa_exec::CancelToken;
        let sup = Supervisor::new().with_cancel(CancelToken::countdown(4));
        let (_, partial) = monitor_apa_supervised(&apa, &set, &cfg, &sup).unwrap();
        assert_eq!(partial.streams_completed, 4);
        let (_, full) = monitor_apa(&apa, &set, &cfg).unwrap();
        // Dropped antecedent violates on every stream, so the partial
        // run sees exactly 4 violating streams and the same first
        // counterexample (stream 0).
        assert_eq!(partial.verdicts[0].violating_streams, 4);
        assert_eq!(full.verdicts[0].violating_streams, 8);
        assert_eq!(partial.verdicts[0].first, full.verdicts[0].first);
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn healed_stream_panics_leave_the_report_bit_identical() {
        use fsa_exec::{FaultPlan, RetryPolicy};
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        let cfg = FleetConfig {
            streams: 8,
            events_per_stream: 100,
            threads: 4,
            ..FleetConfig::default()
        };
        let (_, golden) = monitor_apa(&apa, &set, &cfg).unwrap();
        let sup = Supervisor::new()
            .with_retry(RetryPolicy {
                max_retries: 2,
                base_delay: Duration::from_micros(10),
                ..RetryPolicy::default()
            })
            .with_fault_plan(FaultPlan::new().panic_on("fleet:stream", 5, 2));
        let (_, healed) = monitor_apa_supervised(&apa, &set, &cfg, &sup).unwrap();
        assert!(healed.is_complete());
        assert_eq!(healed.render(), golden.render());
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn exhausted_retries_quarantine_one_stream_only() {
        use fsa_exec::{FaultPlan, RetryPolicy};
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        let cfg = FleetConfig {
            streams: 8,
            events_per_stream: 100,
            ..FleetConfig::default()
        };
        let sup = Supervisor::new()
            .with_retry(RetryPolicy {
                max_retries: 1,
                base_delay: Duration::from_micros(10),
                ..RetryPolicy::default()
            })
            .with_fault_plan(FaultPlan::new().panic_on("fleet:stream", 2, u32::MAX));
        let (_, report) = monitor_apa_supervised(&apa, &set, &cfg, &sup).unwrap();
        assert_eq!(report.streams_completed, 7);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].chunk, 2);
        assert!(!report.is_complete());
        assert!(
            report.render().contains("quarantined"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn stats_are_populated() {
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        let cfg = FleetConfig {
            threads: 2,
            ..FleetConfig::default()
        };
        let (_, report) = monitor_apa(&apa, &set, &cfg).unwrap();
        let s = &report.stats;
        assert!(s.events > 0);
        assert!(s.events_per_sec > 0.0);
        assert_eq!(s.threads, 2);
        assert_eq!(s.shard_events.iter().sum::<u64>(), s.events);
        let rendered = s.to_string();
        assert!(rendered.contains("events/sec"));
        assert!(rendered.contains("shard balance"));
    }

    #[test]
    fn observed_fleet_matches_unobserved_and_stats_are_a_snapshot_view() {
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        let plain_cfg = FleetConfig {
            threads: 2,
            ..FleetConfig::default()
        };
        let (_, plain) = monitor_apa(&apa, &set, &plain_cfg).unwrap();

        let obs = Obs::enabled();
        let cfg = FleetConfig {
            threads: 2,
            obs: obs.clone(),
            ..FleetConfig::default()
        };
        let (_, observed) = monitor_apa(&apa, &set, &cfg).unwrap();

        // Observability never changes the deterministic report.
        assert_eq!(observed.render(), plain.render());

        // The stats struct is a thin view over the snapshot.
        let snap = obs.snapshot();
        let view = MonitorStats::from_snapshot(&snap).unwrap();
        assert_eq!(format!("{view}"), format!("{}", observed.stats));
        assert_eq!(view.shard_events, observed.stats.shard_events);

        // Span inventory: one root, one compile, one merge, one
        // simulate + check pair per stream.
        assert_eq!(snap.span_count("fleet"), 1);
        assert_eq!(snap.span_count("fleet.compile"), 1);
        assert_eq!(snap.span_count("fleet.merge"), 1);
        assert_eq!(snap.span_count("fleet.simulate"), cfg.streams);
        assert_eq!(snap.span_count("fleet.check"), cfg.streams);
        assert_eq!(snap.counter("fleet.events"), Some(observed.events));
        assert_eq!(snap.counter("fleet.threads"), Some(2));
        let h = snap.histogram("fleet.check").unwrap();
        assert_eq!(h.count, cfg.streams as u64);

        // Worker-thread spans parent under the fleet root even though
        // they were recorded on other threads.
        let root_id = snap.spans.iter().find(|s| s.name == "fleet").unwrap().id;
        assert!(snap
            .spans
            .iter()
            .filter(|s| s.name == "fleet.simulate" || s.name == "fleet.check")
            .all(|s| s.parent == Some(root_id)));
    }

    #[test]
    fn observed_supervised_fleet_matches_unobserved() {
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        let plain_cfg = FleetConfig {
            threads: 2,
            ..FleetConfig::default()
        };
        let (_, plain) = monitor_apa(&apa, &set, &plain_cfg).unwrap();

        let obs = Obs::enabled();
        let cfg = FleetConfig {
            threads: 2,
            obs: obs.clone(),
            ..FleetConfig::default()
        };
        // Same registry for the supervisor's own series: one trace.
        let sup = Supervisor::new().with_obs(obs.clone());
        let (_, observed) = monitor_apa_supervised(&apa, &set, &cfg, &sup).unwrap();
        assert!(observed.is_complete());
        assert_eq!(observed.render(), plain.render());

        let snap = obs.snapshot();
        let view = MonitorStats::from_snapshot(&snap).unwrap();
        assert_eq!(format!("{view}"), format!("{}", observed.stats));
        assert_eq!(snap.span_count("fleet.simulate"), cfg.streams);
        // One supervised chunk per stream, all first-try successes.
        assert_eq!(snap.counter("supervisor.chunks"), Some(cfg.streams as u64));
        assert_eq!(
            snap.counter("supervisor.attempts"),
            Some(cfg.streams as u64)
        );
    }
}
