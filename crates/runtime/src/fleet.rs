//! Driving monitor banks from simulator fleets.
//!
//! A *fleet* is a set of independent event streams over the same APA,
//! each a concatenation of seeded [`apa::Simulator`] episodes (until the
//! stream's event quota is met — the precedence monitors latch `SEEN`,
//! so concatenating honest episodes never fabricates violations). The
//! simulator walks the product of the APA's *parts* (see
//! [`apa::Simulator::product`]): a scenario of independent fragments is
//! simulated on their small state graphs, not on the global one their
//! product spans, and walks exactly as the global APA does. Each worker
//! keeps one simulator and restarts it for every episode of every stream
//! it takes, so its lazily built part graphs and firing memos serve all
//! of them. What those graphs hold depends on which streams the worker
//! ran, but an episode's walk is a function of its seed alone:
//! [`apa::Simulator::restart`] walks exactly as a fresh simulator. Every
//! stream is one chunk of a [`Supervisor`]'s `fleet:stream` stage
//! (panic-isolated, retried, cancellable at stream boundaries), and the
//! per-stream results are merged in stream order, so the violation
//! report is **bit-identical for every thread count** — the same
//! discipline as the dependence grid and the exploration engine.
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
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// The most events one stream may hold: 2^28 `u32` events, a 1 GiB
/// buffer. A stream's events are reserved up front, so a larger quota
/// is refused before anything is allocated.
pub const MAX_EVENTS_PER_STREAM: usize = 1 << 28;

/// The most streams one fleet may run: 2^16. The fleet keeps per-stream
/// state for every stream, so a larger count is refused before anything
/// is allocated.
pub const MAX_STREAMS: usize = 1 << 16;

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of independent event streams, at most [`MAX_STREAMS`].
    pub streams: usize,
    /// Event quota per stream (episodes are concatenated until the
    /// quota is met or the model goes quiet), at most
    /// [`MAX_EVENTS_PER_STREAM`]. The fleet checks up to
    /// `streams × events_per_stream` events: `fsa monitor --events N`
    /// sets the quota to ⌈N / streams⌉, so it checks N rounded up to a
    /// multiple of the stream count.
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
    /// spans + histograms, the `fleet.merge` span, and the `fleet.*`
    /// counters mirrored from [`MonitorStats`]. The [`Supervisor`]'s own
    /// handle records its `supervisor.*` series; point both at the same
    /// registry for a unified trace.
    pub obs: Obs,
}

impl FleetConfig {
    /// Checks the fleet's shape, before a fleet run allocates anything.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::NoStreams`] if `streams` is zero.
    /// * [`RuntimeError::TooManyStreams`] if `streams` exceeds
    ///   [`MAX_STREAMS`].
    /// * [`RuntimeError::StreamTooLong`] if `events_per_stream` exceeds
    ///   [`MAX_EVENTS_PER_STREAM`].
    pub fn validate(&self) -> Result<(), RuntimeError> {
        if self.streams == 0 {
            return Err(RuntimeError::NoStreams);
        }
        if self.streams > MAX_STREAMS {
            return Err(RuntimeError::TooManyStreams {
                streams: self.streams,
                limit: MAX_STREAMS,
            });
        }
        if self.events_per_stream > MAX_EVENTS_PER_STREAM {
            return Err(RuntimeError::StreamTooLong {
                events: self.events_per_stream,
                limit: MAX_EVENTS_PER_STREAM,
            });
        }
        Ok(())
    }
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
    /// Time to compile the bank (filled by [`monitor_apa_supervised`];
    /// zero when the bank was compiled elsewhere).
    pub compile: Duration,
    /// Summed per-stream time spent simulating.
    pub simulate: Duration,
    /// Summed per-stream time spent in the fused check loop.
    pub check: Duration,
    /// Wall-clock time of the fleet run.
    pub wall: Duration,
    /// Total events checked across the fleet.
    pub events: u64,
    /// Events checked per wall-clock second.
    pub events_per_sec: f64,
    /// Events checked per completed stream, in stream order (the
    /// `shard balance` line reports their range).
    pub shard_events: Vec<u64>,
    /// Worker threads used.
    pub threads: usize,
    /// Simulator part states expanded into their successor edges, summed
    /// over the completed streams. A worker's simulator expands each
    /// state of each part once for all the streams it runs, so above one
    /// thread the sum depends on which worker took which stream, and the
    /// `Display` text leaves it out.
    pub states_expanded: u64,
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
    /// Mirrors the scalar fields into the registry's counters so a
    /// snapshot self-describes; the durations are already there as the
    /// `fleet` / `fleet.compile` / `fleet.simulate` / `fleet.check`
    /// span totals.
    /// Per-stream counters are zero-padded (`fleet.shard.0007.events`)
    /// so the registry's lexicographic order is the stream order. No-op
    /// when `obs` is disabled.
    fn mirror_counters(&self, obs: &Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.counter_add("fleet.events", self.events);
        obs.counter_add("fleet.threads", self.threads as u64);
        obs.counter_add("fleet.states_expanded", self.states_expanded);
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
    /// Streams that actually completed. A deadline or a quarantined
    /// stream leaves this smaller than `streams`, and the verdicts then
    /// cover only the completed streams.
    pub streams_completed: usize,
    /// Total events checked (over completed streams).
    pub events: u64,
    /// Streams quarantined by the supervisor (every retry panicked).
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
    /// verdicts then cover the whole fleet.
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
    simulate: Duration,
    check: Duration,
    /// States the stream's simulator expanded while running it.
    states_expanded: u64,
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

/// Runs one stream on `sim`: simulate episodes, inject the fault, check.
///
/// `root` is the id of the fleet's root span, so per-stream spans on
/// worker threads parent correctly across threads. The result's timings
/// are the *same* measurements the spans record, which is what keeps
/// [`MonitorStats`] identical whether or not observability is enabled.
fn run_stream(
    sim: &mut Simulator<'_>,
    bank: &MonitorBank,
    apa_to_bank: &[u32],
    cfg: &FleetConfig,
    stream: usize,
    root: Option<u64>,
) -> Result<StreamResult, RuntimeError> {
    // --- Simulate: assemble the event stream episode by episode. -----
    let span = cfg.obs.span_under("fleet.simulate", root);
    let expanded = sim.states_expanded();
    let mut events = simulate_stream(sim, apa_to_bank, cfg, stream)?;
    let states_expanded = (sim.states_expanded() - expanded) as u64;
    // --- Inject the fault (deterministic trace transform). -----------
    if let Some(fault) = &cfg.fault {
        let target = fault.action().map(|a| bank.event_symbol(a));
        fault.apply_stream(
            &mut events,
            |e| Some(e) == target,
            || target.unwrap_or_else(|| bank.other_symbol()),
        );
    }
    let simulate = span.finish();
    cfg.obs.record_duration("fleet.simulate", simulate);

    // --- Check: one fused sweep per event. ---------------------------
    let span = cfg.obs.span_under("fleet.check", root);
    let mut run = bank.start();
    bank.feed(&mut run, &events);
    let check = span.finish();
    cfg.obs.record_duration("fleet.check", check);

    let violations = extract_violations(bank, &run, &events, cfg.prefix_limit)?;
    Ok(StreamResult {
        events: run.events,
        violations,
        simulate,
        check,
        states_expanded,
    })
}

/// Assembles stream `stream`'s honest event stream as bank symbols on
/// `sim`, restarted per episode, until the event quota is met or the
/// model is quiet from its initial state. Each episode walks as a fresh
/// simulator would, so the stream does not depend on what `sim` ran
/// before.
fn simulate_stream(
    sim: &mut Simulator<'_>,
    apa_to_bank: &[u32],
    cfg: &FleetConfig,
    stream: usize,
) -> Result<Vec<u32>, RuntimeError> {
    let mut events: Vec<u32> = Vec::with_capacity(cfg.events_per_stream);
    let mut episode = 0u64;
    while events.len() < cfg.events_per_stream {
        sim.restart(episode_seed(cfg.seed, stream as u64, episode));
        let steps = sim
            .run(cfg.events_per_stream - events.len())
            .map_err(simulation)?;
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

/// A simulator error as the fleet reports it.
fn simulation(e: apa::ApaError) -> RuntimeError {
    RuntimeError::Simulation(e.to_string())
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

/// [`run_fleet_supervised`] under the default [`Supervisor`], with the
/// APA as its own only part.
///
/// # Errors
///
/// See [`run_fleet_supervised`].
pub fn run_fleet(
    apa: &Apa,
    bank: &MonitorBank,
    cfg: &FleetConfig,
) -> Result<FleetReport, RuntimeError> {
    run_fleet_supervised(
        apa,
        std::slice::from_ref(apa),
        bank,
        cfg,
        &Supervisor::new(),
    )
}

/// Checks a simulator fleet against a compiled bank under a
/// [`Supervisor`]: each stream is one panic-isolated, retried chunk of
/// the `fleet:stream` stage, run on `cfg.threads` workers. The
/// simulators walk the product of `parts` (see
/// [`apa::Simulator::product`]); `std::slice::from_ref(apa)` walks the
/// APA itself. The parts change no report, only how much state the
/// simulators expand.
///
/// * A stream that panics on every retry is quarantined as a
///   [`ChunkFailure`] in [`FleetReport::failures`] — the fleet carries
///   on with the surviving streams.
/// * If the supervisor's [`fsa_exec::CancelToken`] (e.g. a deadline)
///   trips, the run stops at the next stream boundary and reports the
///   completed prefix, with [`FleetReport::streams_completed`] < the
///   requested count and `cancelled = true`.
/// * The merge walks the completed streams in index order, so the
///   verdict vector (violation counts **and** first counterexamples)
///   does not depend on the thread count.
///
/// # Errors
///
/// * The [`FleetConfig::validate`] errors.
/// * [`RuntimeError::Simulation`] if `parts` do not fit `apa` or an
///   underlying APA step fails (application errors are deterministic and
///   are not retried).
pub fn run_fleet_supervised(
    apa: &Apa,
    parts: &[Apa],
    bank: &MonitorBank,
    cfg: &FleetConfig,
    supervisor: &Supervisor,
) -> Result<FleetReport, RuntimeError> {
    cfg.validate()?;
    let run = cfg.obs.span("fleet");
    let root = Some(run.id()).filter(|&id| id != 0);
    let simulator = || Simulator::product(apa, parts, 0).map_err(simulation);
    // The first simulator checks the parts before any stream runs.
    let first = simulator()?;
    let apa_to_bank: Vec<u32> = apa
        .automaton_names()
        .map(|n| bank.event_symbol(n))
        .collect();

    let threads = cfg.threads.clamp(1, cfg.streams);
    // One simulator per worker: a stream takes one from the pool (or
    // builds it) and gives it back when it completes. A stream that
    // errors or panics drops its simulator.
    let mut simulators = Vec::with_capacity(threads);
    simulators.push(first);
    let simulators = Mutex::new(simulators);
    // A push or a pop leaves the pool valid, so a poisoned lock is safe
    // to recover.
    let pool = || simulators.lock().unwrap_or_else(PoisonError::into_inner);
    let outcome = supervisor.run_chunks("fleet:stream", threads, cfg.streams, |i| {
        let pooled = pool().pop();
        let mut sim = match pooled {
            Some(sim) => sim,
            None => simulator()?,
        };
        let result = run_stream(&mut sim, bank, &apa_to_bank, cfg, i, root)?;
        pool().push(sim);
        Ok(result)
    })?;
    // Freeing the workers' graphs is the fleet's work too.
    drop(simulators);

    // Deterministic merge in stream order over the completed streams
    // (outcome.results is sorted ascending by chunk = stream index).
    let merge = cfg.obs.span("fleet.merge");
    let mut counts = vec![0usize; bank.len()];
    let mut firsts: Vec<Option<Counterexample>> = vec![None; bank.len()];
    let mut stats = MonitorStats {
        threads,
        ..MonitorStats::default()
    };
    let streams_completed = outcome.results.len();
    for (i, sr) in outcome.results {
        stats.simulate += sr.simulate;
        stats.check += sr.check;
        stats.events += sr.events;
        stats.shard_events.push(sr.events);
        stats.states_expanded += sr.states_expanded;
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
    stats.mirror_counters(&cfg.obs);
    stats.wall = run.finish();
    stats.events_per_sec = stats.events as f64 / stats.wall.as_secs_f64().max(f64::EPSILON);
    Ok(FleetReport {
        verdicts,
        streams: cfg.streams,
        streams_completed,
        events: stats.events,
        failures: outcome.failures,
        cancelled: outcome.cancelled,
        stats,
    })
}

/// [`monitor_apa_supervised`] under the default [`Supervisor`], with
/// the APA as its own only part.
///
/// # Errors
///
/// See [`monitor_apa_supervised`].
pub fn monitor_apa(
    apa: &Apa,
    set: &fsa_core::requirements::RequirementSet,
    cfg: &FleetConfig,
) -> Result<(MonitorBank, FleetReport), RuntimeError> {
    monitor_apa_supervised(apa, std::slice::from_ref(apa), set, cfg, &Supervisor::new())
}

/// One-call pipeline: compile the bank for `apa` from `set`, run the
/// fleet on the product of `parts` under `supervisor` (see
/// [`run_fleet_supervised`]), and account the compile time in the
/// report's stats.
///
/// # Errors
///
/// Propagates [`MonitorBank::compile`] and [`run_fleet_supervised`]
/// errors.
pub fn monitor_apa_supervised(
    apa: &Apa,
    parts: &[Apa],
    set: &fsa_core::requirements::RequirementSet,
    cfg: &FleetConfig,
    supervisor: &Supervisor,
) -> Result<(MonitorBank, FleetReport), RuntimeError> {
    let span = cfg.obs.span("fleet.compile");
    let bank = MonitorBank::for_apa(set, apa)?;
    let compile = span.finish();
    let mut report = run_fleet_supervised(apa, parts, &bank, cfg, supervisor)?;
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

    /// The compiled sub-APAs of the value-level fragments of `six`'s
    /// editable model: three 12-state vehicle pairs.
    fn six_parts() -> Vec<Apa> {
        vanet::apa_model::n_pair_model(3)
            .fragments()
            .iter()
            .map(|fragment| fragment.model().compile().unwrap())
            .collect()
    }

    /// Pins the streams of the benchmark's `monitor` workload (`fsa
    /// monitor --scenario six --streams 8 --events 16384 --seed 1`), built
    /// as a one-thread fleet builds them: one simulator carried across the
    /// 8 streams. The bank-symbol streams, concatenated in stream order,
    /// hash to the digest the fleet produced when it built one simulator
    /// per episode, whether the simulator walks the global APA or the
    /// product of its three fragments. A change to the simulator's walk,
    /// the episode seeding or the bank's symbol numbering moves it.
    #[test]
    fn monitor_workload_streams_are_pinned() {
        use fsa_core::assisted::{elicit_from_graph, DependenceMethod};
        use vanet::apa_model::{n_pair_apa, stakeholder_of};
        let apa = n_pair_apa(3, vanet::semantics::ApaSemantics::PAPER).unwrap();
        let parts = six_parts();
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
        let walks = [
            Simulator::new(&apa, 0),
            Simulator::product(&apa, &parts, 0).unwrap(),
        ];
        for (walk, mut sim) in walks.into_iter().enumerate() {
            let mut all = Vec::new();
            for stream in 0..cfg.streams {
                let events = simulate_stream(&mut sim, &apa_to_bank, &cfg, stream).unwrap();
                assert_eq!(events.len(), cfg.events_per_stream, "stream {stream}");
                all.extend(events);
            }
            assert_eq!(fnv1a64(all), 0x31cb_526a_694a_2248, "walk {walk}");
            assert!(sim.states_expanded() <= graph.state_count());
            if walk == 1 {
                assert_eq!(sim.states_expanded(), 3 * 12, "every state of every pair");
            }
        }
    }

    /// A simulator warmed by other streams yields the very streams a fresh
    /// simulator per stream yields, whatever order the streams come in.
    #[test]
    fn warm_simulator_streams_equal_fresh_simulator_streams() {
        use vanet::apa_model::n_pair_apa;
        let scenarios = [
            vanet::forwarding::forwarding_chain_apa().unwrap(),
            n_pair_apa(3, vanet::semantics::ApaSemantics::PAPER).unwrap(),
        ];
        let cfg = FleetConfig {
            streams: 6,
            events_per_stream: 300,
            seed: 7,
            ..FleetConfig::default()
        };
        for apa in &scenarios {
            let automata: Vec<u32> = (0..apa.automaton_count() as u32).collect();
            let fresh: Vec<Vec<u32>> = (0..cfg.streams)
                .map(|stream| {
                    let mut sim = Simulator::new(apa, 0);
                    simulate_stream(&mut sim, &automata, &cfg, stream).unwrap()
                })
                .collect();
            let mut warm = Simulator::new(apa, 0);
            for stream in (0..cfg.streams).rev().chain(0..cfg.streams) {
                let events = simulate_stream(&mut warm, &automata, &cfg, stream).unwrap();
                assert_eq!(events, fresh[stream], "stream {stream}");
            }
            assert!(warm.states_expanded() > 0);
        }
    }

    /// A stream's events are reserved up front, so the fleet refuses a
    /// quota above the bound before it allocates anything: the bound
    /// itself passes, one more event does not.
    #[test]
    fn the_stream_length_bound_is_pinned_at_its_boundary() {
        assert_eq!(MAX_EVENTS_PER_STREAM, 1 << 28);
        let quota = |events_per_stream| FleetConfig {
            events_per_stream,
            ..FleetConfig::default()
        };
        assert_eq!(quota(MAX_EVENTS_PER_STREAM).validate(), Ok(()));
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        for events in [MAX_EVENTS_PER_STREAM + 1, usize::MAX] {
            let err = RuntimeError::StreamTooLong {
                events,
                limit: MAX_EVENTS_PER_STREAM,
            };
            assert_eq!(quota(events).validate(), Err(err.clone()));
            assert_eq!(monitor_apa(&apa, &set, &quota(events)).unwrap_err(), err);
        }
    }

    /// Per-stream state is kept for every stream, so the fleet refuses a
    /// stream count above the bound before it allocates anything: the
    /// bound itself passes, one more stream does not. Only the
    /// configuration is checked; no stream runs.
    #[test]
    fn the_stream_count_bound_is_pinned_at_its_boundary() {
        assert_eq!(MAX_STREAMS, 1 << 16);
        let fleet = |streams| FleetConfig {
            streams,
            ..FleetConfig::default()
        };
        assert_eq!(fleet(MAX_STREAMS).validate(), Ok(()));
        for streams in [MAX_STREAMS + 1, usize::MAX] {
            assert_eq!(
                fleet(streams).validate(),
                Err(RuntimeError::TooManyStreams {
                    streams,
                    limit: MAX_STREAMS
                })
            );
        }
    }

    /// Parts that do not fit the APA fail the fleet before any stream
    /// runs.
    #[test]
    fn parts_that_do_not_fit_are_a_simulation_error() {
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        let twice = [pipeline_apa(), pipeline_apa()];
        let err = monitor_apa_supervised(
            &apa,
            &twice,
            &set,
            &FleetConfig::default(),
            &Supervisor::new(),
        )
        .unwrap_err();
        assert!(
            matches!(&err, RuntimeError::Simulation(e) if e.contains("part 1")),
            "{err}"
        );
    }

    /// On `six`, a fleet walking the product of the three pairs reports
    /// what the global fleet reports, and one worker expands 36 states.
    #[test]
    fn a_fleet_on_six_parts_reports_as_the_global_fleet() {
        use fsa_core::assisted::{elicit_from_graph, DependenceMethod};
        use vanet::apa_model::{n_pair_apa, stakeholder_of};
        let apa = n_pair_apa(3, vanet::semantics::ApaSemantics::PAPER).unwrap();
        let graph = apa.reachability(&apa::ReachOptions::default()).unwrap();
        let set = elicit_from_graph(&graph, DependenceMethod::Precedence, stakeholder_of);
        let parts = six_parts();
        for fault in [
            None,
            Some(Fault::Drop {
                action: "V1_sense".into(),
            }),
        ] {
            for threads in [1, 2, 3] {
                let cfg = FleetConfig {
                    streams: 8,
                    events_per_stream: 512,
                    seed: 41,
                    threads,
                    fault: fault.clone(),
                    ..FleetConfig::default()
                };
                let (_, global) = monitor_apa(&apa, &set.requirements, &cfg).unwrap();
                let (_, product) = monitor_apa_supervised(
                    &apa,
                    &parts,
                    &set.requirements,
                    &cfg,
                    &Supervisor::new(),
                )
                .unwrap();
                assert_eq!(product.render(), global.render(), "{fault:?} at {threads}");
                let expanded = product.stats.states_expanded;
                assert!(expanded <= threads as u64 * 36, "{expanded} at {threads}");
                if threads == 1 {
                    assert_eq!(expanded, 36);
                }
            }
        }
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
        let (_, report) =
            monitor_apa_supervised(&apa, std::slice::from_ref(&apa), &set, &cfg, &sup).unwrap();
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
        let (_, report) =
            monitor_apa_supervised(&apa, std::slice::from_ref(&apa), &set, &cfg, &sup).unwrap();
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
        let (_, partial) =
            monitor_apa_supervised(&apa, std::slice::from_ref(&apa), &set, &cfg, &sup).unwrap();
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
        let (_, healed) =
            monitor_apa_supervised(&apa, std::slice::from_ref(&apa), &set, &cfg, &sup).unwrap();
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
        let (_, report) =
            monitor_apa_supervised(&apa, std::slice::from_ref(&apa), &set, &cfg, &sup).unwrap();
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
        // It varies with scheduling above one thread: not in the text.
        assert!(s.states_expanded > 0);
        assert!(!rendered.contains("expanded"), "{rendered}");
    }

    /// One worker keeps one simulator for every stream, so it expands
    /// each reachable state once; each further worker at most once more.
    #[test]
    fn workers_expand_each_state_at_most_once() {
        let apa = pipeline_apa();
        let set = reqs(&[("first", "second")]);
        let reachable = apa
            .reachability(&apa::ReachOptions::default())
            .unwrap()
            .state_count() as u64;
        for threads in [1u64, 2, 4] {
            let cfg = FleetConfig {
                threads: threads as usize,
                ..FleetConfig::default()
            };
            let (_, report) = monitor_apa(&apa, &set, &cfg).unwrap();
            let expanded = report.stats.states_expanded;
            assert!(expanded >= reachable, "threads {threads}: {expanded}");
            assert!(
                expanded <= threads * reachable,
                "threads {threads}: {expanded}"
            );
            if threads == 1 {
                assert_eq!(expanded, reachable);
            }
        }
    }

    /// Every `fleet.*` counter of `snap` mirrors its live field of
    /// `stats`, and every fleet span totals the duration it holds.
    fn assert_counters_mirror(snap: &fsa_obs::Snapshot, stats: &MonitorStats) {
        assert_eq!(snap.counter("fleet.events"), Some(stats.events));
        assert_eq!(snap.counter("fleet.threads"), Some(stats.threads as u64));
        assert_eq!(
            snap.counter("fleet.states_expanded"),
            Some(stats.states_expanded)
        );
        let shard_events: Vec<u64> = snap
            .counters
            .iter()
            .filter(|c| c.name.starts_with("fleet.shard."))
            .map(|c| c.value)
            .collect();
        assert_eq!(shard_events, stats.shard_events);
        for (span, live) in [
            ("fleet", stats.wall),
            ("fleet.compile", stats.compile),
            ("fleet.simulate", stats.simulate),
            ("fleet.check", stats.check),
        ] {
            assert_eq!(snap.span_total(span), live, "{span}");
        }
    }

    #[test]
    fn observed_fleet_matches_unobserved_and_counters_mirror_live_stats() {
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

        let snap = obs.snapshot();
        assert_counters_mirror(&snap, &observed.stats);

        // Span inventory: one root, one compile, one merge, one
        // simulate + check pair per stream.
        assert_eq!(snap.span_count("fleet"), 1);
        assert_eq!(snap.span_count("fleet.compile"), 1);
        assert_eq!(snap.span_count("fleet.merge"), 1);
        assert_eq!(snap.span_count("fleet.simulate"), cfg.streams);
        assert_eq!(snap.span_count("fleet.check"), cfg.streams);
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
        let (_, observed) =
            monitor_apa_supervised(&apa, std::slice::from_ref(&apa), &set, &cfg, &sup).unwrap();
        assert!(observed.is_complete());
        assert_eq!(observed.render(), plain.render());

        let snap = obs.snapshot();
        assert_counters_mirror(&snap, &observed.stats);
        assert_eq!(snap.span_count("fleet.simulate"), cfg.streams);
        // One supervised chunk per stream, all first-try successes.
        assert_eq!(snap.counter("supervisor.chunks"), Some(cfg.streams as u64));
        assert_eq!(
            snap.counter("supervisor.attempts"),
            Some(cfg.streams as u64)
        );
    }
}
