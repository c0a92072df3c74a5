//! The five named workloads.
//!
//! Each workload has two forms of the same operation: [`Workload::op`]
//! sends one-shot commands through `fsa_serve::cli::dispatch` (the
//! runner the `fsa` binary's `main` calls) or over a real `fsa-wire/v1`
//! socket, and is what the end-to-end metrics time; [`Workload::traced_op`]
//! runs the same work as a pipeline of calls into each layer's public
//! functions, wrapping every call in a span of the benchmark's own, for
//! the per-layer metrics. [`Workload::check`] verifies the last
//! operation's output against an independent reference, outside the
//! timed interval.

use crate::gen::{self, EditOp, EditTraffic, ModelState, Rng, SpecInput};
use crate::speed;
use fsa_core::service::Rendered;
use fsa_obs::Obs;
use fsa_serve::proto::ServerFrame;
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// Workload names, in the order `run` executes them.
pub const NAMES: [&str; 5] = ["elicit", "explore", "monitor", "serve-edit", "dist"];

/// The work a workload's timings are scaled by (see [`crate::speed`]).
/// `serve-edit`'s steps encode, decode and render strings and look them
/// up in hash maps, and track the allocating work alone best; the other
/// workloads track the mixed work best.
pub fn calibration(name: &str) -> speed::Work {
    if name == "serve-edit" {
        speed::Work::Allocating
    } else {
        speed::Work::Mixed
    }
}

/// Whether workload `name` runs on one CPU (see [`crate::affinity`]):
/// `serve-edit`, whose client, connection and session threads hand every
/// request on to each other. The others run one thread, or worker
/// processes that are meant to use every CPU.
pub fn pinned(name: &str) -> bool {
    name == "serve-edit"
}

/// Universe bound of the `explore` and `dist` workloads.
const MAX_VEHICLES: usize = 4;
/// `monitor` fleet shape: streams and total events per operation.
const STREAMS: usize = 8;
const EVENTS: usize = 16_384;
/// Steps in one `serve-edit` trace pass: two cycles of arrivals, so the
/// pass's counters include the memo's evictions.
const SERVE_PASS: usize = 2 * gen::POOL;

pub trait Workload {
    /// One timed operation through the CLI runner or the wire protocol.
    fn op(&mut self) -> Result<(), String>;
    /// The same operation as a pipeline of layer calls; spans and
    /// counters go to `obs` when it is enabled.
    fn traced_op(&mut self, obs: &Obs) -> Result<(), String>;
    /// Checks the output of the last operation.
    fn check(&mut self) -> Result<(), String>;
    /// Moves on to the next operation of the seeded sequence.
    fn advance(&mut self);
    /// Checks the warm-up operation of [`setup`] and moves on.
    fn check_warm_up(&mut self) -> Result<(), String> {
        self.check().map_err(|e| format!("warm-up: {e}"))?;
        self.advance();
        Ok(())
    }
    /// Operations in one pass over the workload's inputs: a measured run
    /// times whole passes, and a trace pass's counters must repeat
    /// exactly.
    fn pass_len(&self) -> usize {
        1
    }
    /// Untimed diagnostic work after each trace pass, recorded outside
    /// any operation span.
    fn diagnose(&mut self, _obs: &Obs) -> Result<(), String> {
        Ok(())
    }
    /// Releases what set-up started (servers, connections).
    fn finish(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

/// Builds workload `name` for `seed` and runs one warm-up operation, to
/// be checked with [`Workload::check_warm_up`]. `trace` is the trace
/// registry in trace mode, where some workloads set up more (a second,
/// untraced server).
pub fn setup(
    name: &str,
    seed: u64,
    work: &Path,
    trace: Option<&Obs>,
) -> Result<Box<dyn Workload>, String> {
    let mut w: Box<dyn Workload> = match name {
        "elicit" => Box::new(Elicit::new(seed, work)?),
        "explore" => Box::new(Explore::new(false)),
        "monitor" => Box::new(Monitor::new(seed)),
        "serve-edit" => Box::new(ServeEdit::new(seed, trace)?),
        "dist" => Box::new(Explore::new(true)),
        other => return Err(format!("unknown workload `{other}`")),
    };
    // In trace mode the warm-up takes the untraced path, so it records
    // nothing into the trace registry.
    match trace {
        Some(_) => w.traced_op(&Obs::disabled())?,
        None => w.op()?,
    }
    Ok(w)
}

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_owned()).collect()
}

fn ok(r: &Rendered) -> Result<(), String> {
    if r.exit == 0 {
        Ok(())
    } else {
        Err(format!("exit {}: {}", r.exit, r.stderr.trim()))
    }
}

/// FNV-1a 64 over bytes, the digest `expected.json` records.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

// ---------------------------------------------------------------- elicit

/// What one `elicit` operation produced, in the form the check reads.
enum ElicitOut {
    Cli(Rendered),
    Traced {
        requirements: Vec<fsa_core::RequirementSet>,
        cross_checked: bool,
    },
}

struct Elicit {
    inputs: Vec<(PathBuf, SpecInput)>,
    next: usize,
    last: Option<ElicitOut>,
}

impl Elicit {
    fn new(seed: u64, work: &Path) -> Result<Elicit, String> {
        let dir = work.join(format!("elicit-{seed}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut inputs = Vec::new();
        for (i, input) in gen::elicit_inputs(seed).into_iter().enumerate() {
            let path = dir.join(format!("{i:02}.fsa"));
            std::fs::write(&path, &input.source).map_err(|e| format!("{}: {e}", path.display()))?;
            inputs.push((path, input));
        }
        Ok(Elicit {
            inputs,
            next: 0,
            last: None,
        })
    }

    fn current(&self) -> &(PathBuf, SpecInput) {
        &self.inputs[self.next % self.inputs.len()]
    }
}

impl Workload for Elicit {
    fn op(&mut self) -> Result<(), String> {
        let (path, input) = self.current();
        let mut args = vec!["elicit".to_owned(), path.display().to_string()];
        if input.verify {
            args.push("--verify-dataflow".to_owned());
        }
        self.last = Some(ElicitOut::Cli(fsa_serve::cli::dispatch(&args)));
        Ok(())
    }

    fn traced_op(&mut self, obs: &Obs) -> Result<(), String> {
        use fsa_core::assisted::{elicit_observed, ElicitOptions};
        // Each layer's results are also freed inside its span, as the CLI
        // frees them inside the operation.
        let (path, input) = self.current();
        let instances = {
            let _span = obs.span("speclang.parse");
            let source = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            speclang::parse(&source).map_err(|e| e.to_string())?
        };
        let mut requirements = Vec::with_capacity(instances.len());
        let mut cross_checked = true;
        for instance in &instances {
            let report = {
                let _span = obs.span("core.manual");
                fsa_core::manual::elicit(instance).map_err(|e| e.to_string())?
            };
            obs.counter_add("core.manual.calls", 1);
            {
                let _span = obs.span("core.render");
                let rendered = fsa_core::report::render_manual(&report);
                obs.counter_add("core.render.bytes", rendered.len() as u64);
            }
            let manual = {
                let _span = obs.span("core.manual");
                let set = report.requirement_set();
                drop(report);
                set
            };
            if !input.verify {
                requirements.push(manual);
                continue;
            }
            let model = {
                let _span = obs.span("core.dataflow");
                fsa_core::dataflow::dataflow_apa(instance).map_err(|e| e.to_string())?
            };
            let graph = {
                let _span = obs.span("apa.reach");
                model
                    .reachability(&apa::ReachOptions::default())
                    .map_err(|e| e.to_string())?
            };
            obs.counter_add("apa.reach.states", graph.state_count() as u64);
            obs.counter_add("apa.reach.edges", graph.edge_count() as u64);
            let assisted = {
                let _span = obs.span("core.assisted");
                elicit_observed(&graph, &ElicitOptions::service(1), obs, |name| {
                    let action = fsa_core::Action::parse(name);
                    instance
                        .find(&action)
                        .map(|n| instance.stakeholder(n).clone())
                        .unwrap_or_else(|| fsa_core::Agent::new("env"))
                })
            };
            {
                let _span = obs.span("apa.reach");
                drop(graph);
            }
            let _span = obs.span("core.assisted");
            cross_checked &= assisted.requirements == manual;
            drop(assisted);
            requirements.push(manual);
        }
        {
            let _span = obs.span("speclang.parse");
            drop(instances);
        }
        self.last = Some(ElicitOut::Traced {
            requirements,
            cross_checked,
        });
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let last = self.last.take();
        let (_, input) = self.current();
        let (got, cross_checked) = match last {
            Some(ElicitOut::Cli(r)) => {
                ok(&r)?;
                let blocks = r.stdout.matches("authenticity requirements:").count();
                let matched = r
                    .stdout
                    .matches("tool-assisted cross-check: requirement sets match")
                    .count();
                (requirement_lines(&r.stdout), matched == blocks)
            }
            Some(ElicitOut::Traced {
                requirements,
                cross_checked,
            }) => {
                let lines = requirements
                    .iter()
                    .flat_map(|set| set.iter().map(ToString::to_string));
                (lines.collect(), cross_checked)
            }
            None => return Err("no operation ran".to_owned()),
        };
        if input.verify && !cross_checked {
            return Err(format!("{}: §5 cross-check did not pass", input.label));
        }
        if got != input.expected {
            return Err(format!(
                "{}: elicited {} requirement(s), expected {}",
                input.label,
                got.len(),
                input.expected.len()
            ));
        }
        Ok(())
    }

    fn advance(&mut self) {
        self.next += 1;
    }

    fn pass_len(&self) -> usize {
        self.inputs.len()
    }
}

/// The `auth(…)` lines of every `authenticity requirements:` block of a
/// rendered §4 report, without their relevance tags.
fn requirement_lines(stdout: &str) -> BTreeSet<String> {
    let mut lines = BTreeSet::new();
    let mut inside = false;
    for line in stdout.lines() {
        if line == "authenticity requirements:" {
            inside = true;
        } else if inside && line.starts_with("  ") {
            let text = line.trim();
            let text = text.rsplit_once("   [").map_or(text, |(req, _)| req);
            lines.insert(text.to_owned());
        } else {
            inside = false;
        }
    }
    lines
}

// ------------------------------------------------------- explore / dist

/// `explore --max-vehicles 4`, single-process or `--distributed
/// --workers 2`; both must print the frozen report.
struct Explore {
    distributed: bool,
    digest: String,
    last: Option<String>,
}

impl Explore {
    fn new(distributed: bool) -> Explore {
        Explore {
            distributed,
            digest: crate::expected::explore_digest(),
            last: None,
        }
    }
}

impl Workload for Explore {
    fn op(&mut self) -> Result<(), String> {
        let max = MAX_VEHICLES.to_string();
        let mut args = argv(&["explore", "--max-vehicles", &max]);
        if self.distributed {
            args.extend(argv(&["--distributed", "--workers", "2"]));
        }
        let r = fsa_serve::cli::dispatch(&args);
        ok(&r)?;
        self.last = Some(r.stdout);
        Ok(())
    }

    fn traced_op(&mut self, obs: &Obs) -> Result<(), String> {
        let exploration = if self.distributed {
            let _span = obs.span("dist.explore");
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let config = fsa_dist::LocalConfig {
                max_vehicles: MAX_VEHICLES,
                workers: 2,
                obs: obs.clone(),
                ..fsa_dist::LocalConfig::default()
            };
            fsa_dist::explore_distributed(&config, &fsa_dist::WorkerMode::Processes { exe })
                .map_err(|e| e.to_string())?
        } else {
            let _span = obs.span("core.explore");
            let options = fsa_core::explore::ExploreOptions {
                obs: obs.clone(),
                ..fsa_core::explore::ExploreOptions::default()
            };
            vanet::exploration::explore_scenario(MAX_VEHICLES, &options)
                .map_err(|e| e.to_string())?
        };
        let rendered = {
            let _span = obs.span("cli.render_exploration");
            fsa_serve::cli::render_exploration(&exploration, MAX_VEHICLES, false, false, 1)
        };
        {
            // Freeing the universe is part of the explore layer's cost.
            let _span = obs.span(if self.distributed {
                "dist.explore"
            } else {
                "core.explore"
            });
            drop(exploration);
        }
        ok(&rendered)?;
        self.last = Some(rendered.stdout);
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let stdout = self.last.take().ok_or("no operation ran")?;
        let digest = format!("{:016x}", fnv1a64(stdout.as_bytes()));
        if digest == self.digest {
            Ok(())
        } else {
            Err(format!("report digest {digest}, expected {}", self.digest))
        }
    }

    fn advance(&mut self) {}

    /// Splits `cli.render_exploration` into its §4 elicitations and the
    /// requirement union over the same instances (explored again,
    /// unobserved).
    fn diagnose(&mut self, obs: &Obs) -> Result<(), String> {
        let instances = vanet::exploration::explore_scenario(
            MAX_VEHICLES,
            &fsa_core::explore::ExploreOptions::default(),
        )
        .map_err(|e| e.to_string())?
        .instances;
        let mut reports = Vec::with_capacity(instances.len());
        {
            let _span = obs.span("core.manual");
            for instance in &instances {
                // Cyclic compositions have no §4 report; the CLI skips
                // them the same way.
                if let Ok(report) = fsa_core::manual::elicit(instance) {
                    reports.push(report.requirement_set());
                }
            }
        }
        obs.counter_add("core.manual.calls", instances.len() as u64);
        let _span = obs.span("core.union");
        let union = reports
            .iter()
            .fold(fsa_core::RequirementSet::new(), |acc, set| acc.union(set));
        std::hint::black_box(union);
        Ok(())
    }
}

// --------------------------------------------------------------- monitor

enum MonitorOut {
    Cli(Rendered),
    Traced { events: u64, violated: usize },
}

struct Monitor {
    seeds: Rng,
    seed: u64,
    last: Option<MonitorOut>,
}

impl Monitor {
    fn new(seed: u64) -> Monitor {
        let mut seeds = Rng::new(seed ^ 0x3047_17e5);
        let seed = seeds.next_u64() >> 32;
        Monitor {
            seeds,
            seed,
            last: None,
        }
    }
}

/// The fleet's per-(stream, episode) simulator seed, so the traced
/// pipeline replays exactly the event streams `fsa monitor` checks.
fn episode_seed(seed: u64, stream: u64, episode: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ episode.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Workload for Monitor {
    fn op(&mut self) -> Result<(), String> {
        let (streams, events, seed) = (
            STREAMS.to_string(),
            EVENTS.to_string(),
            self.seed.to_string(),
        );
        let args = argv(&[
            "monitor",
            "--scenario",
            "six",
            "--streams",
            &streams,
            "--events",
            &events,
            "--seed",
            &seed,
        ]);
        self.last = Some(MonitorOut::Cli(fsa_serve::cli::dispatch(&args)));
        Ok(())
    }

    fn traced_op(&mut self, obs: &Obs) -> Result<(), String> {
        // Loading the scenario builds the incremental engine's edit model.
        let (model, report) = {
            let _span = obs.span("core.incremental");
            let mut model = fsa_serve::engines::ScenarioModel::load("six")?;
            let report = model.elicit_report(1, obs)?;
            (model, report)
        };
        let scenario = model.apa();
        let bank = {
            let _span = obs.span("runtime.compile");
            fsa_runtime::MonitorBank::for_apa(&report.requirements, scenario)
                .map_err(|e| e.to_string())?
        };
        let to_bank: Vec<u32> = scenario
            .automaton_names()
            .map(|n| bank.event_symbol(n))
            .collect();
        let quota = EVENTS.div_ceil(STREAMS);
        let (mut events, mut violated) = (0u64, 0usize);
        for stream in 0..STREAMS as u64 {
            let mut trace = Vec::with_capacity(quota);
            {
                let _span = obs.span("apa.sim");
                let mut episode = 0;
                while trace.len() < quota {
                    let mut sim =
                        apa::Simulator::new(scenario, episode_seed(self.seed, stream, episode));
                    let steps = sim.run(quota - trace.len()).map_err(|e| e.to_string())?;
                    if steps == 0 {
                        break;
                    }
                    obs.counter_add("apa.sim.steps", steps as u64);
                    trace.extend(sim.trace().iter().map(|l| to_bank[l.automaton.index()]));
                    episode += 1;
                }
            }
            let _span = obs.span("runtime.feed");
            let mut run = bank.start();
            bank.feed(&mut run, &trace);
            obs.counter_add("runtime.events", run.events);
            events += run.events;
            violated += run.violated();
        }
        self.last = Some(MonitorOut::Traced { events, violated });
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let (events, violated) = match self.last.take() {
            Some(MonitorOut::Cli(r)) => {
                ok(&r)?;
                let summary = r
                    .stdout
                    .lines()
                    .find(|l| l.contains(" monitor(s), "))
                    .ok_or("no fleet summary line")?;
                // "<m> monitor(s), <s> stream(s), <e> event(s): <v> violated"
                let words: Vec<&str> = summary.split_whitespace().collect();
                let number = |i: usize| words.get(i).and_then(|w| w.parse::<u64>().ok());
                match (number(4), number(6)) {
                    (Some(e), Some(v)) => (e, v as usize),
                    _ => return Err(format!("unreadable fleet summary `{summary}`")),
                }
            }
            Some(MonitorOut::Traced { events, violated }) => (events, violated),
            None => return Err("no operation ran".to_owned()),
        };
        if events != EVENTS as u64 || violated != 0 {
            return Err(format!(
                "seed {}: {events} event(s), {violated} violated; expected {EVENTS} and 0",
                self.seed
            ));
        }
        Ok(())
    }

    fn advance(&mut self) {
        self.seed = self.seeds.next_u64() >> 32;
    }
}

// ------------------------------------------------------------ serve-edit

/// One client session against an in-process server.
struct Conn {
    server: Option<std::thread::JoinHandle<fsa_serve::ServeSummary>>,
    drain: std::sync::Arc<std::sync::atomic::AtomicBool>,
    client: Option<fsa_serve::Client>,
    session: u64,
    next_id: u64,
    /// The session model after the edits sent so far.
    state: ModelState,
    /// The last `elicit` response, which a repeat must replay.
    previous: Option<String>,
    /// Responses to the last step, in request order, each with the
    /// model state it answers for.
    last: Vec<(ServerFrame, ModelState)>,
}

impl Conn {
    fn start(obs: Obs) -> Result<Conn, String> {
        let server = fsa_serve::Server::bind(fsa_serve::ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            obs,
            ..fsa_serve::ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        // Connect before the accept loop starts: the connection waits in
        // the listen backlog, so the loop's first accept finds it rather
        // than racing the loop's idle sleep, and set-up time is steady.
        let stream =
            std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let drain = server.drain_handle();
        let handle = std::thread::spawn(move || server.run());
        let mut conn = Conn {
            server: Some(handle),
            drain,
            client: None,
            session: 0,
            next_id: 0,
            state: ModelState::INITIAL,
            previous: None,
            last: Vec::new(),
        };
        let mut client = fsa_serve::Client::handshake(stream)?;
        conn.session = client.open(None, Some("six".to_owned()))?;
        conn.client = Some(client);
        Ok(conn)
    }

    /// Sends a step's requests back to back, then reads their responses
    /// (a session answers in submission order).
    fn send(&mut self, step: &[EditOp]) -> Result<(), String> {
        use fsa_serve::proto::ClientFrame;
        let client = self.client.as_mut().ok_or("connection closed")?;
        let mut states = Vec::with_capacity(step.len());
        for op in step {
            self.next_id += 1;
            let (session, id) = (self.session, self.next_id);
            client.send(&match op {
                EditOp::Arrive { .. } | EditOp::Move { .. } => ClientFrame::Edit {
                    session,
                    id,
                    deltas: self.state.edit(op),
                },
                EditOp::Elicit | EditOp::Repeat => ClientFrame::Request {
                    session,
                    id,
                    command: "elicit".to_owned(),
                    args: Vec::new(),
                    deadline_ms: None,
                },
            })?;
            states.push(self.state);
        }
        self.last.clear();
        for state in states {
            let response = client.recv()?.ok_or("the server closed the connection")?;
            self.last.push((response, state));
        }
        Ok(())
    }

    /// Checks the responses to `step`.
    fn check_step(
        &mut self,
        step: &[EditOp],
        references: &mut HashMap<ModelState, Vec<String>>,
    ) -> Result<(), String> {
        let responses = std::mem::take(&mut self.last);
        if responses.len() != step.len() {
            return Err(format!(
                "{} response(s) to {} request(s)",
                responses.len(),
                step.len()
            ));
        }
        for (op, (response, state)) in step.iter().zip(responses) {
            self.check(op, response, state, references)?;
        }
        Ok(())
    }

    /// Checks the response to one request.
    fn check(
        &mut self,
        op: &EditOp,
        response: ServerFrame,
        state: ModelState,
        references: &mut HashMap<ModelState, Vec<String>>,
    ) -> Result<(), String> {
        let (exit, cached, stdout, stderr) = match response {
            ServerFrame::Response {
                exit,
                cached,
                stdout,
                stderr,
                ..
            } => (exit, cached, stdout, stderr),
            ServerFrame::Error { code, message, .. } => return Err(format!("{code}: {message}")),
            other => return Err(format!("unexpected frame {other:?}")),
        };
        if exit != 0 {
            return Err(format!("{op:?}: exit {exit}: {}", stderr.trim()));
        }
        match op {
            EditOp::Arrive { .. } | EditOp::Move { .. } => {
                self.previous = None;
                if !stdout.is_empty() {
                    return Err("an edit printed output".to_owned());
                }
            }
            EditOp::Repeat if !cached || self.previous.as_deref() != Some(stdout.as_str()) => {
                return Err("a repeated elicit was not replayed from the response cache".to_owned());
            }
            EditOp::Repeat => {}
            EditOp::Elicit => {
                if cached {
                    return Err("an elicit after an edit was answered from the cache".to_owned());
                }
                let served: Vec<&str> = stdout
                    .lines()
                    .skip_while(|l| !l.starts_with("requirements ("))
                    .skip(1)
                    .collect();
                let expected = match references.entry(state) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(reference_requirements(state)?)
                    }
                };
                if served != *expected {
                    return Err(format!(
                        "{state:?}: served requirements differ from a from-scratch run"
                    ));
                }
                self.previous = Some(stdout);
            }
        }
        Ok(())
    }

    fn close(mut self) -> Result<(), String> {
        let bye = self.client.take().map_or(Ok(()), fsa_serve::Client::bye);
        self.drain.store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(handle) = self.server.take() {
            handle
                .join()
                .map_err(|_| "server thread panicked".to_owned())?;
        }
        bye
    }
}

/// The requirement lines of the `six` model in `state`, elicited from
/// scratch: compile, reachability, §5 pipeline.
fn reference_requirements(state: ModelState) -> Result<Vec<String>, String> {
    use fsa_core::delta::ModelDelta;
    let mut model = vanet::apa_model::n_pair_model(3);
    let mut edited = ModelState::INITIAL;
    let edits = [
        EditOp::Arrive { pair: state.zone3 },
        EditOp::Move {
            position: state.position,
        },
    ];
    for line in edits.iter().flat_map(|op| edited.edit(op)) {
        let delta = ModelDelta::parse(&line).map_err(|e| e.to_string())?;
        model.apply(&delta).map_err(|e| e.to_string())?;
    }
    let graph = model
        .compile()
        .map_err(|e| e.to_string())?
        .reachability(&apa::ReachOptions::default())
        .map_err(|e| e.to_string())?;
    let report = fsa_core::assisted::elicit_with_options(
        &graph,
        &fsa_core::assisted::ElicitOptions::service(1),
        vanet::apa_model::stakeholder_of,
    );
    Ok(report
        .requirements
        .iter()
        .map(|r| format!("  {r}"))
        .collect())
}

/// A closed-loop analyst session over one connection to an in-process
/// server on scenario `six`: each operation is one step of
/// [`EditTraffic`], whose answers the analyst waits for before the next
/// step.
struct ServeEdit {
    traffic: EditTraffic,
    step: [EditOp; 5],
    /// `conns[0]` serves [`Workload::op`] and the traced copy (its server
    /// records into the trace registry); `conns[1]`, trace mode only,
    /// serves the untraced copy.
    conns: Vec<Conn>,
    active: usize,
    references: HashMap<ModelState, Vec<String>>,
    /// Trace mode: the steps since the last replay, and the in-process
    /// session model that replays them with its state.
    pass: Vec<[EditOp; 5]>,
    replay: Option<(fsa_serve::engines::ScenarioModel, ModelState)>,
}

impl ServeEdit {
    fn new(seed: u64, trace: Option<&Obs>) -> Result<ServeEdit, String> {
        let mut conns = vec![Conn::start(trace.cloned().unwrap_or_default())?];
        if trace.is_some() {
            conns.push(Conn::start(Obs::disabled())?);
        }
        let mut traffic = EditTraffic::new(seed ^ 0x5e12_7e0d);
        let step = traffic.step();
        Ok(ServeEdit {
            traffic,
            step,
            conns,
            active: 0,
            references: HashMap::new(),
            pass: Vec::new(),
            replay: None,
        })
    }
}

impl Workload for ServeEdit {
    fn op(&mut self) -> Result<(), String> {
        self.active = 0;
        self.conns[0].send(&self.step)
    }

    fn traced_op(&mut self, obs: &Obs) -> Result<(), String> {
        self.active = usize::from(!obs.is_enabled());
        let elicits = self
            .step
            .iter()
            .filter(|op| matches!(op, EditOp::Elicit | EditOp::Repeat));
        obs.counter_add("serve.elicit_requests", elicits.count() as u64);
        let _span = obs.span("serve.rtt");
        self.conns[self.active].send(&self.step)
    }

    fn check(&mut self) -> Result<(), String> {
        self.conns[self.active].check_step(&self.step, &mut self.references)
    }

    fn advance(&mut self) {
        let done = std::mem::replace(&mut self.step, self.traffic.step());
        if self.conns.len() > 1 {
            self.pass.push(done);
        }
    }

    fn pass_len(&self) -> usize {
        SERVE_PASS
    }

    /// Replays the pass's requests in-process through the session
    /// engine (repeats never reach it: the response cache answers them),
    /// timing the delta and incremental layers without the socket and
    /// server threads around them. The layers record nothing themselves
    /// here: the traced server's session already counts the memo's hits
    /// and misses for the same requests.
    fn diagnose(&mut self, obs: &Obs) -> Result<(), String> {
        use fsa_core::delta::ModelDelta;
        if self.replay.is_none() {
            let model = fsa_serve::engines::ScenarioModel::load("six")?;
            self.replay = Some((model, ModelState::INITIAL));
        }
        let (model, state) = self.replay.as_mut().expect("loaded above");
        let quiet = Obs::disabled();
        for op in self.pass.drain(..).flatten() {
            match op {
                EditOp::Arrive { .. } | EditOp::Move { .. } => {
                    let _span = obs.span("core.delta");
                    let deltas = state
                        .edit(&op)
                        .iter()
                        .map(|line| ModelDelta::parse(line).map_err(|e| e.to_string()))
                        .collect::<Result<Vec<_>, _>>()?;
                    model.apply_deltas(&deltas, &quiet)?;
                }
                EditOp::Elicit => {
                    let _span = obs.span("core.incremental");
                    model.elicit_report(1, &quiet)?;
                }
                EditOp::Repeat => {}
            }
        }
        Ok(())
    }

    fn finish(self: Box<Self>) -> Result<(), String> {
        let mut result = Ok(());
        for conn in self.conns {
            result = result.and(conn.close());
        }
        result
    }
}
