//! The `fsa` command-line surface, as buffered runners.
//!
//! Every subcommand is a pure function from an argument vector to a
//! [`Rendered`] outcome (exact stdout/stderr bytes + exit code). The
//! one-shot binary calls [`main`] which prints the buffers verbatim;
//! the resident server calls the same runners against session-held
//! models, so serving responses are byte-identical to one-shot output
//! *by construction* — there is only one rendering path.
//!
//! Every runner declares its flags in one [`Table`]; the table's parser
//! ([`crate::flags`]) owns the CLI contract: `--flag value` and
//! `--flag=value`, a following `--token` never consumed as a value,
//! duplicate flag occurrences rejected with exit code 2, usage printed
//! to stderr on every parse error.

use crate::engines::scenario_apa;
use crate::engines::ScenarioModel;
use crate::flags::{Kind, Table};
use fsa_core::dataflow::dataflow_apa;
use fsa_core::manual::{elicit, explain};
use fsa_core::param::parameterise;
use fsa_core::refine::refine;
use fsa_core::report::render_manual;
use fsa_core::service::{LoadedModel, Rendered, ServiceCtx};
use fsa_graph::dot::{to_dot, DotOptions};
use std::fmt::Write as _;

/// The usage text of `fsa` itself: one synopsis per subcommand.
pub const GLOBAL_USAGE: &str = "usage:
  fsa elicit <spec-file> [--param] [--refine] [--prioritise] [--dot] [--markdown] [--verify-dataflow] [--stats] [--threads=N]
  fsa elicit --scenario two|chain|attacked|six [--edit-script F] [--threads N]
  fsa check <spec-file>
  fsa explore [--max-vehicles N] [--threads N] [--stats] [--budget N] [--truncate] [--all]
              [--deadline-ms N] [--retries N] [--checkpoint F [--checkpoint-every N]] [--resume F]
  fsa explore --distributed [--workers N] [--shards N] [--lease-ms N] [--state-dir D] [--max-vehicles N] ...
  fsa coordinate --listen HOST:PORT [--max-vehicles N] [--shards N] [--lease-ms N] [--state F]
                 [--max-conns N] [--budget N] [--all] [--stats]
  fsa work --connect ADDR [--state-dir D] [--threads N] [--seed N] [--reconnect N]
  fsa simulate [--scenario two|chain|attacked|six] [--seed N] [--max-steps N] [--inject <fault>]
  fsa monitor [--scenario chain|six] [--streams N] [--events N] [--threads N] [--inject <fault>] [--seed N] [--stats]
              [--deadline-ms N] [--retries N]
  fsa serve [--addr HOST:PORT] [--queue N] [--max-frame BYTES] ...
  fsa serve --connect ADDR [--spec F] [--scenario S] [--request \"CMD ARGS\"]... [--edit \"DELTA\"]...
            [--deadline-ms N] [--chaos-seed N] [--drain]
  fsa <subcommand> --help

Every subcommand but `work` and `serve --connect` also accepts observability exports:
  --stats-json F  write span/counter/histogram statistics (fsa-obs/v1 JSON) to F
  --trace-json F  write a chrome://tracing view of the run to F";

pub(crate) const EXPLORE_USAGE: &str = "usage:
  fsa explore [--max-vehicles N] [--threads N] [--stats] [--budget N] [--truncate] [--all]
              [--deadline-ms N] [--retries N] [--checkpoint F [--checkpoint-every N]] [--resume F]
  fsa explore --distributed [--workers N] [--shards N] [--lease-ms N] [--state-dir D]
              [--max-vehicles N] [--threads N] [--budget N] [--all] [--stats]

Enumerate the structurally different SoS instances of the vehicular
scenario (§4.2) and union their elicited requirements (§4.4).
  --max-vehicles N  universe bound (default 2)
  --threads N       worker threads (deterministic output, default 1)
  --budget N        candidate budget (error when exceeded)
  --truncate        return the deduped partial universe at budget
  --all             keep disconnected compositions
  --stats           print engine counters and per-stage timings
Supervised execution (every run is supervised; these flags set its
policy, and the output is unchanged when nothing is cut):
  --deadline-ms N        stop at the next batch boundary after N ms and
                         report the completed prefix (exit code 3)
  --retries N            retries per panicked worker chunk (default 2)
  --checkpoint F         write crash-safe (atomic) checkpoints to F
  --checkpoint-every N   candidates built between checkpoints (default 256)
  --resume F             continue a previous run from checkpoint F
Distributed execution (coordinator + local worker processes; the class
output is byte-identical to the single-process engine):
  --distributed          shard the universe across worker processes
  --workers N            local worker processes to spawn (default 2)
  --shards N             shard count (default: 4 x workers; at most one
                         per vector)
  --lease-ms N           shard lease before a dead worker's shard is
                         re-issued (default 2000)
  --state-dir D          directory for the coordinator state file and
                         per-worker shard checkpoints (default: a
                         temporary directory, removed on success)
Observability (never changes the printed report):
  --stats-json F         write span/counter/histogram statistics (fsa-obs/v1) to F
  --trace-json F         write a chrome://tracing view of the run to F";

pub(crate) const SIMULATE_USAGE: &str = "usage:
  fsa simulate [--scenario two|chain|attacked|six] [--seed N] [--max-steps N] [--inject <fault>]

Run one seeded simulation of a scenario APA and print the trace.
  --scenario S     two (default): the paper's two-vehicle model;
                   chain: the V1→V2→V3 forwarding chain;
                   attacked: the chain plus the cam-forging attacker;
                   six: the three-pair (six-vehicle) model
  --seed N         simulation seed (default 1)
  --max-steps N    stop after N steps (default 100)
  --inject F       fault applied to the finished trace:
                   drop:<action> | spoof:<action> | reorder:<window>
  --stats-json F   write span/counter statistics (fsa-obs/v1 JSON) to F
  --trace-json F   write a chrome://tracing view of the run to F";

pub(crate) const MONITOR_USAGE: &str = "usage:
  fsa monitor [--scenario chain|six] [--streams N] [--events N] [--threads N] [--inject <fault>] [--seed N] [--stats]
              [--deadline-ms N] [--retries N]

Compile the scenario's elicited requirements into a fused monitor bank
and check a sharded simulator fleet against it (exit 1 on violations).
  --scenario S     chain (default): V1→V2→V3 forwarding chain;
                   six: the three-pair (six-vehicle) model
  --streams N      independent event streams (default 8)
  --events N       events to check, split over the streams: each stream
                   runs N / streams rounded up, so the fleet checks N
                   rounded up to a multiple of --streams (default 8192)
  --threads N      worker threads; reports are bit-identical for any
                   value (default 1)
  --inject F       fault injected into every stream:
                   drop:<action> | spoof:<action> | reorder:<window>
  --seed N         base fleet seed (default 3930)
  --stats          print events/sec, per-stage timings, shard balance
  --deadline-ms N  stop at the next stream boundary after N ms; a clean
                   partial report exits 3, violations still exit 1
  --retries N      retries per panicked stream (default 2)
  --stats-json F   write span/counter/histogram statistics (fsa-obs/v1) to F
  --trace-json F   write a chrome://tracing view of the run to F";

pub(crate) const ELICIT_USAGE: &str = "usage:
  fsa elicit <spec-file> [--param] [--refine] [--prioritise] [--dot] [--markdown] [--verify-dataflow] [--stats] [--threads=N]

Run the §4 manual elicitation pipeline on every instance of the spec.
  --param            add first-order (parameterised) requirement forms
  --refine           add hop decompositions and dependency chains
  --prioritise       rank requirements
  --dot              print the functional flow graph as Graphviz DOT
  --markdown         render the report as a markdown table
  --verify-dataflow  cross-check against the §5 tool-assisted pipeline
  --stats            print §5 engine statistics (with --verify-dataflow)
  --threads=N        worker threads for the dependence grid
  --stats-json F     write span/counter statistics (fsa-obs/v1 JSON) to F
  --trace-json F     write a chrome://tracing view of the run to F";

pub(crate) const ELICIT_SCENARIO_USAGE: &str = "usage:
  fsa elicit --scenario two|chain|attacked|six [--edit-script F] [--threads N]

Run the §5 tool-assisted elicitation pipeline on a named scenario APA.
The `two` and `six` scenarios are *editable*: their component models
support typed deltas, and the incremental engine re-elicits after each
edit reusing every untouched fragment's memoised analysis.
  --scenario S     two | chain | attacked | six
  --edit-script F  apply an edit script (one delta or `elicit` per
                   line; # comments); every `elicit` step appends one
                   report, and a missing final `elicit` is implied.
                   Requires an editable scenario (two or six).
                   Delta vocabulary:
                     add-component NAME [VALUE...]
                     remove-component NAME
                     set-initial NAME [VALUE...]
                     add-flow NAME KIND FROM TO
                     remove-flow NAME
                     rewire-flow NAME FROM TO
                     retag-stakeholder AUTOMATON AGENT
  --threads N      worker threads for the dependence grids (the report
                   is bit-identical for any value; default 1)
  --stats-json F   write span/counter statistics (fsa-obs/v1 JSON) to F
                   (includes the elicit.memo.* incremental counters)
  --trace-json F   write a chrome://tracing view of the run to F";

pub(crate) const CHECK_USAGE: &str = "usage:
  fsa check <spec-file>

Parse and validate a specification (exit code 1 on errors).";

pub(crate) const SERVE_USAGE: &str = "usage:
  fsa serve [--addr HOST:PORT] [--queue N] [--max-frame BYTES] [--cache-cap N] [--frame-deadline-ms N] [--idle-ms N] [--max-conns N] [--stats-json F] [--trace-json F]
  fsa serve --connect ADDR [--spec F] [--scenario S] [--request \"CMD ARGS\"]... [--edit \"DELTA\"]... [--deadline-ms N] [--chaos-seed N] [--drain]

Run (or talk to) the resident analysis service speaking fsa-wire/v1
(4-byte big-endian length-prefixed JSON frames over TCP).

Server mode — holds parsed models resident so repeated session queries
skip specification parsing and APA reachability:
  --addr HOST:PORT  listen address (default 127.0.0.1:0; the chosen
                    port is printed as `listening on HOST:PORT`)
  --queue N         bounded per-session request queue (default 8);
                    a full queue answers `overloaded` (backpressure)
  --max-frame N     per-frame payload limit in bytes (default 1048576)
  --cache-cap N     bounded per-session response cache (default 64
                    entries, FIFO eviction; edits clear it)
  --frame-deadline-ms N  per-frame read/write budget (default 10000);
                    a peer that starts a frame and stalls past it is
                    answered `slow-peer` and disconnected
  --idle-ms N       idle-session limit (default 300000); reaped
                    sessions answer later requests `session-expired`
  --max-conns N     accept-side connection cap (default 256); excess
                    connections get a typed `overloaded` and close
  --stats-json F    write serve.* span/counter statistics on shutdown
  --trace-json F    write a chrome://tracing view on shutdown
The server drains gracefully on SIGTERM or a client `drain` frame:
in-flight requests finish, new ones get a typed `draining` error.

Client mode:
  --connect ADDR    connect to a listening server
  --spec F          open the session over spec file F (read locally,
                    shipped in the `open` frame)
  --scenario S      open the session over scenario S (two|chain|
                    attacked|six)
  --request \"C A\"   queue command C with arguments A (repeatable);
                    responses print to stdout/stderr verbatim
  --edit \"DELTA\"    apply one model delta to the session's editable
                    scenario (repeatable; interleaves with --request
                    in flag order), e.g. --edit \"set-initial gps1 50\"
  --deadline-ms N   per-request deadline, measured from receipt
  --chaos-seed N    (chaos builds only) inject seeded benign network
                    faults on this client's socket; the session must
                    heal to the same bytes as a clean run
  --drain           ask the server to drain after the last response";

/// Exit code 3: the deadline expired and the run degraded to a clean
/// partial result (violations/errors keep exit code 1).
pub const EXIT_PARTIAL: u8 = 3;

/// Returns `true` if `rest` asks for help; the caller renders its usage
/// text to stdout and exits 0.
fn wants_help(rest: &[String]) -> bool {
    rest.iter().any(|a| a == "--help" || a == "-h")
}

/// Usage text on stdout, exit 0 (the `--help` path).
#[must_use]
pub fn help(usage: &str) -> Rendered {
    Rendered {
        stdout: format!("{usage}\n"),
        ..Rendered::default()
    }
}

/// Global usage on stderr, exit 2.
fn usage() -> Rendered {
    Rendered {
        stderr: format!("{GLOBAL_USAGE}\n"),
        exit: 2,
        ..Rendered::default()
    }
}

/// Builds a [`fsa_exec::Supervisor`] from the shared `--deadline-ms` /
/// `--retries` flags. A request-level deadline from the [`ServiceCtx`]
/// is used when no flag deadline was given (the token was created at
/// request receipt, so queue wait counts against the budget).
fn build_supervisor(
    deadline_ms: Option<u64>,
    retries: Option<u32>,
    ctx: &ServiceCtx,
) -> fsa_exec::Supervisor {
    let mut sup = fsa_exec::Supervisor::new();
    if let Some(ms) = deadline_ms {
        sup = sup.with_cancel(fsa_exec::CancelToken::with_deadline(
            std::time::Duration::from_millis(ms),
        ));
    } else if let Some(token) = &ctx.cancel {
        sup = sup.with_cancel(token.clone());
    }
    if let Some(r) = retries {
        sup.retry.max_retries = r;
    }
    sup
}

/// The shared `--stats-json F` / `--trace-json F` export spec.
///
/// When neither flag is given and the host supplies no recording
/// handle, the run uses the disabled [`fsa_obs::Obs`] handle — a single
/// branch per probe, no allocation, no locking — and the printed output
/// is byte-identical to builds that predate the observability layer.
#[derive(Default)]
pub struct ObsOutputs {
    /// `--stats-json F`: write fsa-obs/v1 statistics to F.
    pub stats_json: Option<String>,
    /// `--trace-json F`: write a chrome://tracing view to F.
    pub trace_json: Option<String>,
}

impl ObsOutputs {
    /// `true` when at least one export path was requested.
    #[must_use]
    pub fn requested(&self) -> bool {
        self.stats_json.is_some() || self.trace_json.is_some()
    }

    /// The recording handle for this run: the host's (server registry)
    /// when it is enabled, else an enabled handle iff an export was
    /// requested.
    #[must_use]
    pub fn obs(&self, ctx: &ServiceCtx) -> fsa_obs::Obs {
        if ctx.obs.is_enabled() {
            ctx.obs.clone()
        } else if self.requested() {
            fsa_obs::Obs::enabled()
        } else {
            fsa_obs::Obs::disabled()
        }
    }

    /// Collects the requested exports from a snapshot of `obs` as
    /// rendered artefacts (the host materialises them; see [`emit`]).
    pub fn collect(&self, obs: &fsa_obs::Obs, r: &mut Rendered) {
        if !self.requested() {
            return;
        }
        let snapshot = obs.snapshot();
        if let Some(path) = &self.stats_json {
            r.artefacts.push((path.clone(), snapshot.to_stats_json()));
        }
        if let Some(path) = &self.trace_json {
            r.artefacts.push((path.clone(), snapshot.to_trace_json()));
        }
    }
}

/// Entry point for the one-shot binary: dispatches, prints the rendered
/// buffers verbatim, materialises artefacts, returns the exit code.
/// `fsa serve` is routed to the (live, long-running) server instead.
pub fn main(args: &[String]) -> u8 {
    if args.first().map(String::as_str) == Some("serve") {
        return crate::server::serve_command(&args[1..]);
    }
    emit(&dispatch(args))
}

/// Routes one argument vector to its runner (one-shot context).
pub fn dispatch(args: &[String]) -> Rendered {
    let ctx = ServiceCtx::one_shot();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => return usage(),
    };
    if matches!(command, "--help" | "-h" | "help") {
        return help(GLOBAL_USAGE);
    }
    match command {
        "explore" => run_explore(rest, &ctx),
        "simulate" => run_simulate(rest, None, &ctx),
        "monitor" => run_monitor(rest, None, &ctx),
        // `elicit --scenario` analyses a named scenario APA (optionally
        // through an edit script); `elicit <spec-file>` stays the §4
        // manual pipeline.
        "elicit"
            if rest
                .iter()
                .any(|a| a == "--scenario" || a.starts_with("--scenario=")) =>
        {
            run_elicit_scenario(rest, None, &ctx)
        }
        "check" | "elicit" => run_spec(command, rest, None, &ctx),
        "serve" if wants_help(rest) => help(SERVE_USAGE),
        // The one-shot binary intercepts these before dispatch (they are
        // live, long-running commands); reaching here means the context
        // has no distributed runtime (e.g. a resident server session).
        "coordinate" | "work" => Rendered::failure(&format!(
            "`{command}` is only available from the one-shot `fsa` binary"
        )),
        other => Rendered::usage_error(&format!("unknown command `{other}`"), GLOBAL_USAGE),
    }
}

/// Prints a [`Rendered`] outcome exactly as the pre-serve CLI did:
/// stdout, stderr, artefact writes (first failure reports
/// `cannot write PATH` and exits 1), then the recorded exit code.
pub fn emit(r: &Rendered) -> u8 {
    use std::io::Write as _;
    print!("{}", r.stdout);
    let _ = std::io::stdout().flush();
    eprint!("{}", r.stderr);
    let _ = std::io::stderr().flush();
    for (path, contents) in &r.artefacts {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
    }
    r.exit
}

/// The flags of `fsa check` and `fsa elicit <spec-file>`.
#[derive(Default)]
struct SpecFlags {
    files: Vec<String>,
    param: bool,
    refine: bool,
    prioritise: bool,
    dot: bool,
    markdown: bool,
    verify_dataflow: bool,
    stats: bool,
    threads: Option<usize>,
    outputs: ObsOutputs,
}

const CHECK: Table<SpecFlags> = Table {
    positionals: Some(|f| &mut f.files),
    unknown_with_value: true,
    ..Table::new(
        CHECK_USAGE,
        &[
            ("stats-json", Kind::Text(|f| &mut f.outputs.stats_json)),
            ("trace-json", Kind::Text(|f| &mut f.outputs.trace_json)),
        ],
    )
};

const ELICIT: Table<SpecFlags> = Table {
    positionals: Some(|f| &mut f.files),
    unknown_with_value: true,
    ..Table::new(
        ELICIT_USAGE,
        &[
            ("param", Kind::Switch(|f| &mut f.param)),
            ("refine", Kind::Switch(|f| &mut f.refine)),
            ("prioritise", Kind::Switch(|f| &mut f.prioritise)),
            ("dot", Kind::Switch(|f| &mut f.dot)),
            ("markdown", Kind::Switch(|f| &mut f.markdown)),
            ("verify-dataflow", Kind::Switch(|f| &mut f.verify_dataflow)),
            ("stats", Kind::Switch(|f| &mut f.stats)),
            ("threads", Kind::Positive(|f| &mut f.threads)),
            ("stats-json", Kind::Text(|f| &mut f.outputs.stats_json)),
            ("trace-json", Kind::Text(|f| &mut f.outputs.trace_json)),
        ],
    )
};

/// `fsa check` / `fsa elicit` over a spec file (one-shot: parses
/// `rest`'s positional file; session: answers from the preloaded
/// [`LoadedModel`], skipping `speclang` entirely).
pub fn run_spec(
    command: &str,
    rest: &[String],
    model: Option<&LoadedModel>,
    ctx: &ServiceCtx,
) -> Rendered {
    let table = if command == "check" { &CHECK } else { &ELICIT };
    let usage_text = table.usage;
    if wants_help(rest) {
        return help(usage_text);
    }
    let mut f = SpecFlags::default();
    if let Err(r) = table.parse(rest, &[], &mut f) {
        return r;
    }
    let parsed: Vec<fsa_core::SosInstance>;
    let (label, instances): (String, &[fsa_core::SosInstance]) = match model {
        Some(m) => {
            if let Some(extra) = f.files.first() {
                return Rendered::usage_error(
                    &format!("unexpected spec file `{extra}` (the session model is fixed at open)"),
                    usage_text,
                );
            }
            (m.name().to_owned(), m.instances())
        }
        None => {
            let [file] = f.files.as_slice() else {
                return Rendered::usage_error("expected exactly one spec file", usage_text);
            };
            let source = match std::fs::read_to_string(file) {
                Ok(s) => s,
                Err(e) => return Rendered::failure(&format!("cannot read {file}: {e}")),
            };
            match speclang::parse(&source) {
                Ok(i) => parsed = i,
                Err(e) => return Rendered::failure(&format!("{file}:{e}")),
            }
            (file.clone(), parsed.as_slice())
        }
    };
    let obs = f.outputs.obs(ctx);
    let mut r = Rendered::success();
    match command {
        "check" => {
            let _ = writeln!(
                r.stdout,
                "{label}: OK ({} instance(s), {} action(s) total)",
                instances.len(),
                instances.iter().map(|i| i.action_count()).sum::<usize>()
            );
        }
        "elicit" => {
            for (i, instance) in instances.iter().enumerate() {
                let report = match elicit(instance) {
                    Ok(rep) => rep,
                    Err(e) => {
                        let _ = writeln!(r.stderr, "{}: {e}", instance.name());
                        r.exit = 1;
                        return r;
                    }
                };
                if f.markdown {
                    let _ = write!(r.stdout, "{}", fsa_core::report::render_markdown(&report));
                } else {
                    let _ = write!(r.stdout, "{}", render_manual(&report));
                }
                if f.prioritise {
                    match fsa_core::prioritise::prioritise(instance, &report) {
                        Ok(ranked) => {
                            let _ = writeln!(r.stdout, "prioritised requirements:");
                            for item in ranked {
                                let _ = writeln!(r.stdout, "  {item}");
                            }
                        }
                        Err(e) => {
                            let _ = writeln!(r.stderr, "prioritisation failed: {e}");
                        }
                    }
                }
                if f.param {
                    let _ = writeln!(r.stdout, "parameterised requirements:");
                    for form in parameterise(&report.requirement_set(), 2) {
                        let _ = writeln!(r.stdout, "  {form}");
                    }
                }
                if f.refine {
                    let _ = writeln!(r.stdout, "hop refinements:");
                    for req in report.requirements() {
                        match refine(instance, &req) {
                            Ok(refined) if refined.is_decomposed() => {
                                let _ = writeln!(r.stdout, "  {req}");
                                for hop in &refined.hops {
                                    let _ = writeln!(r.stdout, "    -> {hop}");
                                }
                            }
                            Ok(_) => {
                                let _ = writeln!(r.stdout, "  {req}  (atomic)");
                            }
                            Err(e) => {
                                let _ = writeln!(r.stdout, "  {req}  (refinement failed: {e})");
                            }
                        }
                    }
                    // Dependency-chain explanations.
                    let _ = writeln!(r.stdout, "dependency chains:");
                    for req in report.requirements() {
                        if let Some(chain) = explain(instance, &req) {
                            let rendered: Vec<String> =
                                chain.iter().map(ToString::to_string).collect();
                            let _ = writeln!(r.stdout, "  {}", rendered.join(" -> "));
                        }
                    }
                }
                if f.dot {
                    let _ = write!(
                        r.stdout,
                        "{}",
                        to_dot(instance.graph(), &DotOptions::default(), |_, a| a
                            .to_string())
                    );
                }
                if f.verify_dataflow {
                    match cross_check(instance, &report, f.threads.unwrap_or(1), &obs) {
                        Ok(stats) => {
                            let _ = writeln!(
                                r.stdout,
                                "tool-assisted cross-check: requirement sets match"
                            );
                            if f.stats {
                                let _ =
                                    write!(r.stdout, "{}", fsa_core::report::render_stats(&stats));
                            }
                        }
                        Err(e) => {
                            let _ = writeln!(r.stderr, "tool-assisted cross-check FAILED: {e}");
                            r.exit = 1;
                            return r;
                        }
                    }
                } else if f.stats && i == 0 {
                    // Once per run, not once per instance.
                    let _ = writeln!(
                        r.stderr,
                        "note: --stats requires --verify-dataflow (the §5 pipeline)"
                    );
                }
                r.stdout.push('\n');
            }
        }
        _ => unreachable!("dispatched above"),
    }
    f.outputs.collect(&obs, &mut r);
    r
}

/// Derives the dataflow APA, runs the §5 pipeline fragment by fragment
/// and compares. Returns the engine's per-stage statistics on success.
fn cross_check(
    instance: &fsa_core::SosInstance,
    report: &fsa_core::manual::ElicitationReport,
    threads: usize,
    obs: &fsa_obs::Obs,
) -> Result<fsa_core::assisted::PipelineStats, String> {
    let apa = dataflow_apa(instance).map_err(|e| e.to_string())?;
    let assisted = fsa_core::assisted::elicit_apa(
        &apa,
        &fsa_core::assisted::ElicitOptions::service(threads),
        obs,
        |name| {
            let action = fsa_core::Action::parse(name);
            instance
                .find(&action)
                .map(|n| instance.stakeholder(n).clone())
                .unwrap_or_else(|| fsa_core::Agent::new("env"))
        },
    )
    .map_err(|e| match e {
        // Exploration errors print without `FsaError`'s prefix, as
        // `fsa elicit` has always printed them.
        fsa_core::FsaError::Apa(e) => e.to_string(),
        e => e.to_string(),
    })?;
    if assisted.requirements == report.requirement_set() {
        Ok(assisted.stats)
    } else {
        Err(format!(
            "manual elicited {} requirement(s), tool-assisted {}",
            report.requirement_set().len(),
            assisted.requirements.len()
        ))
    }
}

/// The flags of `fsa elicit --scenario`.
#[derive(Default)]
struct ElicitScenarioFlags {
    scenario: Option<String>,
    edit_script: Option<String>,
    threads: Option<usize>,
    outputs: ObsOutputs,
}

const ELICIT_SCENARIO: Table<ElicitScenarioFlags> = Table::new(
    ELICIT_SCENARIO_USAGE,
    &[
        ("scenario", Kind::Text(|f| &mut f.scenario)),
        ("edit-script", Kind::Text(|f| &mut f.edit_script)),
        ("threads", Kind::Positive(|f| &mut f.threads)),
        ("stats-json", Kind::Text(|f| &mut f.outputs.stats_json)),
        ("trace-json", Kind::Text(|f| &mut f.outputs.trace_json)),
    ],
);

/// A session's scenario is fixed when it opens.
const SCENARIO_FIXED: &[(&str, &str)] = &[("scenario", "--scenario is fixed at session open")];

/// A session elicits under its fixed scenario and applies edits through
/// `edit` frames.
const ELICIT_SESSION_FIXED: &[(&str, &str)] = &[
    SCENARIO_FIXED[0],
    (
        "edit-script",
        "--edit-script is a one-shot flag (sessions apply edits through `edit` frames)",
    ),
];

/// `fsa elicit --scenario` — the §5 tool-assisted pipeline over a named
/// scenario APA, optionally driven through an `--edit-script` of typed
/// model deltas (editable scenarios only). With a session model the
/// scenario is fixed at open and edits arrive as `edit` frames instead;
/// the rendered blocks are byte-identical either way, so a session
/// transcript diffs cleanly against the equivalent one-shot runs.
pub fn run_elicit_scenario(
    rest: &[String],
    model: Option<&mut ScenarioModel>,
    ctx: &ServiceCtx,
) -> Rendered {
    use crate::engines::render_elicited;
    use fsa_core::delta::{parse_script, ScriptStep};

    if wants_help(rest) {
        return help(ELICIT_SCENARIO_USAGE);
    }
    let fixed = if model.is_some() {
        ELICIT_SESSION_FIXED
    } else {
        &[]
    };
    let mut f = ElicitScenarioFlags::default();
    if let Err(r) = ELICIT_SCENARIO.parse(rest, fixed, &mut f) {
        return r;
    }
    let threads = f.threads.unwrap_or(1);

    let mut built;
    let model_ref: &mut ScenarioModel = match model {
        Some(m) => m,
        None => {
            let Some(name) = f.scenario else {
                return Rendered::usage_error(
                    "--scenario expects a value (two|chain|attacked|six)",
                    ELICIT_SCENARIO_USAGE,
                );
            };
            match ScenarioModel::load(&name) {
                Ok(m) => built = m,
                Err(e) => {
                    return Rendered {
                        stderr: format!("{e} (expected two, chain, attacked or six)\n"),
                        exit: 2,
                        ..Rendered::default()
                    }
                }
            }
            &mut built
        }
    };

    let obs = f.outputs.obs(ctx);
    let mut r = Rendered::success();
    match f.edit_script {
        None => match model_ref.elicit_report(threads, &obs) {
            Ok(report) => r
                .stdout
                .push_str(&render_elicited(model_ref.name(), &report)),
            Err(e) => return Rendered::failure(&e),
        },
        Some(path) => {
            if !model_ref.is_editable() {
                return Rendered::usage_error(
                    &format!(
                        "--edit-script requires an editable scenario (two or six), not `{}`",
                        model_ref.name()
                    ),
                    ELICIT_SCENARIO_USAGE,
                );
            }
            let source = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => return Rendered::failure(&format!("cannot read {path}: {e}")),
            };
            let steps = match parse_script(&source) {
                Ok(s) => s,
                Err(e) => return Rendered::failure(&format!("{path}: {e}")),
            };
            // Each run of consecutive deltas is one batch, applied as a
            // served `edit` frame applies its lines: one clone and one
            // APA compile per run. A delta that applies always compiles,
            // so a batch fails at the delta where one-by-one application
            // would. `parse_script` ends every script with an `elicit`
            // step, so no batch is left over.
            let mut batch = Vec::new();
            for step in steps {
                if let ScriptStep::Delta(d) = step {
                    batch.push(d);
                    continue;
                }
                if !batch.is_empty() {
                    if let Err(e) = model_ref.apply_deltas(&batch, &obs) {
                        return Rendered::failure(&format!("edit failed: {e}"));
                    }
                    batch.clear();
                }
                match model_ref.elicit_report(threads, &obs) {
                    Ok(report) => r
                        .stdout
                        .push_str(&render_elicited(model_ref.name(), &report)),
                    Err(e) => return Rendered::failure(&e),
                }
            }
        }
    }
    f.outputs.collect(&obs, &mut r);
    r
}

/// One `fsa explore --distributed` invocation, handed to the engine
/// registered with [`register_distributed_engine`].
pub struct DistributedRequest {
    /// Universe bound (`--max-vehicles`).
    pub max_vehicles: usize,
    /// Local worker processes to spawn (`--workers`).
    pub workers: usize,
    /// Shard count (`--shards`; `None` selects the engine default).
    pub shards: Option<usize>,
    /// Shard lease duration in milliseconds (`--lease-ms`).
    pub lease_ms: u64,
    /// Directory for coordinator state and worker shard checkpoints
    /// (`--state-dir`; `None` selects a temporary directory).
    pub state_dir: Option<String>,
    /// Worker threads per worker process (`--threads`).
    pub threads: usize,
    /// Candidate budget (`--budget`; `None` selects the engine
    /// default).
    pub budget: Option<usize>,
    /// Drop disconnected compositions (absence of `--all`).
    pub require_connected: bool,
    /// The recording handle: the engine adds its `dist.*` counters and
    /// mirrors the merged explore counters here.
    pub obs: fsa_obs::Obs,
}

/// The engine behind `fsa explore --distributed`: spawns a local
/// coordinator plus worker processes and returns the merged universe,
/// or a display-ready error.
pub type DistributedEngine = fn(&DistributedRequest) -> Result<fsa_core::explore::Universe, String>;

static DISTRIBUTED: std::sync::OnceLock<DistributedEngine> = std::sync::OnceLock::new();

/// Registers the distributed-exploration engine. The `fsa` binary
/// registers `fsa_dist`'s local driver at startup; contexts without one
/// (e.g. resident server sessions) leave it unset and `--distributed`
/// fails with a typed message. The first registration wins; later calls
/// are ignored.
pub fn register_distributed_engine(engine: DistributedEngine) {
    let _ = DISTRIBUTED.set(engine);
}

/// Renders an exploration exactly as `fsa explore` does: the
/// [`render_universe`] report of the class list it wraps. `threads` has
/// no work left (the union is the engine's, already computed) and is
/// ignored; it stays for callers of this signature.
#[must_use]
pub fn render_exploration(
    exploration: &fsa_core::explore::Exploration,
    max_vehicles: usize,
    all: bool,
    stats: bool,
    _threads: usize,
) -> Rendered {
    render_universe(&exploration.universe, max_vehicles, all, stats)
}

/// The one `fsa explore` report: universe header, one line per class,
/// the requirement union over the classes, and (optionally) the stats
/// block. A run that was cancelled or lost chunks says so and exits
/// [`EXIT_PARTIAL`]; its union covers the classes it found. A budget
/// truncation is reported by the header alone. The distributed
/// coordinator renders its merged universe here too, so distributed
/// output is byte-identical to single-process output by construction.
#[must_use]
pub fn render_universe(
    universe: &fsa_core::explore::Universe,
    max_vehicles: usize,
    all: bool,
    stats: bool,
) -> Rendered {
    let mut r = Rendered::success();
    let s = &universe.stats;
    let _ = writeln!(
        r.stdout,
        "universe with 1 RSU and up to {max_vehicles} vehicle(s): {} structurally \
         different {}instance(s){}",
        universe.classes.len(),
        if all { "" } else { "connected " },
        if s.truncated {
            " (truncated at budget)"
        } else {
            ""
        }
    );
    for class in &universe.classes {
        let _ = writeln!(
            r.stdout,
            "  {:32} {} action(s), {} flow(s)",
            class.vector, class.actions, class.flows
        );
    }
    let mut partial = false;
    if s.cancelled {
        let _ = writeln!(
            r.stdout,
            "partial universe: vector coverage {}/{} (deadline or quarantined chunks)",
            s.vectors_completed, s.vectors_total
        );
        partial = true;
    }
    if s.failures > 0 {
        let _ = writeln!(
            r.stdout,
            "quarantined worker chunks: {} (after {} retried panic(s))",
            s.failures, s.retries
        );
        partial = true;
    }
    let _ = writeln!(
        r.stdout,
        "union over the universe: {} requirement(s) ({} cyclic composition(s) skipped)",
        universe.requirements.len(),
        universe.loop_skipped
    );
    for req in universe.requirements.iter() {
        let _ = writeln!(r.stdout, "  {req}");
    }
    if stats {
        let _ = write!(r.stdout, "{s}");
    }
    if partial {
        r.exit = EXIT_PARTIAL;
    }
    r
}

/// The flags of `fsa explore`.
#[derive(Default)]
struct ExploreFlags {
    max_vehicles: Option<usize>,
    threads: Option<usize>,
    budget: Option<usize>,
    truncate: bool,
    all: bool,
    stats: bool,
    deadline_ms: Option<u64>,
    retries: Option<u32>,
    checkpoint: Option<String>,
    checkpoint_every: Option<usize>,
    resume: Option<String>,
    distributed: bool,
    workers: Option<usize>,
    shards: Option<usize>,
    lease_ms: Option<usize>,
    state_dir: Option<String>,
    outputs: ObsOutputs,
}

const EXPLORE: Table<ExploreFlags> = Table::new(
    EXPLORE_USAGE,
    &[
        ("max-vehicles", Kind::Positive(|f| &mut f.max_vehicles)),
        ("threads", Kind::Positive(|f| &mut f.threads)),
        ("budget", Kind::Positive(|f| &mut f.budget)),
        ("truncate", Kind::Switch(|f| &mut f.truncate)),
        ("all", Kind::Switch(|f| &mut f.all)),
        ("stats", Kind::Switch(|f| &mut f.stats)),
        ("deadline-ms", Kind::Unsigned(|f| &mut f.deadline_ms)),
        ("retries", Kind::U32(|f| &mut f.retries)),
        ("checkpoint", Kind::Text(|f| &mut f.checkpoint)),
        (
            "checkpoint-every",
            Kind::Positive(|f| &mut f.checkpoint_every),
        ),
        ("resume", Kind::Text(|f| &mut f.resume)),
        ("distributed", Kind::Switch(|f| &mut f.distributed)),
        ("workers", Kind::Positive(|f| &mut f.workers)),
        ("shards", Kind::Positive(|f| &mut f.shards)),
        ("lease-ms", Kind::Positive(|f| &mut f.lease_ms)),
        ("state-dir", Kind::Text(|f| &mut f.state_dir)),
        ("stats-json", Kind::Text(|f| &mut f.outputs.stats_json)),
        ("trace-json", Kind::Text(|f| &mut f.outputs.trace_json)),
    ],
);

/// `fsa explore` — enumerate the vehicular instance space (§4.2) and
/// union the elicited requirements (§4.4) with the streaming
/// certificate engine.
pub fn run_explore(rest: &[String], ctx: &ServiceCtx) -> Rendered {
    use fsa_core::explore::{BudgetPolicy, CheckpointSpec, ExecOptions, ExploreOptions};

    if wants_help(rest) {
        return help(EXPLORE_USAGE);
    }
    let mut f = ExploreFlags::default();
    if let Err(r) = EXPLORE.parse(rest, &[], &mut f) {
        return r;
    }
    let max_vehicles = f.max_vehicles.unwrap_or(2);
    let threads = f.threads.unwrap_or(1);

    if !f.distributed
        && (f.workers.is_some()
            || f.shards.is_some()
            || f.lease_ms.is_some()
            || f.state_dir.is_some())
    {
        return Rendered::usage_error(
            "--workers/--shards/--lease-ms/--state-dir require --distributed",
            EXPLORE_USAGE,
        );
    }
    if f.checkpoint_every.is_some() && f.checkpoint.is_none() {
        return Rendered::usage_error("--checkpoint-every requires --checkpoint", EXPLORE_USAGE);
    }
    let obs = f.outputs.obs(ctx);
    let supervisor = build_supervisor(f.deadline_ms, f.retries, ctx).with_obs(obs.clone());
    let universe = if f.distributed {
        if f.truncate
            || f.deadline_ms.is_some()
            || f.retries.is_some()
            || f.checkpoint.is_some()
            || f.resume.is_some()
        {
            return Rendered::usage_error(
                "--distributed cannot be combined with --truncate, --deadline-ms, --retries, \
                 --checkpoint, or --resume (workers checkpoint their own shards)",
                EXPLORE_USAGE,
            );
        }
        let Some(engine) = DISTRIBUTED.get() else {
            return Rendered::failure(
                "distributed exploration is only available from the one-shot `fsa` binary",
            );
        };
        let request = DistributedRequest {
            max_vehicles,
            workers: f.workers.unwrap_or(2),
            shards: f.shards,
            lease_ms: f.lease_ms.map_or(2000, |ms| ms as u64),
            state_dir: f.state_dir,
            threads,
            budget: f.budget,
            require_connected: !f.all,
            obs: obs.clone(),
        };
        match engine(&request) {
            Ok(u) => u,
            Err(e) => return Rendered::failure(&format!("distributed exploration failed: {e}")),
        }
    } else {
        let options = ExploreOptions {
            require_connected: !f.all,
            max_candidates: f.budget.unwrap_or(ExploreOptions::default().max_candidates),
            on_budget: if f.truncate {
                BudgetPolicy::Truncate
            } else {
                BudgetPolicy::Error
            },
            threads,
            obs: obs.clone(),
            ..ExploreOptions::default()
        };
        let exec = ExecOptions {
            supervisor,
            checkpoint: f.checkpoint.map(|p| CheckpointSpec {
                path: p.into(),
                every: f.checkpoint_every.unwrap_or(256),
            }),
            resume: f.resume.map(Into::into),
            ..ExecOptions::default()
        };
        match vanet::exploration::explore_scenario_universe(max_vehicles, &options, &exec) {
            Ok(u) => u,
            Err(e) => return Rendered::failure(&format!("exploration failed: {e}")),
        }
    };
    let mut r = render_universe(&universe, max_vehicles, f.all, f.stats);
    f.outputs.collect(&obs, &mut r);
    r
}

/// Warns (stderr, exit unchanged) when an injected `drop:`/`spoof:`
/// fault names an automaton absent from the scenario APA — the fault
/// predicate matches events by automaton name, so such a fault silently
/// matches nothing.
fn warn_unmatched_fault(r: &mut Rendered, fault: Option<&apa::Fault>, apa: &apa::Apa, scen: &str) {
    let Some(fault) = fault else { return };
    let Some(action) = fault.action() else { return };
    if !apa.automaton_names().any(|n| n == action) {
        let _ = writeln!(
            r.stderr,
            "warning: --inject {fault}: no automaton named `{action}` in scenario `{scen}`; \
             the fault cannot match any event"
        );
    }
}

/// The flags of `fsa simulate`.
#[derive(Default)]
struct SimulateFlags {
    scenario: Option<String>,
    seed: Option<u64>,
    max_steps: Option<usize>,
    inject: Option<apa::Fault>,
    outputs: ObsOutputs,
}

const SIMULATE: Table<SimulateFlags> = Table::new(
    SIMULATE_USAGE,
    &[
        ("scenario", Kind::Text(|f| &mut f.scenario)),
        ("seed", Kind::Unsigned(|f| &mut f.seed)),
        ("max-steps", Kind::Positive(|f| &mut f.max_steps)),
        ("inject", Kind::Fault(|f| &mut f.inject)),
        ("stats-json", Kind::Text(|f| &mut f.outputs.stats_json)),
        ("trace-json", Kind::Text(|f| &mut f.outputs.trace_json)),
    ],
);

/// `fsa simulate` — one seeded simulator run with a trace printout.
/// With a session model, the scenario APA is resolved once at open and
/// `--scenario` is rejected.
pub fn run_simulate(rest: &[String], model: Option<&ScenarioModel>, ctx: &ServiceCtx) -> Rendered {
    if wants_help(rest) {
        return help(SIMULATE_USAGE);
    }
    let mut f = SimulateFlags::default();
    let fixed = if model.is_some() { SCENARIO_FIXED } else { &[] };
    if let Err(r) = SIMULATE.parse(rest, fixed, &mut f) {
        return r;
    }
    let mut scenario = f.scenario.unwrap_or_else(|| "two".to_owned());
    let seed = f.seed.unwrap_or(1);
    let max_steps = f.max_steps.unwrap_or(100);

    let built;
    let apa_ref: &apa::Apa = match model {
        Some(m) => {
            scenario = m.name().to_owned();
            m.apa()
        }
        None => match scenario_apa(&scenario) {
            Ok(a) => {
                built = a;
                &built
            }
            Err(e) => {
                return Rendered {
                    stderr: format!("{e} (expected two, chain, attacked or six)\n"),
                    exit: 2,
                    ..Rendered::default()
                }
            }
        },
    };
    let mut r = Rendered::success();
    warn_unmatched_fault(&mut r, f.inject.as_ref(), apa_ref, &scenario);
    let obs = f.outputs.obs(ctx);
    let span = obs.span("simulate");
    let mut sim = apa::sim::Simulator::new(apa_ref, seed);
    let steps = match sim.run(max_steps) {
        Ok(s) => s,
        Err(e) => {
            let _ = writeln!(r.stderr, "simulation failed: {e}");
            r.exit = 1;
            return r;
        }
    };
    drop(span);
    obs.counter_add("simulate.steps", steps as u64);
    if let Some(fault) = &f.inject {
        sim.inject(fault);
        let _ = writeln!(
            r.stdout,
            "scenario {scenario}, seed {seed}: {steps} step(s), fault {fault}"
        );
    } else {
        let _ = writeln!(
            r.stdout,
            "scenario {scenario}, seed {seed}: {steps} step(s)"
        );
    }
    let _ = writeln!(r.stdout, "trace: {}", sim.trace_names().join(" → "));
    obs.counter_add("simulate.trace_events", sim.trace_names().len() as u64);
    f.outputs.collect(&obs, &mut r);
    r
}

/// The flags of `fsa monitor`.
#[derive(Default)]
struct MonitorFlags {
    scenario: Option<String>,
    streams: Option<usize>,
    events: Option<usize>,
    threads: Option<usize>,
    seed: Option<u64>,
    inject: Option<apa::Fault>,
    stats: bool,
    deadline_ms: Option<u64>,
    retries: Option<u32>,
    outputs: ObsOutputs,
}

const MONITOR: Table<MonitorFlags> = Table::new(
    MONITOR_USAGE,
    &[
        ("scenario", Kind::Text(|f| &mut f.scenario)),
        ("streams", Kind::Positive(|f| &mut f.streams)),
        ("events", Kind::Positive(|f| &mut f.events)),
        ("threads", Kind::Positive(|f| &mut f.threads)),
        ("seed", Kind::Unsigned(|f| &mut f.seed)),
        ("inject", Kind::Fault(|f| &mut f.inject)),
        ("stats", Kind::Switch(|f| &mut f.stats)),
        ("deadline-ms", Kind::Unsigned(|f| &mut f.deadline_ms)),
        ("retries", Kind::U32(|f| &mut f.retries)),
        ("stats-json", Kind::Text(|f| &mut f.outputs.stats_json)),
        ("trace-json", Kind::Text(|f| &mut f.outputs.trace_json)),
    ],
);

/// `fsa monitor` — elicit, compile the monitor bank, check a fleet.
/// With a session model, the scenario APA *and its elicited requirement
/// set* persist across requests: the second monitor query skips
/// reachability and elicitation entirely.
pub fn run_monitor(
    rest: &[String],
    model: Option<&mut ScenarioModel>,
    ctx: &ServiceCtx,
) -> Rendered {
    if wants_help(rest) {
        return help(MONITOR_USAGE);
    }
    let mut f = MonitorFlags::default();
    let fixed = if model.is_some() { SCENARIO_FIXED } else { &[] };
    if let Err(r) = MONITOR.parse(rest, fixed, &mut f) {
        return r;
    }
    let mut scenario = f.scenario.unwrap_or_else(|| "chain".to_owned());
    let streams = f.streams.unwrap_or(8);
    if let Some(m) = &model {
        scenario = m.name().to_owned();
    }
    if !matches!(scenario.as_str(), "chain" | "six") {
        return Rendered {
            stderr: format!("unknown scenario `{scenario}` (expected chain or six)\n"),
            exit: 2,
            ..Rendered::default()
        };
    }

    // Elicit the scenario's requirements from its honest behaviour
    // (§5 tool-assisted pipeline), then compile and stream. A session
    // model memoises the elicited set; one-shot loads the same model.
    let mut built;
    let model = match model {
        Some(m) => m,
        None => match ScenarioModel::load(&scenario) {
            Ok(m) => {
                built = m;
                &mut built
            }
            Err(e) => return Rendered::failure(&e),
        },
    };
    let (apa_ref, requirements) = match model.split_elicited() {
        Ok(pair) => pair,
        Err(e) => return Rendered::failure(&e),
    };
    let mut r = Rendered::success();
    warn_unmatched_fault(&mut r, f.inject.as_ref(), apa_ref, &scenario);
    let obs = f.outputs.obs(ctx);
    let cfg = fsa_runtime::FleetConfig {
        streams,
        events_per_stream: f.events.unwrap_or(8192).div_ceil(streams),
        seed: f.seed.unwrap_or(0xF5A),
        threads: f.threads.unwrap_or(1),
        fault: f.inject,
        obs: obs.clone(),
        ..fsa_runtime::FleetConfig::default()
    };
    let supervisor = build_supervisor(f.deadline_ms, f.retries, ctx).with_obs(obs.clone());
    match fsa_runtime::monitor_apa_supervised(apa_ref, requirements, &cfg, &supervisor) {
        Ok((bank, report)) => {
            let _ = writeln!(
                r.stdout,
                "scenario {scenario}: {} requirement(s) compiled into a fused bank \
                 ({} event symbols)",
                bank.len(),
                bank.alphabet_len()
            );
            let _ = write!(r.stdout, "{}", report.render());
            if f.stats {
                let _ = write!(r.stdout, "{}", report.stats);
            }
            f.outputs.collect(&obs, &mut r);
            if !report.is_clean() {
                // A found violation always dominates a missed deadline.
                r.exit = 1;
            } else if !report.is_complete() {
                r.exit = EXIT_PARTIAL;
            }
            r
        }
        Err(e) => {
            let _ = writeln!(r.stderr, "monitoring failed: {e}");
            r.exit = 1;
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::CONNECT;
    use crate::flags::usage_flags;
    use crate::server::SERVE;
    use std::collections::BTreeSet;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn a_cancelled_run_prints_the_union_of_the_classes_it_found() {
        use fsa_core::explore::{ExecOptions, ExploreOptions};
        // Cancel the 3-vehicle exploration after its first few batches:
        // the report lists the classes found so far, their union, and
        // the partial-universe line, and exits 3.
        let exec = ExecOptions {
            supervisor: fsa_exec::Supervisor::new()
                .with_cancel(fsa_exec::CancelToken::countdown(60)),
            batch: 4,
            ..ExecOptions::default()
        };
        let universe =
            vanet::exploration::explore_scenario_universe(3, &ExploreOptions::default(), &exec)
                .expect("explores");
        assert!(universe.stats.cancelled);
        assert!(!universe.classes.is_empty());
        assert!(!universe.requirements.is_empty());
        let r = render_universe(&universe, 3, false, false);
        assert_eq!(r.exit, EXIT_PARTIAL);
        assert!(
            r.stdout.contains("partial universe: vector coverage"),
            "{}",
            r.stdout
        );
        let header = format!(
            "union over the universe: {} requirement(s)",
            universe.requirements.len()
        );
        assert!(r.stdout.contains(&header), "{}", r.stdout);
        assert!(!r.stdout.contains("partial union"), "{}", r.stdout);
    }

    #[test]
    fn duplicate_flags_are_rejected_with_usage() {
        let r = dispatch(&argv(&["explore", "--threads", "2", "--threads", "4"]));
        assert_eq!(r.exit, 2);
        assert!(r.stderr.contains("duplicate flag --threads"));
        assert!(r.stderr.contains("fsa explore"));
    }

    #[test]
    fn duplicate_detection_treats_inline_and_spaced_forms_as_one_flag() {
        let r = dispatch(&argv(&["simulate", "--seed=1", "--seed", "2"]));
        assert_eq!(r.exit, 2);
        assert!(r.stderr.contains("duplicate flag --seed"));
    }

    fn names<T>(table: &Table<T>) -> impl Iterator<Item = &'static str> + '_ {
        table.flags.iter().map(|(name, _)| *name)
    }

    /// Asserts that `usage` mentions exactly the flags `names`, and that
    /// its synopsis (the text up to its first blank line) lists every
    /// one but the observability exports, unless a synopsis line ends
    /// in `...`.
    fn assert_documented(names: BTreeSet<&str>, usage: &str, what: &str) {
        assert_eq!(names, usage_flags(usage), "{what}: table vs usage text");
        assert_synopsis_lists(&names, usage.split("\n\n").next().unwrap_or(usage), what);
    }

    fn assert_synopsis_lists(names: &BTreeSet<&str>, synopsis: &str, what: &str) {
        let listed = usage_flags(synopsis);
        assert!(
            listed.is_subset(names),
            "{what}: {listed:?} not in {names:?}"
        );
        if !synopsis.lines().any(|line| line.ends_with("...")) {
            let exports = BTreeSet::from(["stats-json", "trace-json"]);
            let missing: Vec<_> = names.difference(&listed).collect();
            assert!(
                missing.iter().all(|name| exports.contains(**name)),
                "{what}: synopsis omits {missing:?}"
            );
        }
    }

    #[test]
    fn every_table_matches_its_usage_text() {
        for (names, usage, what) in [
            (names(&ELICIT).collect(), ELICIT_USAGE, "elicit"),
            (
                names(&ELICIT_SCENARIO).collect(),
                ELICIT_SCENARIO_USAGE,
                "elicit --scenario",
            ),
            (names(&EXPLORE).collect(), EXPLORE_USAGE, "explore"),
            (names(&SIMULATE).collect(), SIMULATE_USAGE, "simulate"),
            (names(&MONITOR).collect(), MONITOR_USAGE, "monitor"),
            (
                names(&SERVE).chain(names(&CONNECT)).collect(),
                SERVE_USAGE,
                "serve",
            ),
        ] {
            assert_documented(names, usage, what);
        }
        // `check` documents no flag of its own: the global usage text
        // documents its two exports for every subcommand.
        assert!(usage_flags(CHECK_USAGE).is_empty());
        let (_, exports) = GLOBAL_USAGE
            .split_once("observability exports:")
            .expect("global exports");
        let check = format!("{CHECK_USAGE}{exports}");
        assert_documented(names(&CHECK).collect(), &check, "check");
    }

    #[test]
    fn the_global_synopses_list_every_flag() {
        for (sub, names) in [
            (
                "elicit",
                names(&ELICIT).chain(names(&ELICIT_SCENARIO)).collect(),
            ),
            ("check", names(&CHECK).collect()),
            ("explore", names(&EXPLORE).collect()),
            ("simulate", names(&SIMULATE).collect()),
            ("monitor", names(&MONITOR).collect()),
            ("serve", names(&SERVE).chain(names(&CONNECT)).collect()),
        ] {
            assert_synopsis_lists(&names, &global_synopsis(sub), sub);
        }
    }

    /// The lines of `GLOBAL_USAGE` that give `sub`'s synopses, with
    /// their continuation lines.
    fn global_synopsis(sub: &str) -> String {
        let mut out = String::new();
        let mut current = false;
        for line in GLOBAL_USAGE.lines().take_while(|line| !line.is_empty()) {
            if let Some(rest) = line.strip_prefix("  fsa ") {
                current = rest.split(' ').next() == Some(sub);
            }
            if current {
                out.push_str(line);
                out.push('\n');
            }
        }
        assert!(!out.is_empty(), "no `fsa {sub}` synopsis");
        out
    }

    #[test]
    fn unknown_command_renders_usage_to_stderr() {
        let r = dispatch(&argv(&["frobnicate"]));
        assert_eq!(r.exit, 2);
        assert!(r.stderr.starts_with("unknown command `frobnicate`\n"));
        assert!(r.stderr.contains("usage:"));
        assert!(r.stdout.is_empty());
    }

    #[test]
    fn help_renders_to_stdout_with_exit_zero() {
        for sub in ["elicit", "check", "explore", "simulate", "monitor"] {
            let r = dispatch(&argv(&[sub, "--help"]));
            assert_eq!(r.exit, 0, "{sub}");
            assert!(r.stdout.contains("usage"), "{sub}");
            assert!(r.stderr.is_empty(), "{sub}");
        }
        let r = dispatch(&argv(&["serve", "--help"]));
        assert_eq!(r.exit, 0);
        assert!(r.stdout.contains("fsa serve"));
    }

    #[test]
    fn simulate_warns_when_the_injected_fault_matches_no_automaton() {
        let r = dispatch(&argv(&["simulate", "--inject", "drop:NoSuchAutomaton"]));
        assert_eq!(r.exit, 0, "warning must not change the exit code");
        assert!(r
            .stderr
            .contains("no automaton named `NoSuchAutomaton` in scenario `two`"));
        assert!(r.stdout.contains("scenario two"));
    }

    #[test]
    fn simulate_does_not_warn_for_a_real_automaton() {
        let ok = dispatch(&argv(&["simulate", "--inject", "reorder:4"]));
        assert_eq!(ok.exit, 0);
        assert!(
            ok.stderr.is_empty(),
            "reorder names no automaton: {}",
            ok.stderr
        );
    }

    #[test]
    fn elicit_scenario_renders_the_assisted_report() {
        let r = dispatch(&argv(&["elicit", "--scenario", "two"]));
        assert_eq!(r.exit, 0, "{}", r.stderr);
        assert!(r.stdout.starts_with("scenario two: "), "{}", r.stdout);
        assert!(r.stdout.contains("requirements ("), "{}", r.stdout);
        let unknown = dispatch(&argv(&["elicit", "--scenario", "warp"]));
        assert_eq!(unknown.exit, 2);
        assert!(unknown
            .stderr
            .contains("unknown scenario `warp` (expected two, chain, attacked or six)"));
    }

    #[test]
    fn elicit_scenario_edit_scripts_require_an_editable_scenario() {
        let script = std::env::temp_dir().join("fsa-cli-edit-script-chain.txt");
        std::fs::write(&script, "set-initial gps1 0\n").expect("write script");
        let r = dispatch(&argv(&[
            "elicit",
            "--scenario",
            "chain",
            "--edit-script",
            script.to_str().expect("utf8 path"),
        ]));
        assert_eq!(r.exit, 2);
        assert!(
            r.stderr
                .contains("--edit-script requires an editable scenario (two or six)"),
            "{}",
            r.stderr
        );
        let _ = std::fs::remove_file(&script);
    }

    #[test]
    fn an_edit_script_run_matches_the_equivalent_manual_sequence() {
        // One report per `elicit` step; the trailing elicit is implied.
        let script = std::env::temp_dir().join("fsa-cli-edit-script-two.txt");
        std::fs::write(
            &script,
            "# move V1's GPS out of V2's range\nelicit\nset-initial gps1 20000\n",
        )
        .expect("write script");
        let r = dispatch(&argv(&[
            "elicit",
            "--scenario",
            "two",
            "--edit-script",
            script.to_str().expect("utf8 path"),
        ]));
        let _ = std::fs::remove_file(&script);
        assert_eq!(r.exit, 0, "{}", r.stderr);
        let plain = dispatch(&argv(&["elicit", "--scenario", "two"]));
        assert!(
            r.stdout.starts_with(&plain.stdout),
            "the pre-edit report must match the scriptless run"
        );
        assert!(
            r.stdout.len() > plain.stdout.len(),
            "the post-edit report must follow"
        );
        assert_ne!(
            &r.stdout[plain.stdout.len()..],
            plain.stdout,
            "the edit must change the second report"
        );
    }

    #[test]
    fn an_edit_script_applies_each_run_of_deltas_as_one_batch() {
        use crate::engines::render_elicited;
        use fsa_core::delta::{parse_script, ScriptStep};
        // Runs of deltas between elicit steps; a bad delta mid-run.
        for (tag, script) in [
            (
                "runs",
                "set-initial gps2 300\nset-initial gps2 50\nelicit\nset-initial gps2 300\n\
                 elicit\nset-initial gps1 20000\nset-initial gps2 50\n",
            ),
            (
                "bad",
                "set-initial gps2 300\nelicit\nset-initial gps2 50\nremove-flow nope\n\
                 set-initial gps1 0\nelicit\n",
            ),
        ] {
            // The oracle applies one delta at a time, as a served `edit`
            // frame of one line does.
            let obs = fsa_obs::Obs::disabled();
            let mut model = ScenarioModel::load("six").expect("six loads");
            let mut want = Rendered::success();
            for step in parse_script(script).expect("script parses") {
                match step {
                    ScriptStep::Delta(d) => {
                        if let Err(e) = model.apply_deltas(&[d], &obs) {
                            want = Rendered::failure(&format!("edit failed: {e}"));
                            break;
                        }
                    }
                    ScriptStep::Elicit => {
                        let report = model.elicit_report(1, &obs).expect("elicits");
                        want.stdout.push_str(&render_elicited("six", &report));
                    }
                }
            }
            let path = std::env::temp_dir().join(format!("fsa-cli-batch-{tag}.txt"));
            std::fs::write(&path, script).expect("write script");
            let got = dispatch(&argv(&[
                "elicit",
                "--scenario",
                "six",
                "--edit-script",
                path.to_str().expect("utf8 path"),
            ]));
            let _ = std::fs::remove_file(&path);
            assert_eq!(got.stdout, want.stdout, "{tag}");
            assert_eq!((got.stderr, got.exit), (want.stderr, want.exit), "{tag}");
        }
    }

    #[test]
    fn sessions_reject_the_flags_they_fix_in_argv_order() {
        let ctx = ServiceCtx::one_shot();
        let mut model = ScenarioModel::load("two").expect("two loads");
        let first_line = |r: Rendered| {
            assert_eq!(r.exit, 2, "{}", r.stderr);
            r.stderr.lines().next().unwrap_or_default().to_owned()
        };
        let fixed = "--scenario is fixed at session open";
        let r = run_simulate(&argv(&["--scenario", "six", "--bogus"]), Some(&model), &ctx);
        assert_eq!(first_line(r), fixed);
        let r = run_simulate(&argv(&["--bogus", "--scenario", "six"]), Some(&model), &ctx);
        assert_eq!(first_line(r), "unknown flag --bogus");
        let r = run_monitor(&argv(&["--scenario=six"]), Some(&mut model), &ctx);
        assert_eq!(first_line(r), fixed);
        let r = run_elicit_scenario(&argv(&["--scenario"]), Some(&mut model), &ctx);
        assert_eq!(first_line(r), "--scenario expects a value");
        let rest = argv(&["--threads", "2", "--edit-script", "f", "--threads", "3"]);
        let r = run_elicit_scenario(&rest, Some(&mut model), &ctx);
        assert!(first_line(r).starts_with("--edit-script is a one-shot flag"));
    }

    #[test]
    fn session_spec_queries_reject_positional_files() {
        let model = LoadedModel::new("specs/x.fsa", Vec::new());
        let ctx = ServiceCtx::one_shot();
        let r = run_spec("elicit", &argv(&["other.fsa"]), Some(&model), &ctx);
        assert_eq!(r.exit, 2);
        assert!(r.stderr.contains("the session model is fixed at open"));
    }
}
