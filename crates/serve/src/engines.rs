//! Session-scoped engines behind the [`Service`] trait.
//!
//! A session opens over a spec file and/or a named scenario. The
//! expensive derivations — `speclang` parsing, APA construction, APA
//! reachability and §5 elicitation — happen once, at open (or lazily on
//! first use), and every later request answers from the resident state.
//! The runners in [`crate::cli`] do the actual work, so responses are
//! byte-identical to the one-shot CLI.

use crate::cli;
use fsa_core::assisted::{AssistedReport, DependenceMethod};
use fsa_core::delta::{EditModel, ModelDelta};
use fsa_core::incremental::IncrementalElicitor;
use fsa_core::service::{codes, LoadedModel, Query, Rendered, Service, ServiceCtx, ServiceError};
use fsa_core::RequirementSet;
use fsa_obs::Obs;
use std::fmt::Write as _;
use std::sync::Arc;

/// Memo-store capacity of a session's incremental elicitation engine:
/// generous against the handful of fragments a scenario splits into,
/// but bounded so a pathological edit sequence cannot grow it without
/// limit.
const MEMO_CAPACITY: usize = 256;

/// Builds the APA of a named simulation scenario.
pub(crate) fn scenario_apa(name: &str) -> Result<apa::Apa, String> {
    use vanet::forwarding::{forwarding_chain_apa, forwarding_chain_apa_with, RangeConfig};
    match name {
        "two" => vanet::apa_model::two_vehicle_apa(vanet::semantics::ApaSemantics::PAPER)
            .map_err(|e| e.to_string()),
        "chain" => forwarding_chain_apa().map_err(|e| e.to_string()),
        "attacked" => {
            forwarding_chain_apa_with(RangeConfig::default(), true).map_err(|e| e.to_string())
        }
        "six" => vanet::apa_model::n_pair_apa(3, vanet::semantics::ApaSemantics::PAPER)
            .map_err(|e| e.to_string()),
        other => Err(format!("unknown scenario `{other}`")),
    }
}

/// The editable face of a scenario: the typed component model the
/// session mutates through `edit` requests, plus the incremental
/// elicitation engine whose memo store survives across requests.
struct Editable {
    model: EditModel,
    elicitor: IncrementalElicitor,
}

/// What a `monitor` request derives from a scenario, once per model
/// version: the elicited requirement set the bank is compiled from, and
/// the parts the fleet simulates on.
struct Monitored {
    requirements: RequirementSet,
    /// The compiled sub-APAs of the editable model's independent
    /// fragments; `None` when the APA itself is the only part.
    parts: Option<Vec<apa::Apa>>,
}

/// A resident scenario: the APA built once at open, plus the §5
/// elicitation and the fleet's parts, memoised on first `monitor`
/// request. The second monitor query against the same session skips
/// reachability and elicitation entirely. The `two` and `six` scenarios
/// additionally carry an editable component model: `edit` requests
/// apply typed deltas atomically and `elicit` re-derives the
/// requirement set incrementally, reusing every fragment the edit left
/// untouched.
pub struct ScenarioModel {
    name: String,
    apa: apa::Apa,
    monitored: Option<Monitored>,
    editable: Option<Editable>,
}

impl ScenarioModel {
    /// Builds the named scenario's APA (`two`, `chain`, `attacked`,
    /// `six`).
    ///
    /// # Errors
    ///
    /// The scenario-construction error, already formatted for display.
    pub fn load(name: &str) -> Result<ScenarioModel, String> {
        let editable = match name {
            "two" => Some(vanet::apa_model::n_pair_model(1)),
            "six" => Some(vanet::apa_model::n_pair_model(3)),
            _ => None,
        }
        .map(|model| {
            let elicitor = IncrementalElicitor::new(MEMO_CAPACITY)
                .expect("MEMO_CAPACITY is non-zero")
                .method(DependenceMethod::Precedence);
            Editable { model, elicitor }
        });
        Ok(ScenarioModel {
            name: name.to_owned(),
            apa: scenario_apa(name)?,
            monitored: None,
            editable,
        })
    }

    /// Whether this scenario carries an editable component model
    /// (`two`/`six`).
    #[must_use]
    pub fn is_editable(&self) -> bool {
        self.editable.is_some()
    }

    /// Applies a batch of delta lines atomically: every line must parse
    /// and apply cleanly or the resident model (and its APA) is left
    /// untouched. On success the APA is recompiled from the edited
    /// model and the memoised requirement set and parts are dropped, so
    /// later `simulate`/`monitor`/`elicit` requests answer against the
    /// edited scenario.
    ///
    /// # Errors
    ///
    /// A display-ready message: the scenario is not editable, a delta
    /// line failed to parse, or a delta failed validation.
    pub fn apply_edit_lines(&mut self, lines: &[String], obs: &Obs) -> Result<(), String> {
        let deltas = lines
            .iter()
            .map(|l| ModelDelta::parse(l))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        self.apply_deltas(&deltas, obs)
    }

    /// [`Self::apply_edit_lines`] for already-parsed deltas (the
    /// one-shot `--edit-script` runner applies script steps directly).
    /// An edit records nothing and leaves the memo store alone: its keys
    /// are content-addressed, so no entry can go stale.
    ///
    /// # Errors
    ///
    /// As [`Self::apply_edit_lines`], minus the parse stage.
    pub fn apply_deltas(&mut self, deltas: &[ModelDelta], _obs: &Obs) -> Result<(), String> {
        let Some(ed) = self.editable.as_mut() else {
            return Err(format!(
                "scenario `{}` is not editable (expected two or six)",
                self.name
            ));
        };
        let mut next = ed.model.clone();
        for d in deltas {
            next.apply(d).map_err(|e| e.to_string())?;
        }
        let apa = next
            .compile()
            .map_err(|e| format!("recompilation failed: {e}"))?;
        ed.model = next;
        self.apa = apa;
        self.monitored = None;
        Ok(())
    }

    /// Elicits the scenario's requirement set as a full
    /// [`AssistedReport`]: incrementally (memoised value-level
    /// fragments) for editable scenarios, fragment by fragment of the
    /// APA ([`fsa_core::assisted::elicit_apa`]) for the rest. The latter
    /// runs the shared service configuration
    /// ([`fsa_core::assisted::ElicitOptions::service`] — precedence
    /// method), the same options the one-shot `fsa elicit` cross-check
    /// uses, so the report is bit-identical whichever entry point
    /// answered. The pair grids run on the calling thread; `_threads`
    /// is ignored and stays for callers of this signature.
    ///
    /// # Errors
    ///
    /// The reachability (or recomposition) failure, display-ready.
    pub fn elicit_report(&mut self, _threads: usize, obs: &Obs) -> Result<AssistedReport, String> {
        if let Some(ed) = self.editable.as_mut() {
            return ed
                .elicitor
                .elicit(&ed.model, obs)
                .map_err(|e| e.to_string());
        }
        fsa_core::assisted::elicit_apa(
            &self.apa,
            &fsa_core::assisted::ElicitOptions::service(1),
            obs,
            vanet::apa_model::stakeholder_of,
        )
        .map_err(|e| e.to_string())
    }

    /// The scenario name this session was opened over.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The resident APA.
    #[must_use]
    pub fn apa(&self) -> &apa::Apa {
        &self.apa
    }

    /// Whether the elicited requirement set is already memoised (used
    /// by tests asserting that repeated queries skip the derivation).
    #[must_use]
    pub fn is_elicited(&self) -> bool {
        self.monitored.is_some()
    }

    /// The APA, the parts a fleet simulates it on, and its elicited
    /// requirement set, derived on first call and memoised until an
    /// edit. The set comes from [`Self::elicit_report`] (nothing
    /// recorded). The parts of an editable scenario are the
    /// compiled sub-APAs of its model's independent value-level
    /// fragments ([`EditModel::fragments`]: three 12-state pairs for
    /// `six`, where the global APA has 1 728 states); any other scenario
    /// is its own only part. Served and one-shot `monitor` both compile
    /// their bank from this set and walk these parts.
    ///
    /// # Errors
    ///
    /// The elicitation failure of [`Self::elicit_report`], or a fragment
    /// that does not compile.
    pub fn split_elicited(&mut self) -> Result<(&apa::Apa, &[apa::Apa], &RequirementSet), String> {
        if self.monitored.is_none() {
            let requirements = self.elicit_report(1, &Obs::disabled())?.requirements;
            let parts = match &self.editable {
                Some(ed) => Some(
                    ed.model
                        .fragments()
                        .iter()
                        .map(|fragment| fragment.model().compile())
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| format!("fragment compilation failed: {e}"))?,
                ),
                None => None,
            };
            self.monitored = Some(Monitored {
                requirements,
                parts,
            });
        }
        let monitored = self.monitored.as_ref().expect("memoised just above");
        let parts = match &monitored.parts {
            Some(parts) => parts.as_slice(),
            None => std::slice::from_ref(&self.apa),
        };
        Ok((&self.apa, parts, &monitored.requirements))
    }
}

/// Renders one elicitation report, deterministically and without any
/// run-level header: the one-shot `fsa elicit --scenario` command and a
/// serve session's `elicit` responses both concatenate exactly these
/// blocks, so a session transcript diffs byte-for-byte against the
/// equivalent one-shot runs.
pub(crate) fn render_elicited(scenario: &str, report: &AssistedReport) -> String {
    let list = |items: &[String]| -> String {
        if items.is_empty() {
            "(none)".to_owned()
        } else {
            items.join(" ")
        }
    };
    let dependent = report.verdicts.iter().filter(|v| v.dependent).count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scenario {scenario}: {} state(s), {} edge(s)",
        report.state_count, report.edge_count
    );
    let _ = writeln!(out, "minima: {}", list(&report.minima));
    let _ = writeln!(out, "maxima: {}", list(&report.maxima));
    let _ = writeln!(
        out,
        "dependent pairs: {dependent} of {} analysed",
        report.verdicts.len()
    );
    let _ = writeln!(out, "requirements ({}):", report.requirements.len());
    for req in report.requirements.iter() {
        let _ = writeln!(out, "  {req}");
    }
    out
}

/// Rejects per-request use of server-level artefact flags. In a session
/// the observability registry belongs to the server (`--stats-json` /
/// `--trace-json` are `fsa serve` flags); a request carrying them would
/// silently snapshot the shared registry mid-flight.
fn reject_artefact_flags(query: &Query) -> Result<(), ServiceError> {
    for arg in &query.args {
        for flag in ["--stats-json", "--trace-json"] {
            if arg == flag || arg.starts_with(&format!("{flag}=")) {
                return Err(ServiceError::new(
                    codes::UNSUPPORTED_FLAG,
                    format!("{flag} is a server-level flag; pass it to `fsa serve` instead"),
                ));
            }
        }
    }
    Ok(())
}

fn unknown_command(engine: &str, query: &Query) -> ServiceError {
    ServiceError::new(
        codes::UNKNOWN_COMMAND,
        format!("engine `{engine}` does not answer `{}`", query.command),
    )
}

/// Answers `check`/`elicit` from an interned, immutable parsed spec.
pub struct SpecService {
    model: Arc<LoadedModel>,
}

impl SpecService {
    /// Wraps a session's shared model handle.
    #[must_use]
    pub fn new(model: Arc<LoadedModel>) -> SpecService {
        SpecService { model }
    }
}

impl Service for SpecService {
    fn engine(&self) -> &'static str {
        "spec"
    }

    fn commands(&self) -> &'static [&'static str] {
        &["check", "elicit"]
    }

    fn respond(&mut self, query: &Query, ctx: &ServiceCtx) -> Result<Rendered, ServiceError> {
        reject_artefact_flags(query)?;
        match query.command.as_str() {
            "check" | "elicit" => Ok(cli::run_spec(
                &query.command,
                &query.args,
                Some(&self.model),
                ctx,
            )),
            _ => Err(unknown_command(self.engine(), query)),
        }
    }
}

/// Answers `explore`. The vehicular universe is parameterised entirely
/// by flags, so there is no resident model — the service exists so
/// every session uniformly routes commands through [`Service`].
#[derive(Default)]
pub struct ExploreService;

impl Service for ExploreService {
    fn engine(&self) -> &'static str {
        "explore"
    }

    fn commands(&self) -> &'static [&'static str] {
        &["explore"]
    }

    fn respond(&mut self, query: &Query, ctx: &ServiceCtx) -> Result<Rendered, ServiceError> {
        reject_artefact_flags(query)?;
        match query.command.as_str() {
            "explore" => Ok(cli::run_explore(&query.args, ctx)),
            _ => Err(unknown_command(self.engine(), query)),
        }
    }
}

/// Answers `simulate`/`monitor` from a resident [`ScenarioModel`].
pub struct ScenarioService {
    model: ScenarioModel,
}

impl ScenarioService {
    /// Wraps an opened scenario.
    #[must_use]
    pub fn new(model: ScenarioModel) -> ScenarioService {
        ScenarioService { model }
    }

    /// The resident scenario (tests inspect memoisation state).
    #[must_use]
    pub fn model(&self) -> &ScenarioModel {
        &self.model
    }
}

impl Service for ScenarioService {
    fn engine(&self) -> &'static str {
        "scenario"
    }

    fn commands(&self) -> &'static [&'static str] {
        &["simulate", "monitor", "elicit", "edit"]
    }

    fn respond(&mut self, query: &Query, ctx: &ServiceCtx) -> Result<Rendered, ServiceError> {
        reject_artefact_flags(query)?;
        match query.command.as_str() {
            "simulate" => Ok(cli::run_simulate(&query.args, Some(&self.model), ctx)),
            "monitor" => Ok(cli::run_monitor(&query.args, Some(&mut self.model), ctx)),
            "elicit" => Ok(cli::run_elicit_scenario(
                &query.args,
                Some(&mut self.model),
                ctx,
            )),
            "edit" => {
                if !self.model.is_editable() {
                    return Err(ServiceError::new(
                        codes::NOT_EDITABLE,
                        format!(
                            "scenario `{}` is not editable (expected two or six)",
                            self.model.name()
                        ),
                    ));
                }
                if query.args.is_empty() {
                    return Ok(Rendered::failure("edit expects at least one delta line"));
                }
                match self.model.apply_edit_lines(&query.args, &ctx.obs) {
                    // Success is silent — a session transcript stays a
                    // clean concatenation of elicitation reports.
                    Ok(()) => Ok(Rendered::success()),
                    Err(e) => Ok(Rendered::failure(&format!("edit failed: {e}"))),
                }
            }
            _ => Err(unknown_command(self.engine(), query)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(command: &str, args: &[&str]) -> Query {
        Query::new(command, args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn scenario_model_memoises_elicitation() {
        let mut m = ScenarioModel::load("chain").expect("chain scenario builds");
        assert!(!m.is_elicited());
        let first_len = {
            let (_, parts, reqs) = m.split_elicited().expect("reachability");
            assert_eq!(parts.len(), 1, "chain is its own only part");
            reqs.len()
        };
        assert!(m.is_elicited());
        let (_, _, reqs) = m.split_elicited().expect("memoised");
        assert_eq!(reqs.len(), first_len);
    }

    #[test]
    fn the_monitor_set_equals_the_global_product_elicitation() {
        // `split_elicited` derives the bank's set from value-level
        // fragments (editable `two`/`six`) or APA fragments (`chain`),
        // never from the global product; it must still equal it.
        for name in ["two", "six", "chain"] {
            let mut model = ScenarioModel::load(name).expect("scenario builds");
            let graph = model
                .apa()
                .reachability(&apa::ReachOptions::default())
                .expect("reachability");
            let global = fsa_core::assisted::elicit_from_graph(
                &graph,
                DependenceMethod::Precedence,
                vanet::apa_model::stakeholder_of,
            );
            let (_, _, split) = model.split_elicited().expect("elicitation");
            assert_eq!(split, &global.requirements, "{name}");
        }
    }

    #[test]
    fn served_and_one_shot_paths_share_the_service_options() {
        // Regression: the resident service and the one-shot cross-check
        // used to build diverging options. Both now construct
        // `ElicitOptions::service`.
        let service = fsa_core::assisted::ElicitOptions::service(3);
        assert_eq!(
            service.method,
            fsa_core::assisted::DependenceMethod::Precedence
        );
    }

    #[test]
    fn six_is_monitored_on_three_pairs_and_an_edit_drops_them() {
        let mut model = ScenarioModel::load("six").expect("six builds");
        let states = |parts: &[apa::Apa]| -> Vec<usize> {
            parts
                .iter()
                .map(|part| {
                    part.reachability(&apa::ReachOptions::default())
                        .expect("reach")
                        .state_count()
                })
                .collect()
        };
        let (_, parts, _) = model.split_elicited().expect("elicitation");
        assert_eq!(states(parts), [12, 12, 12]);
        model
            .apply_edit_lines(&["remove-flow V2_show".to_owned()], &Obs::disabled())
            .expect("edit applies");
        assert!(!model.is_elicited(), "an edit drops the parts too");
        let (apa, parts, _) = model.split_elicited().expect("elicitation");
        assert_eq!(parts.len(), 3);
        assert!(parts
            .iter()
            .all(|part| part.automaton_count() < apa.automaton_count()));
        assert!(states(parts)[0] < 12, "{:?}", states(parts));
    }

    #[test]
    fn unknown_scenario_is_a_load_error() {
        let err = ScenarioModel::load("warp").map(|_| ()).unwrap_err();
        assert_eq!(err, "unknown scenario `warp`");
    }

    #[test]
    fn services_reject_server_level_artefact_flags() {
        let mut svc = ExploreService;
        let ctx = ServiceCtx::one_shot();
        let err = svc
            .respond(&query("explore", &["--stats-json", "x.json"]), &ctx)
            .unwrap_err();
        assert_eq!(err.code, codes::UNSUPPORTED_FLAG);
        let err = svc
            .respond(&query("explore", &["--trace-json=t.json"]), &ctx)
            .unwrap_err();
        assert_eq!(err.code, codes::UNSUPPORTED_FLAG);
    }

    #[test]
    fn services_reject_commands_outside_their_contract() {
        let mut svc = ExploreService;
        let ctx = ServiceCtx::one_shot();
        let err = svc.respond(&query("simulate", &[]), &ctx).unwrap_err();
        assert_eq!(err.code, codes::UNKNOWN_COMMAND);
        assert_eq!(svc.commands(), ["explore"]);
    }

    #[test]
    fn editable_scenarios_answer_elicit_and_edit() {
        let mut svc = ScenarioService::new(ScenarioModel::load("two").expect("two builds"));
        assert!(svc.model().is_editable());
        let ctx = ServiceCtx::one_shot();
        let before = svc.respond(&query("elicit", &[]), &ctx).expect("elicit");
        assert_eq!(before.exit, 0);
        assert!(
            before.stdout.starts_with("scenario two: "),
            "{}",
            before.stdout
        );
        let edited = svc
            .respond(&query("edit", &["set-initial gps1 20000"]), &ctx)
            .expect("edit");
        assert_eq!(edited.exit, 0);
        assert!(edited.stdout.is_empty(), "edit success is silent");
        let after = svc.respond(&query("elicit", &[]), &ctx).expect("re-elicit");
        assert_eq!(after.exit, 0);
        assert_ne!(
            after.stdout, before.stdout,
            "the edit must change the answer"
        );
    }

    #[test]
    fn edits_on_non_editable_scenarios_are_typed_errors() {
        let mut svc = ScenarioService::new(ScenarioModel::load("chain").expect("chain builds"));
        assert!(!svc.model().is_editable());
        let ctx = ServiceCtx::one_shot();
        let err = svc
            .respond(&query("edit", &["set-initial gps1 0"]), &ctx)
            .unwrap_err();
        assert_eq!(err.code, codes::NOT_EDITABLE);
        assert!(err.message.contains("`chain` is not editable"), "{err}");
        // `elicit` still answers (from scratch) on non-editable ones.
        let r = svc.respond(&query("elicit", &[]), &ctx).expect("elicit");
        assert_eq!(r.exit, 0);
        assert!(r.stdout.starts_with("scenario chain: "), "{}", r.stdout);
    }

    #[test]
    fn a_failed_edit_leaves_the_model_and_its_apa_untouched() {
        let mut model = ScenarioModel::load("two").expect("two builds");
        let obs = Obs::disabled();
        let before =
            crate::engines::render_elicited("two", &model.elicit_report(1, &obs).expect("elicit"));
        // Second line is invalid: the whole batch must roll back.
        let err = model
            .apply_edit_lines(
                &[
                    "set-initial gps1 20000".to_owned(),
                    "remove-component no_such_component".to_owned(),
                ],
                &obs,
            )
            .unwrap_err();
        assert!(err.contains("no_such_component"), "{err}");
        let after =
            crate::engines::render_elicited("two", &model.elicit_report(1, &obs).expect("elicit"));
        assert_eq!(before, after, "a failed batch must not change the answer");
    }

    #[test]
    fn edits_reach_simulate_and_monitor_through_the_recompiled_apa() {
        let mut model = ScenarioModel::load("six").expect("six builds");
        let states_before = model
            .apa()
            .reachability(&apa::ReachOptions::default())
            .expect("reach")
            .state_count();
        // V2 actually receives V1's CAM, so its `show` flow is live and
        // removing it prunes reachable states.
        model
            .apply_edit_lines(&["remove-flow V2_show".to_owned()], &Obs::disabled())
            .expect("edit applies");
        assert!(!model.is_elicited(), "edits drop the memoised requirements");
        let states_after = model
            .apa()
            .reachability(&apa::ReachOptions::default())
            .expect("reach")
            .state_count();
        assert!(
            states_after < states_before,
            "removing a flow must shrink the recompiled APA \
             ({states_after} !< {states_before})"
        );
    }

    #[test]
    fn monitor_via_a_session_matches_the_scenario_validation_contract() {
        let mut svc = ScenarioService::new(ScenarioModel::load("two").expect("two builds"));
        let ctx = ServiceCtx::one_shot();
        // `two` is simulatable but not monitorable: same message as the
        // one-shot CLI.
        let r = svc.respond(&query("monitor", &[]), &ctx).expect("rendered");
        assert_eq!(r.exit, 2);
        assert!(r
            .stderr
            .contains("unknown scenario `two` (expected chain or six)"));
        let r = svc
            .respond(&query("simulate", &["--max-steps", "5"]), &ctx)
            .expect("rendered");
        assert_eq!(r.exit, 0);
        assert!(r.stdout.contains("scenario two, seed 1"));
    }
}
