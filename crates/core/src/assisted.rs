//! The tool-assisted elicitation pipeline (§5 of the paper).
//!
//! "The tool-assisted approach will proceed in reverse order. First we
//! will identify the maxima and minima of the partial order – without
//! deriving the actual partial order – and then we will identify
//! combinations of maxima and minima that are related by functional
//! dependence."
//!
//! Inputs are an APA reachability graph ([`apa::ReachGraph`]) and a
//! stakeholder assignment for the output actions. Minima and maxima are
//! read off the graph (§5.4); each (maximum, minimum) pair is then
//! tested for functional dependence, either
//!
//! * by **abstraction** (§5.5): apply the alphabetic homomorphism that
//!   erases every other action, compute the minimal automaton of the
//!   image, and check whether the maximum can occur without the minimum
//!   (Figs. 10/11), or
//! * by a direct **precedence check** on the graph itself — an
//!   equivalent decision procedure: one walk per minimum
//!   ([`ReachGraph::fireable_avoiding`]) finds every maximum that can
//!   occur without it. This is the service configuration
//!   ([`ElicitOptions::service`]).
//!
//! ### One analysis, one recomposition
//!
//! Every entry point runs the same two steps. The *analysis* reads one
//! reachability graph: its minima, maxima and dead states, the pair
//! grid, and (when several fragments meet under the abstraction method)
//! the projection of the behaviour onto each single minimum or maximum.
//! The *recomposition* turns the analyses of independent fragments into
//! the report of their interleaving product (DESIGN.md §2.5):
//!
//! * the state count is the product of the fragments' counts, the edge
//!   count the sum over fragments of its edges times the others' states;
//! * the minima are the union of the fragments' minima;
//! * the maxima are the union only if every fragment has a dead state
//!   (a dead state of the product is dead in every fragment);
//! * a pair whose minimum and maximum lie in different fragments is
//!   independent, and under abstraction its minimal automaton is the
//!   shuffle of the two unary projections.
//!
//! [`elicit_apa`] splits an APA with [`apa::Apa::fragments`] and never
//! builds the global product. The graph-level entry points
//! ([`elicit_observed`] and its wrappers) analyse the graph they are
//! handed as one fragment. The incremental engine
//! ([`crate::incremental::IncrementalElicitor`]) memoises analyses of
//! the value-level fragments of an edit model and recomposes them here.

use crate::action::{Action, Agent};
use crate::requirements::{AuthRequirement, RequirementSet};
use crate::FsaError;
use apa::{Apa, ReachGraph, ReachOptions};
use automata::{ops, shuffle::shuffle_product, temporal, Dfa, Homomorphism, Nfa};
use fsa_obs::Obs;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// The decision procedure for functional dependence of a (max, min)
/// pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependenceMethod {
    /// Homomorphic abstraction + minimal automaton (the paper's §5.5).
    Abstraction,
    /// Direct precedence check on the reachability graph.
    Precedence,
}

/// The verdict for one (minimum, maximum) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairVerdict {
    /// The minimum (incoming boundary action).
    pub minimum: String,
    /// The maximum (outgoing boundary action).
    pub maximum: String,
    /// Whether the maximum functionally depends on the minimum.
    pub dependent: bool,
    /// States of the minimal automaton of the homomorphic image
    /// (present when [`DependenceMethod::Abstraction`] was used) —
    /// 3 for the chain of Fig. 10, 4 for the diamond of Fig. 11.
    pub minimal_automaton_states: Option<usize>,
}

/// The result of one tool-assisted elicitation run.
#[derive(Debug, Clone)]
pub struct AssistedReport {
    /// Number of states of the reachability graph.
    pub state_count: usize,
    /// Number of transitions of the reachability graph.
    pub edge_count: usize,
    /// The minima (actions leaving the initial state).
    pub minima: Vec<String>,
    /// The maxima (actions entering dead states).
    pub maxima: Vec<String>,
    /// The dependence verdict for every (minimum, maximum) pair.
    pub verdicts: Vec<PairVerdict>,
    /// The elicited requirements.
    pub requirements: RequirementSet,
    /// Per-stage timings and work counters of this run.
    pub stats: PipelineStats,
}

/// Tuning knobs of the dependence-checking engine
/// (see [`elicit_with_options`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElicitOptions {
    /// The decision procedure per (maximum, minimum) pair.
    pub method: DependenceMethod,
}

impl Default for ElicitOptions {
    fn default() -> Self {
        ElicitOptions {
            method: DependenceMethod::Abstraction,
        }
    }
}

impl ElicitOptions {
    /// The one options constructor every serving surface uses — the
    /// resident service's `elicit` frames and the one-shot CLI
    /// cross-check build *these* options, so served and one-shot runs
    /// are the same engine configuration by construction.
    ///
    /// Precedence method. The grid runs on the calling thread: one walk
    /// per minimum is microseconds of work, less than a thread spawn.
    /// `_threads` is ignored; it stays for callers of this signature.
    #[must_use]
    pub fn service(_threads: usize) -> Self {
        ElicitOptions {
            method: DependenceMethod::Precedence,
        }
    }
}

/// Per-stage timings and work counters of one elicitation run
/// (§5.5 pipeline: reachability → minima/maxima → pair grid). Stage
/// durations are summed over the run's fragments; the pair counters
/// describe the recomposed grid, so they do not depend on how the model
/// split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Fragments recomposed: the independent sub-APAs of an
    /// [`elicit_apa`] run, the value-level fragments of an incremental
    /// run, 1 for a graph-level run.
    pub fragments: usize,
    /// Time to explore the fragments' reachability graphs (zero for a
    /// graph-level run, which is handed its graph).
    pub reach: Duration,
    /// States of the reachability graphs this run actually built — the
    /// sum over fragments, not the recomposed product.
    pub reach_states: usize,
    /// Time to read the minima and maxima off the graph.
    pub min_max: Duration,
    /// Time to evaluate the (maxima × minima) grid, including the
    /// behaviour NFA the abstraction method builds.
    pub pair_eval: Duration,
    /// Pairs in the grid (minimum ≠ maximum).
    pub pairs_total: usize,
}

/// Decides dependence of (`minimum`, `maximum`) by homomorphic
/// abstraction, returning the verdict together with the minimal
/// automaton of the image (the paper's Figs. 10/11).
///
/// The pair is *dependent* iff in the abstract behaviour the maximum
/// cannot occur before the minimum has occurred.
pub fn dependence_by_abstraction(behaviour: &Nfa, minimum: &str, maximum: &str) -> (bool, Dfa) {
    let h = Homomorphism::erase_all_except([minimum, maximum]);
    let minimal = ops::minimize(&ops::determinize(&h.apply(behaviour)));
    let dependent = temporal::precedes(&minimal.to_nfa(), minimum, maximum);
    (dependent, minimal)
}

/// Decides dependence of (`minimum`, `maximum`) by a precedence check on
/// the full behaviour (no abstraction) — the NFA-level oracle of the
/// engine's [`ReachGraph::fireable_avoiding`] walk.
pub fn dependence_by_precedence(behaviour: &Nfa, minimum: &str, maximum: &str) -> bool {
    temporal::precedes(behaviour, minimum, maximum)
}

/// Builds the requirement set from a verdict vector: one authenticity
/// requirement per *dependent* pair, with the responsible agent
/// assigned by `stakeholder` from the maximum's action name.
pub fn requirements_from_verdicts(
    verdicts: &[PairVerdict],
    stakeholder: impl Fn(&str) -> Agent,
) -> RequirementSet {
    let mut requirements = RequirementSet::new();
    for v in verdicts {
        if v.dependent {
            requirements.insert(AuthRequirement::new(
                Action::parse(&v.minimum),
                Action::parse(&v.maximum),
                stakeholder(&v.maximum),
            ));
        }
    }
    requirements
}

/// Runs the tool-assisted pipeline on a reachability graph with the
/// default engine options — byte-identical to the original per-pair
/// loop.
///
/// `stakeholder` assigns the responsible agent to each *maximum* action
/// name (e.g. `V2_show ↦ D_2`).
pub fn elicit_from_graph(
    graph: &ReachGraph,
    method: DependenceMethod,
    stakeholder: impl Fn(&str) -> Agent,
) -> AssistedReport {
    elicit_with_options(graph, &ElicitOptions { method }, stakeholder)
}

/// Runs the tool-assisted pipeline with explicit engine options: the
/// decision procedure over the (maxima × minima) grid.
pub fn elicit_with_options(
    graph: &ReachGraph,
    options: &ElicitOptions,
    stakeholder: impl Fn(&str) -> Agent,
) -> AssistedReport {
    elicit_observed(graph, options, &Obs::disabled(), stakeholder)
}

/// [`elicit_with_options`] with an observability handle: the run is one
/// `elicit` span over the stage spans `elicit.min_max` and
/// `elicit.pair_eval`, and the work counters are mirrored into
/// `elicit.*` counters. With
/// [`Obs::disabled`] (what [`elicit_with_options`] passes) nothing is
/// recorded and the report — including [`PipelineStats`] — is identical
/// to the unobserved run: the stats are filled from the very same span
/// measurements.
///
/// The graph is analysed as one fragment and recomposed alone.
pub fn elicit_observed(
    graph: &ReachGraph,
    options: &ElicitOptions,
    obs: &Obs,
    stakeholder: impl Fn(&str) -> Agent,
) -> AssistedReport {
    let run = obs.span("elicit");
    let mut stats = PipelineStats::default();
    let analysis = analyze(graph, options, false, obs, &mut stats);
    let report = recompose(
        &[&analysis],
        options,
        &mut CrossCache::new(),
        stats,
        stakeholder,
    )
    .expect("one fragment's own counts fit usize");
    mirror_counters(obs, &report.stats);
    drop(run);
    report
}

/// Runs the tool-assisted pipeline on an APA fragment by fragment,
/// without building its global reachability graph.
///
/// Each fragment of [`Apa::fragments`] is explored alone with
/// [`ReachOptions::default`], analysed, and dropped; the report is the
/// exact recomposition of the analyses (see the module docs). It equals
/// [`elicit_with_options`] on `apa.reachability(..)` in every field but
/// the timings and the fragment counters of [`PipelineStats`]. With a
/// single fragment the APA itself is explored, with no copy.
///
/// Observability: one `elicit` span, under it per fragment an
/// `elicit.reach` span and the stage spans of [`elicit_observed`], and
/// the same `elicit.*` counters, where `elicit.fragments` and
/// `elicit.reach.states` count the fragments and the states built.
///
/// # Errors
///
/// * [`FsaError::Apa`] when a fragment's exploration fails — notably
///   [`apa::ApaError::StateLimitExceeded`]: `max_states` bounds each
///   fragment, since only fragments are built.
/// * [`FsaError::RecompositionOverflow`] when the recomposed state or
///   edge count does not fit `usize`.
pub fn elicit_apa(
    apa: &Apa,
    options: &ElicitOptions,
    obs: &Obs,
    stakeholder: impl Fn(&str) -> Agent,
) -> Result<AssistedReport, FsaError> {
    let run = obs.span("elicit");
    let mut stats = PipelineStats::default();
    let fragments = apa.fragment_count();
    // Unary projections only serve cross-fragment abstraction verdicts.
    let projections = fragments > 1;
    let mut analyses = Vec::with_capacity(fragments);
    let mut analyse = |part: &Apa| -> Result<(), FsaError> {
        let span = obs.span("elicit.reach");
        let graph = part.reachability(&ReachOptions::default())?;
        stats.reach += span.finish();
        stats.reach_states += graph.state_count();
        analyses.push(analyze(&graph, options, projections, obs, &mut stats));
        Ok(())
    };
    if fragments == 1 {
        analyse(apa)?;
    } else {
        for part in apa.fragments() {
            analyse(&part)?;
        }
    }
    let analyses: Vec<&FragmentAnalysis> = analyses.iter().collect();
    let report = recompose(
        &analyses,
        options,
        &mut CrossCache::new(),
        stats,
        stakeholder,
    )?;
    mirror_counters(obs, &report.stats);
    drop(run);
    Ok(report)
}

/// Mirrors the work counters of a run into its `elicit.*` counters.
fn mirror_counters(obs: &Obs, stats: &PipelineStats) {
    if obs.is_enabled() {
        obs.counter_add("elicit.pairs_total", stats.pairs_total as u64);
        obs.counter_add("elicit.fragments", stats.fragments as u64);
        obs.counter_add("elicit.reach.states", stats.reach_states as u64);
    }
}

/// A unary prefix-closed language over one symbol: either all words up
/// to a bound, or the full `a*`. This is the exact shape of any
/// fragment behaviour projected onto a single action, and the whole
/// input a cross-fragment abstraction verdict needs from each side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum UnaryLang {
    /// `{aⁱ | i ≤ bound}`.
    Bounded(usize),
    /// `a*`.
    Unbounded,
}

/// Cross-fragment minimal-automaton sizes, keyed by the two unary
/// languages (see [`cross_pair_states`]).
pub(crate) type CrossCache = BTreeMap<(UnaryLang, UnaryLang), usize>;

/// The verdict of one pair of a fragment's own grid.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GridVerdict {
    dependent: bool,
    minimal_automaton_states: Option<usize>,
}

/// The analysis of one reachability graph: everything the
/// recomposition needs from a fragment.
#[derive(Debug, Clone)]
pub(crate) struct FragmentAnalysis {
    /// States of the fragment's reachability graph.
    state_count: usize,
    /// Edges of the fragment's reachability graph.
    edge_count: usize,
    /// The fragment's minima (sorted by name).
    minima: Vec<String>,
    /// The fragment's maxima (sorted by name).
    maxima: Vec<String>,
    /// Whether the fragment's graph has a dead state. The product has
    /// maxima iff *every* fragment does: an edge into a dead state of
    /// the product needs all other fragments dead too.
    has_dead: bool,
    /// The fragment's own grid: the verdict of
    /// (`maxima[ma]`, `minima[mi]`) is `grid[ma * minima.len() + mi]`.
    /// The entry of an action that is both a minimum and a maximum
    /// paired with itself is never read.
    grid: Vec<GridVerdict>,
    /// Projection of the fragment behaviour onto each single minimum or
    /// maximum action (abstraction method, when asked for) — the input
    /// for cross-fragment minimal-automaton sizes.
    unary: BTreeMap<String, UnaryLang>,
}

/// Analyses one reachability graph (a fragment): minima and maxima,
/// dead states, the pair grid with the options' method, on the calling
/// thread, and, with `projections` under the abstraction method, the
/// unary projection of every minimum and maximum. Each stage runs under
/// its `elicit.*` span and adds its duration to `stats`.
///
/// Under [`DependenceMethod::Precedence`] the grid is one
/// [`ReachGraph::fireable_avoiding`] walk per minimum, and no automaton
/// is built; only the abstraction method builds the behaviour NFA.
pub(crate) fn analyze(
    graph: &ReachGraph,
    options: &ElicitOptions,
    projections: bool,
    obs: &Obs,
    stats: &mut PipelineStats,
) -> FragmentAnalysis {
    let span = obs.span("elicit.min_max");
    let minima_syms = graph.minima_syms();
    let maxima_syms = graph.maxima_syms();
    let minima: Vec<String> = minima_syms
        .iter()
        .map(|&s| graph.name(s).to_owned())
        .collect();
    let maxima: Vec<String> = maxima_syms
        .iter()
        .map(|&s| graph.name(s).to_owned())
        .collect();
    let has_dead = !graph.dead_states().is_empty();
    stats.min_max += span.finish();

    let span = obs.span("elicit.pair_eval");
    let mut grid = vec![GridVerdict::default(); maxima.len() * minima.len()];
    let mut unary = BTreeMap::new();
    match options.method {
        DependenceMethod::Precedence => {
            // One walk per minimum decides its whole column: a maximum
            // depends on the minimum iff no run without it fires the
            // maximum.
            for (mi, &min_sym) in minima_syms.iter().enumerate() {
                let fireable = graph.fireable_avoiding(min_sym);
                for (ma, &max_sym) in maxima_syms.iter().enumerate() {
                    grid[ma * minima.len() + mi].dependent = !fireable.contains(max_sym.index());
                }
            }
        }
        DependenceMethod::Abstraction => {
            let behaviour = graph.to_nfa();
            for (ma, &max_sym) in maxima_syms.iter().enumerate() {
                for (mi, &min_sym) in minima_syms.iter().enumerate() {
                    if min_sym != max_sym {
                        let (dependent, minimal) =
                            dependence_by_abstraction(&behaviour, &minima[mi], &maxima[ma]);
                        grid[ma * minima.len() + mi] = GridVerdict {
                            dependent,
                            minimal_automaton_states: Some(minimal.state_count()),
                        };
                    }
                }
            }
            if projections {
                let actions: BTreeSet<&String> = minima.iter().chain(&maxima).collect();
                for action in actions {
                    unary.insert(action.clone(), unary_projection(&behaviour, action));
                }
            }
        }
    }
    stats.pair_eval += span.finish();

    FragmentAnalysis {
        state_count: graph.state_count(),
        edge_count: graph.edge_count(),
        minima,
        maxima,
        has_dead,
        grid,
        unary,
    }
}

/// The projection of a behaviour onto the single action `action`.
///
/// The projection of a prefix-closed language onto one symbol is
/// {aⁱ | i ≤ j} or a*; the minimal DFA is probed by acceptance: if aⁿ
/// is accepted (n its state count) the language pumps.
fn unary_projection(behaviour: &Nfa, action: &str) -> UnaryLang {
    let h = Homomorphism::erase_all_except([action]);
    let minimal = ops::minimize(&ops::determinize(&h.apply(behaviour)));
    let n = minimal.state_count();
    if minimal.accepts(vec![action; n]) {
        UnaryLang::Unbounded
    } else {
        let bound = (0..n)
            .rev()
            .find(|&i| minimal.accepts(vec![action; i]))
            .unwrap_or(0);
        UnaryLang::Bounded(bound)
    }
}

/// Recomposes the report of the interleaving product of independent
/// fragments from their analyses (see the module docs). `stats` carries
/// the stage timings of the run; the recomposition sets the counters.
///
/// # Errors
///
/// [`FsaError::RecompositionOverflow`] when the product's state or edge
/// count does not fit `usize`.
pub(crate) fn recompose(
    analyses: &[&FragmentAnalysis],
    options: &ElicitOptions,
    cross_cache: &mut CrossCache,
    mut stats: PipelineStats,
    stakeholder: impl Fn(&str) -> Agent,
) -> Result<AssistedReport, FsaError> {
    let overflow = |what| FsaError::RecompositionOverflow { what };
    let state_count = analyses
        .iter()
        .try_fold(1usize, |acc, a| acc.checked_mul(a.state_count))
        .ok_or_else(|| overflow("state count"))?;
    let edge_count = analyses
        .iter()
        .try_fold(0usize, |acc, a| {
            // Every fragment has at least its initial state, and the
            // product is a multiple of each factor.
            let others = state_count / a.state_count;
            a.edge_count
                .checked_mul(others)
                .and_then(|edges| acc.checked_add(edges))
        })
        .ok_or_else(|| overflow("edge count"))?;

    // Every minimum and maximum with its fragment and its index there,
    // sorted by name.
    let located = |pick: fn(&FragmentAnalysis) -> &[String]| {
        let mut all: Vec<(&str, usize, usize)> = analyses
            .iter()
            .enumerate()
            .flat_map(|(f, a)| {
                pick(a)
                    .iter()
                    .enumerate()
                    .map(move |(i, name)| (name.as_str(), f, i))
            })
            .collect();
        all.sort_unstable();
        all
    };
    let minima = located(|a| &a.minima);
    let maxima = if analyses.iter().all(|a| a.has_dead) {
        located(|a| &a.maxima)
    } else {
        Vec::new()
    };

    let mut verdicts = Vec::with_capacity(maxima.len() * minima.len());
    for &(maximum, fmax, ma) in &maxima {
        for &(minimum, fmin, mi) in &minima {
            if minimum == maximum {
                continue;
            }
            let verdict = if fmin == fmax {
                let a = analyses[fmax];
                a.grid[ma * a.minima.len() + mi]
            } else {
                // Cross-fragment: the other fragment can always run to
                // the maximum with no minimum in between, so the pair
                // is independent; under abstraction the minimal
                // automaton of the projected shuffle is still reported,
                // from the two unary projections.
                let minimal_automaton_states = match options.method {
                    DependenceMethod::Abstraction => Some(cross_pair_states(
                        cross_cache,
                        analyses[fmin].unary[minimum],
                        analyses[fmax].unary[maximum],
                    )),
                    DependenceMethod::Precedence => None,
                };
                GridVerdict {
                    dependent: false,
                    minimal_automaton_states,
                }
            };
            verdicts.push(PairVerdict {
                minimum: minimum.to_owned(),
                maximum: maximum.to_owned(),
                dependent: verdict.dependent,
                minimal_automaton_states: verdict.minimal_automaton_states,
            });
        }
    }
    stats.pairs_total = verdicts.len();
    stats.fragments = analyses.len();

    let requirements = requirements_from_verdicts(&verdicts, stakeholder);
    Ok(AssistedReport {
        state_count,
        edge_count,
        minima: minima.iter().map(|&(name, ..)| name.to_owned()).collect(),
        maxima: maxima.iter().map(|&(name, ..)| name.to_owned()).collect(),
        verdicts,
        requirements,
        stats,
    })
}

/// The minimal-DFA size of the shuffle of two unary languages over
/// distinct symbols — what `minimize(determinize(erase_all_except([min,
/// max])))` computes on the product for a cross-fragment pair.
/// Independent of the symbol names, so memoised per language pair.
fn cross_pair_states(cache: &mut CrossCache, min: UnaryLang, max: UnaryLang) -> usize {
    *cache.entry((min, max)).or_insert_with(|| {
        let product = shuffle_product(&unary_nfa(min, "a"), &unary_nfa(max, "b"));
        ops::minimize(&ops::determinize(&product)).state_count()
    })
}

/// Builds the NFA of a unary language over `sym`.
fn unary_nfa(lang: UnaryLang, sym: &str) -> Nfa {
    let mut b = Nfa::builder();
    let s = b.symbol(sym);
    match lang {
        UnaryLang::Bounded(bound) => {
            let states: Vec<_> = (0..=bound).map(|_| b.state(true)).collect();
            b.initial(states[0]);
            for w in states.windows(2) {
                b.edge(w[0], Some(s), w[1]);
            }
        }
        UnaryLang::Unbounded => {
            let state = b.state(true);
            b.initial(state);
            b.edge(state, Some(s), state);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apa::{rule, ApaBuilder, Value};

    /// A two-stage pipeline APA: `in_a`/`in_b` feed `combine`, which
    /// feeds `out`; `noise` is independent.
    fn pipeline_graph() -> ReachGraph {
        let mut b = ApaBuilder::new();
        let src_a = b.component("src_a", [Value::atom("x")]);
        let src_b = b.component("src_b", [Value::atom("y")]);
        let mid = b.component("mid", []);
        let dst = b.component("dst", []);
        let n_src = b.component("n_src", [Value::atom("n")]);
        let n_dst = b.component("n_dst", []);
        b.automaton("in_a", [src_a, mid], rule::move_any(0, 1));
        b.automaton("in_b", [src_b, mid], rule::move_any(0, 1));
        b.automaton(
            "combine",
            [mid, dst],
            Box::new(rule::FnRule::new(|local: &Vec<_>| {
                let (x, y) = (Value::atom("x"), Value::atom("y"));
                if local[0].contains(&x) && local[0].contains(&y) {
                    let mut next = local.clone();
                    next[0].remove(&x);
                    next[0].remove(&y);
                    next[1].insert(Value::atom("z"));
                    vec![("xy".to_owned(), next)]
                } else {
                    vec![]
                }
            })),
        );
        b.automaton(
            "out",
            [dst, n_dst],
            rule::move_matching(0, 1, |v| v == &Value::atom("z")),
        );
        b.automaton("noise", [n_src, n_dst], rule::move_any(0, 1));
        b.build()
            .unwrap()
            .reachability(&ReachOptions::default())
            .unwrap()
    }

    #[test]
    fn minima_and_maxima_read_off_graph() {
        let g = pipeline_graph();
        assert_eq!(g.minima(), vec!["in_a", "in_b", "noise"]);
        assert_eq!(g.maxima(), vec!["noise", "out"]);
    }

    #[test]
    fn abstraction_decides_dependence() {
        let g = pipeline_graph();
        let behaviour = g.to_nfa();
        let (dep, minimal) = dependence_by_abstraction(&behaviour, "in_a", "out");
        assert!(dep);
        assert_eq!(minimal.state_count(), 3, "chain shape (Fig. 10)");
        let (dep, minimal) = dependence_by_abstraction(&behaviour, "noise", "out");
        assert!(!dep);
        assert_eq!(minimal.state_count(), 4, "diamond shape (Fig. 11)");
    }

    #[test]
    fn both_methods_agree() {
        let g = pipeline_graph();
        let behaviour = g.to_nfa();
        for minimum in g.minima() {
            for maximum in g.maxima() {
                if minimum == maximum {
                    continue;
                }
                let (by_abs, _) = dependence_by_abstraction(&behaviour, &minimum, &maximum);
                let by_prec = dependence_by_precedence(&behaviour, &minimum, &maximum);
                assert_eq!(by_abs, by_prec, "({minimum}, {maximum})");
            }
        }
    }

    #[test]
    fn elicit_from_graph_produces_requirements() {
        let g = pipeline_graph();
        let report = elicit_from_graph(&g, DependenceMethod::Abstraction, |name| {
            Agent::new(&format!("stakeholder_of_{name}"))
        });
        // out depends on in_a and in_b; noise on nothing; out not on noise.
        let reqs: Vec<String> = report
            .requirements
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            reqs,
            vec![
                "auth(in_a, out, stakeholder_of_out)",
                "auth(in_b, out, stakeholder_of_out)",
            ]
        );
        // verdicts cover all pairs except (noise, noise).
        assert_eq!(report.verdicts.len(), 3 * 2 - 1);
        assert!(report
            .verdicts
            .iter()
            .all(|v| v.minimal_automaton_states.is_some()));
    }

    #[test]
    fn stats_are_populated() {
        let g = pipeline_graph();
        let report = elicit_from_graph(&g, DependenceMethod::Abstraction, |_| Agent::new("P"));
        assert_eq!(report.stats.pairs_total, report.verdicts.len());
        assert!(report.stats.pair_eval >= std::time::Duration::ZERO);
    }

    #[test]
    fn precedence_method_omits_automaton_sizes() {
        let g = pipeline_graph();
        let report = elicit_from_graph(&g, DependenceMethod::Precedence, |_| Agent::new("P"));
        assert!(report
            .verdicts
            .iter()
            .all(|v| v.minimal_automaton_states.is_none()));
        assert_eq!(report.requirements.len(), 2);
    }

    #[test]
    fn observed_run_matches_unobserved_and_counters_mirror_live_stats() {
        let g = pipeline_graph();
        let options = ElicitOptions::default();
        let plain = elicit_with_options(&g, &options, |_| Agent::new("P"));
        let obs = Obs::enabled();
        let observed = elicit_observed(&g, &options, &obs, |_| Agent::new("P"));

        // Observability never changes the analysis result.
        assert_eq!(observed.verdicts, plain.verdicts);
        assert_eq!(observed.requirements, plain.requirements);
        assert_eq!(observed.minima, plain.minima);
        assert_eq!(observed.maxima, plain.maxima);

        // Every `elicit.*` counter mirrors its live stats field, and
        // every stage span measures the duration the struct holds.
        let snap = obs.snapshot();
        let stats = &observed.stats;
        assert_eq!((stats.fragments, stats.reach_states), (1, 0));
        assert_counters_mirror(&snap, stats);
        assert_eq!(snap.span_count("elicit"), 1);
        assert_eq!(
            snap.span_count("elicit.reach"),
            0,
            "the graph was handed in"
        );
        assert_eq!(
            span_names(&snap),
            BTreeSet::from(["elicit", "elicit.min_max", "elicit.pair_eval"])
        );
        for (stage, live) in [
            ("elicit.min_max", stats.min_max),
            ("elicit.pair_eval", stats.pair_eval),
        ] {
            assert_eq!(snap.span_count(stage), 1, "{stage}");
            assert_eq!(snap.span_total(stage), live, "{stage}");
            let rec = snap.spans.iter().find(|s| s.name == stage).unwrap();
            assert!(rec.parent.is_some(), "{stage} is parented under elicit");
        }
    }

    /// Asserts the snapshot holds exactly the `elicit.*` counters, each
    /// equal to its live stats field.
    fn assert_counters_mirror(snap: &fsa_obs::Snapshot, stats: &PipelineStats) {
        let mirrored = [
            ("elicit.pairs_total", stats.pairs_total),
            ("elicit.fragments", stats.fragments),
            ("elicit.reach.states", stats.reach_states),
        ];
        for (name, live) in mirrored {
            assert_eq!(snap.counter(name), Some(live as u64), "{name}");
        }
        let names: BTreeSet<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, mirrored.iter().map(|&(name, _)| name).collect());
    }

    /// The distinct span names of a snapshot.
    fn span_names(snap: &fsa_obs::Snapshot) -> BTreeSet<&str> {
        snap.spans.iter().map(|s| s.name.as_str()).collect()
    }

    /// `copies` independent relays, each moving two tokens through
    /// `src{k}` → `mid{k}` → `dst{k}` (nine states apiece).
    fn relays(copies: usize) -> Apa {
        let mut b = ApaBuilder::new();
        for k in 0..copies {
            let src = b.component(&format!("src{k}"), [Value::atom("x"), Value::atom("y")]);
            let mid = b.component(&format!("mid{k}"), []);
            let dst = b.component(&format!("dst{k}"), []);
            b.automaton(&format!("a{k}"), [src, mid], rule::move_any(0, 1));
            b.automaton(&format!("c{k}"), [mid, dst], rule::move_any(0, 1));
        }
        b.build().unwrap()
    }

    #[test]
    fn observed_fragment_run_spans_each_fragment_once() {
        let apa = relays(3);
        let obs = Obs::enabled();
        let report =
            elicit_apa(&apa, &ElicitOptions::service(1), &obs, |_| Agent::new("P")).unwrap();
        let snap = obs.snapshot();
        let stats = &report.stats;
        assert_eq!(stats.fragments, 3);
        // Each relay explores to 9 states (two tokens in three places):
        // 9³ in the product, 27 built.
        assert_eq!((report.state_count, stats.reach_states), (729, 27));
        assert_counters_mirror(&snap, stats);
        assert_eq!(snap.span_count("elicit"), 1);
        assert_eq!(
            span_names(&snap),
            BTreeSet::from([
                "elicit",
                "elicit.reach",
                "elicit.min_max",
                "elicit.pair_eval"
            ])
        );
        for (stage, live) in [
            ("elicit.reach", stats.reach),
            ("elicit.min_max", stats.min_max),
            ("elicit.pair_eval", stats.pair_eval),
        ] {
            assert_eq!(snap.span_count(stage), 3, "{stage}");
            assert_eq!(snap.span_total(stage), live, "{stage}");
        }
    }

    #[test]
    fn a_product_too_large_to_count_is_a_typed_error() {
        // Every relay is small; the product of enough of them overflows
        // usize and is reported, never built.
        let many = relays(21); // 9^21 > 2^64
        let err = elicit_apa(&many, &ElicitOptions::default(), &Obs::disabled(), |_| {
            Agent::new("P")
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                FsaError::RecompositionOverflow {
                    what: "state count"
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn unary_probing_recognises_bounds_and_pumping() {
        let analysis = |apa: Apa| {
            let graph = apa.reachability(&ReachOptions::default()).unwrap();
            let mut stats = PipelineStats::default();
            analyze(
                &graph,
                &ElicitOptions::default(),
                true,
                &Obs::disabled(),
                &mut stats,
            )
        };
        // `f` can fire exactly once.
        let mut b = ApaBuilder::new();
        let a = b.component("a", [Value::atom("x")]);
        let c = b.component("b", []);
        b.automaton("f", [a, c], rule::move_any(0, 1));
        assert_eq!(
            analysis(b.build().unwrap()).unary["f"],
            UnaryLang::Bounded(1)
        );

        // A ping-pong pair fires forever.
        let mut b = ApaBuilder::new();
        let a = b.component("a", [Value::atom("x")]);
        let c = b.component("b", []);
        b.automaton("f", [a, c], rule::move_any(0, 1));
        b.automaton("g", [c, a], rule::move_any(0, 1));
        assert_eq!(
            analysis(b.build().unwrap()).unary["f"],
            UnaryLang::Unbounded
        );
    }
}
