//! Incremental elicitation: delta recomputation on model edits
//! (ROADMAP item 2).
//!
//! [`IncrementalElicitor`] runs the paper's §5 assisted pipeline over
//! the *fragments* of an [`EditModel`] (see [`crate::delta`]) instead
//! of its full reachability graph, memoising per-fragment analyses in
//! a bounded [`MemoStore`] and recomposing the full
//! [`AssistedReport`] by product. The recomposition is exact, not a
//! heuristic — the report is bit-identical (stats aside) to a
//! from-scratch [`crate::assisted::elicit_with_options`] run on the
//! compiled model, which the property tests in
//! `tests/incremental_props.rs` check over random edit sequences.
//!
//! Two memo namespaces are used (DESIGN.md §2.11):
//!
//! * `"frag"` — content-addressed: FNV over the fragment sub-model's
//!   canonical encoding plus the dependence method. Invalidated by
//!   edits through the fragment's element names.
//! * `"cert"` — structure-addressed: FNV over the canonical
//!   certificate of the fragment's *labeled reachability digraph*
//!   (the `fsa_graph::iso` machinery), verified by an exact
//!   isomorphism check on hit so a certificate collision degrades to
//!   a miss. Entries have no dependencies and survive invalidation:
//!   an edit-undo pair re-uses the pre-edit analysis even though the
//!   frag entry was invalidated in between.

use crate::assisted::{
    dependence_by_abstraction, requirements_from_verdicts, AssistedReport, DependenceMethod,
    PairVerdict, PipelineStats,
};
use crate::delta::{DeltaError, EditModel, ModelDelta};
use crate::memo::{MemoCounters, MemoStore};
use crate::FsaError;
use apa::{ReachGraph, ReachOptions};
use automata::temporal::PrecedenceIndex;
use automata::{ops, shuffle::shuffle_product, Homomorphism, Nfa};
use fsa_graph::iso::canonical_certificate;
use fsa_graph::{iso::find_isomorphism, DiGraph};
use fsa_obs::Obs;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A unary prefix-closed language over one symbol: either all words up
/// to a bound, or the full `a*`. This is the exact shape of any
/// fragment behaviour projected onto a single action, and the whole
/// input a cross-fragment abstraction verdict needs from each side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UnaryLang {
    /// `{aⁱ | i ≤ bound}`.
    Bounded(usize),
    /// `a*`.
    Unbounded,
}

/// The memoised analysis of one fragment.
#[derive(Debug, Clone)]
pub struct FragmentAnalysis {
    /// States of the fragment's reachability graph.
    pub state_count: usize,
    /// Edges of the fragment's reachability graph.
    pub edge_count: usize,
    /// The fragment's minima (sorted by name).
    pub minima: Vec<String>,
    /// The fragment's maxima (sorted by name).
    pub maxima: Vec<String>,
    /// Whether the fragment's graph has a dead state. The full model
    /// has maxima iff *every* fragment does: an edge into a dead state
    /// of the product needs all other fragments dead too.
    pub has_dead: bool,
    /// Dependence verdicts for the fragment's own (maximum, minimum)
    /// grid, keyed `(maximum, minimum)`.
    pub verdicts: BTreeMap<(String, String), (bool, Option<usize>)>,
    /// Projection of the fragment behaviour onto each single minimum or
    /// maximum action (abstraction method only) — the input for
    /// cross-fragment minimal-automaton sizes.
    pub unary: BTreeMap<String, UnaryLang>,
    /// The labeled reachability digraph (states labeled `s0`/`s`, one
    /// node per edge labeled with its automaton name): the exact-
    /// verification witness behind the `"cert"` namespace.
    pub graph: DiGraph<String>,
}

/// Encodes a reachability graph as a labeled digraph for the
/// certificate namespace: state `i` becomes a node labeled `s0` (the
/// initial state) or `s`; every edge becomes its own node labeled with
/// the firing automaton's *name*, arc'd source → edge-node → target.
///
/// A label-preserving isomorphism of two such digraphs guarantees equal
/// state/edge counts, minima, maxima, and — because the NFA over
/// automaton names is preserved — equal dependence verdicts, so a
/// memoised [`FragmentAnalysis`] transfers wholesale. Interpretations
/// are deliberately dropped: no elicitation output depends on them.
pub fn labeled_digraph(graph: &ReachGraph) -> DiGraph<String> {
    let mut g = DiGraph::with_capacity(graph.state_count() + graph.edge_count());
    let states: Vec<_> = (0..graph.state_count())
        .map(|i| {
            g.add_node(if i == 0 {
                "s0".to_owned()
            } else {
                "s".to_owned()
            })
        })
        .collect();
    for (f, l, t) in graph.edges() {
        let e = g.add_node(graph.name(l.automaton).to_owned());
        g.add_edge(states[f], e);
        g.add_edge(e, states[t]);
    }
    g
}

/// The incremental elicitation engine: an [`EditModel`] session's
/// memo store plus the engine options. See the module docs.
pub struct IncrementalElicitor {
    store: MemoStore<FragmentAnalysis>,
    /// Cross-fragment minimal-automaton sizes depend only on the two
    /// unary languages — a handful of entries, kept outside the
    /// bounded store.
    cross_cache: BTreeMap<(UnaryLang, UnaryLang), usize>,
    method: DependenceMethod,
    threads: usize,
    hits: u64,
    misses: u64,
    invalidated: u64,
}

impl IncrementalElicitor {
    /// An engine whose memo store holds at most `capacity` entries
    /// (abstraction method, sequential).
    ///
    /// # Errors
    ///
    /// [`FsaError::InvalidCapacity`] when `capacity` is 0 (a zero-entry
    /// memo store would evict on every insert — see
    /// [`MemoStore::new`]).
    pub fn new(capacity: usize) -> Result<IncrementalElicitor, FsaError> {
        Ok(IncrementalElicitor {
            store: MemoStore::new(capacity)?,
            cross_cache: BTreeMap::new(),
            method: DependenceMethod::Abstraction,
            threads: 1,
            hits: 0,
            misses: 0,
            invalidated: 0,
        })
    }

    /// Selects the dependence method (default
    /// [`DependenceMethod::Abstraction`]).
    pub fn method(mut self, method: DependenceMethod) -> IncrementalElicitor {
        self.method = method;
        self
    }

    /// Sets the worker-thread count for fragment pair grids (default 1;
    /// the report is bit-identical for every thread count).
    pub fn threads(mut self, threads: usize) -> IncrementalElicitor {
        self.threads = threads.max(1);
        self
    }

    /// Re-sets the worker-thread count on a live engine (a resident
    /// session adjusts it per request); all memoised state survives.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Engine-level memo counters: `hits`/`misses` count *fragments*
    /// served from / analysed into the store, `invalidated` the entries
    /// dropped by edits, `evictions` the capacity-bound drops.
    pub fn memo_counters(&self) -> MemoCounters {
        MemoCounters {
            hits: self.hits,
            misses: self.misses,
            evictions: self.store.counters().evictions,
            invalidated: self.invalidated,
        }
    }

    /// Applies one edit to `model`, invalidating exactly the memo
    /// entries whose dependencies the edit touches, and returns the
    /// touched element names. A failed apply changes neither the model
    /// nor the store.
    pub fn apply(
        &mut self,
        model: &mut EditModel,
        delta: &ModelDelta,
        obs: &Obs,
    ) -> Result<BTreeSet<String>, DeltaError> {
        let touched = model.apply(delta)?;
        let dropped = self.store.invalidate_touching(&touched) as u64;
        self.invalidated += dropped;
        if obs.is_enabled() {
            obs.counter_add("elicit.memo.invalidated", dropped);
        }
        Ok(touched)
    }

    /// Elicits the requirement set of `model` incrementally. The
    /// returned report is bit-identical — stats aside — to
    /// [`crate::assisted::elicit_with_options`] with this engine's
    /// method on the compiled model's reachability graph.
    pub fn elicit(&mut self, model: &EditModel, obs: &Obs) -> Result<AssistedReport, FsaError> {
        let run = obs.span("elicit.incremental");
        let evictions_before = self.store.counters().evictions;
        let mut run_hits = 0u64;
        let mut run_misses = 0u64;

        let fragments = model.fragments();
        let method_tag = match self.method {
            DependenceMethod::Abstraction => "abstraction",
            DependenceMethod::Precedence => "precedence",
        };
        let mut analyses: Vec<Arc<FragmentAnalysis>> = Vec::with_capacity(fragments.len());
        for fragment in &fragments {
            let payload = format!("{method_tag}\n{}", fragment.model.canonical_encoding());
            if let Some(hit) = self.store.lookup("frag", &payload, |_| true) {
                run_hits += 1;
                analyses.push(hit);
                continue;
            }
            let graph = fragment
                .model
                .compile()?
                .reachability(&ReachOptions::default())?;
            let labeled = labeled_digraph(&graph);
            let cert = canonical_certificate(&labeled);
            let cert_payload = format!("{method_tag}/{cert:016x}");
            let analysis = match self.store.lookup("cert", &cert_payload, |stored| {
                find_isomorphism(&stored.graph, &labeled).is_some()
            }) {
                Some(stored) => {
                    run_hits += 1;
                    stored
                }
                None => {
                    run_misses += 1;
                    let fresh = Arc::new(analyze_fragment(
                        &graph,
                        labeled,
                        self.method,
                        self.threads,
                    )?);
                    self.store
                        .insert("cert", cert_payload, BTreeSet::new(), Arc::clone(&fresh));
                    fresh
                }
            };
            self.store.insert(
                "frag",
                payload,
                fragment.deps.clone(),
                Arc::clone(&analysis),
            );
            analyses.push(analysis);
        }
        self.hits += run_hits;
        self.misses += run_misses;

        let report = self.recompose(&analyses, model)?;

        if obs.is_enabled() {
            obs.counter_add("elicit.memo.hits", run_hits);
            obs.counter_add("elicit.memo.misses", run_misses);
            obs.counter_add(
                "elicit.memo.evictions",
                self.store.counters().evictions - evictions_before,
            );
        }
        drop(run);
        Ok(report)
    }

    /// Recomposes the full report from the fragment analyses (see the
    /// invariants on [`FragmentAnalysis`] and DESIGN.md §2.11).
    fn recompose(
        &mut self,
        analyses: &[Arc<FragmentAnalysis>],
        model: &EditModel,
    ) -> Result<AssistedReport, FsaError> {
        let too_large = |what: &str| FsaError::InvalidComponentModel {
            reason: format!("incremental recomposition: {what} overflows usize"),
        };
        let state_product: u128 = analyses.iter().map(|a| a.state_count as u128).product();
        let state_count = usize::try_from(state_product).map_err(|_| too_large("state count"))?;
        let mut edge_total: u128 = 0;
        for (i, a) in analyses.iter().enumerate() {
            let others: u128 = analyses
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, b)| b.state_count as u128)
                .product();
            edge_total += a.edge_count as u128 * others;
        }
        let edge_count = usize::try_from(edge_total).map_err(|_| too_large("edge count"))?;

        let mut frag_of: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, a) in analyses.iter().enumerate() {
            for name in a.minima.iter().chain(a.maxima.iter()) {
                frag_of.insert(name, i);
            }
        }
        let mut minima: Vec<String> = analyses
            .iter()
            .flat_map(|a| a.minima.iter().cloned())
            .collect();
        minima.sort();
        let mut maxima: Vec<String> = if analyses.iter().all(|a| a.has_dead) {
            analyses
                .iter()
                .flat_map(|a| a.maxima.iter().cloned())
                .collect()
        } else {
            Vec::new()
        };
        maxima.sort();

        let mut verdicts = Vec::with_capacity(maxima.len() * minima.len());
        for maximum in &maxima {
            for minimum in &minima {
                if minimum == maximum {
                    continue;
                }
                let (fmin, fmax) = (frag_of[minimum.as_str()], frag_of[maximum.as_str()]);
                let (dependent, minimal_automaton_states) = if fmin == fmax {
                    *analyses[fmax]
                        .verdicts
                        .get(&(maximum.clone(), minimum.clone()))
                        .expect("fragment grid covers its own pairs")
                } else {
                    // Cross-fragment: the other fragment can always run
                    // to the maximum with no minimum in between, so the
                    // pair is independent; under abstraction the
                    // minimal automaton of the projected shuffle is
                    // still reported, from the two unary projections.
                    let states = match self.method {
                        DependenceMethod::Abstraction => Some(self.cross_pair_states(
                            analyses[fmin].unary[minimum.as_str()],
                            analyses[fmax].unary[maximum.as_str()],
                        )),
                        DependenceMethod::Precedence => None,
                    };
                    (false, states)
                };
                verdicts.push(PairVerdict {
                    minimum: minimum.clone(),
                    maximum: maximum.clone(),
                    dependent,
                    minimal_automaton_states,
                });
            }
        }

        let requirements = requirements_from_verdicts(&verdicts, |max| model.stakeholder(max));
        let stats = PipelineStats {
            pairs_total: verdicts.len(),
            threads: self.threads,
            ..PipelineStats::default()
        };
        Ok(AssistedReport {
            state_count,
            edge_count,
            minima,
            maxima,
            verdicts,
            requirements,
            stats,
        })
    }

    /// The minimal-DFA size of the shuffle of two unary languages over
    /// distinct symbols — what the full pipeline's
    /// `minimize(determinize(erase_all_except([min, max])))` computes
    /// for a cross-fragment pair. Independent of the symbol names, so
    /// memoised per language pair.
    fn cross_pair_states(&mut self, min: UnaryLang, max: UnaryLang) -> usize {
        if let Some(&states) = self.cross_cache.get(&(min, max)) {
            return states;
        }
        let product = shuffle_product(&unary_nfa(min, "a"), &unary_nfa(max, "b"));
        let states = ops::minimize(&ops::determinize(&product)).state_count();
        self.cross_cache.insert((min, max), states);
        states
    }
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

/// Runs the §5 pipeline on one fragment graph: minima/maxima, the
/// fragment-local dependence grid (chunked over `threads` workers,
/// merged in index order — deterministic for every thread count), and
/// the per-action unary projections for cross-fragment pairs.
///
/// # Errors
///
/// [`FsaError::WorkerPanicked`] (stage `incremental:pairs`) if a pair
/// worker panics.
fn analyze_fragment(
    graph: &ReachGraph,
    labeled: DiGraph<String>,
    method: DependenceMethod,
    threads: usize,
) -> Result<FragmentAnalysis, FsaError> {
    let behaviour = graph.to_nfa();
    let minima = graph.minima();
    let maxima = graph.maxima();
    let has_dead = !graph.dead_states().is_empty();

    let mut pairs: Vec<(String, String)> = Vec::with_capacity(maxima.len() * minima.len());
    for maximum in &maxima {
        for minimum in &minima {
            if minimum != maximum {
                pairs.push((maximum.clone(), minimum.clone()));
            }
        }
    }
    let precedence_index = match method {
        DependenceMethod::Precedence => Some(PrecedenceIndex::new(&behaviour)),
        DependenceMethod::Abstraction => None,
    };
    let eval = |(maximum, minimum): &(String, String)| -> (bool, Option<usize>) {
        match method {
            DependenceMethod::Abstraction => {
                let (dep, minimal) = dependence_by_abstraction(&behaviour, minimum, maximum);
                (dep, Some(minimal.state_count()))
            }
            DependenceMethod::Precedence => {
                let index = precedence_index.as_ref().expect("built for this method");
                (index.precedes_names(minimum, maximum), None)
            }
        }
    };
    let results = eval_chunked(&pairs, threads, eval)?;
    let verdicts: BTreeMap<(String, String), (bool, Option<usize>)> =
        pairs.into_iter().zip(results).collect();

    let mut unary = BTreeMap::new();
    if method == DependenceMethod::Abstraction {
        let mut actions: BTreeSet<&String> = minima.iter().collect();
        actions.extend(maxima.iter());
        for action in actions {
            let h = Homomorphism::erase_all_except([action.as_str()]);
            let minimal = ops::minimize(&ops::determinize(&h.apply(&behaviour)));
            let n = minimal.state_count();
            // The projection of a prefix-closed language onto one
            // symbol is {aⁱ | i ≤ j} or a*; probe the minimal DFA by
            // acceptance. If aⁿ is accepted the language pumps.
            let lang = if minimal.accepts(vec![action.as_str(); n]) {
                UnaryLang::Unbounded
            } else {
                let bound = (0..n)
                    .rev()
                    .find(|&i| minimal.accepts(vec![action.as_str(); i]))
                    .unwrap_or(0);
                UnaryLang::Bounded(bound)
            };
            unary.insert(action.clone(), lang);
        }
    }

    Ok(FragmentAnalysis {
        state_count: graph.state_count(),
        edge_count: graph.edge_count(),
        minima,
        maxima,
        has_dead,
        verdicts,
        unary,
        graph: labeled,
    })
}

/// Maps `eval` over `items` in chunks on up to `threads` scoped
/// workers, merged in index order. Every worker is joined before the
/// first panicking chunk is reported, so a second panic cannot abort
/// the scope.
fn eval_chunked<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    eval: impl Fn(&T) -> R + Sync,
) -> Result<Vec<R>, FsaError> {
    if threads <= 1 || items.len() < 2 {
        return Ok(items.iter().map(eval).collect());
    }
    let chunk = items.len().div_ceil(threads);
    let per_chunk: Vec<Result<Vec<R>, usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(&eval).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(i, h)| h.join().map_err(|_| i))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for part in per_chunk {
        match part {
            Ok(results) => out.extend(results),
            Err(chunk) => {
                return Err(FsaError::WorkerPanicked {
                    stage: "incremental:pairs",
                    chunk,
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assisted::{elicit_with_options, ElicitOptions};

    fn model_from(lines: &[&str]) -> EditModel {
        let mut m = EditModel::new();
        for line in lines {
            m.apply(&ModelDelta::parse(line).expect(line)).expect(line);
        }
        m
    }

    /// Two CAM pairs out of range of each other — two fragments.
    fn two_zone_model() -> EditModel {
        let mut lines = Vec::new();
        for (k, base) in [(0usize, 0i64), (1, 10_000)] {
            let (w, r) = (2 * k + 1, 2 * k + 2);
            lines.push(format!("add-component esp{w} sW"));
            lines.push(format!("add-component gps{w} {base}"));
            lines.push(format!("add-component bus{w}"));
            lines.push(format!("add-component hmi{w}"));
            if k == 0 {
                lines.push("add-component net".to_owned());
            }
            lines.push(format!("add-flow V{w}_sense move esp{w} bus{w}"));
            lines.push(format!("add-flow V{w}_pos move gps{w} bus{w}"));
            lines.push(format!("add-flow V{w}_send send-cam:V{w} bus{w} net"));
            lines.push(format!("add-flow V{w}_rec recv-cam:100 net bus{w}"));
            lines.push(format!("add-flow V{w}_show move-atom:warn bus{w} hmi{w}"));
            lines.push(format!("add-component esp{r}"));
            lines.push(format!("add-component gps{r} {}", base + 50));
            lines.push(format!("add-component bus{r}"));
            lines.push(format!("add-component hmi{r}"));
            lines.push(format!("add-flow V{r}_sense move esp{r} bus{r}"));
            lines.push(format!("add-flow V{r}_pos move gps{r} bus{r}"));
            lines.push(format!("add-flow V{r}_send send-cam:V{r} bus{r} net"));
            lines.push(format!("add-flow V{r}_rec recv-cam:100 net bus{r}"));
            lines.push(format!("add-flow V{r}_show move-atom:warn bus{r} hmi{r}"));
        }
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        model_from(&refs)
    }

    fn from_scratch(model: &EditModel, method: DependenceMethod) -> AssistedReport {
        let graph = model
            .compile()
            .unwrap()
            .reachability(&ReachOptions::default())
            .unwrap();
        elicit_with_options(
            &graph,
            &ElicitOptions {
                method,
                threads: 1,
                prune: false,
            },
            |max| model.stakeholder(max),
        )
    }

    fn assert_report_eq(incremental: &AssistedReport, scratch: &AssistedReport) {
        assert_eq!(incremental.state_count, scratch.state_count);
        assert_eq!(incremental.edge_count, scratch.edge_count);
        assert_eq!(incremental.minima, scratch.minima);
        assert_eq!(incremental.maxima, scratch.maxima);
        assert_eq!(incremental.verdicts, scratch.verdicts);
        assert_eq!(incremental.requirements, scratch.requirements);
    }

    #[test]
    fn matches_from_scratch_on_the_multi_fragment_model() {
        let model = two_zone_model();
        for method in [DependenceMethod::Abstraction, DependenceMethod::Precedence] {
            let mut engine = IncrementalElicitor::new(64).unwrap().method(method);
            let report = engine.elicit(&model, &Obs::disabled()).unwrap();
            assert_report_eq(&report, &from_scratch(&model, method));
            assert!(report.state_count > 100, "product recomposition expected");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let model = two_zone_model();
        let baseline = IncrementalElicitor::new(64)
            .unwrap()
            .elicit(&model, &Obs::disabled())
            .unwrap();
        for threads in [2, 4, 8] {
            let report = IncrementalElicitor::new(64)
                .unwrap()
                .threads(threads)
                .elicit(&model, &Obs::disabled())
                .unwrap();
            assert_report_eq(&report, &baseline);
        }
    }

    #[test]
    fn edits_invalidate_only_the_touched_fragment() {
        let mut model = two_zone_model();
        let mut engine = IncrementalElicitor::new(64).unwrap();
        let obs = Obs::disabled();
        engine.elicit(&model, &obs).unwrap();
        let first = engine.memo_counters();
        assert_eq!((first.hits, first.misses), (0, 2));

        // Re-elicit without edits: all fragments hit.
        engine.elicit(&model, &obs).unwrap();
        let second = engine.memo_counters();
        assert_eq!((second.hits, second.misses), (2, 2));

        // Move zone 2's receiver out of range: zone 1 still hits; the
        // reshaped zone 2 (and the now-isolated V4_pos fragment) are
        // fresh analyses — the certificate namespace cannot help
        // because the fragment graphs genuinely changed shape.
        engine
            .apply(
                &mut model,
                &ModelDelta::parse("set-initial gps4 20000").unwrap(),
                &obs,
            )
            .unwrap();
        let report = engine.elicit(&model, &obs).unwrap();
        let third = engine.memo_counters();
        assert_eq!((third.hits, third.misses), (3, 4));
        assert_eq!(third.invalidated, 1);
        assert_report_eq(
            &report,
            &from_scratch(&model, DependenceMethod::Abstraction),
        );
    }

    #[test]
    fn edit_undo_reuses_the_certificate_namespace() {
        let mut model = two_zone_model();
        let mut engine = IncrementalElicitor::new(64).unwrap();
        let obs = Obs::disabled();
        engine.elicit(&model, &obs).unwrap();
        engine
            .apply(
                &mut model,
                &ModelDelta::parse("set-initial gps2 99").unwrap(),
                &obs,
            )
            .unwrap();
        engine.elicit(&model, &obs).unwrap();
        let before_undo = engine.memo_counters();
        engine
            .apply(
                &mut model,
                &ModelDelta::parse("set-initial gps2 50").unwrap(),
                &obs,
            )
            .unwrap();
        // The frag entry for zone 1 was invalidated twice, but the
        // cert entry survives: the undone model's fragment graph is
        // isomorphic to the original's, so no fresh analysis runs.
        let report = engine.elicit(&model, &obs).unwrap();
        let after = engine.memo_counters();
        assert_eq!(after.misses, before_undo.misses);
        assert!(after.hits > before_undo.hits);
        assert_report_eq(
            &report,
            &from_scratch(&model, DependenceMethod::Abstraction),
        );
    }

    #[test]
    fn cross_fragment_states_match_the_full_abstraction() {
        // The cross-fragment minimal-automaton sizes come out of the
        // unary shuffle; check them against the from-scratch pipeline
        // pair by pair on a model where every (max, min) pair of
        // interest crosses fragments.
        let model = two_zone_model();
        let report = IncrementalElicitor::new(64)
            .unwrap()
            .elicit(&model, &Obs::disabled())
            .unwrap();
        let scratch = from_scratch(&model, DependenceMethod::Abstraction);
        let crossing = report
            .verdicts
            .iter()
            .filter(|v| {
                let zone = |s: &str| s.contains('1') || s.contains('2');
                zone(&v.minimum) != zone(&v.maximum)
            })
            .count();
        assert!(crossing > 0, "model should produce cross-fragment pairs");
        assert_eq!(report.verdicts, scratch.verdicts);
    }

    #[test]
    fn unary_probing_recognises_bounds_and_pumping() {
        let model = model_from(&[
            "add-component a x",
            "add-component b",
            "add-flow f move a b",
        ]);
        let graph = model
            .compile()
            .unwrap()
            .reachability(&ReachOptions::default())
            .unwrap();
        let analysis = analyze_fragment(
            &graph,
            labeled_digraph(&graph),
            DependenceMethod::Abstraction,
            1,
        )
        .unwrap();
        // `f` can fire exactly once.
        assert_eq!(analysis.unary["f"], UnaryLang::Bounded(1));

        // A ping-pong pair fires forever.
        let model = model_from(&[
            "add-component a x",
            "add-component b",
            "add-flow f move a b",
            "add-flow g move b a",
        ]);
        let graph = model
            .compile()
            .unwrap()
            .reachability(&ReachOptions::default())
            .unwrap();
        let analysis = analyze_fragment(
            &graph,
            labeled_digraph(&graph),
            DependenceMethod::Abstraction,
            1,
        )
        .unwrap();
        assert_eq!(analysis.unary["f"], UnaryLang::Unbounded);
    }

    #[test]
    fn a_panicking_pair_worker_is_a_typed_error() {
        let items: Vec<usize> = (0..8).collect();
        let doubled = eval_chunked(&items, 4, |&i| i * 2).unwrap();
        assert_eq!(doubled, vec![0, 2, 4, 6, 8, 10, 12, 14]);
        // Four chunks of two items; items 5 and 7 sit in chunks 2 and 3,
        // and the first panicking chunk is reported.
        let err = eval_chunked(&items, 4, |&i| {
            assert!(i != 5 && i != 7, "injected pair-worker panic");
            i
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                FsaError::WorkerPanicked {
                    stage: "incremental:pairs",
                    chunk: 2
                }
            ),
            "{err}"
        );
    }
}
