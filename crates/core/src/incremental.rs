//! Incremental elicitation: delta recomputation on model edits
//! (ROADMAP item 2).
//!
//! [`IncrementalElicitor`] runs the paper's §5 assisted pipeline over
//! the *fragments* of an [`EditModel`] (see [`crate::delta`]) instead
//! of its full reachability graph, memoising per-fragment analyses in
//! a bounded [`MemoStore`] and recomposing the full
//! [`AssistedReport`] by product. The analysis and the recomposition
//! are the ones every §5 path shares (see [`crate::assisted`]); this
//! module adds the value-level fragment lookup and the memo around
//! them. The recomposition is exact, not a
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
    analyze, recompose, AssistedReport, CrossCache, DependenceMethod, ElicitOptions,
    FragmentAnalysis, PipelineStats,
};
use crate::delta::{DeltaError, EditModel, ModelDelta};
use crate::memo::{MemoCounters, MemoStore};
use crate::FsaError;
use apa::{ReachGraph, ReachOptions};
use fsa_graph::iso::canonical_certificate;
use fsa_graph::{iso::find_isomorphism, DiGraph};
use fsa_obs::Obs;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A memo entry: the fragment's analysis plus its labeled reachability
/// digraph (states labeled `s0`/`s`, one node per edge labeled with its
/// automaton name) — the exact-verification witness behind the
/// `"cert"` namespace. A `"frag"` entry shares the `"cert"` entry it
/// was found or analysed through.
struct Memoised {
    analysis: FragmentAnalysis,
    graph: DiGraph<String>,
}

/// Encodes a reachability graph as a labeled digraph for the
/// certificate namespace: state `i` becomes a node labeled `s0` (the
/// initial state) or `s`; every edge becomes its own node labeled with
/// the firing automaton's *name*, arc'd source → edge-node → target.
///
/// A label-preserving isomorphism of two such digraphs guarantees equal
/// state/edge counts, minima, maxima, and — because the NFA over
/// automaton names is preserved — equal dependence verdicts, so a
/// memoised fragment analysis transfers wholesale. Interpretations
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
    store: MemoStore<Memoised>,
    /// Cross-fragment minimal-automaton sizes depend only on the two
    /// unary languages — a handful of entries, kept outside the
    /// bounded store.
    cross_cache: CrossCache,
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
            cross_cache: CrossCache::new(),
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
    ///
    /// Each fragment missing from the memo is analysed and the report
    /// recomposed by the shared calls of [`crate::assisted`]. They record
    /// nothing: the engine's own span and memo counters describe the
    /// run.
    pub fn elicit(&mut self, model: &EditModel, obs: &Obs) -> Result<AssistedReport, FsaError> {
        let run = obs.span("elicit.incremental");
        let evictions_before = self.store.counters().evictions;
        let mut run_hits = 0u64;
        let mut run_misses = 0u64;
        let options = ElicitOptions {
            method: self.method,
            threads: self.threads,
        };
        let quiet = Obs::disabled();
        let mut stats = PipelineStats::default();

        let fragments = model.fragments();
        let method_tag = match self.method {
            DependenceMethod::Abstraction => "abstraction",
            DependenceMethod::Precedence => "precedence",
        };
        let mut entries: Vec<Arc<Memoised>> = Vec::with_capacity(fragments.len());
        for fragment in &fragments {
            let payload = format!("{method_tag}\n{}", fragment.model.canonical_encoding());
            if let Some(hit) = self.store.lookup("frag", &payload, |_| true) {
                run_hits += 1;
                entries.push(hit);
                continue;
            }
            let span = quiet.span("elicit.reach");
            let graph = fragment
                .model
                .compile()?
                .reachability(&ReachOptions::default())?;
            stats.reach += span.finish();
            stats.reach_states += graph.state_count();
            let labeled = labeled_digraph(&graph);
            let cert = canonical_certificate(&labeled);
            let cert_payload = format!("{method_tag}/{cert:016x}");
            let entry = match self.store.lookup("cert", &cert_payload, |stored| {
                find_isomorphism(&stored.graph, &labeled).is_some()
            }) {
                Some(stored) => {
                    run_hits += 1;
                    stored
                }
                None => {
                    run_misses += 1;
                    let fresh = Arc::new(Memoised {
                        analysis: analyze(&graph, &options, true, &quiet, &mut stats)?,
                        graph: labeled,
                    });
                    self.store
                        .insert("cert", cert_payload, BTreeSet::new(), Arc::clone(&fresh));
                    fresh
                }
            };
            self.store
                .insert("frag", payload, fragment.deps.clone(), Arc::clone(&entry));
            entries.push(entry);
        }
        self.hits += run_hits;
        self.misses += run_misses;

        let analyses: Vec<&FragmentAnalysis> = entries.iter().map(|e| &e.analysis).collect();
        let report = recompose(&analyses, &options, &mut self.cross_cache, stats, |max| {
            model.stakeholder(max)
        })?;

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
        elicit_with_options(&graph, &ElicitOptions { method, threads: 1 }, |max| {
            model.stakeholder(max)
        })
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
}
