//! Incremental elicitation: delta recomputation on model edits.
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
//! The memo is content-addressed (DESIGN.md §2.11): a fragment's key is
//! the dependence method plus the canonical encoding of the fragment's
//! sub-model ([`crate::delta::Fragment::write_key`]), which is
//! injective and leaves out nothing the analysis reads. An edit
//! therefore never makes an entry wrong, only unused until the same
//! content comes back: nothing is invalidated, an undone edit finds its
//! pre-edit entries, and a hit costs the fragment search, one key and
//! one lookup.

use crate::assisted::{
    analyze, recompose, AssistedReport, CrossCache, DependenceMethod, ElicitOptions,
    FragmentAnalysis, PipelineStats,
};
use crate::delta::EditModel;
use crate::memo::{MemoCounters, MemoStore};
use crate::FsaError;
use apa::ReachOptions;
use fsa_obs::Obs;
use std::sync::Arc;

/// The incremental elicitation engine: an [`EditModel`] session's
/// memo store plus the engine options. See the module docs.
pub struct IncrementalElicitor {
    store: MemoStore<FragmentAnalysis>,
    /// Cross-fragment minimal-automaton sizes depend only on the two
    /// unary languages — a handful of entries, kept outside the
    /// bounded store.
    cross_cache: CrossCache,
    method: DependenceMethod,
}

impl IncrementalElicitor {
    /// An engine whose memo store holds at most `capacity` entries
    /// (abstraction method).
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
        })
    }

    /// Selects the dependence method (default
    /// [`DependenceMethod::Abstraction`]).
    pub fn method(mut self, method: DependenceMethod) -> IncrementalElicitor {
        self.method = method;
        self
    }

    /// Engine-level memo counters: `hits`/`misses` count *fragments*
    /// served from / analysed into the store, `evictions` the
    /// capacity-bound drops.
    pub fn memo_counters(&self) -> MemoCounters {
        self.store.counters()
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
        let before = self.store.counters();
        let options = ElicitOptions {
            method: self.method,
        };
        let quiet = Obs::disabled();
        let mut stats = PipelineStats::default();

        let method_tag = match self.method {
            DependenceMethod::Abstraction => "abstraction\n",
            DependenceMethod::Precedence => "precedence\n",
        };
        let mut key = String::new();
        let mut entries: Vec<Arc<FragmentAnalysis>> = Vec::new();
        for fragment in model.fragments() {
            key.clear();
            key.push_str(method_tag);
            fragment.write_key(&mut key);
            if let Some(hit) = self.store.lookup(&key) {
                entries.push(hit);
                continue;
            }
            let span = quiet.span("elicit.reach");
            let graph = fragment
                .model()
                .compile()?
                .reachability(&ReachOptions::default())?;
            stats.reach += span.finish();
            stats.reach_states += graph.state_count();
            let analysis = Arc::new(analyze(&graph, &options, true, &quiet, &mut stats));
            self.store.insert(key.clone(), Arc::clone(&analysis));
            entries.push(analysis);
        }

        let analyses: Vec<&FragmentAnalysis> = entries.iter().map(Arc::as_ref).collect();
        let report = recompose(&analyses, &options, &mut self.cross_cache, stats, |max| {
            model.stakeholder(max)
        })?;

        if obs.is_enabled() {
            let after = self.store.counters();
            obs.counter_add("elicit.memo.hits", after.hits - before.hits);
            obs.counter_add("elicit.memo.misses", after.misses - before.misses);
            obs.counter_add("elicit.memo.evictions", after.evictions - before.evictions);
        }
        drop(run);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assisted::{elicit_with_options, ElicitOptions};
    use crate::delta::{ModelDelta, ValueLit};
    use std::collections::BTreeSet;

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
        elicit_with_options(&graph, &ElicitOptions { method }, |max| {
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
    fn an_edit_misses_only_the_fragments_whose_content_changed() {
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

        // Move zone 2's receiver out of range: zone 1's content is
        // unchanged and hits; the reshaped zone 2 (and the now-isolated
        // V4_pos fragment) are new content, so fresh analyses.
        model
            .apply(&ModelDelta::parse("set-initial gps4 20000").unwrap())
            .unwrap();
        let report = engine.elicit(&model, &obs).unwrap();
        let third = engine.memo_counters();
        assert_eq!((third.hits, third.misses), (3, 4));
        assert_report_eq(
            &report,
            &from_scratch(&model, DependenceMethod::Abstraction),
        );
    }

    #[test]
    fn an_undone_edit_hits_the_pre_edit_content() {
        let mut model = two_zone_model();
        let mut engine = IncrementalElicitor::new(64).unwrap();
        let obs = Obs::disabled();
        engine.elicit(&model, &obs).unwrap();
        model
            .apply(&ModelDelta::parse("set-initial gps2 99").unwrap())
            .unwrap();
        engine.elicit(&model, &obs).unwrap();
        let before_undo = engine.memo_counters();
        model
            .apply(&ModelDelta::parse("set-initial gps2 50").unwrap())
            .unwrap();
        // The undone model's fragments have the original content, whose
        // entries are still in the store: no fresh analysis runs.
        let report = engine.elicit(&model, &obs).unwrap();
        let after = engine.memo_counters();
        assert_eq!(after.misses, before_undo.misses);
        assert_eq!(after.hits, before_undo.hits + 2);
        assert_report_eq(
            &report,
            &from_scratch(&model, DependenceMethod::Abstraction),
        );
    }

    #[test]
    fn an_atom_and_an_integer_of_the_same_text_are_different_content() {
        // `a{5} bus{sW,7} net c`, flows m: a→bus, s: bus→net, m2: bus→c.
        // With the atom `5` on `a`, the send consumes only the 7; with
        // the integer it can also send a CAM at 5. A key that printed
        // both values alike would answer the second model from the
        // first model's analysis.
        let mut model = model_from(&[
            "add-component a",
            "add-component bus sW 7",
            "add-component net",
            "add-component c",
            "add-flow m move a bus",
            "add-flow s send-cam:V1 bus net",
            "add-flow m2 move bus c",
        ]);
        let mut engine = IncrementalElicitor::new(64)
            .unwrap()
            .method(DependenceMethod::Precedence);
        let obs = Obs::disabled();
        for value in [ValueLit::Atom("5".to_owned()), ValueLit::Int(5)] {
            model
                .apply(&ModelDelta::SetInitial {
                    name: "a".to_owned(),
                    initial: BTreeSet::from([value]),
                })
                .unwrap();
            let report = engine.elicit(&model, &obs).unwrap();
            assert_report_eq(&report, &from_scratch(&model, DependenceMethod::Precedence));
        }
        let report = engine.elicit(&model, &obs).unwrap();
        assert_eq!((report.state_count, report.edge_count), (17, 28));
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
