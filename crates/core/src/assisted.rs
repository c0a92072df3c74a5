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
//! * by a direct **precedence check** on the behaviour — an equivalent
//!   decision procedure offered for cross-validation and benchmarking.

use crate::action::{Action, Agent};
use crate::requirements::{AuthRequirement, RequirementSet};
use apa::ReachGraph;
use automata::temporal::PrecedenceIndex;
use automata::{ops, temporal, Dfa, Homomorphism, Nfa, Symbol};
use fsa_obs::Obs;
use std::time::Duration;

/// The decision procedure for functional dependence of a (max, min)
/// pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependenceMethod {
    /// Homomorphic abstraction + minimal automaton (the paper's §5.5).
    Abstraction,
    /// Direct precedence check on the full behaviour.
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
    /// Per-stage timings and cache counters of this run.
    pub stats: PipelineStats,
}

/// Tuning knobs of the dependence-checking engine
/// (see [`elicit_with_options`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElicitOptions {
    /// The decision procedure per (maximum, minimum) pair.
    pub method: DependenceMethod,
    /// Worker threads for the pair grid; `0` or `1` evaluates
    /// sequentially. The verdict vector is identical for every thread
    /// count (deterministic index-ordered merge).
    pub threads: usize,
    /// Skip pairs whose minimum provably never occurs on any path to a
    /// firing of the maximum (verdict `dependent = false`,
    /// `minimal_automaton_states = None`, no automaton is built).
    pub prune: bool,
}

impl Default for ElicitOptions {
    fn default() -> Self {
        ElicitOptions {
            method: DependenceMethod::Abstraction,
            threads: 1,
            prune: false,
        }
    }
}

impl ElicitOptions {
    /// The one options constructor every serving surface uses — the
    /// resident service's `elicit` frames and the one-shot CLI
    /// cross-check build *these* options, so served and one-shot runs
    /// are the same engine configuration by construction (they used to
    /// diverge on `prune`, which preserves verdicts and rendered output
    /// but skews the `pairs_pruned`/`prune_pass` stats between paths).
    ///
    /// Precedence method, co-reachability pruning on.
    #[must_use]
    pub fn service(threads: usize) -> Self {
        ElicitOptions {
            method: DependenceMethod::Precedence,
            threads,
            prune: true,
        }
    }
}

/// Per-stage timings and work counters of one elicitation run
/// (§5.5 pipeline: behaviour → minima/maxima → pair grid).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Time to build the behaviour NFA from the reachability graph.
    pub behaviour_nfa: Duration,
    /// Time to read the minima and maxima off the graph.
    pub min_max: Duration,
    /// Time for the occurrence/co-reachability pruning pre-pass.
    pub prune_pass: Duration,
    /// Time to evaluate the (maxima × minima) grid.
    pub pair_eval: Duration,
    /// Pairs in the grid (minimum ≠ maximum).
    pub pairs_total: usize,
    /// Pairs decided by the pruning pre-pass alone.
    pub pairs_pruned: usize,
    /// Pair evaluations that reused a cached per-maximum backward
    /// reachability instead of recomputing it.
    pub coreach_cache_hits: usize,
    /// Worker threads used for the pair grid (1 = sequential).
    pub threads: usize,
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
/// the full behaviour (no abstraction).
pub fn dependence_by_precedence(behaviour: &Nfa, minimum: &str, maximum: &str) -> bool {
    temporal::precedes(behaviour, minimum, maximum)
}

/// Builds the requirement set from a verdict vector: one authenticity
/// requirement per *dependent* pair, with the responsible agent
/// assigned by `stakeholder` from the maximum's action name.
///
/// Shared between [`elicit_observed`] and the incremental engine
/// ([`crate::incremental::IncrementalElicitor`]), so both derive
/// requirements from verdicts in exactly the same way.
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
/// default engine options (sequential, no pruning) — byte-identical to
/// the original per-pair loop.
///
/// `stakeholder` assigns the responsible agent to each *maximum* action
/// name (e.g. `V2_show ↦ D_2`).
pub fn elicit_from_graph(
    graph: &ReachGraph,
    method: DependenceMethod,
    stakeholder: impl Fn(&str) -> Agent,
) -> AssistedReport {
    elicit_with_options(
        graph,
        &ElicitOptions {
            method,
            ..ElicitOptions::default()
        },
        stakeholder,
    )
}

/// The per-maximum backward-reachability pruning index.
///
/// Shared work across the pair grid: the reversed graph (as one flat
/// CSR) and the per-symbol edge occurrence sets are built once; for
/// each *maximum* `m` the set of states that can still reach an
/// `m`-firing state is computed once — by the word-parallel
/// [`fsa_graph::bitset::bfs_reachable`] frontier kernel over the
/// reversed CSR — and the resulting [`BitSet`] is reused for every
/// minimum paired with `m`.
struct PruneIndex {
    /// State count (bitset capacity of every co-reachability sweep).
    n: usize,
    /// Reversed CSR: the predecessors of state `s` are
    /// `rev_pred[rev_off[s] as usize..rev_off[s + 1] as usize]`
    /// (deduplicated).
    rev_off: Vec<u32>,
    rev_pred: Vec<u32>,
    /// Per-symbol CSR: states with an outgoing edge labelled `y` are
    /// `fire_src[fire_off[y]..fire_off[y + 1]]` (as `usize` ranges).
    fire_off: Vec<u32>,
    fire_src: Vec<u32>,
    /// Per-symbol CSR of edge *target* states, same shape.
    tgt_off: Vec<u32>,
    tgt_state: Vec<u32>,
}

impl PruneIndex {
    fn new(graph: &ReachGraph) -> Self {
        let n = graph.state_count();
        let n_syms = graph.symbols().len();
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut fire_sources: Vec<Vec<u32>> = vec![Vec::new(); n_syms];
        let mut edge_targets: Vec<Vec<u32>> = vec![Vec::new(); n_syms];
        for (f, l, t) in graph.edges() {
            rev[t].push(f as u32);
            fire_sources[l.automaton.index()].push(f as u32);
            edge_targets[l.automaton.index()].push(t as u32);
        }
        for preds in &mut rev {
            preds.sort_unstable();
            preds.dedup();
        }
        let flatten = |lists: Vec<Vec<u32>>| -> (Vec<u32>, Vec<u32>) {
            let mut off = Vec::with_capacity(lists.len() + 1);
            off.push(0u32);
            let mut flat = Vec::with_capacity(lists.iter().map(Vec::len).sum());
            for list in lists {
                flat.extend_from_slice(&list);
                off.push(u32::try_from(flat.len()).expect("CSR offset exceeds u32"));
            }
            (off, flat)
        };
        let (rev_off, rev_pred) = flatten(rev);
        let (fire_off, fire_src) = flatten(fire_sources);
        let (tgt_off, tgt_state) = flatten(edge_targets);
        PruneIndex {
            n,
            rev_off,
            rev_pred,
            fire_off,
            fire_src,
            tgt_off,
            tgt_state,
        }
    }

    /// The states that can reach (in ≥ 0 steps) a state with an
    /// outgoing `max`-labelled edge — one bitset frontier sweep over
    /// the reversed CSR.
    fn coreach(&self, max: Symbol) -> fsa_graph::BitSet {
        let mut seeds = fsa_graph::BitSet::new(self.n);
        let y = max.index();
        for &s in &self.fire_src[self.fire_off[y] as usize..self.fire_off[y + 1] as usize] {
            seeds.insert(s as usize);
        }
        fsa_graph::bitset::bfs_reachable(&self.rev_off, &self.rev_pred, &seeds)
    }

    /// `true` iff `min` can occur strictly before some later (or
    /// immediate) firing of `max` on a path of the graph. When `false`,
    /// the pair is independent without running a decision procedure:
    /// every firing of the maximum happens on a run with no earlier
    /// minimum, so the precedence property is violated.
    fn min_before_max_possible(&self, min: Symbol, max_coreach: &fsa_graph::BitSet) -> bool {
        let y = min.index();
        self.tgt_state[self.tgt_off[y] as usize..self.tgt_off[y + 1] as usize]
            .iter()
            .any(|&v| max_coreach.contains(v as usize))
    }
}

/// Runs the tool-assisted pipeline with explicit engine options:
/// worker threads over the (maxima × minima) grid and the
/// occurrence-set pruning pre-pass.
///
/// For any fixed options, the verdict vector is deterministic; for any
/// *thread count*, it is bit-identical to the sequential run (pairs are
/// chunked, evaluated independently, and merged in index order).
/// Pruned pairs report `dependent = false` with
/// `minimal_automaton_states = None`.
pub fn elicit_with_options(
    graph: &ReachGraph,
    options: &ElicitOptions,
    stakeholder: impl Fn(&str) -> Agent,
) -> AssistedReport {
    elicit_observed(graph, options, &Obs::disabled(), stakeholder)
}

/// [`elicit_with_options`] with an observability handle: every pipeline
/// stage runs under an `elicit.*` span and the work counters are
/// mirrored into `elicit.*` counters. With [`Obs::disabled`] (what
/// [`elicit_with_options`] passes) nothing is recorded and the report —
/// including [`PipelineStats`] — is identical to the unobserved run:
/// the stats are filled from the very same span measurements.
pub fn elicit_observed(
    graph: &ReachGraph,
    options: &ElicitOptions,
    obs: &Obs,
    stakeholder: impl Fn(&str) -> Agent,
) -> AssistedReport {
    let run = obs.span("elicit");
    let mut stats = PipelineStats::default();

    let span = obs.span("elicit.behaviour_nfa");
    let behaviour = graph.to_nfa();
    stats.behaviour_nfa = span.finish();

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
    stats.min_max = span.finish();

    // The deterministic pair grid: maxima outer, minima inner — the
    // same order as the original nested loop.
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(maxima_syms.len() * minima_syms.len());
    for (ma, &max_sym) in maxima_syms.iter().enumerate() {
        for (mi, &min_sym) in minima_syms.iter().enumerate() {
            if min_sym != max_sym {
                pairs.push((ma, mi));
            }
        }
    }
    stats.pairs_total = pairs.len();

    // Pruning pre-pass: one backward reachability per *maximum*,
    // reused across all its minima.
    let span = obs.span("elicit.prune_pass");
    let pruned: Vec<bool> = if options.prune {
        let index = PruneIndex::new(graph);
        let mut coreach_cache: Vec<Option<fsa_graph::BitSet>> = vec![None; maxima_syms.len()];
        pairs
            .iter()
            .map(|&(ma, mi)| {
                let slot = &mut coreach_cache[ma];
                if slot.is_some() {
                    stats.coreach_cache_hits += 1;
                }
                let coreach = slot.get_or_insert_with(|| index.coreach(maxima_syms[ma]));
                !index.min_before_max_possible(minima_syms[mi], coreach)
            })
            .collect()
    } else {
        vec![false; pairs.len()]
    };
    stats.pairs_pruned = pruned.iter().filter(|&&p| p).count();
    stats.prune_pass = span.finish();

    // Shared-work caches for the decision procedures: the behaviour NFA
    // (both methods) and its adjacency index (precedence method).
    let precedence_index = match options.method {
        DependenceMethod::Precedence => Some(PrecedenceIndex::new(&behaviour)),
        DependenceMethod::Abstraction => None,
    };

    let eval_pair = |(&(ma, mi), &is_pruned): (&(usize, usize), &bool)| -> PairVerdict {
        let minimum = &minima[mi];
        let maximum = &maxima[ma];
        let (dependent, automaton_states) = if is_pruned {
            (false, None)
        } else {
            match options.method {
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
        PairVerdict {
            minimum: minimum.clone(),
            maximum: maximum.clone(),
            dependent,
            minimal_automaton_states: automaton_states,
        }
    };

    let span = obs.span("elicit.pair_eval");
    let threads = options.threads.max(1);
    stats.threads = threads;
    let verdicts: Vec<PairVerdict> = if threads == 1 || pairs.len() < 2 {
        pairs.iter().zip(pruned.iter()).map(eval_pair).collect()
    } else {
        // Chunked fork-join over the grid; the merge walks chunks in
        // order, so the verdict vector is identical to the sequential
        // one for every thread count.
        let chunk = pairs.len().div_ceil(threads);
        let pair_chunks: Vec<_> = pairs.chunks(chunk).collect();
        let pruned_chunks: Vec<_> = pruned.chunks(chunk).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = pair_chunks
                .iter()
                .zip(pruned_chunks.iter())
                .map(|(ps, fs)| {
                    scope.spawn(|| ps.iter().zip(fs.iter()).map(eval_pair).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("pair worker panicked"))
                .collect()
        })
    };
    stats.pair_eval = span.finish();

    if obs.is_enabled() {
        obs.counter_add("elicit.pairs_total", stats.pairs_total as u64);
        obs.counter_add("elicit.pairs_pruned", stats.pairs_pruned as u64);
        obs.counter_add("elicit.coreach_cache_hits", stats.coreach_cache_hits as u64);
        obs.counter_add("elicit.threads", stats.threads as u64);
    }
    drop(run);

    let requirements = requirements_from_verdicts(&verdicts, stakeholder);

    AssistedReport {
        state_count: graph.state_count(),
        edge_count: graph.edge_count(),
        minima,
        maxima,
        verdicts,
        requirements,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apa::{rule, ApaBuilder, ReachOptions, Value};

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
    fn parallel_grid_is_bit_identical_to_sequential() {
        let g = pipeline_graph();
        for method in [DependenceMethod::Abstraction, DependenceMethod::Precedence] {
            let seq = elicit_with_options(
                &g,
                &ElicitOptions {
                    method,
                    threads: 1,
                    prune: false,
                },
                |_| Agent::new("P"),
            );
            for threads in [2, 4, 8] {
                let par = elicit_with_options(
                    &g,
                    &ElicitOptions {
                        method,
                        threads,
                        prune: false,
                    },
                    |_| Agent::new("P"),
                );
                assert_eq!(par.verdicts, seq.verdicts, "threads = {threads}");
                assert_eq!(
                    par.requirements.iter().collect::<Vec<_>>(),
                    seq.requirements.iter().collect::<Vec<_>>()
                );
                assert_eq!(par.stats.threads, threads);
            }
        }
    }

    #[test]
    fn pruning_agrees_with_full_evaluation() {
        let g = pipeline_graph();
        let full = elicit_with_options(&g, &ElicitOptions::default(), |_| Agent::new("P"));
        let pruned = elicit_with_options(
            &g,
            &ElicitOptions {
                prune: true,
                ..ElicitOptions::default()
            },
            |_| Agent::new("P"),
        );
        // Pruning never changes a dependence verdict — only how it is
        // reached (pruned pairs skip the minimal automaton).
        for (f, p) in full.verdicts.iter().zip(pruned.verdicts.iter()) {
            assert_eq!((&f.minimum, &f.maximum), (&p.minimum, &p.maximum));
            assert_eq!(f.dependent, p.dependent, "({}, {})", f.minimum, f.maximum);
            if p.minimal_automaton_states.is_none() {
                assert!(!p.dependent, "only independent pairs are pruned");
            }
        }
        assert_eq!(
            full.requirements.iter().collect::<Vec<_>>(),
            pruned.requirements.iter().collect::<Vec<_>>()
        );
        // (noise, out) is prunable: noise never occurs on a path that
        // still reaches an `out` firing? It does interleave, so at
        // minimum the counters must be consistent.
        assert!(pruned.stats.pairs_pruned <= pruned.stats.pairs_total);
        assert_eq!(pruned.stats.pairs_total, full.verdicts.len());
    }

    #[test]
    fn prune_pass_skips_unreachable_minima() {
        // Chain `first → second` plus a detached `late` automaton that
        // can only fire after `second` — i.e. `late` never occurs
        // before `second`'s own inputs. Build: src -first-> mid
        // -second-> dst, and an independent `spare` that fires from a
        // separate component only after dst is filled.
        let mut b = ApaBuilder::new();
        let c0 = b.component("c0", [Value::atom("x")]);
        let c1 = b.component("c1", []);
        let c2 = b.component("c2", []);
        let c3 = b.component("c3", []);
        b.automaton("first", [c0, c1], rule::move_any(0, 1));
        b.automaton("second", [c1, c2], rule::move_any(0, 1));
        b.automaton("third", [c2, c3], rule::move_any(0, 1));
        let g = b
            .build()
            .unwrap()
            .reachability(&ReachOptions::default())
            .unwrap();
        // Single minimum `first`, single maximum `third`: the pair is
        // dependent, so nothing is pruned — but stats must show the
        // cache was consulted once per pair beyond the first.
        let report = elicit_with_options(
            &g,
            &ElicitOptions {
                prune: true,
                ..ElicitOptions::default()
            },
            |_| Agent::new("P"),
        );
        assert_eq!(report.stats.pairs_total, 1);
        assert_eq!(report.stats.pairs_pruned, 0);
        assert_eq!(report.stats.coreach_cache_hits, 0);
        assert!(report.verdicts[0].dependent);
    }

    #[test]
    fn stats_are_populated() {
        let g = pipeline_graph();
        let report = elicit_from_graph(&g, DependenceMethod::Abstraction, |_| Agent::new("P"));
        assert_eq!(report.stats.pairs_total, report.verdicts.len());
        assert_eq!(
            report.stats.pairs_pruned, 0,
            "legacy entry point never prunes"
        );
        assert_eq!(report.stats.threads, 1);
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
        let options = ElicitOptions {
            prune: true,
            threads: 2,
            ..ElicitOptions::default()
        };
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
        for (name, live) in [
            ("elicit.pairs_total", stats.pairs_total),
            ("elicit.pairs_pruned", stats.pairs_pruned),
            ("elicit.coreach_cache_hits", stats.coreach_cache_hits),
            ("elicit.threads", stats.threads),
        ] {
            assert_eq!(snap.counter(name), Some(live as u64), "{name}");
        }
        assert_eq!(snap.span_count("elicit"), 1);
        for (stage, live) in [
            ("elicit.behaviour_nfa", stats.behaviour_nfa),
            ("elicit.min_max", stats.min_max),
            ("elicit.prune_pass", stats.prune_pass),
            ("elicit.pair_eval", stats.pair_eval),
        ] {
            assert_eq!(snap.span_count(stage), 1, "{stage}");
            assert_eq!(snap.span_total(stage), live, "{stage}");
            let rec = snap.spans.iter().find(|s| s.name == stage).unwrap();
            assert!(rec.parent.is_some(), "{stage} is parented under elicit");
        }
    }
}
