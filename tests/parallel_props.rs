//! Property tests for the parallel engines: the chunked (maxima × minima)
//! dependence grid must be *bit-identical* to its sequential counterpart
//! for every thread count — parallelism is an implementation detail,
//! never a semantics.

use fsa::apa::{rule, Apa, ApaBuilder, ReachOptions, Value};
use fsa::core::assisted::{elicit_with_options, DependenceMethod, ElicitOptions};
use fsa::core::Agent;
use proptest::prelude::*;

/// A random token-mover APA: `n` chained/branching components with a
/// pseudo-random wiring drawn from `seed`. Guaranteed finite behaviour
/// (tokens only move forward, so runs terminate).
fn arb_apa() -> impl Strategy<Value = Apa> {
    (2usize..6, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut b = ApaBuilder::new();
        // Stage 0 components seeded with tokens, later stages empty.
        let comps: Vec<_> = (0..n)
            .map(|i| {
                if i == 0 {
                    b.component(&format!("c{i}"), [Value::atom("x"), Value::atom("y")])
                } else {
                    b.component(&format!("c{i}"), [])
                }
            })
            .collect();
        // Forward movers only (i < j) — acyclic token flow terminates.
        let mut k = 0;
        for i in 0..n - 1 {
            // Always keep the chain connected…
            b.automaton(
                &format!("m{k}"),
                [comps[i], comps[i + 1]],
                rule::move_any(0, 1),
            );
            k += 1;
            // …plus a random forward shortcut.
            let j = i + 1 + (next() as usize) % (n - i - 1).max(1);
            if j < n && j != i + 1 && next() % 2 == 0 {
                b.automaton(&format!("m{k}"), [comps[i], comps[j]], rule::move_any(0, 1));
                k += 1;
            }
        }
        b.build().expect("valid mover APA")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_elicitation_matches_sequential_verdicts(apa in arb_apa()) {
        let graph = apa.reachability(&ReachOptions::default()).expect("graph");
        for method in [DependenceMethod::Abstraction, DependenceMethod::Precedence] {
            for prune in [false, true] {
                let seq = elicit_with_options(
                    &graph,
                    &ElicitOptions { method, threads: 1, prune },
                    |_| Agent::new("P"),
                );
                for threads in [2usize, 4, 8] {
                    let par = elicit_with_options(
                        &graph,
                        &ElicitOptions { method, threads, prune },
                        |_| Agent::new("P"),
                    );
                    prop_assert_eq!(
                        &par.verdicts, &seq.verdicts,
                        "threads {} method {:?} prune {}", threads, method, prune
                    );
                    let seq_reqs: Vec<String> =
                        seq.requirements.iter().map(ToString::to_string).collect();
                    let par_reqs: Vec<String> =
                        par.requirements.iter().map(ToString::to_string).collect();
                    prop_assert_eq!(par_reqs, seq_reqs);
                }
            }
        }
    }

    #[test]
    fn pruning_never_flips_a_verdict(apa in arb_apa()) {
        let graph = apa.reachability(&ReachOptions::default()).expect("graph");
        let full = elicit_with_options(
            &graph,
            &ElicitOptions { method: DependenceMethod::Precedence, threads: 1, prune: false },
            |_| Agent::new("P"),
        );
        let pruned = elicit_with_options(
            &graph,
            &ElicitOptions { method: DependenceMethod::Precedence, threads: 1, prune: true },
            |_| Agent::new("P"),
        );
        for (f, p) in full.verdicts.iter().zip(pruned.verdicts.iter()) {
            prop_assert_eq!(&f.minimum, &p.minimum);
            prop_assert_eq!(&f.maximum, &p.maximum);
            prop_assert_eq!(
                f.dependent, p.dependent,
                "({}, {}) flipped by pruning", f.minimum, f.maximum
            );
        }
    }
}
