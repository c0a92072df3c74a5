//! `fsabench compare BASE.json... -- CHANGE.json...`: judges every
//! (end-to-end metric, workload) of two sets of `run` result files
//! against the bounds in `BENCHMARK.json`, checks that the deterministic
//! counters of each side's trace runs repeat exactly, and reports how
//! they moved from base to change.

use crate::stats::{self, Better, Verdict};
use fsa_serve::json::Value;
use std::collections::BTreeMap;

struct Metric {
    name: String,
    better: Better,
    bound: f64,
}

/// One `run` (all workloads, one seed) read from a result file.
struct Run {
    started_ms: f64,
    /// workload → (metric → value, failed operations)
    workloads: BTreeMap<String, (BTreeMap<String, f64>, u64)>,
}

/// The deterministic counters of one side's trace runs, per (workload,
/// seed), one map per run.
type TraceCounters = BTreeMap<(String, u64), Vec<BTreeMap<String, u64>>>;

fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    fsa_serve::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    }
}

fn bounds() -> Result<Vec<Metric>, String> {
    let doc = read("BENCHMARK.json")?;
    let Some(Value::Arr(list)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".to_owned());
    };
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .and_then(Better::parse);
            match (name, better, number(m.get("bound"))) {
                (Some(name), Some(better), Some(bound)) => Ok(Metric {
                    name: name.to_owned(),
                    better,
                    bound,
                }),
                _ => Err("BENCHMARK.json: malformed end_to_end entry".to_owned()),
            }
        })
        .collect()
}

/// Reads every run of `paths`, in order; trace runs go to `traces`.
fn load(paths: &[String], traces: &mut TraceCounters) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for path in paths {
        let doc = read(path)?;
        if doc.get("schema").and_then(Value::as_str) != Some("fsa-bench/v1") {
            return Err(format!("{path}: not an fsa-bench/v1 result file"));
        }
        let Some(Value::Arr(list)) = doc.get("runs") else {
            return Err(format!("{path}: no runs"));
        };
        for run in list {
            let (Some(Value::Obj(workloads)), Some(seed)) = (
                run.get("workloads"),
                run.get("seed").and_then(Value::as_u64),
            ) else {
                return Err(format!("{path}: malformed run"));
            };
            if run.get("mode").and_then(Value::as_str) == Some("trace") {
                for (name, w) in workloads {
                    let mut counters = BTreeMap::new();
                    if let Some(Value::Obj(list)) = w.get("detail").and_then(|d| d.get("counters"))
                    {
                        for (k, v) in list {
                            counters.insert(k.clone(), number(Some(v)).unwrap_or(f64::NAN) as u64);
                        }
                    }
                    traces
                        .entry((name.clone(), seed))
                        .or_default()
                        .push(counters);
                }
                continue;
            }
            let mut parsed = BTreeMap::new();
            for (name, w) in workloads {
                let result = w.get("result");
                let failed = result
                    .and_then(|r| r.get("failed"))
                    .and_then(Value::as_u64)
                    .unwrap_or(u64::MAX);
                let mut metrics = BTreeMap::new();
                if let Some(Value::Obj(list)) = result.and_then(|r| r.get("metrics")) {
                    for (k, v) in list {
                        if let Some(value) = number(v.get("value")) {
                            metrics.insert(k.clone(), value);
                        }
                    }
                }
                parsed.insert(name.clone(), (metrics, failed));
            }
            runs.push(Run {
                started_ms: number(run.get("started_ms")).unwrap_or(0.0),
                workloads: parsed,
            });
        }
    }
    Ok(runs)
}

/// Whether the side that ran first flips from each pair to the next.
fn alternating(base: &[Run], change: &[Run]) -> bool {
    let first: Vec<bool> = base
        .iter()
        .zip(change)
        .map(|(b, c)| b.started_ms < c.started_ms)
        .collect();
    first.len() >= 2 && first.windows(2).all(|w| w[0] != w[1])
}

fn summary(values: &[f64]) -> String {
    match (stats::median(values), stats::quartiles(values)) {
        (Some(m), Some((q1, q3))) => format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", values.len()),
        (Some(m), None) => format!("{m:.4} n={}", values.len()),
        _ => "-".to_owned(),
    }
}

pub fn main(args: &[String]) -> u8 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        return crate::usage("compare expects BASE.json... -- CHANGE.json...");
    };
    let (base_paths, change_paths) = (&args[..split], &args[split + 1..]);
    let (mut base_traces, mut change_traces) = (BTreeMap::new(), BTreeMap::new());
    let loaded = bounds().and_then(|metrics| {
        let base = load(base_paths, &mut base_traces)?;
        let change = load(change_paths, &mut change_traces)?;
        Ok((metrics, base, change))
    });
    let (metrics, base, change) = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("fsabench: {e}");
            return 2;
        }
    };
    let alternate = alternating(&base, &change);
    println!(
        "{} base run(s), {} change run(s), pairs {}alternating",
        base.len(),
        change.len(),
        if alternate { "" } else { "not " }
    );
    let mut clean = true;
    if !base.is_empty() && !change.is_empty() {
        println!(
            "{:<11} {:<12} {:<38} {:<38} {:>8} {:>6}  verdict",
            "workload",
            "metric",
            "base median [q1, q3]",
            "change median [q1, q3]",
            "change",
            "bound"
        );
    }
    for workload in crate::workloads::NAMES {
        let side = |runs: &[Run], metric: &str| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| r.workloads.get(workload)?.0.get(metric).copied())
                .collect()
        };
        for m in &metrics {
            let (b, c) = (side(&base, &m.name), side(&change, &m.name));
            if b.is_empty() || c.is_empty() {
                continue;
            }
            let v = stats::verdict(&b, &c, m.better, m.bound, alternate);
            clean &= matches!(v, Verdict::Unchanged | Verdict::Improved);
            let shift = match (stats::median(&b), stats::median(&c)) {
                (Some(mb), Some(mc)) if mb != 0.0 => format!("{:+.1}%", (mc - mb) / mb * 100.0),
                _ => "-".to_owned(),
            };
            println!(
                "{workload:<11} {:<12} {:<38} {:<38} {shift:>8} {:>5.0}%  {}",
                m.name,
                summary(&b),
                summary(&c),
                m.bound * 100.0,
                v.name()
            );
        }
        let failures = |runs: &[Run]| -> u64 {
            runs.iter()
                .filter_map(|r| r.workloads.get(workload))
                .map(|w| w.1)
                .sum()
        };
        let (fb, fc) = (failures(&base), failures(&change));
        if fc > 0 || fb > 0 {
            clean &= fc <= fb;
            println!("{workload:<11} failed ops: base {fb}, change {fc}");
        }
    }
    clean &= repeats("base", &base_traces) & repeats("change", &change_traces);
    report_moves(&base_traces, &change_traces);
    u8::from(!clean)
}

/// Whether every trace run of one side read the same counters as the
/// side's first run of that workload and seed; prints each drift.
fn repeats(side: &str, traces: &TraceCounters) -> bool {
    let mut clean = true;
    for ((workload, seed), runs) in traces {
        for run in &runs[1..] {
            for (name, first) in &runs[0] {
                let got = run.get(name);
                if got != Some(first) {
                    println!("drift: {side} {workload} seed {seed} {name}: {first}, then {got:?}");
                    clean = false;
                }
            }
        }
    }
    clean
}

/// Prints every deterministic counter that differs between the two
/// sides' first trace runs of a workload and seed, with whether it moved
/// in the direction `BENCHMARK.json` calls better. A move is what a
/// change is expected to cause, so it does not fail the comparison.
fn report_moves(base: &TraceCounters, change: &TraceCounters) {
    for (key @ (workload, seed), base_runs) in base {
        let Some(change_runs) = change.get(key) else {
            continue;
        };
        for (name, &b) in &base_runs[0] {
            let Some(&c) = change_runs[0].get(name) else {
                println!("moved: {workload} seed {seed} {name}: {b}, then absent");
                continue;
            };
            if b == c {
                continue;
            }
            let better = crate::trace::LAYER_METRICS
                .iter()
                .find(|m| m.0 == name)
                .and_then(|m| Better::parse(m.2));
            let verdict = match better {
                Some(better) if better.is_better(b as f64, c as f64) => "better",
                Some(_) => "worse",
                None => "moved",
            };
            println!("moved: {workload} seed {seed} {name}: {b} -> {c} ({verdict})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[u64]) -> TraceCounters {
        let mut traces = TraceCounters::new();
        for &v in values {
            let counters = BTreeMap::from([("memo.misses".to_owned(), v)]);
            traces
                .entry(("serve-edit".to_owned(), 1))
                .or_default()
                .push(counters);
        }
        traces
    }

    #[test]
    fn counters_must_repeat_within_a_side_only() {
        assert!(repeats("base", &runs(&[5, 5])));
        assert!(!repeats("base", &runs(&[5, 6])));
        // A move from base to change is reported, not judged here.
        assert!(repeats("base", &runs(&[5])) && repeats("change", &runs(&[3])));
    }
}
