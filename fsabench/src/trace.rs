//! The traced run: per-layer metrics from spans recorded around each
//! call into a layer, plus the tracing overhead against an untraced copy
//! of every operation.

use crate::workloads;
use fsa_obs::{Obs, Snapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// Every per-layer metric: name, unit and the direction an
/// optimisation should move it. `BENCHMARK.json` lists the same table.
/// A `_ms` metric is the time per operation inside the span of the same
/// name without the suffix, unless [`value`] derives it otherwise.
pub const LAYER_METRICS: [(&str, &str, &str); 53] = [
    ("speclang.parse_ms", "ms", "lower"),
    ("core.dataflow_ms", "ms", "lower"),
    ("apa.reach_ms", "ms", "lower"),
    ("apa.reach.states", "count", "lower"),
    ("apa.reach.edges", "count", "lower"),
    ("core.assisted_ms", "ms", "lower"),
    ("elicit.behaviour_nfa_ms", "ms", "lower"),
    ("elicit.min_max_ms", "ms", "lower"),
    ("elicit.prune_pass_ms", "ms", "lower"),
    ("elicit.pair_eval_ms", "ms", "lower"),
    ("core.assisted.pairs", "count", "lower"),
    ("core.assisted.pairs_pruned", "count", "higher"),
    ("core.assisted.prune_yield", "ratio", "higher"),
    ("core.manual_ms", "ms", "lower"),
    ("core.manual.calls", "count", "lower"),
    ("core.union_ms", "ms", "lower"),
    ("core.render_ms", "ms", "lower"),
    ("core.render.bytes", "bytes", "lower"),
    ("cli.render_exploration_ms", "ms", "lower"),
    ("core.explore_ms", "ms", "lower"),
    ("explore.scan_ms", "ms", "lower"),
    ("explore.build_ms", "ms", "lower"),
    ("explore.dedup_ms", "ms", "lower"),
    ("explore.subsets", "count", "lower"),
    ("explore.candidates", "count", "lower"),
    ("explore.classes", "count", "lower"),
    ("explore.exact_iso_fallbacks", "count", "lower"),
    ("explore.orbit_skip_ratio", "ratio", "higher"),
    ("explore.class_yield", "ratio", "higher"),
    ("apa.sim_ms", "ms", "lower"),
    ("apa.sim.steps", "count", "higher"),
    ("runtime.compile_ms", "ms", "lower"),
    ("runtime.feed_ms", "ms", "lower"),
    ("runtime.events", "count", "higher"),
    ("core.incremental_ms", "ms", "lower"),
    ("core.delta_ms", "ms", "lower"),
    ("memo.hits", "count", "higher"),
    ("memo.misses", "count", "lower"),
    ("memo.evictions", "count", "lower"),
    ("memo.hit_ratio", "ratio", "higher"),
    ("serve.rtt_ms", "ms", "lower"),
    ("serve.execute_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.cache_hits", "count", "higher"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("dist.explore_ms", "ms", "lower"),
    ("dist.merge_ms", "ms", "lower"),
    ("dist.wait_ms", "ms", "lower"),
    ("dist.shards_completed", "count", "higher"),
    ("dist.leases_granted", "count", "lower"),
    ("dist.leases_expired", "count", "lower"),
    ("attributed_share", "ratio", "higher"),
    ("trace_overhead", "ratio", "lower"),
];

/// Counters that must repeat exactly for a seed; `compare` fails when
/// they drift between the trace runs of one commit. Lease counts depend
/// on timing and are not among them.
pub const DETERMINISTIC: [&str; 10] = [
    "apa.reach.states",
    "apa.reach.edges",
    "core.assisted.pairs",
    "explore.candidates",
    "explore.classes",
    "explore.exact_iso_fallbacks",
    "memo.hits",
    "memo.misses",
    "memo.evictions",
    "core.manual.calls",
];

/// The outermost span of each traced operation.
const OP_SPAN: &str = "fsabench.op";

pub struct TraceResult {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Span names this build never recorded (layers that bypassed, or
    /// spans a later version no longer opens).
    pub absent: Vec<&'static str>,
}

/// Runs whole passes of traced operations, each followed by an untraced
/// copy, until `seconds` have elapsed (at least one pass). Timings are
/// per operation over every pass; counters come from the first pass,
/// whose operations are fixed by the seed.
pub fn run(name: &str, seed: u64, seconds: f64, work: &Path) -> Result<TraceResult, String> {
    let obs = Obs::enabled();
    let mut w = workloads::setup(name, seed, work, Some(&obs))?;
    w.check_warm_up()?;
    let disabled = Obs::disabled();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut errors) = (0u64, 0u64, Vec::new());
    let mut first: Option<Snapshot> = None;
    let start = Instant::now();
    loop {
        for _ in 0..w.pass_len() {
            for copy in [&obs, &disabled] {
                let t = Instant::now();
                let span = copy.span(OP_SPAN);
                let result = w.traced_op(copy);
                drop(span);
                let wall = t.elapsed();
                if copy.is_enabled() {
                    traced.push(wall);
                } else {
                    plain.push(wall);
                }
                attempted += 1;
                if let Err(e) = result.and_then(|()| w.check()) {
                    failed += 1;
                    crate::note_error(&mut errors, e);
                }
            }
            w.advance();
        }
        w.diagnose(&obs)?;
        if first.is_none() {
            first = Some(obs.snapshot());
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    w.finish()?;
    let snapshot = obs.snapshot();
    let trace_path = work.join(format!("trace-{name}.json"));
    std::fs::write(&trace_path, snapshot.to_trace_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let first = first.expect("at least one pass ran");
    let ops = traced.len();
    let mut metrics = BTreeMap::new();
    let mut absent = Vec::new();
    for (metric, _, _) in LAYER_METRICS {
        let v = value(metric, &snapshot, &first, ops, &traced, &plain);
        if metric.ends_with("_ms") && v == 0.0 {
            absent.push(metric);
        }
        metrics.insert(metric, v);
    }
    Ok(TraceResult {
        attempted,
        failed,
        errors,
        metrics,
        absent,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The value of one per-layer metric.
fn value(
    metric: &str,
    all: &Snapshot,
    first: &Snapshot,
    ops: usize,
    traced: &[Duration],
    plain: &[Duration],
) -> f64 {
    let per_op = |span: &str| ms(all.span_total(span)) / ops.max(1) as f64;
    let count = |name: &str| first.counter(name).unwrap_or(0) as f64;
    match metric {
        "apa.reach.states"
        | "apa.reach.edges"
        | "core.manual.calls"
        | "core.render.bytes"
        | "apa.sim.steps"
        | "runtime.events"
        | "dist.shards_completed"
        | "dist.leases_granted"
        | "dist.leases_expired" => count(metric),
        "core.assisted.pairs" => count("elicit.pairs_total"),
        "core.assisted.pairs_pruned" => count("elicit.pairs_pruned"),
        "core.assisted.prune_yield" => {
            ratio(count("elicit.pairs_pruned"), count("elicit.pairs_total"))
        }
        "explore.subsets" => count("explore.subsets_total"),
        "explore.candidates" | "explore.classes" | "explore.exact_iso_fallbacks" => count(metric),
        "explore.orbit_skip_ratio" => ratio(
            count("explore.orbits_skipped"),
            count("explore.subsets_total"),
        ),
        "explore.class_yield" => ratio(count("explore.classes"), count("explore.candidates")),
        "memo.hits" | "memo.misses" | "memo.evictions" => count(&format!("elicit.{metric}")),
        "memo.hit_ratio" => {
            let hits = count("elicit.memo.hits");
            ratio(hits, hits + count("elicit.memo.misses"))
        }
        "serve.cache_hits" => count("serve.cache.hits"),
        "serve.cache_hit_ratio" => ratio(count("serve.cache.hits"), count("serve.elicit_requests")),
        "serve.overhead_ms" => per_op("serve.rtt") - per_op("serve.execute"),
        "dist.wait_ms" => per_op("dist.explore") - per_op("dist.merge"),
        "attributed_share" => attributed_share(all),
        "trace_overhead" => {
            let secs = |v: &[Duration]| v.iter().map(Duration::as_secs_f64).collect::<Vec<_>>();
            match (
                crate::stats::median(&secs(traced)),
                crate::stats::median(&secs(plain)),
            ) {
                (Some(t), Some(p)) if p > 0.0 => t / p - 1.0,
                _ => 0.0,
            }
        }
        timed => per_op(timed.strip_suffix("_ms").unwrap_or(timed)),
    }
}

/// Time inside the direct children of the operation spans — the calls
/// into each layer — as a share of the operations' wall time.
fn attributed_share(snapshot: &Snapshot) -> f64 {
    let ops: BTreeSet<u64> = snapshot
        .spans
        .iter()
        .filter(|s| s.name == OP_SPAN)
        .map(|s| s.id)
        .collect();
    let wall: u64 = snapshot
        .spans
        .iter()
        .filter(|s| s.name == OP_SPAN)
        .map(|s| s.dur_ns)
        .sum();
    let inside: u64 = snapshot
        .spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| ops.contains(&p)))
        .map(|s| s.dur_ns)
        .sum();
    ratio(inside as f64, wall as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_layer_metrics() {
        let doc = fsa_serve::json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let Some(fsa_serve::json::Value::Arr(listed)) = doc.get("per_layer") else {
            panic!("per_layer is a list");
        };
        let listed: Vec<(&str, &str, &str)> = listed
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect("string field");
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        assert_eq!(listed, LAYER_METRICS);
    }

    #[test]
    fn attribution_counts_only_direct_children_of_operations() {
        let obs = Obs::enabled();
        let nap = || std::thread::sleep(Duration::from_millis(4));
        {
            let _op = obs.span(OP_SPAN);
            {
                let _layer = obs.span("layer");
                // Nested inside the layer: must not be counted twice.
                let _inner = obs.span("inner");
                nap();
            }
            nap(); // unattributed
        }
        {
            // A diagnostic pass outside any operation.
            let _diagnostic = obs.span("diagnostic");
            nap();
        }
        let share = attributed_share(&obs.snapshot());
        assert!(share > 0.3 && share < 0.7, "{share}");
    }
}
