//! Integration tests for the `--stats-json` / `--trace-json` exports:
//! the versioned schema is pinned (golden prefixes + field set), and
//! enabling observability never changes what a subcommand prints.

use std::collections::BTreeSet;
use std::process::Command;

fn fsa(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fsa"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// A unique temp path for an export artefact.
fn temp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fsa-obs-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(tag)
}

// ---- Golden schema --------------------------------------------------

#[test]
fn stats_json_schema_is_versioned_and_key_ordered() {
    let stats = temp("explore-stats.json");
    let out = fsa(&[
        "explore",
        "--max-vehicles",
        "2",
        "--stats-json",
        stats.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let body = std::fs::read_to_string(&stats).unwrap();

    // Top-level key order is pinned: schema, schema_version, spans,
    // counters, histograms. Changing any of this requires a
    // SCHEMA_VERSION bump (see DESIGN.md §2.9).
    assert!(
        body.starts_with(r#"{"schema":"fsa-obs/v1","schema_version":1,"spans":["#),
        "golden prefix broken: {body}"
    );
    assert!(body.contains(r#"],"counters":["#), "{body}");
    assert!(body.contains(r#"],"histograms":["#), "{body}");
    assert!(body.ends_with("}\n"), "single trailing newline");

    // Versioned span field set, in order.
    for key in [
        r#"{"id":"#,
        r#","parent":"#,
        r#","name":"#,
        r#","tid":"#,
        r#","start_ns":"#,
        r#","dur_ns":"#,
    ] {
        assert!(body.contains(key), "span key {key} missing: {body}");
    }

    // The exploration engine's series are present.
    for name in [
        r#""name":"explore""#,
        r#""name":"explore.scan""#,
        r#""name":"explore.build""#,
        r#""name":"explore.dedup""#,
        r#""name":"explore.candidates""#,
        r#""name":"explore.classes""#,
    ] {
        assert!(body.contains(name), "{name} missing: {body}");
    }
}

#[test]
fn trace_json_is_chrome_tracing_with_schema_version() {
    let trace = temp("explore-trace.json");
    let out = fsa(&[
        "explore",
        "--max-vehicles",
        "2",
        "--trace-json",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let body = std::fs::read_to_string(&trace).unwrap();
    assert!(body.starts_with(r#"{"traceEvents":["#), "{body}");
    assert!(body.contains(r#""ph":"X""#), "complete events: {body}");
    assert!(body.contains(r#""ph":"C""#), "counter events: {body}");
    assert!(
        body.contains(r#""otherData":{"schema":"fsa-obs/v1","schema_version":1}"#),
        "schema keys in otherData: {body}"
    );
    assert!(body.ends_with("}\n"), "single trailing newline");
}

#[test]
fn monitor_exports_fleet_and_supervisor_series() {
    let stats = temp("monitor-stats.json");
    let out = fsa(&[
        "monitor",
        "--streams",
        "4",
        "--events",
        "400",
        "--retries",
        "2",
        "--stats-json",
        stats.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let body = std::fs::read_to_string(&stats).unwrap();
    for name in [
        r#""name":"fleet""#,
        r#""name":"fleet.compile""#,
        r#""name":"fleet.simulate""#,
        r#""name":"fleet.check""#,
        r#""name":"fleet.merge""#,
        r#""name":"fleet.events""#,
        // One thread keeps one simulator for all 4 streams, so each state
        // is expanded once: 31 of the chain's 32 reachable states.
        r#"{"name":"fleet.states_expanded","value":31}"#,
        r#""name":"supervisor.chunks""#,
        r#""name":"supervisor.attempts""#,
    ] {
        assert!(body.contains(name), "{name} missing: {body}");
    }
}

/// The product spans of `fsa monitor`: the `monitor` root covers the
/// run, and scenario load, elicitation, bank compile and the fleet are
/// its children. On `six` the fleet walks the product of three 12-state
/// pairs, so one thread expands 36 part states.
#[test]
fn monitor_spans_cover_load_elicit_compile_and_fleet() {
    let stats = temp("monitor-six-stats.json");
    let out = fsa(&[
        "monitor",
        "--scenario",
        "six",
        "--streams",
        "8",
        "--events",
        "16384",
        "--seed",
        "41",
        "--stats-json",
        stats.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let body = std::fs::read_to_string(&stats).unwrap();
    let doc = fsa::serve::json::parse(&body).expect("valid JSON");
    let spans = doc
        .get("spans")
        .and_then(|v| v.as_arr())
        .unwrap_or_else(|| panic!("spans is a list: {body}"));
    let field = |span: &fsa::serve::json::Value, key: &str| span.get(key).cloned();
    let named = |name: &str| -> Vec<&fsa::serve::json::Value> {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(|n| n.as_str()) == Some(name))
            .collect()
    };
    let names: BTreeSet<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(|n| n.as_str()))
        .filter(|n| n.starts_with("monitor") || n.starts_with("fleet"))
        .collect();
    assert_eq!(
        names,
        BTreeSet::from([
            "monitor",
            "monitor.load",
            "monitor.elicit",
            "fleet.compile",
            "fleet",
            "fleet.simulate",
            "fleet.check",
            "fleet.merge",
        ]),
        "{body}"
    );
    let root = named("monitor");
    assert_eq!(root.len(), 1, "{body}");
    let root_id = field(root[0], "id");
    for child in ["monitor.load", "monitor.elicit", "fleet.compile", "fleet"] {
        let spans = named(child);
        assert_eq!(spans.len(), 1, "{child}: {body}");
        assert_eq!(field(spans[0], "parent"), root_id, "{child}: {body}");
    }
    assert!(
        body.contains(r#"{"name":"fleet.states_expanded","value":36}"#),
        "{body}"
    );
}

#[test]
fn elicit_exports_pipeline_series() {
    let stats = temp("elicit-stats.json");
    let out = fsa(&[
        "elicit",
        "specs/fig4.fsa",
        "--verify-dataflow",
        "--stats-json",
        stats.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let body = std::fs::read_to_string(&stats).unwrap();
    let doc = fsa::serve::json::parse(&body).expect("valid JSON");
    // The distinct `elicit*` names of one section of the document.
    let names = |section: &str| -> BTreeSet<String> {
        doc.get(section)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("{section} is a list: {body}"))
            .iter()
            .filter_map(|record| record.get("name").and_then(|n| n.as_str()))
            .filter(|name| name.starts_with("elicit"))
            .map(str::to_owned)
            .collect()
    };
    let spans = [
        "elicit",
        "elicit.reach",
        "elicit.min_max",
        "elicit.pair_eval",
    ];
    assert_eq!(names("spans"), BTreeSet::from(spans.map(String::from)));
    let counters = [
        "elicit.pairs_total",
        "elicit.threads",
        "elicit.fragments",
        "elicit.reach.states",
    ];
    assert_eq!(
        names("counters"),
        BTreeSet::from(counters.map(String::from))
    );
}

#[test]
fn simulate_exports_a_root_span_and_counters() {
    let stats = temp("simulate-stats.json");
    let out = fsa(&[
        "simulate",
        "--scenario",
        "chain",
        "--seed",
        "7",
        "--stats-json",
        stats.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let body = std::fs::read_to_string(&stats).unwrap();
    assert!(body.contains(r#""name":"simulate""#), "{body}");
    assert!(body.contains(r#""name":"simulate.steps""#), "{body}");
}

// ---- Observability never changes the analysis -----------------------

/// For every subcommand: stdout (the analysis report) is byte-identical
/// with and without the observability exports, and the exit code
/// matches. The exports are an artefact side channel, never an input.
/// (`--stats` timings are wall-clock and vary run to run even without
/// observability, so the cases here pin the *deterministic* report;
/// the unit tests in `fsa-core`/`fsa-runtime` prove the stats structs
/// are filled from the identical measurements either way.)
#[test]
fn enabling_observability_never_changes_stdout_or_exit_code() {
    let cases: Vec<Vec<&str>> = vec![
        vec!["explore", "--max-vehicles", "2"],
        vec!["explore", "--max-vehicles", "2", "--threads", "4"],
        vec!["elicit", "specs/fig4.fsa", "--verify-dataflow"],
        vec!["simulate", "--scenario", "chain", "--seed", "7"],
        vec!["monitor", "--streams", "4", "--events", "400"],
        vec![
            "monitor",
            "--streams",
            "4",
            "--events",
            "400",
            "--inject",
            "drop:V1_sense",
        ],
    ];
    for (i, base) in cases.iter().enumerate() {
        let plain = fsa(base);
        let stats = temp(&format!("invariance-{i}-stats.json"));
        let trace = temp(&format!("invariance-{i}-trace.json"));
        let mut observed_args = base.clone();
        let stats_s = stats.to_str().unwrap().to_owned();
        let trace_s = trace.to_str().unwrap().to_owned();
        observed_args.extend(["--stats-json", &stats_s, "--trace-json", &trace_s]);
        let observed = fsa(&observed_args);
        assert_eq!(
            plain.status.code(),
            observed.status.code(),
            "{base:?}: exit codes differ"
        );
        assert_eq!(
            String::from_utf8_lossy(&plain.stdout),
            String::from_utf8_lossy(&observed.stdout),
            "{base:?}: stdout differs under observability"
        );
        // Both artefacts were actually produced and are non-trivial.
        assert!(std::fs::metadata(&stats).unwrap().len() > 2, "{base:?}");
        assert!(std::fs::metadata(&trace).unwrap().len() > 2, "{base:?}");
    }
}

/// Stats output on stderr/stdout is unaffected even when the export
/// path is not writable — the run fails *after* the analysis printed.
#[test]
fn unwritable_export_path_fails_with_exit_1_after_reporting() {
    let out = fsa(&[
        "simulate",
        "--seed",
        "3",
        "--stats-json",
        "/nonexistent-dir/never/stats.json",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot write"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("trace:"),
        "analysis still printed: {stdout}"
    );
}
