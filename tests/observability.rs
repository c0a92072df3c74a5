//! Integration tests for the `--stats-json` / `--trace-json` exports:
//! the versioned schema is pinned (golden prefixes + field set), and
//! enabling observability never changes what a subcommand prints.

use std::collections::BTreeSet;
use std::process::Command;

#[path = "support/temp_dir.rs"]
mod temp_dir;

use temp_dir::TempDir;

fn fsa(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fsa"))
        .args(args)
        .output()
        .expect("binary runs")
}

// ---- Golden schema --------------------------------------------------

#[test]
fn stats_json_schema_is_versioned_and_key_ordered() {
    let dir = TempDir::new("obs-explore-stats");
    let stats = dir.path().join("explore-stats.json");
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
    let dir = TempDir::new("obs-explore-trace");
    let trace = dir.path().join("explore-trace.json");
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
    let dir = TempDir::new("obs-monitor-stats");
    let stats = dir.path().join("monitor-stats.json");
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
    let dir = TempDir::new("obs-monitor-six-stats");
    let stats = dir.path().join("monitor-six-stats.json");
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
    let dir = TempDir::new("obs-elicit-stats");
    let stats = dir.path().join("elicit-stats.json");
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
        "elicit.fragments",
        "elicit.reach.states",
    ];
    assert_eq!(
        names("counters"),
        BTreeSet::from(counters.map(String::from))
    );
}

/// The product spans of `fsa check` and `fsa elicit SPEC`: a `spec` root
/// over `spec.parse` and, per instance, `spec.manual` and `spec.render`;
/// `--verify-dataflow` adds `spec.dataflow` and the §5 `elicit` root of
/// the pipeline's own spans, both under `spec` too. Each case maps a span
/// name to its parent's name.
#[test]
fn spec_runs_export_spans_for_parse_manual_and_render() {
    let dir = TempDir::new("obs-spec-spans");
    let stats = dir.path().join("stats.json");
    let stats_arg = stats.to_str().unwrap();
    // (arguments, each span's name and its parent's name)
    type Case<'a> = (&'a [&'a str], &'a [(&'a str, Option<&'a str>)]);
    let cases: [Case; 3] = [
        (
            &["check", "specs/fig4.fsa"],
            &[("spec", None), ("spec.parse", Some("spec"))],
        ),
        (
            &["elicit", "specs/fig3.fsa", "--markdown"],
            &[
                ("spec", None),
                ("spec.parse", Some("spec")),
                ("spec.manual", Some("spec")),
                ("spec.render", Some("spec")),
            ],
        ),
        (
            &["elicit", "specs/fig4.fsa", "--verify-dataflow"],
            &[
                ("spec", None),
                ("spec.parse", Some("spec")),
                ("spec.manual", Some("spec")),
                ("spec.dataflow", Some("spec")),
                ("elicit", Some("spec")),
                ("elicit.reach", Some("elicit")),
                ("elicit.min_max", Some("elicit")),
                ("elicit.pair_eval", Some("elicit")),
                ("spec.render", Some("spec")),
            ],
        ),
    ];
    for (args, want) in cases {
        let out = fsa(&[args, &["--stats-json", stats_arg]].concat());
        assert!(out.status.success(), "{args:?}: {out:?}");
        let body = std::fs::read_to_string(&stats).unwrap();
        let (tree, roots) = span_tree(&body);
        assert_eq!(tree, owned(want), "{args:?}: {body}");
        assert_eq!(roots, 1, "{args:?}: one root: {body}");
    }
}

/// A spec run's counters size the spec and count what the §4 pass
/// elicited, pinned on Fig. 4: one instance of nine actions, four
/// requirements.
#[test]
fn spec_runs_export_deterministic_counters() {
    let dir = TempDir::new("obs-spec-counters");
    let stats = dir.path().join("stats.json");
    let stats_arg = stats.to_str().unwrap();
    let sizes = [("spec.instances", 1), ("spec.actions", 9)];
    let cases: [(&str, &[(&str, u64)]); 2] = [
        ("check", &sizes),
        ("elicit", &[sizes[0], sizes[1], ("spec.requirements", 4)]),
    ];
    for (command, want) in cases {
        let out = fsa(&[command, "specs/fig4.fsa", "--stats-json", stats_arg]);
        assert!(out.status.success(), "{command}: {out:?}");
        let body = std::fs::read_to_string(&stats).unwrap();
        let doc = fsa::serve::json::parse(&body).expect("valid JSON");
        let counters: BTreeSet<(String, u64)> = doc
            .get("counters")
            .and_then(|v| v.as_arr())
            .expect("counters")
            .iter()
            .map(|c| {
                let name = c.get("name").and_then(|n| n.as_str()).expect("name");
                (
                    name.to_owned(),
                    c.get("value").and_then(|v| v.as_u64()).expect("value"),
                )
            })
            .collect();
        let want = want.iter().map(|&(n, v)| (n.to_owned(), v)).collect();
        assert_eq!(counters, want, "{command}: {body}");
    }
}

/// Each span's name with its parent's name, and the number of roots, of
/// a `--stats-json` document.
fn span_tree(body: &str) -> (BTreeSet<(String, Option<String>)>, usize) {
    let doc = fsa::serve::json::parse(body).expect("valid JSON");
    let spans = doc.get("spans").and_then(|v| v.as_arr()).expect("spans");
    let name_of = |id: u64| -> String {
        spans
            .iter()
            .find(|s| s.get("id").and_then(|v| v.as_u64()) == Some(id))
            .and_then(|s| s.get("name")?.as_str())
            .expect("a parent is a recorded span")
            .to_owned()
    };
    let tree = spans
        .iter()
        .map(|s| {
            let name = s.get("name").and_then(|n| n.as_str()).expect("name");
            let parent = s.get("parent").and_then(|p| p.as_u64()).map(name_of);
            (name.to_owned(), parent)
        })
        .collect();
    let roots = spans
        .iter()
        .filter(|s| s.get("parent").and_then(|p| p.as_u64()).is_none())
        .count();
    (tree, roots)
}

fn owned(pairs: &[(&str, Option<&str>)]) -> BTreeSet<(String, Option<String>)> {
    pairs
        .iter()
        .map(|(name, parent)| (name.to_string(), parent.map(str::to_owned)))
        .collect()
}

/// The product spans of `fsa explore`: the engine's `explore` root over
/// scan, build and dedup, or with `--distributed` the `dist` root over
/// `dist.spawn`, `dist.wait`, `dist.merge` and `dist.drain`; either way
/// the report renders in an `explore.render` root.
#[test]
fn explore_runs_export_spans_for_the_run_and_its_render() {
    let dir = TempDir::new("obs-explore-spans");
    let stats = dir.path().join("stats.json");
    let stats_arg = stats.to_str().unwrap();
    type Case<'a> = (&'a [&'a str], &'a [(&'a str, Option<&'a str>)]);
    let cases: [Case; 2] = [
        (
            &["explore", "--max-vehicles", "2"],
            &[
                ("explore", None),
                ("explore.scan", Some("explore")),
                ("explore.build", Some("explore")),
                ("explore.dedup", Some("explore")),
                ("explore.render", None),
            ],
        ),
        (
            &[
                "explore",
                "--max-vehicles",
                "2",
                "--distributed",
                "--workers",
                "2",
            ],
            &[
                ("dist", None),
                ("dist.spawn", Some("dist")),
                ("dist.wait", Some("dist")),
                ("dist.merge", Some("dist")),
                ("dist.drain", Some("dist")),
                ("explore.render", None),
            ],
        ),
    ];
    for (args, want) in cases {
        let out = fsa(&[args, &["--stats-json", stats_arg]].concat());
        assert!(out.status.success(), "{args:?}: {out:?}");
        let body = std::fs::read_to_string(&stats).unwrap();
        let (tree, roots) = span_tree(&body);
        assert_eq!(tree, owned(want), "{args:?}: {body}");
        assert_eq!(roots, 2, "{args:?}: the run and its render: {body}");
    }
}

#[test]
fn simulate_exports_a_root_span_and_counters() {
    let dir = TempDir::new("obs-simulate-stats");
    let stats = dir.path().join("simulate-stats.json");
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
    let dir = TempDir::new("obs-invariance");
    for (i, base) in cases.iter().enumerate() {
        let plain = fsa(base);
        let stats = dir.path().join(format!("invariance-{i}-stats.json"));
        let trace = dir.path().join(format!("invariance-{i}-trace.json"));
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
