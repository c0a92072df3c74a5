//! Integration tests for the `fsa` command-line tool, exercising the
//! shipped `specs/*.fsa` files through the real binary.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[path = "support/temp_dir.rs"]
mod temp_dir;

use temp_dir::TempDir;

fn fsa(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fsa"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn check_accepts_shipped_specs() {
    for spec in ["specs/fig3.fsa", "specs/fig4.fsa"] {
        let out = fsa(&["check", spec]);
        assert!(out.status.success(), "{spec}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("OK"), "{stdout}");
    }
}

#[test]
fn elicit_fig4_reports_requirement_4_as_availability() {
    let out = fsa(&["elicit", "specs/fig4.fsa"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("auth(pos(GPS_2,pos), show(HMI_w,warn), D_w)   [availability]"));
    assert!(stdout.contains("auth(sense(ESP_1,sW), show(HMI_w,warn), D_w)   [safety]"));
}

#[test]
fn elicit_with_cross_check_passes() {
    let out = fsa(&["elicit", "specs/fig4.fsa", "--verify-dataflow"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("requirement sets match"));
}

#[test]
fn elicit_markdown_emits_table() {
    let out = fsa(&["elicit", "specs/fig4.fsa", "--markdown"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("| # | antecedent |"));
}

#[test]
fn bad_file_fails_with_message() {
    let out = fsa(&["check", "specs/does-not-exist.fsa"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn syntax_error_reports_position() {
    let dir = TempDir::new("cli-syntax-error");
    let bad = dir.path().join("bad.fsa");
    std::fs::write(&bad, "instance \"x\" { action a = ; }").unwrap();
    let out = fsa(&["check", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1:"), "{stderr}");
}

#[test]
fn explore_prints_universe_and_stats() {
    let out = fsa(&["explore", "--max-vehicles", "3", "--stats"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("structurally different connected instance(s)"));
    assert!(stdout.contains("union over the universe:"));
    assert!(stdout.contains("candidates"), "{stdout}");
    assert!(stdout.contains("classes"), "{stdout}");
    assert!(stdout.contains("orbit-skipped"), "{stdout}");
    assert!(stdout.contains("certificate hits"), "{stdout}");
}

#[test]
fn explore_is_bit_identical_across_threads() {
    let one = fsa(&["explore", "--max-vehicles=2", "--threads=1"]);
    let four = fsa(&["explore", "--max-vehicles=2", "--threads=4"]);
    assert!(one.status.success() && four.status.success());
    assert_eq!(
        String::from_utf8_lossy(&one.stdout),
        String::from_utf8_lossy(&four.stdout)
    );
}

#[test]
fn distributed_explore_finishes_at_the_default_universe() {
    // Regression: the default 8 shards over the 2-vehicle universe's 5
    // vectors used to include three identical empty ranges; the
    // coordinator finds a shard by its range, so the run never
    // finished. A run still going after 60 s is killed and fails.
    let mut child = Command::new(env!("CARGO_BIN_EXE_fsa"))
        .args(["explore", "--distributed", "--workers", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("child status").is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`fsa explore --distributed --workers 2` still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let distributed = child.wait_with_output().expect("child output");
    let single = fsa(&["explore"]);
    assert!(distributed.status.success(), "{distributed:?}");
    assert!(single.status.success(), "{single:?}");
    assert_eq!(
        String::from_utf8_lossy(&single.stdout),
        String::from_utf8_lossy(&distributed.stdout)
    );
}

#[test]
fn distributed_explore_names_why_its_workers_failed() {
    // Regression: workers ran with their stderr discarded, so a run
    // whose workers all failed said only `worker exited with exit
    // status: 1`. Each worker fails on the budget within milliseconds.
    let base = ["explore", "--max-vehicles", "3", "--budget", "5"];
    let single = fsa(&base);
    let distributed = fsa(&[&base[..], &["--distributed", "--workers", "2"]].concat());
    let why = "enumeration exceeded the budget of 5 candidates";
    for out in [&single, &distributed] {
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(why),
            "{out:?}"
        );
    }
}

/// The lines of a report's `exploration stats:` block, durations masked.
fn stats_block(stdout: &[u8]) -> Vec<String> {
    mask_timings(stdout)
        .lines()
        .skip_while(|line| *line != "exploration stats:")
        .skip(1)
        .map(str::to_owned)
        .collect()
}

#[test]
fn distributed_stats_print_only_what_the_coordinator_measured() {
    // Regression: a merged run printed `threads 1`, `subset scan 0ns`
    // and `candidate build 0ns`, which the coordinator never measured,
    // and filed the merge time under `certificate dedup`.
    let base = [
        "explore",
        "--max-vehicles",
        "3",
        "--threads",
        "2",
        "--stats",
    ];
    let single = fsa(&base);
    let distributed = fsa(&[&base[..], &["--distributed", "--workers", "2"]].concat());
    assert!(single.status.success(), "{single:?}");
    assert!(distributed.status.success(), "{distributed:?}");
    let raw = String::from_utf8_lossy(&distributed.stdout);
    assert!(!raw.lines().any(|l| l.ends_with(" 0ns")), "{raw}");
    let block = stats_block(&distributed.stdout);
    assert!(!block.iter().any(|l| l.starts_with("threads")), "{block:?}");
    assert!(block.contains(&"merge <t>".to_owned()), "{block:?}");
    // Every counter line equals the single-process run's.
    let counters = |block: Vec<String>| -> Vec<String> {
        block
            .into_iter()
            .filter(|l| !l.contains("<t>") && !l.starts_with("threads"))
            .collect()
    };
    let single_counters = counters(stats_block(&single.stdout));
    assert!(single_counters.iter().any(|l| l.starts_with("classes 103")));
    assert_eq!(counters(block), single_counters);
}

#[test]
fn explore_budget_error_and_truncate() {
    let out = fsa(&["explore", "--budget", "5"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exceeded the budget of 5"), "{stderr}");
    let out = fsa(&["explore", "--budget", "5", "--truncate"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(truncated at budget)"), "{stdout}");
    // A budget truncation is not partial coverage, whatever the policy.
    let retried = fsa(&["explore", "--budget", "5", "--truncate", "--retries", "2"]);
    assert_eq!(retried.status.code(), Some(0), "{retried:?}");
    let retried_stdout = String::from_utf8_lossy(&retried.stdout);
    assert!(
        !retried_stdout.contains("partial universe"),
        "{retried_stdout}"
    );
    assert_eq!(retried_stdout, stdout);
}

/// A report with every duration and rate value masked, and runs of
/// spaces collapsed (masked values no longer pad to the same width).
fn mask_timings(stdout: &[u8]) -> String {
    let is_duration = |token: &str| {
        ["ns", "µs", "ms", "s"].iter().any(|unit| {
            token
                .strip_suffix(unit)
                .is_some_and(|n| !n.is_empty() && n.parse::<f64>().is_ok())
        })
    };
    String::from_utf8_lossy(stdout)
        .lines()
        .map(|line| {
            let rate = line.trim_start().starts_with("events/sec");
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let masked: Vec<&str> = tokens
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    if is_duration(t) || (rate && i == tokens.len() - 1) {
                        "<t>"
                    } else {
                        t
                    }
                })
                .collect();
            masked.join(" ") + "\n"
        })
        .collect()
}

/// Supervision flags only set the policy: with timings masked, a run
/// prints the same report with and without them, `--stats` included.
#[test]
fn supervision_flags_keep_one_output_shape() {
    let pairs: [(&[&str], &[&str]); 2] = [
        (
            &["explore", "--max-vehicles", "2", "--stats"],
            &["--deadline-ms", "600000"],
        ),
        (
            &[
                "monitor",
                "--streams",
                "4",
                "--events",
                "400",
                "--threads",
                "2",
                "--stats",
            ],
            &["--retries", "2"],
        ),
    ];
    for (base, policy) in pairs {
        let plain = fsa(base);
        let with_policy = fsa(&[base, policy].concat());
        assert_eq!(plain.status.code(), Some(0), "{plain:?}");
        assert_eq!(with_policy.status.code(), Some(0), "{with_policy:?}");
        let plain = mask_timings(&plain.stdout);
        assert!(plain.contains("<t>"), "timings masked: {plain}");
        assert_eq!(
            plain,
            mask_timings(&with_policy.stdout),
            "{base:?} + {policy:?}"
        );
    }
}

#[test]
fn explore_rejects_bad_flags() {
    let out = fsa(&["explore", "--max-vehicles", "zero"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--max-vehicles expects a positive integer"));
    let out = fsa(&["explore", "--bogus"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --bogus"));
    assert!(stderr.contains("fsa explore"));
}

#[test]
fn unknown_flag_and_usage() {
    let out = fsa(&["elicit", "specs/fig3.fsa", "--bogus"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"));
    assert!(stderr.contains("usage"));
    let out = fsa(&[]);
    assert!(!out.status.success());
}

/// Every subcommand answers `--help` on stdout with exit code 0.
#[test]
fn every_subcommand_prints_help() {
    for sub in ["elicit", "check", "explore", "simulate", "monitor", "serve"] {
        let out = fsa(&[sub, "--help"]);
        assert!(out.status.success(), "{sub} --help: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage"), "{sub}: {stdout}");
        assert!(stdout.contains(sub), "{sub}: {stdout}");
        assert!(out.stderr.is_empty(), "{sub}: help goes to stdout");
    }
    // The global help as well.
    let out = fsa(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for sub in ["elicit", "check", "explore", "simulate", "monitor", "serve"] {
        assert!(stdout.contains(sub), "global help lists {sub}");
    }
}

/// Unknown subcommands and bad flag values print usage to stderr and
/// exit non-zero — consistently across all subcommands.
#[test]
fn unknown_subcommand_and_bad_values_fail_consistently() {
    let out = fsa(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("usage"));
    assert!(out.stdout.is_empty());

    for args in [
        vec!["explore", "--max-vehicles", "zero"],
        vec!["explore", "--threads", "0"],
        vec!["simulate", "--seed", "minus-one"],
        vec!["simulate", "--max-steps", "0"],
        vec!["simulate", "--bogus"],
        vec!["monitor", "--streams", "0"],
        vec!["monitor", "--events", "none"],
        vec!["monitor", "--inject", "explode:now"],
        vec!["monitor", "--bogus"],
        vec!["monitor", "unexpected-positional"],
    ] {
        let out = fsa(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage"), "{args:?}: {stderr}");
    }
}

#[test]
fn simulate_prints_seeded_trace() {
    for scenario in ["chain", "six"] {
        let out = fsa(&["simulate", "--scenario", scenario, "--seed", "7"]);
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!("scenario {scenario}, seed 7")));
        assert!(stdout.contains("trace:"), "{stdout}");
        assert!(stdout.contains("V1_sense"), "{stdout}");
        // Deterministic for the same seed.
        let again = fsa(&["simulate", "--scenario", scenario, "--seed", "7"]);
        assert_eq!(out.stdout, again.stdout);
    }
}

#[test]
fn simulate_rejects_unknown_scenario() {
    let out = fsa(&["simulate", "--scenario", "warp"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown scenario"), "{stderr}");
    for scenario in ["two", "chain", "attacked", "six"] {
        assert!(stderr.contains(scenario), "{scenario} not named: {stderr}");
    }
}

#[test]
fn simulate_applies_injected_fault() {
    let out = fsa(&[
        "simulate",
        "--scenario",
        "chain",
        "--seed",
        "7",
        "--inject",
        "spoof:V3_show",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fault spoof:V3_show"), "{stdout}");
    assert!(
        stdout.contains("trace: V3_show"),
        "spoof prepends: {stdout}"
    );
}

#[test]
fn monitor_clean_fleet_holds_and_exits_zero() {
    let out = fsa(&["monitor", "--streams", "4", "--events", "400", "--stats"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 violated"), "{stdout}");
    assert!(stdout.contains("events/sec"), "{stdout}");
    assert!(stdout.contains("shard balance"), "{stdout}");
}

/// `--events` is split over the streams, each rounded up: 3 streams of
/// ⌈10 / 3⌉ = 4 events check 12 events, 8 streams of ⌈3 / 8⌉ = 1 check 8.
#[test]
fn monitor_events_round_up_to_a_multiple_of_the_stream_count() {
    for (streams, events, summary) in [
        (
            "3",
            "10",
            "7 monitor(s), 3 stream(s), 12 event(s): 0 violated\n",
        ),
        (
            "8",
            "3",
            "7 monitor(s), 8 stream(s), 8 event(s): 0 violated\n",
        ),
    ] {
        let out = fsa(&[
            "monitor",
            "--scenario",
            "chain",
            "--streams",
            streams,
            "--events",
            events,
        ]);
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(summary), "{stdout}");
    }
}

#[test]
fn monitor_injected_drop_violates_and_exits_nonzero() {
    let out = fsa(&[
        "monitor",
        "--streams",
        "4",
        "--events",
        "400",
        "--inject",
        "drop:V1_sense",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VIOLATED"), "{stdout}");
    assert!(stdout.contains("auth(V1_sense, V3_show, D_3)"), "{stdout}");
}

#[test]
fn monitor_reports_bit_identical_across_threads() {
    let base = ["monitor", "--streams", "6", "--events", "600"];
    let mut outputs = Vec::new();
    for threads in ["1", "2", "4", "8"] {
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--threads", threads]);
        let out = fsa(&args);
        assert!(out.status.success(), "{out:?}");
        outputs.push(String::from_utf8_lossy(&out.stdout).into_owned());
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{outputs:?}");
}

// ---- Supervised execution layer (deadlines, checkpoint/resume) ------

#[test]
fn explore_with_checkpoint_matches_plain_explore_and_resumes_idempotently() {
    let dir = TempDir::new("cli-checkpoint-full");
    let ck = dir.path().join("full.fsas");
    let plain = fsa(&["explore", "--max-vehicles", "2"]);
    assert!(plain.status.success(), "{plain:?}");
    let supervised = fsa(&[
        "explore",
        "--max-vehicles",
        "2",
        "--checkpoint",
        ck.to_str().unwrap(),
        "--checkpoint-every",
        "4",
    ]);
    assert!(supervised.status.success(), "{supervised:?}");
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&supervised.stdout),
        "supervised output is bit-identical when nothing is cut"
    );
    // Resuming the *completed* checkpoint reproduces the same output.
    let resumed = fsa(&[
        "explore",
        "--max-vehicles",
        "2",
        "--resume",
        ck.to_str().unwrap(),
    ]);
    assert!(resumed.status.success(), "{resumed:?}");
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&resumed.stdout)
    );
}

#[test]
fn explore_expired_deadline_degrades_to_partial_exit_3() {
    let out = fsa(&["explore", "--max-vehicles", "2", "--deadline-ms", "0"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("partial universe"), "{stdout}");
    assert!(stdout.contains("vector coverage"), "{stdout}");
}

#[test]
fn explore_resume_from_corrupt_checkpoint_fails_cleanly() {
    let dir = TempDir::new("cli-checkpoint-corrupt");
    let ck = dir.path().join("corrupt.fsas");
    std::fs::write(&ck, b"this is not a snapshot").unwrap();
    let out = fsa(&["explore", "--resume", ck.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("corrupt checkpoint"), "{stderr}");
}

#[test]
fn an_unwritable_checkpoint_fails_as_a_write_and_leaves_no_temp_file() {
    // `--checkpoint=` names the empty path: the temp file `.tmp` is
    // written in the working directory, and the rename onto "" fails.
    let dir = TempDir::new("cli-unwritable");
    let out = Command::new(env!("CARGO_BIN_EXE_fsa"))
        .args(["explore", "--checkpoint="])
        .current_dir(dir.path())
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot write checkpoint"), "{stderr}");
    assert!(!stderr.contains("corrupt checkpoint"), "{stderr}");
    let left: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .flatten()
        .map(|e| e.file_name())
        .collect();
    assert!(left.is_empty(), "left behind: {left:?}");
}

#[test]
fn a_closed_stdout_still_writes_the_stats_artefact() {
    // `fsa explore … | head`: the reader goes away before the report is
    // written. The write fails with a broken pipe, which ends stdout but
    // not the run: no panic, the `--stats-json` artefact, the report's
    // exit code.
    let dir = TempDir::new("cli-closed-stdout");
    let stats = dir.path().join("stats.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_fsa"))
        .args(["explore", "--max-vehicles", "4", "--stats-json"])
        .arg(&stats)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stats.exists(), "no --stats-json artefact");
}

#[test]
fn a_server_whose_stdout_closed_still_drains_and_writes_its_stats() {
    // `fsa serve … | head -1`: the reader takes the `listening on` line
    // and goes away, so the `drained:` line meets a broken pipe.
    let dir = TempDir::new("cli-closed-serve-stdout");
    let stats = dir.path().join("serve.json");
    let mut server = Command::new(env!("CARGO_BIN_EXE_fsa"))
        .args(["serve", "--addr", "127.0.0.1:0", "--stats-json"])
        .arg(&stats)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdout = std::io::BufReader::new(server.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    std::io::BufRead::read_line(&mut stdout, &mut line).expect("reads the first line");
    drop(stdout);
    let addr = line.trim().strip_prefix("listening on ").map(str::to_owned);
    let drained = addr.map(|addr| fsa(&["serve", "--connect", &addr, "--drain"]));
    if !drained.as_ref().is_some_and(|d| d.status.success()) {
        let _ = server.kill();
        panic!("no drain: first line {line:?}, client {drained:?}");
    }
    let out = server.wait_with_output().expect("server exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stats.exists(), "no --stats-json artefact");
}

#[test]
fn explore_rejects_bad_supervision_flag_values() {
    for args in [
        &["explore", "--deadline-ms", "soon"][..],
        &["explore", "--checkpoint"],
        &["explore", "--checkpoint-every", "0"],
        // `--checkpoint-every` only paces a `--checkpoint F` run.
        &["explore", "--checkpoint-every", "5"],
        &["explore", "--distributed", "--checkpoint-every", "5"],
    ] {
        let out = fsa(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}

#[test]
fn monitor_expired_deadline_exits_3_with_coverage() {
    let out = fsa(&[
        "monitor",
        "--streams",
        "4",
        "--events",
        "400",
        "--deadline-ms",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stream coverage 0/4"), "{stdout}");
    assert!(stdout.contains("cancelled"), "{stdout}");
}

// ---- Flag-value parsing regressions ---------------------------------

/// A value-taking `--flag` followed by another `--flag` must not
/// consume the second flag as its value. Before the fix,
/// `--checkpoint --resume` silently used the literal string
/// `"--resume"` as a checkpoint path; covered here for string-,
/// integer- and fault-valued flags.
#[test]
fn value_flags_do_not_swallow_a_following_flag() {
    // String-valued.
    let out = fsa(&["explore", "--checkpoint", "--resume"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--checkpoint expects a value"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");

    // Integer-valued: previously ate `--stats` and then reported a
    // misleading parse error for it.
    let out = fsa(&["monitor", "--streams", "--stats"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--streams expects a value"), "{stderr}");

    // Fault-valued.
    let out = fsa(&["simulate", "--inject", "--seed", "7"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--inject expects a value"), "{stderr}");

    // An explicit inline `=` value may still start with dashes.
    let out = fsa(&["simulate", "--scenario=two", "--seed=3"]);
    assert!(out.status.success(), "{out:?}");
}

/// `--retries` beyond `u32::MAX` was silently clamped; it now fails
/// the usage contract (exit 2) on both supervised subcommands.
#[test]
fn retries_out_of_range_is_rejected_on_both_subcommands() {
    for sub in ["explore", "monitor"] {
        let out = fsa(&[sub, "--retries", "4294967296"]);
        assert_eq!(out.status.code(), Some(2), "{sub}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--retries expects an integer in 0..=4294967295"),
            "{sub}: {stderr}"
        );
        assert!(stderr.contains("usage"), "{sub}: {stderr}");
    }
    // The boundary value itself is accepted.
    let out = fsa(&[
        "monitor",
        "--streams",
        "2",
        "--events",
        "64",
        "--retries",
        "4294967295",
    ]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn monitor_violation_dominates_deadline_exit_code() {
    // A generous deadline that will not expire: the injected violation
    // must keep exit code 1, not 3.
    let out = fsa(&[
        "monitor",
        "--streams",
        "4",
        "--events",
        "400",
        "--inject",
        "drop:V1_sense",
        "--deadline-ms",
        "600000",
        "--retries",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VIOLATED"), "{stdout}");
}

/// Every flag is single-occurrence unless documented repeatable: the
/// second occurrence — spaced or inline — is a usage error, not a
/// silent last-one-wins.
#[test]
fn duplicate_flag_occurrences_are_usage_errors() {
    let cases: Vec<Vec<&str>> = vec![
        vec!["explore", "--threads", "2", "--threads", "4"],
        vec!["explore", "--stats", "--stats"],
        vec!["simulate", "--seed=1", "--seed", "2"],
        vec!["monitor", "--seed", "3", "--seed=4"],
        vec!["elicit", "specs/fig3.fsa", "--param", "--param"],
        vec!["serve", "--addr", "127.0.0.1:0", "--addr=127.0.0.1:0"],
    ];
    for case in cases {
        let out = fsa(&case);
        assert_eq!(out.status.code(), Some(2), "{case:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("duplicate flag --"), "{case:?}: {stderr}");
        assert!(stderr.contains("usage"), "{case:?}: {stderr}");
    }
}

/// An empty action name in a fault spec (`drop:`) is a typed parse
/// error, not an injection that can never fire.
#[test]
fn empty_fault_action_name_is_rejected() {
    for sub in ["simulate", "monitor"] {
        for fault in ["drop:", "spoof:"] {
            let out = fsa(&[sub, "--inject", fault]);
            assert_eq!(out.status.code(), Some(2), "{sub} {fault}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("expects a non-empty action name"),
                "{sub} {fault}: {stderr}"
            );
        }
    }
}

/// A fault naming an automaton absent from the scenario is legal but
/// inert; the CLI now says so on stderr instead of silently running an
/// injection-free simulation.
#[test]
fn unmatched_fault_target_warns_but_still_runs() {
    let out = fsa(&[
        "simulate",
        "--inject",
        "drop:NoSuchAutomaton",
        "--max-steps",
        "5",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no automaton named `NoSuchAutomaton` in scenario `two`"),
        "{stderr}"
    );

    let out = fsa(&[
        "monitor",
        "--streams",
        "2",
        "--events",
        "16",
        "--inject",
        "spoof:Ghost",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no automaton named `Ghost` in scenario `chain`"),
        "{stderr}"
    );

    // A fault that does match stays warning-free.
    let out = fsa(&["simulate", "--inject", "drop:V1_sense", "--max-steps", "5"]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("warning"),
        "{out:?}"
    );
}

/// A spec of `k` independent Fig. 4 chains (sender → forwarder →
/// receiver). Each chain's dataflow APA fragment has 29 reachable
/// states, so the global product has 29^k.
fn independent_chains_spec(k: usize) -> String {
    let mut spec = format!("instance \"{k} independent chains\" {{\n");
    for c in 1..=k {
        let (s, f, w) = (format!("c{c}s"), format!("c{c}f"), format!("c{c}w"));
        for (id, term, vehicle) in [
            (format!("sense_{s}"), format!("sense(ESP_{s}, sW)"), &s),
            (format!("pos_{s}"), format!("pos(GPS_{s}, pos)"), &s),
            (format!("send_{s}"), format!("send(CU_{s}, cam(pos))"), &s),
            (format!("rec_{f}"), format!("rec(CU_{f}, cam(pos))"), &f),
            (format!("pos_{f}"), format!("pos(GPS_{f}, pos)"), &f),
            (format!("fwd_{f}"), format!("fwd(CU_{f}, cam(pos))"), &f),
            (format!("rec_{w}"), format!("rec(CU_{w}, cam(pos))"), &w),
            (format!("pos_{w}"), format!("pos(GPS_{w}, pos)"), &w),
            (format!("show_{w}"), format!("show(HMI_{w}, warn)"), &w),
        ] {
            spec.push_str(&format!(
                "    action {id} = {term} owner V_{vehicle} stakeholder D_{vehicle};\n"
            ));
        }
        for flow in [
            format!("flow sense_{s} -> send_{s};"),
            format!("flow pos_{s} -> send_{s};"),
            format!("flow send_{s} -> rec_{f};"),
            format!("flow rec_{f} -> fwd_{f};"),
            format!("policy flow pos_{f} -> fwd_{f};"),
            format!("flow fwd_{f} -> rec_{w};"),
            format!("flow rec_{w} -> show_{w};"),
            format!("flow pos_{w} -> show_{w};"),
        ] {
            spec.push_str(&format!("    {flow}\n"));
        }
    }
    spec.push_str("}\n");
    spec
}

/// Writes `source` to a spec file `name` in a directory of its own,
/// which lives as long as the returned guard.
fn write_spec(name: &str, source: &str) -> (TempDir, std::path::PathBuf) {
    let dir = TempDir::new(&format!("cli-spec-{name}"));
    let path = dir.path().join(name);
    std::fs::write(&path, source).unwrap();
    (dir, path)
}

#[test]
fn cross_check_explores_independent_chains_one_fragment_at_a_time() {
    // 29^6 ≈ 5.9e8 global states: over the default state limit, which
    // bounds each fragment (29 states) instead.
    let (_dir, spec) = write_spec("six-chains.fsa", &independent_chains_spec(6));
    let started = std::time::Instant::now();
    let out = fsa(&["elicit", spec.to_str().unwrap(), "--verify-dataflow"]);
    let took = started.elapsed();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout
            .matches("tool-assisted cross-check: requirement sets match")
            .count(),
        1,
        "{stdout}"
    );
    assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
}

#[test]
fn an_uncountable_product_is_a_typed_cross_check_failure() {
    // 29^14 ≈ 2.9e20 states do not fit usize: the recomposition must
    // say so, neither wrap nor panic nor try to build the product.
    let (_dir, spec) = write_spec("fourteen-chains.fsa", &independent_chains_spec(14));
    let out = fsa(&["elicit", spec.to_str().unwrap(), "--verify-dataflow"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(
            "tool-assisted cross-check FAILED: the recomposed state count overflows usize"
        ),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn stats_without_verify_dataflow_notes_once_per_run() {
    let one = independent_chains_spec(1);
    let two = format!("{one}{}", one.replace("1 independent chains", "again"));
    let (_dir, spec) = write_spec("two-instances.fsa", &two);
    let out = fsa(&["elicit", spec.to_str().unwrap(), "--stats"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.matches("authenticity requirements").count(),
        2,
        "{stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr,
        "note: --stats requires --verify-dataflow (the §5 pipeline)\n"
    );
}

// ---- Pinned monitor and simulate outputs -----------------------------

/// FNV-1a-64 over the runs of `fsa` with each argument list of `runs`,
/// in order (see [`output_digest`]).
fn runs_digest(runs: &[Vec<String>]) -> u64 {
    runs.iter().fold(0xcbf2_9ce4_8422_2325, |h, args| {
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        output_digest(h, &fsa(&args))
    })
}

/// Continues the FNV-1a-64 hash `h` over `out`'s exit code (as
/// little-endian `i32` bytes, `-1` for a signal), then its stdout.
fn output_digest(h: u64, out: &std::process::Output) -> u64 {
    let code = out.status.code().unwrap_or(-1).to_le_bytes();
    fnv1a(fnv1a(h, &code), &out.stdout)
}

/// Continues the FNV-1a-64 hash `h` over `bytes`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `fsa monitor` reports on `six` and `chain`, for seeds 1–3 at one and
/// two threads, honest and under three faults: one digest per scenario
/// and fault, over its six runs. The digests were recorded on the
/// binary whose simulator walked the global reachability graph; walking
/// the product of independent parts must print the very same reports.
#[test]
fn monitor_reports_are_pinned() {
    let rows: [(&str, Option<&str>, u64); 8] = [
        ("six", None, 0x285d_015d_3b48_673b),
        ("six", Some("drop:V1_sense"), 0x5f12_7eb6_4bc1_d1d1),
        ("six", Some("spoof:V2_show"), 0xc604_77d0_4af8_6979),
        ("six", Some("reorder:3"), 0x11fd_dfae_15b3_8465),
        ("chain", None, 0x8e6b_7484_67c3_b093),
        ("chain", Some("drop:V1_sense"), 0x25e1_692a_c345_fd9d),
        ("chain", Some("spoof:V2_show"), 0x86ec_c840_6a02_6549),
        ("chain", Some("reorder:3"), 0x8e6b_7484_67c3_b093),
    ];
    let got: Vec<(&str, Option<&str>, u64)> = rows
        .iter()
        .map(|&(scenario, fault, _)| {
            let mut runs = Vec::new();
            for seed in ["1", "2", "3"] {
                for threads in ["1", "2"] {
                    let mut args = vec!["monitor", "--scenario", scenario, "--seed", seed];
                    args.extend(["--threads", threads]);
                    if let Some(fault) = fault {
                        args.extend(["--inject", fault]);
                    }
                    runs.push(args.into_iter().map(str::to_owned).collect());
                }
            }
            (scenario, fault, runs_digest(&runs))
        })
        .collect();
    assert_eq!(got, rows, "left: this binary, right: the pins");
}

/// `fsa simulate` traces on every scenario, for seeds 1–3 at 100 and
/// 1000 steps: one digest per scenario and step bound, over its three
/// runs, recorded as for [`monitor_reports_are_pinned`].
#[test]
fn simulate_traces_are_pinned() {
    let rows: [(&str, &str, u64); 8] = [
        ("two", "100", 0x9907_bdd5_f2ca_ded5),
        ("two", "1000", 0x9907_bdd5_f2ca_ded5),
        ("chain", "100", 0x7ff6_aaa4_3424_e794),
        ("chain", "1000", 0x7ff6_aaa4_3424_e794),
        ("attacked", "100", 0x764a_18fc_986d_1495),
        ("attacked", "1000", 0x764a_18fc_986d_1495),
        ("six", "100", 0x8f9b_0386_64cb_f59e),
        ("six", "1000", 0x8f9b_0386_64cb_f59e),
    ];
    let got: Vec<(&str, &str, u64)> = rows
        .iter()
        .map(|&(scenario, max_steps, _)| {
            let runs: Vec<Vec<String>> = ["1", "2", "3"]
                .iter()
                .map(|seed| {
                    ["simulate", "--scenario", scenario, "--seed", seed]
                        .into_iter()
                        .chain(["--max-steps", max_steps])
                        .map(str::to_owned)
                        .collect()
                })
                .collect();
            (scenario, max_steps, runs_digest(&runs))
        })
        .collect();
    assert_eq!(got, rows, "left: this binary, right: the pins");
}

/// `fsa elicit` and `fsa check` on the shipped specs under every report
/// flag, on two rendered random-traffic topologies (110 and 290
/// vehicles), on a cyclic spec and on one malformed spec per
/// `ParseError` kind: one FNV-1a-64 digest per input set and flag over
/// the exit code, stdout and stderr of its runs, with the scratch
/// directory's path masked. The digests were recorded on the binary
/// whose spec front end copied every identifier, whose lowering parsed
/// each action's rendered text again and whose §4 order went through
/// `PartialOrder::try_new`; this one must print the very same bytes.
#[test]
fn elicit_and_check_reports_are_pinned() {
    use fsa::vanet::generator::{random_traffic_instance, TrafficConfig};
    let dir = TempDir::new("cli-spec-pins");
    let write = |name: &str, source: &str| {
        let path = dir.path().join(name);
        std::fs::write(&path, source).unwrap();
        path.to_str().unwrap().to_owned()
    };
    let traffic: Vec<String> = [(110, 11), (290, 29)]
        .iter()
        .map(|&(vehicles, seed)| {
            let config = TrafficConfig {
                vehicles,
                ..TrafficConfig::default()
            };
            let source = fsa::speclang::pretty::render(&random_traffic_instance(&config, seed));
            write(&format!("traffic-{vehicles}.fsa"), &source)
        })
        .collect();
    // A self-loop is no circular dependency; the 3-cycle after it is.
    let cyclic = write(
        "cyclic.fsa",
        "instance \"self loop\" {\n    action a = tick(CLK_1) stakeholder D_1;\n    \
         action b = show(HMI_1, warn) stakeholder D_1;\n    flow a -> a;\n    flow a -> b;\n}\n\
         instance \"cycle\" {\n    action a = f(X_1);\n    action b = g(Y_2);\n    \
         action c = h;\n    flow a -> b;\n    flow b -> c;\n    flow c -> a;\n}\n",
    );
    let malformed = vec![
        write("lexer.fsa", "instance \"x\" {\n  action a = f(@);\n}\n"),
        write("parser.fsa", "instance \"x\" {\n  action a = tick\n}\n"),
        write(
            "lowering.fsa",
            "instance \"x\" {\n  action a = tick;\n  flow a -> ghost;\n}\n",
        ),
    ];
    let shipped = vec!["specs/fig3.fsa".to_owned(), "specs/fig4.fsa".to_owned()];
    let sets = [
        ("specs", shipped),
        ("traffic", traffic),
        ("cyclic", vec![cyclic]),
        ("malformed", malformed),
    ];
    let mask = dir.path().to_str().unwrap().to_owned();
    let digest = |set: &str, flag: &str| -> u64 {
        let (_, files) = sets.iter().find(|(name, _)| *name == set).unwrap();
        files.iter().fold(0xcbf2_9ce4_8422_2325, |h, file| {
            let out = match flag {
                "check" => fsa(&["check", file]),
                "" => fsa(&["elicit", file]),
                flag => fsa(&["elicit", file, flag]),
            };
            let code = out.status.code().unwrap_or(-1).to_le_bytes();
            let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).replace(&mask, "<dir>");
            [
                &code[..],
                text(&out.stdout).as_bytes(),
                text(&out.stderr).as_bytes(),
            ]
            .iter()
            .fold(h, |h, bytes| fnv1a(h, bytes))
        })
    };
    let rows: [(&str, &str, u64); 16] = [
        ("specs", "", 0x6b87_1496_fba4_bbbc),
        ("specs", "--markdown", 0x3abc_6338_4727_73ac),
        ("specs", "--param", 0x585e_83c4_f25f_1e4c),
        ("specs", "--refine", 0x3ce9_9b12_343f_da67),
        ("specs", "--prioritise", 0x19a7_93fd_3e21_ce3a),
        ("specs", "--dot", 0xc031_fa18_a89c_a1f2),
        ("specs", "--verify-dataflow", 0x2e81_45a9_cb7c_39c0),
        ("specs", "check", 0x2956_5d44_3d9a_8c5c),
        ("traffic", "", 0xb4c8_e0a4_e87c_0f7d),
        ("traffic", "--markdown", 0xf3ba_be5f_8ca8_ea21),
        ("traffic", "check", 0xb876_e3f7_fcd4_2b27),
        ("cyclic", "", 0x7968_6d47_9799_949c),
        ("cyclic", "check", 0xd3ac_c458_ffcb_64e3),
        ("malformed", "", 0x52a6_ad74_9803_6a3d),
        ("malformed", "--markdown", 0x52a6_ad74_9803_6a3d),
        ("malformed", "check", 0x52a6_ad74_9803_6a3d),
    ];
    let got: Vec<(&str, &str, u64)> = rows
        .iter()
        .map(|&(set, flag, _)| (set, flag, digest(set, flag)))
        .collect();
    assert_eq!(got, rows, "left: this binary, right: the pins");
}

/// A server on an ephemeral port, drained and reaped on drop.
struct Server {
    child: std::process::Child,
    addr: String,
}

impl Server {
    fn start() -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fsa"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        std::io::BufRead::read_line(&mut stdout, &mut line).expect("reads the first line");
        match line.trim().strip_prefix("listening on ") {
            Some(addr) => Server {
                addr: addr.to_owned(),
                child,
            },
            None => {
                let _ = child.kill();
                panic!("no listening line: {line:?}");
            }
        }
    }

    /// Drains the server and returns its exit code and stderr.
    fn drain(mut self) -> (Option<i32>, String) {
        let drained = fsa(&["serve", "--connect", &self.addr, "--drain"]);
        if !drained.status.success() {
            let _ = self.child.kill();
        }
        let out = self.child.wait_with_output().expect("server exits");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }
}

/// A per-stream event count above the fleet's bound (2^28 events, a
/// 1 GiB buffer) is a usage error, refused before the stream's buffer
/// is reserved: not an aborted allocation, not a capacity panic.
#[test]
fn monitor_refuses_streams_above_the_event_bound() {
    for events in ["10000000000", "9223372036854775807"] {
        let out = fsa(&["monitor", "--streams", "1", "--events", events]);
        assert_eq!(out.status.code(), Some(2), "{events}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "{events} events per stream exceed the limit of 268435456"
            )),
            "{stderr}"
        );
        // A panic prints `thread '…' panicked at`; the usage text itself
        // mentions panicked streams.
        assert!(!stderr.contains("panicked at"), "{stderr}");
        assert!(!stderr.contains("memory allocation"), "{stderr}");
    }
    let help = fsa(&["monitor", "--help"]);
    assert!(
        String::from_utf8_lossy(&help.stdout)
            .contains("at most 268435456 (2^28) events per stream"),
        "{help:?}"
    );
}

/// A served session answers an over-long monitor request with the
/// usage error and goes on serving: the next monitor runs, and the
/// server drains cleanly. So do a stream count and a thread count one
/// above their caps, refused before any stream or thread starts, and an
/// `elicit` given `--threads`, which it does not take.
#[test]
fn a_served_session_refuses_an_over_long_monitor_and_serves_on() {
    let server = Server::start();
    let out = fsa(&[
        "serve",
        "--connect",
        &server.addr,
        "--scenario",
        "six",
        "--request",
        "monitor --streams 1 --events 10000000000",
        "--request",
        "monitor --streams 65537 --events 65537",
        "--request",
        "monitor --threads 257",
        "--request",
        "elicit --threads 257",
        "--request",
        "monitor --streams 2 --events 64",
    ]);
    let (code, server_stderr) = server.drain();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for refusal in [
        "10000000000 events per stream exceed the limit",
        "--streams: 65537 streams exceed the limit of 65536 streams",
        "--threads expects at most 256",
        "unknown flag --threads",
    ] {
        assert!(stderr.contains(refusal), "{refusal}: {stderr}");
    }
    assert_eq!(
        stderr.matches("--threads expects at most 256").count(),
        1,
        "{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("9 monitor(s), 2 stream(s), 64 event(s): 0 violated"),
        "{stdout}"
    );
    assert_eq!(code, Some(0), "{server_stderr}");
    assert!(!server_stderr.contains("panicked at"), "{server_stderr}");
}

/// A served `elicit` given `--threads`, over a spec or a scenario, is
/// the one-shot usage error (exit 2, `unknown flag --threads`), and the
/// session answers its next request as a one-shot run would.
#[test]
fn a_served_elicit_refuses_the_threads_flag_and_serves_on() {
    let server = Server::start();
    for (open, one_shot) in [
        (
            ["--spec", "specs/fig3.fsa"],
            &["elicit", "specs/fig3.fsa"][..],
        ),
        (["--scenario", "six"], &["elicit", "--scenario", "six"]),
    ] {
        let mut args = vec!["serve", "--connect", &server.addr];
        args.extend(open);
        args.extend(["--request", "elicit --threads 2", "--request", "elicit"]);
        let out = fsa(&args);
        assert_eq!(out.status.code(), Some(2), "{open:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("unknown flag --threads\n"),
            "{open:?}: {stderr}"
        );
        let want = fsa(one_shot);
        assert!(want.status.success(), "{want:?}");
        assert_eq!(out.stdout, want.stdout, "{open:?}");
    }
    let (code, server_stderr) = server.drain();
    assert_eq!(code, Some(0), "{server_stderr}");
}

/// A served `six` session edited and then monitored (its parts rebuilt
/// from the edited model) prints what the binary that simulated the
/// global graph printed: the digest of the client's exit code and
/// stdout, recorded as for [`monitor_reports_are_pinned`].
#[test]
fn a_served_six_monitor_after_an_edit_is_pinned() {
    let server = Server::start();
    let out = fsa(&[
        "serve",
        "--connect",
        &server.addr,
        "--scenario",
        "six",
        "--edit",
        "remove-flow V2_show",
        "--request",
        "monitor --streams 4 --events 4000 --seed 3",
        "--request",
        "monitor --streams 3 --events 999 --threads 2 --inject drop:V3_sense",
    ]);
    let (code, server_stderr) = server.drain();
    assert_eq!(code, Some(0), "{server_stderr}");
    assert_eq!(
        output_digest(0xcbf2_9ce4_8422_2325, &out),
        0x0f8f_c9a7_3b49_10f3,
        "{out:?}"
    );
}
