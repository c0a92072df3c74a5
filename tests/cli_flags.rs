//! The flag contract of the `fsa` binary where every subcommand parses
//! its flags through one table: a switch takes no value, and a
//! subcommand accepts only the flags of its own table.

use std::process::Command;

fn fsa(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fsa"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Asserts exit code 2, `message` as the first stderr line, then usage.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = fsa(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let (first, rest) = stderr.split_once('\n').expect("a message line");
    assert_eq!(first, message, "{args:?}");
    assert!(rest.starts_with("usage:\n"), "{args:?}: {stderr}");
}

/// A switch given an inline value used to be accepted as the switch
/// (`--all=false` kept disconnected instances); it is an unknown flag.
#[test]
fn switches_given_an_inline_value_are_unknown_flags() {
    for args in [
        &["explore", "--all=false"][..],
        &["explore", "--truncate=no"],
        &["explore", "--stats=1"],
        &["explore", "--distributed=no"],
        &["monitor", "--stats=0"],
        &["coordinate", "--all=x"],
        &["serve", "--connect", "127.0.0.1:1", "--drain=no"],
        &["elicit", "specs/fig3.fsa", "--param=x"],
    ] {
        let flag = args.last().expect("a flag");
        assert_usage_error(args, &format!("unknown flag {flag}"));
    }
}

/// `fsa check` takes only the observability exports; the flags of
/// `fsa elicit` used to be accepted and ignored.
#[test]
fn check_rejects_the_flags_only_elicit_takes() {
    for flag in [
        "--param",
        "--refine",
        "--prioritise",
        "--dot",
        "--markdown",
        "--verify-dataflow",
        "--stats",
    ] {
        assert_usage_error(
            &["check", "specs/fig3.fsa", flag],
            &format!("unknown flag {flag}"),
        );
    }
    assert_usage_error(
        &["check", "specs/fig3.fsa", "--threads", "2"],
        "unknown flag --threads",
    );
    assert_usage_error(
        &["check", "specs/fig3.fsa", "--markdown", "--param"],
        "unknown flag --markdown",
    );
    let stats = std::env::temp_dir().join(format!("fsa-check-{}.json", std::process::id()));
    let out = fsa(&[
        "check",
        "specs/fig3.fsa",
        "--stats-json",
        stats.to_str().expect("utf8 path"),
    ]);
    let _ = std::fs::remove_file(&stats);
    assert!(out.status.success(), "{out:?}");
}

/// The §5 pair grid runs on the calling thread, so neither form of
/// `fsa elicit` takes `--threads`.
#[test]
fn elicit_refuses_the_removed_threads_flag() {
    for args in [
        &["elicit", "specs/fig3.fsa", "--threads", "2"][..],
        &["elicit", "--scenario", "six", "--threads", "2"],
    ] {
        assert_usage_error(args, "unknown flag --threads");
    }
}
