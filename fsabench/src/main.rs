//! `fsabench` — end-to-end and per-layer benchmark of the fsa workspace.
//!
//! ```text
//! fsabench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! fsabench run [--seed N]... [--seconds S] [--trace] --out FILE
//! fsabench compare BASE.json... -- CHANGE.json...
//! ```
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how to compare two commits.

#![deny(unsafe_code)]

mod affinity;
mod compare;
mod expected;
mod gen;
mod speed;
mod stats;
mod trace;
mod workloads;

use fsa_obs::json::{write_key, write_str};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage:
  fsabench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  fsabench run [--seed N]... [--seconds S] [--trace] --out FILE
  fsabench compare BASE.json... -- CHANGE.json...
workloads: elicit explore monitor serve-edit dist";

/// A measured run sets up at least [`SETUP_RUNS`] times, and again, up to
/// [`SETUP_MAX`] times, until the set-up phase (with the tear-downs
/// between set-ups) has taken [`SETUP_SECONDS`]; `setup_s` is the median
/// set-up, so cheap set-ups are sampled often enough to be steady. The
/// cap keeps their count, and with it the memory the set-ups leave
/// behind, the same from run to run.
const SETUP_RUNS: usize = 5;
const SETUP_MAX: usize = 20;
const SETUP_SECONDS: f64 = 1.0;
/// Errors kept for the report (every failure is still counted).
const MAX_ERRORS: usize = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `explore --distributed` re-invokes this executable as `work`.
    fsa_dist::cli::register();
    let code = match args.first().map(String::as_str) {
        Some("work") => fsa_dist::cli::work_command(&args[1..]),
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => run_one(&args),
    };
    ExitCode::from(code)
}

fn usage(message: &str) -> u8 {
    eprintln!("fsabench: {message}\n{USAGE}");
    2
}

pub fn note_error(errors: &mut Vec<String>, e: String) {
    if errors.len() < MAX_ERRORS {
        errors.push(e);
    }
}

/// Scratch space inside the working directory (inputs, traces and the
/// distributed runs' state); temporary files go there too.
fn work_dir() -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| format!("working directory: {e}"))?
        .join(".fsabench");
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(dir)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// One measured run of one workload, as printed.
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Metric name → (value, unit).
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Facts beside the result line (sample counts, counters, …), as JSON
    /// members.
    detail: String,
}

fn run_one(args: &[String]) -> u8 {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 1u64, 15.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} expects a value"));
        };
        match flag.as_str() {
            "--workload" if workloads::NAMES.contains(&value.as_str()) => {
                workload = Some(value.clone())
            }
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage("--seed expects an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => seconds = v,
                _ => return usage("--seconds expects a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage("--trace expects 0 or 1"),
            },
            _ => return usage(&format!("unexpected `{flag} {value}`")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload expects one of the workload names");
    };
    let pinned = if workloads::pinned(&workload) {
        affinity::pin_to_one_cpu().map(|_| ())
    } else {
        Ok(())
    };
    let result = pinned.and_then(|()| work_dir()).and_then(|work| {
        if traced {
            traced_outcome(&workload, seed, seconds, &work)
        } else {
            measure(&workload, seed, seconds, &work)
        }
    });
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fsabench: {workload}: {e}");
            return 1;
        }
    };
    for e in &outcome.errors {
        eprintln!("fsabench: {workload}: {e}");
    }
    let mut detail = String::from("{");
    write_key(&mut detail, "workload");
    write_str(&mut detail, &workload);
    detail.push(',');
    write_key(&mut detail, "seed");
    detail.push_str(&format!("{seed},"));
    write_key(&mut detail, "mode");
    write_str(&mut detail, if traced { "trace" } else { "run" });
    detail.push_str(&outcome.detail);
    detail.push('}');
    println!("{detail}");
    println!("{}", result_line(&outcome));
    u8::from(outcome.failed > 0)
}

/// The benchmark's result line: `correct`, `attempted`, `failed` and
/// every metric with its unit.
fn result_line(o: &Outcome) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.failed == 0,
        o.attempted,
        o.failed
    );
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        line.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    line.push_str("}}");
    line
}

/// The end-to-end run: repeated set-ups (each ending in one checked
/// warm-up operation), then a closed loop of one client until the
/// operations have taken `seconds`; each operation is checked after its
/// timed interval. Times are scaled to the reference speed (see
/// [`speed`]).
fn measure(name: &str, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let calibration = workloads::calibration(name);
    let mut setups = speed::Log::new(calibration);
    let mut kept = None;
    let phase = Instant::now();
    for n in 1.. {
        let t = Instant::now();
        let mut w = workloads::setup(name, seed, work, None)?;
        setups.record(t.elapsed());
        setups.calibrate();
        w.check_warm_up()?;
        if let Some(previous) = kept.replace(w) {
            previous.finish()?;
        }
        if n >= SETUP_RUNS && (n == SETUP_MAX || phase.elapsed().as_secs_f64() >= SETUP_SECONDS) {
            break;
        }
    }
    let mut w = kept.expect("at least one set-up");
    let (mut ops, mut busy) = (speed::Log::new(calibration), Duration::ZERO);
    let (mut attempted, mut failed, mut errors) = (0u64, 0u64, Vec::new());
    // Whole passes only, so every run times each input equally often.
    while busy.as_secs_f64() < seconds || attempted % w.pass_len() as u64 != 0 {
        let t = Instant::now();
        let result = w.op();
        let elapsed = t.elapsed();
        busy += elapsed;
        ops.record(elapsed);
        attempted += 1;
        if let Err(e) = result.and_then(|()| w.check()) {
            failed += 1;
            note_error(&mut errors, e);
        }
        w.advance();
        ops.calibrate_if_due();
    }
    w.finish()?;
    let (setups, ops) = (setups.finish(), ops.finish());
    let mut latencies = ops.scaled_ms;
    latencies.sort_by(f64::total_cmp);
    let pct = |p| stats::percentile_sorted(&latencies, p).unwrap_or(0.0);
    let n = latencies.len();
    let metrics = vec![
        ("lat_p50_ms", pct(50.0), "ms"),
        (
            "ops_per_s",
            n as f64 * 1e3 / latencies.iter().sum::<f64>(),
            "1/s",
        ),
        (
            "setup_s",
            stats::median(&setups.scaled_ms).unwrap_or(0.0) / 1e3,
            "s",
        ),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ];
    // Tail percentiles are reported with the number of samples beyond
    // them; they are not bounded, since only serve-edit and elicit have
    // ten or more samples beyond the 90th percentile. The measured times
    // and the machine's speed against the reference go beside them.
    let detail = format!(
        ",\"samples\":{n},\"lat_p90_ms\":{},\"beyond_p90\":{},\"lat_p99_ms\":{},\"beyond_p99\":{},\"setup_runs\":{},\"measured_lat_p50_ms\":{},\"measured_ops_per_s\":{},\"measured_setup_s\":{},\"speed\":{}",
        pct(90.0),
        n / 10,
        pct(99.0),
        n / 100,
        setups.raw_ms.len(),
        stats::median(&ops.raw_ms).unwrap_or(0.0),
        n as f64 / busy.as_secs_f64(),
        stats::median(&setups.raw_ms).unwrap_or(0.0) / 1e3,
        ops.speed,
    );
    Ok(Outcome {
        attempted,
        failed,
        errors,
        metrics,
        detail,
    })
}

fn traced_outcome(name: &str, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let t = trace::run(name, seed, seconds, work)?;
    let metrics = trace::LAYER_METRICS
        .iter()
        .map(|&(n, u, _)| (n, t.metrics[n], u))
        .collect();
    let mut detail = String::from(",\"counters\":{");
    for (i, name) in trace::DETERMINISTIC.iter().enumerate() {
        if i > 0 {
            detail.push(',');
        }
        write_key(&mut detail, name);
        detail.push_str(&format!("{}", t.metrics[name]));
    }
    detail.push_str("},\"absent\":[");
    for (i, name) in t.absent.iter().enumerate() {
        if i > 0 {
            detail.push(',');
        }
        write_str(&mut detail, name);
    }
    detail.push(']');
    Ok(Outcome {
        attempted: t.attempted,
        failed: t.failed,
        errors: t.errors,
        metrics,
        detail,
    })
}

/// `fsabench run`: one child process per workload (a clean heap and its
/// own peak RSS each), one after another, for every seed; writes an
/// `fsa-bench/v1` result file.
fn run_all(args: &[String]) -> u8 {
    let (mut seeds, mut seconds, mut traced, mut out) = (Vec::new(), 15.0f64, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--trace" => traced = true,
            "--seed" | "--seconds" | "--out" => {
                let Some(value) = it.next() else {
                    return usage(&format!("{flag} expects a value"));
                };
                match flag.as_str() {
                    "--seed" => match value.parse::<u64>() {
                        Ok(s) => seeds.push(s),
                        Err(_) => return usage("--seed expects an unsigned integer"),
                    },
                    "--seconds" => match value.parse::<f64>() {
                        Ok(v) if v > 0.0 && v.is_finite() => seconds = v,
                        _ => return usage("--seconds expects a positive number"),
                    },
                    _ => out = Some(value.clone()),
                }
            }
            other => return usage(&format!("unexpected `{other}`")),
        }
    }
    let Some(out) = out else {
        return usage("run expects --out FILE");
    };
    if seeds.is_empty() {
        seeds.push(1);
    }
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("fsabench: cannot locate own binary: {e}");
            return 1;
        }
    };
    let mut runs = Vec::new();
    let mut failed = false;
    for seed in seeds {
        let started = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        let mut run = format!(
            "{{\"seed\":{seed},\"mode\":\"{}\",\"started_ms\":{started},\"workloads\":{{",
            if traced { "trace" } else { "run" }
        );
        for (i, name) in workloads::NAMES.iter().enumerate() {
            let (seed_arg, seconds_arg) = (seed.to_string(), seconds.to_string());
            let child = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    name,
                    "--seed",
                    &seed_arg,
                    "--seconds",
                    &seconds_arg,
                ])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output();
            let stdout = match child {
                Ok(o) => {
                    failed |= !o.status.success();
                    String::from_utf8_lossy(&o.stdout).into_owned()
                }
                Err(e) => {
                    eprintln!("fsabench: cannot run {name}: {e}");
                    return 1;
                }
            };
            let lines: Vec<&str> = stdout.lines().collect();
            let [.., detail, result] = lines.as_slice() else {
                eprintln!("fsabench: {name} (seed {seed}) printed no result");
                return 1;
            };
            let samples = fsa_serve::json::parse(detail)
                .ok()
                .and_then(|d| d.get("samples")?.as_u64())
                .map_or(String::new(), |n| format!(" ({n} samples)"));
            eprintln!("fsabench: {name} seed {seed}{samples}: {result}");
            if i > 0 {
                run.push(',');
            }
            write_key(&mut run, name);
            run.push_str(&format!("{{\"detail\":{detail},\"result\":{result}}}"));
        }
        run.push_str("}}");
        runs.push(run);
    }
    let mut doc = String::from("{\"schema\":\"fsa-bench/v1\",");
    for (key, value) in [
        ("rev", command_line("git", &["rev-parse", "HEAD"])),
        ("rustc", command_line("rustc", &["-V"])),
    ] {
        write_key(&mut doc, key);
        write_str(&mut doc, &value);
        doc.push(',');
    }
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    doc.push_str(&format!(
        "\"available_parallelism\":{parallelism},\"seconds\":{seconds},\"runs\":[\n"
    ));
    doc.push_str(&runs.join(",\n"));
    doc.push_str("\n]}\n");
    if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("fsabench: {out}: {e}");
        return 1;
    }
    u8::from(failed)
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}
