//! `fsa` — command-line functional security analysis.
//!
//! ```text
//! fsa elicit <spec-file> [--param] [--refine] [--dot] [--verify-dataflow]
//! fsa check <spec-file>
//! fsa explore [--max-vehicles N] [--threads N] [--stats] [--budget N] [--truncate] [--all]
//!             [--deadline-ms N] [--retries N] [--checkpoint F [--checkpoint-every N]] [--resume F]
//! fsa simulate [--scenario two|chain|attacked|six] [--seed N] [--max-steps N] [--inject <fault>]
//! fsa monitor [--scenario chain|six] [--streams N] [--events N] [--threads N]
//!             [--inject <fault>] [--seed N] [--stats] [--deadline-ms N] [--retries N]
//! fsa serve [--addr HOST:PORT] | fsa serve --connect ADDR [--request "CMD ARGS"]...
//! fsa coordinate --listen HOST:PORT [--max-vehicles N] [--shards N] [--lease-ms N] [--state F]
//! fsa work --connect HOST:PORT [--state-dir D] [--threads N]
//! ```
//!
//! The command implementations live in [`fsa::serve::cli`] as buffered
//! runners shared with the resident `fsa serve` server — serving
//! responses are byte-identical to one-shot output because both modes
//! execute the very same code. This binary only collects `argv`,
//! delegates, prints the rendered buffers and exits. See
//! `fsa <subcommand> --help` for each command's contract (exit codes:
//! 0 ok, 1 failure/violation, 2 usage, 3 clean deadline-partial).

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Make `fsa explore --distributed` able to spawn this binary's
    // own `fsa work` workers.
    fsa::dist::cli::register();
    // The distributed commands are long-running networked processes;
    // intercept them before the request/response dispatcher.
    match args.split_first() {
        Some((cmd, rest)) if cmd == "coordinate" => {
            ExitCode::from(fsa::dist::cli::coordinate_command(rest))
        }
        Some((cmd, rest)) if cmd == "work" => ExitCode::from(fsa::dist::cli::work_command(rest)),
        _ => ExitCode::from(fsa::serve::cli::main(&args)),
    }
}
