//! The one flag parser of the `fsa` CLI, and the table type in which
//! every subcommand declares its flags.
//!
//! A [`Table`] names each flag, its [`Kind`] and the field of the
//! subcommand's flag struct that it sets; [`Table::parse`] owns the
//! whole CLI contract:
//!
//! * `--flag value` and `--flag=value` are both accepted, and a
//!   following `--token` is never taken as a value (an inline
//!   `--flag=--weird` still passes through verbatim);
//! * a flag given twice is a usage error, spaced or inline, unless its
//!   kind is [`Kind::Repeated`];
//! * a switch takes no value: `--all=false` is `unknown flag --all=false`;
//! * the first error in argv order wins, and every error is a usage
//!   error: the message, then the subcommand's usage text, on stderr,
//!   exit code 2.

use fsa_core::service::Rendered;
use std::collections::BTreeSet;

/// A flag's kind: what its value must be, and the field of `T` that
/// it sets.
pub enum Kind<T> {
    /// `--name`, no value: sets the field to `true`.
    Switch(fn(&mut T) -> &mut bool),
    /// `--name TEXT`.
    Text(fn(&mut T) -> &mut Option<String>),
    /// `--name N`, `N ≥ 1`.
    Positive(fn(&mut T) -> &mut Option<usize>),
    /// `--name N`, any `u64` (seeds and millisecond deadlines may be 0).
    Unsigned(fn(&mut T) -> &mut Option<u64>),
    /// `--name N`, any `u32`; out-of-range input is an error, not
    /// clamped.
    U32(fn(&mut T) -> &mut Option<u32>),
    /// `--name FAULT`, an [`apa::Fault`] spec.
    Fault(fn(&mut T) -> &mut Option<apa::Fault>),
    /// `--name TEXT`, any number of times. Each occurrence appends
    /// `(name, TEXT)`, so flags that share one list keep their argv
    /// order.
    Repeated(fn(&mut T) -> &mut Vec<(&'static str, String)>),
}

/// The flags of one subcommand, parsed into a `T`.
pub struct Table<T: 'static> {
    /// The usage text every parse error is rendered with.
    pub(crate) usage: &'static str,
    /// Each flag's name (without `--`) and kind.
    pub flags: &'static [(&'static str, Kind<T>)],
    /// The field that positional arguments are appended to; `None`
    /// rejects them as `unexpected argument`.
    pub(crate) positionals: Option<fn(&mut T) -> &mut Vec<String>>,
    /// Name an unknown `--name=value` by its whole argument rather than
    /// by `--name` (the shape `fsa check` and `fsa elicit` print).
    pub(crate) unknown_with_value: bool,
}

impl<T> Table<T> {
    /// A table of `flags` that takes no positional argument.
    #[must_use]
    pub const fn new(usage: &'static str, flags: &'static [(&'static str, Kind<T>)]) -> Self {
        Table {
            usage,
            flags,
            positionals: None,
            unknown_with_value: false,
        }
    }

    /// Parses `args` into `into`, field by field as the table says.
    /// Each `(flag, message)` of `fixed` names a flag that the caller's
    /// context has already fixed (a session's scenario): once its value
    /// parses, it is a usage error with `message`, in its place in argv
    /// order.
    ///
    /// # Errors
    ///
    /// The first usage error in argv order, rendered with the table's
    /// usage text: `duplicate flag --F`, `--F expects a value`,
    /// `--F expects a positive integer`, `--F expects an unsigned
    /// integer`, `--F expects an integer in 0..=4294967295`, `--F: …`
    /// (a bad fault spec), `unknown flag --F` or ``unexpected argument
    /// `X` ``.
    pub fn parse(
        &self,
        args: &[String],
        fixed: &[(&str, &str)],
        into: &mut T,
    ) -> Result<(), Rendered> {
        let fail = |message: &str| Rendered::usage_error(message, self.usage);
        let mut seen = BTreeSet::new();
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                match self.positionals {
                    Some(field) => field(into).push(arg.clone()),
                    None => return Err(fail(&format!("unexpected argument `{arg}`"))),
                }
                continue;
            };
            let (name, inline) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (flag, None),
            };
            let Some((name, kind)) = self.flags.iter().find(|(n, _)| *n == name) else {
                let shown = if self.unknown_with_value { flag } else { name };
                return Err(fail(&format!("unknown flag --{shown}")));
            };
            if !seen.insert(*name) && !matches!(kind, Kind::Repeated(_)) {
                return Err(fail(&format!("duplicate flag --{name}")));
            }
            // A value: inline, else the next argument unless it is a
            // flag itself; then the caller's fixed-flag check.
            let mut value = || {
                let value = match inline {
                    Some(value) => value.to_owned(),
                    None => match args.next_if(|next| !next.starts_with("--")) {
                        Some(value) => value.clone(),
                        None => return Err(fail(&format!("--{name} expects a value"))),
                    },
                };
                match fixed.iter().find(|(n, _)| n == name) {
                    Some((_, message)) => Err(fail(message)),
                    None => Ok(value),
                }
            };
            let expects = |what: &str| fail(&format!("--{name} expects {what}"));
            match kind {
                Kind::Switch(field) if inline.is_none() => *field(into) = true,
                Kind::Switch(_) => return Err(fail(&format!("unknown flag --{flag}"))),
                Kind::Text(field) => *field(into) = Some(value()?),
                Kind::Positive(field) => {
                    let n = value()?.parse().ok().filter(|&n| n >= 1);
                    *field(into) = Some(n.ok_or_else(|| expects("a positive integer"))?);
                }
                Kind::Unsigned(field) => {
                    let n = value()?.parse();
                    *field(into) = Some(n.map_err(|_| expects("an unsigned integer"))?);
                }
                Kind::U32(field) => {
                    let n = value()?.parse();
                    *field(into) = Some(n.map_err(|_| expects("an integer in 0..=4294967295"))?);
                }
                Kind::Fault(field) => {
                    let fault = apa::Fault::parse(&value()?);
                    *field(into) = Some(fault.map_err(|e| fail(&format!("--{name}: {e}")))?);
                }
                Kind::Repeated(field) => field(into).push((name, value()?)),
            }
        }
        Ok(())
    }
}

/// The flag names (`--name`, without the dashes) that `text` mentions:
/// those of a table and of its usage text are the same.
pub fn usage_flags(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter_map(|word| word.strip_prefix("--"))
        .filter(|name| !name.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[derive(Debug, Default)]
    struct Script {
        ops: Vec<(&'static str, String)>,
        drain: bool,
        threads: Option<usize>,
        seed: Option<u64>,
        files: Vec<String>,
    }

    const SCRIPT: Table<Script> = Table::new(
        "usage: script",
        &[
            ("request", Kind::Repeated(|s| &mut s.ops)),
            ("edit", Kind::Repeated(|s| &mut s.ops)),
            ("drain", Kind::Switch(|s| &mut s.drain)),
            ("threads", Kind::Positive(|s| &mut s.threads)),
            ("seed", Kind::Unsigned(|s| &mut s.seed)),
        ],
    );

    fn parse(table: &Table<Script>, args: &[&str]) -> Result<Script, String> {
        let mut script = Script::default();
        match table.parse(&argv(args), &[("seed", "--seed is fixed")], &mut script) {
            Ok(()) => Ok(script),
            Err(r) => {
                assert_eq!(r.exit, 2);
                assert!(r.stdout.is_empty());
                let (message, usage) = r.stderr.split_once('\n').expect("message line");
                assert_eq!(usage, "usage: script\n");
                Err(message.to_owned())
            }
        }
    }

    #[test]
    fn the_first_error_in_argv_order_wins() {
        for (args, message) in [
            (&["--drain=no", "--bogus"][..], "unknown flag --drain=no"),
            (&["--bogus=1", "--drain=no"], "unknown flag --bogus"),
            (&["--threads", "--drain"], "--threads expects a value"),
            (&["--threads"], "--threads expects a value"),
            (
                &["--threads", "0", "x"],
                "--threads expects a positive integer",
            ),
            (&["x", "--threads", "0"], "unexpected argument `x`"),
            (&["--drain", "--drain=1"], "duplicate flag --drain"),
            (
                &["--threads=2", "--threads", "3"],
                "duplicate flag --threads",
            ),
            (&["--threads", "-1"], "--threads expects a positive integer"),
            (&["--seed", "7", "--bogus"], "--seed is fixed"),
            (&["--seed", "--bogus"], "--seed expects a value"),
        ] {
            assert_eq!(
                parse(&SCRIPT, args).expect_err("fails"),
                message,
                "{args:?}"
            );
        }
    }

    #[test]
    fn positionals_and_unknown_values_follow_the_table() {
        let spec = Table {
            positionals: Some(|s: &mut Script| &mut s.files),
            unknown_with_value: true,
            ..SCRIPT
        };
        let script = parse(&spec, &["a.fsa", "--threads=3", "b.fsa"]).expect("parses");
        assert_eq!(script.files, ["a.fsa", "b.fsa"]);
        assert_eq!(script.threads, Some(3));
        assert_eq!(
            parse(&spec, &["--bogus=1"]).expect_err("fails"),
            "unknown flag --bogus=1"
        );
    }
}
