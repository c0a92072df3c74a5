//! Frozen expectations (`expected.json`): the digest of the
//! `explore --max-vehicles 4` report.

use fsa_serve::json::Value;

const SOURCE: &str = include_str!("../expected.json");

/// FNV-1a 64 of the report, as 16 lower-case hex digits.
pub fn explore_digest() -> String {
    fsa_serve::json::parse(SOURCE)
        .expect("expected.json is valid JSON")
        .get("explore_stdout_fnv1a64")
        .and_then(Value::as_str)
        .expect("expected.json names the explore digest")
        .to_owned()
}
