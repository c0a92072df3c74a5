//! Minimal hand-rolled JSON emission (the crate is zero-dependency by
//! design, so exports are written by hand with an explicit, stable key
//! order).
//!
//! The string/key writers are `pub` so sibling crates that speak JSON
//! on the wire (notably `fsa-serve`'s `fsa-wire/v1` frames) reuse this
//! exact escaping instead of growing a second, subtly different one.

use std::fmt::Write;

/// Append `s` as a JSON string literal (with escaping) to `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a `"key":` prefix (caller writes the value).
pub fn write_key(out: &mut String, key: &str) {
    write_str(out, key);
    out.push(':');
}

/// Append microseconds-with-fraction from a nanosecond value, as chrome
/// tracing expects (`ts`/`dur` are in microseconds): `1234.567`.
pub(crate) fn write_us_from_ns(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials_and_control_chars() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn microsecond_fractions_are_zero_padded() {
        let mut out = String::new();
        write_us_from_ns(&mut out, 1_000_042);
        assert_eq!(out, "1000.042");
        out.clear();
        write_us_from_ns(&mut out, 7);
        assert_eq!(out, "0.007");
    }
}
