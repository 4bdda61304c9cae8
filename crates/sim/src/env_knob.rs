//! Centralized parsing of `VLOG_*` environment knobs.
//!
//! Every env-tunable knob in the workspace (`VLOG_THREADS`,
//! `VLOG_EXPLORE_DEPTH`, `VLOG_EXPLORE_SCHEDULES`, ...) shares one
//! warn-and-fallback contract: an *unset* variable silently uses its
//! default, while a malformed or meaningless value is **not** silently
//! absorbed — the knob falls back to the default with a warning on
//! stderr, so a typo'd CI variable shows up in the logs instead of as a
//! mysteriously mis-budgeted run. Parsing is pure ([`parse_positive`],
//! [`parse_any`]) so both failure modes are unit-testable without
//! touching the process-global, race-prone environment.

use std::fmt;

/// Why a knob override string was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KnobError {
    /// The value parsed as zero where zero is meaningless (no worker
    /// threads, no explored schedules, ...).
    Zero,
    /// The value did not parse as an unsigned integer.
    NotANumber(String),
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnobError::Zero => write!(f, "0 is not a usable value here"),
            KnobError::NotANumber(raw) => {
                write!(f, "{raw:?} is not an unsigned integer")
            }
        }
    }
}

/// Parses a positive (non-zero) unsigned integer override. Pure.
pub fn parse_positive(raw: &str) -> Result<u64, KnobError> {
    match parse_any(raw)? {
        0 => Err(KnobError::Zero),
        n => Ok(n),
    }
}

/// Parses an unsigned integer override where any value — zero included
/// (e.g. an RNG seed) — is meaningful. Accepts decimal or `0x`-prefixed
/// hex (seeds are conventionally quoted in hex). Pure.
pub fn parse_any(raw: &str) -> Result<u64, KnobError> {
    let s = raw.trim();
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse::<u64>(),
    };
    parsed.map_err(|_| KnobError::NotANumber(raw.to_string()))
}

/// Looks up `name` and parses it with `parse`, falling back to
/// `default()` (silently when unset, with a stderr warning when
/// malformed).
fn knob<T: fmt::Display>(
    name: &str,
    parse: impl FnOnce(&str) -> Result<u64, KnobError>,
    convert: impl FnOnce(u64) -> T,
    default: impl FnOnce() -> T,
) -> T {
    match std::env::var(name) {
        Err(_) => default(),
        Ok(raw) => match parse(&raw) {
            Ok(n) => convert(n),
            Err(e) => {
                let fallback = default();
                eprintln!(
                    "warning: ignoring {name}={raw:?} ({e}); \
                     falling back to {fallback}"
                );
                fallback
            }
        },
    }
}

/// Reads env knob `name` as a positive integer with warn-and-fallback.
pub fn positive_u64(name: &str, default: u64) -> u64 {
    knob(name, parse_positive, |n| n, || default)
}

/// [`positive_u64`] narrowed to `usize`, with a lazily computed default
/// (e.g. the machine's available parallelism for `VLOG_THREADS`).
pub fn positive_usize_or_else(name: &str, default: impl FnOnce() -> usize) -> usize {
    knob(name, parse_positive, |n| n as usize, default)
}

/// Reads env knob `name` as an arbitrary `u64` (zero allowed — seeds)
/// with warn-and-fallback.
pub fn any_u64(name: &str, default: u64) -> u64 {
    knob(name, parse_any, |n| n, || default)
}

/// Reads env knob `name` as one of the `known` names with
/// warn-and-fallback: `None` when unset (silently) or unknown (after a
/// stderr warning naming `fallback`, what the caller uses instead).
pub fn one_of<'a>(name: &str, known: &[&'a str], fallback: &str) -> Option<&'a str> {
    let raw = std::env::var(name).ok()?;
    let found = known.iter().copied().find(|k| *k == raw.trim());
    if found.is_none() {
        eprintln!(
            "warning: ignoring {name}={raw:?} (unknown name; known: {known:?}); \
             falling back to {fallback}"
        );
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_rejected_where_meaningless() {
        assert_eq!(parse_positive("0"), Err(KnobError::Zero));
        assert_eq!(parse_positive(" 0 "), Err(KnobError::Zero));
        assert_eq!(parse_any("0"), Ok(0), "zero is fine for seed-like knobs");
    }

    #[test]
    fn hex_seeds_parse() {
        assert_eq!(parse_any("0x19052005"), Ok(0x1905_2005));
        assert_eq!(parse_any(" 0XFF "), Ok(255));
        assert_eq!(parse_positive("0x10"), Ok(16));
        assert_eq!(
            parse_any("0x"),
            Err(KnobError::NotANumber("0x".to_string()))
        );
        assert_eq!(
            parse_any("0xzz"),
            Err(KnobError::NotANumber("0xzz".to_string()))
        );
    }

    #[test]
    fn non_numeric_values_are_rejected() {
        for raw in ["four", "", "4x", "-2", "1.5"] {
            assert_eq!(
                parse_positive(raw),
                Err(KnobError::NotANumber(raw.to_string())),
                "raw={raw:?}"
            );
            assert_eq!(
                parse_any(raw),
                Err(KnobError::NotANumber(raw.to_string())),
                "raw={raw:?}"
            );
        }
    }

    #[test]
    fn valid_overrides_parse_with_whitespace() {
        assert_eq!(parse_positive("1"), Ok(1));
        assert_eq!(parse_positive(" 16 "), Ok(16));
        assert_eq!(parse_any(" 42 "), Ok(42));
    }

    #[test]
    fn unset_knobs_use_the_default() {
        // An env var that no harness sets: the silent-default path.
        assert_eq!(positive_u64("VLOG_TEST_KNOB_THAT_IS_NEVER_SET", 7), 7);
        assert_eq!(any_u64("VLOG_TEST_KNOB_THAT_IS_NEVER_SET", 0), 0);
        assert_eq!(
            one_of("VLOG_TEST_KNOB_THAT_IS_NEVER_SET", &["a"], "a"),
            None
        );
        assert_eq!(
            positive_usize_or_else("VLOG_TEST_KNOB_THAT_IS_NEVER_SET", || 3),
            3
        );
    }
}
