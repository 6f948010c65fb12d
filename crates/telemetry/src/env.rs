//! Hardened environment-variable parsing for the `ADQ_*` tuning knobs.
//!
//! The knobs (today only `ADQ_PAR_FLOPS`) are read once at startup, and
//! silently falling back on a typo would leave a run tuned differently
//! than the operator believes. Every parse failure therefore produces
//! a **typed** [`EnvParseIssue`], is logged to stderr exactly once per
//! variable, counted in the process-wide `telemetry.env.invalid` metric,
//! and then falls back to the caller's default — an invalid value never
//! aborts a run and never silently changes behaviour.

use std::fmt;

/// Why an environment variable's value could not be used. Carried in the
/// warning log line so an operator can tell a typo from an overflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvParseIssue {
    /// The variable is set but empty (or whitespace only).
    Empty,
    /// The value is not a number.
    Invalid(String),
    /// The value is a well-formed number too large for the target type.
    Overflow(String),
}

impl fmt::Display for EnvParseIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvParseIssue::Empty => write!(f, "value is empty"),
            EnvParseIssue::Invalid(raw) => write!(f, "value {raw:?} is not valid"),
            EnvParseIssue::Overflow(raw) => write!(f, "value {raw:?} overflows"),
        }
    }
}

/// Parses a `usize` from a raw environment value, distinguishing
/// overflow from garbage so the warning names the actual problem.
///
/// # Errors
///
/// Returns the typed [`EnvParseIssue`] describing why `raw` is unusable.
pub fn parse_usize(raw: &str) -> Result<usize, EnvParseIssue> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err(EnvParseIssue::Empty);
    }
    match trimmed.parse::<usize>() {
        Ok(v) => Ok(v),
        Err(_) => {
            // All-digit input that failed to parse can only be overflow.
            if trimmed.chars().all(|c| c.is_ascii_digit()) {
                Err(EnvParseIssue::Overflow(trimmed.to_string()))
            } else {
                Err(EnvParseIssue::Invalid(trimmed.to_string()))
            }
        }
    }
}

/// Logs one warning for an unusable variable and counts it in
/// `telemetry.env.invalid`. Callers cache the parse result in a
/// `OnceLock`, so each variable warns at most once per process.
pub fn warn_invalid(name: &str, issue: &EnvParseIssue, fallback: &str) {
    crate::metrics::global()
        .counter("telemetry.env.invalid")
        .inc();
    eprintln!("adq: warning: ignoring {name}: {issue}; using {fallback}");
}

/// Reads `name` as a `usize`: `None` when unset **or** unusable (after
/// warning); `Some` only for a value that actually parsed.
pub fn usize_var(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    match parse_usize(&raw) {
        Ok(v) => Some(v),
        Err(issue) => {
            warn_invalid(name, &issue, "the default");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_usize_values_parse() {
        assert_eq!(parse_usize("0"), Ok(0));
        assert_eq!(parse_usize("32768"), Ok(32768));
        assert_eq!(parse_usize("  512 "), Ok(512));
    }

    #[test]
    fn empty_usize_is_typed_empty() {
        assert_eq!(parse_usize(""), Err(EnvParseIssue::Empty));
        assert_eq!(parse_usize("   "), Err(EnvParseIssue::Empty));
    }

    #[test]
    fn garbage_usize_is_typed_invalid() {
        assert_eq!(
            parse_usize("fast"),
            Err(EnvParseIssue::Invalid("fast".to_string()))
        );
        assert_eq!(
            parse_usize("-1"),
            Err(EnvParseIssue::Invalid("-1".to_string()))
        );
        assert_eq!(
            parse_usize("1e6"),
            Err(EnvParseIssue::Invalid("1e6".to_string()))
        );
    }

    #[test]
    fn oversized_usize_is_typed_overflow() {
        let huge = "9".repeat(40);
        assert_eq!(parse_usize(&huge), Err(EnvParseIssue::Overflow(huge)));
    }

    #[test]
    fn issues_render_the_offending_value() {
        let msg = EnvParseIssue::Overflow("99999999999999999999".into()).to_string();
        assert!(msg.contains("99999999999999999999"), "{msg}");
        assert!(EnvParseIssue::Empty.to_string().contains("empty"));
    }

    #[test]
    fn warning_is_counted_in_the_registry() {
        let counter = crate::metrics::global().counter("telemetry.env.invalid");
        let before = counter.get();
        warn_invalid("ADQ_TEST_VAR", &EnvParseIssue::Empty, "the default");
        assert!(counter.get() > before);
    }
}
