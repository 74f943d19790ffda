//! Structured, leveled logging to stderr.
//!
//! One process-global sink with an atomic level filter and an output mode:
//! human-readable text (default) or JSONL, one event per line, with a
//! microsecond UNIX timestamp, level, component, message, and typed
//! key/value fields. The hot path for a *disabled* level is a single
//! relaxed atomic load.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parse a `--log-level` argument.
    pub fn parse(s: &str) -> Result<Level, String> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            other => Err(format!("unknown log level '{other}' (expected error|warn|info|debug)")),
        }
    }
}

/// A typed field value so JSONL output keeps numbers as numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Str(if v { "true" } else { "false" }.to_string())
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static JSON: AtomicBool = AtomicBool::new(false);

/// Set the minimum severity that will be emitted.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Switch between JSONL (`true`) and human-readable text (`false`).
pub fn set_json(json: bool) {
    JSON.store(json, Ordering::Relaxed);
}

/// Whether events are currently emitted as JSONL.
fn json() -> bool {
    JSON.load(Ordering::Relaxed)
}

/// Whether an event at `level` would currently be emitted.
#[inline]
pub(crate) fn enabled(level: Level) -> bool {
    (level as u8) <= LEVEL.load(Ordering::Relaxed)
}

/// Emit one structured event to stderr (a no-op when the level is filtered).
pub(crate) fn event(level: Level, component: &str, msg: &str, fields: &[(&str, Value)]) {
    if !enabled(level) {
        return;
    }
    let ts_us =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0);
    let line = if json() {
        format_json(ts_us, level, component, msg, fields)
    } else {
        format_text(ts_us, level, component, msg, fields)
    };
    eprintln!("{line}");
}

/// Convenience wrappers for the common severities.
pub fn error(component: &str, msg: &str, fields: &[(&str, Value)]) {
    event(Level::Error, component, msg, fields);
}
pub fn warn(component: &str, msg: &str, fields: &[(&str, Value)]) {
    event(Level::Warn, component, msg, fields);
}
pub fn info(component: &str, msg: &str, fields: &[(&str, Value)]) {
    event(Level::Info, component, msg, fields);
}

/// JSONL form: `{"ts_us":...,"level":"warn","component":"serve","msg":"...",...}`.
pub(crate) fn format_json(
    ts_us: u64,
    level: Level,
    component: &str,
    msg: &str,
    fields: &[(&str, Value)],
) -> String {
    let mut out = String::with_capacity(96 + msg.len());
    let _ = write!(
        out,
        "{{\"ts_us\":{ts_us},\"level\":\"{}\",\"component\":\"{}\",\"msg\":\"{}\"",
        level.as_str(),
        escape_json(component),
        escape_json(msg)
    );
    for (key, value) in fields {
        let _ = write!(out, ",\"{}\":", escape_json(key));
        match value {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            // JSON has no NaN/Inf literals; stringify them.
            Value::F64(v) => {
                let _ = write!(out, "\"{v}\"");
            }
            Value::Str(v) => {
                let _ = write!(out, "\"{}\"", escape_json(v));
            }
        }
    }
    out.push('}');
    out
}

/// Text form: `[1700000000.123456] WARN serve: message key=value`.
pub(crate) fn format_text(
    ts_us: u64,
    level: Level,
    component: &str,
    msg: &str,
    fields: &[(&str, Value)],
) -> String {
    let mut out = String::with_capacity(64 + msg.len());
    let _ = write!(
        out,
        "[{}.{:06}] {} {component}: {msg}",
        ts_us / 1_000_000,
        ts_us % 1_000_000,
        level.as_str().to_ascii_uppercase(),
    );
    for (key, value) in fields {
        match value {
            Value::U64(v) => {
                let _ = write!(out, " {key}={v}");
            }
            Value::I64(v) => {
                let _ = write!(out, " {key}={v}");
            }
            Value::F64(v) => {
                let _ = write!(out, " {key}={v}");
            }
            Value::Str(v) => {
                let _ = write!(out, " {key}={v:?}");
            }
        }
    }
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("WARN").unwrap(), Level::Warn);
        assert_eq!(Level::parse("debug").unwrap(), Level::Debug);
        assert!(Level::parse("loud").is_err());
        assert!(Level::Error < Level::Debug);
    }

    #[test]
    fn json_events_are_valid_shapes() {
        let line = format_json(
            42,
            Level::Warn,
            "serve",
            "salvaging \"bad\" batch",
            &[
                ("batch", Value::U64(7)),
                ("version", Value::U64(3)),
                ("err", Value::Str("panic\nmsg".to_string())),
                ("load", Value::F64(0.5)),
            ],
        );
        assert_eq!(
            line,
            "{\"ts_us\":42,\"level\":\"warn\",\"component\":\"serve\",\
             \"msg\":\"salvaging \\\"bad\\\" batch\",\"batch\":7,\"version\":3,\
             \"err\":\"panic\\nmsg\",\"load\":0.5}"
        );
        // Balanced braces and quotes (cheap well-formedness check).
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        assert_eq!(line.chars().filter(|&c| c == '"').count() % 2, 0);
    }

    #[test]
    fn nonfinite_floats_are_stringified() {
        let line = format_json(0, Level::Info, "c", "m", &[("x", Value::F64(f64::NAN))]);
        assert!(line.contains("\"x\":\"NaN\""));
    }

    #[test]
    fn text_events_carry_fields() {
        let line = format_text(
            1_700_000_000_123_456,
            Level::Info,
            "served",
            "listening",
            &[("addr", Value::Str("127.0.0.1:9".to_string()))],
        );
        assert_eq!(line, "[1700000000.123456] INFO served: listening addr=\"127.0.0.1:9\"");
    }

    #[test]
    fn control_characters_escape_to_unicode() {
        assert_eq!(escape_json("a\u{1}b"), "a\\u0001b");
    }
}
