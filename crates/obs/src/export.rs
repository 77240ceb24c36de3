//! JSON export.
//!
//! The build environment has no crates.io access, so JSON is emitted by a
//! tiny hand-rolled value type rather than serde. [`Json`] covers exactly
//! what metric export needs (objects with ordered keys, arrays, strings,
//! integers, floats) and escapes per RFC 8259.

use std::fmt;

use crate::hist::HistSnapshot;
use crate::load::TrunkLoad;
use crate::registry::{MachineSnapshot, RegistrySnapshot};
use crate::trace::SpanEvent;

/// A JSON value with insertion-ordered object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

fn escape_into(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(n) => write!(f, "{n}"),
            Json::I64(n) => write!(f, "{n}"),
            Json::F64(x) => {
                if x.is_finite() {
                    // Always include a decimal point or exponent so the
                    // value round-trips as a float.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => escape_into(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{it}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape_into(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn hist_json(h: &HistSnapshot) -> Json {
    // Buckets ship sparse: [bucket_upper_edge, count] pairs.
    let buckets: Vec<Json> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(b, &n)| {
            Json::Arr(vec![
                Json::U64(HistSnapshot::bucket_range(b).1),
                Json::U64(n),
            ])
        })
        .collect();
    Json::obj([
        ("count", Json::U64(h.count)),
        ("sum", Json::U64(h.sum)),
        ("max", Json::U64(h.max)),
        ("mean", Json::F64(h.mean())),
        ("p50", Json::U64(h.p50())),
        ("p95", Json::U64(h.p95())),
        ("p99", Json::U64(h.p99())),
        ("buckets", Json::Arr(buckets)),
    ])
}

/// One trunk's load as JSON (lifetime totals plus EWMA rates).
fn trunk_load_json(t: &TrunkLoad) -> Json {
    Json::obj([
        ("reads", Json::U64(t.reads)),
        ("writes", Json::U64(t.writes)),
        ("bytes_read", Json::U64(t.bytes_read)),
        ("bytes_written", Json::U64(t.bytes_written)),
        ("msgs", Json::U64(t.msgs)),
        ("hops", Json::U64(t.hops)),
        ("cache_hits", Json::U64(t.cache_hits)),
        ("cache_misses", Json::U64(t.cache_misses)),
        ("reads_per_s", Json::F64(t.reads_per_s)),
        ("writes_per_s", Json::F64(t.writes_per_s)),
        ("bytes_per_s", Json::F64(t.bytes_per_s)),
        ("msgs_per_s", Json::F64(t.msgs_per_s)),
        ("hops_per_s", Json::F64(t.hops_per_s)),
        ("remote_miss_share", Json::F64(t.remote_miss_share)),
        ("score", Json::F64(t.score())),
    ])
}

fn machine_json(m: &MachineSnapshot) -> Json {
    Json::obj([
        (
            "counters",
            Json::Obj(
                m.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::U64(*v)))
                    .collect(),
            ),
        ),
        (
            "gauges",
            Json::Obj(
                m.gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::I64(*v)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Obj(
                m.hists
                    .iter()
                    .map(|(k, v)| (k.clone(), hist_json(v)))
                    .collect(),
            ),
        ),
        ("spans_dropped", Json::U64(m.spans_dropped)),
        (
            "load",
            Json::Obj(
                m.load
                    .iter()
                    .map(|(trunk, t)| (trunk.to_string(), trunk_load_json(t)))
                    .collect(),
            ),
        ),
    ])
}

/// One span as JSON.
pub fn span_json(s: &SpanEvent) -> Json {
    Json::obj([
        ("trace", Json::U64(s.trace)),
        ("machine", Json::U64(s.machine as u64)),
        ("label", Json::from(s.label)),
        ("proto", Json::U64(s.proto as u64)),
        ("bytes", Json::U64(s.bytes)),
        ("frames", Json::U64(s.frames as u64)),
        ("start_us", Json::U64(s.start_us)),
        ("end_us", Json::U64(s.end_us)),
    ])
}

/// The whole registry snapshot as one JSON document:
/// `{"machines": {"0": {...}}, "totals": {...}}`.
pub fn snapshot_json(snap: &RegistrySnapshot) -> Json {
    Json::obj([
        (
            "machines",
            Json::Obj(
                snap.machines
                    .iter()
                    .map(|(m, s)| (m.to_string(), machine_json(s)))
                    .collect(),
            ),
        ),
        ("totals", machine_json(&snap.totals())),
    ])
}

/// Minimal JSON well-formedness check used by tests (and available to
/// callers who want a sanity gate before shipping a metrics file). Returns
/// the number of top-level values parsed.
pub fn validate_json(text: &str) -> Result<usize, String> {
    let b = text.as_bytes();
    let mut i = 0usize;
    let mut values = 0usize;
    while i < b.len() {
        skip_ws(b, &mut i);
        if i >= b.len() {
            break;
        }
        parse_value(b, &mut i)?;
        values += 1;
    }
    if values == 0 {
        return Err("empty document".into());
    }
    Ok(values)
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<(), String> {
    skip_ws(b, i);
    let at = *i;
    match b.get(at) {
        None => Err("unexpected end".into()),
        Some(b'{') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(());
            }
            loop {
                parse_string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at {i:?}"));
                }
                *i += 1;
                parse_value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => {
                        *i += 1;
                        skip_ws(b, i);
                    }
                    Some(b'}') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *i)),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(());
            }
            loop {
                parse_value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => {
                        *i += 1;
                    }
                    Some(b']') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *i)),
                }
            }
        }
        Some(b'"') => parse_string(b, i),
        Some(b't') => parse_lit(b, i, b"true"),
        Some(b'f') => parse_lit(b, i, b"false"),
        Some(b'n') => parse_lit(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            *i += 1;
            while *i < b.len()
                && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                *i += 1;
            }
            Ok(())
        }
        Some(c) => Err(format!("unexpected byte {c:#x} at {at}")),
    }
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *i + lit.len() && &b[*i..*i + lit.len()] == lit {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *i))
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<(), String> {
    skip_ws(b, i);
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *i));
    }
    *i += 1;
    while *i < b.len() {
        match b[*i] {
            b'\\' => *i += 2,
            b'"' => {
                *i += 1;
                return Ok(());
            }
            _ => *i += 1,
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> RegistrySnapshot {
        let reg = Registry::new();
        let s0 = reg.scope(0);
        s0.counter("net.env.sent").add(12);
        s0.gauge("store.used_bytes").set(4096);
        let h = s0.histogram("net.env.bytes");
        for v in [10, 100, 1000, 10_000] {
            h.record(v);
        }
        reg.scope(1).counter("net.env.sent").add(3);
        reg.snapshot()
    }

    #[test]
    fn json_escapes_and_parses() {
        let j = Json::obj([("weird \"key\"\n", Json::from("tab\there"))]);
        let text = j.to_string();
        assert_eq!(text, "{\"weird \\\"key\\\"\\n\":\"tab\\there\"}");
        validate_json(&text).unwrap();
    }

    #[test]
    fn snapshot_document_is_valid_json() {
        let text = snapshot_json(&sample()).to_string();
        assert_eq!(validate_json(&text).unwrap(), 1);
        assert!(text.contains("\"net.env.sent\":12"));
        assert!(text.contains("\"totals\""));
        assert!(text.contains("\"p99\""));
    }
}
