//! Minimal JSON parsing and Chrome-trace validation.
//!
//! The workspace has no JSON dependency, so the
//! `rescc-obs-validate` CLI and the CI observability job need an
//! in-tree way to check that emitted trace files actually parse and
//! obey the trace-event invariants. This module implements a small
//! recursive-descent JSON parser — enough for well-formed machine
//! output, not a general validator — plus [`validate_chrome_trace`].

use std::collections::BTreeSet;

/// A parsed JSON value. Object keys keep document order.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 64;

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not reconstructed; a
                            // lone surrogate becomes U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parse `item (',' item)*` up to and including `close`, the opening
    /// bracket already consumed.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.list(b']', |p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(JsonValue::Arr(items))
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.list(b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            members.push((key, p.value(depth + 1)?));
            Ok(())
        })?;
        Ok(JsonValue::Obj(members))
    }
}

/// Parse a JSON document.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

/// What [`validate_chrome_trace`] found in a well-formed trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Complete (`"ph":"X"`) events.
    pub complete: usize,
    /// Instant (`"ph":"i"`) events.
    pub instants: usize,
    /// Counter (`"ph":"C"`) samples.
    pub counters: usize,
    /// Metadata (`"ph":"M"`) events.
    pub metadata: usize,
    /// Distinct `(pid, tid)` tracks carrying non-metadata events.
    pub tracks: usize,
    /// Largest event timestamp seen, µs.
    pub max_ts_us: f64,
}

impl TraceSummary {
    /// Total non-metadata events.
    pub fn total_events(&self) -> usize {
        self.complete + self.instants + self.counters
    }
}

fn require_u32(ev: &JsonValue, key: &str, i: usize) -> Result<u32, String> {
    let v = ev
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("event {i}: missing numeric '{key}'"))?;
    if v < 0.0 || v != v.trunc() || v > u32::MAX as f64 {
        return Err(format!("event {i}: '{key}' = {v} is not a u32"));
    }
    Ok(v as u32)
}

/// Check a parsed document against the trace-event invariants the
/// observability stack relies on: a `traceEvents` array whose events
/// carry a known phase, non-negative integer `pid`/`tid`, finite
/// non-negative `ts` (and `dur` for complete events), with non-metadata
/// timestamps sorted non-decreasing.
pub fn validate_chrome_trace(root: &JsonValue) -> Result<TraceSummary, String> {
    let events = root
        .get("traceEvents")
        .ok_or("top-level object must carry 'traceEvents'")?
        .as_arr()
        .ok_or("'traceEvents' must be an array")?;
    let mut summary = TraceSummary::default();
    let mut tracks: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut last_ts = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing string 'ph'"))?;
        ev.get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing string 'name'"))?;
        let pid = require_u32(ev, "pid", i)?;
        let tid = require_u32(ev, "tid", i)?;
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric 'ts'"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: ts = {ts} is not a non-negative time"));
        }
        match ph {
            "M" => {
                summary.metadata += 1;
                continue; // metadata is untimed; skip ordering checks
            }
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("event {i}: complete event missing 'dur'"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {i}: dur = {dur} is negative"));
                }
                summary.complete += 1;
                summary.max_ts_us = summary.max_ts_us.max(ts + dur);
            }
            "i" => summary.instants += 1,
            "C" => summary.counters += 1,
            other => return Err(format!("event {i}: unknown phase '{other}'")),
        }
        if ts < last_ts {
            return Err(format!(
                "event {i}: ts = {ts} precedes previous event at {last_ts} (trace not sorted)"
            ));
        }
        last_ts = ts;
        summary.max_ts_us = summary.max_ts_us.max(ts);
        tracks.insert((pid, tid));
    }
    summary.tracks = tracks.len();
    Ok(summary)
}

/// Parse and validate in one step (the `rescc-obs-validate` entry
/// point).
pub fn validate_chrome_trace_str(text: &str) -> Result<TraceSummary, String> {
    validate_chrome_trace(&parse_json(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_analyze::escape_json;

    #[test]
    fn parses_scalars_arrays_objects() {
        let v = parse_json(r#"{"a": [1, -2.5e1, "x\n", true, null], "b": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[2].as_str(), Some("x\n"));
        assert_eq!(a[3], JsonValue::Bool(true));
        assert_eq!(a[4], JsonValue::Null);
        assert_eq!(v.get("b"), Some(&JsonValue::Obj(vec![])));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\q\""] {
            assert!(parse_json(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn escape_roundtrips_through_parser() {
        let s = "quote\" slash\\ nl\n tab\t ctrl\u{1}";
        let doc = format!("\"{}\"", escape_json(s));
        assert_eq!(parse_json(&doc).unwrap().as_str(), Some(s));
    }

    #[test]
    fn validator_accepts_minimal_trace() {
        let doc = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0},
            {"name":"a","cat":"c","ph":"X","ts":0,"dur":5,"pid":0,"tid":1},
            {"name":"b","cat":"c","ph":"i","ts":3,"pid":0,"tid":2}
        ]}"#;
        let summary = validate_chrome_trace_str(doc).unwrap();
        assert_eq!(summary.complete, 1);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.metadata, 1);
        assert_eq!(summary.tracks, 2);
        assert_eq!(summary.total_events(), 2);
        assert!((summary.max_ts_us - 5.0).abs() < 1e-12);
    }

    #[test]
    fn validator_rejects_violations() {
        // Unsorted timestamps.
        let unsorted = r#"{"traceEvents":[
            {"name":"a","ph":"i","ts":5,"pid":0,"tid":0},
            {"name":"b","ph":"i","ts":1,"pid":0,"tid":0}
        ]}"#;
        assert!(validate_chrome_trace_str(unsorted)
            .unwrap_err()
            .contains("not sorted"));
        // Negative duration.
        let negdur = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0,"dur":-1,"pid":0,"tid":0}
        ]}"#;
        assert!(validate_chrome_trace_str(negdur)
            .unwrap_err()
            .contains("negative"));
        // Missing pid.
        let nopid = r#"{"traceEvents":[{"name":"a","ph":"i","ts":0,"tid":0}]}"#;
        assert!(validate_chrome_trace_str(nopid).is_err());
        // Not even an object.
        assert!(validate_chrome_trace_str("[1,2,3]").is_err());
    }
}
