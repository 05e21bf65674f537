//! Chrome trace-event JSON builder.
//!
//! Emits the [Trace Event Format] consumed by `chrome://tracing` and
//! Perfetto: a top-level object with a `traceEvents` array of complete
//! (`"ph":"X"`), instant (`"ph":"i"`), counter (`"ph":"C"`) and
//! metadata (`"ph":"M"`) events. Timestamps are microseconds; all adder
//! methods here take nanoseconds and convert.
//!
//! The workspace has no serialization dependency, so the JSON is written
//! by hand with proper string escaping.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use rescc_analyze::escape_json;

/// A trace-event argument value.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Numeric argument.
    Num(f64),
    /// String argument.
    Str(String),
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Num(v)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::Num(v as f64)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

#[derive(Clone, Debug)]
struct Event {
    name: String,
    cat: String,
    ph: char,
    ts_us: f64,
    dur_us: Option<f64>,
    pid: u32,
    tid: u32,
    args: Vec<(String, ArgValue)>,
}

impl Event {
    /// An event at `ts_ns` with no duration.
    fn new(
        name: &str,
        cat: &str,
        ph: char,
        pid: u32,
        tid: u32,
        ts_ns: f64,
        args: Vec<(String, ArgValue)>,
    ) -> Self {
        Self {
            name: name.into(),
            cat: cat.into(),
            ph,
            ts_us: us(ts_ns),
            dur_us: None,
            pid,
            tid,
            args,
        }
    }
}

/// Builder for one Chrome trace file. Tracks are addressed by
/// `(pid, tid)`; use [`name_process`](Self::name_process) /
/// [`name_thread`](Self::name_thread) to label them.
#[derive(Clone, Debug, Default)]
pub struct ChromeTrace {
    meta: Vec<Event>,
    events: Vec<Event>,
}

fn us(ns: f64) -> f64 {
    let v = ns / 1e3;
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl ChromeTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of non-metadata events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no non-metadata events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Label a process track (one per rank, or per layer such as the
    /// compiler).
    pub fn name_process(&mut self, pid: u32, name: &str) {
        self.name_track("process_name", pid, 0, name);
    }

    /// Label a thread track (one per TB, or per span track).
    pub fn name_thread(&mut self, pid: u32, tid: u32, name: &str) {
        self.name_track("thread_name", pid, tid, name);
    }

    fn name_track(&mut self, kind: &str, pid: u32, tid: u32, name: &str) {
        let args = vec![("name".into(), name.into())];
        self.meta
            .push(Event::new(kind, "__metadata", 'M', pid, tid, 0.0, args));
    }

    /// Add a complete (`"ph":"X"`) event spanning `[start_ns,
    /// start_ns + dur_ns)`.
    #[allow(clippy::too_many_arguments)]
    pub fn add_complete(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        start_ns: f64,
        dur_ns: f64,
        args: Vec<(String, ArgValue)>,
    ) {
        let mut ev = Event::new(name, cat, 'X', pid, tid, start_ns, args);
        ev.dur_us = Some(us(dur_ns.max(0.0)));
        self.events.push(ev);
    }

    /// Add a thread-scoped instant (`"ph":"i"`) event.
    pub fn add_instant(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        ts_ns: f64,
        args: Vec<(String, ArgValue)>,
    ) {
        self.events
            .push(Event::new(name, cat, 'i', pid, tid, ts_ns, args));
    }

    /// Add a counter (`"ph":"C"`) sample; each `(series, value)` pair
    /// renders as one stacked area in the counter track.
    pub fn add_counter(&mut self, pid: u32, name: &str, ts_ns: f64, series: &[(&str, f64)]) {
        let args = series
            .iter()
            .map(|(k, v)| ((*k).to_string(), ArgValue::Num(*v)))
            .collect();
        self.events
            .push(Event::new(name, "counter", 'C', pid, 0, ts_ns, args));
    }

    /// Serialize to trace-event JSON: metadata first, then all events
    /// sorted by timestamp (stable, so same-timestamp events keep
    /// insertion order).
    pub fn to_json(&self) -> String {
        let mut sorted: Vec<&Event> = self.events.iter().collect();
        sorted.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
        let mut out = String::with_capacity(128 + 160 * (self.meta.len() + sorted.len()));
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, ev) in self.meta.iter().chain(sorted).enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_event(&mut out, ev);
        }
        out.push_str("]}");
        out
    }
}

fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push('0');
    } else if v == v.trunc() && v.abs() < 1e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

fn write_event(out: &mut String, ev: &Event) {
    out.push_str("\n{\"name\":\"");
    out.push_str(&escape_json(&ev.name));
    out.push_str("\",\"cat\":\"");
    out.push_str(&escape_json(&ev.cat));
    out.push_str("\",\"ph\":\"");
    out.push(ev.ph);
    out.push_str("\",\"ts\":");
    write_num(out, ev.ts_us);
    if let Some(dur) = ev.dur_us {
        out.push_str(",\"dur\":");
        write_num(out, dur);
    }
    if ev.ph == 'i' {
        // Instant scope: thread.
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(&format!(",\"pid\":{},\"tid\":{}", ev.pid, ev.tid));
    if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape_json(k));
            out.push_str("\":");
            match v {
                ArgValue::Num(n) => write_num(out, *n),
                ArgValue::Str(s) => {
                    out.push('"');
                    out.push_str(&escape_json(s));
                    out.push('"');
                }
            }
        }
        out.push('}');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, validate_chrome_trace};

    #[test]
    fn builds_valid_sorted_trace() {
        let mut t = ChromeTrace::new();
        t.name_process(0, "rank 0");
        t.name_thread(0, 1, "tb 1");
        // Inserted out of order on purpose.
        t.add_complete(0, 1, "send", "transfer", 2000.0, 500.0, vec![]);
        t.add_complete(
            0,
            1,
            "startup",
            "bubble",
            0.0,
            1000.0,
            vec![("bytes".into(), 42u64.into())],
        );
        t.add_instant(0, 1, "nic down", "fault", 1500.0, vec![]);
        t.add_counter(0, "link 3", 1000.0, &[("active", 1.0)]);
        assert_eq!(t.len(), 4);
        let json = t.to_json();
        let root = parse_json(&json).expect("emitted JSON must parse");
        let summary = validate_chrome_trace(&root).expect("emitted JSON must validate");
        assert_eq!(summary.complete, 2);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.counters, 1);
        assert_eq!(summary.metadata, 2);
        // Sorted: startup (ts 0) precedes send (ts 2).
        let startup = json.find("startup").unwrap();
        let send = json.find("\"send\"").unwrap();
        assert!(startup < send);
    }

    #[test]
    fn escapes_names() {
        let mut t = ChromeTrace::new();
        t.add_complete(0, 0, "a\"b\\c\n", "cat", 0.0, 1.0, vec![]);
        let json = t.to_json();
        assert!(json.contains(r#"a\"b\\c\n"#));
        assert!(parse_json(&json).is_ok());
    }

    #[test]
    fn negative_duration_clamped_nonfinite_zeroed() {
        let mut t = ChromeTrace::new();
        t.add_complete(0, 0, "x", "c", 10.0, -5.0, vec![]);
        t.add_instant(0, 0, "y", "c", f64::NAN, vec![]);
        let root = parse_json(&t.to_json()).unwrap();
        validate_chrome_trace(&root).expect("clamped events still validate");
    }

    #[test]
    fn integer_timestamps_have_no_fraction() {
        let mut t = ChromeTrace::new();
        t.add_complete(0, 0, "x", "c", 3_000.0, 1_000.0, vec![]);
        let json = t.to_json();
        assert!(json.contains("\"ts\":3,"));
        assert!(json.contains("\"dur\":1"));
    }
}
