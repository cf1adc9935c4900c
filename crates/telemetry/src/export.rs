//! Trace and metrics exporters.
//!
//! Two formats, both hand-rolled (std-only, no serde):
//!
//! * **Chrome trace-event JSON** — the array-of-events form understood by
//!   Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`. Spans
//!   become `ph:"X"` complete events; tracks become named threads via
//!   `ph:"M"` metadata events. Multiple processes (host wall-time vs.
//!   simulator cycle-time) coexist in one file on distinct `pid`s.
//! * **Metrics JSON** — one object per snapshot ([`snapshot_to_json`]),
//!   embedded in bench output.

use crate::metrics::MetricsSnapshot;
use crate::span::SpanRecord;

/// Chrome `pid` used for real host wall-time spans.
pub const HOST_PID: u32 = 1;
/// Chrome `pid` used for simulator cycle-timeline events.
pub const SIM_PID: u32 = 2;
/// Chrome `pid` used for the serve layer's virtual-tick request tracks.
pub const SERVE_PID: u32 = 3;

/// Longest string argument value embedded in a trace event, in chars;
/// longer values are clipped with a trailing `…` so one runaway string
/// (a prompt, a path) cannot bloat the trace file.
pub const MAX_STR_ARG: usize = 120;

/// Clips `s` to [`MAX_STR_ARG`] chars, marking truncation with `…`.
#[must_use]
pub fn clip_arg(s: &str) -> String {
    if s.chars().count() <= MAX_STR_ARG {
        return s.to_string();
    }
    let mut out: String = s.chars().take(MAX_STR_ARG.saturating_sub(1)).collect();
    out.push('…');
    out
}

/// Escapes `s` for embedding in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Incremental builder for a Chrome trace-event JSON array.
///
/// Events are appended in any order (the viewer sorts by timestamp);
/// [`finish`](Self::finish) closes the array.
#[derive(Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Names a process (a top-level group in the viewer).
    pub fn meta_process_name(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    /// Names a thread (one horizontal track in the viewer).
    pub fn meta_thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    /// Appends a `ph:"X"` complete event. `ts_us`/`dur_us` are in
    /// microseconds (the trace-event unit).
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, i64)],
    ) {
        self.complete_ext(pid, tid, name, ts_us, dur_us, args, &[]);
    }

    /// Appends a `ph:"X"` complete event carrying integer **and** string
    /// arguments. String values are non-static (request text, phase
    /// labels): they are JSON-escaped and clipped to [`MAX_STR_ARG`]
    /// chars before embedding.
    #[allow(clippy::too_many_arguments)]
    pub fn complete_ext(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, i64)],
        str_args: &[(&str, &str)],
    ) {
        let mut ev = format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{pid},\"tid\":{tid},\
             \"ts\":{ts_us:.3},\"dur\":{dur_us:.3}",
            json_escape(name)
        );
        Self::push_args(&mut ev, args, str_args);
        ev.push('}');
        self.events.push(ev);
    }

    /// Appends a thread-scoped `ph:"i"` instant event (a vertical marker
    /// on its track). String arguments are escaped and clipped like
    /// [`complete_ext`](Self::complete_ext).
    pub fn instant(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        ts_us: f64,
        args: &[(&str, i64)],
        str_args: &[(&str, &str)],
    ) {
        let mut ev = format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{}\",\"pid\":{pid},\"tid\":{tid},\
             \"ts\":{ts_us:.3}",
            json_escape(name)
        );
        Self::push_args(&mut ev, args, str_args);
        ev.push('}');
        self.events.push(ev);
    }

    /// Renders the shared `"args":{...}` suffix (integer keys first, then
    /// escaped/clipped strings); emits nothing when both sets are empty.
    fn push_args(ev: &mut String, args: &[(&str, i64)], str_args: &[(&str, &str)]) {
        if args.is_empty() && str_args.is_empty() {
            return;
        }
        ev.push_str(",\"args\":{");
        let mut first = true;
        for (k, v) in args {
            if !first {
                ev.push(',');
            }
            first = false;
            ev.push_str(&format!("\"{}\":{v}", json_escape(k)));
        }
        for (k, v) in str_args {
            if !first {
                ev.push(',');
            }
            first = false;
            ev.push_str(&format!(
                "\"{}\":\"{}\"",
                json_escape(k),
                json_escape(&clip_arg(v))
            ));
        }
        ev.push('}');
    }

    /// Number of events appended so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the JSON array.
    #[must_use]
    pub fn finish(self) -> String {
        let mut out = String::from("[\n");
        for (i, ev) in self.events.iter().enumerate() {
            out.push_str(ev);
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out
    }
}

/// Adds host spans to `trace` under [`HOST_PID`], assigning one `tid` per
/// distinct track (in order of first appearance) with thread-name
/// metadata.
pub fn add_host_spans(trace: &mut ChromeTrace, spans: &[SpanRecord]) {
    if spans.is_empty() {
        return;
    }
    trace.meta_process_name(HOST_PID, "host (wall time)");
    let mut tracks: Vec<&'static str> = Vec::new();
    for s in spans {
        let tid = match tracks.iter().position(|t| *t == s.track) {
            Some(i) => i as u32,
            None => {
                tracks.push(s.track);
                let tid = (tracks.len() - 1) as u32;
                trace.meta_thread_name(HOST_PID, tid, s.track);
                tid
            }
        };
        trace.complete(HOST_PID, tid, s.name, s.start_us, s.dur_us, &s.args);
    }
}

/// Renders `spans` (plus an optional pre-populated trace, e.g. the
/// simulator timeline) as one Chrome trace-event JSON document.
#[must_use]
pub fn chrome_trace_json(spans: &[SpanRecord], base: Option<ChromeTrace>) -> String {
    let mut trace = base.unwrap_or_default();
    add_host_spans(&mut trace, spans);
    trace.finish()
}

/// Renders a metrics snapshot as one JSON object (no trailing newline):
/// `{"counters":{...},"gauges":{...},"histograms":{name:{count,...}}}`.
#[must_use]
pub fn snapshot_to_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (k, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{v}", json_escape(k)));
    }
    out.push_str("},\"gauges\":{");
    for (i, (k, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{v}", json_escape(k)));
    }
    out.push_str("},\"histograms\":{");
    for (i, (k, s)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\
             \"p50\":{},\"p95\":{},\"p99\":{}}}",
            json_escape(k),
            s.count,
            s.min,
            s.max,
            s.mean,
            s.p50,
            s.p95,
            s.p99
        ));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(track: &'static str, name: &'static str, start: f64, dur: f64) -> SpanRecord {
        SpanRecord {
            track,
            name,
            start_us: start,
            dur_us: dur,
            args: vec![("pos", 4)],
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let spans = [
            rec("host", "prefill", 0.0, 10.0),
            rec("cpu", "matvec", 2.0, 3.0),
        ];
        let json = chrome_trace_json(&spans, None);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with(']'));
        // 1 process_name + 2 thread_name + 2 complete events.
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"ts\":0.000"));
        assert!(json.contains("\"dur\":10.000"));
        assert!(json.contains("\"args\":{\"pos\":4}"));
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn base_trace_is_preserved() {
        let mut base = ChromeTrace::new();
        base.meta_process_name(SIM_PID, "fpga-sim (cycles)");
        base.complete(SIM_PID, 0, "DMA", 0.0, 5.0, &[]);
        let json = chrome_trace_json(&[rec("host", "h", 0.0, 1.0)], Some(base));
        assert!(json.contains("fpga-sim (cycles)"));
        assert!(json.contains("\"name\":\"DMA\""));
        assert!(json.contains("\"name\":\"h\""));
    }

    #[test]
    fn snapshot_renders() {
        let snap = MetricsSnapshot {
            counters: vec![("c", 3)],
            gauges: vec![("g", 1.5)],
            histograms: vec![],
        };
        let js = snapshot_to_json(&snap);
        assert_eq!(
            js,
            "{\"counters\":{\"c\":3},\"gauges\":{\"g\":1.5},\"histograms\":{}}"
        );
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn string_args_are_escaped_and_clipped() {
        let mut t = ChromeTrace::new();
        t.complete_ext(
            SERVE_PID,
            4,
            "queue",
            0.0,
            5.0,
            &[("req", 7)],
            &[("phase", "wait\"ing\n")],
        );
        let json = t.finish();
        // Integer args precede string args in one `args` object; the
        // string value is JSON-escaped.
        assert!(json.contains("\"args\":{\"req\":7,\"phase\":\"wait\\\"ing\\n\"}"));

        // An oversized value is clipped to MAX_STR_ARG chars ending in …
        let long = "x".repeat(MAX_STR_ARG * 2);
        let clipped = clip_arg(&long);
        assert_eq!(clipped.chars().count(), MAX_STR_ARG);
        assert!(clipped.ends_with('…'));
        // A value at the limit passes through untouched.
        let exact = "y".repeat(MAX_STR_ARG);
        assert_eq!(clip_arg(&exact), exact);

        let mut t = ChromeTrace::new();
        t.complete_ext(SERVE_PID, 0, "n", 0.0, 1.0, &[], &[("v", &long)]);
        let json = t.finish();
        assert!(json.contains('…'), "embedded oversized arg must be clipped");
        assert!(!json.contains(&long), "raw oversized arg must not leak");
    }

    #[test]
    fn instant_events_render_with_thread_scope() {
        let mut t = ChromeTrace::new();
        t.meta_thread_name(SERVE_PID, 2, "req 11");
        t.instant(SERVE_PID, 2, "first_token", 42.0, &[("tok", 1)], &[]);
        let json = t.finish();
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"ts\":42.000"));
        assert!(json.contains("\"name\":\"req 11\""));
        assert!(json.contains("\"args\":{\"tok\":1}"));
    }
}
