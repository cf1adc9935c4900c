//! Timeline trace capture and ASCII Gantt rendering.
//!
//! The pipeline scheduler can record every scheduled segment into a
//! bounded [`TraceBuffer`]; [`TraceBuffer::render_gantt`] draws the
//! read/compute/write overlap as text — the visual proof that the streamed
//! iteration actually overlaps stages while the sequential one staircases.

use crate::cycles::Cycles;
use crate::event::Span;

/// One recorded segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Display name of the resource (e.g. "DMA-RD", "MPE").
    pub resource: &'static str,
    /// Occupied interval.
    pub span: Span,
    /// Short label (e.g. the op name).
    pub label: String,
}

/// A bounded buffer of trace events. When full, further events are counted
/// but dropped, so tracing can stay on in long runs without unbounded
/// memory.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// Creates a buffer retaining at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            events: Vec::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Records an event (dropped silently past capacity).
    pub fn record(&mut self, resource: &'static str, span: Span, label: impl Into<String>) {
        if span.duration() == Cycles::ZERO {
            return;
        }
        if self.events.len() < self.capacity {
            self.events.push(TraceEvent {
                resource,
                span,
                label: label.into(),
            });
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events dropped after the buffer filled.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }

    /// Renders the captured window as an ASCII Gantt chart of `width`
    /// character columns, one row per distinct resource (in first-seen
    /// order).
    #[must_use]
    pub fn render_gantt(&self, width: usize) -> String {
        let width = width.max(10);
        if self.events.is_empty() {
            return String::from("(no trace events)\n");
        }
        let t0 = self.events.iter().map(|e| e.span.start).min().unwrap();
        let t1 = self.events.iter().map(|e| e.span.end).max().unwrap();
        let total = (t1 - t0).0.max(1);
        // Stable resource order: first appearance.
        let mut resources: Vec<&'static str> = Vec::new();
        for e in &self.events {
            if !resources.contains(&e.resource) {
                resources.push(e.resource);
            }
        }
        let name_w = resources.iter().map(|r| r.len()).max().unwrap_or(0);
        let mut out = String::new();
        out.push_str(&format!(
            "{:>name_w$} | window {}..{} ({} cycles)\n",
            "", t0.0, t1.0, total
        ));
        for res in resources {
            let mut row = vec![b'.'; width];
            for e in self.events.iter().filter(|e| e.resource == res) {
                let a = ((e.span.start - t0).0 as f64 / total as f64 * width as f64) as usize;
                let b = (((e.span.end - t0).0 as f64 / total as f64 * width as f64).ceil()
                    as usize)
                    .min(width);
                for cell in &mut row[a.min(width.saturating_sub(1))..b] {
                    *cell = b'#';
                }
            }
            out.push_str(&format!(
                "{res:>name_w$} | {}\n",
                String::from_utf8(row).expect("ascii row")
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!("(+{} dropped)\n", self.dropped));
        }
        out
    }
}

impl TraceBuffer {
    /// Exports the captured window alone in the Chrome trace-event format
    /// (`chrome://tracing` / Perfetto): [`Self::to_chrome_track`] into a
    /// fresh [`ChromeTrace`] under pid 1, one complete ("X") event per
    /// segment, resources as thread names. Timestamps are microseconds at
    /// the given clock.
    ///
    /// [`ChromeTrace`]: speedllm_telemetry::export::ChromeTrace
    #[must_use]
    pub fn to_chrome_json(&self, clock: &crate::cycles::ClockDomain) -> String {
        let mut trace = speedllm_telemetry::export::ChromeTrace::new();
        self.to_chrome_track(clock, 1, &mut trace);
        trace.finish()
    }

    /// Appends the captured window to a shared [`ChromeTrace`] under
    /// `pid`, converting cycle spans to microseconds at the given clock.
    /// This is how the simulator timeline lands in the same Perfetto file
    /// as real host wall-time spans: one process per time domain.
    ///
    /// [`ChromeTrace`]: speedllm_telemetry::export::ChromeTrace
    pub fn to_chrome_track(
        &self,
        clock: &crate::cycles::ClockDomain,
        pid: u32,
        trace: &mut speedllm_telemetry::export::ChromeTrace,
    ) {
        if self.events.is_empty() {
            return;
        }
        trace.meta_process_name(pid, "fpga-sim (cycle time)");
        let mut resources: Vec<&'static str> = Vec::new();
        for e in &self.events {
            let tid = match resources.iter().position(|r| *r == e.resource) {
                Some(i) => i as u32,
                None => {
                    resources.push(e.resource);
                    let tid = (resources.len() - 1) as u32;
                    trace.meta_thread_name(pid, tid, e.resource);
                    tid
                }
            };
            trace.complete(
                pid,
                tid,
                &e.label,
                clock.to_micros(e.span.start),
                clock.to_micros(e.span.duration()),
                &[],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(a: u64, b: u64) -> Span {
        Span {
            start: Cycles(a),
            end: Cycles(b),
        }
    }

    #[test]
    fn records_and_drops_past_capacity() {
        let mut t = TraceBuffer::new(2);
        t.record("A", span(0, 1), "x");
        t.record("A", span(1, 2), "y");
        t.record("A", span(2, 3), "z");
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 1);
        assert!(t.render_gantt(20).contains("(+1 dropped)"));
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn zero_length_spans_ignored() {
        let mut t = TraceBuffer::new(10);
        t.record("A", span(5, 5), "empty");
        assert!(t.events().is_empty());
    }

    #[test]
    fn gantt_contains_all_resources() {
        let mut t = TraceBuffer::new(10);
        t.record("DMA-RD", span(0, 10), "r0");
        t.record("MPE", span(10, 20), "c0");
        t.record("DMA-WR", span(20, 30), "w0");
        let g = t.render_gantt(30);
        assert!(g.contains("DMA-RD"));
        assert!(g.contains("MPE"));
        assert!(g.contains("DMA-WR"));
        assert!(g.contains('#'));
    }

    #[test]
    fn gantt_overlap_visible() {
        let mut t = TraceBuffer::new(10);
        t.record("R", span(0, 20), "a");
        t.record("C", span(10, 30), "b");
        let g = t.render_gantt(30);
        let lines: Vec<&str> = g.lines().collect();
        // Row for R starts with # and row for C has # near the middle.
        let r_line = lines.iter().find(|l| l.starts_with("R")).unwrap();
        let c_line = lines.iter().find(|l| l.starts_with("C")).unwrap();
        assert!(r_line.contains('#'));
        assert!(c_line.contains('#'));
    }

    #[test]
    fn chrome_json_is_valid_shape() {
        let mut t = TraceBuffer::new(10);
        t.record("MPE", span(0, 300), "k0:compute");
        t.record("DMA-RD", span(0, 150), "k0:read \"quoted\"");
        let clock = crate::cycles::ClockDomain::U280_KERNEL;
        let json = t.to_chrome_json(&clock);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        // 1 process name + 2 thread names + 2 events.
        assert_eq!(json.matches("\"ph\"").count(), 5);
        assert!(json.contains("\"name\":\"MPE\""));
        // Quotes in labels must be escaped: no bare `"quoted"` sequence
        // breaking the JSON (balanced quote count).
        assert_eq!(json.matches('"').count() % 2, 0);
        // 300 cycles at 300 MHz = 1 us.
        assert!(json.contains("\"dur\":1.000"));
    }

    #[test]
    fn chrome_track_joins_shared_trace() {
        let mut t = TraceBuffer::new(10);
        t.record("MPE", span(0, 300), "k0:compute");
        t.record("DMA-RD", span(0, 150), "k0:read");
        let mut trace = speedllm_telemetry::export::ChromeTrace::new();
        t.to_chrome_track(&crate::cycles::ClockDomain::U280_KERNEL, 2, &mut trace);
        let json = trace.finish();
        assert!(json.contains("fpga-sim (cycle time)"));
        assert!(json.contains("\"pid\":2"));
        // 1 process_name + 2 thread_name + 2 complete events.
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        // Empty buffers append nothing, not even process metadata.
        let mut empty = speedllm_telemetry::export::ChromeTrace::new();
        TraceBuffer::new(4).to_chrome_track(
            &crate::cycles::ClockDomain::U280_KERNEL,
            2,
            &mut empty,
        );
        assert!(empty.is_empty());
    }

    #[test]
    fn chrome_json_empty_trace() {
        let t = TraceBuffer::new(4);
        let json = t.to_chrome_json(&crate::cycles::ClockDomain::U280_KERNEL);
        assert_eq!(json, "[\n]");
    }

    /// A label holding a newline and a control character exports as valid
    /// JSON: both escaped, neither left raw.
    #[test]
    fn chrome_json_escapes_control_characters() {
        let mut t = TraceBuffer::new(4);
        t.record("MPE", span(0, 300), "k0:compute\nnext\u{1}");
        let json = t.to_chrome_json(&crate::cycles::ClockDomain::U280_KERNEL);
        assert!(
            json.contains(r#""name":"k0:compute\nnext\u0001""#),
            "{json}"
        );
        assert!(!json.contains("compute\nnext") && !json.contains('\u{1}'));
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let t = TraceBuffer::new(4);
        assert_eq!(t.render_gantt(40), "(no trace events)\n");
    }
}
