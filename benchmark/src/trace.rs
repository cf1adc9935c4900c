//! The harness's own spans — built after a traced pass, from what it kept
//! in memory, with the repo's Chrome trace-event writer (Perfetto,
//! `chrome://tracing`) — and the sums of the spans the program emits.

use speedllm_telemetry::export::{ChromeTrace, HOST_PID};
use speedllm_telemetry::SpanRecord;

/// Milliseconds inside the spans the program itself emits, by stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgramSpans {
    /// `cpu/qkv` and `cpu/qkv_batch`.
    pub cpu_qkv_ms: f64,
    /// `cpu/mha` and `cpu/mha_batch`.
    pub cpu_mha_ms: f64,
    /// `cpu/ffn` and `cpu/ffn_batch`.
    pub cpu_ffn_ms: f64,
    /// `cpu/classifier` and `cpu/classifier_batch`.
    pub cpu_classifier_ms: f64,
    /// `engine/timing_pass` (the accelerator's cycle model).
    pub engine_timing_pass_ms: f64,
}

impl ProgramSpans {
    /// Sums `spans` by stage.
    #[must_use]
    pub fn of(spans: &[SpanRecord]) -> Self {
        let mut out = Self::default();
        for s in spans {
            let slot = match (s.track, s.name) {
                ("cpu", "qkv" | "qkv_batch") => &mut out.cpu_qkv_ms,
                ("cpu", "mha" | "mha_batch") => &mut out.cpu_mha_ms,
                ("cpu", "ffn" | "ffn_batch") => &mut out.cpu_ffn_ms,
                ("cpu", "classifier" | "classifier_batch") => &mut out.cpu_classifier_ms,
                ("engine", "timing_pass") => &mut out.engine_timing_pass_ms,
                _ => continue,
            };
            *slot += s.dur_us / 1e3;
        }
        out
    }

    /// All stages together. They do not nest, so this is time accounted
    /// for once.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.cpu_qkv_ms
            + self.cpu_mha_ms
            + self.cpu_ffn_ms
            + self.cpu_classifier_ms
            + self.engine_timing_pass_ms
    }

    /// The `telemetry.*_ms` metrics.
    #[must_use]
    pub fn values(&self) -> [(&'static str, f64); 5] {
        [
            ("telemetry.cpu_qkv_ms", self.cpu_qkv_ms),
            ("telemetry.cpu_mha_ms", self.cpu_mha_ms),
            ("telemetry.cpu_ffn_ms", self.cpu_ffn_ms),
            ("telemetry.cpu_classifier_ms", self.cpu_classifier_ms),
            (
                "telemetry.engine_timing_pass_ms",
                self.engine_timing_pass_ms,
            ),
        ]
    }
}

/// Chrome `tid` of the track every `step()` is drawn on.
pub const STEP_TID: u32 = 1;
/// Chrome `tid` of the track the backend verbs (or `generate` calls) are
/// drawn on.
pub const BACKEND_TID: u32 = 2;

/// Chrome `tid` of request `id`'s track. Requests overlap, so they are
/// spread over 64 lanes.
#[must_use]
pub fn request_tid(id: u64) -> u32 {
    1000 + (id % 64) as u32
}

/// An empty trace with the harness's tracks named. Its spans nest as
/// request → step → backend verb: spans of one request share its `req`
/// argument and a backend verb carries the `step` that issued it.
#[must_use]
pub fn harness_trace() -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    trace.meta_process_name(HOST_PID, "benchmark harness (wall time)");
    trace.meta_thread_name(HOST_PID, STEP_TID, "step");
    trace.meta_thread_name(HOST_PID, BACKEND_TID, "backend");
    trace
}

/// Appends one harness span; times are seconds since the run's epoch.
pub fn span(
    trace: &mut ChromeTrace,
    tid: u32,
    name: &str,
    start_s: f64,
    dur_s: f64,
    args: &[(&str, i64)],
) {
    trace.complete(HOST_PID, tid, name, start_s * 1e6, dur_s * 1e6, args);
}

/// Writes `trace` to `path`, creating its directory; returns the path as
/// a string, or an empty one (after a warning) when the file could not be
/// written — a trace is never worth failing a run.
pub fn write_trace(path: &std::path::Path, trace: ChromeTrace) -> String {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, trace.finish()));
    match written {
        Ok(()) => path.display().to_string(),
        Err(e) => {
            eprintln!("warning: could not write {}: {e}", path.display());
            String::new()
        }
    }
}
