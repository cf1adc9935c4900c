//! # speedllm-telemetry
//!
//! The measurement substrate of the reproduction: a std-only (zero
//! dependency) tracing + metrics layer shared by the host inference path
//! (`speedllm-llama`), the accelerator runtime (`speedllm-accel`), the
//! device simulator (`speedllm-fpga-sim`), and the bench harness.
//!
//! Three pieces:
//!
//! * **Spans** ([`span`]) — RAII wall-time spans tagged with integer
//!   arguments (layer / op / token indices), collected thread-safely into
//!   a bounded global buffer. Worker threads (the dataflow pipeline, the
//!   matvec pool) record into the same collector.
//! * **Metrics** ([`metrics`]) — a global registry of counters, gauges,
//!   and log-bucketed latency histograms ([`histogram::LogHistogram`],
//!   HDR-style: p50/p95/p99/max in bounded memory).
//! * **Exporters** ([`export`]) — metrics JSON, and the Chrome trace-event JSON
//!   format loadable in Perfetto / `chrome://tracing`. The simulator's
//!   cycle timeline (`fpga_sim::TraceBuffer`) renders into the same
//!   trace-event stream on its own process track, so simulated DMA/MPE/SFU
//!   overlap and real host spans sit side by side in one viewer.
//! * **Time series** ([`timeseries`]) — a bounded ring recorder for
//!   per-tick scheduler samples (the serve layer's
//!   `serve-bench --metrics-out`), exporting deterministic CSV/JSONL.
//!
//! ## Zero cost when disabled
//!
//! Collection is off by default and gated on one relaxed atomic load.
//! The disabled path allocates nothing: [`span`] hands back an inert
//! guard, and every metrics call returns before touching a lock. Enable
//! explicitly with [`set_enabled`] or via the `SPEEDLLM_TRACE` environment
//! variable ([`init_from_env`]).
//!
//! ```
//! use speedllm_telemetry as tel;
//!
//! tel::set_enabled(true);
//! {
//!     let _g = tel::span("host", "decode_token").arg("pos", 3);
//!     tel::metrics::observe("decode.token_latency_ns", 1200);
//! }
//! assert_eq!(tel::span_count(), 1);
//! let json = tel::export::chrome_trace_json(&tel::drain_spans(), None);
//! assert!(json.starts_with('['));
//! tel::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod histogram;
pub mod metrics;
mod span;
pub mod timeseries;

pub use span::{span, SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Master collection switch. Relaxed is enough: telemetry is advisory and
/// a late-visible toggle only costs a handful of spans.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Spans recorded after the buffer reached [`SPAN_CAPACITY`].
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Bounded span buffer: tracing can stay on through long runs without
/// unbounded memory, mirroring `fpga_sim::TraceBuffer`'s discipline.
pub const SPAN_CAPACITY: usize = 1 << 20;

static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// The instant all span timestamps are measured from (first enable).
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// True when telemetry collection is active.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off. Enabling pins the timestamp epoch on first
/// use; disabling leaves already-collected data in place (drain or
/// [`reset`] to clear it).
pub fn set_enabled(on: bool) {
    if on {
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enables collection when the `SPEEDLLM_TRACE` environment variable is
/// set to anything but `0`. Returns whether telemetry is now enabled.
pub fn init_from_env() -> bool {
    if std::env::var_os("SPEEDLLM_TRACE").is_some_and(|v| v != *"0") {
        set_enabled(true);
    }
    enabled()
}

/// Microseconds since the telemetry epoch (first enable).
#[must_use]
pub(crate) fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

pub(crate) fn push_span(record: SpanRecord) {
    let mut spans = SPANS.lock().expect("span buffer poisoned");
    if spans.len() < SPAN_CAPACITY {
        spans.push(record);
    } else {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Number of spans currently buffered.
#[must_use]
pub fn span_count() -> usize {
    SPANS.lock().expect("span buffer poisoned").len()
}

/// Spans dropped after the buffer filled.
#[must_use]
pub fn dropped_spans() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Takes every buffered span, leaving the buffer empty.
#[must_use]
pub fn drain_spans() -> Vec<SpanRecord> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Clears all collected state: spans, the dropped counter, and the global
/// metrics registry. The enabled flag is left as-is.
pub fn reset() {
    SPANS.lock().expect("span buffer poisoned").clear();
    DROPPED.store(0, Ordering::Relaxed);
    metrics::reset();
}

/// Serializes unit tests that toggle the global enabled flag.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // Global-state tests share one collector; the TEST_LOCK keeps other
    // modules' enable/disable windows from interleaving with this one.
    #[test]
    fn gating_collection_and_drain() {
        let _serial = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(false);

        // Disabled: nothing is recorded, nothing allocated.
        {
            let _g = span("host", "ignored").arg("pos", 1);
            metrics::counter_add("ignored", 1);
            metrics::observe("ignored_hist", 5);
        }
        assert_eq!(span_count(), 0);
        assert!(metrics::snapshot().is_empty());

        // Enabled: spans and metrics land.
        set_enabled(true);
        {
            let _g = span("host", "decode_token").arg("pos", 7).arg("layer", 2);
        }
        {
            let _outer = span("host", "outer");
            let _inner = span("cpu", "inner");
        }
        metrics::counter_add("tokens", 3);
        assert_eq!(span_count(), 3);
        let spans = drain_spans();
        assert_eq!(span_count(), 0);
        let d = spans.iter().find(|s| s.name == "decode_token").unwrap();
        assert_eq!(d.track, "host");
        assert_eq!(d.args, vec![("pos", 7), ("layer", 2)]);
        assert!(d.dur_us >= 0.0);

        // Disable again and verify the gate closes.
        set_enabled(false);
        {
            let _g = span("host", "after");
        }
        assert_eq!(span_count(), 0);
        reset();
    }
}
