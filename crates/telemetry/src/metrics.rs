//! Global metrics registry: counters, gauges, latency histograms.
//!
//! Keyed by `&'static str` so the hot path never allocates a name. Every
//! entry point is gated on [`crate::enabled`] and returns before touching
//! the registry lock when telemetry is off.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::histogram::{HistogramSummary, LogHistogram};

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, LogHistogram>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry(f: impl FnOnce(&mut Registry)) {
    let mut guard = REGISTRY.lock().expect("metrics registry poisoned");
    f(guard.get_or_insert_with(Registry::default));
}

/// Adds `delta` to the named monotonic counter.
pub fn counter_add(name: &'static str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    with_registry(|r| *r.counters.entry(name).or_insert(0) += delta);
}

/// Sets the named gauge to `value` (last write wins).
pub fn gauge_set(name: &'static str, value: f64) {
    if !crate::enabled() {
        return;
    }
    with_registry(|r| {
        r.gauges.insert(name, value);
    });
}

/// Records `value` into the named latency histogram.
pub fn observe(name: &'static str, value: u64) {
    if !crate::enabled() {
        return;
    }
    with_registry(|r| r.histograms.entry(name).or_default().record(value));
}

/// Point-in-time copy of the whole registry, sorted by name.
#[derive(Default, Clone)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: Vec<(&'static str, u64)>,
    /// Last-write-wins gauges.
    pub gauges: Vec<(&'static str, f64)>,
    /// Histogram summaries.
    pub histograms: Vec<(&'static str, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// Captures the current registry contents. Works even when collection has
/// since been disabled — the data is whatever was recorded while on.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let guard = REGISTRY.lock().expect("metrics registry poisoned");
    let Some(r) = guard.as_ref() else {
        return MetricsSnapshot::default();
    };
    MetricsSnapshot {
        counters: r.counters.iter().map(|(k, v)| (*k, *v)).collect(),
        gauges: r.gauges.iter().map(|(k, v)| (*k, *v)).collect(),
        histograms: r
            .histograms
            .iter()
            .map(|(k, h)| (*k, h.summary()))
            .collect(),
    }
}

/// Clears every counter, gauge, and histogram.
pub fn reset() {
    *REGISTRY.lock().expect("metrics registry poisoned") = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trip() {
        let _serial = crate::TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::set_enabled(true);

        counter_add("fusion.hits", 2);
        counter_add("fusion.hits", 3);
        gauge_set("memplan.ocm_values", 7.0);
        gauge_set("memplan.ocm_values", 9.0);
        for v in [10, 20, 30, 40, 50] {
            observe("lat", v);
        }

        let snap = snapshot();
        assert_eq!(snap.counters, vec![("fusion.hits", 5)]);
        assert_eq!(snap.gauges, vec![("memplan.ocm_values", 9.0)]);
        assert_eq!(snap.histograms.len(), 1);
        let (name, s) = snap.histograms[0];
        assert_eq!(name, "lat");
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 50);

        crate::set_enabled(false);
        counter_add("fusion.hits", 100);
        assert_eq!(snapshot().counters, vec![("fusion.hits", 5)]);
        crate::reset();
        assert!(snapshot().is_empty());
    }
}
