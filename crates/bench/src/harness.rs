//! A minimal, dependency-free bench runner (the in-repo replacement for
//! `criterion`, so `cargo bench` works offline).
//!
//! Each benchmark is warmed up, then timed over a fixed number of samples;
//! every sample runs enough iterations to cross a target duration, and the
//! per-iteration time of each sample feeds the summary statistics. Results
//! print as one human-readable line plus one JSON line (JSONL) per
//! benchmark, so downstream tooling can parse `median_ns` / `p95_ns`
//! without a format dependency.
//!
//! Command-line flags (everything unrecognized is ignored, so `cargo
//! bench -- <filter>` keeps working):
//!
//! * `--smoke` — no warmup and three short samples, each row marked
//!   `"tiny":true`. This is the CI/verify mode.
//! * any bare argument — substring filter on benchmark names.

use std::time::{Duration, Instant};

// One percentile definition repo-wide: the serve report's exact
// nearest-rank rule (this file used to carry a private round-to-index
// variant that disagreed with it on small samples).
use speedllm_serve::report::percentile_f64;

/// One benchmark's summary statistics.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full benchmark name.
    pub name: String,
    /// Median per-iteration time across samples, in nanoseconds.
    pub median_ns: f64,
    /// 95th-percentile per-iteration time across samples, in nanoseconds.
    pub p95_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Figures stamped onto the JSONL row (`gb_s`, `ns_per_element`).
    pub meta: Vec<(String, String)>,
    /// Whether the row was produced in smoke mode.
    pub tiny: bool,
    /// Telemetry metrics snapshot (rendered JSON object), when an
    /// instrumented run has recorded any.
    pub metrics_json: Option<String>,
}

impl BenchResult {
    fn json(&self) -> String {
        use speedllm_telemetry::export::json_escape;
        let mut row = format!(
            "{{\"name\":\"{name}\",\"median_ns\":{median:.1},\"p95_ns\":{p95:.1},\
             \"samples\":{samples},\"iters_per_sample\":{iters}",
            name = json_escape(&self.name),
            median = self.median_ns,
            p95 = self.p95_ns,
            samples = self.samples,
            iters = self.iters_per_sample,
        );
        for (k, v) in &self.meta {
            row.push_str(&format!(",\"{}\":\"{}\"", json_escape(k), json_escape(v)));
        }
        row.push_str(&format!(",\"tiny\":{}", self.tiny));
        if let Some(m) = &self.metrics_json {
            row.push_str(&format!(",\"metrics\":{m}"));
        }
        row.push('}');
        row
    }
}

/// The bench runner: collects, times, and reports benchmarks.
pub struct Runner {
    filter: Option<String>,
    smoke: bool,
    sample_size: usize,
    results: Vec<BenchResult>,
    bytes_per_iter: Option<u64>,
    elements_per_iter: Option<u64>,
}

impl Default for Runner {
    fn default() -> Self {
        Self {
            filter: None,
            smoke: false,
            sample_size: 20,
            results: Vec::new(),
            bytes_per_iter: None,
            elements_per_iter: None,
        }
    }
}

impl Runner {
    /// Builds a runner from the process arguments (see module docs).
    #[must_use]
    pub fn from_env() -> Self {
        let mut r = Self::default();
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--smoke" => r.smoke = true,
                "--bench" | "--test" => {}
                a if a.starts_with('-') => {} // ignore unknown flags
                a => r.filter = Some(a.to_string()),
            }
        }
        // Instrumented bench runs (SPEEDLLM_TRACE=1) embed a metrics
        // snapshot into each JSONL row.
        speedllm_telemetry::init_from_env();
        r
    }

    /// Sets the number of timed samples per benchmark (ignored in smoke
    /// mode, which always uses 3).
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Declares how many bytes one iteration of every subsequent benchmark
    /// streams (for a GEMV/GEMM kernel, its weight bytes); their rows are
    /// then stamped with the achieved `gb_s` at the median. `None` stops
    /// stamping.
    pub fn set_bytes_per_iter(&mut self, bytes: Option<u64>) -> &mut Self {
        self.bytes_per_iter = bytes;
        self
    }

    /// Declares how many elements one iteration of every subsequent
    /// benchmark produces; their rows are then stamped with
    /// `ns_per_element` at the median. `None` stops stamping.
    pub fn set_elements_per_iter(&mut self, elements: Option<u64>) -> &mut Self {
        self.elements_per_iter = elements;
        self
    }

    /// Runs one benchmark unless it is filtered out.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return self;
            }
        }
        let (samples, warmup, target) = if self.smoke {
            (3usize, Duration::ZERO, Duration::from_micros(200))
        } else {
            (
                self.sample_size,
                Duration::from_millis(150),
                Duration::from_millis(8),
            )
        };
        let mut b = Bencher {
            warmup,
            target,
            samples,
            sample_ns: Vec::new(),
            iters: 1,
        };
        f(&mut b);
        assert!(
            !b.sample_ns.is_empty(),
            "benchmark {name} never called Bencher::iter"
        );
        let mut ns = b.sample_ns;
        ns.sort_by(f64::total_cmp);
        let metrics_json = if speedllm_telemetry::enabled() {
            let snap = speedllm_telemetry::metrics::snapshot();
            (!snap.is_empty()).then(|| speedllm_telemetry::export::snapshot_to_json(&snap))
        } else {
            None
        };
        let median_ns = percentile_f64(&ns, 50.0);
        let mut meta = Vec::new();
        if let Some(bytes) = self.bytes_per_iter {
            // Bytes per nanosecond is GB/s.
            meta.push((
                "gb_s".to_string(),
                format!("{:.2}", bytes as f64 / median_ns),
            ));
        }
        if let Some(elements) = self.elements_per_iter {
            meta.push((
                "ns_per_element".to_string(),
                format!("{:.3}", median_ns / elements as f64),
            ));
        }
        let result = BenchResult {
            name: name.to_string(),
            median_ns,
            p95_ns: percentile_f64(&ns, 95.0),
            samples: ns.len(),
            iters_per_sample: b.iters,
            meta,
            tiny: self.smoke,
            metrics_json,
        };
        println!(
            "bench {name:<44} median {:>12}  p95 {:>12}  ({} samples x {} iters)",
            fmt_ns(result.median_ns),
            fmt_ns(result.p95_ns),
            result.samples,
            result.iters_per_sample,
        );
        println!("{}", result.json());
        self.results.push(result);
        self
    }

    /// Prints the run summary. Call last in `main`.
    pub fn finish(&mut self) {
        println!(
            "{{\"bench_run_complete\":true,\"benches\":{},\"smoke\":{}}}",
            self.results.len(),
            self.smoke
        );
    }
}

/// Passed to the closure given to [`Runner::bench_function`]; call
/// [`Bencher::iter`] with the code under measurement.
pub struct Bencher {
    warmup: Duration,
    target: Duration,
    samples: usize,
    sample_ns: Vec<f64>,
    iters: u64,
}

impl Bencher {
    /// Measures `inner`: warmup, iteration-count calibration, then the
    /// configured number of timed samples.
    pub fn iter<R>(&mut self, mut inner: impl FnMut() -> R) {
        // Warmup doubles the iteration count until the budget is spent,
        // which also calibrates iterations-per-sample.
        let mut iters = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(inner());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.warmup || elapsed >= self.target {
                let per_iter = elapsed.as_secs_f64() / iters as f64;
                let want = self.target.as_secs_f64() / per_iter.max(1e-9);
                iters = (want.ceil() as u64).clamp(1, 1 << 24);
                break;
            }
            iters = iters.saturating_mul(2);
        }
        self.iters = iters;
        self.sample_ns.clear();
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(inner());
            }
            self.sample_ns
                .push(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_not_round_to_index() {
        // Regression for the consolidation onto the serve report's
        // helper: the old private `(n-1)*q` round-to-index rule picked
        // 10.0 as the p95 of a 3-sample distribution ((3-1)*0.95 rounds
        // to index 2... of a sorted [1, 2, 10] that is 10 — but its p50
        // of 4 samples picked index 2 (= upper median) where nearest
        // rank picks rank 2 (= lower median). Pin the nearest-rank
        // answers so a silent re-divergence fails loudly.
        let three = [1.0, 2.0, 10.0];
        assert_eq!(percentile_f64(&three, 50.0), 2.0);
        assert_eq!(percentile_f64(&three, 95.0), 10.0);
        let four = [1.0, 2.0, 3.0, 4.0];
        // Old rule: ((4-1)*0.5).round() = 2 → 3.0. Nearest rank: ceil(2) = rank 2 → 2.0.
        assert_eq!(percentile_f64(&four, 50.0), 2.0);
        assert_eq!(percentile_f64(&four, 95.0), 4.0);
    }

    #[test]
    fn bencher_produces_positive_samples() {
        let mut r = Runner {
            smoke: true,
            ..Runner::default()
        };
        r.bench_function("noop", |b| b.iter(|| 1 + 1));
        assert_eq!(r.results.len(), 1);
        assert!(r.results[0].median_ns >= 0.0);
        assert!(r.results[0].p95_ns >= r.results[0].median_ns);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut r = Runner {
            smoke: true,
            filter: Some("yes".into()),
            ..Runner::default()
        };
        r.bench_function("no/skip", |b| b.iter(|| ()));
        r.bench_function("yes/run", |b| b.iter(|| ()));
        assert_eq!(r.results.len(), 1);
        assert_eq!(r.results[0].name, "yes/run");
    }

    #[test]
    fn json_lines_are_well_formed() {
        let res = BenchResult {
            name: "a/b".into(),
            median_ns: 12.5,
            p95_ns: 20.0,
            samples: 3,
            iters_per_sample: 7,
            meta: vec![
                ("config".into(), "stories260k".into()),
                ("variant".into(), "full".into()),
            ],
            tiny: true,
            metrics_json: None,
        };
        let j = res.json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"name\":\"a/b\""));
        assert!(j.contains("\"median_ns\":12.5"));
        assert!(j.contains("\"p95_ns\":20.0"));
        assert!(j.contains("\"config\":\"stories260k\""));
        assert!(j.contains("\"variant\":\"full\""));
        assert!(j.contains("\"tiny\":true"));
        assert!(!j.contains("\"metrics\""));
    }

    #[test]
    fn metrics_snapshot_embeds_as_json_object() {
        let res = BenchResult {
            name: "m".into(),
            median_ns: 1.0,
            p95_ns: 1.0,
            samples: 1,
            iters_per_sample: 1,
            meta: Vec::new(),
            tiny: false,
            metrics_json: Some("{\"counters\":{\"c\":1},\"gauges\":{},\"histograms\":{}}".into()),
        };
        let j = res.json();
        assert!(j.contains("\"metrics\":{\"counters\":{\"c\":1}"));
        assert!(j.ends_with("}}"));
    }

    #[test]
    fn bytes_per_iter_stamps_gb_s_until_cleared() {
        let mut r = Runner {
            smoke: true,
            ..Runner::default()
        };
        r.set_bytes_per_iter(Some(4096));
        r.bench_function("streams", |b| b.iter(|| ()));
        r.set_bytes_per_iter(None);
        r.bench_function("plain", |b| b.iter(|| ()));
        let (key, gb_s) = &r.results[0].meta[0];
        assert_eq!(key, "gb_s");
        assert!(gb_s.parse::<f64>().unwrap() > 0.0);
        assert!(r.results[0].json().contains("\"gb_s\":\""));
        assert!(r.results[1].meta.is_empty());
    }
}
