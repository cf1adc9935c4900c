//! What one run of one workload reports, and how it is printed: a table
//! for people, then the one-line JSON object the driver reads.

use std::path::PathBuf;

use crate::json::Json;
use crate::spec::{Metric, END_TO_END, PER_LAYER, TAILS};
use crate::stats::{median, sort, tail_percentile};

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed of the generated traffic.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Tiny model and a handful of requests, bounded by count instead of
    /// time: the self-test size.
    pub smoke: bool,
    /// Where a traced run writes its Chrome trace; `None` writes nothing.
    pub out_dir: Option<PathBuf>,
}

/// Metric values by name, and the sample counts behind the timed ones.
pub type Values = (Vec<(&'static str, f64)>, Vec<(&'static str, usize)>);

/// What an untraced pass measured, before it is reduced to the six
/// end-to-end metrics and the two tails.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Seconds each repetition of set-up took.
    pub setups_s: Vec<f64>,
    /// Tokens generated.
    pub generated: usize,
    /// Prompt tokens of the requests that generated them.
    pub prompt: usize,
    /// Seconds the tokens took, first due time to last completion.
    pub wall_s: f64,
    /// Time to first token, per request.
    pub ttft_ms: Vec<f64>,
    /// Time per token after the first, per request.
    pub tpot_ms: Vec<f64>,
    /// Every gap between consecutive tokens of a request.
    pub itl_ms: Vec<f64>,
    /// `VmHWM` when the pass ended.
    pub peak_rss_mb: f64,
}

impl Measured {
    /// The end-to-end metrics and those of the [`TAILS`] that have the
    /// samples to be measured, with their sample counts.
    #[must_use]
    pub fn end_to_end(self) -> Values {
        let per_s = |tokens: usize| {
            if self.wall_s > 0.0 {
                tokens as f64 / self.wall_s
            } else {
                0.0
            }
        };
        let total = self.generated + self.prompt;
        let samples = vec![
            ("setup_s", self.setups_s.len()),
            ("out_tok_s", self.generated),
            ("total_tok_s", total),
            ("ttft_ms_p50", self.ttft_ms.len()),
            ("tpot_ms_p50", self.tpot_ms.len()),
            ("ttft_ms_p90", self.ttft_ms.len()),
            ("itl_ms_p90", self.itl_ms.len()),
        ];
        let mut values = vec![
            ("setup_s", median(self.setups_s)),
            ("out_tok_s", per_s(self.generated)),
            ("total_tok_s", per_s(total)),
            ("ttft_ms_p50", median(self.ttft_ms.clone())),
            ("tpot_ms_p50", median(self.tpot_ms)),
            ("peak_rss_mb", self.peak_rss_mb),
        ];
        for (name, mut sample) in [("ttft_ms_p90", self.ttft_ms), ("itl_ms_p90", self.itl_ms)] {
            sort(&mut sample);
            values.extend(tail_percentile(&sample, 90.0).map(|v| (name, v)));
        }
        (values, samples)
    }
}

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was a traced run (per-layer metrics) or an untraced
    /// one (end-to-end metrics).
    pub traced: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, incomplete or wrong.
    pub failed: u64,
    /// Every correctness check that did not hold.
    pub problems: Vec<String>,
    /// Metric values by name: the end-to-end metrics and tails, or the
    /// per-layer metrics when traced. A metric this run could not measure
    /// is absent.
    pub values: Vec<(&'static str, f64)>,
    /// Sample counts behind the timing metrics, by metric name.
    pub samples: Vec<(&'static str, usize)>,
    /// Side information for `results.json` (digests, probe readings).
    pub aux: Vec<(&'static str, Json)>,
}

impl Report {
    /// True when every check held and nothing failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The metrics this run must report.
    #[must_use]
    pub fn registry(&self) -> &'static [Metric] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Value of metric `name`, unless this run could not measure it.
    #[must_use]
    pub fn measured(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Value of metric `name` as the result line carries it: 0 when this
    /// run could not measure it, because the driver wants a number.
    #[must_use]
    pub fn value(&self, name: &str) -> f64 {
        self.measured(name).unwrap_or(0.0)
    }

    /// The metrics printed after the registry's: the tails, which the
    /// untraced pass measures and the manifest cannot carry.
    fn tails(&self) -> &'static [Metric] {
        if self.traced {
            &[]
        } else {
            TAILS
        }
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, with one entry per registry metric.
    #[must_use]
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.registry().iter().map(|m| {
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(self.value(m.name))),
                            ("unit", Json::str(m.unit)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Side information as one JSON object; an untraced run's carries the
    /// tails (`null` for one with too few samples).
    #[must_use]
    pub fn aux_line(&self) -> Json {
        let tails = self
            .tails()
            .iter()
            .map(|m| (m.name, self.measured(m.name).map_or(Json::Null, Json::Num)));
        Json::obj(self.aux.iter().map(|(k, v)| (*k, v.clone())).chain(tails))
    }

    /// Prints the table, the `aux` line and, last, the result line.
    pub fn print(&self) {
        println!(
            "== {} ({}) ==",
            self.workload,
            if self.traced {
                "traced pass"
            } else {
                "untraced pass"
            }
        );
        for m in self.registry().iter().chain(self.tails()) {
            let n = self
                .samples
                .iter()
                .find(|(name, _)| *name == m.name)
                .map_or(String::new(), |(_, n)| format!("  n={n}"));
            // Not measured here is not 0: the layer does not run on this
            // workload, or a tail has too few samples.
            let value = self
                .measured(m.name)
                .map_or("-".to_string(), |v| format!("{v:.4}"));
            println!("{:<34} {:>16} {}{}", m.name, value, m.unit, n);
        }
        println!(
            "requests: {} sent, {} failed; failed_share {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for p in &self.problems {
            println!("INCORRECT: {p}");
        }
        println!("aux {}", self.aux_line().compact());
        println!("{}", self.result_line().compact());
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(requests: usize) -> Report {
        let ms: Vec<f64> = (1..=requests).map(|i| i as f64).collect();
        let (values, samples) = Measured {
            setups_s: vec![0.5],
            generated: 16 * requests,
            prompt: 48 * requests,
            wall_s: 10.0,
            ttft_ms: ms.clone(),
            tpot_ms: ms.clone(),
            itl_ms: ms,
            peak_rss_mb: 64.0,
        }
        .end_to_end();
        Report {
            workload: "test",
            traced: false,
            attempted: requests as u64,
            failed: 0,
            problems: Vec::new(),
            values,
            samples,
            aux: Vec::new(),
        }
    }

    #[test]
    fn a_tail_with_too_few_samples_is_absent_not_zero() {
        let measured = report(100);
        assert_eq!(measured.measured("ttft_ms_p90"), Some(90.0));
        assert_eq!(
            measured.aux_line().get("ttft_ms_p90"),
            Some(&Json::Num(90.0))
        );
        let short = report(99);
        assert_eq!(short.measured("ttft_ms_p90"), None);
        assert_eq!(short.aux_line().get("itl_ms_p90"), Some(&Json::Null));
        // The result line carries the manifest's metrics and only those.
        let line = short.result_line();
        let metrics = line.get("metrics").expect("metrics");
        assert!(metrics.get("ttft_ms_p50").is_some());
        assert!(metrics.get("ttft_ms_p90").is_none());
    }
}
