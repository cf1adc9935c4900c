//! Sample statistics: the repo's nearest-rank percentile plus the rule
//! that a tail percentile needs enough samples beyond it to mean anything.

use speedllm_serve::report::percentile_f64;

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Sorts `samples` ascending. Wall-clock samples are never NaN.
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Nearest-rank median; 0 for an empty sample.
#[must_use]
pub fn median(mut samples: Vec<f64>) -> f64 {
    sort(&mut samples);
    percentile_f64(&samples, 50.0)
}

/// Nearest-rank percentile `p` (above 50) of an ascending sample, or
/// `None` when fewer than [`TAIL_SAMPLES`] samples lie beyond it — a p90
/// of 30 requests is the fourth-largest value, which is noise.
#[must_use]
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    (sorted.len() - rank.min(sorted.len()) >= TAIL_SAMPLES).then(|| percentile_f64(sorted, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(Vec::new()), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // p90 of 100 samples is the 90th; exactly ten lie beyond it.
        assert_eq!(tail_percentile(&sample(100), 90.0), Some(90.0));
        assert_eq!(tail_percentile(&sample(99), 90.0), None);
        assert_eq!(tail_percentile(&sample(30), 90.0), None);
        // p99 needs a thousand.
        assert_eq!(tail_percentile(&sample(1000), 99.0), Some(990.0));
        assert_eq!(tail_percentile(&sample(999), 99.0), None);
        assert_eq!(tail_percentile(&[], 90.0), None);
    }
}
