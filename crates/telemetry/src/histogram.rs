//! Log-linear latency histograms (HDR-style).
//!
//! Values are bucketed by magnitude: each power of two splits into
//! [`SUB_BUCKETS`] linear sub-buckets, so the relative quantile error is
//! bounded by `1/SUB_BUCKETS` (6.25%) across the full `u64` range while
//! the whole histogram stays under 8 KiB.

/// log2 of the linear sub-buckets per power of two.
pub const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power of two (16).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Bucket count: values `< SUB_BUCKETS` get exact unit buckets, then each
/// of the remaining `64 - SUB_BITS` exponents contributes `SUB_BUCKETS`.
const BUCKETS: usize = (SUB_BUCKETS + (64 - SUB_BITS) as u64 * SUB_BUCKETS) as usize;

/// Maps a value to its bucket index. Exact for `v < 16`; above that, the
/// top [`SUB_BITS`]+1 significant bits select the bucket.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) - SUB_BUCKETS;
    (SUB_BUCKETS as u32 + (e - SUB_BITS) * SUB_BUCKETS as u32 + sub as u32) as usize
}

/// Largest value a bucket can hold; quantiles report this bound so a
/// sequence of quantile queries is monotone by construction.
fn bucket_upper(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        return i;
    }
    let e = (i - SUB_BUCKETS) / SUB_BUCKETS + SUB_BITS as u64;
    let sub = (i - SUB_BUCKETS) % SUB_BUCKETS + SUB_BUCKETS;
    // All values in the bucket share the top bits `sub` at exponent `e`;
    // the upper bound fills the low bits with ones. u128 because the top
    // bucket's bound exceeds u64::MAX.
    let up = ((u128::from(sub) + 1) << (e - u64::from(SUB_BITS))) - 1;
    up.min(u128::from(u64::MAX)) as u64
}

/// A log-bucketed histogram of `u64` samples.
#[derive(Clone)]
pub struct LogHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q * count)`, clamped to
    /// the observed max. Monotone in `q`; within `1/SUB_BUCKETS` of exact.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// One-struct summary of the distribution.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Snapshot of a [`LogHistogram`]'s headline statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Minimum sample.
    pub min: u64,
    /// Maximum sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (upper bucket bound).
    pub p50: u64,
    /// 95th percentile (upper bucket bound).
    pub p95: u64,
    /// 99th percentile (upper bucket bound).
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_below_sixteen() {
        for v in 0..SUB_BUCKETS {
            let i = bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(bucket_upper(i), v, "unit bucket {v} must be exact");
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut probes: Vec<u64> = Vec::new();
        let mut v = 1u64;
        while v < u64::MAX / 2 {
            probes.extend([v, v + 1, v + v / 2]);
            v *= 2;
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        let mut prev = 0usize;
        for probe in probes {
            let i = bucket_index(probe);
            assert!(i >= prev, "index must not decrease at {probe}");
            assert!(i < BUCKETS);
            assert!(
                bucket_upper(i) >= probe,
                "upper({i})={} < value {probe}",
                bucket_upper(i)
            );
            prev = i;
        }
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // Upper bound overestimates by at most one sub-bucket width.
        for &v in &[17u64, 100, 1_000, 123_456, 1 << 40, u64::MAX / 3] {
            let up = bucket_upper(bucket_index(v));
            assert!(up >= v);
            assert!(
                (up - v) as f64 <= v as f64 / SUB_BUCKETS as f64 + 1.0,
                "v={v} up={up}"
            );
        }
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LogHistogram::new();
        // Deterministic LCG so the test needs no RNG dependency.
        let mut x = 0x2545F4914F6CDD1Du64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(x >> 40); // ~24-bit latencies
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0];
        let vals: Vec<u64> = qs.iter().map(|&q| h.quantile(q)).collect();
        for w in vals.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be monotone: {vals:?}");
        }
        let s = h.summary();
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert!(s.min <= s.p50);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LogHistogram::new();
        let s = h.summary();
        assert_eq!(
            s,
            HistogramSummary {
                count: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                p50: 0,
                p95: 0,
                p99: 0
            }
        );
    }
}
