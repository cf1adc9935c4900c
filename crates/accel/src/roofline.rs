//! Roofline analysis of the accelerator.
//!
//! For a design point, computes the two ceilings — peak MAC throughput and
//! HBM-bandwidth-limited throughput — and places a workload's measured
//! operational intensity on the plot. The decode workload sits far left of
//! the ridge (weights are touched once per token), which is the analytic
//! justification for the paper's focus on memory-side optimizations, and
//! chunked prefill is visible as a rightward shift in intensity.

use speedllm_fpga_sim::cycles::ClockDomain;
use speedllm_fpga_sim::stats::SimStats;

use crate::engine::AccelConfig;

/// The two ceilings of a design point, in MACs/s at a given clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Peak compute throughput, MACs/s.
    pub peak_macs_per_s: f64,
    /// Peak HBM read bandwidth available to the design, bytes/s.
    pub peak_bytes_per_s: f64,
}

impl Roofline {
    /// Builds the roofline for a design point at the given clock.
    #[must_use]
    pub fn of(cfg: &AccelConfig, clock: &ClockDomain) -> Self {
        let peak_macs_per_s = cfg.mpe.macs_per_cycle() as f64 * clock.freq_hz();
        let ch = cfg.read_dma.channels.min(cfg.hbm.channels) as f64;
        let peak_bytes_per_s = ch * cfg.hbm.channel_bytes_per_cycle * clock.freq_hz();
        Self {
            peak_macs_per_s,
            peak_bytes_per_s,
        }
    }

    /// The ridge point: operational intensity (MACs/byte) above which the
    /// design is compute-bound.
    #[must_use]
    pub fn ridge_intensity(&self) -> f64 {
        self.peak_macs_per_s / self.peak_bytes_per_s
    }

    /// Attainable MACs/s at a given operational intensity.
    #[must_use]
    pub fn attainable(&self, intensity: f64) -> f64 {
        (intensity * self.peak_bytes_per_s).min(self.peak_macs_per_s)
    }

    /// Classifies a measured run: its intensity, attainable throughput,
    /// achieved throughput, and whether it is memory-bound.
    #[must_use]
    pub fn place(&self, stats: &SimStats, clock: &ClockDomain) -> RooflinePoint {
        let secs = clock.to_seconds(stats.total_cycles);
        let intensity = stats.arithmetic_intensity();
        let achieved = if secs > 0.0 {
            stats.mpe.macs as f64 / secs
        } else {
            0.0
        };
        RooflinePoint {
            intensity,
            attainable_macs_per_s: self.attainable(intensity),
            achieved_macs_per_s: achieved,
            memory_bound: intensity < self.ridge_intensity(),
        }
    }
}

/// A workload placed on the roofline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflinePoint {
    /// Operational intensity, MACs per HBM byte.
    pub intensity: f64,
    /// Attainable throughput at that intensity, MACs/s.
    pub attainable_macs_per_s: f64,
    /// Throughput the run actually achieved, MACs/s.
    pub achieved_macs_per_s: f64,
    /// True when the workload sits left of the ridge.
    pub memory_bound: bool,
}

impl RooflinePoint {
    /// Fraction of the attainable ceiling reached (≤ ~1; scheduling
    /// overheads keep it below 1).
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        if self.attainable_macs_per_s == 0.0 {
            return 0.0;
        }
        self.achieved_macs_per_s / self.attainable_macs_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::OptConfig;
    use crate::runtime::AcceleratedLlm;
    use speedllm_llama::config::ModelConfig;
    use speedllm_llama::forward::LogitRows;
    use speedllm_llama::kv_cache::KvCache;
    use speedllm_llama::sampler::SamplerKind;

    fn clock() -> ClockDomain {
        ClockDomain::U280_KERNEL
    }

    #[test]
    fn ridge_matches_hardware_ratio() {
        let cfg = AccelConfig::for_opt(&OptConfig::full());
        let r = Roofline::of(&cfg, &clock());
        // 512 MACs/cycle over 24ch × 48 B/cycle = 1152 B/cycle.
        let expect = 512.0 / 1152.0;
        assert!((r.ridge_intensity() - expect).abs() < 1e-9);
    }

    #[test]
    fn attainable_is_min_of_ceilings() {
        let cfg = AccelConfig::for_opt(&OptConfig::full());
        let r = Roofline::of(&cfg, &clock());
        assert!(r.attainable(0.01) < r.peak_macs_per_s);
        assert!((r.attainable(1000.0) - r.peak_macs_per_s).abs() < 1.0);
        // Monotone.
        assert!(r.attainable(0.1) <= r.attainable(0.2));
    }

    #[test]
    fn decode_is_memory_bound_and_prefill_chunk_raises_intensity() {
        let cfg = ModelConfig::stories260k();
        let sys = AcceleratedLlm::synthetic(cfg, 42, OptConfig::full()).unwrap();
        let accel = *sys.accel_config();
        let roof = Roofline::of(&accel, &clock());

        // Single-token decode: far left of the ridge.
        let mut s = sys.session(SamplerKind::Argmax, 0);
        let one = s.step(1);
        let p1 = roof.place(&one.stats, &clock());
        assert!(p1.memory_bound, "decode must be memory-bound: {p1:?}");

        // A 16-token chunk raises intensity by ~16x (same weights, 16x
        // MACs).
        let mut s2 = sys.session(SamplerKind::Argmax, 0);
        let tokens: Vec<u32> = (0..16).collect();
        let e = s2.engine_mut();
        let mut seq = KvCache::new(&cfg);
        let (_, chunk) = e.forward_runs([&mut seq].as_mut_slice(), &[&tokens], LogitRows::Last);
        let p16 = roof.place(&chunk.stats, &clock());
        assert!(
            p16.intensity > 8.0 * p1.intensity,
            "chunking must raise intensity: {} vs {}",
            p16.intensity,
            p1.intensity
        );
    }

    #[test]
    fn efficiency_is_sane() {
        let cfg = ModelConfig::stories260k();
        let sys = AcceleratedLlm::synthetic(cfg, 42, OptConfig::full()).unwrap();
        let roof = Roofline::of(sys.accel_config(), &clock());
        let mut s = sys.session(SamplerKind::Argmax, 0);
        let step = s.step(1);
        let p = roof.place(&step.stats, &clock());
        assert!(p.efficiency() > 0.05, "efficiency {}", p.efficiency());
        assert!(p.efficiency() < 1.5, "efficiency {}", p.efficiency());
    }
}
