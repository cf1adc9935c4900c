//! HBM2 stack model.
//!
//! The Alveo U280 exposes 8 GiB of HBM2 through 32 pseudo-channels of
//! ~14.4 GB/s each (460 GB/s aggregate). A kernel port reaches the stack
//! through an AXI interface; how many pseudo-channels a design *actually*
//! stripes its buffers across is a co-design decision — naive HLS designs
//! use one or two ports and leave most of the bandwidth idle, which is
//! exactly the behaviour the unoptimized SpeedLLM baseline exhibits.
//!
//! The model is analytic: a transfer of `bytes` over `channels` costs a
//! fixed access latency plus `bytes / (channels × channel_bw)` cycles.
//! Byte counters feed the traffic report and the energy model.

use crate::cycles::Cycles;

/// Static parameters of the HBM stack, normalized to the kernel clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmConfig {
    /// Number of pseudo-channels on the device (32 on the U280).
    pub channels: usize,
    /// Sustainable bytes per kernel-clock cycle per pseudo-channel.
    /// 14.4 GB/s at 300 MHz = 48 B/cycle.
    pub channel_bytes_per_cycle: f64,
    /// Fixed per-transfer latency (row activation + AXI round trip).
    pub access_latency: Cycles,
    /// Transfer granularity in bytes; transfers are padded up to a burst.
    pub burst_bytes: u64,
    /// Total capacity in bytes (8 GiB on the U280).
    pub capacity_bytes: u64,
}

impl Default for HbmConfig {
    fn default() -> Self {
        Self::u280()
    }
}

impl HbmConfig {
    /// The U280 datasheet configuration.
    #[must_use]
    pub fn u280() -> Self {
        Self {
            channels: 32,
            channel_bytes_per_cycle: 48.0,
            access_latency: Cycles(64),
            burst_bytes: 64,
            capacity_bytes: 8 * 1024 * 1024 * 1024,
        }
    }
}

/// Traffic counters for one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HbmCounters {
    /// Bytes read from HBM (after burst padding).
    pub read_bytes: u64,
    /// Bytes written to HBM (after burst padding).
    pub write_bytes: u64,
    /// Number of read transfers issued.
    pub read_transfers: u64,
    /// Number of write transfers issued.
    pub write_transfers: u64,
}

impl HbmCounters {
    /// Total bytes moved in either direction.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// The HBM stack: cost model + counters.
#[derive(Debug, Clone)]
pub struct Hbm {
    config: HbmConfig,
    counters: HbmCounters,
}

impl Hbm {
    /// Creates a stack with the given configuration.
    #[must_use]
    pub fn new(config: HbmConfig) -> Self {
        assert!(config.channels > 0, "at least one channel");
        assert!(config.channel_bytes_per_cycle > 0.0, "positive bandwidth");
        assert!(config.burst_bytes > 0, "positive burst size");
        Self {
            config,
            counters: HbmCounters::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &HbmConfig {
        &self.config
    }

    /// Accumulated traffic counters.
    #[must_use]
    pub fn counters(&self) -> &HbmCounters {
        &self.counters
    }

    /// Rounds a transfer size up to burst granularity.
    #[must_use]
    pub fn padded(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        bytes.div_ceil(self.config.burst_bytes) * self.config.burst_bytes
    }

    /// Cycle cost of a transfer of `bytes` striped over `channels`
    /// pseudo-channels (clamped to the device's channel count).
    /// Zero-byte transfers are free.
    #[must_use]
    pub fn transfer_cost(&self, bytes: u64, channels: usize) -> Cycles {
        if bytes == 0 {
            return Cycles::ZERO;
        }
        let channels = channels.clamp(1, self.config.channels);
        let bw = channels as f64 * self.config.channel_bytes_per_cycle;
        self.config.access_latency + Cycles::for_bytes(self.padded(bytes), bw)
    }

    /// Records a read and returns its cycle cost.
    pub fn read(&mut self, bytes: u64, channels: usize) -> Cycles {
        let cost = self.transfer_cost(bytes, channels);
        if bytes > 0 {
            self.counters.read_bytes += self.padded(bytes);
            self.counters.read_transfers += 1;
        }
        cost
    }

    /// Records a write and returns its cycle cost.
    pub fn write(&mut self, bytes: u64, channels: usize) -> Cycles {
        let cost = self.transfer_cost(bytes, channels);
        if bytes > 0 {
            self.counters.write_bytes += self.padded(bytes);
            self.counters.write_transfers += 1;
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_rounds_to_bursts() {
        let hbm = Hbm::new(HbmConfig::u280());
        assert_eq!(hbm.padded(0), 0);
        assert_eq!(hbm.padded(1), 64);
        assert_eq!(hbm.padded(64), 64);
        assert_eq!(hbm.padded(65), 128);
    }

    #[test]
    fn transfer_cost_scales_with_channels() {
        let hbm = Hbm::new(HbmConfig::u280());
        let one = hbm.transfer_cost(1 << 20, 1);
        let all = hbm.transfer_cost(1 << 20, 32);
        assert!(one > all, "{one} should exceed {all}");
        // 1 MiB over one 48 B/cycle channel ≈ 21846 cycles + latency.
        assert_eq!(one, Cycles(64) + Cycles::for_bytes(1 << 20, 48.0));
    }

    #[test]
    fn zero_bytes_is_free() {
        let mut hbm = Hbm::new(HbmConfig::u280());
        assert_eq!(hbm.read(0, 4), Cycles::ZERO);
        assert_eq!(hbm.counters().read_transfers, 0);
    }

    #[test]
    fn channels_clamped_to_device() {
        let hbm = Hbm::new(HbmConfig::u280());
        assert_eq!(hbm.transfer_cost(4096, 999), hbm.transfer_cost(4096, 32));
        assert_eq!(hbm.transfer_cost(4096, 0), hbm.transfer_cost(4096, 1));
    }

    #[test]
    fn counters_accumulate_padded_bytes() {
        let mut hbm = Hbm::new(HbmConfig::u280());
        hbm.read(100, 8);
        hbm.read(64, 8);
        hbm.write(10, 8);
        let c = hbm.counters();
        assert_eq!(c.read_bytes, 128 + 64);
        assert_eq!(c.write_bytes, 64);
        assert_eq!(c.read_transfers, 2);
        assert_eq!(c.write_transfers, 1);
        assert_eq!(c.total_bytes(), 256);
    }

    #[test]
    fn small_transfer_dominated_by_latency() {
        let hbm = Hbm::new(HbmConfig::u280());
        let c = hbm.transfer_cost(64, 32);
        assert_eq!(c, Cycles(64) + Cycles(1));
    }
}
