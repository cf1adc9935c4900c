//! Unified per-run simulation statistics.
//!
//! [`SimStats`] aggregates the activity counters of every device component
//! after a run; it is the single input to the power model and the traffic
//! tables in the reproduction reports.

use crate::cycles::Cycles;
use crate::hbm::HbmCounters;
use crate::mpe::MpeCounters;
use crate::sfu::SfuCounters;

/// Aggregated activity of one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// End-to-end makespan of the run.
    pub total_cycles: Cycles,
    /// Off-chip traffic.
    pub hbm: HbmCounters,
    /// Bytes read from on-chip memories (BRAM + URAM).
    pub ocm_read_bytes: u64,
    /// Bytes written to on-chip memories.
    pub ocm_write_bytes: u64,
    /// Matrix engine activity.
    pub mpe: MpeCounters,
    /// Special-function-unit activity.
    pub sfu: SfuCounters,
    /// DMA busy time in **channel-cycles**: each engine's busy cycles
    /// weighted by the number of pseudo-channels it stripes across, summed
    /// over engines. Gated DMA static power is charged per channel-cycle.
    pub dma_busy_cycles: u64,
    /// Kernel launches issued by the host.
    pub kernel_launches: u64,
    /// Buffer allocation stalls taken (naive memory management).
    pub alloc_stalls: u64,
}

impl SimStats {
    /// Component-wise accumulation (for summing per-token stats into a
    /// whole-inference total). `total_cycles` is summed, which is correct
    /// for sequential token decoding.
    pub fn accumulate(&mut self, other: &SimStats) {
        self.total_cycles += other.total_cycles;
        self.hbm.read_bytes += other.hbm.read_bytes;
        self.hbm.write_bytes += other.hbm.write_bytes;
        self.hbm.read_transfers += other.hbm.read_transfers;
        self.hbm.write_transfers += other.hbm.write_transfers;
        self.ocm_read_bytes += other.ocm_read_bytes;
        self.ocm_write_bytes += other.ocm_write_bytes;
        self.mpe.macs += other.mpe.macs;
        self.mpe.busy_cycles += other.mpe.busy_cycles;
        self.mpe.tiles += other.mpe.tiles;
        self.sfu.elements += other.sfu.elements;
        self.sfu.busy_cycles += other.sfu.busy_cycles;
        self.sfu.ops += other.sfu.ops;
        self.dma_busy_cycles += other.dma_busy_cycles;
        self.kernel_launches += other.kernel_launches;
        self.alloc_stalls += other.alloc_stalls;
    }

    /// Arithmetic intensity: MACs per off-chip byte (the roofline x-axis).
    #[must_use]
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.hbm.total_bytes();
        if bytes == 0 {
            return 0.0;
        }
        self.mpe.macs as f64 / bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimStats {
        SimStats {
            total_cycles: Cycles(100),
            hbm: HbmCounters {
                read_bytes: 1000,
                write_bytes: 200,
                read_transfers: 3,
                write_transfers: 1,
            },
            ocm_read_bytes: 50,
            ocm_write_bytes: 60,
            mpe: MpeCounters {
                macs: 5000,
                busy_cycles: 80,
                tiles: 2,
            },
            sfu: SfuCounters {
                elements: 300,
                busy_cycles: 40,
                ops: 5,
            },
            dma_busy_cycles: 70,
            kernel_launches: 4,
            alloc_stalls: 2,
        }
    }

    #[test]
    fn accumulate_doubles_everything() {
        let mut a = sample();
        a.accumulate(&sample());
        assert_eq!(a.total_cycles, Cycles(200));
        assert_eq!(a.hbm.read_bytes, 2000);
        assert_eq!(a.mpe.macs, 10_000);
        assert_eq!(a.sfu.ops, 10);
        assert_eq!(a.kernel_launches, 8);
        assert_eq!(a.alloc_stalls, 4);
    }

    #[test]
    fn arithmetic_intensity_macs_per_byte() {
        let s = sample();
        assert!((s.arithmetic_intensity() - 5000.0 / 1200.0).abs() < 1e-12);
        let empty = SimStats::default();
        assert_eq!(empty.arithmetic_intensity(), 0.0);
    }
}
