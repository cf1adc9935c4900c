//! Matrix Processing Engine (MPE) timing model.
//!
//! The MPE is a DSP-based array of `lanes` row units, each accumulating
//! `vec_width` multiply-accumulates per cycle — the structure behind
//! Fig. 1's "Matrix Processing Engine". A weight tile of `rows × cols`
//! takes `ceil(rows/lanes) × ceil(cols/vec_width)` issue cycles plus the
//! accumulator pipeline fill. In int8 mode each DSP slice packs two MACs,
//! doubling effective width — the mixed-precision advantage the paper
//! attributes to FPGAs.

use crate::cycles::Cycles;

/// Arithmetic mode of the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// IEEE 754 single precision (llama2.c default).
    Fp32,
    /// Q8_0 int8 weights with f32 group rescale.
    Int8,
    /// Q4_0 nibble-packed int4 weights with f32 group rescale.
    Int4,
}

impl Precision {
    /// Bits per stored weight element (group-scale overhead is counted by
    /// the quantizer, not here).
    #[must_use]
    pub fn weight_bits(&self) -> usize {
        match self {
            Precision::Fp32 => 32,
            Precision::Int8 => 8,
            Precision::Int4 => 4,
        }
    }

    /// MACs one DSP slice retires per cycle in this mode.
    #[must_use]
    pub fn macs_per_dsp(&self) -> f64 {
        match self {
            Precision::Fp32 => 0.2, // fp32 MAC ≈ 5 DSP48E2 slices
            Precision::Int8 => 2.0, // DSP48E2 packs two int8 MACs
            Precision::Int4 => 4.0, // and four int4 MACs
        }
    }
}

/// Static configuration of the MPE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpeConfig {
    /// Parallel row units (output rows computed concurrently).
    pub lanes: usize,
    /// MACs per lane per cycle (dot-product vector width).
    pub vec_width: usize,
    /// Accumulator pipeline depth (fill/drain cost per tile).
    pub pipeline_depth: u64,
    /// Arithmetic mode.
    pub precision: Precision,
}

impl Default for MpeConfig {
    fn default() -> Self {
        Self::u280_fp32()
    }
}

impl MpeConfig {
    /// The shipped fp32 design point: 64 lanes × 8-wide = 512 MACs/cycle
    /// (≈ 2560 DSPs of the U280's 9024; 307 GFLOP/s at 300 MHz).
    #[must_use]
    pub fn u280_fp32() -> Self {
        Self {
            lanes: 64,
            vec_width: 8,
            pipeline_depth: 12,
            precision: Precision::Fp32,
        }
    }

    /// The int8 design point: same DSP budget, 2 MACs per DSP.
    #[must_use]
    pub fn u280_int8() -> Self {
        Self {
            lanes: 64,
            vec_width: 80,
            pipeline_depth: 10,
            precision: Precision::Int8,
        }
    }

    /// The int4 design point: same DSP budget, 4 MACs per DSP.
    #[must_use]
    pub fn u280_int4() -> Self {
        Self {
            lanes: 64,
            vec_width: 160,
            pipeline_depth: 10,
            precision: Precision::Int4,
        }
    }

    /// Peak MACs retired per cycle.
    #[must_use]
    pub fn macs_per_cycle(&self) -> u64 {
        (self.lanes * self.vec_width) as u64
    }

    /// DSP slices this configuration consumes.
    #[must_use]
    pub fn dsp_count(&self) -> u64 {
        (self.macs_per_cycle() as f64 / self.precision.macs_per_dsp()).ceil() as u64
    }
}

/// Per-run MPE activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MpeCounters {
    /// Multiply-accumulates actually performed (useful work).
    pub macs: u64,
    /// Cycles the array was issuing (busy time before stalls).
    pub busy_cycles: u64,
    /// Tiles processed.
    pub tiles: u64,
}

/// The MPE: timing + counters.
#[derive(Debug, Clone)]
pub struct Mpe {
    config: MpeConfig,
    counters: MpeCounters,
}

impl Mpe {
    /// Creates an MPE with the given configuration.
    #[must_use]
    pub fn new(config: MpeConfig) -> Self {
        assert!(config.lanes > 0 && config.vec_width > 0, "degenerate MPE");
        Self {
            config,
            counters: MpeCounters::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MpeConfig {
        &self.config
    }

    /// Accumulated counters.
    #[must_use]
    pub fn counters(&self) -> &MpeCounters {
        &self.counters
    }

    /// Cycle cost of a `rows × cols` matvec tile (weight-stationary
    /// streaming: every output row's dot product is folded over `cols`).
    #[must_use]
    pub fn tile_cost(&self, rows: usize, cols: usize) -> Cycles {
        if rows == 0 || cols == 0 {
            return Cycles::ZERO;
        }
        let row_waves = rows.div_ceil(self.config.lanes) as u64;
        let col_steps = cols.div_ceil(self.config.vec_width) as u64;
        Cycles(row_waves * col_steps + self.config.pipeline_depth)
    }

    /// Records execution of a tile and returns its cost.
    pub fn run_tile(&mut self, rows: usize, cols: usize) -> Cycles {
        let cost = self.tile_cost(rows, cols);
        self.counters.macs += (rows * cols) as u64;
        self.counters.busy_cycles += cost.0;
        if rows > 0 && cols > 0 {
            self.counters.tiles += 1;
        }
        cost
    }

    /// Fraction of peak MAC throughput achieved over `elapsed` total
    /// cycles (0 when nothing ran).
    #[must_use]
    pub fn utilization(&self, elapsed: Cycles) -> f64 {
        if elapsed == Cycles::ZERO {
            return 0.0;
        }
        let peak = self.config.macs_per_cycle() as f64 * elapsed.0 as f64;
        self.counters.macs as f64 / peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_design_point_fits_u280_dsp_budget() {
        let cfg = MpeConfig::u280_fp32();
        assert_eq!(cfg.macs_per_cycle(), 512);
        assert_eq!(cfg.dsp_count(), 2560);
        assert!(cfg.dsp_count() <= 9024);
    }

    #[test]
    fn int8_design_point_fits_u280_dsp_budget() {
        let cfg = MpeConfig::u280_int8();
        assert_eq!(cfg.dsp_count(), 2560);
        assert!(cfg.macs_per_cycle() > MpeConfig::u280_fp32().macs_per_cycle());
    }

    #[test]
    fn tile_cost_exact_small_case() {
        let mpe = Mpe::new(MpeConfig {
            lanes: 4,
            vec_width: 2,
            pipeline_depth: 3,
            precision: Precision::Fp32,
        });
        // rows=8 -> 2 waves; cols=5 -> 3 steps; 2*3 + 3 = 9.
        assert_eq!(mpe.tile_cost(8, 5), Cycles(9));
        assert_eq!(mpe.tile_cost(0, 5), Cycles::ZERO);
        assert_eq!(mpe.tile_cost(8, 0), Cycles::ZERO);
    }

    #[test]
    fn cost_is_monotone_in_shape() {
        let mpe = Mpe::new(MpeConfig::u280_fp32());
        assert!(mpe.tile_cost(128, 512) <= mpe.tile_cost(256, 512));
        assert!(mpe.tile_cost(128, 512) <= mpe.tile_cost(128, 1024));
    }

    #[test]
    fn full_matvec_cost_matches_roofline() {
        // stories15M-ish: 288x288 matvec on the shipped config.
        let mpe = Mpe::new(MpeConfig::u280_fp32());
        let c = mpe.tile_cost(288, 288);
        // ceil(288/64)=5 waves, ceil(288/8)=36 steps -> 180 + 12.
        assert_eq!(c, Cycles(192));
    }

    #[test]
    fn counters_accumulate() {
        let mut mpe = Mpe::new(MpeConfig::u280_fp32());
        mpe.run_tile(64, 64);
        mpe.run_tile(64, 64);
        assert_eq!(mpe.counters().macs, 2 * 64 * 64);
        assert_eq!(mpe.counters().tiles, 2);
        assert!(mpe.counters().busy_cycles > 0);
    }

    #[test]
    fn utilization_bounded() {
        let mut mpe = Mpe::new(MpeConfig::u280_fp32());
        let cost = mpe.run_tile(512, 512);
        let u = mpe.utilization(cost);
        assert!(u > 0.5 && u <= 1.0, "utilization {u}");
        assert_eq!(mpe.utilization(Cycles::ZERO), 0.0);
    }

    #[test]
    fn int8_is_faster_per_tile() {
        let f = Mpe::new(MpeConfig::u280_fp32());
        let q = Mpe::new(MpeConfig::u280_int8());
        assert!(q.tile_cost(768, 288) < f.tile_cost(768, 288));
    }

    #[test]
    fn int4_design_point_fits_u280_dsp_budget() {
        let cfg = MpeConfig::u280_int4();
        assert_eq!(cfg.dsp_count(), 2560);
        assert!(cfg.macs_per_cycle() > MpeConfig::u280_int8().macs_per_cycle());
        let q8 = Mpe::new(MpeConfig::u280_int8());
        let q4 = Mpe::new(MpeConfig::u280_int4());
        assert!(q4.tile_cost(768, 288) <= q8.tile_cost(768, 288));
    }
}
