//! Fused dequant-GEMM over group-quantized weights.
//!
//! A quantized matrix is one more loader of the kernel body that streams
//! the f32 matrices ([`crate::ops::tiled_matmul_rows_xt`]), in the copies
//! [`crate::ops::run_tiled`] picks between. [`QuantMatrix`] is stored in
//! the order the body consumes it, [`ROW_TILE`] rows interleaved column by
//! column, so each column pair of a tile is one vector load, converted
//! and scaled **once** in registers ([`dequant_column_pair`]) and applied
//! to every lane of a lane block. Only the compressed payload leaves
//! memory. Bound by its dequantization at every width, a quantized matrix
//! runs the AVX-512 copy from width 1.
//!
//! Determinism contract: every output element is one f32 accumulator fed
//! the dequantized weights in increasing column order — `(q as f32 *
//! scale)`, then `* x`, then `+`, never a fused multiply-add — which is
//! [`crate::ops::dot`] over the dequantized row. A batched result is
//! therefore **bit-identical** to `batch` independent [`qmatvec`] calls,
//! which keeps quantized serve reports byte-reproducible.

use crate::ops::{check_gemm, run_tiled, transpose_batch_major, Isa, ROW_TILE};
use crate::ops::{RowTiles, TileColumns, TiledGemm};
use crate::quant::{dequant_column_pair, QuantKind, QuantMatrix, GROUP};
use std::ops::Range;

/// Fused dequant matvec: `out[r] = dequant(w[r, :]) · x`, the `batch ==
/// 1` case of [`qmatmul_rows_xt`] (a single activation vector is its own
/// batch-major transpose).
pub fn qmatvec(out: &mut [f32], w: &QuantMatrix, x: &[f32]) {
    qmatmul_rows_xt(out, w, x, 0..w.rows(), 1);
}

/// `T` adjacent tiles of a quantized matrix whose kind has `BITS` bits,
/// two columns a step and one group a block: each tile's scales, one
/// `[f32; ROW_TILE]` per group, and its quants ([`QuantMatrix::tile`]),
/// and the block of each that [`TileColumns::block`] picked.
#[derive(Clone, Copy)]
struct QuantTiles<'a, const BITS: usize, const T: usize> {
    tiles: [(&'a [[f32; ROW_TILE]], &'a [u8]); T],
    blocks: [(&'a [f32; ROW_TILE], &'a [u8]); T],
}

impl<const BITS: usize, const T: usize> TileColumns<ROW_TILE, T, 2> for QuantTiles<'_, BITS, T> {
    const BLOCK_STEPS: Option<usize> = Some(GROUP / 2);

    /// Group `g`, its payload sliced to a length the compiler sees.
    #[inline(always)]
    fn block(self, g: usize) -> Self {
        let len = ROW_TILE * GROUP * BITS / 8;
        let blocks = self.tiles.map(|(s, q)| (&s[g], &q[g * len..][..len]));
        Self { blocks, ..self }
    }

    #[inline(always)]
    fn steps(&self) -> usize {
        GROUP / 2
    }

    #[inline(always)]
    fn step(self, p: usize) -> [[[f32; ROW_TILE]; T]; 2] {
        // A literal kind in every instantiation: with the kind a run-time
        // value the body measured 1.5–2× slower.
        let kind = if BITS == 8 {
            QuantKind::Int8
        } else {
            QuantKind::Int4
        };
        let mut w0 = [[0.0f32; ROW_TILE]; T];
        let mut w1 = [[0.0f32; ROW_TILE]; T];
        for (j, &(scales, quants)) in self.blocks.iter().enumerate() {
            [w0[j], w1[j]] = dequant_column_pair(kind, scales, quants, p);
        }
        [w0, w1]
    }
}

/// A quantized matrix of `BITS`-bit kind: every tile that overlaps the
/// rows, the padded last one included, computed whole and written in
/// part.
#[derive(Clone, Copy)]
struct Quantized<'a, const BITS: usize>(&'a QuantMatrix);

impl<const BITS: usize> TiledGemm for Quantized<'_, BITS> {
    /// Bound by dequantization, so AVX-512 pays from width 1.
    const AVX512_FROM: usize = 1;

    #[inline(always)]
    fn body<const T: usize>(self, out: &mut [f32], xt: &[f32], rows: Range<usize>, batch: usize) {
        let tiles = rows.start / ROW_TILE..rows.end.div_ceil(ROW_TILE);
        self.walk::<T>(tiles, out, xt, &rows, batch);
    }
}

impl<const BITS: usize> RowTiles<2> for Quantized<'_, BITS> {
    #[inline(always)]
    fn tiles<const T: usize>(self, t: usize) -> impl TileColumns<ROW_TILE, T, 2> {
        let tiles = std::array::from_fn(|j| self.0.tile(t + j));
        let blocks = tiles.map(|(scales, quants)| (&scales[0], quants));
        QuantTiles::<BITS, T> { tiles, blocks }
    }
}

/// Batched fused dequant-GEMM over pre-transposed (batch-major)
/// activations: `out[(r - rows.start) * batch + b] = dequant(w[r, :]) ·
/// x_b` for `r` in `rows`, any row range. Each quantized tile is streamed
/// once and reused across every batch lane.
pub fn qmatmul_rows_xt(
    out: &mut [f32],
    w: &QuantMatrix,
    xt: &[f32],
    rows: Range<usize>,
    batch: usize,
) {
    check_gemm(out, xt, &rows, (w.rows(), w.cols()), batch);
    match w.kind() {
        QuantKind::Int8 => run_tiled(Quantized::<8>(w), out, xt, rows, batch, Isa::Avx512),
        QuantKind::Int4 => run_tiled(Quantized::<4>(w), out, xt, rows, batch, Isa::Avx512),
    }
}

/// Batched fused dequant-GEMM with weight reuse: `out[r * batch + b] =
/// dequant(w[r, :]) · xs[b]` for sequence-major activations, row-major
/// output — the quantized twin of [`crate::ops::matmul`]. A batch of B
/// decode steps streams the compressed matrix once instead of B times,
/// and every element is bit-identical to a [`qmatvec`] call.
pub fn qmatmul(out: &mut [f32], w: &QuantMatrix, xs: &[f32], batch: usize) {
    assert_eq!(xs.len(), batch * w.cols(), "activation shape mismatch");
    let xt = transpose_batch_major(xs, w.cols(), batch);
    qmatmul_rows_xt(out, w, &xt, 0..w.rows(), batch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn random_case(rows: usize, cols: usize, batch: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut w = vec![0.0f32; rows * cols];
        let mut xs = vec![0.0f32; batch * cols];
        rng.fill_normal(&mut w, 0.2);
        rng.fill_normal(&mut xs, 1.0);
        (w, xs)
    }

    /// Satellite: pins `QuantMatrix::matvec` (now the serve-path kernel)
    /// against the quantize→dequantize→`ops::matvec` reference — exact,
    /// because both accumulate identical dequantized values in the same
    /// order — and within `error_bound()` of the f32 original.
    #[test]
    fn matvec_is_pinned_to_dequantized_reference() {
        for kind in [QuantKind::Int8, QuantKind::Int4] {
            let (rows, cols) = (20, 100); // partial trailing group
            let (w, x) = random_case(rows, cols, 1, 11);
            let qm = QuantMatrix::quantize_with(&w, rows, cols, kind);
            let mut got = vec![0.0f32; rows];
            qm.matvec(&mut got, &x);

            let deq = qm.dequantize();
            let mut reference = vec![0.0f32; rows];
            crate::ops::matvec(&mut reference, &deq, &x, rows, cols);
            assert_eq!(
                got, reference,
                "{kind:?}: must replay dequantized matvec exactly"
            );

            let mut exact = vec![0.0f32; rows];
            crate::ops::matvec(&mut exact, &w, &x, rows, cols);
            let l1: f32 = x.iter().map(|v| v.abs()).sum();
            let bound = qm.error_bound() * l1 + 1e-6;
            for (e, a) in exact.iter().zip(&got) {
                assert!(
                    (e - a).abs() <= bound,
                    "{kind:?}: {e} vs {a}, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn batched_qmatmul_is_bit_identical_to_qmatvec() {
        for kind in [QuantKind::Int8, QuantKind::Int4] {
            for batch in [1, 2, 3, 5, 8, 11] {
                let (rows, cols) = (17, 70);
                let (w, xs) = random_case(rows, cols, batch, 21 + batch as u64);
                let qm = QuantMatrix::quantize_with(&w, rows, cols, kind);
                let mut batched = vec![0.0f32; rows * batch];
                qmatmul(&mut batched, &qm, &xs, batch);
                let mut single = vec![0.0f32; rows];
                for b in 0..batch {
                    qmatvec(&mut single, &qm, &xs[b * cols..(b + 1) * cols]);
                    for r in 0..rows {
                        assert_eq!(
                            batched[r * batch + b].to_bits(),
                            single[r].to_bits(),
                            "{kind:?} batch {batch} row {r} lane {b}"
                        );
                    }
                }
            }
        }
    }

    /// One copy of the shared body: the dispatch capped at an instruction
    /// set, or one instantiation at the build's baseline.
    #[derive(Clone, Copy, Debug)]
    enum Instance {
        Capped(Isa),
        OneTile,
        TwoTiles,
    }

    /// `instance` over rows `rows` of `w`, every lane of batch-major `xt`,
    /// as output bits.
    fn run(
        instance: Instance,
        w: &QuantMatrix,
        xt: &[f32],
        rows: Range<usize>,
        batch: usize,
    ) -> Vec<u32> {
        fn go<G: TiledGemm>(
            g: G,
            i: Instance,
            out: &mut [f32],
            xt: &[f32],
            rows: Range<usize>,
            batch: usize,
        ) {
            match i {
                Instance::Capped(isa) => run_tiled(g, out, xt, rows, batch, isa),
                Instance::OneTile => g.body::<1>(out, xt, rows, batch),
                Instance::TwoTiles => g.body::<2>(out, xt, rows, batch),
            }
        }
        let mut out = vec![f32::NAN; rows.len() * batch];
        match w.kind() {
            QuantKind::Int8 => go(Quantized::<8>(w), instance, &mut out, xt, rows, batch),
            QuantKind::Int4 => go(Quantized::<4>(w), instance, &mut out, xt, rows, batch),
        }
        out.iter().map(|f| f.to_bits()).collect()
    }

    /// The baseline and the run-time-selected instantiation of the shared
    /// body are the same IEEE operations in the same order. On a host
    /// without AVX2 both sides are the baseline copy.
    #[test]
    fn portable_and_detected_instantiations_agree_bitwise() {
        for kind in [QuantKind::Int8, QuantKind::Int4] {
            for batch in 1..=11 {
                let (rows, cols) = (21, 3 * GROUP + 7);
                let (w, xs) = random_case(rows, cols, batch, 40 + batch as u64);
                let qm = QuantMatrix::quantize_with(&w, rows, cols, kind);
                let xt = transpose_batch_major(&xs, cols, batch);
                let range = 3..19;
                let portable = run(Instance::OneTile, &qm, &xt, range.clone(), batch);
                let mut detected = vec![f32::NAN; range.len() * batch];
                qmatmul_rows_xt(&mut detected, &qm, &xt, range, batch);
                let detected: Vec<u32> = detected.iter().map(|f| f.to_bits()).collect();
                assert_eq!(portable, detected, "{kind:?} batch {batch}");
            }
        }
    }

    /// Row ranges of a `rows`-row matrix: the whole, and ones that start
    /// and end mid-tile and mid-pair of tiles.
    fn row_ranges(rows: usize) -> Vec<Range<usize>> {
        let mut ranges = vec![0..rows, rows / 2..rows];
        for (start, end) in [(3, 2), (11, 5), (19, 13)] {
            if start + end < rows {
                ranges.push(start..rows - end);
            }
        }
        ranges
    }

    /// The two-tile instantiation of the shared body, compiled at the
    /// baseline, is `dot` over the dequantized row bit for bit — over an
    /// odd tile left after the pairs, the padded last tile, an odd last
    /// column, every lane-group split of batches up to 33, and ranges
    /// that cut tiles and pairs.
    #[test]
    fn pair_body_replays_the_dequantized_dot_bit_for_bit() {
        for kind in [QuantKind::Int8, QuantKind::Int4] {
            for rows in [1usize, 7, 8, 15, 16, 17, 24, 44, 45, 768] {
                for cols in [16usize, 17, 288] {
                    let (w, _) = random_case(rows, cols, 0, (rows * 1000 + cols) as u64);
                    let qm = QuantMatrix::quantize_with(&w, rows, cols, kind);
                    let deq = qm.dequantize();
                    for batch in 1..=33 {
                        let (_, xs) = random_case(0, cols, batch, (batch * 7 + rows) as u64);
                        let xt = transpose_batch_major(&xs, cols, batch);
                        for range in row_ranges(rows) {
                            let out = run(Instance::TwoTiles, &qm, &xt, range.clone(), batch);
                            for r in range.clone() {
                                for b in 0..batch {
                                    let want = crate::ops::dot(
                                        &deq[r * cols..(r + 1) * cols],
                                        &xs[b * cols..(b + 1) * cols],
                                    );
                                    assert_eq!(
                                        out[(r - range.start) * batch + b],
                                        want.to_bits(),
                                        "{kind:?} {rows}x{cols} batch {batch} range {range:?} row {r} lane {b}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The run-time-selected copy — AVX-512 two tiles per step where the
    /// CPU has it, else AVX2 or the baseline one tile per step — equals
    /// the AVX2-capped copy and both baseline instantiations bit for bit.
    /// On a host without AVX-512 the selected side is a one-tile copy.
    #[test]
    fn avx512_and_baseline_instantiations_agree_bitwise() {
        for kind in [QuantKind::Int8, QuantKind::Int4] {
            for batch in 1..=33 {
                let (rows, cols) = (61, 3 * GROUP + 7);
                let (w, xs) = random_case(rows, cols, batch, 60 + batch as u64);
                let qm = QuantMatrix::quantize_with(&w, rows, cols, kind);
                let xt = transpose_batch_major(&xs, cols, batch);
                for range in row_ranges(rows) {
                    let run = |instance| run(instance, &qm, &xt, range.clone(), batch);
                    let detected = run(Instance::Capped(Isa::Avx512));
                    let at = format!("{kind:?} batch {batch} range {range:?}");
                    assert_eq!(detected, run(Instance::Capped(Isa::Avx2)), "{at}");
                    assert_eq!(detected, run(Instance::TwoTiles), "{at}");
                    assert_eq!(detected, run(Instance::OneTile), "{at}");
                }
            }
        }
    }

    /// A batch-3 call given two lanes of activations panics in every
    /// build, rather than reading the third lane as zeros.
    #[test]
    #[should_panic(expected = "activation shape mismatch")]
    fn qmatmul_shape_check_rejects_a_missing_lane() {
        let (w, xs) = random_case(8, 40, 2, 3);
        let qm = QuantMatrix::quantize(&w, 8, 40);
        qmatmul(&mut [0.0f32; 8 * 3], &qm, &xs, 3);
    }

    #[test]
    fn row_range_kernel_matches_full_kernel() {
        let (rows, cols, batch) = (24, 64, 4);
        let (w, xs) = random_case(rows, cols, batch, 5);
        let qm = QuantMatrix::quantize(&w, rows, cols);
        let xt = transpose_batch_major(&xs, cols, batch);
        let mut full = vec![0.0f32; rows * batch];
        qmatmul_rows_xt(&mut full, &qm, &xt, 0..rows, batch);
        let mut part = vec![0.0f32; 10 * batch];
        qmatmul_rows_xt(&mut part, &qm, &xt, 7..17, batch);
        assert_eq!(&full[7 * batch..17 * batch], &part[..]);
        let mut vecs = vec![0.0f32; 10];
        qmatmul_rows_xt(&mut vecs, &qm, &xs[..cols], 7..17, 1);
        for r in 0..10 {
            assert_eq!(vecs[r].to_bits(), part[r * batch].to_bits());
        }
    }
}
