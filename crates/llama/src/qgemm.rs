//! Fused dequant-GEMM kernels over group-quantized weights.
//!
//! These mirror the weight-reuse shape of [`crate::ops::matmul`]: one pass
//! over the quantized weight matrix per batched tick. Each [`GROUP`]-wide
//! weight group is dequantized **once** into a register-resident block
//! ([`QuantMatrix::dequant_group_into`]) and then applied across every
//! batch column, so the compressed payload — not the f32 expansion — is
//! what streams from memory per tick.
//!
//! Determinism contract: every output element is one f32 accumulator fed
//! the dequantized weights in increasing column order, mul then add —
//! [`crate::ops::dot`] over the dequantized row. Rows go through the same
//! register tile as the f32 kernels ([`crate::ops::tile_accumulate`]: a
//! tile's groups are dequantized, then applied), which keeps many such
//! chains in flight without reassociating any. A batched result is
//! therefore **bit-identical** to `batch` independent [`qmatvec`] calls,
//! which is what keeps quantized serve reports byte-reproducible across
//! batch compositions and double runs. [`crate::parallel::par_qmatvec`]
//! and [`crate::parallel::par_qmatmul`] hand disjoint row ranges of the
//! same kernel to their workers, preserving the same per-element order.

use crate::ops::{tile_accumulate, transpose_batch_major, ROW_TILE};
use crate::quant::{QuantMatrix, GROUP};
use std::ops::Range;

/// Fused dequant matvec over a row range: `out[r - rows.start] =
/// Σ_c dequant(w[r, c]) · x[c]` — the `batch == 1` case of
/// [`qmatmul_rows_xt`] (a single activation vector is its own batch-major
/// transpose).
pub fn qmatvec_rows(out: &mut [f32], w: &QuantMatrix, rows: Range<usize>, x: &[f32]) {
    qmatmul_rows_xt(out, w, x, rows, 1);
}

/// Fused dequant matvec: `out[r] = dequant(w[r, :]) · x`.
pub fn qmatvec(out: &mut [f32], w: &QuantMatrix, x: &[f32]) {
    debug_assert_eq!(out.len(), w.rows());
    qmatvec_rows(out, w, 0..w.rows(), x);
}

/// One `R`-row tile of [`qmatmul_rows_xt`], rows `r0..r0 + R` of `w` into
/// `out`'s `R × batch` results. Per lane block of 8/4/2/1, each group of
/// the `R` rows is dequantized once and applied to every lane.
fn qmatmul_tile<const R: usize>(
    out: &mut [f32],
    w: &QuantMatrix,
    r0: usize,
    xt: &[f32],
    batch: usize,
) {
    fn lanes<const R: usize, const L: usize>(
        out: &mut [f32],
        w: &QuantMatrix,
        r0: usize,
        xt: &[f32],
        batch: usize,
        b0: usize,
    ) {
        let cols = w.cols();
        let mut acc = [[0.0f32; L]; R];
        let mut wg = [[0.0f32; GROUP]; R];
        for g in 0..w.groups_per_row() {
            for (i, block) in wg.iter_mut().enumerate() {
                w.dequant_group_into(r0 + i, g, block);
            }
            let c0 = g * GROUP;
            let n = (cols - c0).min(GROUP);
            let rows: [&[f32]; R] = std::array::from_fn(|i| &wg[i][..n]);
            tile_accumulate(&mut acc, rows, &xt[c0 * batch..], batch, b0);
        }
        for (out_row, a) in out.chunks_exact_mut(batch).zip(&acc) {
            out_row[b0..b0 + L].copy_from_slice(a);
        }
    }
    let mut b0 = 0;
    while b0 + 8 <= batch {
        lanes::<R, 8>(out, w, r0, xt, batch, b0);
        b0 += 8;
    }
    if b0 + 4 <= batch {
        lanes::<R, 4>(out, w, r0, xt, batch, b0);
        b0 += 4;
    }
    if b0 + 2 <= batch {
        lanes::<R, 2>(out, w, r0, xt, batch, b0);
        b0 += 2;
    }
    if b0 < batch {
        lanes::<R, 1>(out, w, r0, xt, batch, b0);
    }
}

/// Batched fused dequant-GEMM inner kernel over pre-transposed
/// (batch-major) activations: `out[(r - rows.start) * batch + b] =
/// dequant(w[r, :]) · x_b` for `r` in `rows`. Rows go in tiles of
/// [`ROW_TILE`] and lanes in blocks of 8/4/2/1 exactly like
/// [`crate::ops::matmul_rows_xt`], so each quantized row is streamed once
/// and reused across every batch lane.
pub fn qmatmul_rows_xt(
    out: &mut [f32],
    w: &QuantMatrix,
    xt: &[f32],
    rows: Range<usize>,
    batch: usize,
) {
    debug_assert_eq!(out.len(), rows.len() * batch);
    debug_assert!(rows.end <= w.rows());
    debug_assert_eq!(xt.len(), w.cols() * batch);
    let tiled = rows.len() / ROW_TILE * ROW_TILE;
    let (out_tiles, out_tail) = out.split_at_mut(tiled * batch);
    for (o, r0) in out_tiles
        .chunks_exact_mut(ROW_TILE * batch)
        .zip(rows.clone().step_by(ROW_TILE))
    {
        qmatmul_tile::<ROW_TILE>(o, w, r0, xt, batch);
    }
    for (o, r) in out_tail
        .chunks_exact_mut(batch)
        .zip(rows.start + tiled..rows.end)
    {
        qmatmul_tile::<1>(o, w, r, xt, batch);
    }
}

/// Batched fused dequant-GEMM with weight reuse: `out[r * batch + b] =
/// dequant(w[r, :]) · xs[b]` for sequence-major activations, row-major
/// output — the quantized twin of [`crate::ops::matmul`]. A batch of B
/// decode steps streams the compressed matrix once instead of B times,
/// and every element is bit-identical to a [`qmatvec`] call.
pub fn qmatmul(out: &mut [f32], w: &QuantMatrix, xs: &[f32], batch: usize) {
    debug_assert_eq!(out.len(), w.rows() * batch);
    debug_assert_eq!(xs.len(), batch * w.cols());
    let xt = transpose_batch_major(xs, w.cols(), batch);
    qmatmul_rows_xt(out, w, &xt, 0..w.rows(), batch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QuantKind;
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
        qmatvec_rows(&mut vecs, &qm, 7..17, &xs[..cols]);
        for r in 0..10 {
            assert_eq!(vecs[r].to_bits(), part[r * batch].to_bits());
        }
    }
}
