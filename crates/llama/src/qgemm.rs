//! Fused dequant-GEMM kernel over group-quantized weights.
//!
//! It mirrors the weight-reuse shape of [`crate::ops::matmul`]: one pass
//! over the quantized weight matrix per batched tick. [`QuantMatrix`] is
//! stored in the order the kernel consumes it — [`ROW_TILE`] rows
//! interleaved column by column — so each column of a row tile is one
//! vector load, converted and scaled **once** in registers
//! ([`dequant_column_pair`]) and then applied to every lane of the lane block.
//! The compressed payload, not an f32 expansion, is all that leaves
//! memory, and nothing is staged or transposed on the way.
//!
//! Determinism contract: every output element is one f32 accumulator fed
//! the dequantized weights in increasing column order — `(q as f32 *
//! scale)`, then `* x`, then `+`, never a fused multiply-add — which is
//! [`crate::ops::dot`] over the dequantized row. The accumulators of a
//! tile are independent output elements, so keeping `ROW_TILE × L` of them
//! live reassociates nothing. A batched result is therefore
//! **bit-identical** to `batch` independent [`qmatvec`] calls, which is
//! what keeps quantized serve reports byte-reproducible across batch
//! compositions and double runs.
//!
//! The kernel body is compiled twice, at the build's baseline and with
//! AVX2 enabled, and [`qmatmul_rows_xt`] picks one per call. Both run the
//! same IEEE operations in the same order, so they agree bit for bit; the
//! AVX2 copy is faster because it has the byte→dword widening load that
//! SSE2 lacks.

use crate::ops::{transpose_batch_major, ROW_TILE};
use crate::quant::{dequant_column_pair, QuantKind, QuantMatrix, GROUP};
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
    qmatvec_rows(out, w, 0..w.rows(), x);
}

/// Widest lane block: 8 accumulator vectors, the weight vector, the
/// scales and a temporary fit AVX2's 16 registers.
const MAX_LANES: usize = 8;

/// Lanes `b0..b0 + L` of row tile `t`: `acc[l][i] = dequant(w[t *
/// ROW_TILE + i, :]) · x_{b0 + l}`, lanes past `L` zero. Every column of
/// the tile is dequantized once and applied to all `L` lanes.
#[inline(always)]
fn lane_block<const L: usize>(
    w: &QuantMatrix,
    kind: QuantKind,
    t: usize,
    xt: &[f32],
    batch: usize,
    b0: usize,
) -> [[f32; ROW_TILE]; MAX_LANES] {
    #[inline(always)]
    fn accumulate<const L: usize>(acc: &mut [[f32; ROW_TILE]; L], wv: &[f32; ROW_TILE], x: &[f32]) {
        let x: &[f32; L] = x[..L].try_into().expect("lane block in bounds");
        for l in 0..L {
            for i in 0..ROW_TILE {
                acc[l][i] += wv[i] * x[l];
            }
        }
    }
    let mut acc = [[0.0f32; ROW_TILE]; L];
    for (g, xg) in xt.chunks(GROUP * batch).enumerate() {
        let (scales, quants) = w.tile_group(t, g);
        // Two columns a step; a row's last group may end on an odd one.
        for (p, xp) in xg.chunks(2 * batch).enumerate() {
            let [w0, w1] = dequant_column_pair(kind, scales, quants, p);
            accumulate(&mut acc, &w0, &xp[b0..]);
            if xp.len() > batch {
                accumulate(&mut acc, &w1, &xp[batch + b0..]);
            }
        }
    }
    let mut lanes = [[0.0f32; ROW_TILE]; MAX_LANES];
    lanes[..L].copy_from_slice(&acc);
    lanes
}

/// The one quantized kernel body: the tiles that overlap `rows`, each in
/// lane blocks of [`MAX_LANES`] and then one block of exactly the lanes
/// left over. A tile on the edge of `rows`, or the padded last tile, is
/// computed whole and written in part.
///
/// The write-out sits after the `match`, not in `lane_block`, on purpose:
/// there the lane count is a run-time value, so each block hands over its
/// accumulators as whole `ROW_TILE`-wide vectors, which is what lets the
/// compiler keep them in vector registers for every `L` (written per `L`,
/// widths 3, 5 and 6 ran 5× slower).
#[inline(always)]
fn kernel(out: &mut [f32], w: &QuantMatrix, xt: &[f32], rows: Range<usize>, batch: usize) {
    #[inline(always)]
    fn tiles(
        out: &mut [f32],
        w: &QuantMatrix,
        kind: QuantKind,
        xt: &[f32],
        rows: Range<usize>,
        batch: usize,
    ) {
        for t in rows.start / ROW_TILE..rows.end.div_ceil(ROW_TILE) {
            for b0 in (0..batch).step_by(MAX_LANES) {
                let lanes = (batch - b0).min(MAX_LANES);
                let acc = match lanes {
                    1 => lane_block::<1>(w, kind, t, xt, batch, b0),
                    2 => lane_block::<2>(w, kind, t, xt, batch, b0),
                    3 => lane_block::<3>(w, kind, t, xt, batch, b0),
                    4 => lane_block::<4>(w, kind, t, xt, batch, b0),
                    5 => lane_block::<5>(w, kind, t, xt, batch, b0),
                    6 => lane_block::<6>(w, kind, t, xt, batch, b0),
                    7 => lane_block::<7>(w, kind, t, xt, batch, b0),
                    _ => lane_block::<MAX_LANES>(w, kind, t, xt, batch, b0),
                };
                for (l, lane) in acc[..lanes].iter().enumerate() {
                    for (i, &v) in lane.iter().enumerate() {
                        let r = t * ROW_TILE + i;
                        if rows.contains(&r) {
                            out[(r - rows.start) * batch + b0 + l] = v;
                        }
                    }
                }
            }
        }
    }
    // A literal kind per arm, so each inlined copy decodes one encoding.
    match w.kind() {
        QuantKind::Int8 => tiles(out, w, QuantKind::Int8, xt, rows, batch),
        QuantKind::Int4 => tiles(out, w, QuantKind::Int4, xt, rows, batch),
    }
}

/// [`kernel`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn kernel_avx2(out: &mut [f32], w: &QuantMatrix, xt: &[f32], rows: Range<usize>, batch: usize) {
    kernel(out, w, xt, rows, batch);
}

/// Batched fused dequant-GEMM inner kernel over pre-transposed
/// (batch-major) activations: `out[(r - rows.start) * batch + b] =
/// dequant(w[r, :]) · x_b` for `r` in `rows`, any row range. Each
/// quantized tile is streamed once and reused across every batch lane.
#[allow(unsafe_code)]
pub fn qmatmul_rows_xt(
    out: &mut [f32],
    w: &QuantMatrix,
    xt: &[f32],
    rows: Range<usize>,
    batch: usize,
) {
    assert_eq!(out.len(), rows.len() * batch);
    assert!(rows.end <= w.rows());
    assert_eq!(xt.len(), w.cols() * batch);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `kernel_avx2` is a safe function whose only extra
        // requirement is that the CPU executes AVX2 instructions, and the
        // line above has just observed that this one does. It is `kernel`
        // under another instruction selection: all memory access is
        // through the same bounds-checked slices.
        return unsafe { kernel_avx2(out, w, xt, rows, batch) };
    }
    kernel(out, w, xt, rows, batch);
}

/// Batched fused dequant-GEMM with weight reuse: `out[r * batch + b] =
/// dequant(w[r, :]) · xs[b]` for sequence-major activations, row-major
/// output — the quantized twin of [`crate::ops::matmul`]. A batch of B
/// decode steps streams the compressed matrix once instead of B times,
/// and every element is bit-identical to a [`qmatvec`] call.
pub fn qmatmul(out: &mut [f32], w: &QuantMatrix, xs: &[f32], batch: usize) {
    debug_assert_eq!(xs.len(), batch * w.cols());
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

    /// The baseline and the run-time-selected instantiation of the kernel
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
                let mut portable = vec![f32::NAN; range.len() * batch];
                kernel(&mut portable, &qm, &xt, range.clone(), batch);
                let mut detected = vec![f32::NAN; range.len() * batch];
                qmatmul_rows_xt(&mut detected, &qm, &xt, range, batch);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&portable), bits(&detected), "{kind:?} batch {batch}");
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
