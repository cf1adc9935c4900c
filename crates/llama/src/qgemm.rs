//! Fused dequant-GEMM kernel over group-quantized weights.
//!
//! One pass over the quantized weight matrix per batched tick, with the
//! shape of the kernel-order f32 kernel
//! ([`crate::ops::tiled_matmul_rows_xt`]). [`QuantMatrix`] is stored in
//! the order the kernel consumes it — [`ROW_TILE`] rows interleaved
//! column by column — so each column of a row tile is one vector load,
//! converted and scaled **once** in registers ([`dequant_column_pair`])
//! and then applied to every lane of the lane block. The compressed
//! payload, not an f32 expansion, is all that leaves memory, and nothing
//! is staged or transposed on the way.
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
//! The kernel body is compiled three times — at the build's baseline,
//! with AVX2 one tile per step, and with AVX-512 two adjacent tiles per
//! step — and [`qmatmul_rows_xt`] picks one per call. All run the same
//! IEEE operations in the same order, so they agree bit for bit. Unlike
//! the f32 kernel, the quantized one is bound by its dequantization at
//! every width, width 1 included, so the AVX-512 copy runs from width 1.

use crate::ops::{
    accumulate_lanes, transpose_batch_major, write_lanes, LaneAccs, GROUP_LANES, MAX_LANES,
    ROW_TILE,
};
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

/// Lanes `b0..b0 + A + B` of row tiles `t..t + T`: `acc[l][j][i] =
/// dequant(w[(t + j) * ROW_TILE + i, :]) · x_{b0 + l}`, lanes past `A + B`
/// zero. Every column of the `T` tiles is dequantized once and applied to
/// all lanes, which go in two accumulator groups, `A` then `B`.
#[inline(always)]
fn lane_block<const T: usize, const A: usize, const B: usize>(
    w: &QuantMatrix,
    kind: QuantKind,
    t: usize,
    xt: &[f32],
    batch: usize,
    b0: usize,
) -> LaneAccs<ROW_TILE, T> {
    let mut a = [[[0.0f32; ROW_TILE]; T]; A];
    let mut b = [[[0.0f32; ROW_TILE]; T]; B];
    // Plain loops, not `array::from_fn`: a closure the compiler leaves
    // out of line spills every accumulator around its call.
    for (g, xg) in xt.chunks(GROUP * batch).enumerate() {
        let mut blocks = [w.tile_group(t, g); T];
        for (j, block) in blocks.iter_mut().enumerate().skip(1) {
            *block = w.tile_group(t + j, g);
        }
        // Two columns a step; a row's last group may end on an odd one.
        for (p, xp) in xg.chunks(2 * batch).enumerate() {
            let mut w0 = [[0.0f32; ROW_TILE]; T];
            let mut w1 = [[0.0f32; ROW_TILE]; T];
            for (j, &(scales, quants)) in blocks.iter().enumerate() {
                [w0[j], w1[j]] = dequant_column_pair(kind, scales, quants, p);
            }
            accumulate_lanes(&mut a, &w0, &xp[b0..]);
            accumulate_lanes(&mut b, &w0, &xp[b0 + A..]);
            if xp.len() > batch {
                accumulate_lanes(&mut a, &w1, &xp[batch + b0..]);
                accumulate_lanes(&mut b, &w1, &xp[batch + b0 + A..]);
            }
        }
    }
    let mut lanes = [[[0.0f32; ROW_TILE]; T]; MAX_LANES];
    lanes[..A].copy_from_slice(&a);
    lanes[A..A + B].copy_from_slice(&b);
    lanes
}

/// The one quantized kernel body, `T` tiles per step: the tiles that
/// overlap `rows`, `T` adjacent ones at a time and a leftover one alone,
/// each in lane blocks of [`MAX_LANES`] and then one block of exactly the
/// lanes left over. A tile on the edge of `rows`, or the padded last
/// tile, is computed whole and written in part — after the `match`, not
/// in `lane_block`, for the reason [`write_lanes`] gives.
#[inline(always)]
fn body<const T: usize>(
    out: &mut [f32],
    w: &QuantMatrix,
    xt: &[f32],
    rows: Range<usize>,
    batch: usize,
) {
    #[inline(always)]
    fn tiles<const T: usize>(
        out: &mut [f32],
        w: &QuantMatrix,
        kind: QuantKind,
        t: usize,
        xt: &[f32],
        rows: &Range<usize>,
        batch: usize,
    ) {
        const G: usize = GROUP_LANES;
        for b0 in (0..batch).step_by(MAX_LANES) {
            let lanes = (batch - b0).min(MAX_LANES);
            let acc = match lanes {
                1 => lane_block::<T, 1, 0>(w, kind, t, xt, batch, b0),
                2 => lane_block::<T, 2, 0>(w, kind, t, xt, batch, b0),
                3 => lane_block::<T, 3, 0>(w, kind, t, xt, batch, b0),
                4 => lane_block::<T, G, 0>(w, kind, t, xt, batch, b0),
                5 => lane_block::<T, G, 1>(w, kind, t, xt, batch, b0),
                6 => lane_block::<T, G, 2>(w, kind, t, xt, batch, b0),
                7 => lane_block::<T, G, 3>(w, kind, t, xt, batch, b0),
                _ => lane_block::<T, G, G>(w, kind, t, xt, batch, b0),
            };
            write_lanes(out, &acc, lanes, t * ROW_TILE, rows, batch, b0);
        }
    }
    #[inline(always)]
    fn walk<const T: usize>(
        out: &mut [f32],
        w: &QuantMatrix,
        kind: QuantKind,
        xt: &[f32],
        rows: &Range<usize>,
        batch: usize,
    ) {
        let (mut t, end) = (rows.start / ROW_TILE, rows.end.div_ceil(ROW_TILE));
        while t + T <= end {
            tiles::<T>(out, w, kind, t, xt, rows, batch);
            t += T;
        }
        for t in t..end {
            tiles::<1>(out, w, kind, t, xt, rows, batch);
        }
    }
    // A literal kind per arm, so each inlined copy decodes one encoding.
    match w.kind() {
        QuantKind::Int8 => walk::<T>(out, w, QuantKind::Int8, xt, &rows, batch),
        QuantKind::Int4 => walk::<T>(out, w, QuantKind::Int4, xt, &rows, batch),
    }
}

/// [`body`] one tile per step, at the build's baseline.
#[inline(always)]
fn kernel(out: &mut [f32], w: &QuantMatrix, xt: &[f32], rows: Range<usize>, batch: usize) {
    body::<1>(out, w, xt, rows, batch);
}

/// [`kernel`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn kernel_avx2(out: &mut [f32], w: &QuantMatrix, xt: &[f32], rows: Range<usize>, batch: usize) {
    kernel(out, w, xt, rows, batch);
}

/// [`body`] two tiles per step, compiled with AVX-512 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn kernel_avx512(out: &mut [f32], w: &QuantMatrix, xt: &[f32], rows: Range<usize>, batch: usize) {
    body::<2>(out, w, xt, rows, batch);
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
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: `kernel_avx512` is a safe function whose only extra
        // requirement is that the CPU executes AVX-512F instructions, and
        // the line above has just observed that this one does. It is
        // `body` under another instruction selection: all memory access
        // is through the same bounds-checked slices.
        return unsafe { kernel_avx512(out, w, xt, rows, batch) };
    }
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

    /// The two-tile instantiation of the kernel body, compiled at the
    /// baseline, is `dot` over the dequantized row bit for bit — over an
    /// odd tile left after the pairs, the padded last tile, every
    /// lane-group split of batches up to 33, and ranges that cut tiles and
    /// pairs.
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
                            let mut out = vec![f32::NAN; range.len() * batch];
                            body::<2>(&mut out, &qm, &xt, range.clone(), batch);
                            for r in range.clone() {
                                for b in 0..batch {
                                    let want = crate::ops::dot(
                                        &deq[r * cols..(r + 1) * cols],
                                        &xs[b * cols..(b + 1) * cols],
                                    );
                                    assert_eq!(
                                        out[(r - range.start) * batch + b].to_bits(),
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
    /// both baseline instantiations bit for bit. On a host without
    /// AVX-512 the selected side is a one-tile copy.
    #[test]
    fn avx512_and_baseline_instantiations_agree_bitwise() {
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for kind in [QuantKind::Int8, QuantKind::Int4] {
            for batch in 1..=33 {
                let (rows, cols) = (61, 3 * GROUP + 7);
                let (w, xs) = random_case(rows, cols, batch, 60 + batch as u64);
                let qm = QuantMatrix::quantize_with(&w, rows, cols, kind);
                let xt = transpose_batch_major(&xs, cols, batch);
                for range in row_ranges(rows) {
                    let run =
                        |kernel: fn(&mut [f32], &QuantMatrix, &[f32], Range<usize>, usize)| {
                            let mut out = vec![f32::NAN; range.len() * batch];
                            kernel(&mut out, &qm, &xt, range.clone(), batch);
                            bits(&out)
                        };
                    let detected = run(qmatmul_rows_xt);
                    let at = format!("{kind:?} batch {batch} range {range:?}");
                    assert_eq!(detected, run(body::<2>), "{at}");
                    assert_eq!(detected, run(kernel), "{at}");
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
