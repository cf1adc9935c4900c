//! Scalar reference kernels for Llama-2 inference.
//!
//! Every kernel operates on plain `f32` slices so the same code backs both
//! the CPU reference forward pass ([`crate::forward`]) and the functional
//! execution inside the accelerator engine. Keeping one set of kernels is
//! what lets integration tests assert that the simulated accelerator is
//! *functionally transparent*: fusion, memory planning, and pipelining may
//! only change timing, never values.
//!
//! Every weight-streaming kernel, here and in [`crate::qgemm`], sums each
//! output element in [`dot`]'s order, so one-row, batched and row-tiled
//! results are bit-identical (see [`tile_accumulate`]).

/// Default RoPE frequency base used by the llama2.c model family.
pub const ROPE_THETA: f32 = 10000.0;

/// Epsilon used inside RMS normalization, matching llama2.c.
pub const RMS_EPS: f32 = 1e-5;

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics (debug) if the lengths differ.
#[inline]
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    // One f32 accumulator, increasing index, mul then add, like llama2.c.
    // This is the reference order: every matvec/matmul element replays it.
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// RMS normalization: `out[i] = x[i] * weight[i] / rms(x)`.
///
/// `out` and `x` may be the same slice via [`rmsnorm_inplace`]; this variant
/// writes to a distinct output.
pub fn rmsnorm(out: &mut [f32], x: &[f32], weight: &[f32]) {
    debug_assert_eq!(out.len(), x.len());
    debug_assert_eq!(x.len(), weight.len());
    let ss = x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ss + RMS_EPS).sqrt();
    for ((o, &xi), &wi) in out.iter_mut().zip(x).zip(weight) {
        *o = xi * inv * wi;
    }
}

/// In-place RMS normalization.
pub fn rmsnorm_inplace(x: &mut [f32], weight: &[f32]) {
    debug_assert_eq!(x.len(), weight.len());
    let ss = x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ss + RMS_EPS).sqrt();
    for (xi, &wi) in x.iter_mut().zip(weight) {
        *xi *= inv * wi;
    }
}

/// Numerically-stable in-place softmax over `x`.
pub fn softmax(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let mut sum = 0.0f32;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in x.iter_mut() {
        *v *= inv;
    }
}

/// Dense matrix–vector product: `out[r] = w[r, :] · x` for a row-major
/// `rows × cols` matrix `w`. The `batch == 1` case of [`matmul_rows_xt`]
/// (a single activation vector is its own batch-major transpose), so each
/// `out[r]` is bit-identical to `dot(w[r, :], x)`.
pub fn matvec(out: &mut [f32], w: &[f32], x: &[f32], rows: usize, cols: usize) {
    debug_assert_eq!(w.len(), rows * cols);
    matmul_rows_xt(out, w, x, 0..rows, cols, 1);
}

/// Transposes sequence-major activations (`xs[b * cols + c]`) into
/// batch-major order (`xt[c * batch + b]`), the layout the batched matmul
/// kernel consumes: all batch lanes for one column sit adjacent, so the
/// inner loop reads them with one contiguous load per weight element.
#[must_use]
pub fn transpose_batch_major(xs: &[f32], cols: usize, batch: usize) -> Vec<f32> {
    debug_assert_eq!(xs.len(), batch * cols);
    let mut xt = vec![0.0f32; cols * batch];
    for (b, x) in xs.chunks_exact(cols).enumerate() {
        for (c, &v) in x.iter().enumerate() {
            xt[c * batch + b] = v;
        }
    }
    xt
}

/// Weight rows per register tile. Measured, not tunable: on the 32000×288
/// classifier at width 1, 4 rows still leave the add chain exposed, 8
/// reach the host's stream bandwidth, and 16 spill the accumulators and
/// give the whole gain back; 8 is also the best or tied-best height for
/// the 2-, 4- and 8-lane blocks.
pub const ROW_TILE: usize = 8;

/// Columns per interleaved block of the one-lane path of [`tile_accumulate`].
const COL_BLOCK: usize = 8;

/// The weight-streaming microkernel, an `R`-row × `L`-lane register tile:
/// `acc[i][l] += Σ_c rows[i][c] · xt[c * batch + b0 + l]`. `xt` is
/// batch-major and starts at the column `rows[i][0]` multiplies.
///
/// Order contract: each `acc[i][l]` is one f32 accumulator that takes its
/// terms in increasing `c`, mul then add — exactly what [`dot`] does. The
/// `R × L` accumulators are *independent output elements*; keeping them
/// live together is what hides the add latency and lets the compiler
/// vectorize, and no element's sum is ever split or reassociated. The
/// quantized kernel ([`crate::qgemm`]) keeps the same contract over its
/// own tile-interleaved storage and does not come through here.
///
/// With several lanes the compiler vectorizes across them. With one lane
/// there is nothing to vectorize across but the rows, whose elements sit
/// `cols` apart in memory, so that path first copies each
/// `R × COL_BLOCK` block row-interleaved.
#[inline(always)]
pub(crate) fn tile_accumulate<const R: usize, const L: usize>(
    acc: &mut [[f32; L]; R],
    rows: [&[f32]; R],
    xt: &[f32],
    batch: usize,
    b0: usize,
) {
    let cols = rows[0].len();
    let mut c = 0;
    if L == 1 {
        while c + COL_BLOCK <= cols {
            let mut block = [[0.0f32; R]; COL_BLOCK];
            for (i, row) in rows.iter().enumerate() {
                let seg: &[f32; COL_BLOCK] = row[c..c + COL_BLOCK]
                    .try_into()
                    .expect("column block in bounds");
                for (j, &wv) in seg.iter().enumerate() {
                    block[j][i] = wv;
                }
            }
            for (j, wcol) in block.iter().enumerate() {
                let x = xt[(c + j) * batch + b0];
                for i in 0..R {
                    acc[i][0] += wcol[i] * x;
                }
            }
            c += COL_BLOCK;
        }
    }
    for c in c..cols {
        let x: &[f32; L] = xt[c * batch + b0..][..L]
            .try_into()
            .expect("lane block in bounds");
        for i in 0..R {
            for l in 0..L {
                acc[i][l] += rows[i][c] * x[l];
            }
        }
    }
}

/// One `R`-row tile of [`matmul_rows_xt`]: `w` holds the tile's `R` rows,
/// `out` its `R × batch` results. Lanes go in blocks of 8/4/2/1, so a tile
/// is read from memory once and from L1 for every further block.
fn matmul_tile<const R: usize>(out: &mut [f32], w: &[f32], xt: &[f32], cols: usize, batch: usize) {
    fn lanes<const R: usize, const L: usize>(
        out: &mut [f32],
        rows: [&[f32]; R],
        xt: &[f32],
        batch: usize,
        b0: usize,
    ) {
        let mut acc = [[0.0f32; L]; R];
        tile_accumulate(&mut acc, rows, xt, batch, b0);
        for (out_row, a) in out.chunks_exact_mut(batch).zip(&acc) {
            out_row[b0..b0 + L].copy_from_slice(a);
        }
    }
    let rows: [&[f32]; R] = std::array::from_fn(|i| &w[i * cols..(i + 1) * cols]);
    let mut b0 = 0;
    while b0 + 8 <= batch {
        lanes::<R, 8>(out, rows, xt, batch, b0);
        b0 += 8;
    }
    if b0 + 4 <= batch {
        lanes::<R, 4>(out, rows, xt, batch, b0);
        b0 += 4;
    }
    if b0 + 2 <= batch {
        lanes::<R, 2>(out, rows, xt, batch, b0);
        b0 += 2;
    }
    if b0 < batch {
        lanes::<R, 1>(out, rows, xt, batch, b0);
    }
}

/// Batched matmul inner kernel over pre-transposed (batch-major)
/// activations: `out[(r - rows.start) * batch + b] = w[r, :] · x_b` for
/// `r` in `rows`. Rows go in tiles of [`ROW_TILE`] (the last
/// `rows.len() % ROW_TILE` one at a time), each tile a [`tile_accumulate`]
/// per lane block, so every weight is streamed once and reused across
/// every batch lane, and every element equals `dot(w[r, :], x_b)` bit for
/// bit. [`matvec`] is the `batch == 1` case, and a sub-range of rows
/// computes the same elements as the full range.
pub fn matmul_rows_xt(
    out: &mut [f32],
    w: &[f32],
    xt: &[f32],
    rows: std::ops::Range<usize>,
    cols: usize,
    batch: usize,
) {
    debug_assert_eq!(out.len(), rows.len() * batch);
    debug_assert!(rows.end * cols <= w.len());
    debug_assert_eq!(xt.len(), cols * batch);
    let tiled = rows.len() / ROW_TILE * ROW_TILE;
    let (out_tiles, out_tail) = out.split_at_mut(tiled * batch);
    for (o, r0) in out_tiles
        .chunks_exact_mut(ROW_TILE * batch)
        .zip(rows.clone().step_by(ROW_TILE))
    {
        matmul_tile::<ROW_TILE>(o, &w[r0 * cols..(r0 + ROW_TILE) * cols], xt, cols, batch);
    }
    for (o, r) in out_tail
        .chunks_exact_mut(batch)
        .zip(rows.start + tiled..rows.end)
    {
        matmul_tile::<1>(o, &w[r * cols..(r + 1) * cols], xt, cols, batch);
    }
}

/// Batched dense matmul with weight reuse: `out[r * batch + b] =
/// w[r, :] · xs[b]` for a row-major `rows × cols` matrix `w` and `batch`
/// activation columns stored sequence-major (`xs[b * cols..(b + 1) * cols]`
/// is sequence `b`'s vector, the same layout the forward pass keeps its
/// per-sequence scratch in).
///
/// The output is **row-major** (`[rows][batch]`): all batch results for one
/// weight row are adjacent, which is what lets the kernel stream each
/// weight row exactly once and reuse it across the whole batch — a batch of
/// B decode steps reads `rows × cols` weights once instead of B times. The
/// activations are transposed to batch-major once (O(cols·batch), nothing
/// next to the O(rows·cols·batch) GEMM) so [`matmul_rows_xt`] can read all
/// lanes of a column with one contiguous load; each element replays
/// [`dot`]'s exact accumulation order, so a batched result is
/// **bit-identical** to `batch` independent [`matvec`] calls.
pub fn matmul(out: &mut [f32], w: &[f32], xs: &[f32], rows: usize, cols: usize, batch: usize) {
    debug_assert_eq!(out.len(), rows * batch);
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(xs.len(), batch * cols);
    let xt = transpose_batch_major(xs, cols, batch);
    matmul_rows_xt(out, w, &xt, 0..rows, cols, batch);
}

/// SiLU (sigmoid-weighted linear unit): `x * σ(x)`.
#[inline]
#[must_use]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// SwiGLU gate: `h1[i] = silu(h1[i]) * h3[i]`, in place in `h1`.
pub fn swiglu(h1: &mut [f32], h3: &[f32]) {
    debug_assert_eq!(h1.len(), h3.len());
    for (a, &b) in h1.iter_mut().zip(h3) {
        *a = silu(*a) * b;
    }
}

/// Element-wise residual accumulation: `acc[i] += delta[i]`.
pub fn add_inplace(acc: &mut [f32], delta: &[f32]) {
    debug_assert_eq!(acc.len(), delta.len());
    for (a, &d) in acc.iter_mut().zip(delta) {
        *a += d;
    }
}

/// Applies rotary position embeddings in the llama2.c convention: adjacent
/// pairs within each `head_dim`-wide head of `v` are rotated by
/// `pos · θ^(−i/head_dim)`.
pub fn rope_inplace(v: &mut [f32], pos: usize, head_dim: usize, theta: f32) {
    debug_assert_eq!(v.len() % head_dim, 0, "vector not a whole number of heads");
    debug_assert_eq!(head_dim % 2, 0, "head_dim must be even");
    for head in v.chunks_mut(head_dim) {
        for i in (0..head_dim).step_by(2) {
            let freq = 1.0 / theta.powf(i as f32 / head_dim as f32);
            let angle = pos as f32 * freq;
            let (sin, cos) = angle.sin_cos();
            let (v0, v1) = (head[i], head[i + 1]);
            head[i] = v0 * cos - v1 * sin;
            head[i + 1] = v0 * sin + v1 * cos;
        }
    }
}

/// Attention scores for one head: `scores[t] = q · k_t / sqrt(head_dim)` for
/// `t` in `0..=pos`, where `key_at(t)` yields the cached key row.
pub fn attention_scores<'k>(
    scores: &mut [f32],
    q: &[f32],
    mut key_at: impl FnMut(usize) -> &'k [f32],
    pos: usize,
) {
    debug_assert!(scores.len() > pos);
    let scale = 1.0 / (q.len() as f32).sqrt();
    for (t, s) in scores.iter_mut().enumerate().take(pos + 1) {
        *s = dot(q, key_at(t)) * scale;
    }
}

/// Weighted value mix for one head: `out = Σ_t probs[t] · v_t`.
pub fn attention_mix<'v>(
    out: &mut [f32],
    probs: &[f32],
    mut value_at: impl FnMut(usize) -> &'v [f32],
    pos: usize,
) {
    out.fill(0.0);
    for (t, &p) in probs.iter().enumerate().take(pos + 1) {
        let v = value_at(t);
        debug_assert_eq!(v.len(), out.len());
        for (o, &vi) in out.iter_mut().zip(v) {
            *o += p * vi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn rmsnorm_matches_hand_computation() {
        let x = [3.0f32, 4.0];
        let w = [1.0f32, 2.0];
        let mut out = [0.0f32; 2];
        rmsnorm(&mut out, &x, &w);
        // rms = sqrt((9+16)/2 + eps) ≈ sqrt(12.5)
        let inv = 1.0 / (12.5f32 + RMS_EPS).sqrt();
        assert_close(out[0], 3.0 * inv, 1e-6);
        assert_close(out[1], 4.0 * inv * 2.0, 1e-6);
    }

    #[test]
    fn rmsnorm_inplace_matches_out_of_place() {
        let x = [0.5f32, -1.25, 2.0, 0.0];
        let w = [1.0f32, 0.5, -1.0, 2.0];
        let mut a = [0.0f32; 4];
        rmsnorm(&mut a, &x, &w);
        let mut b = x;
        rmsnorm_inplace(&mut b, &w);
        for (x, y) in a.iter().zip(&b) {
            assert_close(*x, *y, 1e-7);
        }
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut x = [1.0f32, 2.0, 3.0];
        softmax(&mut x);
        assert_close(x.iter().sum::<f32>(), 1.0, 1e-6);
        assert!(x[2] > x[1] && x[1] > x[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = [1.0f32, 2.0, 3.0];
        let mut b = [1001.0f32, 1002.0, 1003.0];
        softmax(&mut a);
        softmax(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_close(*x, *y, 1e-6);
        }
    }

    #[test]
    fn softmax_handles_extremes() {
        let mut x = [f32::NEG_INFINITY, 0.0];
        softmax(&mut x);
        assert_close(x[0], 0.0, 1e-9);
        assert_close(x[1], 1.0, 1e-9);
        let mut empty: [f32; 0] = [];
        softmax(&mut empty);
    }

    #[test]
    fn matvec_identity() {
        let w = [1.0f32, 0.0, 0.0, 1.0]; // 2x2 identity
        let x = [7.0f32, -3.0];
        let mut out = [0.0f32; 2];
        matvec(&mut out, &w, &x, 2, 2);
        assert_eq!(out, x);
    }

    #[test]
    fn matvec_rectangular() {
        // 2x3 matrix
        let w = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x = [1.0f32, 0.0, -1.0];
        let mut out = [0.0f32; 2];
        matvec(&mut out, &w, &x, 2, 3);
        assert_eq!(out, [-2.0, -2.0]);
    }

    #[test]
    fn matmul_is_bit_identical_to_per_column_matvec() {
        let (rows, cols) = (5usize, 9usize);
        let w: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 31 % 17) as f32) * 0.37 - 4.0)
            .collect();
        for batch in [1usize, 2, 3, 8] {
            let xs: Vec<f32> = (0..batch * cols)
                .map(|i| (i as f32 * 0.21).cos() * 1.7)
                .collect();
            let mut batched = vec![0.0f32; rows * batch];
            matmul(&mut batched, &w, &xs, rows, cols, batch);
            for b in 0..batch {
                let mut single = vec![0.0f32; rows];
                matvec(&mut single, &w, &xs[b * cols..(b + 1) * cols], rows, cols);
                for r in 0..rows {
                    // Exact: the batched kernel must not reassociate.
                    assert_eq!(batched[r * batch + b], single[r], "r={r} b={b}");
                }
            }
        }
    }

    #[test]
    fn matmul_batch_one_equals_matvec() {
        let (rows, cols) = (4usize, 6usize);
        let w: Vec<f32> = (0..rows * cols).map(|i| i as f32 - 11.0).collect();
        let x: Vec<f32> = (0..cols).map(|i| (i as f32).sin()).collect();
        let mut mv = vec![0.0f32; rows];
        matvec(&mut mv, &w, &x, rows, cols);
        let mut mm = vec![0.0f32; rows];
        matmul(&mut mm, &w, &x, rows, cols, 1);
        assert_eq!(mv, mm);
    }

    #[test]
    fn silu_fixed_points() {
        assert_close(silu(0.0), 0.0, 1e-9);
        assert!(silu(10.0) > 9.99);
        assert!(silu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn swiglu_combines() {
        let mut h1 = [1.0f32, -1.0];
        let h3 = [2.0f32, 3.0];
        swiglu(&mut h1, &h3);
        assert_close(h1[0], silu(1.0) * 2.0, 1e-6);
        assert_close(h1[1], silu(-1.0) * 3.0, 1e-6);
    }

    #[test]
    fn add_inplace_accumulates() {
        let mut acc = [1.0f32, 2.0];
        add_inplace(&mut acc, &[10.0, 20.0]);
        assert_eq!(acc, [11.0, 22.0]);
    }

    #[test]
    fn rope_at_pos_zero_is_identity() {
        let mut v = [0.3f32, -0.7, 1.1, 0.0];
        let orig = v;
        rope_inplace(&mut v, 0, 4, ROPE_THETA);
        for (a, b) in v.iter().zip(&orig) {
            assert_close(*a, *b, 1e-7);
        }
    }

    #[test]
    fn rope_preserves_norm() {
        let mut v: Vec<f32> = (0..8).map(|i| (i as f32 * 0.7).cos()).collect();
        let norm0: f32 = v.iter().map(|x| x * x).sum();
        rope_inplace(&mut v, 17, 4, ROPE_THETA);
        let norm1: f32 = v.iter().map(|x| x * x).sum();
        assert_close(norm0, norm1, 1e-4);
    }

    #[test]
    fn rope_first_pair_rotates_by_pos_radians() {
        // For i=0 the frequency is exactly 1, so the first pair rotates by
        // `pos` radians.
        let mut v = [1.0f32, 0.0, 0.0, 0.0];
        rope_inplace(&mut v, 1, 4, ROPE_THETA);
        assert_close(v[0], 1.0f32.cos(), 1e-6);
        assert_close(v[1], 1.0f32.sin(), 1e-6);
    }

    #[test]
    fn attention_scores_and_mix_single_key() {
        let q = [1.0f32, 0.0];
        let k = [2.0f32, 0.0];
        let v = [5.0f32, 7.0];
        let mut scores = [0.0f32; 1];
        attention_scores(&mut scores, &q, |_| &k[..], 0);
        assert_close(scores[0], 2.0 / (2.0f32).sqrt(), 1e-6);
        softmax(&mut scores);
        let mut out = [0.0f32; 2];
        attention_mix(&mut out, &scores, |_| &v[..], 0);
        assert_eq!(out, v);
    }

    #[test]
    fn attention_mix_weights_values() {
        let probs = [0.25f32, 0.75];
        let v0 = [4.0f32];
        let v1 = [8.0f32];
        let mut out = [0.0f32];
        attention_mix(
            &mut out,
            &probs,
            |t| if t == 0 { &v0[..] } else { &v1[..] },
            1,
        );
        assert_close(out[0], 0.25 * 4.0 + 0.75 * 8.0, 1e-6);
    }
}
