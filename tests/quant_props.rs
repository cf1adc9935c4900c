//! Property-based tests (speedllm-testkit) over the quantized weight
//! path (DESIGN.md §18): Q8_0/Q4_0 round-trip error bounds, the
//! tile-interleaved layout against a per-element reference, group-scale
//! monotonicity, nibble pack/unpack exactness, and the bit-identity
//! contract of the fused dequant-GEMM kernels (batched vs per-column).
//!
//! Every property runs a 64-case budget; runs are reproducible from a
//! fixed seed (override with `TESTKIT_SEED=<u64>` to replay a failure).

use speedllm_testkit::prelude::*;

use speedllm::llama::config::ModelConfig;
use speedllm::llama::ops::transpose_batch_major;
use speedllm::llama::qgemm::{qmatmul_rows_xt, qmatvec};
use speedllm::llama::quant::{
    pack_nibbles, unpack_nibbles, QuantKind, QuantMatrix, QuantWeights, GROUP,
};
use speedllm::llama::rng::Xoshiro256;
use speedllm::llama::weights::TransformerWeights;

fn random_matrix(rows: usize, cols: usize, seed: u64, sigma: f32) -> Vec<f32> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut w = vec![0.0f32; rows * cols];
    rng.fill_normal(&mut w, sigma);
    w
}

fn random_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut x = vec![0.0f32; n];
    rng.fill_normal(&mut x, 1.0);
    x
}

props! {
    #![config(cases = 64)]

    fn int8_matrix_round_trip_error_is_bounded(
        rows in 1usize..12,
        cols in 1usize..80,
        seed in any_u64(),
    ) {
        let w = random_matrix(rows, cols, seed, 0.5);
        let qm = QuantMatrix::quantize_with(&w, rows, cols, QuantKind::Int8);
        let back = qm.dequantize();
        let bound = qm.error_bound() + 1e-6;
        for (a, b) in w.iter().zip(&back) {
            prop_assert!((a - b).abs() <= bound, "{} vs {} (bound {})", a, b, bound);
        }
    }

    fn int4_matrix_round_trip_error_is_bounded(
        rows in 1usize..12,
        cols in 1usize..80,
        seed in any_u64(),
    ) {
        let w = random_matrix(rows, cols, seed, 0.5);
        let qm = QuantMatrix::quantize_with(&w, rows, cols, QuantKind::Int4);
        let back = qm.dequantize();
        let bound = qm.error_bound() + 1e-6;
        for (a, b) in w.iter().zip(&back) {
            prop_assert!((a - b).abs() <= bound, "{} vs {} (bound {})", a, b, bound);
        }
        // int4 has 7 steps per half-range vs int8's 127: its bound is
        // strictly coarser on the same payload.
        let q8 = QuantMatrix::quantize_with(&w, rows, cols, QuantKind::Int8);
        prop_assert!(qm.error_bound() >= q8.error_bound());
    }

    fn tile_layout_round_trips_to_the_per_element_reference(
        rows in 1usize..20,
        cols in 1usize..100,
        seed in any_u64(),
    ) {
        // Written without the layout: scale from the group's absmax, then
        // round, clamp and rescale each element. Rows off a multiple of 8
        // end on a padded tile, cols off a multiple of GROUP on a padded
        // group; neither may leak into, or shift, a real element.
        let w = random_matrix(rows, cols, seed, 0.5);
        for kind in [QuantKind::Int8, QuantKind::Int4] {
            let qm = QuantMatrix::quantize_with(&w, rows, cols, kind);
            let back = qm.dequantize();
            prop_assert_eq!(back.len(), rows * cols);
            for r in 0..rows {
                let row = &w[r * cols..(r + 1) * cols];
                for (g, group) in row.chunks(GROUP).enumerate() {
                    let absmax = group.iter().fold(0.0f32, |m, x| m.max(x.abs()));
                    let scale = absmax / kind.max_q();
                    prop_assert_eq!(qm.scale(r, g).to_bits(), scale.to_bits());
                    for (i, x) in group.iter().enumerate() {
                        // A zero group has scale 0: 0/0 is NaN, which casts to 0.
                        let q = (x / scale).round().clamp(-kind.max_q(), kind.max_q()) as i8;
                        let want = f32::from(q) * scale;
                        let got = back[r * cols + g * GROUP + i];
                        prop_assert_eq!(
                            got.to_bits(), want.to_bits(),
                            "{:?} row {} col {}: {} vs {}", kind, r, g * GROUP + i, got, want
                        );
                    }
                }
            }
        }
    }

    fn padding_rows_never_reach_an_output(
        rows in 1usize..24,
        cols in 1usize..70,
        batch in 1usize..10,
        seed in any_u64(),
    ) {
        // A matrix cut to `rows` pads its last tile; its outputs must be
        // the first `rows` outputs of the uncut matrix, every one written.
        let full_rows = 24;
        let w = random_matrix(full_rows, cols, seed, 0.3);
        let xs = random_vec(cols * batch, seed ^ 0x7a11);
        let xt = transpose_batch_major(&xs, cols, batch);
        for kind in [QuantKind::Int8, QuantKind::Int4] {
            let full = QuantMatrix::quantize_with(&w, full_rows, cols, kind);
            let cut = QuantMatrix::quantize_with(&w[..rows * cols], rows, cols, kind);
            let mut want = vec![0.0f32; full_rows * batch];
            qmatmul_rows_xt(&mut want, &full, &xt, 0..full_rows, batch);
            let mut got = vec![f32::NAN; rows * batch];
            qmatmul_rows_xt(&mut got, &cut, &xt, 0..rows, batch);
            for (a, b) in got.iter().zip(&want) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    fn group_scales_are_monotone_under_input_scaling(
        cols in 1usize..100,
        k in 1.5f32..16.0,
        seed in any_u64(),
    ) {
        // Symmetric absmax quantization: scaling the weights by k > 1
        // scales every group scale by exactly k (absmax is homogeneous).
        let w = random_matrix(2, cols, seed, 0.5);
        let scaled: Vec<f32> = w.iter().map(|v| v * k).collect();
        for kind in [QuantKind::Int8, QuantKind::Int4] {
            let qa = QuantMatrix::quantize_with(&w, 2, cols, kind);
            let qb = QuantMatrix::quantize_with(&scaled, 2, cols, kind);
            for (r, g) in (0..2).flat_map(|r| (0..qa.groups_per_row()).map(move |g| (r, g))) {
                let (a, b) = (qa.scale(r, g), qb.scale(r, g));
                prop_assert!(b >= a, "scale shrank under k={}: {} -> {}", k, a, b);
                if a > 0.0 {
                    let ratio = b / a;
                    prop_assert!(
                        (ratio - k).abs() <= k * 1e-5,
                        "scale ratio {} != k {}", ratio, k
                    );
                }
            }
        }
    }

    fn nibble_pack_unpack_is_exact(values in vec_of(-8i8..8, 0..130)) {
        // Q4_0 codes live in [-8, 7] (biased to [0, 15] inside the pack);
        // pack/unpack must be lossless for every length parity.
        let packed = pack_nibbles(&values);
        prop_assert_eq!(packed.len(), values.len().div_ceil(2));
        let back = unpack_nibbles(&packed, values.len());
        prop_assert_eq!(back, values);
    }

    fn batched_qmatmul_is_bit_identical_to_per_column_qmatvec(
        rows in 1usize..10,
        cols in 1usize..70,
        batch in 1usize..10,
        seed in any_u64(),
    ) {
        let w = random_matrix(rows, cols, seed, 0.3);
        for kind in [QuantKind::Int8, QuantKind::Int4] {
            let qm = QuantMatrix::quantize_with(&w, rows, cols, kind);
            // Column-major activations: xs[b * cols ..][.. cols].
            let xs = random_vec(cols * batch, seed ^ 0x9e37);
            let xt = transpose_batch_major(&xs, cols, batch);
            let mut got = vec![0.0f32; rows * batch];
            qmatmul_rows_xt(&mut got, &qm, &xt, 0..rows, batch);
            for b in 0..batch {
                let mut want = vec![0.0f32; rows];
                qmatvec(&mut want, &qm, &xs[b * cols..(b + 1) * cols]);
                for (r, wv) in want.iter().enumerate() {
                    prop_assert_eq!(
                        got[r * batch + b].to_bits(),
                        wv.to_bits(),
                        "row {} lane {} differs", r, b
                    );
                }
            }
        }
    }
}

/// The layout changes where bytes sit, not how many a token streams:
/// `bytes()` stays the logical payload (no row or column padding), so the
/// benchmark's `llama.weight_mb_per_token` cannot move.
#[test]
fn stream_bytes_are_the_logical_payload() {
    let ragged = random_matrix(13, 40, 1, 0.5);
    let q8 = QuantMatrix::quantize_with(&ragged, 13, 40, QuantKind::Int8);
    assert_eq!(q8.bytes(), 13 * (40 + 2 * 4));
    let q4 = QuantMatrix::quantize_with(&ragged, 13, 40, QuantKind::Int4);
    assert_eq!(q4.bytes(), 13 * (20 + 2 * 4));

    let weights = TransformerWeights::synthetic(ModelConfig::stories15m(), 1);
    for (kind, bytes) in [(QuantKind::Int8, 17_086_464), (QuantKind::Int4, INT4_15M)] {
        let q = QuantWeights::quantize(&weights, kind);
        assert_eq!(q.gemm_weight_bytes(), bytes, "{kind:?}");
    }
}
/// Captured on the parent commit (row-major layout).
const INT4_15M: usize = 9_492_480;
