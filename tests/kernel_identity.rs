//! Pins the weight-streaming kernels to the numbers, not to each other.
//!
//! The repo's identity suites compare one kernel path with another
//! (batched vs per-column, N-row vs one-row runs), so a change that
//! reassociates *every* path the same way would pass them all. These tests
//! compare against things the kernels cannot drag along:
//!
//! * a property: every output element of every body the walk streams
//!   through `cores::Gemm` (f32 in kernel order, f32 in split order
//!   rebuilt exactly, int8 and int4), and of the one-row `ops::matvec` and
//!   `qgemm::qmatvec`, over row counts that straddle two row tiles (so the
//!   tile-interleaved layouts end on a ragged, padded tile) and one or two
//!   split-order groups, column counts on and off the 8-column and `GROUP`
//!   boundaries, every lane-block width, and row sub-ranges that start and
//!   end inside a tile, bitwise equals a plain single-accumulator loop
//!   written here;
//! * golden digests: FNV-1a over the logits' bits of the tiny synthetic
//!   model, captured before the row-tiled kernels existed.
//!
//! Runs are reproducible from a fixed seed (override with
//! `TESTKIT_SEED=<u64>` to replay a failure).

use speedllm_testkit::prelude::*;

use speedllm::llama::config::ModelConfig;
use speedllm::llama::cores::Gemm;
use speedllm::llama::forward::Transformer;
use speedllm::llama::kv_cache::KvCache;
use speedllm::llama::ops::{self, ROW_TILE};
use speedllm::llama::qgemm::qmatvec;
use speedllm::llama::quant::{QuantKind, QuantMatrix, QuantMode, GROUP};
use speedllm::llama::rng::Xoshiro256;
use speedllm::llama::sampler::argmax;
use speedllm::llama::weights::TransformerWeights;
use speedllm::serve::{Backend, CpuBackend};

fn random_vec(n: usize, seed: u64, sigma: f32) -> Vec<f32> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut x = vec![0.0f32; n];
    rng.fill_normal(&mut x, sigma);
    x
}

/// The reference order: one f32 accumulator, increasing column, mul then
/// add. Deliberately not `ops::dot`, so the oracle shares no code with the
/// kernels under test.
fn reference(w: &[f32], xs: &[f32], rows: usize, cols: usize, batch: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * batch];
    for r in 0..rows {
        for b in 0..batch {
            let mut acc = 0.0f32;
            for c in 0..cols {
                acc += w[r * cols + c] * xs[b * cols + c];
            }
            out[r * batch + b] = acc;
        }
    }
    out
}

fn bits_equal(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Runs `kernel` into a NaN-filled buffer of `len` elements.
fn run(len: usize, kernel: impl FnOnce(&mut [f32])) -> Vec<f32> {
    let mut out = vec![f32::NAN; len];
    kernel(&mut out);
    out
}

/// Runs every entry point over one `rows × cols` matrix at `batch` lanes
/// and returns the name of the first whose output differs from the
/// reference loop.
fn first_mismatch(rows: usize, cols: usize, batch: usize, seed: u64) -> Option<String> {
    let w = random_vec(rows * cols, seed, 0.3);
    let xs = random_vec(batch * cols, seed ^ 0x51ed, 1.0);
    let xt = ops::transpose_batch_major(&xs, cols, batch);
    // Each body runs over the whole matrix and over views that cut its
    // storage units (tiles, split groups): a strict middle range, all but
    // the first row, all but the last, and one row from the middle.
    let ranges = [
        0..rows,
        rows / 3..rows - rows / 4,
        rows.min(1)..rows,
        0..rows.saturating_sub(1),
        rows / 2..(rows / 2 + 1).min(rows),
    ];
    let (mut kernel, mut split) = (w.clone(), w.clone());
    ops::to_kernel_order(&mut kernel, rows, cols);
    ops::to_split_order(&mut split, rows, cols);
    let q8 = QuantMatrix::quantize_with(&w, rows, cols, QuantKind::Int8);
    let q4 = QuantMatrix::quantize_with(&w, rows, cols, QuantKind::Int4);
    let want = reference(&w, &xs, rows, cols, batch);
    let want8 = reference(&q8.dequantize(), &xs, rows, cols, batch);
    let want4 = reference(&q4.dequantize(), &xs, rows, cols, batch);

    // (entry point, its output, the reference for that output)
    let mut cases: Vec<(String, Vec<f32>, Vec<f32>)> = Vec::new();
    if batch == 1 {
        cases.push((
            "ops::matvec".to_string(),
            run(rows, |o| ops::matvec(o, &w, &xs, rows, cols)),
            want.clone(),
        ));
        for (qm, want) in [(&q8, &want8), (&q4, &want4)] {
            cases.push((
                format!("{:?} qmatvec", qm.kind()),
                run(rows, |o| qmatvec(o, qm, &xs)),
                want.clone(),
            ));
        }
    }
    let gemms = [
        ("KernelOrder", Gemm::KernelOrder(&kernel, cols), &want),
        ("SplitExact", Gemm::SplitExact(&split, cols), &want),
        ("Quant Int8", Gemm::Quant(&q8), &want8),
        ("Quant Int4", Gemm::Quant(&q4), &want4),
    ];
    for (name, gemm, want) in gemms {
        for range in &ranges {
            cases.push((
                format!("Gemm::{name} {range:?}"),
                run(range.len() * batch, |o| {
                    gemm.run(o, &xt, range.clone(), batch)
                }),
                want[range.start * batch..range.end * batch].to_vec(),
            ));
        }
    }

    cases
        .into_iter()
        .find(|(_, got, want)| !bits_equal(got, want))
        .map(|(name, ..)| name)
}

props! {
    #![config(cases = 24)]

    fn every_element_replays_the_single_accumulator_order(
        alignment in 0usize..3,
        n in 1usize..12,
        seed in any_u64(),
    ) {
        // Whole groups; whole 8-column blocks; neither.
        let cols = match alignment {
            0 => n * GROUP,
            1 => n * 8,
            _ => n * 8 + 1 + (seed % 7) as usize,
        };
        // Up to two row tiles and one more row; then one split-order
        // group (32 rows) and two, each with a tail row.
        for rows in (0..=2 * ROW_TILE + 1).chain([33, 65]) {
            for batch in 1..=11 {
                let bad = first_mismatch(rows, cols, batch, seed);
                prop_assert!(
                    bad.is_none(),
                    "{} differs at rows {} cols {} batch {}",
                    bad.unwrap_or_default(), rows, cols, batch
                );
            }
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_logits(mut hash: u64, logits: &[f32]) -> u64 {
    for v in logits {
        for byte in v.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

const PROMPT: [u32; 9] = [1, 17, 42, 5, 63, 8, 29, 0, 33];
const DECODE_STEPS: usize = 8;

fn tiny_model(mode: QuantMode) -> Transformer {
    let weights = TransformerWeights::synthetic(ModelConfig::test_tiny(), 42);
    let mut model = Transformer::new(weights);
    model.set_quant_mode(mode);
    model
}

/// Digest of the logits after the prompt's last token and after each of
/// eight greedy decode steps, token by token through `forward_with_kv`.
fn digest_sequential(mode: QuantMode) -> u64 {
    let mut model = tiny_model(mode);
    let mut kv = KvCache::new(&ModelConfig::test_tiny());
    let mut hash = FNV_OFFSET;
    let mut next = 0u32;
    for (pos, &tok) in PROMPT.iter().enumerate() {
        let logits = model.forward_with_kv(&mut kv, tok, pos);
        if pos + 1 == PROMPT.len() {
            hash = fnv1a_logits(hash, logits);
            next = argmax(logits);
        }
    }
    for step in 0..DECODE_STEPS {
        let logits = model.forward_with_kv(&mut kv, next, PROMPT.len() + step);
        hash = fnv1a_logits(hash, logits);
        next = argmax(logits);
    }
    hash
}

/// The same nine logit vectors through the serve backend's verbs.
fn digest_backend(mode: QuantMode) -> u64 {
    let mut backend = CpuBackend::new(tiny_model(mode));
    let mut slot = backend.new_slot();
    let (logits, _) = backend.prefill(&mut slot, &PROMPT, 0);
    let mut hash = fnv1a_logits(FNV_OFFSET, &logits);
    let mut next = argmax(&logits);
    for _ in 0..DECODE_STEPS {
        let (logits, _) = backend.decode(&mut [&mut slot], &[next]);
        hash = fnv1a_logits(hash, &logits[0]);
        next = argmax(&logits[0]);
    }
    hash
}

/// Captured on the commit before the row-tiled kernels (PR 11, `79b6f28`),
/// where `matvec` was a per-row `dot` loop and `prefill` ran token by
/// token. Any reassociation of any GEMM element changes them.
#[test]
fn tiny_model_logits_match_the_pre_tiling_digests() {
    for (mode, golden) in [
        (QuantMode::F32, GOLDEN_F32),
        (QuantMode::Int8, GOLDEN_INT8),
        (QuantMode::Int4, GOLDEN_INT4),
    ] {
        assert_eq!(
            digest_sequential(mode),
            golden,
            "{mode:?}: forward_with_kv logits moved ({:#018x})",
            digest_sequential(mode)
        );
        assert_eq!(
            digest_backend(mode),
            golden,
            "{mode:?}: CpuBackend prefill/decode logits moved ({:#018x})",
            digest_backend(mode)
        );
    }
}

const GOLDEN_F32: u64 = 0x8dc0_4624_3471_f2d6;
const GOLDEN_INT8: u64 = 0x9aad_e2b8_3af6_e5f5;
const GOLDEN_INT4: u64 = 0x4bc9_433e_c1db_6b98;

/// Digest of all 32 logit vectors of a greedy walk from token 1 to the
/// context limit (positions `0..=31`, GQA 4/2), one token per
/// `Transformer::forward_with_kv` call on one cache.
fn digest_full_context(cfg: ModelConfig, mode: QuantMode) -> u64 {
    let mut model = Transformer::new(TransformerWeights::synthetic(cfg, 42));
    model.set_quant_mode(mode);
    let mut kv = KvCache::new(&cfg);
    let mut hash = FNV_OFFSET;
    let mut next = 1u32;
    for pos in 0..cfg.seq_len {
        let logits = model.forward_with_kv(&mut kv, next, pos);
        hash = fnv1a_logits(hash, logits);
        next = argmax(logits);
    }
    hash
}

/// Captured on PR 12 (`88c7abe`) from the token-at-a-time layer walk that
/// commit still had beside the runs walk, the commit before the two were
/// folded into one. A one-row run must keep reproducing the walk that no
/// longer exists, with a tied and an untied classifier.
#[test]
fn one_row_runs_match_the_sequential_walk_digests() {
    let tiny = ModelConfig::test_tiny();
    let untied = ModelConfig {
        shared_classifier: false,
        ..tiny
    };
    for (cfg, mode, golden) in [
        (tiny, QuantMode::F32, WALK_F32),
        (tiny, QuantMode::Int8, WALK_INT8),
        (tiny, QuantMode::Int4, WALK_INT4),
        (untied, QuantMode::F32, WALK_UNTIED_F32),
    ] {
        let got = digest_full_context(cfg, mode);
        assert_eq!(
            got, golden,
            "{mode:?} untied={}: logits moved ({got:#018x})",
            !cfg.shared_classifier
        );
    }
}

const WALK_F32: u64 = 0xb7e3_ddbd_1c0e_445d;
const WALK_INT8: u64 = 0x426c_4bae_0699_b7da;
const WALK_INT4: u64 = 0x4383_59c8_214b_162b;
const WALK_UNTIED_F32: u64 = 0x2dcc_c179_4d2f_d340;
