//! Cross-crate functional-equivalence tests: the simulated accelerator must
//! produce the same logits as the CPU reference for every optimization
//! variant — the co-design changes timing, never values.

use std::sync::Arc;

use speedllm::accel::engine::{Engine, StepResult};
use speedllm::accel::opt::OptConfig;
use speedllm::llama::config::ModelConfig;
use speedllm::llama::forward::{LogitRows, Transformer};
use speedllm::llama::kv_cache::KvCache;
use speedllm::llama::weights::TransformerWeights;
use speedllm::pagedkv::{BlockAllocator, BlockConfig, KvSpace, SeqKv};

fn max_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .fold(0.0f32, |m, (x, y)| m.max((x - y).abs()))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One `Last` pass of `tokens` extending `seq`.
fn pass(e: &mut Engine, seq: &mut KvCache, tokens: &[u32]) -> StepResult {
    e.forward_runs([seq].as_mut_slice(), &[tokens], LogitRows::Last)
        .1
}

/// Every f32 corner of the co-design is **bit-identical** to the CPU
/// reference: the engine's values come from the same layer walk, and the
/// optimizations only change what the pass costs.
fn check_equivalence(cfg: ModelConfig, seed: u64, steps: usize) {
    let weights = TransformerWeights::synthetic(cfg, seed);
    let mut reference = Transformer::new(weights.clone());
    let mut kv = KvCache::new(&cfg);
    let weights = Arc::new(weights);
    let mut engines: Vec<(Engine, KvCache)> = OptConfig::all_corners()
        .into_iter()
        .map(|(_, opt)| {
            let engine = Engine::new(Arc::clone(&weights), opt).unwrap();
            let seq = KvCache::new(&engine.graph().config);
            (engine, seq)
        })
        .collect();
    // A pseudo-random but deterministic token walk.
    let mut tok = 1u32;
    for pos in 0..steps {
        tok = (tok.wrapping_mul(31).wrapping_add(7)) % cfg.vocab_size as u32;
        let expected = bits(reference.forward_with_kv(&mut kv, tok, pos));
        for (engine, seq) in &mut engines {
            let got = pass(engine, seq, &[tok]);
            assert!(
                expected == bits(&got.logits),
                "variant {} diverged at pos {pos}",
                engine.opt().short_name()
            );
        }
    }
}

#[test]
fn all_corners_match_reference_tiny() {
    check_equivalence(ModelConfig::test_tiny(), 42, 8);
}

#[test]
fn all_corners_match_reference_stories260k() {
    check_equivalence(ModelConfig::stories260k(), 7, 5);
}

#[test]
fn gqa_architecture_matches_reference() {
    // test_tiny already uses GQA (4 heads, 2 kv heads); exercise a deeper
    // GQA ratio too.
    let cfg = ModelConfig {
        dim: 32,
        hidden_dim: 96,
        n_layers: 3,
        n_heads: 8,
        n_kv_heads: 2,
        vocab_size: 96,
        seq_len: 24,
        shared_classifier: true,
    };
    check_equivalence(cfg, 11, 6);
}

#[test]
fn untied_classifier_matches_reference() {
    let cfg = ModelConfig {
        shared_classifier: false,
        ..ModelConfig::test_tiny()
    };
    check_equivalence(cfg, 13, 5);
}

#[test]
fn int8_engine_tracks_reference_within_quant_error() {
    let cfg = ModelConfig::stories260k();
    let weights = TransformerWeights::synthetic(cfg, 3);
    let mut reference = Transformer::new(weights.clone());
    let mut kv = KvCache::new(&cfg);
    let mut engine = Engine::new(Arc::new(weights), OptConfig::full_int8()).unwrap();
    let mut seq = KvCache::new(&engine.graph().config);
    for pos in 0..3 {
        let expected = reference.forward_with_kv(&mut kv, 9, pos).to_vec();
        let got = pass(&mut engine, &mut seq, &[9]);
        let d = max_diff(&expected, &got.logits);
        assert!(d < 0.35, "int8 diverged by {d} at pos {pos}");
        // And the argmax — what decoding actually uses — should usually
        // agree on a trained-scale random model at pos 0.
        if pos == 0 {
            let am_ref = speedllm::llama::sampler::argmax(&expected);
            let am_got = speedllm::llama::sampler::argmax(&got.logits);
            // Allow disagreement only if the two logits are within the
            // quantization noise of each other.
            if am_ref != am_got {
                let gap = (expected[am_ref as usize] - expected[am_got as usize]).abs();
                assert!(gap < 0.35, "int8 flipped a decisive argmax (gap {gap})");
            }
        }
    }
}

#[test]
fn engine_logits_depend_on_history() {
    let cfg = ModelConfig::test_tiny();
    let weights = Arc::new(TransformerWeights::synthetic(cfg, 21));
    let mut a = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
    let mut b = Engine::new(weights, OptConfig::full()).unwrap();
    let (mut sa, mut sb) = (
        KvCache::new(&a.graph().config),
        KvCache::new(&b.graph().config),
    );
    pass(&mut a, &mut sa, &[1]);
    pass(&mut b, &mut sb, &[2]);
    let la = pass(&mut a, &mut sa, &[5]).logits;
    let lb = pass(&mut b, &mut sb, &[5]).logits;
    assert!(max_diff(&la, &lb) > 1e-6, "KV cache must affect logits");
}

/// FNV-1a over every step of a fixed script — each step's logits bits,
/// then its cycles, HBM read bytes, kernel launches and allocation stalls.
#[derive(Clone, Copy)]
struct ScriptDigest(u64);

impl ScriptDigest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn step(&mut self, logits: &[Vec<f32>], step: &StepResult) {
        for v in logits.iter().flatten() {
            self.word(u64::from(v.to_bits()));
        }
        self.word(step.cycles.0);
        self.word(step.stats.hbm.read_bytes);
        self.word(step.stats.kernel_launches);
        self.word(step.stats.alloc_stalls);
    }
}

/// The script: a 5-token prefill chunk and three decode steps on one
/// flat sequence, then on three more sequences (paged when `paged`) a
/// 3-wide decode tick, a mixed tick of a decode row beside a 3-row chunk,
/// and a 4-row verify.
fn script_digest(opt: OptConfig, paged: bool) -> u64 {
    let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
    let mut e = Engine::new(weights, opt).unwrap();
    let mut first = KvCache::new(&e.graph().config);
    let bc = BlockConfig {
        block_size: 4,
        n_blocks: 6,
    };
    let mut alloc = BlockAllocator::new(bc);
    let mut space = KvSpace::new(&ModelConfig::test_tiny(), paged.then_some(bc));
    let mut seqs: Vec<SeqKv> = (0..3).map(|_| space.new_seq()).collect();
    for table in seqs.iter_mut().filter_map(SeqKv::table_mut) {
        table.push_block(alloc.alloc().unwrap());
        table.push_block(alloc.alloc().unwrap());
    }
    let [s0, s1, s2] = &mut seqs[..] else {
        unreachable!()
    };

    let mut d = ScriptDigest(0xcbf2_9ce4_8422_2325);
    let r = pass(&mut e, &mut first, &[3, 9, 14, 27, 5]);
    d.step(std::slice::from_ref(&r.logits), &r);
    for tok in [8u32, 12, 19] {
        let r = pass(&mut e, &mut first, &[tok]);
        d.step(std::slice::from_ref(&r.logits), &r);
    }
    let (logits, r) = e.forward_runs(
        &mut space.batch(&mut [&mut *s0, &mut *s1, &mut *s2]),
        &[&[1], &[2], &[3]],
        LogitRows::Last,
    );
    d.step(&logits, &r);
    let (logits, r) = e.forward_runs(
        &mut space.batch(&mut [&mut *s0, &mut *s1]),
        &[&[7], &[3, 9, 14]],
        LogitRows::Last,
    );
    d.step(&logits, &r);
    let (logits, r) = e.forward_runs(
        &mut space.batch(&mut [&mut *s2]),
        &[&[5, 6, 7, 8]],
        LogitRows::All,
    );
    d.step(&logits, &r);
    d.0
}

/// Captured on PR 12 (`88c7abe`) through the per-verb bodies the engine
/// then had (chunk, batched decode, mixed tick, verify), the commit before
/// they became run shapes of one `Engine::forward_runs`. Values and device
/// counters of every pass must not move; KV paging is functional only, so
/// flat and paged sequences share a digest.
#[test]
fn engine_script_matches_the_per_verb_digests() {
    for (opt, golden) in [
        (OptConfig::full(), SCRIPT_FULL),
        (OptConfig::unoptimized(), SCRIPT_UNOPTIMIZED),
    ] {
        for paged in [false, true] {
            let got = script_digest(opt, paged);
            assert_eq!(
                got,
                golden,
                "{} paged={paged}: script moved ({got:#018x})",
                opt.short_name()
            );
        }
    }
}

const SCRIPT_FULL: u64 = 0xbae7_c853_3276_fd75;
const SCRIPT_UNOPTIMIZED: u64 = 0xb1e3_0c6b_bbcd_1ce0;
