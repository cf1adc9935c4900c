//! Property suite for speculative decoding (DESIGN.md §16): across draft
//! depths, random prompts and budgets, flat and paged KV, CPU and
//! accelerator verifiers, serial and parallel matvec strategies, and both
//! greedy and seeded stochastic samplers, the emitted stream must be
//! **bit-identical** — exact `assert_eq`, no tolerance — to plain
//! token-by-token decoding with the same sampler seed: a `1 + j`-row run
//! with every row scored against `1 + j` one-row calls of the same layer
//! walk. Rollback is checked
//! against a from-scratch oracle (no stale draft rows survive in the kept
//! KV context) and, for paged storage, against free-list conservation.
//!
//! Model fixtures come from `speedllm_testkit::fixture`, so the
//! cross-model test loads the stories260K-shaped draft and the stories15M
//! target once per test binary.

use speedllm_testkit::fixture;
use speedllm_testkit::prelude::*;

use speedllm::accel::engine::Engine;
use speedllm::accel::opt::OptConfig;
use speedllm::accel::speculative::AccelVerifier;
use speedllm::llama::config::ModelConfig;
use speedllm::llama::forward::{MatVecStrategy, Transformer};
use speedllm::llama::generate::{DecodeSession, GenerateOptions};
use speedllm::llama::kv_cache::{KvCache, KvStore};
use speedllm::llama::rng::Xoshiro256;
use speedllm::llama::sampler::{Sampler, SamplerKind};
use speedllm::llama::speculative::{run_speculative, CpuVerifier, SpecSession};
use speedllm::llama::weights::TransformerWeights;
use speedllm::pagedkv::{BlockAllocator, BlockConfig, PagedKvArena};
use std::sync::Arc;

const BLOCKS: BlockConfig = BlockConfig {
    block_size: 4,
    n_blocks: 16,
};

/// Target weights, synthesized once per test binary.
fn target_weights() -> Arc<TransformerWeights> {
    fixture::cached("spec-target-tiny", || {
        TransformerWeights::synthetic(ModelConfig::test_tiny(), 42)
    })
}

/// An *independent* draft (same vocab/window, different seed) so
/// acceptance is imperfect and every rollback path actually runs.
fn draft_weights() -> Arc<TransformerWeights> {
    fixture::cached("spec-draft-tiny", || {
        TransformerWeights::synthetic(ModelConfig::test_tiny(), 9)
    })
}

fn draft_model() -> Transformer {
    Transformer::new(draft_weights().as_ref().clone())
}

/// The sequential reference stream for one workload.
fn oracle_stream(
    prompt: &[u32],
    kind: SamplerKind,
    sampler_seed: u64,
    opts: GenerateOptions,
    strategy: MatVecStrategy,
) -> Vec<u32> {
    let mut model = Transformer::new(target_weights().as_ref().clone());
    model.set_strategy(strategy);
    let mut sampler = Sampler::new(kind, sampler_seed);
    let mut session = DecodeSession::begin(&mut model, prompt, opts);
    let mut out = Vec::new();
    while let Some(t) = session.step(&mut sampler) {
        out.push(t);
    }
    out
}

/// A random workload drawn from the case seed: prompt, budget, sampler.
fn workload(rng: &mut Xoshiro256, greedy: bool) -> (Vec<u32>, GenerateOptions, SamplerKind, u64) {
    let cfg = ModelConfig::test_tiny();
    let len = 1 + rng.below(5) as usize;
    let prompt: Vec<u32> = (0..len)
        .map(|_| rng.below(cfg.vocab_size as u64) as u32)
        .collect();
    let opts = GenerateOptions {
        max_new_tokens: 1 + rng.below(14) as usize,
        stop_at_eos: rng.below(2) == 0,
    };
    let kind = if greedy {
        SamplerKind::Argmax
    } else {
        SamplerKind::Temperature(0.8)
    };
    (prompt, opts, kind, rng.below(1 << 32))
}

props! {
    #![config(cases = 32)]

    /// CPU verifier, flat and paged KV, serial and parallel matvec: the
    /// speculative stream equals the sequential one bit-for-bit, the kept
    /// KV context equals a from-scratch prefill (rollback left nothing
    /// stale behind), and paged storage conserves its free list.
    fn cpu_speculative_matches_sequential_decode(
        k in 1usize..9,
        paged in any_bool(),
        parallel in any_bool(),
        greedy in any_bool(),
        seed in any_u64(),
    ) {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let (prompt, opts, kind, sseed) = workload(&mut rng, greedy);
        let strategy = if parallel {
            MatVecStrategy::Parallel { threads: 3 }
        } else {
            MatVecStrategy::Serial
        };
        let want = oracle_stream(&prompt, kind, sseed, opts, strategy);

        let mut tmodel = Transformer::new(target_weights().as_ref().clone());
        tmodel.set_strategy(strategy);
        let mut dmodel = draft_model();
        dmodel.set_strategy(strategy);
        let mut dkv = KvCache::new(&cfg);
        let mut sampler = Sampler::new(kind, sseed);

        let (got, metrics, history, kept) = if paged {
            let mut alloc = BlockAllocator::new(BLOCKS);
            let mut arena = PagedKvArena::new(&cfg, BLOCKS);
            let mut table = speedllm::pagedkv::BlockTable::new(BLOCKS.block_size);
            while table.capacity_tokens() < cfg.seq_len {
                table.push_block(alloc.alloc().expect("arena sized for one sequence"));
            }
            let (got, metrics, history) = {
                let mut view = arena.view(&mut table);
                let mut verifier = CpuVerifier::new(&mut tmodel, &mut view);
                let mut session = SpecSession::begin(&mut verifier, &prompt, k, opts);
                let got = run_speculative(
                    &mut session, &mut verifier, &mut dmodel, &mut dkv, &mut sampler,
                );
                (got, *session.metrics(), session.history().to_vec())
            };
            let kept = table.len();

            // Rollback oracle: every kept row matches a fresh flat
            // prefill of the same history — rejected draft rows are gone.
            let mut fresh_model = Transformer::new(target_weights().as_ref().clone());
            fresh_model.set_strategy(strategy);
            let mut fresh = KvCache::new(&cfg);
            for (pos, &tok) in history[..kept].iter().enumerate() {
                fresh_model.forward_with_kv(&mut fresh, tok, pos);
            }
            let view = arena.view(&mut table);
            for layer in 0..cfg.n_layers {
                for pos in 0..kept {
                    for h in 0..cfg.n_kv_heads {
                        prop_assert_eq!(
                            view.key_head(layer, pos, h),
                            fresh.key_head(layer, pos, h),
                            "stale K at layer {} pos {} head {}", layer, pos, h
                        );
                        prop_assert_eq!(
                            view.value_head(layer, pos, h),
                            fresh.value_head(layer, pos, h),
                            "stale V at layer {} pos {} head {}", layer, pos, h
                        );
                    }
                }
            }
            for b in table.take_blocks() {
                prop_assert!(alloc.release(b), "sole owner's release must free");
            }
            prop_assert_eq!(alloc.free_blocks(), BLOCKS.n_blocks, "block leak");
            prop_assert!(alloc.check_invariants().is_ok());
            (got, metrics, history, kept)
        } else {
            let mut tkv = KvCache::new(&cfg);
            let (got, metrics, history) = {
                let mut verifier = CpuVerifier::new(&mut tmodel, &mut tkv);
                let mut session = SpecSession::begin(&mut verifier, &prompt, k, opts);
                let got = run_speculative(
                    &mut session, &mut verifier, &mut dmodel, &mut dkv, &mut sampler,
                );
                (got, *session.metrics(), session.history().to_vec())
            };
            let kept = tkv.len();
            let mut fresh_model = Transformer::new(target_weights().as_ref().clone());
            fresh_model.set_strategy(strategy);
            let mut fresh = KvCache::new(&cfg);
            for (pos, &tok) in history[..kept].iter().enumerate() {
                fresh_model.forward_with_kv(&mut fresh, tok, pos);
            }
            for layer in 0..cfg.n_layers {
                for pos in 0..kept {
                    prop_assert_eq!(tkv.key_row(layer, pos), fresh.key_row(layer, pos));
                    prop_assert_eq!(tkv.value_row(layer, pos), fresh.value_row(layer, pos));
                }
            }
            (got, metrics, history, kept)
        };

        prop_assert_eq!(
            &got, &want,
            "k={} paged={} parallel={} kind={:?} diverged", k, paged, parallel, kind
        );
        prop_assert_eq!(history.len(), prompt.len() + got.len());
        prop_assert!(kept <= history.len(), "context past the history");
        prop_assert_eq!(metrics.emitted as usize, got.len());
        prop_assert!(metrics.accepted <= metrics.drafted, "accounting inverted");
        // The draft may hold speculative context past the history when a
        // round ends early (EOS), but never past its window.
        prop_assert!(dkv.len() <= cfg.seq_len);
    }

    /// Accelerator verifier (one all-rows `Engine::forward_runs` pass per
    /// round), flat and paged sequences: same stream as
    /// the sequential CPU reference, and paged rollback keeps the free
    /// list conserved while releasing blocks through CoW refcounting.
    fn accel_speculative_matches_sequential_decode(
        k in 1usize..6,
        paged in any_bool(),
        greedy in any_bool(),
        seed in any_u64(),
    ) {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let (prompt, opts, kind, sseed) = workload(&mut rng, greedy);
        let want = oracle_stream(&prompt, kind, sseed, opts, MatVecStrategy::Serial);

        let mut engine = Engine::new(target_weights(), OptConfig::full()).unwrap();
        if paged {
            engine.enable_paged_kv(BLOCKS);
        }
        let mut seq = engine.new_sequence();
        let mut alloc = BlockAllocator::new(BLOCKS);
        let mut dmodel = draft_model();
        let mut dkv = KvCache::new(&cfg);
        let mut sampler = Sampler::new(kind, sseed);

        // Rollback pops whole blocks back to the allocator, so capacity
        // must be re-granted before each round (the serve scheduler's
        // `spec_ensure_capacity` job; here the test plays scheduler).
        let grant = |seq: &mut speedllm::accel::engine::SequenceState,
                     alloc: &mut BlockAllocator| {
            if let Some(table) = seq.block_table_mut() {
                while table.capacity_tokens() < cfg.seq_len {
                    table.push_block(alloc.alloc().expect("arena sized for one sequence"));
                }
            }
        };

        grant(&mut seq, &mut alloc);
        let mut session = {
            let mut verifier = if paged {
                AccelVerifier::new_paged(&mut engine, &mut seq, &mut alloc)
            } else {
                AccelVerifier::new(&mut engine, &mut seq)
            };
            SpecSession::begin(&mut verifier, &prompt, k, opts)
        };
        let mut got = Vec::new();
        let mut verify_cycles = 0u64;
        while !session.is_finished() {
            grant(&mut seq, &mut alloc);
            let mut verifier = if paged {
                AccelVerifier::new_paged(&mut engine, &mut seq, &mut alloc)
            } else {
                AccelVerifier::new(&mut engine, &mut seq)
            };
            session.round(&mut verifier, &mut dmodel, &mut dkv, &mut sampler, &mut got);
            verify_cycles += verifier.cycles();
        }

        prop_assert_eq!(
            &got, &want,
            "k={} paged={} kind={:?} accel diverged", k, paged, kind
        );
        let m = *session.metrics();
        prop_assert_eq!(m.emitted as usize, got.len());
        prop_assert!(m.rounds as usize <= got.len() + 1, "rounds must not exceed emissions");
        if m.rounds > 0 {
            prop_assert!(verify_cycles > 0, "verify passes must cost device cycles");
        }
        if paged {
            let popped = seq.truncate(0);
            for b in popped {
                prop_assert!(alloc.release(b), "sole owner's release must free");
            }
            prop_assert_eq!(alloc.free_blocks(), BLOCKS.n_blocks, "block leak");
            prop_assert!(alloc.check_invariants().is_ok());
        }
    }
}

/// The cross-model pairing from the paper setup: a stories260K-shaped
/// draft trunk speaking the stories15M target's vocabulary
/// (`ModelConfig::draft_for`). Both weight sets load through the fixture
/// cache, so this test — and anything else in the binary wanting either
/// model — pays the synthesis cost once.
#[test]
fn stories15m_target_with_draft_for_trunk_is_bit_identical() {
    let target_cfg = ModelConfig::stories15m();
    let tweights = fixture::cached("stories15m-target", || {
        TransformerWeights::synthetic(ModelConfig::stories15m(), 42)
    });
    let dweights = fixture::cached("stories260k-draft-for-15m", || {
        TransformerWeights::synthetic(ModelConfig::draft_for(&ModelConfig::stories15m()), 43)
    });
    // Second lookups must hit the cache, not re-synthesize ~15M params.
    assert!(Arc::ptr_eq(
        &tweights,
        &fixture::cached("stories15m-target", || unreachable!("cache must hit"))
    ));
    assert!(Arc::ptr_eq(
        &dweights,
        &fixture::cached("stories260k-draft-for-15m", || unreachable!(
            "cache must hit"
        ))
    ));

    let opts = GenerateOptions {
        max_new_tokens: 4,
        stop_at_eos: true,
    };
    let prompt = [1u32, 310, 542];
    let want = {
        let mut model = Transformer::new(tweights.as_ref().clone());
        let mut sampler = Sampler::argmax();
        let mut session = DecodeSession::begin(&mut model, &prompt, opts);
        let mut out = Vec::new();
        while let Some(t) = session.step(&mut sampler) {
            out.push(t);
        }
        out
    };

    let mut tmodel = Transformer::new(tweights.as_ref().clone());
    let mut tkv = KvCache::new(&target_cfg);
    let mut dmodel = Transformer::new(dweights.as_ref().clone());
    let mut dkv = KvCache::new(dmodel.config());
    let mut verifier = CpuVerifier::new(&mut tmodel, &mut tkv);
    let mut session = SpecSession::begin(&mut verifier, &prompt, 3, opts);
    let got = run_speculative(
        &mut session,
        &mut verifier,
        &mut dmodel,
        &mut dkv,
        &mut Sampler::argmax(),
    );
    assert_eq!(got, want, "cross-model speculative stream diverged");
}

/// Documents why the *literal* stories260K checkpoint cannot draft for
/// stories15M (the negative-path CLI test relies on this): the presets
/// disagree on vocabulary, while `draft_for` adopts the target's.
#[test]
fn raw_preset_pairing_is_incompatible_but_draft_for_is_not() {
    let draft = ModelConfig::stories260k();
    let target = ModelConfig::stories15m();
    assert_ne!(
        draft.vocab_size, target.vocab_size,
        "if these ever agree, the CLI vocab-mismatch test needs a new pair"
    );
    let adapted = ModelConfig::draft_for(&target);
    assert_eq!(adapted.vocab_size, target.vocab_size);
    assert_eq!(adapted.seq_len, target.seq_len);
    assert!(
        adapted.n_layers < target.n_layers,
        "the draft must stay cheaper than the target"
    );
}
