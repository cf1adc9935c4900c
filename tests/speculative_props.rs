//! Property suite for speculative decoding (DESIGN.md §16) at the level
//! that ships: `ServeEngine::enable_speculative`, whose tick drafts up to
//! K tokens, verifies the `1 + j`-row run with every row scored, accepts
//! the longest agreeing prefix and rolls the rest back. Across draft
//! depths, random prompts and budgets, flat and paged KV, CPU and
//! accelerator backends, and both greedy and seeded stochastic samplers,
//! every request's stream must be **bit-identical** — exact `assert_eq`,
//! no tolerance — to plain token-by-token decoding with the same sampler
//! seed. The draft is an independent model, so rounds are rejected: a
//! stale row surviving a rollback would show in the next token, and a
//! block lost by one in the drain checks.
//!
//! Model fixtures come from `speedllm_testkit::fixture`, so the
//! cross-model test loads the stories260K-shaped draft and the stories15M
//! target once per test binary.

use speedllm_testkit::fixture;
use speedllm_testkit::prelude::*;

use speedllm::accel::engine::Engine;
use speedllm::accel::opt::OptConfig;
use speedllm::llama::config::ModelConfig;
use speedllm::llama::forward::Transformer;
use speedllm::llama::generate::{DecodeSession, GenerateOptions};
use speedllm::llama::rng::Xoshiro256;
use speedllm::llama::sampler::{Sampler, SamplerKind};
use speedllm::llama::weights::TransformerWeights;
use speedllm::pagedkv::BlockConfig;
use speedllm::serve::{AccelBackend, Backend, CpuBackend, Request, ServeConfig, ServeEngine};
use std::sync::Arc;

const BLOCKS: BlockConfig = BlockConfig {
    block_size: 4,
    n_blocks: 16,
};

fn serve_cfg(slots: usize) -> ServeConfig {
    ServeConfig {
        slots,
        max_batch: 4,
        prefill_chunk: 3,
        queue_cap: 8,
        unified: None,
    }
}

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

/// The sequential reference stream for one workload.
fn oracle_stream(
    weights: &TransformerWeights,
    prompt: &[u32],
    kind: SamplerKind,
    sampler_seed: u64,
    opts: GenerateOptions,
) -> Vec<u32> {
    let mut model = Transformer::new(weights.clone());
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

/// Serves each `(prompt, opts, sampler, seed)` with depth-`k` speculation
/// over `draft` and returns the streams in request order, after checking
/// that the drained engine gave back every slot and every KV block the
/// prefix cache does not hold.
fn serve_speculative<B: Backend>(
    backend: B,
    slots: usize,
    draft: Transformer,
    k: usize,
    work: &[(Vec<u32>, GenerateOptions, SamplerKind, u64)],
) -> Result<Vec<Vec<u32>>, TestCaseError> {
    let mut engine = ServeEngine::new(backend, serve_cfg(slots));
    engine
        .enable_speculative(draft, k)
        .map_err(TestCaseError::fail)?;
    for (id, (prompt, opts, kind, seed)) in work.iter().enumerate() {
        let req = Request {
            id: id as u64,
            prompt: prompt.clone(),
            max_new_tokens: opts.max_new_tokens,
            stop_at_eos: opts.stop_at_eos,
            sampler: *kind,
            seed: *seed,
            arrival: 0,
        };
        prop_assert!(engine.submit(req).is_ok(), "queue_cap covers the workload");
    }
    let mut done = Vec::new();
    while !engine.is_idle() {
        done.extend(engine.step());
    }
    prop_assert_eq!(done.len(), work.len());
    if done.iter().any(|c| c.tokens.len() >= 2) {
        // A second token exists only because the first one was forwarded,
        // and with speculation on that forward is a verify run.
        prop_assert!(engine.stats().spec_rounds > 0, "no verify round ran");
    }
    engine
        .check_paged_invariants()
        .map_err(TestCaseError::fail)?;
    prop_assert!(engine.all_slots_free(), "a slot leaked");
    prop_assert_eq!(
        engine.blocks_in_use(),
        engine.blocks_cached(),
        "a rollback or release lost a block"
    );
    done.sort_by_key(|c| c.id);
    Ok(done.into_iter().map(|c| c.tokens).collect())
}

/// One case of the grid: one to three random requests through a
/// two-slot engine over `backend` — verify runs share passes, and a third
/// request waits for a recycled slot — each stream against its oracle.
fn check_case<B: Backend>(
    backend: B,
    k: usize,
    greedy: bool,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let n = 1 + rng.below(3) as usize;
    let work: Vec<_> = (0..n).map(|_| workload(&mut rng, greedy)).collect();
    let draft = Transformer::new(draft_weights().as_ref().clone());
    let got = serve_speculative(backend, 2, draft, k, &work)?;
    for (i, (prompt, opts, kind, sseed)) in work.iter().enumerate() {
        let want = oracle_stream(&target_weights(), prompt, *kind, *sseed, *opts);
        prop_assert_eq!(
            &got[i],
            &want,
            "k={} kind={:?} request {} of {} diverged",
            k,
            kind,
            i,
            n
        );
    }
    Ok(())
}

props! {
    #![config(cases = 32)]

    /// CPU backend, flat and paged KV: every speculative stream equals the
    /// sequential one bit-for-bit — also after rounds the sampler
    /// rejected, so rollback left nothing stale behind — and the drained
    /// engine conserves its slots and blocks.
    fn cpu_speculative_matches_sequential_decode(
        k in 1usize..7,
        paged in any_bool(),
        greedy in any_bool(),
        seed in any_u64(),
    ) {
        let model = Transformer::new(target_weights().as_ref().clone());
        let backend = if paged {
            CpuBackend::new_paged(model, BLOCKS)
        } else {
            CpuBackend::new(model)
        };
        check_case(backend, k, greedy, seed)?;
    }

    /// Accelerator backend (one all-rows `Engine::forward_runs` pass per
    /// verify group), flat and paged sequences: the same streams as the
    /// sequential CPU reference, and the same conservation at drain.
    fn accel_speculative_matches_sequential_decode(
        k in 1usize..7,
        paged in any_bool(),
        greedy in any_bool(),
        seed in any_u64(),
    ) {
        let engine = Engine::new(target_weights(), OptConfig::full()).unwrap();
        let backend = if paged {
            AccelBackend::new_paged(engine, BLOCKS)
        } else {
            AccelBackend::new(engine)
        };
        check_case(backend, k, greedy, seed)?;
    }
}

/// The cross-model pairing from the paper setup: a stories260K-shaped
/// draft trunk speaking the stories15M target's vocabulary
/// (`ModelConfig::draft_for`). Both weight sets load through the fixture
/// cache, so this test — and anything else in the binary wanting either
/// model — pays the synthesis cost once.
#[test]
fn stories15m_target_with_draft_for_trunk_is_bit_identical() {
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
    let prompt = vec![1u32, 310, 542];
    let want = oracle_stream(&tweights, &prompt, SamplerKind::Argmax, 0, opts);

    let got = serve_speculative(
        CpuBackend::new(Transformer::new(tweights.as_ref().clone())),
        1,
        Transformer::new(dweights.as_ref().clone()),
        3,
        &[(prompt, opts, SamplerKind::Argmax, 0)],
    )
    .expect("engine accepts the pairing and drains clean");
    assert_eq!(got, [want], "cross-model speculative stream diverged");
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
