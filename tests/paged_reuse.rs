//! Paged-pool hygiene and the prefix-cache ablation, end to end.
//!
//! Wave after wave of traffic through a tight paged arena must recycle
//! physical blocks constantly; a recycled block has to be
//! indistinguishable from a fresh one, so every wave reproduces the
//! first wave's streams token for token. The second test is the
//! prefix cache's equal-memory ablation: on a
//! shared-prefix closed-loop workload, the paged engine with radix
//! sharing must beat the flat slot pool on both time-to-first-token and
//! admitted concurrency.

use speedllm::llama::config::ModelConfig;
use speedllm::llama::forward::Transformer;
use speedllm::llama::rng::Xoshiro256;
use speedllm::llama::sampler::SamplerKind;
use speedllm::llama::tokenizer::TOKEN_BOS;
use speedllm::llama::weights::TransformerWeights;
use speedllm::pagedkv::BlockConfig;
use speedllm::serve::{
    ArrivalMode, Completion, CpuBackend, LoadGen, LoadGenConfig, Request, ServeConfig, ServeEngine,
};

fn model() -> Transformer {
    Transformer::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42))
}

fn serve_cfg(slots: usize) -> ServeConfig {
    ServeConfig {
        slots,
        max_batch: 8,
        prefill_chunk: 4,
        queue_cap: 64,
        unified: None,
    }
}

/// Deterministic wave of requests: a couple of distinct prompt families
/// so the radix tree holds several chains at once.
fn wave(seed: u64, n: usize) -> Vec<Request> {
    let cfg = ModelConfig::test_tiny();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..n as u64)
        .map(|id| {
            let plen = 3 + rng.below(6) as usize;
            let mut prompt = vec![TOKEN_BOS];
            for _ in 1..plen {
                prompt.push(3 + rng.below(cfg.vocab_size as u64 - 3) as u32);
            }
            Request {
                id,
                prompt,
                max_new_tokens: 4 + rng.below(5) as usize,
                stop_at_eos: false,
                sampler: SamplerKind::Temperature(0.8),
                seed: rng.next_u64(),
                arrival: 0,
            }
        })
        .collect()
}

fn drain(engine: &mut ServeEngine<CpuBackend>) -> Vec<Completion> {
    let mut out = Vec::new();
    while !engine.is_idle() {
        out.extend(engine.step());
    }
    out.sort_by_key(|c| c.id);
    out
}

/// A physical block that went through alloc → use → release → realloc
/// must behave exactly like one fresh out of the arena: waves 2..N of
/// identical traffic through a tight paged pool (blocks recycle every
/// wave, the radix cache is hit and evicted along the way) reproduce
/// wave 1 byte for byte. Runs under `--release` in `scripts/verify.sh`
/// so the check also covers the profile where debug poisoning is off.
#[test]
fn recycled_blocks_are_indistinguishable_from_fresh() {
    let cfg = ModelConfig::test_tiny();
    let bs = 4;
    // Tight: two sequences' worth of blocks for eight requests per wave.
    let n_blocks = 2 * cfg.seq_len.div_ceil(bs);
    let mut engine = ServeEngine::new(
        CpuBackend::new_paged(
            model(),
            BlockConfig {
                block_size: bs,
                n_blocks,
            },
        ),
        serve_cfg(n_blocks),
    );

    let reqs = wave(17, 8);
    for r in reqs.iter().cloned() {
        engine.submit(r).unwrap();
    }
    let first = drain(&mut engine);
    assert_eq!(first.len(), 8);
    assert!(engine.all_slots_free());
    assert_eq!(engine.blocks_in_use(), engine.blocks_cached());

    for round in 2..=4 {
        for r in reqs.iter().cloned() {
            engine.submit(r).unwrap();
        }
        let again = drain(&mut engine);
        assert!(engine.all_slots_free());
        engine.check_paged_invariants().unwrap();
        assert_eq!(first.len(), again.len());
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(
                a.tokens, b.tokens,
                "wave {round}: recycled blocks changed request {}",
                a.id
            );
        }
    }
    // The tight budget forced real churn: blocks were recycled, not idle.
    assert!(
        engine.stats().peak_blocks_in_use as usize == n_blocks,
        "arena never filled — the waves exercised no recycling"
    );
}

/// Equal-memory ablation: same model, same total KV bytes, same
/// closed-loop shared-prefix workload. The flat slot pool spends
/// `seq_len` tokens of KV per admitted request no matter how short it
/// is; the paged engine shares the common prefix through the radix tree
/// and allocates the rest on demand, so it both starts requests earlier
/// (lower mean TTFT) and holds more of them in flight.
#[test]
fn prefix_cache_improves_ttft_and_concurrency_at_equal_memory() {
    let cfg = ModelConfig::test_tiny();
    let flat_slots = 2;
    let bs = 4;
    let n_blocks = flat_slots * cfg.seq_len.div_ceil(bs); // identical KV budget

    let traffic_cfg = LoadGenConfig {
        n_requests: 12,
        mode: ArrivalMode::Closed { concurrency: 6 },
        prompt_len: (10, 12),
        shared_prefix_len: 8, // two full blocks of common prefix
        max_new_tokens: (2, 6),
        sampler: SamplerKind::Temperature(0.8),
        stop_at_eos: true,
        vocab_size: cfg.vocab_size,
        seq_len: cfg.seq_len,
        seed: 7,
    };

    let mut flat = ServeEngine::new(CpuBackend::new(model()), serve_cfg(flat_slots));
    let flat_done = flat.run_with_source(&mut LoadGen::new(&traffic_cfg));

    let mut paged = ServeEngine::new(
        CpuBackend::new_paged(
            model(),
            BlockConfig {
                block_size: bs,
                n_blocks,
            },
        ),
        serve_cfg(n_blocks),
    );
    let paged_done = paged.run_with_source(&mut LoadGen::new(&traffic_cfg));

    assert_eq!(flat_done.len(), 12);
    assert_eq!(paged_done.len(), 12);
    // Same requests, same streams: the ablation changes scheduling, not
    // tokens.
    let mut f = flat_done.clone();
    let mut p = paged_done.clone();
    f.sort_by_key(|c| c.id);
    p.sort_by_key(|c| c.id);
    for (a, b) in f.iter().zip(&p) {
        assert_eq!(
            a.tokens, b.tokens,
            "request {} diverged across backends",
            a.id
        );
    }

    let mean_ttft = |done: &[Completion]| {
        let (sum, n) = done
            .iter()
            .filter_map(Completion::ttft)
            .fold((0u64, 0u64), |(s, n), t| (s + t, n + 1));
        sum as f64 / n as f64
    };
    let flat_ttft = mean_ttft(&flat_done);
    let paged_ttft = mean_ttft(&paged_done);
    let flat_active = flat.stats().max_active_observed;
    let paged_active = paged.stats().max_active_observed;

    assert!(
        paged.stats().prefix_hit_tokens > 0,
        "shared prefix never hit the radix cache"
    );
    assert!(
        paged_ttft < flat_ttft,
        "paged mean TTFT {paged_ttft:.1} not below flat {flat_ttft:.1}"
    );
    assert!(
        paged_active > flat_active,
        "paged concurrency {paged_active} not above flat {flat_active} at equal memory"
    );
}
