//! Property suite for the batched-decode GEMM path (DESIGN.md §13): for
//! random batch sizes, batch compositions (per-sequence context lengths
//! and per-step member permutations), flat and paged KV slots, and both
//! backends, one N-row decode tick must be **bit-identical** — exact
//! `assert_eq`, no tolerance — to N one-row calls. Both sides are run
//! shapes of the one layer walk, so this is not copy A against copy B: it
//! says a row's values do not depend on what shares its pass. Every
//! element is the same `dot` over the same operands at any width, so any
//! reassociation or cross-sequence leakage shows up here immediately.

use speedllm_testkit::prelude::*;

use speedllm::accel::engine::Engine;
use speedllm::accel::opt::OptConfig;
use speedllm::llama::config::ModelConfig;
use speedllm::llama::forward::Transformer;
use speedllm::llama::kv_cache::KvCache;
use speedllm::llama::rng::Xoshiro256;
use speedllm::llama::weights::TransformerWeights;
use speedllm::pagedkv::{BlockAllocator, BlockConfig, SeqKv};
use speedllm::serve::{AccelBackend, Backend, CpuBackend, ServeSlot};
use std::sync::Arc;

const BLOCKS: BlockConfig = BlockConfig {
    block_size: 4,
    n_blocks: 64,
};

fn weights() -> TransformerWeights {
    TransformerWeights::synthetic(ModelConfig::test_tiny(), 42)
}

/// Random per-sequence prompts (1..=5 tokens) for a batch of `n`.
fn prompts(rng: &mut Xoshiro256, n: usize, vocab: u64) -> Vec<Vec<u32>> {
    (0..n)
        .map(|_| {
            let len = 1 + rng.below(5) as usize;
            (0..len).map(|_| rng.below(vocab) as u32).collect()
        })
        .collect()
}

/// Grants enough blocks for `tokens` positions when the slot is paged.
fn grant_blocks(slot: &mut ServeSlot, alloc: &mut BlockAllocator, tokens: usize) {
    if let SeqKv::Paged(table) = &mut slot.kv {
        while table.capacity_tokens() < tokens {
            table.push_block(alloc.alloc().expect("arena large enough for the test"));
        }
    }
}

props! {
    #![config(cases = 24)]

    /// CPU backend, flat and paged slots: `Backend::decode` (the batched
    /// GEMM path) must reproduce the sequential `forward_with_kv` loop
    /// exactly, across several steps with the batch membership permuted
    /// every step.
    fn cpu_batched_decode_is_bit_identical(
        n in 1usize..7,
        steps in 1usize..4,
        paged in any_bool(),
        seed in any_u64(),
    ) {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let model = Transformer::new(weights());
        let mut backend = if paged {
            CpuBackend::new_paged(model, BLOCKS)
        } else {
            CpuBackend::new(model)
        };
        let mut oracle = Transformer::new(weights());

        let mut alloc = BlockAllocator::new(BLOCKS);
        let prompts = prompts(&mut rng, n, cfg.vocab_size as u64);
        let budget = 5 + steps; // max prompt plus decode steps

        // Prefill each sequence through the backend and the sequential
        // oracle; the chunk logits must already agree exactly.
        let mut slots = Vec::new();
        let mut oracle_kvs = Vec::new();
        for prompt in &prompts {
            let mut slot = backend.new_slot();
            grant_blocks(&mut slot, &mut alloc, budget);
            let (got, _) = backend.prefill(&mut slot, prompt, 0);
            let mut kv = KvCache::new(&cfg);
            let mut want = Vec::new();
            for (pos, &tok) in prompt.iter().enumerate() {
                want = oracle.forward_with_kv(&mut kv, tok, pos).to_vec();
            }
            prop_assert_eq!(&got, &want, "prefill diverged");
            slots.push(slot);
            oracle_kvs.push(kv);
        }

        // Decode: batched through the backend, sequentially through the
        // oracle, with the batch membership order permuted every step.
        let mut order: Vec<usize> = (0..n).collect();
        for step in 0..steps {
            // Deterministic rotation + swap: a different permutation of the
            // same members each step.
            order.rotate_left(step % n.max(1));
            if n > 1 {
                let i = rng.below(n as u64) as usize;
                order.swap(0, i);
            }
            let tokens: Vec<u32> =
                (0..n).map(|_| rng.below(cfg.vocab_size as u64) as u32).collect();

            let mut refs: Vec<&mut ServeSlot> = Vec::with_capacity(n);
            let mut members = slots.iter_mut().collect::<Vec<_>>();
            // Reorder the mutable borrows to match the permutation.
            let mut by_index: Vec<Option<&mut ServeSlot>> =
                members.drain(..).map(Some).collect();
            for &i in &order {
                refs.push(by_index[i].take().expect("each member used once"));
            }
            let batch_tokens: Vec<u32> = order.iter().map(|&i| tokens[i]).collect();
            let (got, cost) = backend.decode(&mut refs, &batch_tokens);
            prop_assert_eq!(cost, n as u64, "CPU tick cost must stay per-token");

            for (slot_in_batch, &i) in order.iter().enumerate() {
                let pos = oracle_kvs[i].len();
                let want = oracle.forward_with_kv(&mut oracle_kvs[i], tokens[i], pos);
                prop_assert_eq!(
                    &got[slot_in_batch],
                    &want.to_vec(),
                    "batch {} seq {} step {} diverged",
                    n,
                    i,
                    step
                );
            }
        }
    }

    /// Accel backend: a batched `decode` must emit exactly the logits of
    /// the same sequences decoded one at a time (batch width 1) on an
    /// identically-prepared engine — the device batch shares weight
    /// streams in the timing model only, never in values.
    fn accel_batched_decode_is_bit_identical(
        n in 1usize..5,
        paged in any_bool(),
        seed in any_u64(),
    ) {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let make = |paged: bool| {
            let engine = Engine::new(Arc::new(weights()), OptConfig::full()).unwrap();
            if paged {
                AccelBackend::new_paged(engine, BLOCKS)
            } else {
                AccelBackend::new(engine)
            }
        };
        let mut batched = make(paged);
        let mut sequential = make(paged);
        let mut b_alloc = BlockAllocator::new(BLOCKS);
        let mut s_alloc = BlockAllocator::new(BLOCKS);

        let prompts = prompts(&mut rng, n, cfg.vocab_size as u64);
        let budget = 5 + 2; // max prompt plus decode steps
        let mut b_slots = Vec::new();
        let mut s_slots = Vec::new();
        for prompt in &prompts {
            let mut bs = batched.new_slot();
            let mut ss = sequential.new_slot();
            for (slot, alloc) in [(&mut bs, &mut b_alloc), (&mut ss, &mut s_alloc)] {
                if let Some(table) = AccelBackend::slot_table_mut(slot) {
                    while table.capacity_tokens() < budget {
                        table.push_block(alloc.alloc().expect("arena large enough"));
                    }
                }
            }
            let (lb, _) = batched.prefill(&mut bs, prompt, 0);
            let (ls, _) = sequential.prefill(&mut ss, prompt, 0);
            prop_assert_eq!(&lb, &ls, "prefill must agree before decode");
            b_slots.push(bs);
            s_slots.push(ss);
        }

        for step in 0..2u32 {
            let tokens: Vec<u32> =
                (0..n).map(|_| rng.below(cfg.vocab_size as u64) as u32).collect();
            let mut refs: Vec<_> = b_slots.iter_mut().collect();
            let (got, _) = batched.decode(&mut refs, &tokens);
            for (i, slot) in s_slots.iter_mut().enumerate() {
                let mut one = [&mut *slot];
                let (want, _) = sequential.decode(&mut one, &tokens[i..=i]);
                prop_assert_eq!(
                    &got[i],
                    &want[0],
                    "accel batch {} seq {} step {} diverged",
                    n,
                    i,
                    step
                );
            }
        }
    }
}
