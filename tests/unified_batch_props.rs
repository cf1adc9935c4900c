//! Property suite for the unified mixed prefill+decode scheduler
//! (DESIGN.md §14): across token budgets, prefill ratios, chunk sizes,
//! flat and paged KV, and both backends, the unified engine must emit
//! **bit-identical** token streams — exact
//! `assert_eq`, no tolerance — to the phase-serialized engine, which PR 5
//! already pinned to the single-tenant decoder. The two are plans of the
//! one `ServeEngine` tick loop (DESIGN.md §11) over the one layer walk —
//! same admission, capacity, sampling, issue and settle code — so this
//! is not a call compared with itself: what differs is how the same
//! tokens are cut into passes (decode rows beside prefill chunks under a
//! token budget vs a pass per chunk, then decode groups), and that cut
//! must never show in a token. On the CPU backend the virtual clock must
//! also agree exactly, because a tick costs the token rows it actually
//! carries and both plans forward the same rows.
//!
//! Deterministic edge cases ride along: a sequence finishing mid-tick
//! while another is mid-prefill, a chunk exactly filling the budget, a
//! budget smaller than one chunk (forced split), preemption of a
//! half-prefilled sequence under paged block pressure, per-tick cost
//! accounting, a byte-level report regression for pure-decode workloads,
//! and the headline claim: lower TTFT p99 on the accelerator under a
//! bursty workload at equal KV budget.

use speedllm_testkit::prelude::*;

use std::sync::Arc;

use speedllm::accel::engine::Engine;
use speedllm::accel::opt::OptConfig;
use speedllm::llama::config::ModelConfig;
use speedllm::llama::forward::Transformer;
use speedllm::llama::rng::Xoshiro256;
use speedllm::llama::sampler::SamplerKind;
use speedllm::llama::tokenizer::TOKEN_BOS;
use speedllm::llama::weights::TransformerWeights;
use speedllm::pagedkv::BlockConfig;
use speedllm::serve::{
    AccelBackend, ArrivalMode, Backend, Completion, CpuBackend, LoadGen, LoadGenConfig, Request,
    ServeConfig, ServeEngine, ServeReport, UnifiedConfig,
};

/// Enough blocks that no paged run ever preempts: sharing and allocation
/// still exercise the paged path, but both engines forward the same rows.
const AMPLE_BLOCKS: BlockConfig = BlockConfig {
    block_size: 4,
    n_blocks: 64,
};

fn weights() -> TransformerWeights {
    TransformerWeights::synthetic(ModelConfig::test_tiny(), 42)
}

fn serve_cfg(slots: usize, chunk: usize, unified: Option<UnifiedConfig>) -> ServeConfig {
    ServeConfig {
        slots,
        max_batch: 8,
        prefill_chunk: chunk,
        queue_cap: 64,
        unified,
    }
}

fn cpu_engine(
    slots: usize,
    chunk: usize,
    paged: bool,
    unified: Option<UnifiedConfig>,
) -> ServeEngine<CpuBackend> {
    let model = Transformer::new(weights());
    let backend = if paged {
        CpuBackend::new_paged(model, AMPLE_BLOCKS)
    } else {
        CpuBackend::new(model)
    };
    ServeEngine::new(backend, serve_cfg(slots, chunk, unified))
}

fn cpu_paged_engine(
    slots: usize,
    chunk: usize,
    blocks: BlockConfig,
    unified: Option<UnifiedConfig>,
) -> ServeEngine<CpuBackend> {
    let model = Transformer::new(weights());
    ServeEngine::new(
        CpuBackend::new_paged(model, blocks),
        serve_cfg(slots, chunk, unified),
    )
}

fn accel_engine(
    slots: usize,
    chunk: usize,
    paged: bool,
    unified: Option<UnifiedConfig>,
) -> ServeEngine<AccelBackend> {
    let engine = Engine::new(Arc::new(weights()), OptConfig::full()).unwrap();
    let backend = if paged {
        AccelBackend::new_paged(engine, AMPLE_BLOCKS)
    } else {
        AccelBackend::new(engine)
    };
    ServeEngine::new(backend, serve_cfg(slots, chunk, unified))
}

fn unified(budget: usize, pct: u32) -> Option<UnifiedConfig> {
    Some(UnifiedConfig {
        token_budget: budget,
        prefill_pct: pct,
    })
}

/// A random but valid request stream for the tiny model: prompt lengths
/// 1..=10 (BOS first, long enough to need several chunks), budgets 0..=6
/// (zero budget included on purpose), per-request seeded samplers.
fn random_requests(seed: u64, n: usize) -> Vec<Request> {
    let cfg = ModelConfig::test_tiny();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..n as u64)
        .map(|id| {
            let plen = 1 + rng.below(10) as usize;
            let mut prompt = vec![TOKEN_BOS];
            for _ in 1..plen {
                prompt.push(3 + rng.below(cfg.vocab_size as u64 - 3) as u32);
            }
            Request {
                id,
                prompt,
                max_new_tokens: rng.below(7) as usize,
                stop_at_eos: true,
                sampler: SamplerKind::Temperature(0.8),
                seed: rng.next_u64(),
                arrival: 0,
            }
        })
        .collect()
}

fn req(id: u64, prompt: Vec<u32>, max_new: usize, seed: u64) -> Request {
    Request {
        id,
        prompt,
        max_new_tokens: max_new,
        stop_at_eos: true,
        sampler: SamplerKind::Temperature(0.8),
        seed,
        arrival: 0,
    }
}

fn drain<B: Backend>(engine: &mut ServeEngine<B>) -> Vec<Completion> {
    let mut out = Vec::new();
    while !engine.is_idle() {
        out.extend(engine.step());
    }
    out
}

/// Per-id token streams, the unit of the bit-identity contract.
fn streams(mut done: Vec<Completion>) -> Vec<(u64, Vec<u32>)> {
    done.sort_by_key(|c| c.id);
    done.into_iter().map(|c| (c.id, c.tokens)).collect()
}

props! {
    #![config(cases = 24)]

    /// The tentpole grid: {token budget × prefill ratio × chunk size ×
    /// flat/paged} on the CPU backend. The unified engine must
    /// reproduce the sequential prefill-then-decode engine's
    /// streams exactly, and (flat KV) land on the same virtual clock,
    /// since both forward each context token and each sampled-but-not-
    /// final token exactly once and a CPU tick costs the rows it carries.
    fn cpu_unified_matches_sequential_oracle_across_grid(
        n in 1usize..8,
        budget in 1usize..13,
        pct in 0usize..101,
        chunk in 1usize..6,
        paged in any_bool(),
        seed in any_u64(),
    ) {
        let mut legacy = cpu_engine(3, chunk, paged, None);
        let mut uni = cpu_engine(3, chunk, paged, unified(budget, pct as u32));
        for r in random_requests(seed, n) {
            prop_assert!(legacy.submit(r.clone()).is_ok());
            prop_assert!(uni.submit(r).is_ok());
        }
        let a = streams(drain(&mut legacy));
        let b = streams(drain(&mut uni));
        prop_assert_eq!(&a, &b, "unified (budget {}, pct {}) diverged", budget, pct);
        prop_assert!(uni.stats().mixed_ticks > 0, "unified engine must tick");
        prop_assert!(uni.all_slots_free(), "pool did not drain");
        if paged {
            // Radix prefix hits can differ between the engines (admission
            // timing differs), so only the streams are comparable.
            uni.check_paged_invariants().unwrap();
        } else {
            prop_assert_eq!(
                legacy.now(), uni.now(),
                "flat CPU total cost must be the rows forwarded, identically"
            );
        }
    }

    /// The same oracle contract on the accelerator simulation (smaller
    /// grid — device engines are heavier to build). Cycle costs legally
    /// differ (one fused pass streams weights once), so only the token
    /// streams are compared.
    fn accel_unified_matches_sequential_oracle(
        n in 1usize..5,
        budget in 1usize..9,
        pct in 0usize..101,
        paged in any_bool(),
        seed in any_u64(),
    ) {
        let mut legacy = accel_engine(3, 4, paged, None);
        let mut uni = accel_engine(3, 4, paged, unified(budget, pct as u32));
        for r in random_requests(seed, n) {
            prop_assert!(legacy.submit(r.clone()).is_ok());
            prop_assert!(uni.submit(r).is_ok());
        }
        let a = streams(drain(&mut legacy));
        let b = streams(drain(&mut uni));
        prop_assert_eq!(&a, &b, "accel unified (budget {}, pct {}) diverged", budget, pct);
        prop_assert!(uni.stats().mixed_ticks > 0);
        prop_assert!(uni.all_slots_free());
        if paged {
            uni.check_paged_invariants().unwrap();
        }
    }

    /// Bursty open-loop traffic: the unified engine must serve a seeded
    /// burst workload with streams identical to the legacy engine, and
    /// two identical runs must render byte-identical reports (the
    /// determinism contract verify.sh leans on).
    fn bursty_traffic_is_stream_identical_and_reproducible(
        n in 1usize..12,
        burst in 1usize..5,
        seed in any_u64(),
    ) {
        let cfg = ModelConfig::test_tiny();
        let lg_cfg = LoadGenConfig {
            n_requests: n,
            mode: ArrivalMode::Bursty { burst_size: burst, burst_gap: 16 },
            prompt_len: (2, 8),
            shared_prefix_len: 0,
            max_new_tokens: (1, 6),
            sampler: SamplerKind::Temperature(0.8),
            stop_at_eos: true,
            vocab_size: cfg.vocab_size,
            seq_len: cfg.seq_len,
            seed,
        };
        let run_unified = || {
            let mut engine = cpu_engine(3, 4, false, unified(8, 50));
            let done = engine.run_with_source(&mut LoadGen::new(&lg_cfg));
            let report =
                ServeReport::from_run(&done, engine.stats(), engine.slot_reuses()).render("cpu");
            (streams(done), report)
        };
        let (s1, r1) = run_unified();
        let (s2, r2) = run_unified();
        prop_assert_eq!(&s1, &s2, "same seed must reproduce the same streams");
        prop_assert_eq!(&r1, &r2, "same seed must render byte-identical reports");

        let mut legacy = cpu_engine(3, 4, false, None);
        let legacy_streams = streams(legacy.run_with_source(&mut LoadGen::new(&lg_cfg)));
        prop_assert_eq!(&s1, &legacy_streams, "bursty unified diverged from legacy");
    }
}

/// A sequence can finish mid-tick (its sampled token exhausts the budget)
/// while another sequence is still mid-prefill in the same tick; the
/// streams must match the sequential engine and the tick must have
/// carried both row classes.
#[test]
fn sequence_finishing_mid_tick_while_another_prefills_is_bit_identical() {
    let mut legacy = cpu_engine(3, 2, false, None);
    let mut uni = cpu_engine(3, 2, false, unified(8, 50));
    let reqs = [
        req(0, vec![1, 5], 1, 70), // finishes on its first sample
        req(1, vec![1, 6], 6, 71), // keeps decoding
        req(2, vec![1, 7, 8, 9, 10, 11, 12, 13, 14, 15], 4, 72), // 5 chunks of prefill
    ];
    for r in &reqs {
        legacy.submit(r.clone()).unwrap();
        uni.submit(r.clone()).unwrap();
    }
    let a = streams(drain(&mut legacy));
    let b = streams(drain(&mut uni));
    assert_eq!(a, b, "mid-tick finish changed a stream");
    let stats = uni.stats();
    assert!(
        stats.overlap_ticks > 0,
        "a tick must have carried decode and prefill rows together"
    );
    assert_eq!(legacy.now(), uni.now(), "total row cost must agree");
}

/// A prefill chunk that exactly fills the token budget: the tick carries
/// precisely `budget` rows, the prompt splits into exact chunks, and the
/// stream is unchanged.
#[test]
fn prefill_chunk_exactly_filling_budget_is_bit_identical() {
    let mut legacy = cpu_engine(2, 4, false, None);
    let mut uni = cpu_engine(2, 4, false, unified(4, 50));
    let r = req(0, vec![1, 5, 9, 13, 17, 21, 25, 29], 3, 33); // 8 = 2 × budget
    legacy.submit(r.clone()).unwrap();
    uni.submit(r).unwrap();
    let a = streams(drain(&mut legacy));
    let b = streams(drain(&mut uni));
    assert_eq!(a, b, "exact-fit chunk changed the stream");
    let stats = uni.stats();
    assert_eq!(
        stats.max_tick_tokens, 4,
        "the widest tick must be exactly the budget"
    );
    assert_eq!(stats.prefill_chunks, 2, "8-token prompt must split in two");
}

/// A token budget smaller than one configured chunk forces the scheduler
/// to split the chunk across ticks; the sequential engine (whose chunks
/// are never budget-capped) must still see identical streams.
#[test]
fn budget_smaller_than_chunk_forces_split_and_stays_bit_identical() {
    let mut legacy = cpu_engine(2, 8, false, None);
    let mut uni = cpu_engine(2, 8, false, unified(3, 100));
    let r = req(0, vec![1, 5, 9, 13, 17, 21, 25, 29], 3, 44);
    legacy.submit(r.clone()).unwrap();
    uni.submit(r).unwrap();
    let a = streams(drain(&mut legacy));
    let b = streams(drain(&mut uni));
    assert_eq!(a, b, "forced chunk split changed the stream");
    let stats = uni.stats();
    assert!(stats.max_tick_tokens <= 3, "the budget is a hard row cap");
    assert_eq!(
        stats.prefill_chunks, 3,
        "8 prompt rows through a 3-row budget must take 3 runs"
    );
    assert_eq!(legacy.stats().prefill_chunks, 1, "the oracle takes one");
}

/// Preemption of a half-prefilled sequence: two old decoders grow their
/// block tables until the arena runs dry while a young long-prompt
/// sequence is still mid-prefill; the young sequence is preempted (blocks
/// released, re-prefilled from scratch later) and every stream must still
/// match the flat sequential engine exactly.
#[test]
fn preempting_half_prefilled_sequence_under_block_pressure_is_bit_identical() {
    let tight = BlockConfig {
        block_size: 4,
        n_blocks: 9, // one full context needs 8; three sequences must fight
    };
    let mut flat = cpu_engine(3, 4, false, None);
    let mut uni = cpu_paged_engine(3, 4, tight, unified(4, 50));
    let mut reqs = vec![
        req(0, vec![1, 5], 20, 80),
        req(1, vec![1, 6], 20, 81),
        // Admitted last (youngest): 20 prompt tokens = 5 blocks, prefilled
        // 2 rows per tick under the shared budget — still cold when the
        // decoders outgrow the arena.
        req(
            2,
            (0..20).map(|i| if i == 0 { 1 } else { 3 + i }).collect(),
            4,
            82,
        ),
    ];
    for r in &mut reqs {
        r.stop_at_eos = false; // force long generations
        flat.submit(r.clone()).unwrap();
        uni.submit(r.clone()).unwrap();
    }
    let a = streams(drain(&mut flat));
    let b = streams(drain(&mut uni));
    assert_eq!(a, b, "preempting a cold sequence changed a stream");
    assert_eq!(b[0].1.len(), 20, "decoder budgets must be exhausted");
    assert!(
        uni.stats().preemptions > 0,
        "the tight arena must force preemption"
    );
    uni.check_paged_invariants().unwrap();
    assert!(uni.all_slots_free());
}

/// Satellite 1, directly: a CPU tick costs exactly the token rows it
/// carries. One 5-token prompt through a 3-row chunk advances the clock
/// by 3, 2, 1 (chunk, chunk remainder, decode row), then 0 on the final
/// tick whose sampled token ends the request without a forward.
#[test]
fn cpu_tick_cost_is_exactly_the_rows_carried() {
    let mut uni = cpu_engine(2, 3, false, unified(8, 50));
    let mut r = req(0, vec![1, 5, 9, 13, 17], 2, 91);
    r.stop_at_eos = false;
    uni.submit(r).unwrap();
    let mut deltas = Vec::new();
    while !uni.is_idle() {
        let before = uni.now();
        uni.step();
        deltas.push(uni.now() - before);
    }
    assert_eq!(
        deltas,
        vec![3, 2, 1, 0],
        "tick cost must equal rows carried per tick"
    );
}

/// Satellite 1, report regression: for a pure-decode-regime workload
/// (every prompt fits one chunk, the budget covers every row, nobody is
/// deferred) the unified scheduler produces the **same report bytes** as
/// the phase-serialized engine — same timestamps, same rendered counters;
/// the new stats fields are deliberately not rendered.
#[test]
fn pure_decode_report_bytes_match_legacy_engine() {
    let reqs = [
        req(0, vec![1, 5, 9], 6, 10),
        req(1, vec![1, 6, 10, 14], 5, 11),
        req(2, vec![1, 7], 7, 12),
        req(3, vec![1, 8, 12, 16, 20], 4, 13),
    ];
    let run = |unified_cfg: Option<UnifiedConfig>| {
        let mut engine = cpu_engine(4, 6, false, unified_cfg);
        for r in &reqs {
            engine.submit(r.clone()).unwrap();
        }
        let done = drain(&mut engine);
        ServeReport::from_run(&done, engine.stats(), engine.slot_reuses()).render("cpu")
    };
    let legacy = run(None);
    let new = run(unified(64, 50));
    assert_eq!(
        legacy, new,
        "pure-decode workloads must render identical report bytes"
    );
}

/// The accel variant of the report regression (single request: one
/// sequence's fused mixed pass runs the same device timing as the
/// separate prefill/decode passes, so even cycle counts must agree).
#[test]
fn accel_single_request_report_bytes_match_legacy_engine() {
    let r = req(0, vec![1, 5, 9, 13], 6, 21);
    let run = |unified_cfg: Option<UnifiedConfig>| {
        let mut engine = accel_engine(2, 6, false, unified_cfg);
        engine.submit(r.clone()).unwrap();
        let done = drain(&mut engine);
        ServeReport::from_run(&done, engine.stats(), engine.slot_reuses()).render("accel")
    };
    let legacy = run(None);
    let new = run(unified(64, 50));
    assert_eq!(
        legacy, new,
        "accel single-request report bytes must be unchanged"
    );
}

/// The headline claim (ISSUE 6 acceptance): under a bursty workload at
/// equal KV budget, the unified scheduler's fused tick streams weights
/// once for decode + prefill together, so the accelerator reaches first
/// tokens sooner — TTFT p99 must strictly improve over the
/// phase-serialized engine, with identical token streams.
#[test]
fn bursty_accel_ttft_p99_improves_at_equal_kv_budget() {
    let cfg = ModelConfig::test_tiny();
    let lg_cfg = LoadGenConfig {
        n_requests: 12,
        mode: ArrivalMode::Bursty {
            burst_size: 4,
            burst_gap: 32,
        },
        prompt_len: (8, 16),
        max_new_tokens: (4, 10),
        shared_prefix_len: 0,
        sampler: SamplerKind::Temperature(0.8),
        stop_at_eos: false,
        vocab_size: cfg.vocab_size,
        seq_len: cfg.seq_len,
        seed: 1234,
    };
    let run = |unified_cfg: Option<UnifiedConfig>| {
        let mut engine = accel_engine(4, 4, true, unified_cfg);
        let done = engine.run_with_source(&mut LoadGen::new(&lg_cfg));
        let report = ServeReport::from_run(&done, engine.stats(), engine.slot_reuses());
        (streams(done), report)
    };
    let (legacy_streams, legacy) = run(None);
    let (unified_streams, new) = run(unified(16, 50));
    assert_eq!(
        legacy_streams, unified_streams,
        "the speedup must not touch the tokens"
    );
    assert!(
        new.ttft.p99 < legacy.ttft.p99,
        "unified TTFT p99 ({} cycles) must beat legacy ({} cycles)",
        new.ttft.p99,
        legacy.ttft.p99
    );
    assert!(
        new.makespan <= legacy.makespan,
        "fused ticks must not lengthen the run ({} vs {})",
        new.makespan,
        legacy.makespan
    );
}
