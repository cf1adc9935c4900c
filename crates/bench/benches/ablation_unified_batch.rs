//! Ablation bench for the **unified mixed prefill+decode batch**
//! (DESIGN.md §14): serves the same seeded bursty open-loop workload
//! through the accelerator backend twice — phase-serialized (PR 5 loop)
//! vs unified (Sarathi-style token-budget ticks) — at equal paged-KV
//! budget, and prints TTFT p99 against offered load. The unified tick
//! streams each weight matrix once for decode and prefill rows together,
//! so first tokens land sooner as bursts pile up. The bench target times
//! one full serve run of each scheduler on the simulator.

use speedllm_accel::engine::Engine;
use speedllm_accel::opt::OptConfig;
use speedllm_bench::harness::{is_smoke, Runner};
use speedllm_llama::config::ModelConfig;
use speedllm_llama::resident::{IntoResident, ResidentWeights};
use speedllm_llama::sampler::SamplerKind;
use speedllm_llama::weights::TransformerWeights;
use speedllm_llama::QuantMode;
use speedllm_pagedkv::BlockConfig;
use speedllm_serve::{
    AccelBackend, ArrivalMode, LoadGen, LoadGenConfig, ServeConfig, ServeEngine, ServeReport,
    UnifiedConfig,
};
use std::hint::black_box;
use std::sync::Arc;

const BLOCK_SIZE: usize = 8;
const SLOTS: usize = 4;

fn workload(cfg: ModelConfig, n_requests: usize, burst_gap: u64) -> LoadGenConfig {
    LoadGenConfig {
        n_requests,
        mode: ArrivalMode::Bursty {
            burst_size: 4,
            burst_gap,
        },
        prompt_len: (8, (cfg.seq_len / 2).clamp(8, 64)),
        shared_prefix_len: 0,
        max_new_tokens: (4, 12),
        sampler: SamplerKind::Temperature(0.8),
        stop_at_eos: false,
        vocab_size: cfg.vocab_size,
        seq_len: cfg.seq_len,
        seed: 42,
    }
}

/// Both schedulers get the same arena: `SLOTS` full contexts of blocks —
/// the "equal KV budget" in the ISSUE 6 acceptance criterion.
fn serve_once(
    weights: &Arc<ResidentWeights>,
    cfg: ModelConfig,
    unified: Option<UnifiedConfig>,
    lcfg: &LoadGenConfig,
) -> ServeReport {
    let engine = Engine::new(Arc::clone(weights), OptConfig::full()).unwrap();
    let blocks = BlockConfig {
        block_size: BLOCK_SIZE,
        n_blocks: SLOTS * cfg.seq_len.div_ceil(BLOCK_SIZE),
    };
    let mut serve = ServeEngine::new(
        AccelBackend::new_paged(engine, blocks),
        ServeConfig {
            slots: SLOTS,
            max_batch: SLOTS,
            prefill_chunk: 4,
            queue_cap: 64,
            unified,
        },
    );
    let mut traffic = LoadGen::new(lcfg);
    let completions = serve.run_with_source(&mut traffic);
    ServeReport::from_run(&completions, serve.stats(), serve.slot_reuses())
}

fn print_ablation() {
    // Offered load rises as the inter-burst gap shrinks; the gaps are
    // sized to the model's per-burst service time so the sweep actually
    // spans under-subscribed to saturated.
    let (cfg, n, gaps) = if is_smoke() {
        (ModelConfig::test_tiny(), 8, [16384u64, 4096, 1024])
    } else {
        (ModelConfig::stories260k(), 24, [131072u64, 32768, 8192])
    };
    let weights = TransformerWeights::synthetic(cfg, 42).into_resident(QuantMode::F32);
    println!(
        "--- unified-batch ablation ({cfg}, {n} requests, bursts of 4, {SLOTS} slots, equal KV budget) ---"
    );
    for burst_gap in gaps {
        let lcfg = workload(cfg, n, burst_gap);
        let legacy = serve_once(&weights, cfg, None, &lcfg);
        let uni = serve_once(&weights, cfg, Some(UnifiedConfig::default()), &lcfg);
        assert_eq!(
            legacy.tokens, uni.tokens,
            "schedulers must emit same tokens"
        );
        println!(
            "burst gap {burst_gap:>4}: ttft p99 {:>8} -> {:>8} cycles ({:+.1}%), \
             makespan {:>9} -> {:>9}, overlap ticks {}",
            legacy.ttft.p99,
            uni.ttft.p99,
            (uni.ttft.p99 as f64 / legacy.ttft.p99.max(1) as f64 - 1.0) * 100.0,
            legacy.makespan,
            uni.makespan,
            uni.stats.overlap_ticks,
        );
    }
    println!(
        "--------------------------------------------------------------------------------------"
    );
}

fn bench_unified_batch(c: &mut Runner) {
    print_ablation();
    let cfg = ModelConfig::test_tiny();
    let weights = TransformerWeights::synthetic(cfg, 42).into_resident(QuantMode::F32);
    let lcfg = workload(cfg, 8, 32);
    c.bench_function("ablation/serve_phase_serialized", |b| {
        b.iter(|| black_box(serve_once(&weights, cfg, None, &lcfg).tokens))
    });
    c.bench_function("ablation/serve_unified_batch", |b| {
        b.iter(|| {
            black_box(serve_once(&weights, cfg, Some(UnifiedConfig::default()), &lcfg).tokens)
        })
    });
}

fn main() {
    let mut c = Runner::from_env().sample_size(10);
    bench_unified_batch(&mut c);
    c.finish();
}
