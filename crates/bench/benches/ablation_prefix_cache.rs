//! Ablation bench for the **paged KV cache with radix prefix sharing**
//! (extension beyond the paper, DESIGN.md §12): serves the same seeded
//! closed-loop shared-prefix workload through the accelerator backend
//! twice at the *same total KV budget* — once as a flat slot pool (one
//! full `seq_len` reservation per admitted request), once paged with the
//! radix prefix cache. The paged run prefills the shared prompt blocks
//! once, so TTFT drops and more sequences fit in flight. The bench
//! target times one full paged serve run on the simulator.

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
    AccelBackend, ArrivalMode, Completion, LoadGen, LoadGenConfig, ServeConfig, ServeEngine,
    ServeReport,
};
use std::hint::black_box;
use std::sync::Arc;

/// Closed-loop workload where every prompt opens with `shared` common
/// tokens (the "system prompt") before its unique tail.
fn workload(cfg: ModelConfig, n_requests: usize, shared: usize) -> LoadGenConfig {
    LoadGenConfig {
        n_requests,
        mode: ArrivalMode::Closed { concurrency: 6 },
        prompt_len: (shared + 2, shared + 4),
        shared_prefix_len: shared,
        max_new_tokens: (2, 6),
        sampler: SamplerKind::Temperature(0.8),
        stop_at_eos: true,
        vocab_size: cfg.vocab_size,
        seq_len: cfg.seq_len,
        seed: 42,
    }
}

struct Outcome {
    report: ServeReport,
    mean_ttft: f64,
    max_active: usize,
}

fn mean_ttft(done: &[Completion]) -> f64 {
    let (sum, n) = done
        .iter()
        .filter_map(Completion::ttft)
        .fold((0u64, 0u64), |(s, n), t| (s + t, n + 1));
    sum as f64 / (n as f64).max(1.0)
}

/// One serve run at a fixed KV budget of `flat_slots * seq_len` tokens.
/// `paged: false` spends it as `flat_slots` monolithic slots; `paged:
/// true` spends the identical budget as a block arena (a slot is then
/// just a table, so the pool is sized by blocks, not slots).
fn serve_once(
    weights: &Arc<ResidentWeights>,
    paged: bool,
    flat_slots: usize,
    block_size: usize,
    lcfg: &LoadGenConfig,
) -> Outcome {
    let engine = Engine::new(Arc::clone(weights), OptConfig::full()).unwrap();
    let n_blocks = flat_slots * weights.config().seq_len.div_ceil(block_size);
    let (backend, slots) = if paged {
        let bc = BlockConfig {
            block_size,
            n_blocks,
        };
        (AccelBackend::new_paged(engine, bc), n_blocks)
    } else {
        (AccelBackend::new(engine), flat_slots)
    };
    let mut serve = ServeEngine::new(
        backend,
        ServeConfig {
            slots,
            max_batch: 8,
            prefill_chunk: 16,
            queue_cap: 64,
            unified: None,
        },
    );
    let completions = serve.run_with_source(&mut LoadGen::new(lcfg));
    Outcome {
        mean_ttft: mean_ttft(&completions),
        max_active: serve.stats().max_active_observed,
        report: ServeReport::from_run(&completions, serve.stats(), serve.slot_reuses()),
    }
}

fn print_ablation() {
    let (cfg, n, shared, bs) = if is_smoke() {
        (ModelConfig::test_tiny(), 8, 8, 4)
    } else {
        (ModelConfig::stories260k(), 24, 16, 8)
    };
    let flat_slots = 2;
    println!(
        "--- prefix-cache ablation ({cfg}, {n} requests, shared prefix {shared}, \
         KV budget = {flat_slots} x seq_len) ---"
    );
    let weights = TransformerWeights::synthetic(cfg, 42).into_resident(QuantMode::F32);
    let lcfg = workload(cfg, n, shared);
    for paged in [false, true] {
        let o = serve_once(&weights, paged, flat_slots, bs, &lcfg);
        println!(
            "{:<9} mean ttft {:>7.1} ticks, max active {:>2}, {:>8.3} tok/ktick, \
             prefix hits {:>3} tok, preemptions {}",
            if paged { "paged:" } else { "slot-pool:" },
            o.mean_ttft,
            o.max_active,
            o.report.tokens_per_kilotick,
            o.report.stats.prefix_hit_tokens,
            o.report.stats.preemptions,
        );
    }
    println!("-----------------------------------------------------------------------");
}

fn bench_prefix_cache(c: &mut Runner) {
    print_ablation();
    let cfg = ModelConfig::test_tiny();
    let weights = TransformerWeights::synthetic(cfg, 42).into_resident(QuantMode::F32);
    let lcfg = workload(cfg, 8, 8);
    for (name, paged) in [("slot_pool", false), ("paged_radix", true)] {
        c.bench_function(&format!("ablation/serve_prefix_cache_{name}"), |b| {
            b.iter(|| black_box(serve_once(&weights, paged, 2, 4, &lcfg).report.tokens))
        });
    }
}

fn main() {
    let mut c = Runner::from_env().sample_size(10);
    bench_prefix_cache(&mut c);
    c.finish();
}
