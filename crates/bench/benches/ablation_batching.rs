//! Ablation bench for **continuous batching** (extension beyond the
//! paper): serves the same seeded closed-loop workload through the
//! accelerator backend at increasing slot counts and prints the
//! virtual-tick throughput — weight-stream amortization across the batch
//! is what makes the line climb. The bench target times one full serve
//! run on the simulator.

use speedllm_accel::engine::Engine;
use speedllm_accel::opt::OptConfig;
use speedllm_bench::harness::{is_smoke, Runner};
use speedllm_llama::config::ModelConfig;
use speedllm_llama::resident::{IntoResident, ResidentWeights};
use speedllm_llama::sampler::SamplerKind;
use speedllm_llama::weights::TransformerWeights;
use speedllm_llama::QuantMode;
use speedllm_serve::{
    AccelBackend, ArrivalMode, LoadGen, LoadGenConfig, ServeConfig, ServeEngine, ServeReport,
};
use std::hint::black_box;
use std::sync::Arc;

fn workload(cfg: ModelConfig, n_requests: usize, concurrency: usize) -> LoadGenConfig {
    LoadGenConfig {
        n_requests,
        mode: ArrivalMode::Closed { concurrency },
        prompt_len: (2, (cfg.seq_len / 4).clamp(2, 12)),
        shared_prefix_len: 0,
        max_new_tokens: (4, 12),
        sampler: SamplerKind::Temperature(0.8),
        stop_at_eos: true,
        vocab_size: cfg.vocab_size,
        seq_len: cfg.seq_len,
        seed: 42,
    }
}

fn serve_once(weights: &Arc<ResidentWeights>, slots: usize, lcfg: &LoadGenConfig) -> ServeReport {
    let engine = Engine::new(Arc::clone(weights), OptConfig::full()).unwrap();
    let mut serve = ServeEngine::new(
        AccelBackend::new(engine),
        ServeConfig {
            slots,
            max_batch: slots,
            prefill_chunk: 16,
            queue_cap: 64,
            unified: None,
        },
    );
    let mut traffic = LoadGen::new(lcfg);
    let completions = serve.run_with_source(&mut traffic);
    ServeReport::from_run(&completions, serve.stats(), serve.slot_reuses())
}

fn print_ablation() {
    let (cfg, n) = if is_smoke() {
        (ModelConfig::test_tiny(), 8)
    } else {
        (ModelConfig::stories260k(), 24)
    };
    println!("--- continuous-batching ablation ({cfg}, {n} requests, closed loop) ---");
    let weights = TransformerWeights::synthetic(cfg, 42).into_resident(QuantMode::F32);
    let mut base = 0.0f64;
    for slots in [1usize, 2, 4, 8] {
        let r = serve_once(&weights, slots, &workload(cfg, n, slots));
        if slots == 1 {
            base = r.tokens_per_kilotick;
        }
        println!(
            "slots {slots}: {:>8.3} tok/ktick ({:.2}x), ttft p95 {:>8} ticks, {} decode batches",
            r.tokens_per_kilotick,
            r.tokens_per_kilotick / base.max(f64::MIN_POSITIVE),
            r.ttft.p95,
            r.stats.decode_batches,
        );
    }
    println!("-----------------------------------------------------------------------");
}

fn bench_batching(c: &mut Runner) {
    print_ablation();
    let cfg = ModelConfig::test_tiny();
    let weights = TransformerWeights::synthetic(cfg, 42).into_resident(QuantMode::F32);
    for slots in [1usize, 4] {
        let lcfg = workload(cfg, 8, slots);
        c.bench_function(&format!("ablation/serve_batching_slots_{slots}"), |b| {
            b.iter(|| black_box(serve_once(&weights, slots, &lcfg).tokens))
        });
    }
}

fn main() {
    let mut c = Runner::from_env().sample_size(10);
    bench_batching(&mut c);
    c.finish();
}
