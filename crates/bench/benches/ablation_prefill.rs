//! Ablation bench for **chunked prefill** (extension beyond the paper):
//! prints prefill latency vs chunk length (weight-stream amortization) and
//! bench-measures the chunked engine pass.

use speedllm_accel::engine::{AccelConfig, Engine};
use speedllm_accel::opt::OptConfig;
use speedllm_bench::harness::Runner;
use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::LogitRows;
use speedllm_llama::kv_cache::KvCache;
use speedllm_llama::resident::IntoResident;
use speedllm_llama::weights::TransformerWeights;
use speedllm_llama::QuantMode;
use std::hint::black_box;
use std::sync::Arc;

fn print_ablation() {
    println!("--- chunked-prefill ablation (stories260K, 32-token prompt) ---");
    let weights =
        TransformerWeights::synthetic(ModelConfig::stories260k(), 42).into_resident(QuantMode::F32);
    let tokens: Vec<u32> = (0..32).map(|i| 5 + i as u32).collect();
    let mut base_cycles = 0u64;
    for chunk in [1usize, 2, 4, 8, 16, 32] {
        let mut engine = Engine::with_config(
            Arc::clone(&weights),
            OptConfig::full(),
            AccelConfig::for_opt(&OptConfig::full()),
        )
        .unwrap();
        let mut seq = KvCache::new(&engine.graph().config);
        let mut cycles = 0u64;
        let mut reads = 0u64;
        for run in tokens.chunks(chunk) {
            let (_, r) = engine.forward_runs([&mut seq].as_mut_slice(), &[run], LogitRows::Last);
            cycles += r.cycles.0;
            reads += r.stats.hbm.read_bytes;
        }
        if chunk == 1 {
            base_cycles = cycles;
        }
        println!(
            "chunk {chunk:>2}: {cycles:>8} cycles ({:.2}x), {reads:>9} B HBM read",
            base_cycles as f64 / cycles as f64
        );
    }
    println!("----------------------------------------------------------------");
}

fn bench_prefill(c: &mut Runner) {
    print_ablation();
    let weights =
        TransformerWeights::synthetic(ModelConfig::stories260k(), 42).into_resident(QuantMode::F32);
    let tokens: Vec<u32> = (0..16).map(|i| 5 + i as u32).collect();
    for chunk in [1usize, 16] {
        let mut engine = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
        let mut seq = KvCache::new(&engine.graph().config);
        c.bench_function(&format!("ablation/prefill_chunk_{chunk}"), |b| {
            b.iter(|| {
                seq.reset();
                let mut total = 0u64;
                for run in tokens.chunks(chunk) {
                    let (_, r) = engine.forward_runs(
                        [&mut seq].as_mut_slice(),
                        &[black_box(run)],
                        LogitRows::Last,
                    );
                    total += r.cycles.0;
                }
                black_box(total)
            })
        });
    }
}

fn main() {
    let mut c = Runner::from_env().sample_size(20);
    bench_prefill(&mut c);
    c.finish();
}
