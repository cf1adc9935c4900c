//! Context-length ablation: per-token decode cost grows with the cached
//! context (KV paging). The int8 KV cache (extension) cuts attention
//! *traffic* ~4x; at TinyStories scale the wall-clock effect is modest
//! (attention pages are small next to weight streams) but the energy-side
//! traffic saving is exact — both are printed. The harness then measures a
//! long-context decode step.

use speedllm_accel::engine::{AccelConfig, Engine, StepResult};
use speedllm_accel::opt::OptConfig;
use speedllm_bench::harness::Runner;
use speedllm_fpga_sim::mpe::Precision;
use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::LogitRows;
use speedllm_llama::kv_cache::KvCache;
use speedllm_llama::resident::{IntoResident, ResidentWeights};
use speedllm_llama::weights::TransformerWeights;
use speedllm_llama::QuantMode;
use std::hint::black_box;
use std::sync::Arc;

/// An engine at KV precision `kv`, with one empty sequence.
fn build(kv: Precision, weights: &Arc<ResidentWeights>) -> (Engine, KvCache) {
    let mut cfg = AccelConfig::for_opt(&OptConfig::full());
    cfg.kv_precision = kv;
    let engine = Engine::with_config(Arc::clone(weights), OptConfig::full(), cfg).unwrap();
    let seq = KvCache::new(&engine.graph().config);
    (engine, seq)
}

/// One decode pass of `token` extending `seq`.
fn step(engine: &mut Engine, seq: &mut KvCache, token: u32) -> StepResult {
    engine
        .forward_runs([seq].as_mut_slice(), &[&[token]], LogitRows::Last)
        .1
}

fn print_sweep() {
    println!("--- decode cost vs context length (stories15M, seq 256) ---");
    let weights =
        TransformerWeights::synthetic(ModelConfig::stories15m(), 42).into_resident(QuantMode::F32);
    let (mut f32kv, mut f32seq) = build(Precision::Fp32, &weights);
    let (mut i8kv, mut i8seq) = build(Precision::Int8, &weights);
    let checkpoints = [0usize, 64, 128, 255];
    let mut next = 0usize;
    for pos in 0..=255 {
        let a = step(&mut f32kv, &mut f32seq, 1 + (pos % 100) as u32);
        let b = step(&mut i8kv, &mut i8seq, 1 + (pos % 100) as u32);
        if next < checkpoints.len() && pos == checkpoints[next] {
            println!(
                "ctx {pos:>3}: f32-KV {:>6} cyc, {:>9} B read | int8-KV {:>6} cyc, {:>9} B read ({:.2}x time, {:.2}x bytes)",
                a.cycles.0,
                a.stats.hbm.read_bytes,
                b.cycles.0,
                b.stats.hbm.read_bytes,
                a.cycles.0 as f64 / b.cycles.0 as f64,
                a.stats.hbm.read_bytes as f64 / b.stats.hbm.read_bytes as f64,
            );
            next += 1;
        }
    }
    println!("------------------------------------------------------------");
}

fn bench_long_context(c: &mut Runner) {
    print_sweep();
    let weights =
        TransformerWeights::synthetic(ModelConfig::stories260k(), 42).into_resident(QuantMode::F32);
    for (name, kv) in [("f32", Precision::Fp32), ("int8", Precision::Int8)] {
        let (mut engine, mut seq) = build(kv, &weights);
        for _ in 0..256 {
            step(&mut engine, &mut seq, 1);
        }
        c.bench_function(&format!("ablation/decode_ctx256_kv_{name}"), |b| {
            b.iter(|| {
                let r = step(&mut engine, &mut seq, black_box(3));
                if seq.len() >= 500 {
                    // Reset and refill to the measurement window.
                    seq.reset();
                    for _ in 0..256 {
                        step(&mut engine, &mut seq, 1);
                    }
                }
                black_box(r.cycles)
            })
        });
    }
}

fn main() {
    let mut c = Runner::from_env().sample_size(20);
    bench_long_context(&mut c);
    c.finish();
}
