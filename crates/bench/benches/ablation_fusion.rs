//! Ablation bench for the **operator-fusion design choice** (DESIGN.md §4):
//! sweeps the composite-kernel depth limit, prints its effect on kernel
//! count and simulated per-token latency, then bench-measures the
//! fusion pass itself.

use speedllm_accel::engine::{AccelConfig, Engine};
use speedllm_accel::fusion::{fuse, fuse_with_limit};
use speedllm_accel::ir::build_decode_graph;
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
    println!("--- fusion-depth ablation (stories260K engine, 15M graph stats) ---");
    let g15 = build_decode_graph(&ModelConfig::stories15m());
    let weights =
        TransformerWeights::synthetic(ModelConfig::stories260k(), 42).into_resident(QuantMode::F32);
    for limit in [1usize, 2, 4, 8] {
        let report = fuse_with_limit(&g15, true, limit).report(&g15);
        let mut cfg = AccelConfig::for_opt(&OptConfig::full());
        cfg.fusion_max_ops = limit;
        let mut engine = Engine::with_config(Arc::clone(&weights), OptConfig::full(), cfg).unwrap();
        let mut seq = KvCache::new(&engine.graph().config);
        let (_, step) = engine.forward_runs([&mut seq].as_mut_slice(), &[&[1]], LogitRows::Last);
        println!(
            "limit {limit}: {:>3} kernels, {:>3} internal values (15M); 260K step = {} cycles",
            report.kernels, report.internal_values, step.cycles.0
        );
    }
    println!("--------------------------------------------------------------------");
}

fn bench_fusion_pass(c: &mut Runner) {
    print_ablation();
    let graph = build_decode_graph(&ModelConfig::stories15m());
    c.bench_function("ablation/fuse_pass_15m", |b| {
        b.iter(|| black_box(fuse(black_box(&graph), true).kernels.len()))
    });
    c.bench_function("ablation/classify_15m", |b| {
        let schedule = fuse(&graph, true);
        b.iter(|| black_box(schedule.classify(&graph).internal.len()))
    });
}

fn main() {
    let mut c = Runner::from_env();
    bench_fusion_pass(&mut c);
    c.finish();
}
