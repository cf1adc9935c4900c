//! Ablation bench for the **double-buffer depth design choice**
//! (DESIGN.md §4): prints simulated per-token latency at depths 1–4 and
//! bench-measures the tile scheduler recurrence.

use speedllm_accel::engine::{AccelConfig, Engine};
use speedllm_accel::opt::OptConfig;
use speedllm_accel::pipeline::{schedule_kernel, PipelineConfig, TileCost, Unit, N_RESOURCES};
use speedllm_bench::harness::Runner;
use speedllm_fpga_sim::cycles::Cycles;
use speedllm_fpga_sim::event::Timeline;
use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::LogitRows;
use speedllm_llama::kv_cache::KvCache;
use speedllm_llama::resident::IntoResident;
use speedllm_llama::weights::TransformerWeights;
use speedllm_llama::QuantMode;
use std::hint::black_box;
use std::sync::Arc;

fn print_ablation() {
    println!("--- double-buffer depth ablation (stories260K, full design) ---");
    let weights =
        TransformerWeights::synthetic(ModelConfig::stories260k(), 42).into_resident(QuantMode::F32);
    for depth in [1usize, 2, 3, 4] {
        let mut cfg = AccelConfig::for_opt(&OptConfig::full());
        cfg.double_buffer_depth = depth;
        let mut engine = Engine::with_config(Arc::clone(&weights), OptConfig::full(), cfg).unwrap();
        let mut seq = KvCache::new(&engine.graph().config);
        let (_, step) = engine.forward_runs([&mut seq].as_mut_slice(), &[&[1]], LogitRows::Last);
        println!("depth {depth}: {} cycles/token", step.cycles.0);
    }
    println!("----------------------------------------------------------------");
}

fn bench_scheduler(c: &mut Runner) {
    print_ablation();
    let tiles: Vec<TileCost> = (0..64)
        .map(|i| TileCost {
            read: Cycles(40 + (i % 7) * 3),
            compute: Cycles(35 + (i % 5) * 4),
            write: Cycles(if i % 8 == 0 { 20 } else { 0 }),
            unit: if i % 9 == 0 { Unit::Sfu } else { Unit::Mpe },
        })
        .collect();
    for (name, streamed) in [("streamed", true), ("sequential", false)] {
        let cfg = PipelineConfig {
            streamed,
            depth: 2,
            launch: Cycles(280),
            streamed_launch: Cycles(40),
        };
        c.bench_function(&format!("ablation/schedule_kernel_{name}"), |b| {
            b.iter(|| {
                let mut tl = Timeline::new(N_RESOURCES);
                let t = schedule_kernel(
                    &mut tl,
                    None,
                    &cfg,
                    Cycles::ZERO,
                    Cycles::ZERO,
                    Cycles::ZERO,
                    black_box(&tiles),
                    "bench",
                );
                black_box(t.span.end)
            })
        });
    }
}

fn main() {
    let mut c = Runner::from_env();
    bench_scheduler(&mut c);
    c.finish();
}
