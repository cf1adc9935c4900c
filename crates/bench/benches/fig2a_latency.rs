//! Timing bench behind **Fig 2(a)**: decode-step cost of the SpeedLLM
//! variants. The simulated (device) latency series is printed once at
//! startup — that is the figure's data; the timed samples measure the
//! simulator's own host-side throughput for regression tracking.

use speedllm_accel::engine::Engine;
use speedllm_accel::opt::OptConfig;
use speedllm_bench::harness::Runner;
use speedllm_bench::{fig2a_workloads, headline_preset, run_paper_variants, SEED};
use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::LogitRows;
use speedllm_llama::kv_cache::KvCache;
use speedllm_llama::weights::TransformerWeights;
use std::hint::black_box;

fn print_figure_series() {
    println!("--- Fig 2(a) series (simulated device latency, stories15M) ---");
    let preset = headline_preset();
    for w in fig2a_workloads() {
        let ms = run_paper_variants(&preset, &w);
        let ours = speedllm_bench::find(&ms, "SpeedLLM (ours)");
        let unopt = speedllm_bench::find(&ms, "unoptimized");
        println!(
            "{:<16} ours {:>9.3} ms  unopt {:>9.3} ms  speedup {:.2}x",
            w.name,
            ours.latency_s() * 1e3,
            unopt.latency_s() * 1e3,
            unopt.latency_s() / ours.latency_s()
        );
    }
    println!("----------------------------------------------------------------");
}

fn bench_decode_step(c: &mut Runner) {
    print_figure_series();
    c.set_meta("config", "stories260k");
    for (name, opt) in OptConfig::paper_variants() {
        c.set_meta("variant", name);
        let mut group = c.benchmark_group("fig2a/decode_step");
        let weights = TransformerWeights::synthetic(ModelConfig::stories260k(), SEED);
        let mut engine = Engine::new(weights, opt).unwrap();
        let mut seq = KvCache::new(&engine.graph().config);
        // One decode pass; the context starts over at 500 positions.
        let mut step = |token: u32| {
            let (_, r) =
                engine.forward_runs([&mut seq].as_mut_slice(), &[&[token]], LogitRows::Last);
            if seq.len() >= 500 {
                seq.reset();
            }
            r
        };
        // Warm the context so attention has work to do.
        for tok in 1..5 {
            step(tok);
        }
        group.bench_function(name, |b| {
            b.iter(|| {
                let r = step(black_box(7));
                black_box(r.cycles)
            })
        });
        group.finish();
    }
}

fn main() {
    let mut c = Runner::from_env().sample_size(20);
    bench_decode_step(&mut c);
    c.finish();
}
