//! Renders an ASCII Gantt chart of one decode step's device timeline —
//! visual proof that the streamed design overlaps DMA reads, MPE/SFU
//! compute, and write-back, while the sequential baseline staircases.

use speedllm::prelude::*;

fn trace_step(opt: OptConfig, label: &str) {
    let cfg = ModelConfig::stories260k();
    let system = AcceleratedLlm::synthetic(cfg, 42, opt).expect("build");
    let mut session = system.session(SamplerKind::Argmax, 0);
    // Warm two positions so attention has context, then trace step 3.
    session.step(5);
    session.step(6);
    session.engine_mut().capture_trace(4096);
    let r = session.step(7);
    let trace = session.engine_mut().take_trace().expect("trace");
    println!(
        "=== {label} ({}) — one decode step, {} cycles ===",
        opt.short_name(),
        r.cycles.0
    );
    print!("{}", trace.render_gantt(100));
    println!();
}

fn main() {
    println!("device timeline of one stories260K decode step\n");
    trace_step(OptConfig::full(), "streamed (SpeedLLM)");
    trace_step(OptConfig::unoptimized(), "sequential (unoptimized)");
    println!(
        "In the streamed run the DMA-RD row is nearly solid (reads prefetch\n\
         ahead of compute); in the sequential run every resource idles while\n\
         the others work, and the HOST row shows per-kernel launch gaps."
    );
}
