//! Batched serving study (extension beyond the paper): many independent
//! chat sessions decode in lock-step on one accelerator, sharing every
//! weight stream. Aggregate throughput grows with batch size until the MPE
//! becomes the bottleneck — the classic serving curve, produced entirely by
//! the device model.

use speedllm::accel::engine::Engine;
use speedllm::accel::report::Table;
use speedllm::llama::forward::LogitRows;
use speedllm::llama::kv_cache::KvCache;
use speedllm::prelude::*;

fn main() {
    let cfg = ModelConfig::stories15m();
    println!("batched decode on {cfg}\n");

    let weights = std::sync::Arc::new(TransformerWeights::synthetic(cfg, 42));
    let decode_steps = 8;
    for (mode, opt) in [
        ("fp32 MPE", OptConfig::full()),
        ("int8 MPE", OptConfig::full_int8()),
    ] {
        println!("--- {mode} ---");
        let mut engine = Engine::new(std::sync::Arc::clone(&weights), opt).expect("build engine");
        let clock = engine.power_model().clock;

        let mut table = Table::new(&[
            "batch",
            "cycles/step",
            "latency/token",
            "aggregate tok/s",
            "speedup",
            "HBM read/step",
        ]);
        let mut base_tps = 0.0f64;
        for batch in [1usize, 2, 4, 8, 16, 32] {
            let mut seqs: Vec<_> = (0..batch)
                .map(|_| KvCache::new(&engine.graph().config))
                .collect();
            // Warm each sequence with a couple of context tokens.
            for (i, seq) in seqs.iter_mut().enumerate() {
                let warm: &[u32] = &[i as u32 % 100 + 1, (i as u32 + 1) % 100 + 1];
                engine.forward_runs([seq].as_mut_slice(), &[warm], LogitRows::Last);
            }
            let mut cycles = 0u64;
            let mut read = 0u64;
            for step in 0..decode_steps {
                let tokens: Vec<u32> = (0..batch).map(|i| ((i + step) % 200) as u32 + 1).collect();
                let mut refs: Vec<&mut _> = seqs.iter_mut().collect();
                let runs: Vec<&[u32]> = tokens.iter().map(std::slice::from_ref).collect();
                let (_, r) = engine.forward_runs(refs.as_mut_slice(), &runs, LogitRows::Last);
                cycles += r.cycles.0;
                read += r.stats.hbm.read_bytes;
            }
            let secs = clock.to_seconds(speedllm::fpga::cycles::Cycles(cycles));
            let tps = (batch * decode_steps) as f64 / secs;
            if batch == 1 {
                base_tps = tps;
            }
            table.row(vec![
                batch.to_string(),
                format!("{}", cycles / decode_steps as u64),
                format!(
                    "{:.0} us",
                    clock.to_micros(speedllm::fpga::cycles::Cycles(cycles / decode_steps as u64))
                ),
                format!("{tps:.0}"),
                format!("{:.2}x", tps / base_tps),
                format!(
                    "{:.1} MiB",
                    read as f64 / decode_steps as f64 / (1024.0 * 1024.0)
                ),
            ]);
        }
        println!("{}", table.render());
    }
    println!(
        "Weight streams are shared across the batch, so aggregate throughput\n\
         scales until compute binds: the fp32 array saturates almost\n\
         immediately, while the int8 design point (10x the MACs/cycle and a\n\
         4x lighter weight stream) keeps scaling to much larger batches —\n\
         the mixed-precision headroom the paper attributes to FPGAs."
    );
}
