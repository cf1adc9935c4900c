//! The paper's real-time-chat motivation: multi-turn short exchanges where
//! *per-token latency* is what the user feels. Runs the same conversation
//! on all four Fig-2 variants and prints per-token latency percentiles.

use speedllm::accel::report::Table;
use speedllm::prelude::*;
use speedllm::serve::report::percentile_f64;

const TURNS: &[&str] = &[
    "Hello! How are you today?",
    "Can you tell me a short story about a cat?",
    "What happened to the cat at the end?",
    "Thank you, that was a nice story!",
];

fn main() {
    let cfg = ModelConfig::stories15m();
    println!(
        "chatbot workload on {cfg}\n{} turns, 24 new tokens per turn\n",
        TURNS.len()
    );

    let mut table = Table::new(&[
        "variant",
        "p50 token lat",
        "p99 token lat",
        "turn latency",
        "tok/s",
    ]);
    for (name, opt) in OptConfig::paper_variants() {
        let system = AcceleratedLlm::synthetic(cfg, 42, opt).expect("build");
        let mut session = system.session(SamplerKind::Argmax, 0);
        let mut token_lats_us: Vec<f64> = Vec::new();
        let mut turn_latency_s = 0.0;
        let mut total_tokens = 0usize;
        let mut total_decode_s = 0.0;
        for turn in TURNS {
            // Multi-turn: the KV cache persists, so each turn only
            // prefills its own text.
            let r = session.append_generate(turn, 24).expect("turn");
            turn_latency_s += r.total_latency_s();
            total_tokens += r.output.generated_tokens.len();
            total_decode_s += r.clock.to_seconds(r.decode_cycles);
            for c in &r.per_token_cycles {
                token_lats_us.push(r.clock.to_micros(*c));
            }
        }
        token_lats_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
        table.row(vec![
            name.into(),
            format!("{:.0} us", percentile_f64(&token_lats_us, 50.0)),
            format!("{:.0} us", percentile_f64(&token_lats_us, 99.0)),
            format!("{:.1} ms", turn_latency_s * 1e3 / TURNS.len() as f64),
            format!("{:.0}", total_tokens as f64 / total_decode_s),
        ]);
    }
    println!("{}", table.render());
    println!(
        "The full design keeps p99 per-token latency low enough for\n\
         real-time chat; the unoptimized accelerator is ~5x slower per token."
    );
}
