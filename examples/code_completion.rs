//! The paper's code-completion motivation: a prefill-heavy workload (long
//! prompt, short completion). Shows the prefill/decode split on the
//! accelerator and compares against the CPU reference implementation
//! running the same model.

use std::sync::Arc;

use speedllm::accel::report::{fmt_seconds, Table};
use speedllm::llama::forward::Transformer;
use speedllm::llama::generate::{generate, GenerateOptions};
use speedllm::llama::sampler::Sampler;
use speedllm::prelude::*;

fn long_prompt() -> String {
    // A long context the model must ingest before completing (stand-in for
    // a source file preceding the cursor).
    let mut p = String::from("The story so far: ");
    for i in 0..18 {
        p.push_str(match i % 6 {
            0 => "Tim went to the park. ",
            1 => "Lily saw a big red ball. ",
            2 => "The dog ran to the tree. ",
            3 => "Mom said it was time to go home. ",
            4 => "They all played together. ",
            _ => "Then the sun came out. ",
        });
    }
    p.push_str("And then");
    p
}

fn main() {
    let cfg = ModelConfig::stories15m();
    let prompt = long_prompt();
    let gen_tokens = 24;
    println!("code-completion-style workload on {cfg}");

    // Accelerator (full design).
    let system = AcceleratedLlm::synthetic(cfg, 42, OptConfig::full()).expect("build");
    println!(
        "prompt: {} tokens, completion: {gen_tokens} tokens\n",
        system.tokenizer().encode(&prompt, true, false).len()
    );

    let mut table = Table::new(&["engine", "prefill", "decode", "total", "decode tok/s"]);

    let mut session = system.session(SamplerKind::Argmax, 0);
    let r = session
        .generate(&prompt, gen_tokens)
        .expect("accelerated run");
    table.row(vec![
        "SpeedLLM / U280 (sim)".into(),
        fmt_seconds(r.clock.to_seconds(r.prefill_cycles)),
        fmt_seconds(r.clock.to_seconds(r.decode_cycles)),
        fmt_seconds(r.total_latency_s()),
        format!("{:.0}", r.decode_tokens_per_s()),
    ]);

    // Chunked prefill (extension beyond the paper): weight streams are
    // amortized over 16-token chunks, collapsing the prefill stage.
    let mut chunked_system =
        AcceleratedLlm::synthetic(cfg, 42, OptConfig::full()).expect("build chunked");
    chunked_system
        .set_prefill_chunk(16)
        .expect("16 rows fit the staging limit");
    let mut chunked = chunked_system.session(SamplerKind::Argmax, 0);
    let rc = chunked.generate(&prompt, gen_tokens).expect("chunked run");
    assert_eq!(rc.output.generated_tokens, r.output.generated_tokens);
    table.row(vec![
        "SpeedLLM + chunked prefill".into(),
        fmt_seconds(rc.clock.to_seconds(rc.prefill_cycles)),
        fmt_seconds(rc.clock.to_seconds(rc.decode_cycles)),
        fmt_seconds(rc.total_latency_s()),
        format!("{:.0}", rc.decode_tokens_per_s()),
    ]);

    // CPU reference (measured wall-clock on this host).
    let mut model = Transformer::with_weights(Arc::clone(system.weights()));
    let mut sampler = Sampler::argmax();
    let out = generate(
        &mut model,
        system.tokenizer(),
        &mut sampler,
        &prompt,
        GenerateOptions {
            max_new_tokens: gen_tokens,
            stop_at_eos: true,
        },
    );
    table.row(vec![
        "CPU reference".into(),
        fmt_seconds(out.prefill_time.as_secs_f64()),
        fmt_seconds(out.decode_time.as_secs_f64()),
        fmt_seconds(out.total_latency().as_secs_f64()),
        format!("{:.0}", out.decode_tokens_per_sec()),
    ]);
    println!("{}", table.render());
    println!("completion: {:?}", r.output.text);
    println!(
        "\nnote: accelerator rows are simulated device time; CPU rows are\n\
         wall-clock on this machine — the comparison shows the prefill/decode\n\
         split, not a hardware claim."
    );
}
