//! Integration tests of the features that extend beyond the paper:
//! chunked prefill, the roofline analysis, perplexity evaluation, and
//! trace export.

use speedllm::accel::opt::OptConfig;
use speedllm::accel::roofline::Roofline;
use speedllm::accel::runtime::AcceleratedLlm;
use speedllm::fpga::cycles::ClockDomain;
use speedllm::llama::config::ModelConfig;
use speedllm::llama::eval::{evaluate_reference, evaluate_with};
use speedllm::llama::forward::Transformer;
use speedllm::llama::sampler::SamplerKind;
use speedllm::llama::weights::TransformerWeights;

#[test]
fn chunked_prefill_end_to_end_equivalence() {
    // A system with chunked prefill must generate the identical token
    // sequence, only faster.
    let cfg = ModelConfig::stories260k();
    let plain = AcceleratedLlm::synthetic(cfg, 42, OptConfig::full()).unwrap();
    let mut chunked_sys = AcceleratedLlm::synthetic(cfg, 42, OptConfig::full()).unwrap();
    chunked_sys.set_prefill_chunk(8).unwrap();
    let prompt = "Once upon a time there was a little dog named Tim and he liked to play";
    let a = plain
        .session(SamplerKind::Argmax, 0)
        .generate(prompt, 12)
        .unwrap();
    let b = chunked_sys
        .session(SamplerKind::Argmax, 0)
        .generate(prompt, 12)
        .unwrap();
    assert_eq!(a.output.generated_tokens, b.output.generated_tokens);
    assert!(
        b.prefill_cycles < a.prefill_cycles,
        "chunked prefill {} !< plain {}",
        b.prefill_cycles.0,
        a.prefill_cycles.0
    );
    // Decode is unaffected.
    assert_eq!(a.decode_cycles, b.decode_cycles);
}

#[test]
fn accelerator_perplexity_matches_reference() {
    let cfg = ModelConfig::test_tiny();
    let weights = TransformerWeights::synthetic(cfg, 42);
    let tokens: Vec<u32> = (0..20)
        .map(|i| (i * 13 + 7) % cfg.vocab_size as u32)
        .collect();
    let mut reference = Transformer::new(weights.clone());
    let want = evaluate_reference(&mut reference, &tokens);

    let sys = AcceleratedLlm::new(
        weights,
        speedllm::llama::tokenizer::Tokenizer::synthetic(cfg.vocab_size, 1),
        OptConfig::full(),
    )
    .unwrap();
    let mut session = sys.session(SamplerKind::Argmax, 0);
    let got = evaluate_with(cfg.vocab_size, &tokens, |t, _| session.step(t).logits);
    assert!(
        (want.perplexity() - got.perplexity()).abs() < 0.01 * want.perplexity(),
        "{} vs {}",
        want.perplexity(),
        got.perplexity()
    );
}

#[test]
fn int8_perplexity_degrades_only_mildly() {
    // The quantized accelerator should track the fp32 reference closely in
    // *quality*, not just per-logit distance.
    let cfg = ModelConfig::test_tiny();
    let weights = TransformerWeights::synthetic(cfg, 42);
    let tokens: Vec<u32> = (0..20)
        .map(|i| (i * 11 + 3) % cfg.vocab_size as u32)
        .collect();
    let mut reference = Transformer::new(weights.clone());
    let base = evaluate_reference(&mut reference, &tokens);

    let sys = AcceleratedLlm::new(
        weights,
        speedllm::llama::tokenizer::Tokenizer::synthetic(cfg.vocab_size, 1),
        OptConfig::full_int8(),
    )
    .unwrap();
    let mut session = sys.session(SamplerKind::Argmax, 0);
    let q = evaluate_with(cfg.vocab_size, &tokens, |t, _| session.step(t).logits);
    let rel = (q.perplexity() - base.perplexity()).abs() / base.perplexity();
    assert!(rel < 0.05, "int8 perplexity off by {:.1}%", rel * 100.0);
}

#[test]
fn roofline_places_decode_left_of_ridge() {
    let cfg = ModelConfig::stories260k();
    let sys = AcceleratedLlm::synthetic(cfg, 42, OptConfig::full()).unwrap();
    let roof = Roofline::of(sys.accel_config(), &ClockDomain::U280_KERNEL);
    let mut s = sys.session(SamplerKind::Argmax, 0);
    let r = s.generate("hello there friend", 8).unwrap();
    let p = roof.place(&r.stats, &ClockDomain::U280_KERNEL);
    assert!(p.memory_bound, "decode workloads are memory-bound: {p:?}");
    assert!(p.intensity > 0.0);
}

#[test]
fn chrome_trace_exports_from_engine() {
    let cfg = ModelConfig::test_tiny();
    let sys = AcceleratedLlm::synthetic(cfg, 42, OptConfig::full()).unwrap();
    let mut s = sys.session(SamplerKind::Argmax, 0);
    s.engine_mut().capture_trace(1024);
    s.step(1);
    let trace = s.engine_mut().take_trace().unwrap();
    let json = trace.to_chrome_json(&ClockDomain::U280_KERNEL);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("MPE"));
}
