//! ISSUE 6 acceptance telemetry: during prefill/decode overlap, a mixed
//! tick's GEMM batch width must exceed the active decode count — the
//! prefill rows ride the same weight stream. This lives in its own test
//! binary (one `#[test]`) because telemetry state is process-global and
//! last-write-wins gauges cannot be asserted exactly under a
//! multi-threaded test runner.

use std::sync::Arc;

use speedllm::accel::engine::Engine;
use speedllm::accel::opt::OptConfig;
use speedllm::llama::config::ModelConfig;
use speedllm::llama::forward::Transformer;
use speedllm::llama::sampler::SamplerKind;
use speedllm::llama::weights::TransformerWeights;
use speedllm::serve::{AccelBackend, Backend, CpuBackend, Request, ServeConfig, ServeEngine};
use speedllm::telemetry as tel;

fn weights() -> TransformerWeights {
    TransformerWeights::synthetic(ModelConfig::test_tiny(), 42)
}

fn gauge(snap: &tel::metrics::MetricsSnapshot, name: &str) -> f64 {
    snap.gauges
        .iter()
        .find(|(k, _)| *k == name)
        .unwrap_or_else(|| panic!("gauge {name} was not recorded"))
        .1
}

fn counter(snap: &tel::metrics::MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(k, _)| *k == name)
        .unwrap_or_else(|| panic!("counter {name} was not recorded"))
        .1
}

#[test]
fn mixed_tick_gemm_width_exceeds_decode_count_on_both_backends() {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            tel::set_enabled(false);
            tel::reset();
        }
    }
    let _restore = Restore;

    // CPU backend: warm one slot (2 context tokens), leave one cold, then
    // run a mixed tick of 1 decode row + a 3-row prefill chunk.
    let mut cpu = CpuBackend::new(Transformer::new(weights()));
    let mut warm = cpu.new_slot();
    let mut cold = cpu.new_slot();
    cpu.prefill(&mut warm, &[1, 5], 0);
    tel::set_enabled(true);
    tel::reset();
    let decode: &[u32] = &[7];
    let chunk: &[u32] = &[1, 9, 3];
    cpu.forward_mixed(&mut [&mut warm, &mut cold], &[decode, chunk]);
    let snap = tel::metrics::snapshot();
    tel::set_enabled(false);
    tel::reset();
    let width = gauge(&snap, "cpu.gemm_batch_width");
    assert_eq!(width, 4.0, "1 decode + 3 prefill rows in one GEMM pass");
    assert!(
        width > 1.0,
        "width must exceed the active decode count of 1"
    );
    assert_eq!(counter(&snap, "cpu.gemm_tokens"), 4);
    assert!(counter(&snap, "cpu.gemm_weight_bytes") > 0);

    // Accelerator simulation: same shape, device-side telemetry.
    let engine = Engine::new(Arc::new(weights()), OptConfig::full()).unwrap();
    let mut accel = AccelBackend::new(engine);
    let mut warm = accel.new_slot();
    let mut cold = accel.new_slot();
    accel.prefill(&mut warm, &[1, 5], 0);
    tel::set_enabled(true);
    tel::reset();
    accel.forward_mixed(&mut [&mut warm, &mut cold], &[decode, chunk]);
    let snap = tel::metrics::snapshot();
    tel::set_enabled(false);
    tel::reset();
    let width = gauge(&snap, "accel.gemm_batch_width");
    assert_eq!(width, 4.0, "device tick carries all 4 rows at once");
    assert_eq!(counter(&snap, "accel.gemm_tokens"), 4);
    assert!(counter(&snap, "accel.gemm_weight_bytes") > 0);

    // Legacy (phase-serialized) accel serve run: prefill passes stream the
    // dense weights too, so every row the run forwards is counted — each
    // prompt token once, and every generated token but a request's last
    // (whose logits nobody samples).
    let engine = Engine::new(Arc::new(weights()), OptConfig::full()).unwrap();
    let mut serve = ServeEngine::new(AccelBackend::new(engine), ServeConfig::default());
    let prompts: [&[u32]; 3] = [&[1, 5, 9, 2], &[7], &[3, 3, 8, 1, 6, 4]];
    let max_new_tokens = 5;
    tel::set_enabled(true);
    tel::reset();
    for (id, prompt) in prompts.iter().enumerate() {
        let req = Request {
            id: id as u64,
            prompt: prompt.to_vec(),
            max_new_tokens,
            stop_at_eos: false,
            sampler: SamplerKind::Argmax,
            seed: id as u64,
            arrival: 0,
        };
        serve.submit(req).expect("queue has room");
    }
    while !serve.is_idle() {
        serve.step();
    }
    let snap = tel::metrics::snapshot();
    let rows: usize = prompts.iter().map(|p| p.len() + max_new_tokens - 1).sum();
    assert_eq!(counter(&snap, "accel.gemm_tokens"), rows as u64);
}
