//! Cross-crate telemetry tests: an instrumented run must emit spans from
//! every layer (CPU reference, accel runtime, engine timing pass) and the
//! combined Chrome trace must carry both the host and simulator tracks;
//! with telemetry disabled the same run must record nothing.

use std::sync::Arc;
use std::sync::Mutex;

use speedllm::accel::engine::Engine;
use speedllm::accel::opt::OptConfig;
use speedllm::accel::runtime::AcceleratedLlm;
use speedllm::fpga::cycles::ClockDomain;
use speedllm::llama::config::ModelConfig;
use speedllm::llama::forward::{LogitRows, Transformer};
use speedllm::llama::kv_cache::KvCache;
use speedllm::llama::sampler::SamplerKind;
use speedllm::llama::weights::TransformerWeights;
use speedllm::telemetry as tel;

/// Telemetry state is process-global; serialize the tests that toggle it.
static LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with telemetry enabled and a clean slate, restoring the
/// disabled state (and clearing collected data) afterwards even on panic.
fn with_telemetry(f: impl FnOnce()) {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            tel::set_enabled(false);
            tel::reset();
        }
    }
    let _restore = Restore;
    tel::set_enabled(true);
    tel::reset();
    f();
}

fn cpu_reference_generate(max_new_tokens: usize) {
    use speedllm::llama::generate::{generate, GenerateOptions};
    use speedllm::llama::sampler::Sampler;
    use speedllm::llama::tokenizer::Tokenizer;
    let cfg = ModelConfig::test_tiny();
    let mut model = Transformer::new(TransformerWeights::synthetic(cfg, 11));
    let tokenizer = Tokenizer::synthetic(cfg.vocab_size, 7);
    let mut sampler = Sampler::new(SamplerKind::Argmax, 7);
    let options = GenerateOptions {
        max_new_tokens,
        stop_at_eos: false,
    };
    generate(&mut model, &tokenizer, &mut sampler, "hi", options);
}

#[test]
fn disabled_telemetry_records_no_spans_or_metrics() {
    let _g = LOCK.lock().unwrap();
    tel::set_enabled(false);
    tel::reset();

    cpu_reference_generate(3);
    let system =
        AcceleratedLlm::synthetic(ModelConfig::test_tiny(), 11, OptConfig::full()).unwrap();
    let mut session = system.session(SamplerKind::Argmax, 7);
    session.generate("hi", 2).unwrap();

    assert_eq!(tel::span_count(), 0, "disabled run must not collect spans");
    assert_eq!(tel::dropped_spans(), 0);
    assert!(
        tel::metrics::snapshot().is_empty(),
        "disabled run must not record metrics"
    );
}

#[test]
fn enabled_run_emits_spans_from_every_layer() {
    let _g = LOCK.lock().unwrap();
    with_telemetry(|| {
        cpu_reference_generate(3);
        let system =
            AcceleratedLlm::synthetic(ModelConfig::test_tiny(), 11, OptConfig::full()).unwrap();
        let mut session = system.session(SamplerKind::Argmax, 7);
        session.generate("hi", 3).unwrap();

        let spans = tel::drain_spans();
        for track in ["cpu", "host", "engine"] {
            assert!(
                spans.iter().any(|s| s.track == track),
                "no span on track {track:?}; got tracks {:?}",
                spans
                    .iter()
                    .map(|s| s.track)
                    .collect::<std::collections::BTreeSet<_>>()
            );
        }

        let snap = tel::metrics::snapshot();
        let hist_names: Vec<&str> = snap.histograms.iter().map(|(n, _)| *n).collect();
        assert!(
            hist_names.contains(&"accel.decode_token_cycles"),
            "got {hist_names:?}"
        );
        assert!(
            hist_names.contains(&"llama.decode_token_ns"),
            "got {hist_names:?}"
        );
        let counters: Vec<&str> = snap.counters.iter().map(|(n, _)| *n).collect();
        assert!(
            counters.contains(&"sim.kernel_launches"),
            "got {counters:?}"
        );
    });
}

#[test]
fn combined_chrome_trace_has_host_and_sim_processes() {
    let _g = LOCK.lock().unwrap();
    with_telemetry(|| {
        let cfg = ModelConfig::test_tiny();
        let weights = Arc::new(TransformerWeights::synthetic(cfg, 11));
        let mut engine = Engine::new(weights, OptConfig::full()).unwrap();
        engine.capture_trace(1 << 12);
        let mut seq = KvCache::new(&engine.graph().config);
        for tok in 1..4 {
            engine.forward_runs([&mut seq].as_mut_slice(), &[&[tok]], LogitRows::Last);
        }
        let sim = engine.take_trace().expect("capture was requested");

        let mut trace = tel::export::ChromeTrace::new();
        sim.to_chrome_track(&ClockDomain::U280_KERNEL, tel::export::SIM_PID, &mut trace);
        let json = tel::export::chrome_trace_json(&tel::drain_spans(), Some(trace));

        assert!(
            json.contains("\"host (wall time)\""),
            "missing host process meta"
        );
        assert!(
            json.contains("\"fpga-sim (cycle time)\""),
            "missing sim process meta"
        );
        assert!(json.contains("\"ph\":\"X\""), "no complete events");
        // Both pids must appear on complete events, i.e. the two timelines
        // really share one file.
        assert!(json.contains(&format!("\"pid\":{}", tel::export::HOST_PID)));
        assert!(json.contains(&format!("\"pid\":{}", tel::export::SIM_PID)));
    });
}
