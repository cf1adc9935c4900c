//! The greedy classifier's telemetry: an argmax session scores every
//! sampled step through the certified screen (`cpu.greedy_rows`, with its
//! candidates and fallbacks counted, and the `classifier` span tagged
//! `greedy = 1`), and a drawing sampler never does. One `#[test]` in its
//! own binary, because telemetry state is process-global.

use speedllm::accel::opt::OptConfig;
use speedllm::accel::runtime::AcceleratedLlm;
use speedllm::llama::config::ModelConfig;
use speedllm::llama::sampler::SamplerKind;
use speedllm::telemetry as tel;

fn counter(snap: &tel::metrics::MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0, |&(_, v)| v)
}

/// `(greedy, full)` counts of the `classifier` spans drained.
fn classifier_spans() -> (usize, usize) {
    let spans = tel::drain_spans();
    let classifier = spans.iter().filter(|s| s.name == "classifier");
    classifier.fold((0, 0), |(greedy, full), s| {
        if s.args.contains(&("greedy", 1)) {
            (greedy + 1, full)
        } else {
            (greedy, full + 1)
        }
    })
}

#[test]
fn argmax_sessions_score_greedy_rows_and_drawing_ones_do_not() {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            tel::set_enabled(false);
            tel::reset();
        }
    }
    let _restore = Restore;
    let cfg = ModelConfig {
        vocab_size: 512,
        ..ModelConfig::test_tiny()
    };
    let sys = AcceleratedLlm::synthetic(cfg, 42, OptConfig::full()).unwrap();

    tel::set_enabled(true);
    tel::reset();
    let report = sys
        .session(SamplerKind::Argmax, 0)
        .generate("the quick brown fox", 8)
        .unwrap();
    let snap = tel::metrics::snapshot();
    // The prompt's one prefill group and every generated token but the
    // last (walked, never scored) take one greedy row each.
    let generated = report.output.generated_tokens.len();
    let scored = 1 + generated.min(7);
    assert!(generated > 0);
    assert_eq!(counter(&snap, "cpu.greedy_rows"), scored as u64);
    assert_eq!(counter(&snap, "cpu.greedy_fallbacks"), 0);
    let candidates = counter(&snap, "cpu.greedy_candidates");
    assert!(
        (scored as u64..=4 * scored as u64).contains(&candidates),
        "{candidates} candidates over {scored} rows"
    );
    assert_eq!(classifier_spans(), (scored, 0));

    tel::reset();
    sys.session(SamplerKind::Temperature(0.8), 7)
        .generate("the quick brown fox", 8)
        .unwrap();
    let snap = tel::metrics::snapshot();
    assert_eq!(counter(&snap, "cpu.greedy_rows"), 0);
    let (greedy, full) = classifier_spans();
    assert_eq!(greedy, 0);
    assert!(full > 0);
}
