//! The exact-count gate: on the three closed-loop serve workloads and the
//! paper workload nothing the engine or the simulator counts depends on
//! the wall clock, so two runs with one seed must agree bit for bit.
//! Runs at `--smoke` size, bounded by request count.

use std::sync::Mutex;

use speedllm_benchmark::report::{Opts, Report};
use speedllm_benchmark::run_workload;
use speedllm_benchmark::spec::{PER_LAYER, TAILS, WORKLOADS};

/// Traced runs switch the process-wide telemetry collector on and off;
/// one at a time.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn smoke(name: &str, seed: u64, trace: bool) -> Report {
    let _one_at_a_time = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    let report = run_workload(
        name,
        &Opts {
            seed,
            seconds: 1.0,
            trace,
            smoke: true,
            out_dir: None,
        },
    )
    .expect("a known workload");
    assert!(report.correct(), "{name}: {:?}", report.problems);
    report
}

/// Per-layer metrics that are counts of deterministic work, or simulated.
fn is_exact(metric: &str) -> bool {
    metric == "serve.steps"
        || (metric.starts_with("backend.") && !metric.ends_with("_us_per_row"))
        || [
            "serve.prefix_hit_share",
            "serve.spec_acceptance",
            "serve.spec_tokens_per_round",
            "serve.batch_rows_mean",
            "serve.max_active",
            "serve.preemptions",
            "pagedkv.peak_blocks_in_use",
            "pagedkv.cache_evicted_blocks",
            "loadgen.sent",
            "loadgen.ok",
            "loadgen.failed",
            "accel.cycles_per_token_p50",
            "accel.speedup_x",
            "accel.energy_gain_x",
            "llama.weight_mb_per_token",
        ]
        .contains(&metric)
        || metric.starts_with("fpga-sim.")
        || metric.starts_with("paper_")
        || (metric.starts_with("sim_") && metric != "sim_cycles_per_s")
}

fn aux<'r>(report: &'r Report, key: &str) -> &'r speedllm_benchmark::json::Json {
    &report
        .aux
        .iter()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("{}: no aux `{key}`", report.workload))
        .1
}

#[test]
fn deterministic_workloads_repeat_bit_for_bit() {
    for name in [
        "decode15m_f32_c1",
        "spec15m_f32_k4_c1",
        "prefill15m_int4_c4",
        "paper15m_accel_gen",
    ] {
        let (a, b) = (smoke(name, 7, true), smoke(name, 7, true));
        let mut checked = 0;
        for m in PER_LAYER.iter().filter(|m| is_exact(m.name)) {
            assert_eq!(
                a.value(m.name).to_bits(),
                b.value(m.name).to_bits(),
                "{name}: {} did not repeat",
                m.name
            );
            checked += 1;
        }
        assert!(checked > 30, "the exact list still matches the registry");
        assert_eq!(aux(&a, "digest"), aux(&b, "digest"), "{name}");
        // The paper's prompts are fixed; a seed has nothing to vary.
        if name != "paper15m_accel_gen" {
            assert_ne!(
                aux(&a, "digest"),
                aux(&smoke(name, 8, false), "digest"),
                "{name}: a different seed, different streams"
            );
        }
    }
}

#[test]
fn each_layer_shows_up_only_where_it_runs() {
    let decode = smoke("decode15m_f32_c1", 7, true);
    assert!(decode.value("backend.decode_rows") > 0.0);
    assert!(decode.value("backend.prefill_rows") > 0.0);
    assert_eq!(decode.value("backend.mixed_calls"), 0.0);
    assert_eq!(decode.value("backend.verify_calls"), 0.0);
    assert_eq!(decode.value("serve.prefix_hit_share"), 0.0);
    assert_eq!(decode.value("pagedkv.blocks_total"), 0.0);
    assert_eq!(decode.value("sim_decode_tok_s"), 0.0);

    let spec = smoke("spec15m_f32_k4_c1", 7, true);
    assert!(spec.value("backend.verify_rows") > spec.value("backend.verify_calls"));
    assert_eq!(spec.value("backend.decode_calls"), 0.0);
    assert!(spec.value("serve.spec_acceptance") > 0.0);
    assert!(spec.value("serve.steps") < decode.value("serve.steps"));

    let open = smoke("serve15m_int8_open", 7, true);
    assert!(open.value("backend.mixed_rows") > 0.0);
    assert_eq!(open.value("backend.decode_calls"), 0.0);
    assert!(open.value("serve.prefix_hit_share") > 0.0);
    assert!(open.value("pagedkv.peak_blocks_in_use") > 0.0);

    let prefill = smoke("prefill15m_int4_c4", 7, true);
    assert_eq!(prefill.value("serve.prefix_hit_share"), 0.0);
    assert_eq!(prefill.value("serve.max_active"), 4.0);
    assert!(prefill.value("backend.prefill_rows") > prefill.value("backend.decode_rows"));

    let paper = smoke("paper15m_accel_gen", 7, true);
    assert!(paper.value("sim_decode_tok_s") > 0.0 && paper.value("sim_tok_per_j") > 0.0);
    assert!(paper.value("accel.speedup_x") > 1.0);
    assert!(paper.value("telemetry.engine_timing_pass_ms") > 0.0);
    assert_eq!(paper.value("serve.steps"), 0.0);
}

/// The speculative workload serves the plain one's request list, and
/// speculation must not change a stream.
#[test]
fn speculation_keeps_the_streams() {
    let plain = smoke("decode15m_f32_c1", 7, false);
    let spec = smoke("spec15m_f32_k4_c1", 7, false);
    assert_eq!(aux(&plain, "digest"), aux(&spec, "digest"));
}

#[test]
fn every_workload_reports_every_metric_of_its_pass() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let report = smoke(w.name, 7, trace);
            for m in report.registry() {
                assert!(
                    report.value(m.name).is_finite(),
                    "{}: {} is not a number",
                    w.name,
                    m.name
                );
                if !trace {
                    assert!(report.value(m.name) > 0.0, "{}: {} is 0", w.name, m.name);
                }
            }
            for (name, _) in &report.values {
                assert!(
                    report
                        .registry()
                        .iter()
                        .chain(TAILS)
                        .any(|m| m.name == *name),
                    "{}: `{name}` is not in the registry",
                    w.name
                );
            }
            assert!(report.attempted >= 1 && report.failed == 0);
        }
    }
}
