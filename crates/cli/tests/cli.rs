//! End-to-end tests of the `speedllm` binary: spawn the real executable
//! and assert on its output and exit codes.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_speedllm"))
        .args(args)
        // Keep the ambient environment from toggling telemetry under us.
        .env_remove("SPEEDLLM_TRACE")
        .output()
        .expect("binary must spawn")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn help_prints_usage() {
    let o = run(&["help"]);
    assert!(o.status.success());
    let out = stdout(&o);
    assert!(out.contains("USAGE"));
    assert!(out.contains("generate"));
    assert!(out.contains("compare"));
    // No args behaves like help.
    let o2 = run(&[]);
    assert!(o2.status.success());
    assert!(stdout(&o2).contains("USAGE"));
}

#[test]
fn generate_runs_on_tiny_preset() {
    let o = run(&[
        "generate", "--preset", "tiny", "--steps", "6", "--prompt", "hi",
    ]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("latency:"));
    assert!(out.contains("throughput:"));
    assert!(out.contains("tok/J"));
    // Fig 2(b)'s energy breakdown: every component prints one share, and
    // the shares add up to 100% within the rounding of nine 0.1% digits.
    let mut total = 0.0;
    for name in [
        "HBM dynamic",
        "OCM dynamic",
        "MPE dynamic",
        "SFU dynamic",
        "kernel launches",
        "MPE static (gated)",
        "DMA static (gated)",
        "SFU static (gated)",
        "baseline",
    ] {
        let line = out
            .lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("no {name:?} row in:\n{out}"));
        let share = line.split_whitespace().last().unwrap();
        total += share.trim_end_matches('%').parse::<f64>().unwrap();
    }
    assert!(
        (total - 100.0).abs() <= 9.0 * 0.05,
        "shares sum to {total}%"
    );
}

#[test]
fn sampler_specs_no_sampler_can_draw_with_are_errors() {
    // Each spec parses as numbers but breaks a bound the sampler asserts;
    // one spawned run at a time, on both commands that take `--sampler`.
    let commands: [&[&str]; 2] = [
        &["generate", "--preset", "tiny", "--steps", "2"],
        &["serve-bench", "--smoke"],
    ];
    for spec in ["temp:0", "temp:nan", "temp:-1", "topk:0.9,0", "topp:0.9,0"] {
        for command in commands {
            let o = run(&[command, &["--sampler", spec]].concat());
            let case = format!("{} --sampler {spec}", command[0]);
            assert_eq!(o.status.code(), Some(1), "{case}: stderr {}", stderr(&o));
            let err = stderr(&o);
            assert!(err.starts_with("error: bad sampler spec"), "{case}: {err}");
            assert!(!err.contains("panicked"), "{case}: {err}");
        }
    }
}

#[test]
fn generate_with_all_samplers_and_chunk() {
    for sampler in ["argmax", "temp:0.9", "topp:0.9,0.9", "topk:1.0,8"] {
        let o = run(&[
            "generate",
            "--preset",
            "tiny",
            "--steps",
            "4",
            "--sampler",
            sampler,
            "--chunk",
            "4",
        ]);
        assert!(o.status.success(), "sampler {sampler}: {}", stderr(&o));
    }
}

#[test]
fn compare_lists_all_variants() {
    let o = run(&["compare", "--preset", "stories260k", "--steps", "6"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    for name in ["SpeedLLM (ours)", "no-fuse", "no-parallel", "unoptimized"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
    assert!(out.contains("1.00x"), "baseline speedup row");
}

#[test]
fn inspect_reports_structure_and_writes_dot() {
    let dot_path = std::env::temp_dir().join(format!("speedllm_cli_{}.dot", std::process::id()));
    let o = run(&[
        "inspect",
        "--preset",
        "tiny",
        "--variant",
        "full",
        "--dot",
        dot_path.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("kernels"));
    assert!(out.contains("fabric:"));
    let dot = std::fs::read_to_string(&dot_path).expect("dot file written");
    std::fs::remove_file(&dot_path).ok();
    assert!(dot.starts_with("digraph"));
}

#[test]
fn trace_draws_gantt_and_exports_chrome() {
    let json_path = std::env::temp_dir().join(format!("speedllm_cli_{}.json", std::process::id()));
    let o = run(&[
        "trace",
        "--preset",
        "tiny",
        "--variant",
        "full",
        "--chrome",
        json_path.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(stdout(&o).contains("MPE"));
    let json = std::fs::read_to_string(&json_path).expect("chrome trace written");
    std::fs::remove_file(&json_path).ok();
    assert!(json.starts_with('['));
}

#[test]
fn run_with_trace_out_writes_combined_trace_and_summary() {
    let path = std::env::temp_dir().join(format!("speedllm_cli_trace_{}.json", std::process::id()));
    let o = run(&[
        "run",
        "--preset",
        "tiny",
        "--steps",
        "6",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    assert!(
        out.contains("telemetry summary"),
        "no summary table:\n{out}"
    );
    assert!(out.contains("accel.decode_token_cycles"));
    assert!(out.contains("p99"));
    let json = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_file(&path).ok();
    // Host spans and simulator spans share one trace file, as separate
    // Chrome processes.
    assert!(json.starts_with('['));
    assert!(json.trim_end().ends_with(']'));
    assert!(json.contains("\"host (wall time)\""));
    assert!(json.contains("\"fpga-sim (cycle time)\""));
    assert!(json.contains("decode_token"));
    assert!(json.contains("prefill_chunk"));
}

#[test]
fn trace_disabled_by_default_prints_no_summary() {
    let o = run(&["generate", "--preset", "tiny", "--steps", "4"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(!stdout(&o).contains("telemetry summary"));
}

#[test]
fn devices_prints_cost_table() {
    let o = run(&["devices", "--preset", "stories260k", "--steps", "6"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("U280"));
    assert!(out.contains("V100S"));
    assert!(out.contains("A100"));
    assert!(out.contains("tok/s/$"));
}

#[test]
fn eval_compares_precisions() {
    let o = run(&["eval", "--preset", "tiny", "--tokens", "16"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("CPU reference"));
    assert!(out.contains("accelerator int8"));
    assert!(out.contains("perplexity"));
    // The tiny preset's context window is 32 positions.
    for tokens in ["1", "33"] {
        let o = run(&["eval", "--preset", "tiny", "--tokens", tokens]);
        assert!(!o.status.success(), "--tokens {tokens} ran");
        let err = stderr(&o);
        assert!(err.contains("error: --tokens must be in 2..=32"), "{err}");
    }
}

#[test]
fn unknown_command_and_flags_fail_loudly() {
    let o = run(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown command"));

    let o = run(&["generate", "--preset", "tiny", "--bogus", "1"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown flag"));

    let o = run(&["generate", "--preset", "nosuch"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown preset"));
}

#[test]
fn generate_loads_real_checkpoint_files() {
    use speedllm_llama::config::ModelConfig;
    use speedllm_llama::tokenizer::Tokenizer;
    use speedllm_llama::weights::TransformerWeights;
    let dir = std::env::temp_dir();
    let wpath = dir.join(format!("speedllm_cli_w_{}.bin", std::process::id()));
    let tpath = dir.join(format!("speedllm_cli_t_{}.bin", std::process::id()));
    let cfg = ModelConfig::test_tiny();
    TransformerWeights::synthetic(cfg, 1).save(&wpath).unwrap();
    Tokenizer::synthetic(cfg.vocab_size, 1)
        .save(&tpath)
        .unwrap();
    let o = run(&[
        "generate",
        "--model",
        wpath.to_str().unwrap(),
        "--tokenizer",
        tpath.to_str().unwrap(),
        "--steps",
        "4",
    ]);
    std::fs::remove_file(&wpath).ok();
    std::fs::remove_file(&tpath).ok();
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(stdout(&o).contains("throughput:"));
}
