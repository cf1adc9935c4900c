//! End-to-end determinism of `speedllm serve-bench`: the acceptance bar
//! is that the same seed yields a byte-identical report (virtual-tick
//! timing, exact percentiles — no wall-clock anywhere in the output).

use std::process::Command;

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_speedllm"))
        .args(args)
        .output()
        .expect("spawn speedllm");
    assert!(
        out.status.success(),
        "serve-bench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn smoke_report_is_byte_identical_across_runs() {
    let a = run(&["serve-bench", "--smoke"]);
    let b = run(&["serve-bench", "--smoke"]);
    assert_eq!(a, b, "same seed must render the same bytes");
    assert!(a.contains("serve-bench report (accel backend)"));
    assert!(a.contains("requests completed   8"));
    // A bare `--smoke` and an explicit `--smoke 1` are the same flag.
    assert_eq!(a, run(&["serve-bench", "--smoke", "1"]));
}

#[test]
fn seed_changes_the_workload() {
    let a = run(&["serve-bench", "--smoke", "--backend", "cpu"]);
    let b = run(&["serve-bench", "--smoke", "--backend", "cpu", "--seed", "43"]);
    assert_ne!(a, b, "a different seed must change the report");
}

#[test]
fn open_loop_mode_runs_on_cpu_backend() {
    let a = run(&[
        "serve-bench",
        "--smoke",
        "--backend",
        "cpu",
        "--mode",
        "open",
        "--mean",
        "8",
    ]);
    assert!(a.contains("serve-bench report (cpu backend)"));
    assert!(a.contains("open loop (mean gap 8 ticks)"));
    assert!(a.contains("requests completed   8"));
}

/// Runs the binary expecting a clean failure: non-zero exit, an
/// `error:` line on stderr, and no panic backtrace.
fn run_err(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_speedllm"))
        .args(args)
        .output()
        .expect("spawn speedllm");
    assert!(
        !out.status.success(),
        "expected failure, got: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let err = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(
        err.contains("error:"),
        "stderr should carry an `error:` line, got: {err}"
    );
    assert!(!err.contains("panicked"), "bad flags must not panic: {err}");
    err
}

#[test]
fn speculative_smoke_is_deterministic_and_reports_acceptance() {
    let args = [
        "serve-bench",
        "--smoke",
        "--backend",
        "cpu",
        "--spec-k",
        "4",
        "--sampler",
        "argmax",
    ];
    let a = run(&args);
    assert_eq!(a, run(&args), "speculative runs must stay deterministic");
    assert!(a.contains("spec:     speculative decoding, draft `auto`, k = 4"));
    assert!(a.contains("spec rounds"));
    assert!(a.contains("spec acceptance"));
    // The greedy draft shares the target's trunk shape; acceptance must
    // be nonzero or speculation is not actually engaging.
    assert!(
        !a.contains("(0.000)"),
        "greedy smoke acceptance must be nonzero:\n{a}"
    );
}

#[test]
fn speculative_flat_and_paged_emit_the_same_token_totals() {
    let flat = run(&[
        "serve-bench",
        "--smoke",
        "--backend",
        "cpu",
        "--spec-k",
        "2",
        "--sampler",
        "argmax",
    ]);
    let paged = run(&[
        "serve-bench",
        "--smoke",
        "--backend",
        "cpu",
        "--spec-k",
        "2",
        "--sampler",
        "argmax",
        "--kv",
        "paged",
    ]);
    let tokens = |r: &str| {
        r.lines()
            .find(|l| l.contains("tokens generated"))
            .map(str::to_owned)
            .expect("report has a tokens row")
    };
    assert_eq!(tokens(&flat), tokens(&paged));
}

#[test]
fn quantized_runs_are_byte_identical_across_backends_and_kv_layouts() {
    // The quantized serve hot path (DESIGN.md §18) must stay exactly as
    // reproducible as f32: fused dequant-GEMM accumulates in a fixed
    // order, so double runs render the same bytes on every backend × KV
    // layout corner.
    for quant in ["int8", "int4"] {
        for backend in ["cpu", "accel"] {
            for kv in ["pool", "paged"] {
                let args = [
                    "serve-bench",
                    "--smoke",
                    "--backend",
                    backend,
                    "--kv",
                    kv,
                    "--quant",
                    quant,
                ];
                let a = run(&args);
                assert_eq!(
                    a,
                    run(&args),
                    "{quant} on {backend}/{kv} must render the same bytes"
                );
                assert!(
                    a.contains(&format!("quant:    {quant} weights")),
                    "report must announce the quant mode:\n{a}"
                );
                assert!(a.contains("requests completed   8"));
            }
        }
    }
}

#[test]
fn quant_mode_changes_accel_timing_but_not_cpu_token_accounting() {
    // On the simulated accelerator the quantized weight stream narrows
    // HBM traffic, so virtual-tick timing must actually move; the report
    // is still deterministic (checked above), just different from f32.
    let f32_run = run(&["serve-bench", "--smoke", "--backend", "accel"]);
    let int8_run = run(&[
        "serve-bench",
        "--smoke",
        "--backend",
        "accel",
        "--quant",
        "int8",
    ]);
    assert_ne!(
        f32_run, int8_run,
        "int8 must change the accel timing report"
    );
    // The CPU backend charges per-token virtual ticks independent of the
    // weight format: completion counts survive quantization.
    let cpu = run(&[
        "serve-bench",
        "--smoke",
        "--backend",
        "cpu",
        "--quant",
        "int4",
    ]);
    assert!(cpu.contains("requests completed   8"));
}

#[test]
fn bad_quant_mode_is_a_clean_error() {
    let err = run_err(&["serve-bench", "--smoke", "--quant", "fp16"]);
    assert!(err.contains("unknown quant mode"), "got: {err}");
}

/// A zero slot count or closed-loop concurrency is refused before any
/// pool, arena or load generator is built from it.
#[test]
fn zero_slots_and_zero_concurrency_are_clean_errors() {
    for args in [
        &["serve-bench", "--smoke", "--slots", "0"][..],
        &["serve-bench", "--smoke", "--kv", "paged", "--slots", "0"],
        &["cluster-bench", "--smoke", "--slots", "0"],
    ] {
        let err = run_err(args);
        assert!(err.contains("--slots must be >= 1"), "{args:?}: {err}");
    }
    for args in [
        &["serve-bench", "--smoke", "--concurrency", "0"][..],
        &[
            "cluster-bench",
            "--smoke",
            "--mode",
            "closed",
            "--concurrency",
            "0",
        ],
    ] {
        let err = run_err(args);
        assert!(
            err.contains("--concurrency must be >= 1"),
            "{args:?}: {err}"
        );
    }
}

/// A schedule value that `ServeEngine::new` would clamp, or an open-loop
/// mean the load generator would panic on, is refused with the bound it
/// broke, so a run never prints one schedule and follows another.
#[test]
fn out_of_range_schedules_are_clean_errors() {
    let both: [(&[&str], &str); 8] = [
        (&["--mode", "open", "--mean", "0"], "--mean must be >= 1"),
        (&["--max-new", "0"], "--max-new must be >= 1"),
        (&["--batch", "0"], "--batch must be in 1..=64"),
        (&["--batch", "100"], "--batch must be in 1..=64"),
        (&["--chunk", "0"], "--chunk must be in 1..=64"),
        (&["--chunk", "99"], "--chunk must be in 1..=64"),
        (&["--queue-cap", "0"], "--queue-cap must be >= 1"),
        (
            &["--chunk", "64", "--batch", "65"],
            "--batch must be in 1..=64",
        ),
    ];
    let serve_only: [(&[&str], &str); 3] = [
        (&["--token-budget", "0"], "--token-budget must be in 1..=64"),
        (
            &["--token-budget", "100"],
            "--token-budget must be in 1..=64",
        ),
        (
            &["--prefill-ratio", "50", "--token-budget", "65"],
            "--token-budget must be in 1..=64",
        ),
    ];
    let cases = both
        .iter()
        .flat_map(|case| [("serve-bench", case), ("cluster-bench", case)])
        .chain(serve_only.iter().map(|case| ("serve-bench", case)));
    for (command, (flags, want)) in cases {
        let mut args = vec![command, "--smoke"];
        args.extend_from_slice(flags);
        let err = run_err(&args);
        assert!(err.contains(want), "{args:?}: {err}");
    }
}

#[test]
fn spec_k_zero_is_a_clean_error() {
    let err = run_err(&["serve-bench", "--smoke", "--spec-k", "0"]);
    assert!(err.contains("k must be >= 1"), "got: {err}");
}

#[test]
fn missing_draft_checkpoint_is_a_clean_error() {
    let err = run_err(&[
        "serve-bench",
        "--smoke",
        "--spec-k",
        "4",
        "--draft-model",
        "/no/such/draft.bin",
    ]);
    assert!(err.contains("/no/such/draft.bin"), "got: {err}");
}

#[test]
fn draft_with_mismatched_vocab_is_a_clean_error() {
    // The stories260K preset speaks a different vocabulary than the
    // smoke-test tiny model; enable_speculative must refuse the pair.
    let err = run_err(&[
        "serve-bench",
        "--smoke",
        "--spec-k",
        "4",
        "--draft-model",
        "stories260k",
    ]);
    assert!(err.contains("vocabulary"), "got: {err}");
}

#[test]
fn draft_model_without_spec_k_is_a_clean_error() {
    let err = run_err(&["serve-bench", "--smoke", "--draft-model", "stories260k"]);
    assert!(
        err.contains("--draft-model requires --spec-k"),
        "got: {err}"
    );
}

#[test]
fn speculation_cannot_combine_with_the_unified_scheduler() {
    let err = run_err(&[
        "serve-bench",
        "--smoke",
        "--spec-k",
        "4",
        "--token-budget",
        "8",
    ]);
    assert!(err.contains("unified"), "got: {err}");
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const BURSTY_UNIFIED: &str =
    "--mode bursty --burst-size 4 --burst-gap 16 --token-budget 8 --prefill-ratio 50";

/// One pinned output per scheduler configuration `scripts/verify.sh`
/// smokes: the flags after `serve-bench --smoke`, the export flag whose
/// file is digested (`None` digests stdout), and the FNV-1a digest of
/// those bytes. A committed digest implies run-to-run equality, so the
/// gate no longer runs each configuration twice and diffs; it also pins
/// the bytes themselves — captured through the three per-mode schedulers
/// the tick planner replaced — which a double run never did.
const PINNED_OUTPUTS: [(&str, Option<&str>, u64); 8] = [
    ("", None, 0x626f_e52d_974f_6411),
    ("", Some("--events-out"), 0x967a_c3ad_2756_5193),
    ("", Some("--metrics-out"), 0x56db_0a3b_0400_77a1),
    ("--kv paged", None, 0x089b_2bb1_c046_8821),
    (BURSTY_UNIFIED, None, 0x5188_096a_b141_ddf7),
    ("--spec-k 4 --sampler argmax", None, 0x9270_c953_7241_4cc8),
    (
        "--spec-k 4 --sampler argmax",
        Some("--events-out"),
        0xee3f_76ed_2d7a_6928,
    ),
    (
        "--backend cpu --kv paged --spec-k 3 --sampler argmax",
        None,
        0x6415_a491_24a5_47cf,
    ),
];

#[test]
fn smoke_outputs_match_their_pinned_digests() {
    let mut moved = Vec::new();
    for (i, &(flags, export, want)) in PINNED_OUTPUTS.iter().enumerate() {
        let path = std::env::temp_dir().join(format!("speedllm_pin_{}_{i}", std::process::id()));
        let mut args = vec!["serve-bench", "--smoke"];
        args.extend(flags.split_whitespace());
        let got = match export {
            None => fnv1a(run(&args).as_bytes()),
            Some(flag) => {
                args.extend([flag, path.to_str().expect("utf8 temp path")]);
                run(&args);
                let bytes = std::fs::read(&path).expect("export was written");
                std::fs::remove_file(&path).expect("export is removable");
                fnv1a(&bytes)
            }
        };
        if got != want {
            moved.push(format!("row {i} `{flags}` {export:?}: got {got:#018x}"));
        }
    }
    assert!(
        moved.is_empty(),
        "pinned outputs moved:\n{}",
        moved.join("\n")
    );
}
