//! `speedllm` — command-line front end of the SpeedLLM simulator.
//!
//! ```text
//! speedllm generate --preset stories15m --prompt "Once upon a time" --steps 64
//! speedllm compare  --preset stories15m --prompt "Hello" --steps 32
//! speedllm inspect  --preset stories15m --variant full [--dot graph.dot]
//! speedllm trace    --preset stories260k --variant full
//! speedllm devices  --preset stories15m
//! speedllm help
//! ```

#![forbid(unsafe_code)]

mod args;

use std::cell::RefCell;
use std::process::ExitCode;
use std::sync::Arc;

use speedllm_telemetry as tel;

use args::{parse_preset, parse_quant, parse_sampler, parse_variant, Args};
use speedllm_accel::engine::STAGING_ROWS;
use speedllm_accel::opt::OptConfig;
use speedllm_accel::report::{fmt_bytes, fmt_joules, fmt_seconds, Table};
use speedllm_accel::runtime::AcceleratedLlm;
use speedllm_fpga_sim::resources::Resources;
use speedllm_gpu_model::{GpuSpec, U280_PRICE_USD};
use speedllm_llama::resident::IntoResident;
use speedllm_llama::tokenizer::Tokenizer;
use speedllm_llama::weights::TransformerWeights;
use speedllm_llama::QuantMode;

const HELP: &str = "\
speedllm — FPGA LLM-accelerator simulator (SpeedLLM reproduction)

USAGE: speedllm <command> [--flag value]...

COMMANDS
  generate   run one inference and print text + metrics
             --preset NAME | --model FILE --tokenizer FILE
             --prompt STR  --steps N  --variant V  --sampler S  --seed N
             --chunk N (chunked prefill, 1..64)
  run        alias of generate (pairs well with --trace-out)
  compare    run all four Fig-2 variants on one workload
             --preset NAME --prompt STR --steps N --seed N
  inspect    print graph/schedule/memory-plan/resource summary
             --preset NAME --variant V [--dot FILE]
  trace      ASCII Gantt of one decode step's device timeline
             --preset NAME --variant V [--chrome FILE]
  devices    tokens/s/$ table: simulated U280 vs GPU rooflines
             --preset NAME --steps N
  eval       perplexity of each MPE/KV precision vs the fp32 reference
             --preset NAME --tokens N --seed N
             --engines cpu|accel|all (default all)
             --gate-int8 FRAC --gate-int4 FRAC  exit nonzero when the
             quantized perplexity drifts more than FRAC from fp32
  serve-bench  continuous-batching serve loop over seeded synthetic
             traffic; prints a deterministic TTFT/latency/throughput
             report in virtual ticks
             --preset NAME --backend cpu|accel --requests N
             --slots N --batch N --chunk N --queue-cap N
             --kv pool|paged --block-size N --shared-prefix N
             --mode open|closed --mean TICKS --concurrency N
             --max-new N --sampler S --seed N [--smoke]
             --quant f32|int8|int4  weight precision for the serve hot
             path (DESIGN.md §18): group-quantized weights streamed
             through fused dequant-GEMM kernels (f32 accumulate);
             cpu and accel int4 logits are bit-identical
             --spec-k N  speculative decoding: draft N tokens ahead and
             verify them in one batched target pass (DESIGN.md §16);
             the emitted streams stay bit-identical to plain decoding
             --draft-model auto|PRESET|FILE  draft model for --spec-k
             (default auto: a stories260K-shaped trunk speaking the
             target preset's vocabulary)
             --events-out FILE  write the per-request lifecycle event
             log (JSONL, virtual-tick stamped) for `analyze`
             --metrics-out FILE  write per-tick scheduler samples
             (queue depth, batch rows, budget utilization, KV blocks);
             CSV unless FILE ends in .jsonl
             (--kv paged serves block-granular KV with radix
             prefix sharing and preemptive eviction at the same
             memory budget as --slots flat slots)
  cluster-bench  data-parallel cluster of serve replicas behind one
             router queue (DESIGN.md §17): prefix-cache-aware /
             least-loaded / round-robin placement, per-replica
             backpressure, deterministic fault injection with
             failover; prints a byte-reproducible cluster report
             --preset NAME --backend cpu|accel --replicas N
             --policy prefix|least-loaded|round-robin
             --fault-at T:R[:U][,T:R[:U]...]  replica R down at
             cluster tick T (back up at U; omitted = forever)
             --max-outstanding N  per-replica backpressure cap
             (outstanding prompt+decode tokens)
             --requests N --slots N --batch N --chunk N
             --queue-cap N --block-size N --shared-prefix N
             --mode open|closed --mean TICKS --concurrency N
             --max-new N --sampler S --seed N [--smoke]
             --events-out FILE  merged replica-stamped lifecycle
             events (JSONL) for `analyze`
  analyze    phase-breakdown dashboard over a serve-bench event log:
             per-phase table (queue/prefill/decode/stall), goodput,
             top-N slowest requests with timelines, anomaly flags
             --events FILE [--top N]
  help       this text

GLOBAL FLAGS
  --trace-out FILE  enable telemetry and write a combined Chrome
                    trace-event JSON (host wall-time spans + simulator
                    cycle timeline) loadable in Perfetto /
                    chrome://tracing; also prints a metrics summary
                    table. Setting SPEEDLLM_TRACE=1 enables telemetry
                    (summary table only) without writing a file.

VALUES
  presets:  stories260k stories15m stories42m stories110m tiny
  variants: full no-fuse no-parallel no-reuse unoptimized int8
  samplers: argmax | temp:T | topp:T,P | topk:T,K
";

thread_local! {
    /// Simulator timeline stashed by a traced command for the combined
    /// trace written at exit.
    static SIM_TRACE: RefCell<Option<speedllm_fpga_sim::trace::TraceBuffer>> =
        const { RefCell::new(None) };
    /// Serve lifecycle events stashed by serve-bench for per-request
    /// tracks in the combined trace written at exit.
    static SERVE_EVENTS: RefCell<Option<Vec<speedllm_serve::Event>>> =
        const { RefCell::new(None) };
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Flags in `bools` may appear without a value (`--smoke`); give them one
/// so the uniform `--flag value` grammar still holds downstream.
fn normalize_bool_flags(mut argv: Vec<String>, bools: &[&str]) -> Vec<String> {
    let mut i = 0;
    while i < argv.len() {
        let is_bool = argv[i]
            .strip_prefix("--")
            .is_some_and(|k| bools.contains(&k));
        if is_bool && argv.get(i + 1).is_none_or(|v| v.starts_with("--")) {
            argv.insert(i + 1, "1".into());
        }
        i += 1;
    }
    argv
}

fn run(argv: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(normalize_bool_flags(argv, &["smoke"]))?;
    // Telemetry is a global concern: --trace-out (any command) or the
    // SPEEDLLM_TRACE env var switches collection on before dispatch.
    if args.get("trace-out").is_some() {
        tel::set_enabled(true);
    } else {
        tel::init_from_env();
    }
    match args.command.as_str() {
        "generate" | "run" => cmd_generate(&args),
        "compare" => cmd_compare(&args),
        "inspect" => cmd_inspect(&args),
        "trace" => cmd_trace(&args),
        "devices" => cmd_devices(&args),
        "eval" => cmd_eval(&args),
        "serve-bench" => cmd_serve_bench(&args),
        "cluster-bench" => cmd_cluster_bench(&args),
        "analyze" => cmd_analyze(&args),
        other => return Err(format!("unknown command `{other}`; try `speedllm help`").into()),
    }?;
    finalize_telemetry(args.get("trace-out"))
}

/// End-of-run telemetry surface: prints the metrics summary table and, if
/// requested, writes the combined host+simulator Chrome trace.
fn finalize_telemetry(trace_out: Option<&str>) -> Result<(), Box<dyn std::error::Error>> {
    if !tel::enabled() {
        return Ok(());
    }
    let snap = tel::metrics::snapshot();
    if !snap.is_empty() {
        println!();
        println!("telemetry summary");
        let mut table = Table::new(&["metric", "count", "p50", "p95", "p99", "max"]);
        for (name, s) in &snap.histograms {
            table.row(vec![
                (*name).into(),
                s.count.to_string(),
                s.p50.to_string(),
                s.p95.to_string(),
                s.p99.to_string(),
                s.max.to_string(),
            ]);
        }
        for (name, v) in &snap.counters {
            table.row(vec![
                (*name).into(),
                v.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }
        for (name, v) in &snap.gauges {
            table.row(vec![
                (*name).into(),
                format!("{v}"),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }
        println!("{}", table.render());
        println!("(histogram rows: *_cycles in device cycles, *_ns in wall nanoseconds)");
    }
    if tel::dropped_spans() > 0 {
        println!("(+{} spans dropped)", tel::dropped_spans());
    }
    if let Some(path) = trace_out {
        let mut trace = tel::export::ChromeTrace::new();
        SIM_TRACE.with(|t| {
            if let Some(sim) = t.borrow_mut().take() {
                sim.to_chrome_track(
                    &speedllm_fpga_sim::cycles::ClockDomain::U280_KERNEL,
                    tel::export::SIM_PID,
                    &mut trace,
                );
            }
        });
        SERVE_EVENTS.with(|t| {
            if let Some(events) = t.borrow_mut().take() {
                // One named track per request: the serve run renders as
                // a gantt of overlapping request lifetimes.
                speedllm_serve::events_to_chrome(&events, &mut trace);
            }
        });
        let json = tel::export::chrome_trace_json(&tel::drain_spans(), Some(trace));
        std::fs::write(path, &json)?;
        println!(
            "wrote Chrome trace ({} bytes) to {path} — open in https://ui.perfetto.dev or chrome://tracing",
            json.len()
        );
    }
    Ok(())
}

fn build_system(args: &Args, opt: OptConfig) -> Result<AcceleratedLlm, Box<dyn std::error::Error>> {
    let seed = args.get_u64("seed", 42)?;
    if let Some(model_path) = args.get("model") {
        let tok_path = args
            .get("tokenizer")
            .ok_or("--model requires --tokenizer")?;
        let weights = TransformerWeights::load(std::path::Path::new(model_path))?;
        let tokenizer = Tokenizer::load(std::path::Path::new(tok_path), weights.config.vocab_size)?;
        Ok(AcceleratedLlm::new(weights, tokenizer, opt)?)
    } else {
        let preset = parse_preset(args.get_or("preset", "stories15m"))?;
        Ok(AcceleratedLlm::synthetic(preset, seed, opt)?)
    }
}

fn cmd_generate(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.expect_only(&[
        "preset",
        "model",
        "tokenizer",
        "prompt",
        "steps",
        "variant",
        "sampler",
        "seed",
        "chunk",
        "trace-out",
    ])?;
    let opt = parse_variant(args.get_or("variant", "full"))?;
    let sampler = parse_sampler(args.get_or("sampler", "argmax"))?;
    let steps = args.get_usize("steps", 48)?;
    let chunk = bounded_arg(args, "chunk", 1, STAGING_ROWS)?;
    let mut system = build_system(args, opt)?;
    system.set_prefill_chunk(chunk)?;
    let prompt = args.get_or("prompt", "Once upon a time");
    let mut session = system.session(sampler, args.get_u64("seed", 42)?);
    if tel::enabled() {
        // Capture the device timeline alongside host spans; the combined
        // trace is written by finalize_telemetry.
        session.engine_mut().capture_trace(1 << 16);
    }
    let report = session.generate(prompt, steps)?;
    if let Some(sim) = session.engine_mut().take_trace() {
        SIM_TRACE.with(|s| *s.borrow_mut() = Some(sim));
    }

    println!("model:   {}", system.config());
    println!(
        "variant: {} ({})",
        opt.short_name(),
        args.get_or("variant", "full")
    );
    println!("prompt:  {prompt:?}");
    println!("output:  {:?}", report.output.text);
    println!();
    println!("latency:    {}", fmt_seconds(report.total_latency_s()));
    println!("throughput: {:.0} tok/s", report.decode_tokens_per_s());
    let e = &report.energy;
    let total_j = e.total_j();
    println!(
        "energy:     {} ({:.0} tok/J)",
        fmt_joules(total_j),
        report.tokens_per_joule()
    );
    // Fig 2(b)'s nine-component energy breakdown of this run.
    let mut breakdown = Table::new(&["component", "energy", "share"]);
    for (name, j) in [
        ("HBM dynamic", e.hbm_j),
        ("OCM dynamic", e.ocm_j),
        ("MPE dynamic", e.mpe_dyn_j),
        ("SFU dynamic", e.sfu_dyn_j),
        ("kernel launches", e.launch_j),
        ("MPE static (gated)", e.mpe_static_j),
        ("DMA static (gated)", e.dma_static_j),
        ("SFU static (gated)", e.sfu_static_j),
        ("baseline", e.baseline_j),
    ] {
        breakdown.row(vec![
            name.into(),
            fmt_joules(j),
            format!("{:.1}%", 100.0 * j / total_j),
        ]);
    }
    print!("{}", breakdown.render());
    println!(
        "traffic:    {} HBM read, {} HBM write, {} on-chip",
        fmt_bytes(report.stats.hbm.read_bytes),
        fmt_bytes(report.stats.hbm.write_bytes),
        fmt_bytes(report.stats.ocm_read_bytes + report.stats.ocm_write_bytes),
    );
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.expect_only(&["preset", "prompt", "steps", "seed", "trace-out"])?;
    let steps = args.get_usize("steps", 32)?;
    let prompt = args.get_or("prompt", "Once upon a time");
    let seed = args.get_u64("seed", 42)?;
    let preset = parse_preset(args.get_or("preset", "stories15m"))?;

    let mut table = Table::new(&["variant", "latency", "tok/s", "tok/J", "speedup"]);
    let mut base_latency = None;
    let mut rows = Vec::new();
    // The four paper variants are f32: one resident checkpoint serves all.
    let model = AcceleratedLlm::synthetic(preset, seed, OptConfig::full())?;
    for (name, opt) in OptConfig::paper_variants() {
        let system =
            AcceleratedLlm::new(Arc::clone(model.weights()), model.tokenizer().clone(), opt)?;
        let mut session = system.session(speedllm_llama::sampler::SamplerKind::Argmax, seed);
        let r = session.generate(prompt, steps)?;
        if name == "unoptimized" {
            base_latency = Some(r.total_latency_s());
        }
        rows.push((name, r));
    }
    let base = base_latency.expect("unoptimized variant present");
    for (name, r) in &rows {
        table.row(vec![
            (*name).into(),
            fmt_seconds(r.total_latency_s()),
            format!("{:.0}", r.decode_tokens_per_s()),
            format!("{:.0}", r.tokens_per_joule()),
            format!("{:.2}x", base / r.total_latency_s()),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.expect_only(&["preset", "variant", "dot", "seed", "trace-out"])?;
    let preset = parse_preset(args.get_or("preset", "stories15m"))?;
    let opt = parse_variant(args.get_or("variant", "full"))?;

    use speedllm_accel::fusion::fuse;
    use speedllm_accel::ir::{build_decode_graph, dot};
    use speedllm_accel::memplan::plan;

    let graph = build_decode_graph(&preset);
    let schedule = fuse(&graph, opt.operator_fusion);
    let cfg = speedllm_accel::engine::AccelConfig::for_opt(&opt);
    let mplan = plan(
        &graph,
        &schedule,
        opt.memory_reuse,
        cfg.activation_pool_bytes,
    );

    println!("model:    {preset}");
    println!("variant:  {}", opt.short_name());
    let (mpe_ops, sfu_ops) = graph.op_census();
    println!(
        "graph:    {} ops ({mpe_ops} MPE, {sfu_ops} SFU), {} values",
        graph.ops.len(),
        graph.values.len()
    );
    let rep = schedule.report(&graph);
    println!(
        "schedule: {} kernels; {} values fused away, {} materialized",
        rep.kernels, rep.internal_values, rep.materialized_values
    );
    println!(
        "memory:   {} values on-chip (peak {}), {} in HBM ({})",
        mplan.ocm_values(),
        fmt_bytes(mplan.ocm_high_water),
        mplan.hbm_values(),
        fmt_bytes(mplan.hbm_activation_bytes),
    );
    let used = cfg.resource_usage();
    let budget = Resources::u280_budget();
    let u = used.utilization(&budget);
    println!(
        "fabric:   LUT {:.0}%  FF {:.0}%  DSP {:.0}%  BRAM {:.0}%  URAM {:.0}%",
        u[0] * 100.0,
        u[1] * 100.0,
        u[2] * 100.0,
        u[3] * 100.0,
        u[4] * 100.0
    );

    if let Some(path) = args.get("dot") {
        let text = dot::schedule_to_dot(&graph, &schedule, Some(&mplan));
        std::fs::write(path, &text)?;
        println!("wrote {} bytes of DOT to {path}", text.len());
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.expect_only(&["preset", "variant", "seed", "width", "chrome", "trace-out"])?;
    let preset = parse_preset(args.get_or("preset", "stories260k"))?;
    let opt = parse_variant(args.get_or("variant", "full"))?;
    let width = args.get_usize("width", 100)?;
    let system = AcceleratedLlm::synthetic(preset, args.get_u64("seed", 42)?, opt)?;
    let mut session = system.session(speedllm_llama::sampler::SamplerKind::Argmax, 0);
    session.step(1);
    session.step(2);
    session.engine_mut().capture_trace(8192);
    let r = session.step(3);
    let trace = session.engine_mut().take_trace().expect("trace");
    println!(
        "one decode step, variant {}: {} cycles",
        opt.short_name(),
        r.cycles.0
    );
    print!("{}", trace.render_gantt(width));
    if let Some(path) = args.get("chrome") {
        let json = trace.to_chrome_json(&speedllm_fpga_sim::cycles::ClockDomain::U280_KERNEL);
        std::fs::write(path, &json)?;
        println!(
            "wrote Chrome trace ({} bytes) to {path} — open in chrome://tracing",
            json.len()
        );
    }
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.expect_only(&[
        "preset",
        "tokens",
        "seed",
        "engines",
        "gate-int8",
        "gate-int4",
        "trace-out",
    ])?;
    let preset = parse_preset(args.get_or("preset", "tiny"))?;
    let n_tokens = args.get_usize("tokens", 24.min(preset.seq_len))?;
    if !(2..=preset.seq_len).contains(&n_tokens) {
        return Err(format!("--tokens must be in 2..={}", preset.seq_len).into());
    }
    let seed = args.get_u64("seed", 42)?;
    let engines = args.get_or("engines", "all");
    if !matches!(engines, "cpu" | "accel" | "all") {
        return Err(Box::new(args::ParseError(format!(
            "unknown --engines `{engines}` (cpu|accel|all)"
        ))));
    }
    let parse_gate = |key: &str| -> Result<Option<f64>, Box<dyn std::error::Error>> {
        match args.get(key) {
            None => Ok(None),
            Some(v) => Ok(Some(v.parse::<f64>().map_err(|_| {
                args::ParseError(format!(
                    "--{key} expects a max relative ppl drift like 0.05, got `{v}`"
                ))
            })?)),
        }
    };
    let gates = [
        (QuantMode::Int8, parse_gate("gate-int8")?),
        (QuantMode::Int4, parse_gate("gate-int4")?),
    ];

    use speedllm_llama::eval::{evaluate_reference, evaluate_with};
    use speedllm_llama::forward::Transformer;

    let tokens: Vec<u32> = (0..n_tokens)
        .map(|i| ((i as u64 * 37 + seed) % preset.vocab_size as u64) as u32)
        .collect();

    // One resident copy of the checkpoint per precision, shared by the CPU
    // model and the accelerator session that run it; one precision at a
    // time, f32 — the reference of every ratio — first.
    let (mut cpu, mut accel) = (Vec::new(), Vec::new());
    for (mode, accel_name, opt) in [
        (QuantMode::F32, "accelerator fp32", OptConfig::full()),
        (QuantMode::Int8, "accelerator int8", OptConfig::full_int8()),
        (QuantMode::Int4, "accelerator int4", OptConfig::full_int4()),
    ] {
        let weights = TransformerWeights::synthetic(preset, seed).into_resident(mode);
        if mode == QuantMode::F32 || engines != "accel" {
            let r = evaluate_reference(
                &mut Transformer::with_weights(Arc::clone(&weights)),
                &tokens,
            );
            let name = match mode {
                QuantMode::F32 => "CPU reference (fp32)".to_string(),
                _ => format!("CPU {} (fused dequant-GEMM)", mode.name()),
            };
            cpu.push((mode, name, r));
        }
        if engines != "cpu" {
            let sys =
                AcceleratedLlm::new(weights, Tokenizer::synthetic(preset.vocab_size, seed), opt)?;
            let mut session = sys.session(speedllm_llama::sampler::SamplerKind::Argmax, 0);
            let r = evaluate_with(preset.vocab_size, &tokens, |t, _| session.step(t).logits);
            accel.push((mode, accel_name.to_string(), r));
        }
    }
    let base = cpu[0].2.perplexity();

    // Worst observed |ppl/ppl_f32 - 1| per quant mode, across engines.
    let mut drift: Vec<(QuantMode, f64)> = Vec::new();
    let mut table = Table::new(&["engine", "perplexity", "bits/token", "vs reference"]);
    for (mode, name, r) in cpu.into_iter().chain(accel) {
        if mode != QuantMode::F32 {
            let d = (r.perplexity() / base - 1.0).abs();
            match drift.iter_mut().find(|(m, _)| *m == mode) {
                Some((_, worst)) => *worst = worst.max(d),
                None => drift.push((mode, d)),
            }
        }
        table.row(vec![
            name,
            format!("{:.2}", r.perplexity()),
            format!("{:.3}", r.bits_per_token()),
            format!("{:.3}x", r.perplexity() / base),
        ]);
    }
    println!("scoring {} tokens on {preset}\n", n_tokens - 1);
    println!("{}", table.render());
    println!("(untrained synthetic weights: perplexity sits near the vocabulary size;\n the column to watch is the relative drift of quantized engines)");

    for (mode, bound) in gates {
        let Some(bound) = bound else { continue };
        let worst = drift
            .iter()
            .find(|(m, _)| *m == mode)
            .map(|(_, d)| *d)
            .ok_or_else(|| {
                format!(
                    "--gate-{} set but no {} engine ran",
                    mode.name(),
                    mode.name()
                )
            })?;
        if worst > bound {
            return Err(format!(
                "perplexity gate failed: {} drift {:.4} exceeds bound {:.4}",
                mode.name(),
                worst,
                bound
            )
            .into());
        }
        println!(
            "ppl gate {}: worst relative drift {:.4} within bound {:.4}",
            mode.name(),
            worst,
            bound
        );
    }
    Ok(())
}

fn cmd_devices(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.expect_only(&["preset", "steps", "seed", "trace-out"])?;
    let preset = parse_preset(args.get_or("preset", "stories15m"))?;
    let steps = args.get_usize("steps", 32)?;
    let system = AcceleratedLlm::synthetic(preset, args.get_u64("seed", 42)?, OptConfig::full())?;
    let mut session = system.session(speedllm_llama::sampler::SamplerKind::Argmax, 0);
    let r = session.generate("Once upon a time", steps)?;

    let mut table = Table::new(&["device", "tok/s", "price", "tok/s/$"]);
    table.row(vec![
        "SpeedLLM / U280".into(),
        format!("{:.0}", r.decode_tokens_per_s()),
        format!("{U280_PRICE_USD:.0}"),
        format!("{:.3}", r.decode_tokens_per_s() / U280_PRICE_USD),
    ]);
    for gpu in GpuSpec::paper_gpus() {
        let t = gpu.decode_tokens_per_s(&preset, steps / 2 + 8, 2.0);
        table.row(vec![
            gpu.name.into(),
            format!("{t:.0}"),
            format!("{:.0}", gpu.price_usd),
            format!("{:.3}", t / gpu.price_usd),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

/// Drives one serve-bench run to completion and renders its report,
/// returning the observability recorder when one was requested.
fn serve_bench_run<B: speedllm_serve::Backend>(
    backend: B,
    scfg: speedllm_serve::ServeConfig,
    lcfg: &speedllm_serve::LoadGenConfig,
    record: bool,
    spec: Option<(speedllm_llama::forward::Transformer, usize)>,
) -> Result<(String, Option<speedllm_serve::ServeRecorder>), Box<dyn std::error::Error>> {
    let mut engine = speedllm_serve::ServeEngine::new(backend, scfg);
    if let Some((draft, k)) = spec {
        engine.enable_speculative(draft, k)?;
    }
    if record {
        engine.attach_recorder(speedllm_serve::ServeRecorder::new());
    }
    let name = engine.backend().name();
    let mut traffic = speedllm_serve::LoadGen::new(lcfg);
    let completions = engine.run_with_source(&mut traffic);
    let report =
        speedllm_serve::ServeReport::from_run(&completions, engine.stats(), engine.slot_reuses())
            .render(name);
    Ok((report, engine.take_recorder()))
}

/// Resolves `--draft-model` for speculative serving: `auto` derives a
/// stories260K-shaped trunk speaking the target's vocabulary, a preset
/// name builds that preset synthetically, anything else is a checkpoint
/// path.  The draft's synthetic seed is offset from the target's so the
/// two models genuinely disagree sometimes.
fn resolve_draft_model(
    spec: &str,
    target: &speedllm_llama::config::ModelConfig,
    seed: u64,
) -> Result<speedllm_llama::forward::Transformer, Box<dyn std::error::Error>> {
    let weights = if spec == "auto" {
        let cfg = speedllm_llama::config::ModelConfig::draft_for(target);
        TransformerWeights::synthetic(cfg, seed.wrapping_add(1))
    } else if let Ok(cfg) = parse_preset(spec) {
        TransformerWeights::synthetic(cfg, seed.wrapping_add(1))
    } else {
        TransformerWeights::load(std::path::Path::new(spec))
            .map_err(|e| format!("--draft-model {spec}: {e}"))?
    };
    Ok(speedllm_llama::forward::Transformer::new(weights))
}

/// `--name` (default `default`), rejected outside `1..=max` with an error
/// that names the bound: the serve engine clamps such a value, so the
/// run would follow another schedule than the one printed, and the
/// accelerator refuses a prefill chunk above [`STAGING_ROWS`].
fn bounded_arg(
    args: &Args,
    name: &str,
    default: usize,
    max: usize,
) -> Result<usize, Box<dyn std::error::Error>> {
    let value = args.get_usize(name, default)?;
    if (1..=max).contains(&value) {
        Ok(value)
    } else if max == usize::MAX {
        Err(format!("--{name} must be >= 1").into())
    } else {
        Err(format!("--{name} must be in 1..={max}").into())
    }
}

/// The serve schedule shared by `serve-bench` and `cluster-bench`, each
/// bound checked by [`bounded_arg`].
fn serve_config(
    args: &Args,
    smoke: bool,
    slots: usize,
    unified: Option<speedllm_serve::UnifiedConfig>,
) -> Result<speedllm_serve::ServeConfig, Box<dyn std::error::Error>> {
    Ok(speedllm_serve::ServeConfig {
        slots,
        max_batch: bounded_arg(args, "batch", 8, STAGING_ROWS)?,
        prefill_chunk: bounded_arg(args, "chunk", if smoke { 4 } else { 16 }, STAGING_ROWS)?,
        queue_cap: bounded_arg(args, "queue-cap", 64, usize::MAX)?,
        unified,
    })
}

fn cmd_serve_bench(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    use speedllm_serve::{AccelBackend, ArrivalMode, CpuBackend, LoadGenConfig};

    args.expect_only(&[
        "preset",
        "backend",
        "requests",
        "slots",
        "batch",
        "chunk",
        "queue-cap",
        "kv",
        "quant",
        "block-size",
        "shared-prefix",
        "mode",
        "mean",
        "concurrency",
        "burst-size",
        "burst-gap",
        "token-budget",
        "prefill-ratio",
        "max-new",
        "sampler",
        "seed",
        "smoke",
        "spec-k",
        "draft-model",
        "events-out",
        "metrics-out",
        "trace-out",
    ])?;
    // --smoke: a fixed tiny workload (8 requests on the test-tiny model)
    // that scripts/verify.sh runs twice and byte-compares.
    let smoke = args.get("smoke").is_some();
    let backend = args.get_or("backend", "accel");
    if !matches!(backend, "cpu" | "accel") {
        return Err(format!("unknown --backend `{backend}` (cpu|accel)").into());
    }
    let preset = parse_preset(args.get_or("preset", if smoke { "tiny" } else { "stories260k" }))?;
    let n_requests = args.get_usize("requests", if smoke { 8 } else { 32 })?;
    let seed = args.get_u64("seed", 42)?;
    let sampler = parse_sampler(args.get_or("sampler", "temp:0.8"))?;
    // --spec-k switches on speculative decoding (DESIGN.md §16); the
    // depth/vocab/scheduler validations live in `enable_speculative` so
    // they fail identically from every entry point.
    let spec_k = match args.get("spec-k") {
        Some(_) => Some(args.get_usize("spec-k", 0)?),
        None => None,
    };
    if args.get("draft-model").is_some() && spec_k.is_none() {
        return Err("--draft-model requires --spec-k".into());
    }
    let draft_spec = args.get_or("draft-model", "auto");
    let kv = args.get_or("kv", "pool");
    if !matches!(kv, "pool" | "paged") {
        return Err(format!("unknown --kv `{kv}` (pool|paged)").into());
    }
    // --quant selects the weight precision for the serve hot path
    // (DESIGN.md §18): the CPU backend streams group-quantized resident
    // weights through the fused dequant-GEMM kernels, the accel backend
    // selects the matching int8/int4 MPE design point.
    let quant = parse_quant(args.get_or("quant", "f32"))?;
    let slots = args.get_usize("slots", if smoke { 2 } else { 4 })?;
    if slots == 0 {
        return Err("--slots must be >= 1".into());
    }
    let block_size = args.get_usize("block-size", 8)?;
    if block_size == 0 {
        return Err("--block-size must be >= 1".into());
    }
    // Equal KV memory to `slots` flat slots; a paged "slot" is only a
    // block table, so concurrency is bounded by blocks instead.
    let n_blocks = slots * preset.seq_len.div_ceil(block_size);
    let block_cfg = speedllm_pagedkv::BlockConfig {
        block_size,
        n_blocks,
    };
    // --prefill-ratio (with or without --token-budget) switches on the
    // unified mixed prefill+decode scheduler (DESIGN.md §14).
    let unified = if args.get("prefill-ratio").is_some() || args.get("token-budget").is_some() {
        let ratio = args.get_u64("prefill-ratio", 50)?;
        if ratio > 100 {
            return Err("--prefill-ratio is a percentage (0..=100)".into());
        }
        let token_budget = bounded_arg(args, "token-budget", 16, STAGING_ROWS)?;
        Some(speedllm_serve::UnifiedConfig {
            token_budget,
            prefill_pct: ratio as u32,
        })
    } else {
        None
    };
    let scfg = serve_config(
        args,
        smoke,
        if kv == "paged" { n_blocks } else { slots },
        unified,
    )?;
    let mode = match args.get_or("mode", "closed") {
        "closed" => {
            let concurrency = args.get_usize("concurrency", scfg.slots * 2)?;
            if concurrency == 0 {
                return Err("--concurrency must be >= 1".into());
            }
            ArrivalMode::Closed { concurrency }
        }
        "open" => ArrivalMode::Open {
            mean_interarrival: bounded_arg(args, "mean", 32, usize::MAX)? as u64,
        },
        "bursty" => {
            let burst_size = args.get_usize("burst-size", 4)?;
            let burst_gap = args.get_u64("burst-gap", 64)?;
            if burst_size == 0 {
                return Err("--burst-size must be >= 1".into());
            }
            if burst_gap == 0 {
                return Err("--burst-gap must be >= 1".into());
            }
            ArrivalMode::Bursty {
                burst_size,
                burst_gap,
            }
        }
        other => return Err(format!("unknown --mode `{other}` (open|closed|bursty)").into()),
    };
    let shared_prefix_len = args.get_usize("shared-prefix", 0)?;
    let prompt_lo = 2 + shared_prefix_len;
    let prompt_hi = (preset.seq_len / 4).clamp(2, 12).max(prompt_lo);
    if prompt_hi > preset.seq_len {
        return Err(
            format!("--shared-prefix {shared_prefix_len} does not fit the context window").into(),
        );
    }
    let lcfg = LoadGenConfig {
        n_requests,
        mode,
        prompt_len: (prompt_lo, prompt_hi),
        shared_prefix_len,
        max_new_tokens: (
            1,
            bounded_arg(args, "max-new", if smoke { 6 } else { 16 }, usize::MAX)?,
        ),
        sampler,
        stop_at_eos: true,
        vocab_size: preset.vocab_size,
        seq_len: preset.seq_len,
        seed,
    };

    let spec = match spec_k {
        Some(k) => Some((resolve_draft_model(draft_spec, &preset, seed)?, k)),
        None => None,
    };

    println!("model:    {preset}");
    println!(
        "schedule: {} slots, batch <= {}, prefill chunk {}, queue cap {}",
        scfg.slots, scfg.max_batch, scfg.prefill_chunk, scfg.queue_cap
    );
    if let Some(u) = scfg.unified {
        println!(
            "unified:  token budget {}, prefill ratio {}%",
            u.token_budget, u.prefill_pct
        );
    }
    if kv == "paged" {
        println!("kv:       paged, {n_blocks} blocks x {block_size} tokens (= {slots} flat slots)");
    } else {
        println!("kv:       slot pool ({slots} flat slots)");
    }
    if shared_prefix_len > 0 {
        println!("prefix:   {shared_prefix_len} shared tokens per prompt");
    }
    if quant != speedllm_llama::QuantMode::F32 {
        println!(
            "quant:    {} weights (fused dequant-GEMM, f32 accumulate)",
            quant.name()
        );
    }
    if let Some(k) = spec_k {
        println!("spec:     speculative decoding, draft `{draft_spec}`, k = {k}");
    }
    match mode {
        ArrivalMode::Open { mean_interarrival } => println!(
            "workload: {n_requests} requests, open loop (mean gap {mean_interarrival} ticks), seed {seed}"
        ),
        ArrivalMode::Closed { concurrency } => println!(
            "workload: {n_requests} requests, closed loop (concurrency {concurrency}), seed {seed}"
        ),
        ArrivalMode::Bursty {
            burst_size,
            burst_gap,
        } => println!(
            "workload: {n_requests} requests, bursty open loop (bursts of {burst_size}, mean gap {burst_gap} ticks), seed {seed}"
        ),
    }
    println!();

    // Observability exports: the recorder is attached only when some
    // output wants it, and recording never perturbs the token streams
    // or the report (asserted by tests/serve_observability.rs).
    let events_out = args.get("events-out");
    let metrics_out = args.get("metrics-out");
    let record = events_out.is_some() || metrics_out.is_some() || args.get("trace-out").is_some();

    // The accel backend realizes --quant as its MPE/HBM design point.
    let accel_opt = match quant {
        speedllm_llama::QuantMode::F32 => OptConfig::full(),
        speedllm_llama::QuantMode::Int8 => OptConfig::full_int8(),
        speedllm_llama::QuantMode::Int4 => OptConfig::full_int4(),
    };
    // Resident once, at the serving precision.
    let weights = TransformerWeights::synthetic(preset, seed).into_resident(quant);
    let (report, recorder) = if backend == "cpu" {
        let model = speedllm_llama::forward::Transformer::with_weights(weights);
        let backend = match kv {
            "pool" => CpuBackend::new(model),
            _ => CpuBackend::new_paged(model, block_cfg),
        };
        serve_bench_run(backend, scfg, &lcfg, record, spec)?
    } else {
        let engine = speedllm_accel::engine::Engine::new(weights, accel_opt)?;
        let backend = match kv {
            "pool" => AccelBackend::new(engine),
            _ => AccelBackend::new_paged(engine, block_cfg),
        };
        serve_bench_run(backend, scfg, &lcfg, record, spec)?
    };
    print!("{report}");
    if let Some(rec) = recorder {
        if let Some(path) = events_out {
            let jsonl = rec.events.to_jsonl();
            std::fs::write(path, &jsonl)?;
            println!(
                "wrote {} lifecycle events ({} bytes) to {path}",
                rec.events.len(),
                jsonl.len()
            );
            if rec.events.dropped() > 0 {
                println!("(+{} events dropped)", rec.events.dropped());
            }
        }
        if let Some(path) = metrics_out {
            let text = if path.ends_with(".jsonl") {
                rec.ticks.to_jsonl()
            } else {
                rec.ticks.to_csv()
            };
            std::fs::write(path, &text)?;
            println!(
                "wrote {} tick samples ({} bytes) to {path}",
                rec.ticks.len(),
                text.len()
            );
            if rec.ticks.dropped() > 0 {
                println!("(+{} tick samples evicted)", rec.ticks.dropped());
            }
        }
        if args.get("trace-out").is_some() {
            SERVE_EVENTS.with(|s| *s.borrow_mut() = Some(rec.events.events().to_vec()));
        }
    }
    Ok(())
}

/// Drives one cluster-bench run (a [`speedllm_router::Cluster`] over N
/// identical replicas) and returns the rendered report plus the merged
/// replica-stamped event log when one was requested.
fn cluster_bench_run<B: speedllm_serve::Backend>(
    engines: Vec<speedllm_serve::ServeEngine<B>>,
    ccfg: speedllm_router::ClusterConfig,
    lcfg: &speedllm_serve::LoadGenConfig,
    record: bool,
) -> (String, Option<Vec<speedllm_serve::Event>>) {
    let mut cluster = speedllm_router::Cluster::new(engines, ccfg);
    if record {
        cluster.attach_recorders();
    }
    let mut traffic = speedllm_serve::LoadGen::new(lcfg);
    cluster.run(&mut traffic);
    let events = record.then(|| cluster.take_events());
    (cluster.report().render(), events)
}

/// `speedllm cluster-bench` — N serve replicas behind the router
/// (DESIGN.md §17), with policy selection, per-replica backpressure, and
/// deterministic fault injection.
fn cmd_cluster_bench(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    use speedllm_router::{ClusterConfig, FaultPlan, Policy};
    use speedllm_serve::{ArrivalMode, CpuBackend, LoadGenConfig, ServeEngine};

    args.expect_only(&[
        "preset",
        "backend",
        "replicas",
        "policy",
        "fault-at",
        "max-outstanding",
        "requests",
        "slots",
        "batch",
        "chunk",
        "queue-cap",
        "block-size",
        "shared-prefix",
        "mode",
        "mean",
        "concurrency",
        "max-new",
        "sampler",
        "seed",
        "smoke",
        "events-out",
        "trace-out",
    ])?;
    let smoke = args.get("smoke").is_some();
    let backend = args.get_or("backend", "cpu");
    if !matches!(backend, "cpu" | "accel") {
        return Err(format!("unknown --backend `{backend}` (cpu|accel)").into());
    }
    let preset = parse_preset(args.get_or("preset", if smoke { "tiny" } else { "stories260k" }))?;
    let n_replicas = args.get_usize("replicas", if smoke { 3 } else { 4 })?;
    if n_replicas == 0 || n_replicas > usize::from(u16::MAX) {
        return Err("--replicas must be in 1..=65535".into());
    }
    let policy = Policy::parse(args.get_or("policy", "prefix"))?;
    let faults = match args.get("fault-at") {
        Some(spec) => spec
            .split(',')
            .map(FaultPlan::parse)
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    for f in &faults {
        if f.replica >= n_replicas {
            return Err(format!(
                "--fault-at names replica {} but the cluster has {n_replicas}",
                f.replica
            )
            .into());
        }
    }
    let dead_forever: std::collections::BTreeSet<usize> = faults
        .iter()
        .filter(|f| f.up_tick == u64::MAX)
        .map(|f| f.replica)
        .collect();
    if dead_forever.len() == n_replicas {
        return Err("--fault-at downs every replica forever; the cluster could never drain".into());
    }
    let n_requests = args.get_usize("requests", if smoke { 12 } else { 32 })?;
    let seed = args.get_u64("seed", 42)?;
    let sampler = parse_sampler(args.get_or("sampler", "temp:0.8"))?;
    let slots = args.get_usize("slots", if smoke { 2 } else { 4 })?;
    if slots == 0 {
        return Err("--slots must be >= 1".into());
    }
    // The smoke workload's 4-token shared prefix must fill at least one
    // block for prefix routing to have anything to see.
    let block_size = args.get_usize("block-size", if smoke { 4 } else { 8 })?;
    if block_size == 0 {
        return Err("--block-size must be >= 1".into());
    }
    // Every replica gets the same KV budget: `slots` flat slots' worth of
    // paged blocks (the prefix policy needs the radix cache, so the
    // cluster always serves paged KV).
    let n_blocks = slots * preset.seq_len.div_ceil(block_size);
    let block_cfg = speedllm_pagedkv::BlockConfig {
        block_size,
        n_blocks,
    };
    let scfg = serve_config(args, smoke, n_blocks, None)?;
    let mode = match args.get_or("mode", "open") {
        "open" => ArrivalMode::Open {
            mean_interarrival: bounded_arg(args, "mean", if smoke { 8 } else { 32 }, usize::MAX)?
                as u64,
        },
        "closed" => {
            let concurrency = args.get_usize("concurrency", n_replicas * slots)?;
            if concurrency == 0 {
                return Err("--concurrency must be >= 1".into());
            }
            ArrivalMode::Closed { concurrency }
        }
        other => return Err(format!("unknown --mode `{other}` (open|closed)").into()),
    };
    let shared_prefix_len = args.get_usize("shared-prefix", if smoke { 4 } else { 0 })?;
    let prompt_lo = 2 + shared_prefix_len;
    let prompt_hi = (preset.seq_len / 4).clamp(2, 12).max(prompt_lo);
    if prompt_hi > preset.seq_len {
        return Err(
            format!("--shared-prefix {shared_prefix_len} does not fit the context window").into(),
        );
    }
    let max_new = bounded_arg(args, "max-new", if smoke { 6 } else { 16 }, usize::MAX)?;
    let max_outstanding = args.get_usize("max-outstanding", usize::MAX)?;
    if max_outstanding < prompt_hi + max_new {
        return Err(format!(
            "--max-outstanding {max_outstanding} is below the largest request \
             ({prompt_hi} prompt + {max_new} new tokens); nothing could ever dispatch"
        )
        .into());
    }
    let lcfg = LoadGenConfig {
        n_requests,
        mode,
        prompt_len: (prompt_lo, prompt_hi),
        shared_prefix_len,
        max_new_tokens: (1, max_new),
        sampler,
        stop_at_eos: true,
        vocab_size: preset.vocab_size,
        seq_len: preset.seq_len,
        seed,
    };
    let ccfg = ClusterConfig {
        policy,
        max_outstanding_tokens: max_outstanding,
        faults: faults.clone(),
    };

    println!("model:    {preset}");
    println!("cluster:  {n_replicas} replicas, policy {policy}");
    println!(
        "schedule: per replica: batch <= {}, prefill chunk {}, queue cap {}",
        scfg.max_batch, scfg.prefill_chunk, scfg.queue_cap
    );
    println!(
        "kv:       paged, {n_blocks} blocks x {block_size} tokens per replica (= {slots} flat slots)"
    );
    if shared_prefix_len > 0 {
        println!("prefix:   {shared_prefix_len} shared tokens per prompt");
    }
    if max_outstanding != usize::MAX {
        println!("cap:      {max_outstanding} outstanding tokens per replica");
    }
    for f in &faults {
        if f.up_tick == u64::MAX {
            println!(
                "fault:    replica {} down at tick {} (forever)",
                f.replica, f.down_tick
            );
        } else {
            println!(
                "fault:    replica {} down at tick {}, back at {}",
                f.replica, f.down_tick, f.up_tick
            );
        }
    }
    match mode {
        ArrivalMode::Open { mean_interarrival } => println!(
            "workload: {n_requests} requests, open loop (mean gap {mean_interarrival} ticks), seed {seed}"
        ),
        ArrivalMode::Closed { concurrency } => println!(
            "workload: {n_requests} requests, closed loop (concurrency {concurrency}), seed {seed}"
        ),
        ArrivalMode::Bursty { .. } => unreachable!("cluster-bench offers open|closed"),
    }
    println!();

    let events_out = args.get("events-out");
    let record = events_out.is_some();
    // One resident copy of the checkpoint, whatever the replica count.
    let weights = TransformerWeights::synthetic(preset, seed).into_resident(QuantMode::F32);
    let (report, events) = if backend == "cpu" {
        let engines: Vec<ServeEngine<CpuBackend>> = (0..n_replicas)
            .map(|_| {
                let model =
                    speedllm_llama::forward::Transformer::with_weights(Arc::clone(&weights));
                ServeEngine::new(CpuBackend::new_paged(model, block_cfg), scfg)
            })
            .collect();
        cluster_bench_run(engines, ccfg, &lcfg, record)
    } else {
        let engines = (0..n_replicas)
            .map(|_| {
                let engine =
                    speedllm_accel::engine::Engine::new(Arc::clone(&weights), OptConfig::full())?;
                Ok(ServeEngine::new(
                    speedllm_serve::AccelBackend::new_paged(engine, block_cfg),
                    scfg,
                ))
            })
            .collect::<Result<Vec<_>, Box<dyn std::error::Error>>>()?;
        cluster_bench_run(engines, ccfg, &lcfg, record)
    };
    print!("{report}");
    if let Some(path) = events_out {
        let events = events.expect("recorded when --events-out is set");
        let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
        std::fs::write(path, &jsonl)?;
        println!(
            "wrote {} lifecycle events ({} bytes) to {path}",
            events.len(),
            jsonl.len()
        );
    }
    Ok(())
}

/// `speedllm analyze` — phase-breakdown dashboard over the lifecycle
/// event JSONL written by `serve-bench --events-out`.
fn cmd_analyze(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.expect_only(&["events", "top", "trace-out"])?;
    let path = args
        .get("events")
        .ok_or("analyze requires --events FILE (from serve-bench --events-out)")?;
    let top = args.get_usize("top", 5)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let events = speedllm_serve::parse_events_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    let opts = speedllm_serve::AnalyzeOptions {
        top,
        ..Default::default()
    };
    print!("{}", speedllm_serve::render_analysis(&events, &opts));
    Ok(())
}
