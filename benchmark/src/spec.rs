//! What the benchmark runs and what it reports: the five workloads, every
//! metric with its unit, direction and regression bound, and the
//! `BENCHMARK.json` manifest generated from them. This file is the single
//! source of those names; `tests/manifest.rs` keeps the committed
//! manifest equal to [`manifest`].

use speedllm_llama::config::ModelConfig;
use speedllm_llama::quant::QuantMode;
use speedllm_llama::sampler::SamplerKind;
use speedllm_pagedkv::BlockConfig;
use speedllm_serve::engine::{ServeConfig, UnifiedConfig};

use crate::json::Json;

/// Seconds one run measures (`run_seconds` in the manifest). As long as
/// the driver's time cap allows for three declared workloads: on the
/// shared host this was written on, identical code spreads 20–30% between
/// 15-second runs and about half that between 35-second ones.
pub const RUN_SECONDS: u64 = 35;
/// Seed of the synthetic target weights — fixed, so `--seed` changes the
/// traffic and never the model.
pub const WEIGHT_SEED: u64 = 42;
/// Seed of the synthetic draft weights (speculative workload).
pub const DRAFT_SEED: u64 = 43;
/// `--seed` default.
pub const DEFAULT_SEED: u64 = 7;
/// Requests replayed through the sequential oracle, and covered by the
/// stream digest: ids `0..CHECKED_REQUESTS`.
pub const CHECKED_REQUESTS: usize = 4;
/// Relative drift of the host bandwidth probe across a run above which
/// the run's wall-clock rows are reported as unresolved.
pub const DRIFT_LIMIT: f64 = 0.10;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// Manifest spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as keyed in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these from its untraced pass (README.md says how each is defined on
/// the simulator workload). The wall-clock bounds are as wide as a bound
/// may be: identical code spreads 10–20% between runs on the 2-vCPU host
/// this was written on (README.md, "Host noise").
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("out_tok_s", "tok/s", Higher, 0.25),
    e2e("total_tok_s", "tok/s", Higher, 0.25),
    e2e("ttft_ms_p50", "ms", Lower, 0.25),
    e2e("tpot_ms_p50", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
];

/// End-to-end tails, from the full-length untraced pass like the metrics
/// above, that the manifest cannot carry: an end-to-end metric there must
/// be non-zero on every workload, and a p90 needs 100 samples (ten beyond
/// it) — of requests, which only `serve15m_int8_open` sends in a run, or of
/// token gaps, which `generate` does not show. They are printed, kept in
/// the `aux` line and `results.json` (`null` when too few samples), and
/// held to their bounds by `--repeat`.
pub const TAILS: &[Metric] = &[
    e2e("ttft_ms_p90", "ms", Lower, 0.20),
    e2e("itl_ms_p90", "ms", Lower, 0.20),
];

/// Measurements of single layers (layer = crate), from the traced pass.
/// A metric a workload cannot measure — its layer does not run there, or
/// a tail has too few samples — is printed as `-` and reads 0 in the
/// result line, which must carry a number for every name.
pub const PER_LAYER: &[Metric] = &[
    // serve: the scheduler around the backend verbs.
    layer("serve.steps", "count", Lower),
    layer("serve.step_ms_p50", "ms", Lower),
    layer("serve.step_ms_p90", "ms", Lower),
    layer("serve.self_ms", "ms", Lower),
    layer("serve.self_share", "share", Lower),
    layer("serve.queue_wait_ms_p50", "ms", Lower),
    layer("serve.batch_rows_mean", "rows", Higher),
    layer("serve.max_active", "count", Higher),
    layer("serve.prefix_hit_share", "share", Higher),
    layer("serve.preemptions", "count", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.spec_acceptance", "share", Higher),
    layer("serve.spec_tokens_per_round", "tok", Higher),
    // backend: the four verbs, timed by TimedBackend.
    layer("backend.prefill_calls", "count", Lower),
    layer("backend.prefill_rows", "count", Lower),
    layer("backend.prefill_us_per_row", "us", Lower),
    layer("backend.decode_calls", "count", Lower),
    layer("backend.decode_rows", "count", Lower),
    layer("backend.decode_us_per_row", "us", Lower),
    layer("backend.mixed_calls", "count", Lower),
    layer("backend.mixed_rows", "count", Lower),
    layer("backend.mixed_us_per_row", "us", Lower),
    layer("backend.verify_calls", "count", Lower),
    layer("backend.verify_rows", "count", Lower),
    layer("backend.verify_us_per_row", "us", Lower),
    // llama: kernel probes at the workload's precision, outside the run.
    layer("llama.forward_w1_us", "us", Lower),
    layer("llama.forward_w8_us_per_row", "us", Lower),
    layer("llama.classifier_us", "us", Lower),
    layer("llama.layer_gemm_us", "us", Lower),
    layer("llama.attention_ctx128_us", "us", Lower),
    layer("llama.rmsnorm_us", "us", Lower),
    layer("llama.rope_us", "us", Lower),
    layer("llama.sampler_us", "us", Lower),
    layer("llama.weight_mb_per_token", "MB", Lower),
    layer("llama.roofline_frac", "share", Higher),
    // pagedkv: block bookkeeping.
    layer("pagedkv.blocks_total", "count", Lower),
    layer("pagedkv.peak_blocks_in_use", "count", Lower),
    layer("pagedkv.cache_evicted_blocks", "count", Lower),
    layer("pagedkv.alloc_release_ns", "ns", Lower),
    layer("pagedkv.radix_lookup_ns", "ns", Lower),
    // accel / fpga-sim: the simulated device and the host simulating it.
    layer("accel.build_ms", "ms", Lower),
    layer("accel.host_us_per_token", "us", Lower),
    layer("accel.cycles_per_token_p50", "cycles", Lower),
    layer("accel.speedup_x", "x", Higher),
    layer("accel.energy_gain_x", "x", Higher),
    layer("fpga-sim.hbm_read_mb_per_token", "MB", Lower),
    layer("fpga-sim.mpe_macs_per_token", "count", Lower),
    layer("fpga-sim.kernel_launches_per_token", "count", Lower),
    layer("fpga-sim.alloc_stalls_per_token", "count", Lower),
    layer("fpga-sim.energy_mj_per_token", "mJ", Lower),
    layer("fpga-sim.mpe_busy_share", "share", Higher),
    // Simulated results: on the cycle clock, so they repeat exactly.
    layer("sim_decode_tok_s", "tok/s", Higher),
    layer("sim_tok_per_j", "tok/J", Higher),
    layer("paper_speedup_err", "share", Lower),
    layer("paper_energy_err", "share", Lower),
    layer("sim_cycles_per_s", "cycles/s", Higher),
    // telemetry: the program's own spans, and the price of watching.
    layer("telemetry.cpu_qkv_ms", "ms", Lower),
    layer("telemetry.cpu_mha_ms", "ms", Lower),
    layer("telemetry.cpu_ffn_ms", "ms", Lower),
    layer("telemetry.cpu_classifier_ms", "ms", Lower),
    layer("telemetry.engine_timing_pass_ms", "ms", Lower),
    layer("telemetry.spans", "count", Lower),
    layer("telemetry.dropped", "count", Lower),
    layer("telemetry.unattributed_share", "share", Lower),
    layer("telemetry.overhead_share", "share", Lower),
    // loadgen / host: the generator's own behaviour and the machine's.
    layer("loadgen.sent", "count", Higher),
    layer("loadgen.ok", "count", Higher),
    layer("loadgen.failed", "count", Lower),
    layer("loadgen.late_ms_max", "ms", Lower),
    layer("loadgen.itl_ms_p90", "ms", Lower),
    layer("host.stream_gb_s", "GB/s", Higher),
    layer("host.probe_drift", "share", Lower),
];

/// How requests are offered to a serve workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// `clients` callers, each sending its next request when the previous
    /// one completes.
    Closed {
        /// Concurrent callers.
        clients: usize,
    },
    /// A burst of `burst` requests every `burst / rate_rps` seconds,
    /// whatever the server does.
    Open {
        /// Requests per burst.
        burst: usize,
        /// Request rate.
        rate_rps: f64,
    },
}

/// A serve workload: model precision, KV layout, scheduler and traffic.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Model architecture.
    pub model: ModelConfig,
    /// Weight precision of the GEMM operands.
    pub quant: QuantMode,
    /// Paged KV geometry; `None` is the flat slot pool.
    pub paged: Option<BlockConfig>,
    /// Scheduler parameters.
    pub sched: ServeConfig,
    /// Speculation depth; `None` is plain decode.
    pub spec_k: Option<usize>,
    /// Traffic shape.
    pub load: Load,
    /// Inclusive prompt-length range, BOS included.
    pub prompt_len: (usize, usize),
    /// Prompt tokens (after BOS) every request shares.
    pub shared_prefix_len: usize,
    /// Inclusive new-token range.
    pub max_new_tokens: (usize, usize),
    /// Sampling policy.
    pub sampler: SamplerKind,
    /// Requests of a `--smoke` run (which is bounded by count, not time,
    /// so that its counters repeat exactly).
    pub smoke_requests: usize,
}

/// What a workload runs.
// One is built per run; boxing the large variant would cost `Copy`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// The serve engine under generated traffic.
    Serve(ServeSpec),
    /// The paper's Fig 2(a) grid on the simulated U280.
    Paper,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why it exists, one line.
    pub why: &'static str,
    /// Whether `BENCHMARK.json` declares it. A driver makes 4 + 22 runs
    /// per declared workload inside a fixed time cap, so every workload
    /// declared shortens every run; `run.sh` runs all five regardless.
    /// The price: a regression that only an undeclared workload shows —
    /// speculation, or prompt-bound serving with a cold prefix cache —
    /// passes the driver's gate (README.md, "Workloads").
    pub declared: bool,
}

/// The five workloads, in run order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "decode15m_f32_c1",
        why: "One stream, f32, flat KV, width-1 decode: the paper's edge case, bound by the 60.75 MB weight stream per token.",
        declared: true,
    },
    Workload {
        name: "spec15m_f32_k4_c1",
        why: "The same requests with K=4 speculation: draft forwards in serve, all-row verify in the backend; streams must not change.",
        declared: false,
    },
    Workload {
        name: "serve15m_int8_open",
        why: "Open-loop bursts, int8, paged KV, unified batching, 32 shared prefix tokens: queueing, batched qmatmul and radix hits.",
        declared: true,
    },
    Workload {
        name: "prefill15m_int4_c4",
        why: "Four clients, 64-token unshared prompts, 8 new tokens, int4: prompt-bound, radix misses only; bypasses decode and prefix work.",
        declared: false,
    },
    Workload {
        name: "paper15m_accel_gen",
        why: "Fig 2(a)'s four prompts on the simulated U280, full and unoptimized: simulated time and energy beside host simulation speed.",
        declared: true,
    },
];

/// Looks a workload up by name. `smoke` swaps stories15M for the tiny
/// test model and shrinks the traffic to match its 32-token context.
#[must_use]
pub fn kind(name: &str, smoke: bool) -> Option<Kind> {
    let model = if smoke {
        ModelConfig::test_tiny()
    } else {
        ModelConfig::stories15m()
    };
    // Full-size lengths are fixed, not ranges: a run holds 15–100
    // requests, and with so few a length drawn per request moves a
    // median by more than the regression bound from one seed to the
    // next. The seed still picks every token and sampler stream.
    let pick = |full: (usize, usize), tiny: (usize, usize)| if smoke { tiny } else { full };
    let decode = ServeSpec {
        model,
        quant: QuantMode::F32,
        paged: None,
        sched: ServeConfig {
            slots: 1,
            max_batch: 1,
            prefill_chunk: 16,
            queue_cap: 64,
            unified: None,
        },
        spec_k: None,
        load: Load::Closed { clients: 1 },
        prompt_len: pick((16, 16), (4, 8)),
        shared_prefix_len: 0,
        max_new_tokens: pick((64, 64), (12, 12)),
        sampler: SamplerKind::Argmax,
        smoke_requests: 6,
    };
    Some(match name {
        "decode15m_f32_c1" => Kind::Serve(decode),
        "spec15m_f32_k4_c1" => Kind::Serve(ServeSpec {
            spec_k: Some(4),
            ..decode
        }),
        "serve15m_int8_open" => {
            let blocks = if smoke {
                BlockConfig {
                    block_size: 4,
                    n_blocks: 64,
                }
            } else {
                BlockConfig {
                    block_size: 16,
                    n_blocks: 128,
                }
            };
            Kind::Serve(ServeSpec {
                model,
                quant: QuantMode::Int8,
                paged: Some(blocks),
                sched: ServeConfig {
                    // A paged slot is only a block table; admission is
                    // gated on blocks (as `serve-bench --kv paged` does).
                    slots: blocks.n_blocks,
                    max_batch: 8,
                    prefill_chunk: 16,
                    queue_cap: 64,
                    unified: Some(UnifiedConfig {
                        token_budget: 16,
                        prefill_pct: 50,
                    }),
                },
                spec_k: None,
                load: Load::Open {
                    burst: 4,
                    // The tiny model serves a request in microseconds.
                    rate_rps: if smoke { 400.0 } else { 3.0 },
                },
                prompt_len: pick((40, 56), (12, 16)),
                shared_prefix_len: if smoke { 8 } else { 32 },
                max_new_tokens: pick((16, 16), (6, 6)),
                sampler: SamplerKind::Temperature(0.8),
                smoke_requests: 16,
            })
        }
        "prefill15m_int4_c4" => {
            let blocks = if smoke {
                BlockConfig {
                    block_size: 4,
                    n_blocks: 32,
                }
            } else {
                BlockConfig {
                    block_size: 16,
                    n_blocks: 64,
                }
            };
            Kind::Serve(ServeSpec {
                model,
                quant: QuantMode::Int4,
                paged: Some(blocks),
                sched: ServeConfig {
                    slots: blocks.n_blocks,
                    max_batch: 8,
                    prefill_chunk: 64,
                    queue_cap: 64,
                    unified: None,
                },
                spec_k: None,
                load: Load::Closed { clients: 4 },
                prompt_len: pick((64, 64), (20, 24)),
                shared_prefix_len: 0,
                max_new_tokens: pick((8, 8), (4, 4)),
                sampler: SamplerKind::Temperature(0.8),
                smoke_requests: 8,
            })
        }
        "paper15m_accel_gen" => Kind::Paper,
        _ => return None,
    })
}

/// The `BENCHMARK.json` manifest.
#[must_use]
pub fn manifest() -> Json {
    let metric = |m: &Metric| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.name())),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.declared)
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}
