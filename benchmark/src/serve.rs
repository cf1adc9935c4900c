//! Runs one serve workload: set-up (timed, several times), the untraced
//! pass that the end-to-end metrics come from, optionally the traced pass
//! that the per-layer metrics come from, and the correctness checks.

use std::time::Instant;

use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::Transformer;
use speedllm_llama::tokenizer::TOKEN_BOS;
use speedllm_llama::weights::TransformerWeights;
use speedllm_serve::backend::{Backend, CpuBackend};
use speedllm_serve::engine::{Request, ServeEngine, ServeStats};
use speedllm_serve::events::ServeRecorder;
use speedllm_telemetry as tel;

use crate::check::{head_digest, replay_mismatches};
use crate::drive::{drive, plan, Pass, Plan, Stop};
use crate::json::Json;
use crate::probes::{llama_probes, paged_probes, HostProbe, HostReading};
use crate::report::{peak_rss_mb, Measured, Opts, Report, Values};
use crate::spec::{ServeSpec, DRAFT_SEED, WEIGHT_SEED};
use crate::stats::{median, sort, tail_percentile};
use crate::timed::{TimedBackend, Verb, VerbCall};
use crate::trace::{
    harness_trace, request_tid, span, write_trace, ProgramSpans, BACKEND_TID, STEP_TID,
};

/// Times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Runs `set_up` [`SETUP_REPS`] times, dropping each result before the
/// next is built so that memory peaks at one of them. Returns the last
/// result and the seconds each repetition took.
pub fn set_up_repeatedly<T>(mut set_up: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let began = Instant::now();
        last = Some(set_up());
        seconds.push(began.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS is at least 1"), seconds)
}

/// The target model at the workload's precision.
#[must_use]
pub fn model(spec: &ServeSpec) -> Transformer {
    let mut model = Transformer::new(TransformerWeights::synthetic(spec.model, WEIGHT_SEED));
    model.set_quant_mode(spec.quant);
    model
}

/// The bare CPU backend of a workload.
#[must_use]
pub fn backend(spec: &ServeSpec) -> CpuBackend {
    match spec.paged {
        None => CpuBackend::new(model(spec)),
        Some(blocks) => CpuBackend::new_paged(model(spec), blocks),
    }
}

/// An engine over `backend`, configured as the workload says, after one
/// untimed warm-up request has run to completion on it.
pub fn engine<B: Backend>(spec: &ServeSpec, backend: B) -> ServeEngine<B> {
    let mut engine = ServeEngine::new(backend, spec.sched);
    if let Some(k) = spec.spec_k {
        let draft = TransformerWeights::synthetic(ModelConfig::draft_for(&spec.model), DRAFT_SEED);
        engine
            .enable_speculative(Transformer::new(draft), k)
            .expect("the workload's speculation settings are valid");
    }
    // Shorter than any block, so it leaves nothing in the prefix cache.
    let warm_up = Request {
        id: u64::MAX,
        prompt: vec![TOKEN_BOS, 3, 4],
        max_new_tokens: 4,
        stop_at_eos: false,
        sampler: spec.sampler,
        seed: 0,
        arrival: 0,
    };
    engine
        .submit(warm_up)
        .unwrap_or_else(|_| panic!("an empty queue takes the warm-up request"));
    while !engine.is_idle() {
        engine.step();
    }
    engine
}

/// What is left of an engine once its pass is over.
struct Drained {
    stats: ServeStats,
    problems: Vec<String>,
}

/// Counter deltas over the pass (the warm-up is in `base`) and the
/// drain-time invariants: nothing in flight, every slot free, the block
/// bookkeeping consistent and only prefix-cache blocks still held.
fn drained<B: Backend>(engine: &ServeEngine<B>, base: ServeStats, pass: &Pass) -> Drained {
    let now = engine.stats();
    let mut problems = Vec::new();
    if !engine.is_idle() || !engine.all_slots_free() {
        problems.push("the engine did not drain".to_string());
    }
    if let Err(e) = engine.check_paged_invariants() {
        problems.push(format!("paged-KV invariants: {e}"));
    }
    if engine.blocks_in_use() != engine.blocks_cached() {
        problems.push(format!(
            "{} blocks in use at drain but {} cached",
            engine.blocks_in_use(),
            engine.blocks_cached()
        ));
    }
    if (now.completed - base.completed) as usize != pass.finished.len() {
        problems.push("the engine's completion count disagrees with the harness's".to_string());
    }
    let stats = ServeStats {
        iterations: now.iterations - base.iterations,
        completed: now.completed - base.completed,
        rejected: now.rejected - base.rejected,
        preemptions: now.preemptions - base.preemptions,
        prefix_hit_tokens: now.prefix_hit_tokens - base.prefix_hit_tokens,
        cache_evicted_blocks: now.cache_evicted_blocks - base.cache_evicted_blocks,
        spec_rounds: now.spec_rounds - base.spec_rounds,
        spec_drafted: now.spec_drafted - base.spec_drafted,
        spec_accepted: now.spec_accepted - base.spec_accepted,
        // High-water marks: one warm-up request cannot have set them.
        ..now
    };
    Drained { stats, problems }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Requests of `pass` that count as failed: refused, or never completed.
fn failed_requests(pass: &Pass) -> u64 {
    (pass.sent.len() - pass.finished.len()) as u64
}

/// Runs serve workload `name`.
#[must_use]
pub fn run(name: &'static str, spec: &ServeSpec, o: &Opts) -> Report {
    let probe = HostProbe::open(o.smoke);

    // A traced run splits its window: an untraced reference pass, then
    // the traced pass over the same requests.
    let stop = if o.smoke {
        Stop::Requests(spec.smoke_requests)
    } else if o.trace {
        Stop::Seconds(o.seconds / 2.0)
    } else {
        Stop::Seconds(o.seconds)
    };
    let plan = plan(spec, o.seed, stop);
    let epoch = Instant::now();

    let (mut bare_engine, setups) = set_up_repeatedly(|| engine(spec, backend(spec)));
    let base = bare_engine.stats();
    let bare = drive(&mut bare_engine, &plan, epoch);
    // Read before the closing probe and the oracle allocate: the peak of
    // set-up and serving, not of the harness's own checks.
    let peak_rss = peak_rss_mb();
    let bare_end = drained(&bare_engine, base, &bare);
    drop(bare_engine);

    let mut problems = bare_end.problems;
    let mut attempted = bare.sent.len() as u64;
    let mut failed = failed_requests(&bare);
    let digest = head_digest(&bare.finished);
    if digest.is_none() {
        problems.push("the checked requests did not all complete".to_string());
    }

    let traced = o.trace.then(|| {
        let t = traced_pass(name, spec, &plan, epoch, o);
        attempted += t.pass.sent.len() as u64;
        failed += failed_requests(&t.pass);
        problems.extend(t.end.problems.iter().map(|p| format!("traced pass: {p}")));
        if head_digest(&t.pass.finished) != digest {
            problems.push("traced and untraced passes generated different streams".to_string());
        }
        t
    });

    let host = probe.close();

    let mut oracle = model(spec);
    let misses = replay_mismatches(&mut oracle, &plan, &bare.finished);
    failed += misses.len() as u64;
    problems.extend(misses);
    drop(oracle);

    let wall_s = bare.wall_s();
    let mut aux = vec![
        ("seed", Json::Num(o.seed as f64)),
        (
            "digest",
            Json::str(digest.map_or(String::new(), |d| format!("{d:016x}"))),
        ),
        ("requests_done", Json::Num(bare.finished.len() as f64)),
        ("steps", Json::Num(bare.steps.len() as f64)),
        ("wall_s", Json::Num(wall_s)),
        ("busy_share", Json::Num(ratio(bare.busy_s(), wall_s))),
    ];
    aux.extend(host.aux());

    let (values, samples) = match &traced {
        None => {
            let lat = bare.latencies();
            Measured {
                setups_s: setups,
                generated: bare.generated_tokens(),
                prompt: bare.prompt_tokens(),
                wall_s,
                ttft_ms: lat.ttft_ms,
                tpot_ms: lat.tpot_ms,
                itl_ms: lat.itl_ms,
                peak_rss_mb: peak_rss,
            }
            .end_to_end()
        }
        Some(t) => {
            aux.push(("trace_file", Json::str(t.trace_file.clone())));
            t.layer_values(spec, &bare, host)
        }
    };

    Report {
        workload: name,
        traced: o.trace,
        attempted,
        failed,
        problems,
        values,
        samples,
        aux,
    }
}

/// What the traced pass observed.
struct Traced {
    pass: Pass,
    end: Drained,
    /// Backend verb calls of the pass (the warm-up's are dropped).
    calls: Vec<VerbCall>,
    /// The program's own telemetry spans, and how many it dropped.
    spans: Vec<tel::SpanRecord>,
    dropped: u64,
    trace_file: String,
}

fn traced_pass(name: &str, spec: &ServeSpec, plan: &Plan, epoch: Instant, o: &Opts) -> Traced {
    let mut engine = engine(spec, TimedBackend::new(backend(spec), epoch));
    let warm_up_calls = engine.backend().calls().len();
    let base = engine.stats();
    engine.attach_recorder(ServeRecorder::new());
    tel::reset();
    tel::set_enabled(true);
    let pass = drive(&mut engine, plan, epoch);
    tel::set_enabled(false);
    let spans = tel::drain_spans();
    let dropped = tel::dropped_spans();
    let end = drained(&engine, base, &pass);
    let calls = engine.backend().calls()[warm_up_calls..].to_vec();
    drop(engine);

    let trace_file = o.out_dir.as_ref().map_or(String::new(), |dir| {
        write_trace(
            &dir.join(format!("{name}.trace.json")),
            harness_spans(&pass, &calls),
        )
    });
    Traced {
        pass,
        end,
        calls,
        spans,
        dropped,
        trace_file,
    }
}

/// The harness's spans of a traced pass: request → step → backend verb.
/// A step serves every request in flight, so it carries a `req` tag only
/// when exactly one is (always, on the one-client workloads); a verb
/// carries its step's index and, through it, the same tag.
fn harness_spans(pass: &Pass, calls: &[VerbCall]) -> tel::export::ChromeTrace {
    let mut trace = harness_trace();
    // Requests in flight during each step: +1 at first_step, −1 after
    // the finishing step.
    let mut in_flight = vec![0i64; pass.steps.len() + 1];
    let mut sole: Vec<Option<u64>> = vec![None; pass.steps.len()];
    for f in &pass.finished {
        let id = f.completion.id;
        let sent = &pass.sent[id as usize];
        in_flight[sent.first_step.min(f.step)] += 1;
        in_flight[f.step + 1] -= 1;
        for s in &mut sole[sent.first_step.min(f.step)..=f.step] {
            *s = Some(id);
        }
        span(
            &mut trace,
            request_tid(id),
            "request",
            sent.due_s,
            pass.steps[f.step].end_s - sent.due_s,
            &[
                ("req", id as i64),
                ("first_step", sent.first_step as i64),
                ("last_step", f.step as i64),
                ("tokens", f.completion.tokens.len() as i64),
            ],
        );
    }
    let mut active = 0i64;
    let step_tags: Vec<Vec<(&'static str, i64)>> = pass
        .steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            active += in_flight[i];
            let mut args = vec![
                ("step", i as i64),
                ("in_flight", active),
                ("rows", (s.now_after - s.now_before) as i64),
            ];
            if let (1, Some(id)) = (active, sole[i]) {
                args.push(("req", id as i64));
            }
            args
        })
        .collect();
    for (s, args) in pass.steps.iter().zip(&step_tags) {
        span(
            &mut trace,
            STEP_TID,
            "step",
            s.start_s,
            s.end_s - s.start_s,
            args,
        );
    }
    for c in calls {
        // Calls are in time order and each lies inside one step.
        let step = pass
            .steps
            .partition_point(|s| s.end_s < c.start_s)
            .min(pass.steps.len().saturating_sub(1));
        let mut args = vec![("step", step as i64), ("rows", c.rows as i64)];
        args.extend(step_tags[step].iter().filter(|(k, _)| *k == "req"));
        span(
            &mut trace,
            BACKEND_TID,
            c.verb.name(),
            c.start_s,
            c.dur_s,
            &args,
        );
    }
    trace
}

impl Traced {
    /// Every per-layer metric of a serve workload, with sample counts.
    fn layer_values(&self, spec: &ServeSpec, bare: &Pass, host: HostReading) -> Values {
        let pass = &self.pass;
        let stats = &self.end.stats;
        let busy_s = pass.busy_s();
        let verbs_s: f64 = self.calls.iter().map(|c| c.dur_s).sum();
        let lat = pass.latencies();
        let mut step_ms: Vec<f64> = pass
            .steps
            .iter()
            .map(|s| (s.end_s - s.start_s) * 1e3)
            .collect();
        sort(&mut step_ms);
        let rows = pass.rows() as f64;
        let mut values = vec![
            ("serve.steps", pass.steps.len() as f64),
            ("serve.step_ms_p50", median(step_ms.clone())),
            // By construction: step time not inside a backend verb —
            // scheduler, sampler, logits copies, block bookkeeping and,
            // under speculation, the draft forwards.
            ("serve.self_ms", (busy_s - verbs_s) * 1e3),
            ("serve.self_share", ratio(busy_s - verbs_s, busy_s)),
            ("serve.queue_wait_ms_p50", median(lat.queue_wait_ms.clone())),
            (
                "serve.batch_rows_mean",
                ratio(rows, pass.steps.len() as f64),
            ),
            ("serve.max_active", stats.max_active_observed as f64),
            (
                "serve.prefix_hit_share",
                ratio(stats.prefix_hit_tokens as f64, pass.prompt_tokens() as f64),
            ),
            ("serve.preemptions", stats.preemptions as f64),
            ("serve.rejected", stats.rejected as f64),
            (
                "serve.spec_acceptance",
                ratio(stats.spec_accepted as f64, stats.spec_drafted as f64),
            ),
            (
                "serve.spec_tokens_per_round",
                if stats.spec_rounds > 0 {
                    ratio(pass.generated_tokens() as f64, stats.spec_rounds as f64)
                } else {
                    0.0
                },
            ),
        ];
        for (verb, [calls_name, rows_name, us_name]) in Verb::ALL.into_iter().zip(VERB_METRICS) {
            let mine = self.calls.iter().filter(|c| c.verb == verb);
            let (calls, verb_rows, secs) = mine.fold((0usize, 0usize, 0.0), |(n, r, s), c| {
                (n + 1, r + c.rows, s + c.dur_s)
            });
            values.push((calls_name, calls as f64));
            values.push((rows_name, verb_rows as f64));
            values.push((us_name, ratio(secs * 1e6, verb_rows as f64)));
        }

        let probes = llama_probes(spec);
        let weight_bytes = probes.weight_mb_per_token * 1e6;
        values.extend([
            ("llama.forward_w1_us", probes.forward_w1_us),
            ("llama.forward_w8_us_per_row", probes.forward_w8_us_per_row),
            ("llama.classifier_us", probes.classifier_us),
            ("llama.layer_gemm_us", probes.layer_gemm_us),
            ("llama.attention_ctx128_us", probes.attention_ctx128_us),
            ("llama.rmsnorm_us", probes.rmsnorm_us),
            ("llama.rope_us", probes.rope_us),
            ("llama.sampler_us", probes.sampler_us),
            ("llama.weight_mb_per_token", probes.weight_mb_per_token),
            // Rows per busy second, each charged a full weight stream,
            // over what the host streams: above 1 when rows of a batch
            // share one pass over the weights.
            (
                "llama.roofline_frac",
                ratio(ratio(rows, busy_s) * weight_bytes, host.stream_gb_s * 1e9),
            ),
        ]);
        if let Some(blocks) = spec.paged {
            let p = paged_probes(blocks, spec.model.vocab_size);
            values.extend([
                ("pagedkv.blocks_total", blocks.n_blocks as f64),
                (
                    "pagedkv.peak_blocks_in_use",
                    stats.peak_blocks_in_use as f64,
                ),
                (
                    "pagedkv.cache_evicted_blocks",
                    stats.cache_evicted_blocks as f64,
                ),
                ("pagedkv.alloc_release_ns", p.alloc_release_ns),
                ("pagedkv.radix_lookup_ns", p.radix_lookup_ns),
            ]);
        }

        // Step time that none of the program's own spans explains. Under
        // speculation the draft forwards emit the same spans from inside
        // the scheduler, which is why this is a share of step time and
        // not of backend time.
        let program = ProgramSpans::of(&self.spans);
        // The price of watching: busy time per token row, traced over
        // untraced. Per row, because the two passes need not complete
        // the same number of requests.
        let per_row = |p: &Pass| ratio(p.busy_s(), p.rows() as f64);
        values.extend(program.values());
        values.extend([
            ("telemetry.spans", self.spans.len() as f64),
            ("telemetry.dropped", self.dropped as f64),
            (
                "telemetry.unattributed_share",
                1.0 - ratio(program.total_ms(), busy_s * 1e3),
            ),
            (
                "telemetry.overhead_share",
                ratio(per_row(pass), per_row(bare)) - 1.0,
            ),
        ]);

        // The generator's view.
        values.extend([
            ("loadgen.sent", pass.sent.len() as f64),
            ("loadgen.ok", pass.finished.len() as f64),
            ("loadgen.failed", failed_requests(pass) as f64),
            (
                "loadgen.late_ms_max",
                lat.late_ms.iter().copied().fold(0.0, f64::max),
            ),
        ]);
        // The two tails, where they have the samples to be measured. The
        // token gaps are the untraced reference pass's, so that tracing
        // does not inflate them.
        let mut itl_ms = bare.latencies().itl_ms;
        sort(&mut itl_ms);
        for (name, sample) in [
            ("serve.step_ms_p90", &step_ms),
            ("loadgen.itl_ms_p90", &itl_ms),
        ] {
            values.extend(tail_percentile(sample, 90.0).map(|v| (name, v)));
        }
        values.extend(host.values());
        let samples = vec![
            ("serve.step_ms_p50", step_ms.len()),
            ("serve.step_ms_p90", step_ms.len()),
            ("serve.queue_wait_ms_p50", lat.queue_wait_ms.len()),
            ("loadgen.itl_ms_p90", itl_ms.len()),
        ];
        (values, samples)
    }
}

/// `backend.*` metric names, in [`Verb::ALL`] order.
const VERB_METRICS: [[&str; 3]; 4] = [
    [
        "backend.prefill_calls",
        "backend.prefill_rows",
        "backend.prefill_us_per_row",
    ],
    [
        "backend.decode_calls",
        "backend.decode_rows",
        "backend.decode_us_per_row",
    ],
    [
        "backend.mixed_calls",
        "backend.mixed_rows",
        "backend.mixed_us_per_row",
    ],
    [
        "backend.verify_calls",
        "backend.verify_rows",
        "backend.verify_us_per_row",
    ],
];
