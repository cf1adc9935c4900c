//! Ablation bench for the **batched-decode GEMM** path (DESIGN.md §13):
//! decodes the same sequences through `CpuBackend::decode` at batch
//! widths 1/2/4/8 and prints wall-clock tok/s plus the telemetry-derived
//! weight bytes streamed per token. Decode is bandwidth-bound, so the
//! weight-reuse matmul (one stream of every matrix per step, shared by
//! the whole batch) makes tok/s climb with width while bytes-per-token
//! falls proportionally — the CPU twin of the accelerator's
//! weight-stream amortization. The bench targets time one batched
//! forward step per width and stamp `batch_width` onto their JSONL rows.

use speedllm_bench::harness::{is_smoke, Runner};
use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::Transformer;
use speedllm_llama::kv_cache::KvCache;
use speedllm_llama::weights::TransformerWeights;
use speedllm_serve::{Backend, CpuBackend, ServeSlot};
use speedllm_telemetry as tel;
use std::hint::black_box;
use std::time::Instant;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn backend_with_slots(
    weights: &TransformerWeights,
    width: usize,
    prompt: &[u32],
) -> (CpuBackend, Vec<ServeSlot>) {
    let mut backend = CpuBackend::new(Transformer::new(weights.clone()));
    let slots = (0..width)
        .map(|i| {
            let mut slot = backend.new_slot();
            // Stagger prompts so batch members sit at different positions.
            let tokens: Vec<u32> = prompt.iter().map(|&t| t + i as u32).collect();
            backend.prefill(&mut slot, &tokens, 0);
            slot
        })
        .collect();
    (backend, slots)
}

/// Runs `steps` batched decode steps and returns (tokens, seconds).
fn decode_run(backend: &mut CpuBackend, slots: &mut [ServeSlot], steps: usize) -> (usize, f64) {
    let width = slots.len();
    let start = Instant::now();
    for step in 0..steps {
        let tokens: Vec<u32> = (0..width).map(|b| (5 + b + step) as u32).collect();
        let mut refs: Vec<&mut ServeSlot> = slots.iter_mut().collect();
        black_box(backend.decode(&mut refs, &tokens));
    }
    (width * steps, start.elapsed().as_secs_f64())
}

/// Short instrumented run: returns weight bytes streamed per token as
/// counted by the `cpu.gemm_*` telemetry counters.
fn probe_bytes_per_token(weights: &TransformerWeights, width: usize, prompt: &[u32]) -> f64 {
    let (mut backend, mut slots) = backend_with_slots(weights, width, prompt);
    let was_enabled = tel::enabled();
    tel::set_enabled(true);
    tel::metrics::reset();
    decode_run(&mut backend, &mut slots, 4);
    let snap = tel::metrics::snapshot();
    tel::set_enabled(was_enabled);
    let get = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    // Counters are reset after prefill, so this is decode-only traffic:
    // the batched-GEMM weight-bytes-per-token figure.
    let bytes = get("cpu.gemm_weight_bytes") as f64;
    let tokens = get("cpu.gemm_tokens") as f64;
    bytes / tokens.max(1.0)
}

fn print_ablation() {
    // Non-smoke uses stories15M: ~58 MB of f32 weights, far past cache,
    // so decode really is weight-bandwidth-bound and the reuse win is the
    // paper-relevant regime. Smoke keeps the tiny config.
    let (cfg, steps) = if is_smoke() {
        (ModelConfig::test_tiny(), 8)
    } else {
        (ModelConfig::stories15m(), 48)
    };
    let prompt = [1u32, 7];
    println!("--- batched-decode GEMM ablation ({cfg}, {steps} decode steps, flat slots) ---");
    let weights = TransformerWeights::synthetic(cfg, 42);
    let mut base = 0.0f64;
    for width in WIDTHS {
        let (mut backend, mut slots) = backend_with_slots(&weights, width, &prompt);
        let (tokens, secs) = decode_run(&mut backend, &mut slots, steps);
        let tok_s = tokens as f64 / secs.max(f64::MIN_POSITIVE);
        if width == 1 {
            base = tok_s;
        }
        let bpt = probe_bytes_per_token(&weights, width, &prompt);
        println!(
            "batch {width}: {tok_s:>10.1} tok/s ({:.2}x), {:>8.3} MB weights streamed/token",
            tok_s / base.max(f64::MIN_POSITIVE),
            bpt / 1e6,
        );
    }
    println!("--------------------------------------------------------------------------");
}

fn bench_batched_gemm(c: &mut Runner) {
    print_ablation();
    // Timed targets on the tiny config: one batched decode step per
    // iteration at a pinned position, so the KV cache never overflows no
    // matter how many samples the harness takes.
    let cfg = ModelConfig::test_tiny();
    let weights = TransformerWeights::synthetic(cfg, 42);
    for width in WIDTHS {
        let mut model = Transformer::new(weights.clone());
        let mut kvs: Vec<KvCache> = (0..width).map(|_| KvCache::new(&cfg)).collect();
        let tokens: Vec<u32> = (0..width as u32).map(|i| 3 + i).collect();
        let positions = vec![0usize; width];
        c.set_meta("batch_width", &width.to_string());
        c.bench_function(&format!("ablation/batched_gemm_w{width}"), |b| {
            b.iter(|| {
                let mut refs: Vec<&mut KvCache> = kvs.iter_mut().collect();
                black_box(
                    model
                        .forward_batch_with_kv(refs.as_mut_slice(), &tokens, &positions)
                        .len(),
                )
            })
        });
    }
}

fn main() {
    let mut c = Runner::from_env().sample_size(10);
    bench_batched_gemm(&mut c);
    c.finish();
}
