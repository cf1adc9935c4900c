//! Certified greedy rows in serving. A pass whose slots all belong to
//! plain-argmax requests scores `LogitRows::Greedy` (a screen over the
//! vocab table's high halves plus exact rescoring of the candidates); any
//! other pass scores full rows. Either way every stream must equal the
//! sequential `DecodeSession` oracle, which scores full rows.
//!
//! The `cpu.greedy_rows` counter shows which passes took the screen, and
//! telemetry is process-global, so this binary is separate and every test
//! in it holds [`TELEMETRY`].

use std::sync::{Arc, Mutex, MutexGuard};

use speedllm_accel::{Engine, OptConfig};
use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::Transformer;
use speedllm_llama::generate::{DecodeSession, GenerateOptions};
use speedllm_llama::sampler::{argmax, Sampler, SamplerKind};
use speedllm_llama::{ResidentWeights, TransformerWeights};
use speedllm_pagedkv::{BlockConfig, BlockId, BlockTable};
use speedllm_serve::{
    AccelBackend, ArgmaxSlot, Backend, Completion, CpuBackend, Request, ServeConfig, ServeEngine,
    ServeStats, UnifiedConfig,
};
use speedllm_telemetry as tel;

static TELEMETRY: Mutex<()> = Mutex::new(());

/// Holds the telemetry lock with counting on.
fn telemetry() -> MutexGuard<'static, ()> {
    let guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    tel::set_enabled(true);
    guard
}

fn greedy_rows() -> u64 {
    let snap = tel::metrics::snapshot();
    let rows = snap.counters.iter().find(|(k, _)| *k == "cpu.greedy_rows");
    rows.map_or(0, |&(_, v)| v)
}

/// Drains the spans and counts the `classifier` spans that scored full
/// rows (`greedy = 0`).
fn full_classifier_spans() -> usize {
    let spans = tel::drain_spans();
    let full = spans
        .iter()
        .filter(|s| s.name == "classifier" && !s.args.contains(&("greedy", 1)));
    full.count()
}

/// A tiny model with a vocabulary wide enough for the screen to prune.
fn config() -> ModelConfig {
    ModelConfig {
        vocab_size: 512,
        seq_len: 64,
        ..ModelConfig::test_tiny()
    }
}

fn weights() -> Arc<ResidentWeights> {
    Arc::new(ResidentWeights::new(
        TransformerWeights::synthetic(config(), 42),
        speedllm_llama::QuantMode::F32,
    ))
}

/// Where the slots keep their KV.
#[derive(Clone, Copy, Debug)]
enum Layout {
    Flat,
    /// Paged, with blocks to spare.
    Paged,
    /// Paged with one full context's worth of blocks, so three slots
    /// preempt one another (without speculation, which finishes first)
    /// and resumed requests prefill again.
    Tight,
}

const LAYOUTS: [Layout; 3] = [Layout::Flat, Layout::Paged, Layout::Tight];

impl Layout {
    fn blocks(self) -> Option<BlockConfig> {
        let n_blocks = match self {
            Layout::Flat => return None,
            Layout::Paged => 48,
            Layout::Tight => config().seq_len / 4,
        };
        Some(BlockConfig {
            block_size: 4,
            n_blocks,
        })
    }
}

/// The scheduling plans the screen must hold under.
#[derive(Clone, Copy, Debug)]
enum Mode {
    /// Phase-serialized: prefill passes, then decode groups.
    Phase,
    /// One mixed pass per tick under a token budget.
    Unified,
    /// Phase-serialized with K = 3 speculation (verify passes score every
    /// row in full; the draft's proposals take greedy rows).
    Spec3,
}

const MODES: [Mode; 3] = [Mode::Phase, Mode::Unified, Mode::Spec3];

fn cpu(weights: &Arc<ResidentWeights>, layout: Layout) -> CpuBackend {
    let model = Transformer::with_weights(Arc::clone(weights));
    match layout.blocks() {
        Some(blocks) => CpuBackend::new_paged(model, blocks),
        None => CpuBackend::new(model),
    }
}

fn accel(weights: &Arc<ResidentWeights>, layout: Layout) -> AccelBackend {
    let engine = Engine::new(Arc::clone(weights), OptConfig::full()).expect("engine builds");
    match layout.blocks() {
        Some(blocks) => AccelBackend::new_paged(engine, blocks),
        None => AccelBackend::new(engine),
    }
}

/// Five requests; `samplers` is cycled over them.
fn requests(samplers: &[SamplerKind]) -> Vec<Request> {
    (0..5u64)
        .map(|i| Request {
            id: i,
            prompt: (0..3 + 2 * i as u32)
                .map(|t| 1 + (t * 97 + 13 * i as u32) % 511)
                .collect(),
            max_new_tokens: 20,
            stop_at_eos: false,
            sampler: samplers[i as usize % samplers.len()],
            seed: 100 + i,
            arrival: 0,
        })
        .collect()
}

/// Serves every request through `backend` under `mode`; completions are
/// sorted by id.
fn serve<B: Backend>(backend: B, mode: Mode, reqs: &[Request]) -> Vec<Completion> {
    serve_with_stats(backend, mode, reqs).0
}

fn serve_with_stats<B: Backend>(
    backend: B,
    mode: Mode,
    reqs: &[Request],
) -> (Vec<Completion>, ServeStats) {
    let unified = matches!(mode, Mode::Unified).then_some(UnifiedConfig {
        token_budget: 8,
        prefill_pct: 50,
    });
    let cfg = ServeConfig {
        slots: 3,
        max_batch: 4,
        prefill_chunk: 4,
        queue_cap: 16,
        unified,
    };
    let mut engine = ServeEngine::new(backend, cfg);
    if matches!(mode, Mode::Spec3) {
        let draft = TransformerWeights::synthetic(ModelConfig::draft_for(&config()), 9);
        engine
            .enable_speculative(Transformer::new(draft), 3)
            .expect("a valid draft");
    }
    for r in reqs {
        engine
            .submit(r.clone())
            .expect("queue_cap covers the requests");
    }
    let mut done = Vec::new();
    while !engine.is_idle() {
        done.extend(engine.step());
    }
    assert!(engine.all_slots_free(), "a slot leaked");
    done.sort_by_key(|c| c.id);
    (done, engine.stats())
}

/// The sequential oracle's stream for `req`: one full-row step at a time.
fn oracle(weights: &Arc<ResidentWeights>, req: &Request) -> Vec<u32> {
    let mut model = Transformer::with_weights(Arc::clone(weights));
    let options = GenerateOptions {
        max_new_tokens: req.max_new_tokens,
        stop_at_eos: req.stop_at_eos,
    };
    let mut session = DecodeSession::begin(&mut model, &req.prompt, options);
    let mut sampler = Sampler::new(req.sampler, req.seed);
    std::iter::from_fn(|| session.step(&mut sampler)).collect()
}

fn assert_streams(
    weights: &Arc<ResidentWeights>,
    reqs: &[Request],
    done: &[Completion],
    case: &str,
) {
    assert_eq!(done.len(), reqs.len(), "{case}");
    for (r, c) in reqs.iter().zip(done) {
        assert_eq!(c.tokens, oracle(weights, r), "{case}: request {}", r.id);
    }
}

#[test]
fn argmax_streams_match_the_sequential_oracle() {
    let _t = telemetry();
    let w = weights();
    let reqs = requests(&[SamplerKind::Argmax]);
    for layout in LAYOUTS {
        for mode in MODES {
            for name in ["cpu", "accel"] {
                let case = format!("{name} {layout:?} {mode:?}");
                let before = greedy_rows();
                full_classifier_spans();
                let (done, stats) = match name {
                    "cpu" => serve_with_stats(cpu(&w, layout), mode, &reqs),
                    _ => serve_with_stats(accel(&w, layout), mode, &reqs),
                };
                let full = full_classifier_spans();
                assert_streams(&w, &reqs, &done, &case);
                assert!(greedy_rows() > before, "{case}: no pass took the screen");
                // Outside verify passes, every scored row — resumed
                // requests' included — is a greedy one.
                if !matches!(mode, Mode::Spec3) {
                    assert_eq!(full, 0, "{case}: a pass scored full rows");
                    if matches!(layout, Layout::Tight) {
                        assert!(stats.preemptions > 0, "{case}: nothing was preempted");
                    }
                }
            }
        }
    }
}

#[test]
fn greedy_rows_follow_the_traffic() {
    let _t = telemetry();
    let w = weights();
    let argmax_only = requests(&[SamplerKind::Argmax]);
    let drawing = requests(&[SamplerKind::Temperature(0.8)]);
    for mode in [Mode::Phase, Mode::Unified] {
        for name in ["cpu", "accel"] {
            let run = |reqs: &[Request]| {
                let before = greedy_rows();
                let done = match name {
                    "cpu" => serve(cpu(&w, Layout::Flat), mode, reqs),
                    _ => serve(accel(&w, Layout::Flat), mode, reqs),
                };
                assert_streams(&w, reqs, &done, &format!("{name} {mode:?}"));
                greedy_rows() - before
            };
            assert!(run(&argmax_only) > 0, "{name} {mode:?}: argmax traffic");
            assert_eq!(run(&drawing), 0, "{name} {mode:?}: t = 0.8 traffic");
        }
    }
}

#[test]
fn a_pass_mixing_samplers_scores_full_rows() {
    let _t = telemetry();
    let w = weights();
    let vocab = config().vocab_size;
    // One backend pass over a marked and an unmarked slot, against the
    // same pass over two unmarked ones: the full last rows, bit for bit.
    let pass = |marks: [bool; 2]| {
        let mut backend = cpu(&w, Layout::Flat);
        let mut slots = [backend.new_slot(), backend.new_slot()];
        for (slot, mark) in slots.iter_mut().zip(marks) {
            slot.set_argmax_only(mark);
        }
        let [a, b] = &mut slots;
        let runs: [&[u32]; 2] = [&[5, 9, 300], &[77, 2]];
        let before = greedy_rows();
        let (rows, _) = backend.forward_mixed(&mut [a, b], &runs);
        (rows, greedy_rows() - before)
    };
    let bits =
        |rows: &[Vec<f32>]| -> Vec<u32> { rows.concat().iter().map(|x| x.to_bits()).collect() };
    let (full, none) = pass([false, false]);
    let (mixed, screened) = pass([true, false]);
    assert_eq!((none, screened), (0, 0));
    assert_eq!(bits(&mixed), bits(&full), "a mixed pass moved a logit");
    let (greedy, rows) = pass([true, true]);
    assert_eq!(rows, 2, "a marked pass scores one greedy row per run");
    for (g, f) in greedy.iter().zip(&full) {
        assert_eq!(g.len(), vocab);
        assert_eq!(argmax(g), argmax(f));
        assert_eq!(
            g[argmax(g) as usize].to_bits(),
            f[argmax(f) as usize].to_bits()
        );
    }

    // Through the scheduler, argmax and t = 0.8 requests side by side.
    let reqs = requests(&[SamplerKind::Argmax, SamplerKind::Temperature(0.8)]);
    for mode in MODES {
        for layout in LAYOUTS {
            let case = format!("mixed samplers, {layout:?} {mode:?}");
            assert_streams(&w, &reqs, &serve(cpu(&w, layout), mode, &reqs), &case);
            assert_streams(&w, &reqs, &serve(accel(&w, layout), mode, &reqs), &case);
        }
    }
}

/// A wrapper that forwards exactly what the benchmark's timing wrapper
/// forwards — the four verbs, `truncate_slot`, `slot_table_mut`,
/// `block_config`, `on_blocks_freed`, `config`, `new_slot`, `name` and
/// the slot type — and takes every other default.
struct Forwarding<B>(B);

impl<B: Backend> Backend for Forwarding<B> {
    type Slot = B::Slot;

    fn config(&self) -> ModelConfig {
        self.0.config()
    }

    fn new_slot(&self) -> Self::Slot {
        self.0.new_slot()
    }

    fn prefill(
        &mut self,
        slot: &mut Self::Slot,
        tokens: &[u32],
        start_pos: usize,
    ) -> (Vec<f32>, u64) {
        self.0.prefill(slot, tokens, start_pos)
    }

    fn decode(&mut self, slots: &mut [&mut Self::Slot], tokens: &[u32]) -> (Vec<Vec<f32>>, u64) {
        self.0.decode(slots, tokens)
    }

    fn forward_mixed(
        &mut self,
        slots: &mut [&mut Self::Slot],
        runs: &[&[u32]],
    ) -> (Vec<Vec<f32>>, u64) {
        self.0.forward_mixed(slots, runs)
    }

    fn verify(&mut self, slots: &mut [&mut Self::Slot], runs: &[&[u32]]) -> (Vec<Vec<f32>>, u64) {
        self.0.verify(slots, runs)
    }

    fn truncate_slot(slot: &mut Self::Slot, len: usize) -> Vec<BlockId> {
        B::truncate_slot(slot, len)
    }

    fn block_config(&self) -> Option<BlockConfig> {
        self.0.block_config()
    }

    fn slot_table_mut(slot: &mut Self::Slot) -> Option<&mut BlockTable> {
        B::slot_table_mut(slot)
    }

    fn on_blocks_freed(&mut self, blocks: &[BlockId]) {
        self.0.on_blocks_freed(blocks);
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[test]
fn a_verb_forwarding_wrapper_reaches_the_screen() {
    let _t = telemetry();
    let w = weights();
    let reqs = requests(&[SamplerKind::Argmax]);
    for mode in [Mode::Phase, Mode::Unified] {
        for layout in [Layout::Flat, Layout::Paged] {
            let case = format!("wrapped, {layout:?} {mode:?}");
            let before = greedy_rows();
            let done = serve(Forwarding(cpu(&w, layout)), mode, &reqs);
            assert_streams(&w, &reqs, &done, &format!("cpu {case}"));
            let mid = greedy_rows();
            assert!(mid > before, "cpu {case}: the screen was not reached");
            let done = serve(Forwarding(accel(&w, layout)), mode, &reqs);
            assert_streams(&w, &reqs, &done, &format!("accel {case}"));
            assert!(
                greedy_rows() > mid,
                "accel {case}: the screen was not reached"
            );
        }
    }
}
