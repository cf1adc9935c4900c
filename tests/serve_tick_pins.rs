//! Pinned behaviour of one `ServeEngine` tick, cell by cell.
//!
//! One fixed seeded bursty workload (mixed prompt lengths over a shared
//! prefix, budgets from zero up, EOS stopping on) runs through the grid
//! {cpu, accel} × {flat, paged under a tight block budget} × {phase-
//! serialized at `max_batch` 1 and 3, unified at `token_budget` 8, 2 and
//! 1, speculation K = 3 at `max_batch` 2} × {argmax, temperature 0.8}.
//! Budget 2 is the cell that defers decode rows every tick; at budget 1
//! decode always wins the split, so sequences serialize and nothing is
//! ever parked. Seed 39 draws a zero-budget request, EOS stops under
//! temperature sampling, and a request that runs into the context
//! window. Each
//! cell is reduced to one FNV-1a digest over everything a tick can
//! change: every `Completion` field, the `ServeStats` counters, the
//! lifecycle event JSONL and the per-tick CSV.
//!
//! The constants were captured through the three hand-written schedulers
//! (`prefill_phase`/`decode_phase`, `spec_decode_phase`, `unified_tick`)
//! that the one tick planner replaced, and are the reference that
//! outlives them: a scheduler change that moves a tick, a counter, an
//! event or a token in any cell shows up here as a digest mismatch.
//! Token streams are schedule-independent, so all forty-eight cells must also
//! agree on one stream digest per sampler.

use std::collections::VecDeque;
use std::sync::Arc;

use speedllm::accel::engine::Engine;
use speedllm::accel::opt::OptConfig;
use speedllm::llama::config::ModelConfig;
use speedllm::llama::forward::Transformer;
use speedllm::llama::sampler::SamplerKind;
use speedllm::llama::weights::TransformerWeights;
use speedllm::pagedkv::BlockConfig;
use speedllm::serve::{
    AccelBackend, ArrivalMode, Backend, Completion, CpuBackend, LoadGen, LoadGenConfig, Request,
    ServeConfig, ServeEngine, ServeRecorder, TrafficSource, UnifiedConfig,
};

/// Ten blocks of four tokens: one full 32-token context needs eight, so
/// four slots fight for blocks — every paged cell must preempt and must
/// evict cached prefix blocks.
const TIGHT_BLOCKS: BlockConfig = BlockConfig {
    block_size: 4,
    n_blocks: 10,
};

#[derive(Clone, Copy, Debug)]
enum Mode {
    /// Phase-serialized prefill-then-decode at this `max_batch`.
    Phased(usize),
    /// Unified mixed ticks at this `token_budget` (`prefill_pct` 50).
    Unified(usize),
    /// Speculation depth K at `max_batch` 2.
    Spec(usize),
}

const MODES: [Mode; 6] = [
    Mode::Phased(1),
    Mode::Phased(3),
    Mode::Unified(8),
    Mode::Unified(2),
    Mode::Unified(1),
    Mode::Spec(3),
];

const SAMPLERS: [SamplerKind; 2] = [SamplerKind::Argmax, SamplerKind::Temperature(0.8)];

fn weights() -> TransformerWeights {
    TransformerWeights::synthetic(ModelConfig::test_tiny(), 42)
}

fn workload(sampler: SamplerKind) -> LoadGenConfig {
    let cfg = ModelConfig::test_tiny();
    LoadGenConfig {
        n_requests: 14,
        mode: ArrivalMode::Bursty {
            burst_size: 5,
            burst_gap: 24,
        },
        prompt_len: (6, 13),
        shared_prefix_len: 4,
        max_new_tokens: (0, 19),
        sampler,
        stop_at_eos: true,
        vocab_size: cfg.vocab_size,
        seq_len: cfg.seq_len,
        seed: 39,
    }
}

fn serve_cfg(mode: Mode) -> ServeConfig {
    ServeConfig {
        slots: 4,
        max_batch: match mode {
            Mode::Phased(b) => b,
            Mode::Unified(_) => 8,
            Mode::Spec(_) => 2,
        },
        prefill_chunk: 4,
        queue_cap: 64,
        unified: match mode {
            Mode::Unified(token_budget) => Some(UnifiedConfig {
                token_budget,
                prefill_pct: 50,
            }),
            _ => None,
        },
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// What one cell reduces to.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Pin {
    /// `(id, tokens)` sorted by id — schedule-independent.
    streams: u64,
    /// Completions (every field, finish order), stats, events, ticks.
    full: u64,
}

fn pin<B: Backend>(engine: &mut ServeEngine<B>, completions: &[Completion]) -> Pin {
    let mut by_id: Vec<(u64, &[u32])> = completions
        .iter()
        .map(|c| (c.id, c.tokens.as_slice()))
        .collect();
    by_id.sort_unstable();
    let streams = fnv1a(FNV_OFFSET, format!("{by_id:?}").as_bytes());
    let rec = engine.take_recorder().expect("recorder was attached");
    assert_eq!(rec.events.dropped(), 0, "event log overflowed");
    let mut full = fnv1a(FNV_OFFSET, format!("{completions:?}").as_bytes());
    full = fnv1a(full, format!("{:?}", engine.stats()).as_bytes());
    full = fnv1a(full, rec.events.to_jsonl().as_bytes());
    full = fnv1a(full, rec.ticks.to_csv().as_bytes());
    Pin { streams, full }
}

/// The [`LoadGen`] schedule with its first burst moved to tick 0. The
/// engine's clock can only be advanced from inside, so the step-by-step
/// driver below cannot replay `run_with_source`'s idle jump; starting at
/// tick 0 (and never draining between bursts) means neither driver needs
/// one and both see the same arrivals.
struct Script(VecDeque<Request>);

impl Script {
    fn new(cfg: &LoadGenConfig) -> Self {
        let mut reqs = LoadGen::new(cfg).poll(u64::MAX, 0, usize::MAX);
        let first = reqs[0].arrival;
        for r in &mut reqs {
            r.arrival -= first;
        }
        Self(reqs.into())
    }
}

impl TrafficSource for Script {
    fn poll(&mut self, now: u64, _outstanding: usize, room: usize) -> Vec<Request> {
        let mut due = Vec::new();
        while due.len() < room && self.0.front().is_some_and(|r| r.arrival <= now) {
            due.extend(self.0.pop_front());
        }
        due
    }

    fn next_arrival(&self, _outstanding: usize) -> Option<u64> {
        self.0.front().map(|r| r.arrival)
    }

    fn is_exhausted(&self) -> bool {
        self.0.is_empty()
    }
}

/// `run_with_source`, step by step, so the paged bookkeeping can be
/// checked after every single `step()`. The queue (cap 64) never fills
/// with 14 requests, so `room` is always the whole cap.
fn run_checked<B: Backend>(engine: &mut ServeEngine<B>, source: &mut Script) -> Vec<Completion> {
    let mut completions = Vec::new();
    loop {
        let room = engine.config().queue_cap;
        for req in source.poll(engine.now(), engine.outstanding(), room) {
            engine.submit(req).expect("the queue never fills");
        }
        if engine.is_idle() {
            assert!(source.is_exhausted(), "engine drained between bursts");
            return completions;
        }
        completions.extend(engine.step());
        engine
            .check_paged_invariants()
            .unwrap_or_else(|e| panic!("paged invariants broken at tick {}: {e}", engine.now()));
    }
}

fn run_cell<B: Backend>(make: impl Fn() -> ServeEngine<B>, sampler: SamplerKind) -> Pin {
    let lcfg = workload(sampler);
    let mut engine = make();
    engine.attach_recorder(ServeRecorder::new());
    let completions = engine.run_with_source(&mut Script::new(&lcfg));
    assert_eq!(completions.len(), lcfg.n_requests);
    assert!(engine.is_idle() && engine.all_slots_free());
    assert_eq!(
        engine.blocks_in_use(),
        engine.blocks_cached(),
        "blocks leaked at drain"
    );
    if engine.backend().block_config().is_some() {
        let s = engine.stats();
        assert!(s.preemptions > 0, "block budget not tight: no preemption");
        assert!(
            s.cache_evicted_blocks > 0,
            "block budget not tight: no cache eviction"
        );
    }
    if engine.config().unified.is_some_and(|u| u.token_budget == 2) {
        let parked = engine.stats().deferred_decodes;
        assert!(parked > 0, "budget 2 must park decode rows");
    }
    let first = pin(&mut engine, &completions);

    // The same cell once more, invariants checked after every step; it
    // must land on the same digest (run-to-run determinism).
    let mut engine = make();
    engine.attach_recorder(ServeRecorder::new());
    let completions = run_checked(&mut engine, &mut Script::new(&lcfg));
    assert_eq!(pin(&mut engine, &completions), first, "second run diverged");
    first
}

fn draft() -> Transformer {
    Transformer::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 9))
}

fn with_mode<B: Backend>(backend: B, mode: Mode) -> ServeEngine<B> {
    let mut engine = ServeEngine::new(backend, serve_cfg(mode));
    if let Mode::Spec(k) = mode {
        engine
            .enable_speculative(draft(), k)
            .expect("valid draft and depth");
    }
    engine
}

/// One backend's twenty-four cells in table order: KV layout, then mode,
/// then sampler.
fn cells_of<B: Backend>(name: &str, backend: impl Fn(bool) -> B, out: &mut Vec<(String, Pin)>) {
    for paged in [false, true] {
        for mode in MODES {
            for sampler in SAMPLERS {
                let layout = if paged { "paged" } else { "flat" };
                let pin = run_cell(|| with_mode(backend(paged), mode), sampler);
                out.push((format!("{name} {layout} {mode:?} {sampler:?}"), pin));
            }
        }
    }
}

/// All forty-eight cells: the CPU backend's, then the accelerator's.
fn all_cells() -> Vec<(String, Pin)> {
    let mut out = Vec::new();
    let cpu = |paged| {
        let model = Transformer::new(weights());
        if paged {
            CpuBackend::new_paged(model, TIGHT_BLOCKS)
        } else {
            CpuBackend::new(model)
        }
    };
    cells_of("cpu", cpu, &mut out);
    let accel = |paged| {
        let engine = Engine::new(Arc::new(weights()), OptConfig::full()).unwrap();
        if paged {
            AccelBackend::new_paged(engine, TIGHT_BLOCKS)
        } else {
            AccelBackend::new(engine)
        }
    };
    cells_of("accel", accel, &mut out);
    out
}

/// Stream digests per sampler (argmax, temperature): one value for all
/// twenty-four cells of a sampler, whatever the backend, layout or scheduler.
const STREAMS: [u64; 2] = [0x45e51b32ceb22083, 0x9324e8d9c048db74];

/// Full digests in `all_cells` order.
const FULL: [u64; 48] = [
    0x9f2aa7ea4023ba32, // cpu flat Phased(1) Argmax
    0x935ffb393b2f1821, // cpu flat Phased(1) Temperature(0.8)
    0xa09f5290bd1479bf, // cpu flat Phased(3) Argmax
    0xfb4677bf8df3c751, // cpu flat Phased(3) Temperature(0.8)
    0x068f4dc007c7f528, // cpu flat Unified(8) Argmax
    0xad51a5372383b98b, // cpu flat Unified(8) Temperature(0.8)
    0xcc1b45312f79c063, // cpu flat Unified(2) Argmax
    0x90d0ab107756849d, // cpu flat Unified(2) Temperature(0.8)
    0xa320195e22115e19, // cpu flat Unified(1) Argmax
    0x7abd762665f94421, // cpu flat Unified(1) Temperature(0.8)
    0x1d4227a08f377465, // cpu flat Spec(3) Argmax
    0x16927e9f40d0b967, // cpu flat Spec(3) Temperature(0.8)
    0x1ce5b3c2c54a1a03, // cpu paged Phased(1) Argmax
    0x7525cdd03473c784, // cpu paged Phased(1) Temperature(0.8)
    0xfae12ef3ee5d7cc3, // cpu paged Phased(3) Argmax
    0x91f7132fdb6288e3, // cpu paged Phased(3) Temperature(0.8)
    0x95adc24516face9b, // cpu paged Unified(8) Argmax
    0x268e64716c195111, // cpu paged Unified(8) Temperature(0.8)
    0x6d3387c701777012, // cpu paged Unified(2) Argmax
    0xcd62d535664e22f5, // cpu paged Unified(2) Temperature(0.8)
    0x7d82f9a76e7ce699, // cpu paged Unified(1) Argmax
    0x9252a00ce88e4408, // cpu paged Unified(1) Temperature(0.8)
    0x792c71a0ac8d16a6, // cpu paged Spec(3) Argmax
    0xda1c9b0011061a15, // cpu paged Spec(3) Temperature(0.8)
    0xf4a302745cb596eb, // accel flat Phased(1) Argmax
    0x435535cfe5b673ac, // accel flat Phased(1) Temperature(0.8)
    0xc12d7e164eee585c, // accel flat Phased(3) Argmax
    0x18f607ada660434a, // accel flat Phased(3) Temperature(0.8)
    0xeb35a908b0e9c9e4, // accel flat Unified(8) Argmax
    0x3d3926004de79daf, // accel flat Unified(8) Temperature(0.8)
    0x2673e994d6ad1383, // accel flat Unified(2) Argmax
    0x0d6fb38b6e7d2b4f, // accel flat Unified(2) Temperature(0.8)
    0x05454381ab4ca66f, // accel flat Unified(1) Argmax
    0x127bca7eb1935436, // accel flat Unified(1) Temperature(0.8)
    0xa7c961d1599fa141, // accel flat Spec(3) Argmax
    0x8757fa3728fa9f06, // accel flat Spec(3) Temperature(0.8)
    0x605a69f7bc8995a8, // accel paged Phased(1) Argmax
    0x36a40c22114c397b, // accel paged Phased(1) Temperature(0.8)
    0xc19eb599cde95f5f, // accel paged Phased(3) Argmax
    0x10c177f40f395587, // accel paged Phased(3) Temperature(0.8)
    0x6af4783c04b8549c, // accel paged Unified(8) Argmax
    0x9ea1d3065beb808d, // accel paged Unified(8) Temperature(0.8)
    0xf7bd991802fda382, // accel paged Unified(2) Argmax
    0xaebc4a42477f5eca, // accel paged Unified(2) Temperature(0.8)
    0x7666a96fcf04c894, // accel paged Unified(1) Argmax
    0xd5c9416088337492, // accel paged Unified(1) Temperature(0.8)
    0x7bd02b66e8efb087, // accel paged Spec(3) Argmax
    0x1d78eec1d59033bc, // accel paged Spec(3) Temperature(0.8)
];

#[test]
fn every_cell_matches_its_pinned_digest() {
    let mut moved = 0;
    let mut table = String::new();
    for (i, (label, pin)) in all_cells().iter().enumerate() {
        let what = match (pin.streams == STREAMS[i % 2], pin.full == FULL[i]) {
            (true, true) => "",
            (true, false) => " <- moved",
            (false, _) => " <- TOKENS moved",
        };
        moved += usize::from(!what.is_empty());
        table += &format!("    {:#018x}, // {label}{what}\n", pin.full);
    }
    assert!(moved == 0, "{moved} pinned cells moved:\n{table}");
}
