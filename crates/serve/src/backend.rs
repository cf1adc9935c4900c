//! The [`Backend`] trait: what the continuous-batching scheduler needs
//! from an inference substrate, and its two implementations.
//!
//! A backend owns the model and scratch state; per-sequence context lives
//! in the backend's slot type, which the scheduler checks in and out of a
//! [`speedllm_llama::kv_cache::KvCachePool`]. Both implementations run the
//! exact same per-sequence math as their single-tenant entry points
//! (`llama::generate` / `accel::runtime::Session`), which is what the
//! batched-vs-sequential equivalence suite asserts.
//!
//! A backend can serve KV context in one of two shapes:
//!
//! * **Flat slots** — each slot owns a contiguous `[seq_len, kv_dim]`
//!   cache (the PR 3 baseline).
//! * **Paged slots** — each slot holds a [`BlockTable`] into a shared
//!   [`PagedKvArena`]; blocks are granted by the scheduler, which is what
//!   enables prefix sharing and preemptive eviction (DESIGN.md §12).
//!   Backends built with `new_paged` report their [`BlockConfig`] via
//!   [`Backend::block_config`], and the scheduler drives block-table
//!   plumbing through [`Backend::slot_table_mut`].
//!
//! Costs are reported in **virtual ticks** so serve-bench reports are
//! bit-reproducible across machines:
//!
//! * [`CpuBackend`] charges one tick per token forward. Its decode step
//!   runs the batched weight-reuse GEMM path (one layer walk, one weight
//!   stream per matrix for the whole batch — DESIGN.md §13), but the tick
//!   cost stays `n` for a batch of `n` so reports from older seeds remain
//!   byte-identical; the batching economy is a *wall-clock* effect.
//! * [`AccelBackend`] charges the simulated device cycles of the pass, so
//!   weight-stream amortization across a batch (the whole point of
//!   continuous batching on the accelerator) shows up in the report.

use speedllm_accel::engine::{Engine, SequenceState};
use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::Transformer;
use speedllm_llama::kv_cache::{KvCache, PoolSlot};
use speedllm_pagedkv::{BlockConfig, BlockId, BlockTable, PagedKvArena};

/// Inference substrate for the serving scheduler: per-sequence state is
/// externalized into `Slot` so one backend serves many interleaved
/// sequences.
pub trait Backend {
    /// Per-sequence context (KV cache and friends), poolable.
    type Slot: PoolSlot;

    /// The model architecture.
    fn config(&self) -> ModelConfig;

    /// Creates an empty slot sized for this model.
    fn new_slot(&self) -> Self::Slot;

    /// Runs one prefill chunk (1..=64 tokens) that contiguously extends
    /// `slot` starting at `start_pos`. Returns the logits after the last
    /// chunk token and the virtual-tick cost of the pass.
    fn prefill(
        &mut self,
        slot: &mut Self::Slot,
        tokens: &[u32],
        start_pos: usize,
    ) -> (Vec<f32>, u64);

    /// Runs one batched decode step: `tokens[i]` extends `slots[i]` at its
    /// current context length. Returns one logit vector per slot, in
    /// order, plus the virtual-tick cost of the whole pass.
    fn decode(&mut self, slots: &mut [&mut Self::Slot], tokens: &[u32]) -> (Vec<Vec<f32>>, u64);

    /// Runs one **mixed** tick: `runs[i]` (one or more consecutive tokens
    /// — a decode step or a prefill chunk) extends `slots[i]` at its
    /// current context length, all in a single weight-streaming pass
    /// (Sarathi-style unified batching, DESIGN.md §14). Returns the
    /// logits after the last token of each run, in order, plus the
    /// virtual-tick cost of the whole pass. Must be bit-identical to
    /// running each run alone through [`Backend::prefill`] /
    /// [`Backend::decode`].
    fn forward_mixed(
        &mut self,
        slots: &mut [&mut Self::Slot],
        runs: &[&[u32]],
    ) -> (Vec<Vec<f32>>, u64);

    /// Runs one speculative **verify** tick: like
    /// [`Backend::forward_mixed`], every run shares a single
    /// weight-streaming pass, but the logits of **every** token row are
    /// returned — entry `i` is row-major `[runs[i].len() * vocab]`. The
    /// speculative decode phase scores each sequence's pending token plus
    /// its K draft proposals in one of these ticks.
    fn verify(&mut self, slots: &mut [&mut Self::Slot], runs: &[&[u32]]) -> (Vec<Vec<f32>>, u64);

    /// Rolls `slot` back to `len` context positions, discarding rejected
    /// speculative rows. Paged slots pop the whole blocks past the keep
    /// point and return them — the scheduler releases each through its
    /// allocator (CoW-aware) and reports actual frees via
    /// [`Backend::on_blocks_freed`]. Flat slots return an empty vec.
    fn truncate_slot(slot: &mut Self::Slot, len: usize) -> Vec<BlockId>;

    /// Block geometry when this backend serves paged KV, `None` for flat
    /// slots. The scheduler switches to block-budget admission iff this
    /// returns `Some`.
    fn block_config(&self) -> Option<BlockConfig> {
        None
    }

    /// The slot's block table, for paged backends. The scheduler grants
    /// and reclaims blocks through this; flat slots return `None`.
    fn slot_table_mut(slot: &mut Self::Slot) -> Option<&mut BlockTable> {
        let _ = slot;
        None
    }

    /// Hook invoked when the scheduler returns blocks to the free list —
    /// paged backends poison the freed rows in debug builds so stale
    /// reads through a dangling table are loud.
    fn on_blocks_freed(&mut self, blocks: &[BlockId]) {
        let _ = blocks;
    }

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Per-sequence context of the [`CpuBackend`]: a flat private cache, or a
/// block table into the backend's shared paged arena.
pub enum CpuSlot {
    /// Contiguous per-sequence cache (slot-pool baseline).
    Flat(KvCache),
    /// Block-table view into the backend's [`PagedKvArena`].
    Paged(BlockTable),
}

impl PoolSlot for CpuSlot {
    fn reset_slot(&mut self) {
        match self {
            CpuSlot::Flat(kv) => kv.reset(),
            // The scheduler strips the block chain before release.
            CpuSlot::Paged(table) => table.reset(),
        }
    }

    fn slot_len(&self) -> usize {
        match self {
            CpuSlot::Flat(kv) => kv.len(),
            CpuSlot::Paged(table) => table.len(),
        }
    }

    fn poison_slot(&mut self) {
        // Paged storage is poisoned block-by-block as blocks are freed
        // (the arena owns the rows, and shared blocks may still be live).
        if let CpuSlot::Flat(kv) = self {
            kv.poison();
        }
    }
}

/// CPU reference backend: one [`Transformer`] (weights + scratch) shared
/// across all sequences via [`Transformer::forward_runs_with_kv`] and its
/// siblings.
pub struct CpuBackend {
    model: Transformer,
    arena: Option<PagedKvArena>,
}

impl CpuBackend {
    /// Wraps a transformer with flat (slot-pool) KV context.
    #[must_use]
    pub fn new(model: Transformer) -> Self {
        Self { model, arena: None }
    }

    /// Wraps a transformer with a shared paged-KV arena of `blocks`.
    #[must_use]
    pub fn new_paged(model: Transformer, blocks: BlockConfig) -> Self {
        let arena = PagedKvArena::new(model.config(), blocks);
        Self {
            model,
            arena: Some(arena),
        }
    }

    /// The underlying model.
    #[must_use]
    pub fn model(&self) -> &Transformer {
        &self.model
    }
}

impl Backend for CpuBackend {
    type Slot = CpuSlot;

    fn config(&self) -> ModelConfig {
        *self.model.config()
    }

    fn new_slot(&self) -> Self::Slot {
        match &self.arena {
            None => CpuSlot::Flat(KvCache::new(self.model.config())),
            Some(arena) => CpuSlot::Paged(BlockTable::new(arena.block_size())),
        }
    }

    /// One chunk as a single run through
    /// [`Transformer::forward_runs_with_kv`]: every weight matrix is
    /// streamed once for the whole chunk and only the last row is
    /// classified (intermediate prompt logits are never observed), which
    /// is bit-identical to the token-by-token walk (DESIGN.md §14). The
    /// virtual-tick cost stays one per token.
    fn prefill(
        &mut self,
        slot: &mut Self::Slot,
        tokens: &[u32],
        start_pos: usize,
    ) -> (Vec<f32>, u64) {
        assert!(!tokens.is_empty(), "empty chunk");
        let (counts, starts) = ([tokens.len()], [start_pos]);
        let logits = match slot {
            CpuSlot::Flat(kv) => {
                self.model
                    .forward_runs_with_kv([kv].as_mut_slice(), tokens, &counts, &starts)
            }
            CpuSlot::Paged(table) => {
                let arena = self.arena.as_mut().expect("paged slot without an arena");
                let mut batch = arena.batch_view(vec![table]);
                self.model
                    .forward_runs_with_kv(&mut batch, tokens, &counts, &starts)
            }
        };
        (logits.to_vec(), tokens.len() as u64)
    }

    /// One batched decode step through
    /// [`Transformer::forward_batch_with_kv`]: the layers are walked once
    /// and every weight matrix is streamed once for the whole batch
    /// (bit-identical to the per-sequence loop — see DESIGN.md §13). The
    /// virtual-tick cost stays `slots.len()` — the serve clock charges
    /// per-token work so reports remain byte-reproducible; the weight-reuse
    /// win shows up in wall-clock throughput (`ablation_batched_gemm`) and
    /// in the `cpu.gemm_*` telemetry counters.
    fn decode(&mut self, slots: &mut [&mut Self::Slot], tokens: &[u32]) -> (Vec<Vec<f32>>, u64) {
        assert_eq!(slots.len(), tokens.len(), "one token per sequence");
        assert!(!slots.is_empty(), "empty batch");
        let positions: Vec<usize> = slots.iter().map(|s| s.slot_len()).collect();
        let vocab = self.model.config().vocab_size;
        let logits: &[f32] = match &mut self.arena {
            None => {
                let mut kvs: Vec<&mut KvCache> = slots
                    .iter_mut()
                    .map(|s| match &mut **s {
                        CpuSlot::Flat(kv) => kv,
                        CpuSlot::Paged(_) => panic!("paged slot in a flat backend"),
                    })
                    .collect();
                self.model
                    .forward_batch_with_kv(kvs.as_mut_slice(), tokens, &positions)
            }
            Some(arena) => {
                let tables: Vec<&mut BlockTable> = slots
                    .iter_mut()
                    .map(|s| match &mut **s {
                        CpuSlot::Paged(table) => table,
                        CpuSlot::Flat(_) => panic!("flat slot in a paged backend"),
                    })
                    .collect();
                let mut batch = arena.batch_view(tables);
                self.model
                    .forward_batch_with_kv(&mut batch, tokens, &positions)
            }
        };
        let out = (0..slots.len())
            .map(|b| logits[b * vocab..(b + 1) * vocab].to_vec())
            .collect();
        (out, slots.len() as u64)
    }

    /// One mixed tick through [`Transformer::forward_runs_with_kv`]: every
    /// decode row and prefill-chunk row of the tick shares the same layer
    /// walk and weight streams. The virtual-tick cost is the total number
    /// of token rows carried — per-token, like `prefill` and `decode`, so
    /// the clock charges work actually done rather than a tick per phase.
    fn forward_mixed(
        &mut self,
        slots: &mut [&mut Self::Slot],
        runs: &[&[u32]],
    ) -> (Vec<Vec<f32>>, u64) {
        assert_eq!(slots.len(), runs.len(), "one token run per sequence");
        assert!(!slots.is_empty(), "empty batch");
        let starts: Vec<usize> = slots.iter().map(|s| s.slot_len()).collect();
        let counts: Vec<usize> = runs.iter().map(|r| r.len()).collect();
        let tokens: Vec<u32> = runs.iter().flat_map(|r| r.iter().copied()).collect();
        let rows = tokens.len() as u64;
        let vocab = self.model.config().vocab_size;
        let logits: &[f32] = match &mut self.arena {
            None => {
                let mut kvs: Vec<&mut KvCache> = slots
                    .iter_mut()
                    .map(|s| match &mut **s {
                        CpuSlot::Flat(kv) => kv,
                        CpuSlot::Paged(_) => panic!("paged slot in a flat backend"),
                    })
                    .collect();
                self.model
                    .forward_runs_with_kv(kvs.as_mut_slice(), &tokens, &counts, &starts)
            }
            Some(arena) => {
                let tables: Vec<&mut BlockTable> = slots
                    .iter_mut()
                    .map(|s| match &mut **s {
                        CpuSlot::Paged(table) => table,
                        CpuSlot::Flat(_) => panic!("flat slot in a paged backend"),
                    })
                    .collect();
                let mut batch = arena.batch_view(tables);
                self.model
                    .forward_runs_with_kv(&mut batch, &tokens, &counts, &starts)
            }
        };
        let out = (0..slots.len())
            .map(|b| logits[b * vocab..(b + 1) * vocab].to_vec())
            .collect();
        (out, rows)
    }

    /// One verify tick through
    /// [`Transformer::forward_runs_all_logits_with_kv`]: the same single
    /// weight-streaming pass as `forward_mixed`, but every row's logits
    /// come back (row-major per run) for the accept loop to score. Cost
    /// stays per-token-row, like every other CPU tick.
    fn verify(&mut self, slots: &mut [&mut Self::Slot], runs: &[&[u32]]) -> (Vec<Vec<f32>>, u64) {
        assert_eq!(slots.len(), runs.len(), "one token run per sequence");
        assert!(!slots.is_empty(), "empty batch");
        let starts: Vec<usize> = slots.iter().map(|s| s.slot_len()).collect();
        let counts: Vec<usize> = runs.iter().map(|r| r.len()).collect();
        let tokens: Vec<u32> = runs.iter().flat_map(|r| r.iter().copied()).collect();
        let rows = tokens.len() as u64;
        let vocab = self.model.config().vocab_size;
        let logits: &[f32] = match &mut self.arena {
            None => {
                let mut kvs: Vec<&mut KvCache> = slots
                    .iter_mut()
                    .map(|s| match &mut **s {
                        CpuSlot::Flat(kv) => kv,
                        CpuSlot::Paged(_) => panic!("paged slot in a flat backend"),
                    })
                    .collect();
                self.model.forward_runs_all_logits_with_kv(
                    kvs.as_mut_slice(),
                    &tokens,
                    &counts,
                    &starts,
                )
            }
            Some(arena) => {
                let tables: Vec<&mut BlockTable> = slots
                    .iter_mut()
                    .map(|s| match &mut **s {
                        CpuSlot::Paged(table) => table,
                        CpuSlot::Flat(_) => panic!("flat slot in a paged backend"),
                    })
                    .collect();
                let mut batch = arena.batch_view(tables);
                self.model
                    .forward_runs_all_logits_with_kv(&mut batch, &tokens, &counts, &starts)
            }
        };
        let mut out = Vec::with_capacity(runs.len());
        let mut row = 0usize;
        for &cnt in &counts {
            out.push(logits[row * vocab..(row + cnt) * vocab].to_vec());
            row += cnt;
        }
        (out, rows)
    }

    fn truncate_slot(slot: &mut Self::Slot, len: usize) -> Vec<BlockId> {
        match slot {
            CpuSlot::Flat(kv) => {
                kv.truncate(len);
                Vec::new()
            }
            CpuSlot::Paged(table) => table.rollback(len),
        }
    }

    fn block_config(&self) -> Option<BlockConfig> {
        self.arena.as_ref().map(PagedKvArena::block_config)
    }

    fn slot_table_mut(slot: &mut Self::Slot) -> Option<&mut BlockTable> {
        match slot {
            CpuSlot::Flat(_) => None,
            CpuSlot::Paged(table) => Some(table),
        }
    }

    fn on_blocks_freed(&mut self, blocks: &[BlockId]) {
        if cfg!(debug_assertions) {
            if let Some(arena) = &mut self.arena {
                arena.poison_blocks(blocks);
            }
        }
    }

    fn name(&self) -> &'static str {
        "cpu"
    }
}

/// Accelerator-simulation backend: one [`Engine`] shared across sequences
/// via [`Engine::prefill_chunk_seq`] and [`Engine::decode_batch`]. Costs
/// are the simulated device cycles, so batching amortizes weight streams
/// exactly as the device would.
pub struct AccelBackend {
    engine: Engine,
}

impl AccelBackend {
    /// Wraps an engine with flat (slot-pool) KV context.
    #[must_use]
    pub fn new(engine: Engine) -> Self {
        Self { engine }
    }

    /// Wraps an engine and switches it to a shared paged-KV arena of
    /// `blocks`.
    #[must_use]
    pub fn new_paged(mut engine: Engine, blocks: BlockConfig) -> Self {
        engine.enable_paged_kv(blocks);
        Self { engine }
    }

    /// The underlying engine.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl Backend for AccelBackend {
    type Slot = SequenceState;

    fn config(&self) -> ModelConfig {
        self.engine.graph().config
    }

    fn new_slot(&self) -> Self::Slot {
        self.engine.new_sequence()
    }

    fn prefill(
        &mut self,
        slot: &mut Self::Slot,
        tokens: &[u32],
        start_pos: usize,
    ) -> (Vec<f32>, u64) {
        let step = self.engine.prefill_chunk_seq(slot, tokens, start_pos);
        (step.logits, step.cycles.0)
    }

    fn decode(&mut self, slots: &mut [&mut Self::Slot], tokens: &[u32]) -> (Vec<Vec<f32>>, u64) {
        let (logits, step) = self.engine.decode_batch(slots, tokens);
        (logits, step.cycles.0)
    }

    fn forward_mixed(
        &mut self,
        slots: &mut [&mut Self::Slot],
        runs: &[&[u32]],
    ) -> (Vec<Vec<f32>>, u64) {
        let (logits, step) = self.engine.forward_mixed(slots, runs);
        (logits, step.cycles.0)
    }

    /// One verify tick through [`Engine::verify_batch`]: the cost is the
    /// simulated cycles of the single mixed device pass, so the ~K×
    /// weight-traffic cut per accepted run shows up directly in the
    /// report's tick totals.
    fn verify(&mut self, slots: &mut [&mut Self::Slot], runs: &[&[u32]]) -> (Vec<Vec<f32>>, u64) {
        let (logits, step) = self.engine.verify_batch(slots, runs);
        (logits, step.cycles.0)
    }

    fn truncate_slot(slot: &mut Self::Slot, len: usize) -> Vec<BlockId> {
        slot.truncate(len)
    }

    fn block_config(&self) -> Option<BlockConfig> {
        self.engine.paged_block_config()
    }

    fn slot_table_mut(slot: &mut Self::Slot) -> Option<&mut BlockTable> {
        slot.block_table_mut()
    }

    fn on_blocks_freed(&mut self, blocks: &[BlockId]) {
        if cfg!(debug_assertions) {
            self.engine.poison_blocks(blocks);
        }
    }

    fn name(&self) -> &'static str {
        "accel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedllm_accel::opt::OptConfig;
    use speedllm_llama::weights::TransformerWeights;
    use speedllm_pagedkv::BlockAllocator;
    use std::sync::Arc;

    fn weights() -> TransformerWeights {
        TransformerWeights::synthetic(ModelConfig::test_tiny(), 42)
    }

    #[test]
    fn cpu_backend_matches_single_tenant_forward() {
        let mut backend = CpuBackend::new(Transformer::new(weights()));
        let mut oracle = Transformer::new(weights());
        let mut slot = backend.new_slot();
        let (chunk_logits, cost) = backend.prefill(&mut slot, &[1, 5, 9], 0);
        assert_eq!(cost, 3);
        let mut want = Vec::new();
        for (pos, &t) in [1u32, 5, 9].iter().enumerate() {
            want = oracle.forward(t, pos).to_vec();
        }
        assert_eq!(chunk_logits, want, "prefill diverged from single-tenant");

        let mut refs = [&mut slot];
        let (dec, cost) = backend.decode(&mut refs, &[7]);
        assert_eq!(cost, 1);
        assert_eq!(dec[0], oracle.forward(7, 3).to_vec());
    }

    #[test]
    fn paged_cpu_backend_matches_flat_cpu_backend() {
        let mut flat = CpuBackend::new(Transformer::new(weights()));
        let bc = BlockConfig {
            block_size: 4,
            n_blocks: 8,
        };
        let mut paged = CpuBackend::new_paged(Transformer::new(weights()), bc);
        assert_eq!(paged.block_config(), Some(bc));
        assert!(flat.block_config().is_none());

        let mut alloc = BlockAllocator::new(bc);
        let mut fs = flat.new_slot();
        let mut ps = paged.new_slot();
        let table = CpuBackend::slot_table_mut(&mut ps).expect("paged slot");
        for _ in 0..2 {
            table.push_block(alloc.alloc().unwrap());
        }
        let (lf, _) = flat.prefill(&mut fs, &[3, 9, 14, 27, 5], 0);
        let (lp, _) = paged.prefill(&mut ps, &[3, 9, 14, 27, 5], 0);
        assert_eq!(lp, lf, "block indirection changed CPU math");

        let mut fr = [&mut fs];
        let mut pr = [&mut ps];
        let (df, _) = flat.decode(&mut fr, &[8]);
        let (dp, _) = paged.decode(&mut pr, &[8]);
        assert_eq!(dp, df);
    }

    #[test]
    fn accel_backend_matches_cpu_backend() {
        let mut cpu = CpuBackend::new(Transformer::new(weights()));
        let engine = Engine::new(Arc::new(weights()), OptConfig::full()).unwrap();
        let mut acc = AccelBackend::new(engine);
        let mut cs = cpu.new_slot();
        let mut as_ = acc.new_slot();
        let (lc, _) = cpu.prefill(&mut cs, &[3, 9, 14], 0);
        let (la, _) = acc.prefill(&mut as_, &[3, 9, 14], 0);
        let d = lc
            .iter()
            .zip(&la)
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
        assert!(d < 1e-4, "backends diverged by {d}");
    }

    #[test]
    fn cpu_mixed_tick_matches_separate_phases_bit_exactly() {
        // One tick carrying a decode row + a 3-token prefill chunk must
        // equal prefill-then-decode run separately, and cost the total
        // token rows carried.
        let mut mixed = CpuBackend::new(Transformer::new(weights()));
        let mut oracle = CpuBackend::new(Transformer::new(weights()));

        // Warm sequence: 2-token context in both backends.
        let mut warm_m = mixed.new_slot();
        let mut warm_o = oracle.new_slot();
        mixed.prefill(&mut warm_m, &[4, 11], 0);
        oracle.prefill(&mut warm_o, &[4, 11], 0);
        // Cold sequence starts empty.
        let mut cold_m = mixed.new_slot();
        let mut cold_o = oracle.new_slot();

        let mut slots = [&mut warm_m, &mut cold_m];
        let runs: [&[u32]; 2] = [&[7], &[3, 9, 14]];
        let (got, cost) = mixed.forward_mixed(&mut slots, &runs);
        assert_eq!(cost, 4, "mixed tick must cost the rows it carried");

        let mut one = [&mut warm_o];
        let (dec, _) = oracle.decode(&mut one, &[7]);
        let (pre, _) = oracle.prefill(&mut cold_o, &[3, 9, 14], 0);
        assert_eq!(got[0], dec[0], "decode member diverged in mixed tick");
        assert_eq!(got[1], pre, "prefill member diverged in mixed tick");
        assert_eq!(warm_m.slot_len(), 3);
        assert_eq!(cold_m.slot_len(), 3);
    }

    #[test]
    fn accel_mixed_tick_matches_separate_phases_bit_exactly() {
        let make = || {
            let engine = Engine::new(Arc::new(weights()), OptConfig::full()).unwrap();
            AccelBackend::new(engine)
        };
        let mut mixed = make();
        let mut oracle = make();

        let mut warm_m = mixed.new_slot();
        let mut warm_o = oracle.new_slot();
        mixed.prefill(&mut warm_m, &[4, 11], 0);
        oracle.prefill(&mut warm_o, &[4, 11], 0);
        let mut cold_m = mixed.new_slot();
        let mut cold_o = oracle.new_slot();

        let mut slots = [&mut warm_m, &mut cold_m];
        let runs: [&[u32]; 2] = [&[7], &[3, 9, 14]];
        let (got, cost) = mixed.forward_mixed(&mut slots, &runs);
        assert!(cost > 0, "device pass must cost cycles");

        let mut one = [&mut warm_o];
        let (dec, _) = oracle.decode(&mut one, &[7]);
        let (pre, _) = oracle.prefill(&mut cold_o, &[3, 9, 14], 0);
        assert_eq!(got[0], dec[0], "decode member diverged in mixed tick");
        assert_eq!(got[1], pre, "prefill member diverged in mixed tick");
    }

    #[test]
    fn accel_decode_cost_is_sublinear_in_batch() {
        let engine = Engine::new(Arc::new(weights()), OptConfig::full()).unwrap();
        let mut acc = AccelBackend::new(engine);
        let mut one = acc.new_slot();
        let mut refs = [&mut one];
        let (_, c1) = acc.decode(&mut refs, &[5]);
        let mut slots: Vec<SequenceState> = (0..4).map(|_| acc.new_slot()).collect();
        let mut refs: Vec<&mut SequenceState> = slots.iter_mut().collect();
        let (_, c4) = acc.decode(&mut refs, &[5, 6, 7, 8]);
        assert!(c4 < 4 * c1, "batching must amortize: 1->{c1}, 4->{c4}");
    }
}
