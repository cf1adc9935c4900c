//! The [`Backend`] trait: what the continuous-batching scheduler needs
//! from an inference substrate, and its two implementations.
//!
//! A backend owns the model and scratch state; per-sequence context lives
//! in the backend's slot type, which the scheduler checks in and out of a
//! [`speedllm_llama::kv_cache::KvCachePool`].
//!
//! Both backends' slot is [`SeqKv`] and their storage one [`KvSpace`]
//! (DESIGN.md §12): a flat space gives every slot a private contiguous
//! cache; a paged one (`new_paged`) gives it a [`BlockTable`] into one
//! shared arena, whose blocks the scheduler grants — which is what enables
//! prefix sharing and preemptive eviction. Paged backends report their
//! [`BlockConfig`] via [`Backend::block_config`], and the scheduler drives
//! block-table plumbing through [`Backend::slot_table_mut`].
//!
//! Costs are reported in **virtual ticks** so serve-bench reports are
//! bit-reproducible across machines:
//!
//! * [`CpuBackend`] charges one tick per token row, whatever the verb and
//!   however many rows share the pass — the weight-reuse economy of a wide
//!   pass is a *wall-clock* effect (and shows in the `cpu.gemm_*`
//!   telemetry), so reports from older seeds stay byte-identical.
//! * [`AccelBackend`] charges the simulated device cycles of the pass, so
//!   weight-stream amortization across its rows (the whole point of
//!   continuous batching on the accelerator) shows up in the report.

use speedllm_accel::engine::Engine;
use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::{LogitRows, Transformer};
use speedllm_llama::kv_cache::PoolSlot;
use speedllm_pagedkv::{BlockConfig, BlockId, BlockTable, KvSpace, SeqKv};

/// Inference substrate for the serving scheduler: per-sequence state is
/// externalized into `Slot` so one backend serves many interleaved
/// sequences.
///
/// The four forward verbs are run shapes of one pass (DESIGN.md §13):
/// every slot is extended at its current context length by a run of one
/// or more consecutive tokens, all runs share a single weight-streaming
/// pass, and the logits are bit-identical however the same tokens are cut
/// into runs and ticks — down to the single-tenant one-token-at-a-time
/// entry points (`llama::generate` / `accel::runtime::Session`), which is
/// what the equivalence suites assert. Each returns the virtual-tick cost
/// of its pass.
pub trait Backend {
    /// Per-sequence context (KV cache and friends), poolable.
    type Slot: PoolSlot;

    /// The model architecture.
    fn config(&self) -> ModelConfig;

    /// Creates an empty slot sized for this model.
    fn new_slot(&self) -> Self::Slot;

    /// One prefill chunk (1..=64 tokens) extending `slot`, whose context
    /// length must be `start_pos`. Returns the logits after its last token.
    fn prefill(
        &mut self,
        slot: &mut Self::Slot,
        tokens: &[u32],
        start_pos: usize,
    ) -> (Vec<f32>, u64);

    /// One decode tick: `tokens[i]` extends `slots[i]`. Returns one logit
    /// vector per slot, in order.
    fn decode(&mut self, slots: &mut [&mut Self::Slot], tokens: &[u32]) -> (Vec<Vec<f32>>, u64);

    /// One **mixed** tick (Sarathi-style unified batching, DESIGN.md §14):
    /// `runs[i]` — a decode step or a prefill chunk — extends `slots[i]`.
    /// Returns the logits after the last token of each run, in order.
    fn forward_mixed(
        &mut self,
        slots: &mut [&mut Self::Slot],
        runs: &[&[u32]],
    ) -> (Vec<Vec<f32>>, u64);

    /// One speculative **verify** tick: a mixed tick that returns the
    /// logits of **every** token row — entry `i` is row-major
    /// `[runs[i].len() * vocab]`, a sequence's pending token plus its K
    /// draft proposals scored at once.
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

/// CPU reference backend: one [`Transformer`] (scratch, and an `Arc` of the
/// resident weights — replicas built with [`Transformer::with_weights`]
/// share one copy) serving all sequences via [`Transformer::forward_runs`].
pub struct CpuBackend {
    model: Transformer,
    kv: KvSpace,
}

impl CpuBackend {
    /// Wraps a transformer with flat (slot-pool) KV context.
    #[must_use]
    pub fn new(model: Transformer) -> Self {
        let kv = KvSpace::new(model.config(), None);
        Self { model, kv }
    }

    /// Wraps a transformer with a shared paged-KV arena of `blocks`.
    #[must_use]
    pub fn new_paged(model: Transformer, blocks: BlockConfig) -> Self {
        let kv = KvSpace::new(model.config(), Some(blocks));
        Self { model, kv }
    }

    /// Every verb's body: one [`Transformer::forward_runs`] call over all
    /// the runs. Returns one entry per slot — the [`LogitRows`] it asked
    /// for, row-major — and one tick per token row.
    fn run(
        &mut self,
        slots: &mut [&mut SeqKv],
        runs: &[&[u32]],
        logit_rows: LogitRows,
    ) -> (Vec<Vec<f32>>, u64) {
        let starts: Vec<usize> = slots.iter().map(|s| s.len()).collect();
        let counts: Vec<usize> = runs.iter().map(|r| r.len()).collect();
        let tokens = runs.concat();
        let vocab = self.model.config().vocab_size;
        let mut kv = self.kv.batch(slots);
        let logits = self
            .model
            .forward_runs(&mut kv, &tokens, &counts, &starts, logit_rows);
        (
            logit_rows.split(logits, &counts, vocab),
            tokens.len() as u64,
        )
    }
}

impl Backend for CpuBackend {
    type Slot = SeqKv;

    fn config(&self) -> ModelConfig {
        *self.model.config()
    }

    fn new_slot(&self) -> Self::Slot {
        self.kv.new_seq()
    }

    fn prefill(
        &mut self,
        slot: &mut Self::Slot,
        tokens: &[u32],
        start_pos: usize,
    ) -> (Vec<f32>, u64) {
        assert_eq!(
            slot.len(),
            start_pos,
            "chunk must extend the sequence contiguously"
        );
        let (mut logits, cost) = self.run(&mut [slot], &[tokens], LogitRows::Last);
        (logits.pop().expect("one run in, one logits row out"), cost)
    }

    fn decode(&mut self, slots: &mut [&mut Self::Slot], tokens: &[u32]) -> (Vec<Vec<f32>>, u64) {
        let runs: Vec<&[u32]> = tokens.iter().map(std::slice::from_ref).collect();
        self.run(slots, &runs, LogitRows::Last)
    }

    fn forward_mixed(
        &mut self,
        slots: &mut [&mut Self::Slot],
        runs: &[&[u32]],
    ) -> (Vec<Vec<f32>>, u64) {
        self.run(slots, runs, LogitRows::Last)
    }

    fn verify(&mut self, slots: &mut [&mut Self::Slot], runs: &[&[u32]]) -> (Vec<Vec<f32>>, u64) {
        self.run(slots, runs, LogitRows::All)
    }

    fn truncate_slot(slot: &mut Self::Slot, len: usize) -> Vec<BlockId> {
        slot.truncate(len)
    }

    fn block_config(&self) -> Option<BlockConfig> {
        self.kv.block_config()
    }

    fn slot_table_mut(slot: &mut Self::Slot) -> Option<&mut BlockTable> {
        slot.table_mut()
    }

    fn on_blocks_freed(&mut self, blocks: &[BlockId]) {
        self.kv.on_blocks_freed(blocks);
    }

    fn name(&self) -> &'static str {
        "cpu"
    }
}

/// Accelerator-simulation backend: one [`Engine`] shared across sequences
/// via [`Engine::forward_runs`]. Costs are the simulated device cycles of
/// the pass, so batching amortizes weight streams exactly as the device
/// would — a verify tick's ~K× weight-traffic cut per accepted run shows
/// up directly in the report's tick totals.
pub struct AccelBackend {
    engine: Engine,
}

impl AccelBackend {
    /// Wraps an engine with flat (slot-pool) KV context.
    #[must_use]
    pub fn new(engine: Engine) -> Self {
        Self { engine }
    }

    /// Wraps an engine and switches its serving sequences to a shared
    /// paged-KV arena of `blocks`.
    #[must_use]
    pub fn new_paged(mut engine: Engine, blocks: BlockConfig) -> Self {
        *engine.kv_space_mut() = KvSpace::new(&engine.graph().config, Some(blocks));
        Self { engine }
    }
}

impl Backend for AccelBackend {
    type Slot = SeqKv;

    fn config(&self) -> ModelConfig {
        self.engine.graph().config
    }

    fn new_slot(&self) -> Self::Slot {
        self.engine.kv_space().new_seq()
    }

    fn prefill(
        &mut self,
        slot: &mut Self::Slot,
        tokens: &[u32],
        start_pos: usize,
    ) -> (Vec<f32>, u64) {
        assert_eq!(
            slot.len(),
            start_pos,
            "chunk must extend the sequence contiguously"
        );
        let (_, step) = self
            .engine
            .forward_runs(&mut [slot], &[tokens], LogitRows::Last);
        (step.logits, step.cycles.0)
    }

    fn decode(&mut self, slots: &mut [&mut Self::Slot], tokens: &[u32]) -> (Vec<Vec<f32>>, u64) {
        let runs: Vec<&[u32]> = tokens.iter().map(std::slice::from_ref).collect();
        let (logits, step) = self.engine.forward_runs(slots, &runs, LogitRows::Last);
        (logits, step.cycles.0)
    }

    fn forward_mixed(
        &mut self,
        slots: &mut [&mut Self::Slot],
        runs: &[&[u32]],
    ) -> (Vec<Vec<f32>>, u64) {
        let (logits, step) = self.engine.forward_runs(slots, runs, LogitRows::Last);
        (logits, step.cycles.0)
    }

    fn verify(&mut self, slots: &mut [&mut Self::Slot], runs: &[&[u32]]) -> (Vec<Vec<f32>>, u64) {
        let (logits, step) = self.engine.forward_runs(slots, runs, LogitRows::All);
        (logits, step.cycles.0)
    }

    fn truncate_slot(slot: &mut Self::Slot, len: usize) -> Vec<BlockId> {
        slot.truncate(len)
    }

    fn block_config(&self) -> Option<BlockConfig> {
        self.engine.kv_space().block_config()
    }

    fn slot_table_mut(slot: &mut Self::Slot) -> Option<&mut BlockTable> {
        slot.table_mut()
    }

    fn on_blocks_freed(&mut self, blocks: &[BlockId]) {
        self.engine.kv_space_mut().on_blocks_freed(blocks);
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
        // Both backends over the one resident copy of the weights.
        let model = Transformer::new(weights());
        let engine = Engine::new(Arc::clone(model.weights()), OptConfig::full()).unwrap();
        assert!(Arc::ptr_eq(model.weights(), engine.weights()));
        let mut cpu = CpuBackend::new(model);
        let mut acc = AccelBackend::new(engine);
        let mut cs = cpu.new_slot();
        let mut as_ = acc.new_slot();
        let (lc, _) = cpu.prefill(&mut cs, &[3, 9, 14], 0);
        let (la, _) = acc.prefill(&mut as_, &[3, 9, 14], 0);
        assert_eq!(lc, la, "backends diverged");
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
        let mut slots: Vec<SeqKv> = (0..4).map(|_| acc.new_slot()).collect();
        let mut refs: Vec<&mut SeqKv> = slots.iter_mut().collect();
        let (_, c4) = acc.decode(&mut refs, &[5, 6, 7, 8]);
        assert!(c4 < 4 * c1, "batching must amortize: 1->{c1}, 4->{c4}");
    }

    /// A pass mixing a flat and a paged slot panics with
    /// `KvSpace::batch`'s one message, whichever backend runs it.
    #[test]
    fn a_mixed_flat_and_paged_pass_panics_on_both_backends() {
        fn mixed_decode_panic<B: Backend>(flat: &B, mut paged: B) -> String {
            let bc = paged.block_config().expect("a paged backend");
            let mut alloc = BlockAllocator::new(bc);
            let mut f = flat.new_slot();
            let mut p = paged.new_slot();
            B::slot_table_mut(&mut p)
                .expect("a paged slot")
                .push_block(alloc.alloc().unwrap());
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                paged.decode(&mut [&mut p, &mut f], &[1, 2]);
            }))
            .expect_err("a mixed pass must panic");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        }
        let bc = BlockConfig {
            block_size: 4,
            n_blocks: 4,
        };
        let cpu = || Transformer::new(weights());
        let accel = || Engine::new(Arc::new(weights()), OptConfig::full()).unwrap();
        for msg in [
            mixed_decode_panic(&CpuBackend::new(cpu()), CpuBackend::new_paged(cpu(), bc)),
            mixed_decode_panic(
                &AccelBackend::new(accel()),
                AccelBackend::new_paged(accel(), bc),
            ),
        ] {
            assert!(
                msg.contains("a pass mixes flat and paged sequences"),
                "{msg}"
            );
        }
    }
}
