//! The [`Backend`] trait: what the continuous-batching scheduler needs
//! from an inference substrate, and its one implementation,
//! [`ServeBackend`].
//!
//! A backend owns the model and the KV storage; per-sequence context lives
//! in the backend's slot type, which the scheduler checks in and out of a
//! [`speedllm_llama::kv_cache::KvCachePool`].
//!
//! A [`ServeBackend`] is a [`Substrate`] — the only code that differs per
//! substrate: its name, its model config and its pass — beside one
//! [`KvSpace`] (DESIGN.md §12). Its slot is a [`ServeSlot`]: the
//! sequence's [`SeqKv`] and whether its request samples by plain argmax.
//! A flat space gives every slot a private contiguous cache; a paged one
//! (`new_paged`) gives it a [`BlockTable`] into one shared arena, whose
//! blocks the scheduler grants — which is what enables prefix sharing and
//! preemptive eviction. The scheduler reads the geometry through
//! [`Backend::block_config`] and drives block-table plumbing through
//! [`Backend::slot_table_mut`].
//!
//! **Scored rows.** The scheduler marks each slot at admission through
//! [`ArgmaxSlot`]. A `prefill`, `decode` or `forward_mixed` pass whose
//! slots are all marked scores the certified greedy rows
//! ([`LogitRows::Greedy`]: the classifier screens the vocab table's high
//! halves and rescores only the candidates), which keep every argmax bit
//! for bit; a pass with one unmarked slot scores full last rows for all
//! of them, because one full stream costs less than a screen plus a full
//! stream. `verify` always scores every row in full. The choice travels
//! on the slots, not on a backend method, so a wrapper that forwards the
//! verbs (`type Slot = B::Slot`) reaches it unchanged.
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
//!   continuous batching on the accelerator) shows up in the report. The
//!   scored rows change neither backend's cost, nor does the KV layout:
//!   the device charges page-granular KV traffic either way.

use speedllm_accel::engine::Engine;
use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::{LogitRows, Transformer};
use speedllm_llama::kv_cache::{KvBatch, PoolSlot};
use speedllm_pagedkv::{BlockConfig, BlockId, BlockTable, KvSpace, SeqBatch, SeqKv};

/// One serving sequence: its KV storage and whether every logits row the
/// scheduler asks for it feeds a plain argmax ([`ArgmaxSlot`]).
#[derive(Debug)]
pub struct ServeSlot {
    /// The sequence's KV rows.
    pub kv: SeqKv,
    argmax_only: bool,
}

impl ServeSlot {
    /// An unmarked slot over `kv`.
    fn new(kv: SeqKv) -> Self {
        Self {
            kv,
            argmax_only: false,
        }
    }
}

impl PoolSlot for ServeSlot {
    /// Clears the sequence and the mark: the next tenant is marked anew.
    fn reset_slot(&mut self) {
        self.kv.reset_slot();
        self.argmax_only = false;
    }

    fn slot_len(&self) -> usize {
        self.kv.slot_len()
    }

    fn poison_slot(&mut self) {
        self.kv.poison_slot();
    }
}

/// The mark the scheduler sets on a slot when it admits a request: `true`
/// when every draw of the request's sampler is the argmax of the logits
/// as given (`Sampler::is_greedy`), so the backend may score the slot's
/// rows with [`LogitRows::Greedy`].
pub trait ArgmaxSlot {
    /// Sets the mark; [`PoolSlot::reset_slot`] clears it.
    fn set_argmax_only(&mut self, argmax_only: bool);
}

impl ArgmaxSlot for ServeSlot {
    fn set_argmax_only(&mut self, argmax_only: bool) {
        self.argmax_only = argmax_only;
    }
}

/// The rows a `prefill`, `decode` or `forward_mixed` pass scores: the
/// certified greedy rows when every slot is marked argmax-only, full
/// last rows otherwise.
fn last_rows(slots: &[&mut ServeSlot]) -> LogitRows {
    if slots.iter().all(|s| s.argmax_only) {
        LogitRows::Greedy
    } else {
        LogitRows::Last
    }
}

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
    /// Per-sequence context (KV cache and friends), poolable and marked
    /// at admission with whether its request samples by plain argmax.
    type Slot: PoolSlot + ArgmaxSlot;

    /// The model architecture.
    fn config(&self) -> ModelConfig;

    /// Creates an empty slot sized for this model.
    fn new_slot(&self) -> Self::Slot;

    /// One prefill chunk (1..=64 tokens) extending `slot`, whose context
    /// length must be `start_pos`. Returns the logits after its last token
    /// (the certified greedy row when the slot is marked argmax-only).
    fn prefill(
        &mut self,
        slot: &mut Self::Slot,
        tokens: &[u32],
        start_pos: usize,
    ) -> (Vec<f32>, u64);

    /// One decode tick: `tokens[i]` extends `slots[i]`. Returns one logit
    /// vector per slot, in order (certified greedy rows when every slot
    /// is marked argmax-only).
    fn decode(&mut self, slots: &mut [&mut Self::Slot], tokens: &[u32]) -> (Vec<Vec<f32>>, u64);

    /// One **mixed** tick (Sarathi-style unified batching, DESIGN.md §14):
    /// `runs[i]` — a decode step or a prefill chunk — extends `slots[i]`.
    /// Returns the logits after the last token of each run, in order
    /// (certified greedy rows when every slot is marked argmax-only).
    fn forward_mixed(
        &mut self,
        slots: &mut [&mut Self::Slot],
        runs: &[&[u32]],
    ) -> (Vec<Vec<f32>>, u64);

    /// One speculative **verify** tick: a mixed tick that returns the
    /// logits of **every** token row — entry `i` is row-major
    /// `[runs[i].len() * vocab]`, a sequence's pending token plus its K
    /// draft proposals scored at once, every row in full.
    fn verify(&mut self, slots: &mut [&mut Self::Slot], runs: &[&[u32]]) -> (Vec<Vec<f32>>, u64);

    /// Rolls `slot` back to `len` context positions, discarding rejected
    /// speculative rows. Paged slots pop the whole blocks past the keep
    /// point and return them — the scheduler releases each through its
    /// allocator (a block another holder shares survives) and reports
    /// actual frees via [`Backend::on_blocks_freed`]. Flat slots return
    /// an empty vec.
    fn truncate_slot(slot: &mut Self::Slot, len: usize) -> Vec<BlockId>;

    /// Block geometry when this backend serves paged KV, `None` for flat
    /// slots. The scheduler switches to block-budget admission iff this
    /// returns `Some`.
    fn block_config(&self) -> Option<BlockConfig>;

    /// The slot's block table, for paged backends. The scheduler grants
    /// and reclaims blocks through this; flat slots return `None`.
    fn slot_table_mut(slot: &mut Self::Slot) -> Option<&mut BlockTable>;

    /// Hook invoked when the scheduler returns blocks to the free list —
    /// paged backends poison the freed rows in debug builds so stale
    /// reads through a dangling table are loud.
    fn on_blocks_freed(&mut self, blocks: &[BlockId]);

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// What a [`ServeBackend`] runs its passes on: the model and its cost
/// clock, never the KV storage.
pub trait Substrate {
    /// Short name for reports.
    const NAME: &'static str;

    /// The model architecture.
    fn config(&self) -> ModelConfig;

    /// One pass: run `i` extends sequence `i` of `kv` at its stored
    /// length. Returns one entry per sequence — the `rows` it asks for,
    /// row-major — and the pass's cost in virtual ticks.
    fn pass(
        &mut self,
        kv: &mut SeqBatch<'_>,
        runs: &[&[u32]],
        rows: LogitRows,
    ) -> (Vec<Vec<f32>>, u64);
}

/// The CPU reference: one [`Transformer`] (scratch, and an `Arc` of the
/// resident weights — replicas built with [`Transformer::with_weights`]
/// share one copy) walking every pass with [`Transformer::forward_runs`],
/// one tick per token row.
impl Substrate for Transformer {
    const NAME: &'static str = "cpu";

    fn config(&self) -> ModelConfig {
        *Transformer::config(self)
    }

    fn pass(
        &mut self,
        kv: &mut SeqBatch<'_>,
        runs: &[&[u32]],
        rows: LogitRows,
    ) -> (Vec<Vec<f32>>, u64) {
        let starts: Vec<usize> = (0..kv.batch_len()).map(|i| kv.kv_len(i)).collect();
        let counts: Vec<usize> = runs.iter().map(|r| r.len()).collect();
        let tokens = runs.concat();
        let vocab = Transformer::config(self).vocab_size;
        let logits = self.forward_runs(kv, &tokens, &counts, &starts, rows);
        (rows.split(logits, &counts, vocab), tokens.len() as u64)
    }
}

/// The simulated device: one [`Engine`] pass ([`Engine::forward_runs`]),
/// charged its device cycles, so batching amortizes weight streams
/// exactly as the device would — a verify tick's ~K× weight-traffic cut
/// per accepted run shows up directly in the report's tick totals.
impl Substrate for Engine {
    const NAME: &'static str = "accel";

    fn config(&self) -> ModelConfig {
        self.graph().config
    }

    fn pass(
        &mut self,
        kv: &mut SeqBatch<'_>,
        runs: &[&[u32]],
        rows: LogitRows,
    ) -> (Vec<Vec<f32>>, u64) {
        let (logits, step) = self.forward_runs(kv, runs, rows);
        (logits, step.cycles.0)
    }
}

/// The serve backend: a [`Substrate`] and the [`KvSpace`] its slots'
/// sequences live in.
pub struct ServeBackend<S> {
    substrate: S,
    kv: KvSpace,
}

/// The CPU reference backend.
pub type CpuBackend = ServeBackend<Transformer>;

/// The accelerator-simulation backend.
pub type AccelBackend = ServeBackend<Engine>;

impl<S: Substrate> ServeBackend<S> {
    /// Wraps a substrate with flat (slot-pool) KV context.
    #[must_use]
    pub fn new(substrate: S) -> Self {
        let kv = KvSpace::new(&substrate.config(), None);
        Self { substrate, kv }
    }

    /// Wraps a substrate with a shared paged-KV arena of `blocks`.
    #[must_use]
    pub fn new_paged(substrate: S, blocks: BlockConfig) -> Self {
        let kv = KvSpace::new(&substrate.config(), Some(blocks));
        Self { substrate, kv }
    }

    /// Every verb's body: one substrate pass over the slots' sequences,
    /// batched by the backend's [`KvSpace`].
    fn run(
        &mut self,
        slots: &mut [&mut ServeSlot],
        runs: &[&[u32]],
        rows: LogitRows,
    ) -> (Vec<Vec<f32>>, u64) {
        let mut seqs: Vec<&mut SeqKv> = slots.iter_mut().map(|s| &mut s.kv).collect();
        self.substrate
            .pass(&mut self.kv.batch(&mut seqs), runs, rows)
    }
}

impl<S: Substrate> Backend for ServeBackend<S> {
    type Slot = ServeSlot;

    fn config(&self) -> ModelConfig {
        self.substrate.config()
    }

    fn new_slot(&self) -> Self::Slot {
        ServeSlot::new(self.kv.new_seq())
    }

    fn prefill(
        &mut self,
        slot: &mut Self::Slot,
        tokens: &[u32],
        start_pos: usize,
    ) -> (Vec<f32>, u64) {
        assert_eq!(
            slot.kv.len(),
            start_pos,
            "chunk must extend the sequence contiguously"
        );
        let slots = &mut [slot];
        let rows = last_rows(slots);
        let (mut logits, cost) = self.run(slots, &[tokens], rows);
        (logits.pop().expect("one run in, one logits row out"), cost)
    }

    fn decode(&mut self, slots: &mut [&mut Self::Slot], tokens: &[u32]) -> (Vec<Vec<f32>>, u64) {
        let runs: Vec<&[u32]> = tokens.iter().map(std::slice::from_ref).collect();
        self.run(slots, &runs, last_rows(slots))
    }

    fn forward_mixed(
        &mut self,
        slots: &mut [&mut Self::Slot],
        runs: &[&[u32]],
    ) -> (Vec<Vec<f32>>, u64) {
        self.run(slots, runs, last_rows(slots))
    }

    fn verify(&mut self, slots: &mut [&mut Self::Slot], runs: &[&[u32]]) -> (Vec<Vec<f32>>, u64) {
        self.run(slots, runs, LogitRows::All)
    }

    fn truncate_slot(slot: &mut Self::Slot, len: usize) -> Vec<BlockId> {
        slot.kv.truncate(len)
    }

    fn block_config(&self) -> Option<BlockConfig> {
        self.kv.block_config()
    }

    fn slot_table_mut(slot: &mut Self::Slot) -> Option<&mut BlockTable> {
        slot.kv.table_mut()
    }

    fn on_blocks_freed(&mut self, blocks: &[BlockId]) {
        self.kv.on_blocks_freed(blocks);
    }

    fn name(&self) -> &'static str {
        S::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedllm_accel::opt::OptConfig;
    use speedllm_llama::kv_cache::{KvCache, KvCachePool};
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
        let mut kv = KvCache::new(oracle.config());
        let mut slot = backend.new_slot();
        let (chunk_logits, cost) = backend.prefill(&mut slot, &[1, 5, 9], 0);
        assert_eq!(cost, 3);
        let mut want = Vec::new();
        for (pos, &t) in [1u32, 5, 9].iter().enumerate() {
            want = oracle.forward_with_kv(&mut kv, t, pos).to_vec();
        }
        assert_eq!(chunk_logits, want, "prefill diverged from single-tenant");

        let mut refs = [&mut slot];
        let (dec, cost) = backend.decode(&mut refs, &[7]);
        assert_eq!(cost, 1);
        assert_eq!(dec[0], oracle.forward_with_kv(&mut kv, 7, 3).to_vec());
    }

    /// Pushes blocks from `alloc` (a paged backend's) onto `slot`'s table
    /// until it holds `len` positions, the way the scheduler grants them.
    fn grant<S: Substrate>(alloc: &mut Option<BlockAllocator>, slot: &mut ServeSlot, len: usize) {
        let Some(alloc) = alloc else { return };
        let table = ServeBackend::<S>::slot_table_mut(slot).expect("a paged slot");
        while table.capacity_tokens() < len {
            table.push_block(alloc.alloc().expect("a free block"));
        }
    }

    /// Every verb once on one backend: a prefill chunk, a decode, a mixed
    /// tick (a decode row beside a chunk), a 3-row verify, a rollback and
    /// a decode after it. Returns each pass's logits and cost.
    fn every_verb<S: Substrate>(mut b: ServeBackend<S>) -> Vec<(Vec<Vec<f32>>, u64)> {
        let mut alloc = b.block_config().map(BlockAllocator::new);
        let (mut x, mut y) = (b.new_slot(), b.new_slot());
        let mut passes = Vec::new();
        grant::<S>(&mut alloc, &mut x, 5);
        let (row, cost) = b.prefill(&mut x, &[3, 9, 14, 27, 5], 0);
        passes.push((vec![row], cost));
        grant::<S>(&mut alloc, &mut x, 6);
        passes.push(b.decode(&mut [&mut x], &[8]));
        grant::<S>(&mut alloc, &mut x, 7);
        grant::<S>(&mut alloc, &mut y, 3);
        passes.push(b.forward_mixed(&mut [&mut x, &mut y], &[&[12], &[4, 11, 2]]));
        grant::<S>(&mut alloc, &mut x, 10);
        passes.push(b.verify(&mut [&mut x], &[&[19, 7, 30]]));
        let freed = ServeBackend::<S>::truncate_slot(&mut x, 8);
        assert_eq!(
            freed.len(),
            usize::from(alloc.is_some()),
            "one block past 8 of 10"
        );
        for &block in &freed {
            alloc.as_mut().expect("paged").release(block);
        }
        b.on_blocks_freed(&freed);
        assert_eq!(x.slot_len(), 8);
        grant::<S>(&mut alloc, &mut x, 9);
        passes.push(b.decode(&mut [&mut x, &mut y], &[6, 1]));
        passes
    }

    /// A flat and a paged backend over the same substrate give every verb
    /// the same logits, bit for bit, and charge every pass the same cost.
    fn flat_matches_paged<S: Substrate>(make: impl Fn() -> S) {
        let bc = BlockConfig {
            block_size: 4,
            n_blocks: 8,
        };
        let (flat, paged) = (
            ServeBackend::new(make()),
            ServeBackend::new_paged(make(), bc),
        );
        assert_eq!(
            (flat.block_config(), paged.block_config()),
            (None, Some(bc))
        );
        let bits = |rows: &[Vec<f32>]| -> Vec<Vec<u32>> {
            rows.iter()
                .map(|r| r.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let (flat, paged) = (every_verb(flat), every_verb(paged));
        assert_eq!(flat.len(), paged.len());
        for (i, ((fl, fc), (pl, pc))) in flat.iter().zip(&paged).enumerate() {
            assert_eq!(bits(fl), bits(pl), "{} pass {i}: logits", S::NAME);
            assert_eq!(fc, pc, "{} pass {i}: cost", S::NAME);
        }
    }

    #[test]
    fn flat_and_paged_backends_agree_on_every_verb_and_its_cost() {
        flat_matches_paged(|| Transformer::new(weights()));
        flat_matches_paged(|| Engine::new(Arc::new(weights()), OptConfig::full()).unwrap());
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
        let mut slots: Vec<ServeSlot> = (0..4).map(|_| acc.new_slot()).collect();
        let mut refs: Vec<&mut ServeSlot> = slots.iter_mut().collect();
        let (_, c4) = acc.decode(&mut refs, &[5, 6, 7, 8]);
        assert!(c4 < 4 * c1, "batching must amortize: 1->{c1}, 4->{c4}");
    }

    /// A pooled slot comes back unmarked, so the next tenant's sampler
    /// alone decides its rows.
    #[test]
    fn a_released_slot_loses_its_argmax_mark() {
        let backend = CpuBackend::new(Transformer::new(weights()));
        let mut pool = KvCachePool::new(1, || backend.new_slot());
        let mut slot = pool.acquire().expect("a free slot");
        assert!(!slot.state().argmax_only);
        slot.state_mut().set_argmax_only(true);
        assert!(slot.state().argmax_only);
        pool.release(slot);
        let slot = pool.acquire().expect("the released slot");
        assert!(!slot.state().argmax_only, "reset_slot kept the mark");
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
