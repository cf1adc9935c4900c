//! [`TimedBackend`]: a [`Backend`] that delegates everything to the one
//! it wraps and brackets the four forward verbs with `Instant`. It is the
//! layer boundary between `serve` (scheduler, sampler, bookkeeping) and
//! the substrate under it, observed from outside both crates.

use std::time::Instant;

use speedllm_llama::config::ModelConfig;
use speedllm_pagedkv::{BlockConfig, BlockId, BlockTable};
use speedllm_serve::backend::Backend;

/// The four forward verbs of [`Backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// [`Backend::prefill`]
    Prefill,
    /// [`Backend::decode`]
    Decode,
    /// [`Backend::forward_mixed`]
    Mixed,
    /// [`Backend::verify`]
    Verify,
}

impl Verb {
    /// All verbs, in metric order.
    pub const ALL: [Verb; 4] = [Verb::Prefill, Verb::Decode, Verb::Mixed, Verb::Verify];

    /// Metric-name stem.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verb::Prefill => "prefill",
            Verb::Decode => "decode",
            Verb::Mixed => "mixed",
            Verb::Verify => "verify",
        }
    }
}

/// One timed verb call.
#[derive(Debug, Clone, Copy)]
pub struct VerbCall {
    /// Which verb.
    pub verb: Verb,
    /// Start, seconds since the backend's epoch.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
    /// Token rows the call carried.
    pub rows: usize,
}

/// Wraps a backend and records every verb call.
pub struct TimedBackend<B> {
    inner: B,
    epoch: Instant,
    calls: Vec<VerbCall>,
}

impl<B: Backend> TimedBackend<B> {
    /// Wraps `inner`; call times are measured from `epoch`.
    pub fn new(inner: B, epoch: Instant) -> Self {
        Self {
            inner,
            epoch,
            calls: Vec::new(),
        }
    }

    /// Every verb call so far, in call order.
    #[must_use]
    pub fn calls(&self) -> &[VerbCall] {
        &self.calls
    }

    fn timed<T>(&mut self, verb: Verb, rows: usize, run: impl FnOnce(&mut B) -> T) -> T {
        let start = Instant::now();
        let out = run(&mut self.inner);
        self.calls.push(VerbCall {
            verb,
            start_s: start.duration_since(self.epoch).as_secs_f64(),
            dur_s: start.elapsed().as_secs_f64(),
            rows,
        });
        out
    }
}

fn run_rows(runs: &[&[u32]]) -> usize {
    runs.iter().map(|r| r.len()).sum()
}

impl<B: Backend> Backend for TimedBackend<B> {
    type Slot = B::Slot;

    fn config(&self) -> ModelConfig {
        self.inner.config()
    }

    fn new_slot(&self) -> Self::Slot {
        self.inner.new_slot()
    }

    fn prefill(
        &mut self,
        slot: &mut Self::Slot,
        tokens: &[u32],
        start_pos: usize,
    ) -> (Vec<f32>, u64) {
        self.timed(Verb::Prefill, tokens.len(), |b| {
            b.prefill(slot, tokens, start_pos)
        })
    }

    fn decode(&mut self, slots: &mut [&mut Self::Slot], tokens: &[u32]) -> (Vec<Vec<f32>>, u64) {
        self.timed(Verb::Decode, tokens.len(), |b| b.decode(slots, tokens))
    }

    fn forward_mixed(
        &mut self,
        slots: &mut [&mut Self::Slot],
        runs: &[&[u32]],
    ) -> (Vec<Vec<f32>>, u64) {
        self.timed(Verb::Mixed, run_rows(runs), |b| {
            b.forward_mixed(slots, runs)
        })
    }

    fn verify(&mut self, slots: &mut [&mut Self::Slot], runs: &[&[u32]]) -> (Vec<Vec<f32>>, u64) {
        self.timed(Verb::Verify, run_rows(runs), |b| b.verify(slots, runs))
    }

    fn truncate_slot(slot: &mut Self::Slot, len: usize) -> Vec<BlockId> {
        B::truncate_slot(slot, len)
    }

    fn block_config(&self) -> Option<BlockConfig> {
        self.inner.block_config()
    }

    fn slot_table_mut(slot: &mut Self::Slot) -> Option<&mut BlockTable> {
        B::slot_table_mut(slot)
    }

    fn on_blocks_freed(&mut self, blocks: &[BlockId]) {
        self.inner.on_blocks_freed(blocks);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
