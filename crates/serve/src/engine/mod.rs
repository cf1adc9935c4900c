//! The continuous-batching scheduler: one tick loop for every mode.
//!
//! [`ServeEngine`] multiplexes generation requests over a fixed pool of
//! KV-cache slots. Every [`ServeEngine::step`] is the same sequence,
//! whatever the configuration (DESIGN.md §11, "One tick"):
//!
//! 1. **admit** (`admission.rs`) — move preempted, then queued, requests
//!    into free slots. On a paged backend ([`Backend::block_config`] is
//!    `Some`) admission is gated on the block budget and resolves the
//!    context against the radix prefix index; a flat backend is the same
//!    walk with no block budget (DESIGN.md §12).
//! 2. **capacity** (`capacity.rs`) — grant every warm sequence the KV
//!    blocks for the rows this tick writes; when the arena is dry, evict
//!    a cold radix entry, else preempt the youngest sequence.
//! 3. **sample** (`tick.rs`) — one token per warm sequence from its own
//!    seeded sampler (or the token parked by an earlier tick), yielding
//!    the decode candidates.
//! 4. **plan** — turn the candidates and the cold sequences into passes
//!    of runs. This is the only step the mode changes: the
//!    phase-serialized mode ([`ServeConfig::unified`] `None`) issues one
//!    prefill pass per cold sequence *before* sampling and groups decode
//!    rows by `max_batch`; speculation
//!    ([`ServeEngine::enable_speculative`]) extends each candidate with
//!    draft proposals and groups verify runs by `max_batch` and the
//!    64-row staging cap; the unified mode splits one `token_budget`
//!    between decode rows and prefill chunks and emits a single mixed
//!    pass (DESIGN.md §14, §16).
//! 5. **issue** — the one place a pass reaches the [`Backend`]: gather
//!    the slots, call the pass's verb, advance the clock, update
//!    counters, telemetry and events.
//! 6. **settle** — scatter logits, advance prefill progress, publish
//!    finished prompts to the radix index, or replay the sampler over
//!    verified rows and roll back what it rejected.
//! 7. **evict** — release finished sequences and build their
//!    [`Completion`]s.
//!
//! K/V rows are a deterministic function of the token prefix and every
//! request carries its own seeded sampler, so none of batching, prefix
//! sharing, preemption, deferral or speculation shows in a token stream:
//! every plan of the loop emits exactly what the single-tenant decoder
//! would.
//!
//! Time is a **virtual clock** in backend-defined ticks (token forwards on
//! the CPU backend, simulated device cycles on the accelerator), so every
//! latency in a [`Completion`] — and therefore the whole serve-bench
//! report — is bit-reproducible across machines and wall-clock noise.
//!
//! One driver is provided: [`ServeEngine::run_with_source`],
//! single-threaded, pulls from a [`TrafficSource`]; the deterministic path
//! serve-bench uses. A caller that owns its own loop calls
//! [`ServeEngine::submit`] and [`ServeEngine::step`] directly.

mod admission;
mod capacity;
mod tick;

use tick::{Pass, Verb};

use std::collections::VecDeque;

use speedllm_telemetry as tel;

use speedllm_accel::engine::STAGING_ROWS;
use speedllm_llama::forward::Transformer;
use speedllm_llama::kv_cache::{KvCache, KvCachePool, PooledSlot};
use speedllm_llama::sampler::{Sampler, SamplerKind};
use speedllm_pagedkv::{BlockAllocator, RadixIndex};

use crate::backend::Backend;
use crate::events::{Event, EventKind, ServeRecorder};

/// Appends a lifecycle event when a recorder is attached. A free
/// function so call sites inside field-level borrows of the engine can
/// reach the recorder without re-borrowing `self`.
fn record(rec: &mut Option<ServeRecorder>, tick: u64, req: u64, kind: EventKind) {
    if let Some(r) = rec.as_mut() {
        r.events.push(Event {
            tick,
            req,
            kind,
            replica: None,
        });
    }
}

/// One generation request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen id, echoed in the [`Completion`].
    pub id: u64,
    /// Prompt token ids (BOS included), non-empty, at most `seq_len`.
    pub prompt: Vec<u32>,
    /// Budget of new tokens (further clamped by the context window).
    pub max_new_tokens: usize,
    /// Stop when EOS/BOS is sampled (the token is not emitted).
    pub stop_at_eos: bool,
    /// Sampling policy.
    pub sampler: SamplerKind,
    /// Seed of this request's private sampler — what makes its token
    /// stream independent of batch composition.
    pub seed: u64,
    /// Arrival tick (virtual time).
    pub arrival: u64,
}

/// A finished request with its token output and lifecycle timestamps
/// (all in virtual ticks).
#[derive(Debug, Clone)]
pub struct Completion {
    /// Echo of [`Request::id`].
    pub id: u64,
    /// Generated token ids (EOS excluded).
    pub tokens: Vec<u32>,
    /// Echo of [`Request::arrival`].
    pub arrival: u64,
    /// When the request left the queue and took a slot (first admission —
    /// a preempted request keeps its original timestamp).
    pub admitted_at: u64,
    /// When the first generated token was sampled (None for zero-token
    /// completions).
    pub first_token_at: Option<u64>,
    /// When the request finished and released its slot.
    pub finished_at: u64,
    /// Pool index of the slot that hosted the sequence (the last one, if
    /// the request was preempted and resumed).
    pub slot_index: usize,
    /// Admission order (0-based, strictly increasing with queue order).
    pub admission_seq: u64,
    /// Virtual tick each token was sampled at (`token_ticks[0]` equals
    /// `first_token_at`); consecutive differences are the inter-token
    /// latencies feeding `ServeReport::itl_ticks`.
    pub token_ticks: Vec<u64>,
}

impl Completion {
    /// Time to first token, from arrival.
    #[must_use]
    pub fn ttft(&self) -> Option<u64> {
        self.first_token_at.map(|t| t - self.arrival)
    }

    /// End-to-end latency, from arrival.
    #[must_use]
    pub fn e2e(&self) -> u64 {
        self.finished_at - self.arrival
    }
}

/// Unified mixed-batch scheduling (Sarathi-style, DESIGN.md §14): one
/// tick carries decode rows **and** prefill-chunk rows in a single
/// weight-streaming pass, under a per-tick token budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnifiedConfig {
    /// Token rows one tick may carry, decode + prefill combined
    /// (clamped to 1..=64, the on-chip staging limit).
    pub token_budget: usize,
    /// Share of the budget reserved for prefill rows when both decode
    /// candidates and cold sequences compete, in percent (clamped to
    /// 0..=100). At least one decode row always fits, and budget left
    /// over by either side flows to the other.
    pub prefill_pct: u32,
}

impl Default for UnifiedConfig {
    fn default() -> Self {
        Self {
            token_budget: 16,
            prefill_pct: 50,
        }
    }
}

/// Scheduler parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// KV-cache slots — the hard concurrency limit. With a paged backend
    /// a slot is only a block table, so this is typically set to the
    /// block budget and admission is gated on blocks instead.
    pub slots: usize,
    /// Max sequences per batched decode step (clamped to 1..=64, the
    /// on-chip staging limit). Ignored by the unified scheduler, whose
    /// token budget is the batch cap.
    pub max_batch: usize,
    /// Prefill chunk length (clamped to 1..=64).
    pub prefill_chunk: usize,
    /// Bounded request-queue depth — admission backpressure.
    pub queue_cap: usize,
    /// `Some` switches the engine to the unified mixed prefill+decode
    /// scheduler; `None` keeps the phase-serialized PR 5 loop.
    pub unified: Option<UnifiedConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            slots: 4,
            max_batch: 8,
            prefill_chunk: 16,
            queue_cap: 64,
            unified: None,
        }
    }
}

/// Aggregate scheduler counters (monotone over the engine's life).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Scheduler iterations run.
    pub iterations: u64,
    /// Batched decode passes issued.
    pub decode_batches: u64,
    /// Largest decode batch observed.
    pub max_batch_observed: usize,
    /// Prefill chunks issued.
    pub prefill_chunks: u64,
    /// Requests admitted (first admissions; resumes not re-counted).
    pub admitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Submissions bounced off the full queue (backpressure).
    pub rejected: u64,
    /// Sequences preempted to reclaim KV blocks (paged backends only).
    pub preemptions: u64,
    /// Prompt tokens skipped at admission thanks to radix prefix hits.
    pub prefix_hit_tokens: u64,
    /// Cached blocks reclaimed from the radix index under pressure.
    pub cache_evicted_blocks: u64,
    /// High-water mark of allocated KV blocks (paged backends only).
    pub peak_blocks_in_use: u64,
    /// Largest number of concurrently admitted sequences observed.
    pub max_active_observed: usize,
    /// Unified mixed ticks executed (unified scheduler only). Not
    /// rendered in reports, so legacy report bytes are unchanged.
    pub mixed_ticks: u64,
    /// Ticks that carried decode rows and prefill rows together — the
    /// overlap the unified scheduler exists to create. Not rendered.
    pub overlap_ticks: u64,
    /// Most token rows one tick has carried. Not rendered.
    pub max_tick_tokens: usize,
    /// Decode rows pushed to a later tick by the token budget (the
    /// sampled token is kept, never re-sampled). Not rendered.
    pub deferred_decodes: u64,
    /// Speculative verify rounds run (one per sequence per verify pass).
    /// Rendered — with the two counters below — only when nonzero, so
    /// non-speculative report bytes are unchanged.
    pub spec_rounds: u64,
    /// Draft tokens proposed across all speculative rounds.
    pub spec_drafted: u64,
    /// Draft tokens accepted (the sampler chose the drafted token).
    pub spec_accepted: u64,
}

/// A stream of requests the synchronous driver pulls from. `poll` may be
/// called repeatedly with the same `now`; implementations hand out each
/// request exactly once.
pub trait TrafficSource {
    /// Requests due at or before `now`, at most `room` of them (the free
    /// space in the engine's bounded queue — backpressure holds the rest
    /// back). `outstanding` is queued + in-flight, for closed-loop pacing.
    fn poll(&mut self, now: u64, outstanding: usize, room: usize) -> Vec<Request>;

    /// Earliest tick at which `poll` could return something, for idle
    /// jumps; may be in the past. `None` when exhausted.
    fn next_arrival(&self, outstanding: usize) -> Option<u64>;

    /// True once every request has been handed out.
    fn is_exhausted(&self) -> bool;
}

/// An admitted, in-flight request.
struct Active<B: Backend> {
    req: Request,
    slot: PooledSlot<B::Slot>,
    sampler: Sampler,
    /// Context tokens in the KV cache so far.
    prefilled: usize,
    /// Logits after the last forward (valid once fully prefilled).
    logits: Vec<f32>,
    generated: Vec<u32>,
    /// Generated tokens a resumed request must prefill again after its
    /// prompt before decoding continues (0 for first runs).
    refill: usize,
    /// A sampled token that is already in `generated` but not yet
    /// forwarded into the KV cache; consumed without re-sampling. The
    /// unified plan parks budget-deferred tokens here, and a verify
    /// round parks the token the next round scores first.
    pending: Option<u32>,
    /// The draft model's private KV cache (speculative mode only; `None`
    /// until the sequence's first speculative round). Dropped on
    /// preemption — the draft resyncs from the token history for free.
    draft_kv: Option<KvCache>,
    /// One past the last position the budget/context allows.
    end_pos: usize,
    admitted_at: u64,
    first_token_at: Option<u64>,
    admission_seq: u64,
    /// Sampling tick of each generated token (parallel to `generated`).
    token_ticks: Vec<u64>,
}

impl<B: Backend> Active<B> {
    /// Tokens that must be in the KV context before decode can proceed.
    fn ctx_len(&self) -> usize {
        self.req.prompt.len() + self.refill
    }

    /// True until the context is fully prefilled.
    fn is_cold(&self) -> bool {
        self.prefilled < self.ctx_len()
    }

    /// Prompt + generated tokens so far.
    fn hist_len(&self) -> usize {
        self.req.prompt.len() + self.generated.len()
    }

    /// Draft rows a run whose first row is position `n` may add at
    /// speculation depth `k`: one less than the budget left after that
    /// row's token, and inside the `seq_len` context window.
    fn draft_rows(&self, k: usize, n: usize, seq_len: usize) -> usize {
        let budget = self.end_pos - (n + 1);
        k.min(budget.saturating_sub(1)).min(seq_len - 1 - n)
    }

    /// The token at history position `pos` (prompt, then generated).
    fn token_at(&self, pos: usize) -> u32 {
        match pos.checked_sub(self.req.prompt.len()) {
            None => self.req.prompt[pos],
            Some(g) => self.generated[g],
        }
    }
}

/// A request waiting for a slot. A preempted one carries everything
/// needed to resume its exact token stream after its KV blocks were taken
/// away — prompt + `generated` is the context to prefill again; one fresh
/// from the queue has generated nothing yet.
struct Waiting {
    req: Request,
    /// The request's seeded sampler, carried across the preemption so the
    /// continuation samples exactly what an uninterrupted run would.
    sampler: Sampler,
    generated: Vec<u32>,
    admitted_at: u64,
    first_token_at: Option<u64>,
    admission_seq: u64,
    /// Sampling tick of each generated token, carried across the stall.
    token_ticks: Vec<u64>,
}

/// Block-budget state of a paged backend: the allocator over the shared
/// arena plus the radix prefix index.
struct PagedKv {
    alloc: BlockAllocator,
    radix: RadixIndex,
}

/// Speculative-decoding state (DESIGN.md §16): the shared draft model
/// and the speculation depth. Enabled via
/// [`ServeEngine::enable_speculative`]; turns decode rows into verify runs.
struct SpecServe {
    /// The small proposer, shared across sequences (each sequence keeps
    /// its own [`Active::draft_kv`]).
    draft: Transformer,
    /// Draft tokens proposed per verify round (clamped per round by the
    /// remaining budget, context window, and granted blocks).
    k: usize,
}

/// The continuous-batching engine. Generic over the [`Backend`]; all
/// scheduling state (queue, pool, block budget, virtual clock) lives here.
pub struct ServeEngine<B: Backend> {
    backend: B,
    cfg: ServeConfig,
    pool: KvCachePool<B::Slot>,
    queue: VecDeque<Request>,
    active: Vec<Active<B>>,
    /// Preempted requests, oldest admission first.
    preempted: VecDeque<Waiting>,
    paged: Option<PagedKv>,
    now: u64,
    admission_seq: u64,
    stats: ServeStats,
    seq_len: usize,
    /// Speculative-decoding state; `Some` turns each decode candidate
    /// into a draft-then-verify run.
    spec: Option<SpecServe>,
    /// Optional observability sink (lifecycle events + tick samples).
    /// Recording is pure observation: it never touches the clock,
    /// samplers, or KV state, so token streams and reports are
    /// bit-identical with or without it.
    recorder: Option<ServeRecorder>,
    /// Decode rows carried by the current scheduler iteration.
    tick_decode_rows: usize,
    /// Prefill token rows carried by the current scheduler iteration.
    tick_prefill_tokens: usize,
}

impl<B: Backend> ServeEngine<B> {
    /// Builds an engine with `cfg.slots` pre-allocated slots. A paged
    /// backend (one whose [`Backend::block_config`] is `Some`) switches
    /// admission to the block budget.
    ///
    /// # Panics
    /// Panics when a paged backend's arena is too small to ever host one
    /// full-context sequence (`n_blocks * block_size < seq_len`) — such
    /// an engine could deadlock.
    pub fn new(backend: B, cfg: ServeConfig) -> Self {
        let cfg = ServeConfig {
            slots: cfg.slots.max(1),
            max_batch: cfg.max_batch.clamp(1, STAGING_ROWS),
            prefill_chunk: cfg.prefill_chunk.clamp(1, STAGING_ROWS),
            queue_cap: cfg.queue_cap.max(1),
            unified: cfg.unified.map(|u| UnifiedConfig {
                token_budget: u.token_budget.clamp(1, STAGING_ROWS),
                prefill_pct: u.prefill_pct.min(100),
            }),
        };
        let seq_len = backend.config().seq_len;
        let paged = backend.block_config().map(|bc| {
            assert!(
                bc.n_blocks >= seq_len.div_ceil(bc.block_size),
                "{} blocks of {} tokens cannot host one full context of {}",
                bc.n_blocks,
                bc.block_size,
                seq_len
            );
            PagedKv {
                alloc: BlockAllocator::new(bc),
                radix: RadixIndex::new(bc.block_size),
            }
        });
        let pool = KvCachePool::new(cfg.slots, || backend.new_slot());
        Self {
            backend,
            cfg,
            pool,
            queue: VecDeque::new(),
            active: Vec::new(),
            preempted: VecDeque::new(),
            paged,
            now: 0,
            admission_seq: 0,
            stats: ServeStats::default(),
            seq_len,
            spec: None,
            recorder: None,
            tick_decode_rows: 0,
            tick_prefill_tokens: 0,
        }
    }

    /// Attaches an observability recorder; subsequent requests emit
    /// lifecycle events and every [`ServeEngine::step`] appends one tick
    /// sample. Replaces any previous recorder.
    pub fn attach_recorder(&mut self, recorder: ServeRecorder) {
        self.recorder = Some(recorder);
    }

    /// The attached recorder, if any.
    #[must_use]
    pub fn recorder(&self) -> Option<&ServeRecorder> {
        self.recorder.as_ref()
    }

    /// Detaches and returns the recorder (e.g. to export after a run).
    pub fn take_recorder(&mut self) -> Option<ServeRecorder> {
        self.recorder.take()
    }

    /// Turns the phase-serialized mode's decode rows into speculative
    /// draft-then-verify runs (DESIGN.md §16): `draft` proposes up to
    /// `k` greedy continuations per sequence per round, one batched
    /// verify pass scores every row, and each request's own sampler
    /// accepts the longest agreeing prefix — token streams stay
    /// bit-identical to plain decode for any sampler.
    ///
    /// # Errors
    /// Rejects `k == 0` (nothing to speculate), `k > 63` (a run of
    /// `k + 1` rows would exceed the on-chip staging limit), a draft
    /// whose vocabulary differs from the target's (draft proposals would
    /// be meaningless token ids), a draft whose context window is
    /// shorter than the target's (it could not follow a full-length
    /// sequence), and engines configured with the unified mode: a mixed
    /// pass returns one [`speedllm_llama::forward::LogitRows`] shape for
    /// all its runs, so verify runs (every row scored) cannot ride with
    /// prefill chunks (last row only) until the backend takes it per run.
    pub fn enable_speculative(&mut self, draft: Transformer, k: usize) -> Result<(), String> {
        if self.cfg.unified.is_some() {
            return Err(
                "speculative decoding cannot be combined with the unified scheduler: a mixed \
                 pass scores either the last row of every run or all rows of every run, so \
                 verify runs cannot share it with prefill chunks"
                    .to_string(),
            );
        }
        if k == 0 {
            return Err("speculative depth k must be >= 1".to_string());
        }
        if k >= STAGING_ROWS {
            return Err(format!(
                "speculative depth {k} exceeds the verify staging limit of {} draft rows",
                STAGING_ROWS - 1
            ));
        }
        let target = self.backend.config();
        let d = draft.config();
        if d.vocab_size != target.vocab_size {
            return Err(format!(
                "draft vocabulary ({}) does not match the target's ({})",
                d.vocab_size, target.vocab_size
            ));
        }
        if d.seq_len < target.seq_len {
            return Err(format!(
                "draft context window ({}) is shorter than the target's ({})",
                d.seq_len, target.seq_len
            ));
        }
        self.spec = Some(SpecServe { draft, k });
        Ok(())
    }

    /// True when speculative decoding is enabled.
    #[must_use]
    pub fn speculative(&self) -> bool {
        self.spec.is_some()
    }

    /// The scheduler configuration (after clamping).
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The backend.
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Scheduler counters.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Slot acquisitions that reused a previously released slot.
    #[must_use]
    pub fn slot_reuses(&self) -> u64 {
        self.pool.reuse_count()
    }

    /// True when every slot has been released back to the pool.
    #[must_use]
    pub fn all_slots_free(&self) -> bool {
        self.pool.all_free()
    }

    /// Queued + in-flight + preempted requests.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.queue.len() + self.active.len() + self.preempted.len()
    }

    /// True when there is nothing queued, in flight, or preempted.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.outstanding() == 0
    }

    /// KV blocks currently allocated (0 for flat backends).
    #[must_use]
    pub fn blocks_in_use(&self) -> usize {
        self.paged.as_ref().map_or(0, |p| p.alloc.in_use())
    }

    /// KV blocks retained by the radix prefix cache (0 for flat backends).
    #[must_use]
    pub fn blocks_cached(&self) -> usize {
        self.paged.as_ref().map_or(0, |p| p.radix.cached_blocks())
    }

    /// Structural check of the paged-KV bookkeeping: free-list/refcount
    /// conservation and radix-tree invariants. `Ok` for flat backends.
    pub fn check_paged_invariants(&self) -> Result<(), String> {
        match &self.paged {
            None => Ok(()),
            Some(p) => {
                p.alloc.check_invariants()?;
                p.radix.check_invariants(&p.alloc)
            }
        }
    }

    /// Longest prefix of `tokens` the radix prefix cache could serve at
    /// admission, in tokens. A pure probe (no refcounts taken, no LRU
    /// stamps touched) capped exactly like admission caps its lookup —
    /// at least one token is always left to prefill — so a cluster
    /// router can rank replicas by the hit each would actually credit.
    /// Always 0 on flat (non-paged) backends.
    #[must_use]
    pub fn prefix_hit_len(&self, tokens: &[u32]) -> usize {
        match &self.paged {
            None => 0,
            Some(p) => {
                let bs = p.radix.block_size();
                let cap = tokens.len().saturating_sub(1) / bs * bs;
                p.radix.longest_prefix_len(tokens).min(cap)
            }
        }
    }

    /// Drains every incomplete request — queued, in flight, and
    /// preempted — handing back the **original** [`Request`]s so a
    /// cluster router can re-route them after a replica failure. Slots
    /// and KV blocks are released with the same bookkeeping as
    /// preemption (radix-cached blocks survive, like a drain for
    /// maintenance); per-request progress is discarded, which is safe
    /// because seeded samplers regenerate bit-identical streams from
    /// scratch on any replica. Returns admitted requests first in
    /// admission order, then the queue in FIFO order.
    pub fn take_incomplete(&mut self) -> Vec<Request> {
        let mut admitted: Vec<(u64, Request)> = Vec::new();
        for a in std::mem::take(&mut self.active) {
            self.release_slot(a.slot);
            admitted.push((a.admission_seq, a.req));
        }
        for p in std::mem::take(&mut self.preempted) {
            admitted.push((p.admission_seq, p.req));
        }
        admitted.sort_by_key(|&(seq, _)| seq);
        let mut out: Vec<Request> = admitted.into_iter().map(|(_, r)| r).collect();
        out.extend(self.queue.drain(..));
        debug_assert!(self.is_idle() && self.all_slots_free());
        debug_assert!(self.check_paged_invariants().is_ok());
        out
    }

    /// Enqueues a request, or hands it back when the bounded queue is full
    /// (admission backpressure). Rejections are counted in
    /// [`ServeStats::rejected`].
    ///
    /// # Panics
    /// Panics on an empty prompt or one longer than the context window —
    /// such a request could never be served.
    pub fn submit(&mut self, req: Request) -> Result<(), Request> {
        assert!(!req.prompt.is_empty(), "empty prompt");
        assert!(
            req.prompt.len() <= self.seq_len,
            "prompt of {} tokens exceeds context window {}",
            req.prompt.len(),
            self.seq_len
        );
        if self.queue.len() >= self.cfg.queue_cap {
            self.stats.rejected += 1;
            if tel::enabled() {
                tel::metrics::counter_add("serve.rejected", 1);
            }
            record(&mut self.recorder, req.arrival, req.id, EventKind::Rejected);
            return Err(req);
        }
        record(&mut self.recorder, req.arrival, req.id, EventKind::Enqueued);
        self.queue.push_back(req);
        Ok(())
    }

    /// Runs one scheduler iteration — admit → capacity → sample → plan →
    /// issue → settle → evict (see the module docs) — and returns the
    /// requests that finished.
    pub fn step(&mut self) -> Vec<Completion> {
        let _g = tel::span("serve", "step").arg("active", self.active.len() as i64);
        self.stats.iterations += 1;
        self.tick_decode_rows = 0;
        self.tick_prefill_tokens = 0;
        self.admit();
        self.stats.max_active_observed = self.stats.max_active_observed.max(self.active.len());
        self.note_block_peak();
        // Indices of the sequences that finish this iteration.
        let mut finished: Vec<usize> = Vec::new();
        if self.cfg.unified.is_none() {
            // Phase-serialized: each cold sequence's chunk is a pass of
            // its own, issued before sampling, so a prompt that finishes
            // prefilling is sampled in the same iteration.
            for run in self.cold_runs(usize::MAX) {
                let pass = Pass {
                    verb: Verb::Prefill,
                    runs: vec![run],
                };
                self.issue(pass, &mut finished);
            }
        }
        self.ensure_capacity();
        let candidates = self.sample_warm(&mut finished);
        let runs = self.propose(candidates);
        for pass in self.plan(runs) {
            self.issue(pass, &mut finished);
        }
        // Eviction removes back-to-front and needs ascending indices;
        // sampling-pass and verify-pass finishes interleave.
        finished.sort_unstable();
        self.note_block_peak();
        let done = self.evict(finished);
        let tick_tokens = self.tick_decode_rows + self.tick_prefill_tokens;
        if tel::enabled() {
            tel::metrics::gauge_set("serve.queue_depth", self.queue.len() as f64);
            tel::metrics::gauge_set("serve.active", self.active.len() as f64);
            tel::metrics::gauge_set("serve.tick_tokens", tick_tokens as f64);
            if self.paged.is_some() {
                tel::metrics::gauge_set("serve.blocks_in_use", self.blocks_in_use() as f64);
                tel::metrics::gauge_set("serve.blocks_cached", self.blocks_cached() as f64);
                let frag = self.kv_fragmentation();
                tel::metrics::gauge_set("serve.kv_fragmentation", frag);
            }
        }
        if self.recorder.is_some() {
            // The per-tick token capacity: the unified token budget, or
            // the phase-serialized decode batch cap.
            let budget = self
                .cfg
                .unified
                .map_or(self.cfg.max_batch, |u| u.token_budget);
            let row = [
                self.now as f64,
                self.queue.len() as f64,
                self.active.len() as f64,
                self.preempted.len() as f64,
                self.tick_decode_rows as f64,
                self.tick_prefill_tokens as f64,
                tick_tokens as f64,
                tick_tokens as f64 / budget.max(1) as f64,
                self.blocks_in_use() as f64,
                self.blocks_cached() as f64,
                self.stats.prefix_hit_tokens as f64,
                self.stats.preemptions as f64,
            ];
            if let Some(r) = self.recorder.as_mut() {
                r.ticks.push(&row);
            }
        }
        done
    }

    /// Releases finished requests' slots (and, on paged backends, their
    /// non-shared blocks) and builds their completions, in admission
    /// order.
    fn evict(&mut self, finished: Vec<usize>) -> Vec<Completion> {
        let mut done = Vec::with_capacity(finished.len());
        for &i in finished.iter().rev() {
            let a = self.active.remove(i);
            let completion = Completion {
                id: a.req.id,
                arrival: a.req.arrival,
                admitted_at: a.admitted_at,
                first_token_at: a.first_token_at,
                finished_at: self.now,
                slot_index: a.slot.index(),
                admission_seq: a.admission_seq,
                tokens: a.generated,
                token_ticks: a.token_ticks,
            };
            self.release_slot(a.slot);
            record(
                &mut self.recorder,
                self.now,
                completion.id,
                EventKind::Completed {
                    tokens: completion.tokens.len() as u32,
                },
            );
            if tel::enabled() {
                tel::metrics::counter_add("serve.tokens_generated", completion.tokens.len() as u64);
                if let Some(ttft) = completion.ttft() {
                    tel::metrics::observe("serve.ttft_ticks", ttft);
                }
                tel::metrics::observe("serve.e2e_ticks", completion.e2e());
                for w in completion.token_ticks.windows(2) {
                    tel::metrics::observe("serve.itl_ticks", w[1] - w[0]);
                }
            }
            self.stats.completed += 1;
            done.push(completion);
        }
        #[cfg(debug_assertions)]
        if self.active.is_empty() {
            if let Err(e) = self.check_paged_invariants() {
                panic!("paged-KV invariants violated at idle: {e}");
            }
        }
        done.reverse();
        done
    }

    /// Drives the engine to completion over a [`TrafficSource`],
    /// synchronously and deterministically. Returns every completion in
    /// finish order.
    pub fn run_with_source(&mut self, source: &mut dyn TrafficSource) -> Vec<Completion> {
        let mut completions = Vec::new();
        loop {
            let room = self.cfg.queue_cap.saturating_sub(self.queue.len());
            if room > 0 {
                for req in source.poll(self.now, self.outstanding(), room) {
                    self.submit(req).expect("room was checked");
                }
            }
            if self.is_idle() {
                if source.is_exhausted() {
                    break;
                }
                // Jump the virtual clock to the next arrival; the +1 is a
                // progress guarantee against a source whose next_arrival
                // never becomes due.
                match source.next_arrival(0) {
                    Some(t) if t > self.now => self.now = t,
                    Some(_) => self.now += 1,
                    None => break,
                }
                continue;
            }
            completions.extend(self.step());
        }
        completions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CpuBackend;
    use speedllm_llama::config::ModelConfig;
    use speedllm_llama::forward::Transformer;
    use speedllm_llama::generate::{generate, GenerateOptions};
    use speedllm_llama::tokenizer::Tokenizer;
    use speedllm_llama::weights::TransformerWeights;
    use speedllm_pagedkv::BlockConfig;

    /// A tiny-model CPU engine: paged over `blocks` (`block_size`,
    /// `n_blocks`) or flat, unified at `unified` (`token_budget`,
    /// `prefill_pct`) or phase-serialized.
    pub(super) fn tiny_engine(
        slots: usize,
        blocks: Option<(usize, usize)>,
        unified: Option<(usize, u32)>,
    ) -> ServeEngine<CpuBackend> {
        let model = Transformer::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
        let backend = match blocks {
            None => CpuBackend::new(model),
            Some((block_size, n_blocks)) => CpuBackend::new_paged(
                model,
                BlockConfig {
                    block_size,
                    n_blocks,
                },
            ),
        };
        let unified = unified.map(|(token_budget, prefill_pct)| UnifiedConfig {
            token_budget,
            prefill_pct,
        });
        ServeEngine::new(
            backend,
            ServeConfig {
                slots,
                max_batch: 8,
                prefill_chunk: 4,
                queue_cap: 16,
                unified,
            },
        )
    }

    pub(super) fn cpu_engine(slots: usize) -> ServeEngine<CpuBackend> {
        tiny_engine(slots, None, None)
    }

    pub(super) fn cpu_paged_engine(
        slots: usize,
        block_size: usize,
        n_blocks: usize,
    ) -> ServeEngine<CpuBackend> {
        tiny_engine(slots, Some((block_size, n_blocks)), None)
    }

    pub(super) fn req(id: u64, prompt: Vec<u32>, max_new: usize, seed: u64) -> Request {
        Request {
            id,
            prompt,
            max_new_tokens: max_new,
            stop_at_eos: true,
            sampler: SamplerKind::Temperature(0.8),
            seed,
            arrival: 0,
        }
    }

    pub(super) fn drain(engine: &mut ServeEngine<CpuBackend>) -> Vec<Completion> {
        let mut out = Vec::new();
        while !engine.is_idle() {
            out.extend(engine.step());
        }
        out
    }

    pub(super) fn cpu_unified_engine(
        slots: usize,
        budget: usize,
        pct: u32,
    ) -> ServeEngine<CpuBackend> {
        tiny_engine(slots, None, Some((budget, pct)))
    }

    #[test]
    fn batched_tokens_match_sequential_generate() {
        let mut engine = cpu_engine(2);
        let tok = Tokenizer::synthetic(64, 42);
        let prompts = ["once upon", "hello there", "abc"];
        for (i, p) in prompts.iter().enumerate() {
            let prompt = tok.encode(p, true, false);
            engine
                .submit(req(i as u64, prompt, 10, 100 + i as u64))
                .unwrap();
        }
        let mut completions = drain(&mut engine);
        completions.sort_by_key(|c| c.id);
        assert_eq!(completions.len(), 3);

        for (i, p) in prompts.iter().enumerate() {
            let mut oracle =
                Transformer::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
            let mut sampler = Sampler::new(SamplerKind::Temperature(0.8), 100 + i as u64);
            let want = generate(
                &mut oracle,
                &tok,
                &mut sampler,
                p,
                GenerateOptions {
                    max_new_tokens: 10,
                    stop_at_eos: true,
                },
            );
            assert_eq!(
                completions[i].tokens, want.generated_tokens,
                "request {i} diverged from sequential oracle"
            );
        }
    }

    #[test]
    fn zero_budget_request_completes_with_no_tokens() {
        let mut engine = cpu_engine(1);
        engine.submit(req(0, vec![1, 5], 0, 9)).unwrap();
        let done = drain(&mut engine);
        assert_eq!(done.len(), 1);
        assert!(done[0].tokens.is_empty());
        assert!(done[0].first_token_at.is_none());
        assert!(engine.all_slots_free());
    }

    #[test]
    fn admission_is_fifo_and_slots_bound_concurrency() {
        let mut engine = cpu_engine(2);
        for i in 0..6 {
            engine
                .submit(req(i, vec![1, (i + 3) as u32], 4, i))
                .unwrap();
        }
        let done = drain(&mut engine);
        assert_eq!(done.len(), 6);
        // Admission order must follow submission order.
        let mut by_id: Vec<_> = done.clone();
        by_id.sort_by_key(|c| c.id);
        for (i, c) in by_id.iter().enumerate() {
            assert_eq!(c.admission_seq, i as u64, "FIFO admission violated");
        }
        // Two slots only: slot indices stay within the pool.
        assert!(done.iter().all(|c| c.slot_index < 2));
        assert!(engine.all_slots_free());
        assert!(
            engine.slot_reuses() >= 4,
            "6 requests through 2 slots must reuse"
        );
    }

    #[test]
    fn backpressure_rejects_when_queue_full_and_counts_it() {
        let model = Transformer::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
        let mut engine = ServeEngine::new(
            CpuBackend::new(model),
            ServeConfig {
                slots: 1,
                max_batch: 4,
                prefill_chunk: 4,
                queue_cap: 2,
                unified: None,
            },
        );
        assert!(engine.submit(req(0, vec![1, 3], 2, 0)).is_ok());
        assert!(engine.submit(req(1, vec![1, 3], 2, 1)).is_ok());
        assert_eq!(engine.stats().rejected, 0);
        let back = engine.submit(req(2, vec![1, 3], 2, 2));
        assert_eq!(back.unwrap_err().id, 2, "queue_cap=2 must reject the third");
        assert_eq!(engine.stats().rejected, 1, "rejection must be counted");
        let back = engine.submit(req(3, vec![1, 3], 2, 3));
        assert_eq!(back.unwrap_err().id, 3);
        assert_eq!(engine.stats().rejected, 2);
        // Rejections do not disturb the accepted work.
        let done = drain(&mut engine);
        assert_eq!(done.len(), 2);
        assert_eq!(engine.stats().rejected, 2);
    }

    #[test]
    fn virtual_clock_advances_and_timestamps_are_ordered() {
        let mut engine = cpu_engine(2);
        engine.submit(req(0, vec![1, 4, 9, 22, 7], 6, 3)).unwrap();
        let done = drain(&mut engine);
        let c = &done[0];
        assert!(engine.now() > 0);
        assert!(c.admitted_at >= c.arrival);
        let ft = c.first_token_at.expect("tokens were generated");
        assert!(ft >= c.admitted_at);
        assert!(c.finished_at >= ft);
        // TTFT covers at least the prompt's prefill cost (5 CPU ticks).
        assert!(c.ttft().unwrap() >= 5);
    }

    pub(super) fn draft_model(seed: u64) -> Transformer {
        Transformer::new(TransformerWeights::synthetic(
            ModelConfig::draft_for(&ModelConfig::test_tiny()),
            seed,
        ))
    }

    #[test]
    fn enable_speculative_rejects_bad_configs() {
        let err = cpu_engine(1)
            .enable_speculative(draft_model(9), 0)
            .unwrap_err();
        assert!(err.contains("k must be >= 1"), "{err}");
        let err = cpu_engine(1)
            .enable_speculative(draft_model(9), 64)
            .unwrap_err();
        assert!(err.contains("staging limit"), "{err}");
        // Vocabulary mismatch: stories260K speaks 512 tokens, the tiny
        // target 64.
        let wrong_vocab =
            Transformer::new(TransformerWeights::synthetic(ModelConfig::stories260k(), 9));
        let err = cpu_engine(1)
            .enable_speculative(wrong_vocab, 4)
            .unwrap_err();
        assert!(err.contains("vocabulary"), "{err}");
        // Context window too short to follow the target.
        let mut short = ModelConfig::test_tiny();
        short.seq_len /= 2;
        let short_draft = Transformer::new(TransformerWeights::synthetic(short, 9));
        let err = cpu_engine(1)
            .enable_speculative(short_draft, 4)
            .unwrap_err();
        assert!(err.contains("context window"), "{err}");
        let err = cpu_unified_engine(1, 8, 50)
            .enable_speculative(draft_model(9), 4)
            .unwrap_err();
        assert!(err.contains("unified"), "{err}");
    }
}
