//! Speculative decoding with exact equivalence: a cheap draft model
//! proposes K tokens greedily, the target scores the pending token plus
//! all K proposals in **one** weight-streaming verify pass
//! ([`Transformer::forward_runs`] with [`LogitRows::All`]), and the session
//! accepts the longest prefix on which the request sampler agrees —
//! rolling back draft and target KV state for everything past the accept
//! point.
//!
//! The decode path is memory-bandwidth-bound (DESIGN.md §10): every
//! non-speculative step streams the full weight matrix for one token. A
//! verify pass streams it once for K+1 tokens, so with acceptance rate
//! `a` the weight traffic per emitted token drops by roughly the mean
//! accepted run length — the single-stream analogue of batched decode.
//!
//! **Why the output is bit-identical to [`crate::generate::generate`]:**
//! the request sampler is invoked exactly once per emitted token, in
//! emission order, on logits that are bit-identical to what the
//! one-row calls would have produced for the same prefix (a multi-row run
//! computes every dense element with the same `dot` over the same
//! operands — see `forward_runs`). Draft proposals only
//! decide *which* logits rows get precomputed; they never influence a
//! sampled value. This holds for seeded temperature/top-p/top-k samplers
//! and repetition penalties too, because the sampler's RNG and recency
//! window advance through the identical call sequence. See DESIGN.md §16.

use crate::config::ModelConfig;
use crate::forward::{LogitRows, Transformer};
use crate::generate::GenerateOptions;
use crate::kv_cache::KvStore;
use crate::sampler::{self, Sampler};
use crate::tokenizer::{TOKEN_BOS, TOKEN_EOS};

/// A verification backend for speculative decoding: something that can
/// score a run of tokens in one pass (returning logits for **every**
/// row) and roll its KV state back to a shorter context.
///
/// The CPU implementation is [`CpuVerifier`]; the accelerator sim
/// provides its own in `speedllm-accel` so the same [`SpecSession`]
/// drives both.
pub trait VerifyTarget {
    /// The target model's architecture.
    fn config(&self) -> ModelConfig;
    /// Positions currently held in the target KV state.
    fn context_len(&self) -> usize;
    /// Forwards `tokens` at positions `start..start + tokens.len()` and
    /// writes the logits of every row into `out`, row-major
    /// `[tokens.len() * vocab]`. Afterwards the context holds
    /// `start + tokens.len()` positions.
    fn verify_into(&mut self, tokens: &[u32], start: usize, out: &mut Vec<f32>);
    /// Rolls the KV state back to `len` positions (no-op if already at or
    /// below `len`).
    fn truncate(&mut self, len: usize);
}

/// [`VerifyTarget`] over the CPU reference model and any [`KvStore`]
/// (flat cache or paged view). For a paged view, `truncate` shrinks the
/// *logical* mapping only — physical block reclamation stays with the
/// block-table owner (`BlockTable::rollback` in `speedllm-pagedkv`).
pub struct CpuVerifier<'a, K: KvStore + ?Sized> {
    model: &'a mut Transformer,
    kv: &'a mut K,
}

impl<'a, K: KvStore + ?Sized> CpuVerifier<'a, K> {
    /// Pairs the target model with the KV store carrying its context.
    pub fn new(model: &'a mut Transformer, kv: &'a mut K) -> Self {
        Self { model, kv }
    }
}

impl<K: KvStore + ?Sized> VerifyTarget for CpuVerifier<'_, K> {
    fn config(&self) -> ModelConfig {
        *self.model.config()
    }

    fn context_len(&self) -> usize {
        self.kv.kv_len()
    }

    fn verify_into(&mut self, tokens: &[u32], start: usize, out: &mut Vec<f32>) {
        let logits = self.model.forward_runs(
            [&mut *self.kv].as_mut_slice(),
            tokens,
            &[tokens.len()],
            &[start],
            LogitRows::All,
        );
        out.clear();
        out.extend_from_slice(logits);
    }

    fn truncate(&mut self, len: usize) {
        self.kv.truncate(len);
    }
}

/// Acceptance accounting for a speculative run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecMetrics {
    /// Draft tokens proposed (and scored by a verify pass).
    pub drafted: u64,
    /// Draft tokens the request sampler agreed with.
    pub accepted: u64,
    /// Verify passes issued.
    pub rounds: u64,
    /// Tokens emitted to the output stream (accepted drafts + the bonus
    /// token each round samples beyond its last agreeing draft).
    pub emitted: u64,
}

impl SpecMetrics {
    /// Fraction of drafted tokens accepted (`0.0` when nothing drafted).
    #[must_use]
    pub fn acceptance_rate(&self) -> f64 {
        if self.drafted == 0 {
            0.0
        } else {
            self.accepted as f64 / self.drafted as f64
        }
    }

    /// Mean accepted draft run length per verify round (`0.0` when no
    /// rounds ran).
    #[must_use]
    pub fn mean_accepted_run(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.accepted as f64 / self.rounds as f64
        }
    }

    /// Folds another accounting into this one (serve aggregates
    /// per-sequence metrics into engine totals).
    pub fn merge(&mut self, other: &SpecMetrics) {
        self.drafted += other.drafted;
        self.accepted += other.accepted;
        self.rounds += other.rounds;
        self.emitted += other.emitted;
    }
}

/// What the session is holding between rounds.
#[derive(Debug, Clone)]
enum Pending {
    /// Logits after the last history token; the next emission samples
    /// from these (the state right after prefill).
    Logits(Vec<f32>),
    /// The last history token has been emitted but not yet forwarded
    /// through the target; the target context is `history.len() - 1`.
    Token(u32),
}

/// Speculative decoding session: draft-K-ahead, verify-in-one-pass,
/// accept the longest sampler-agreeing prefix, roll back the rest.
///
/// The session owns only *state* (token history, pending logits/token,
/// metrics); the target backend, draft model, draft KV store, and
/// request sampler are passed into each [`SpecSession::round`] call so a
/// server can multiplex one draft model over many sequences.
///
/// Invariants between rounds (enforced with debug assertions):
/// - `Pending::Logits` ⇒ target context == `history.len()` and the
///   logits are those after the final history token;
/// - `Pending::Token(x)` ⇒ `x == *history.last()` and target context ==
///   `history.len() - 1` (`x` is emitted but not yet forwarded);
/// - the draft KV holds some prefix of `history` (it is truncated or
///   caught up lazily at the start of each round).
pub struct SpecSession {
    k: usize,
    history: Vec<u32>,
    prompt_len: usize,
    pending: Pending,
    /// One past the last position the budget/context allows.
    end_pos: usize,
    stop_at_eos: bool,
    finished: bool,
    metrics: SpecMetrics,
    /// Verify-pass logits scratch, `[(J + 1) * vocab]`.
    scratch: Vec<f32>,
}

impl SpecSession {
    /// Prefills `prompt_tokens` through `target` (one batched verify
    /// pass) and leaves the session ready to decode up to
    /// `options.max_new_tokens` tokens, drafting `k` ahead per round.
    ///
    /// # Panics
    /// Panics if `k == 0`, the prompt is empty or exceeds the context
    /// window, or the target already holds context (sessions start cold;
    /// a server resuming from its own prefill uses
    /// [`SpecSession::from_prefilled`]).
    pub fn begin<T: VerifyTarget>(
        target: &mut T,
        prompt_tokens: &[u32],
        k: usize,
        options: GenerateOptions,
    ) -> Self {
        let cfg = target.config();
        assert!(!prompt_tokens.is_empty(), "prompt must not be empty");
        assert!(
            prompt_tokens.len() <= cfg.seq_len,
            "prompt of {} tokens exceeds context window {}",
            prompt_tokens.len(),
            cfg.seq_len
        );
        assert_eq!(target.context_len(), 0, "target context must start cold");
        let mut logits = Vec::new();
        target.verify_into(prompt_tokens, 0, &mut logits);
        // Only the final row's logits are observable after prefill.
        let vocab = cfg.vocab_size;
        let last = logits.split_off((prompt_tokens.len() - 1) * vocab);
        Self::from_prefilled(prompt_tokens.to_vec(), last, cfg, k, options)
    }

    /// Builds a session from an already-prefilled context: `history` is
    /// the full prompt (all forwarded through the target) and `logits`
    /// are the target logits after its final token. The serving layer
    /// uses this to hand chunked-prefill output to a speculative decode
    /// phase.
    ///
    /// # Panics
    /// Panics if `k == 0`, `history` is empty, or `logits` is not one
    /// vocabulary row.
    pub fn from_prefilled(
        history: Vec<u32>,
        logits: Vec<f32>,
        config: ModelConfig,
        k: usize,
        options: GenerateOptions,
    ) -> Self {
        assert!(k >= 1, "speculative depth k must be >= 1");
        assert!(!history.is_empty(), "prefilled history must not be empty");
        assert_eq!(logits.len(), config.vocab_size, "one logits row expected");
        let prompt_len = history.len();
        Self {
            k,
            history,
            prompt_len,
            pending: Pending::Logits(logits),
            end_pos: (prompt_len + options.max_new_tokens).min(config.seq_len),
            stop_at_eos: options.stop_at_eos,
            finished: false,
            metrics: SpecMetrics::default(),
            scratch: Vec::new(),
        }
    }

    /// True once the budget/context is exhausted or EOS was sampled.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Acceptance accounting so far.
    #[must_use]
    pub fn metrics(&self) -> &SpecMetrics {
        &self.metrics
    }

    /// Prompt + emitted tokens, in order.
    #[must_use]
    pub fn history(&self) -> &[u32] {
        &self.history
    }

    /// Tokens emitted so far (the generated stream).
    #[must_use]
    pub fn emitted(&self) -> &[u32] {
        &self.history[self.prompt_len..]
    }

    /// Runs one draft→verify→accept round, appending newly emitted
    /// tokens to `out` and returning how many were emitted. Returns `0`
    /// once finished. `sampler` must be the request sampler — it is
    /// called exactly once per emitted token (plus once for a sampled
    /// EOS), exactly as sequential decoding would.
    ///
    /// `draft`/`draft_kv` carry the draft model and this sequence's
    /// draft context; the draft must share the target's vocabulary and
    /// its context window must cover the target's.
    pub fn round<T, K>(
        &mut self,
        target: &mut T,
        draft: &mut Transformer,
        draft_kv: &mut K,
        sampler: &mut Sampler,
        out: &mut Vec<u32>,
    ) -> usize
    where
        T: VerifyTarget,
        K: KvStore + ?Sized,
    {
        if self.finished {
            return 0;
        }
        let cfg = target.config();
        debug_assert_eq!(
            draft.config().vocab_size,
            cfg.vocab_size,
            "draft and target vocabularies must match"
        );
        let emitted_before = out.len();

        // Ensure a pending *token*: right after prefill the session holds
        // logits instead, so sample the first emission here.
        let x = match &mut self.pending {
            Pending::Token(x) => *x,
            Pending::Logits(logits) => {
                if self.history.len() >= self.end_pos {
                    self.finished = true;
                    return 0;
                }
                let logits = std::mem::take(logits);
                let y = sampler.sample(&logits);
                if self.stop_at_eos && (y == TOKEN_EOS || y == TOKEN_BOS) {
                    self.finished = true;
                    return 0;
                }
                self.emit(y, out);
                if self.history.len() >= self.end_pos {
                    // Budget spent on this token; no verify pass needed.
                    self.finished = true;
                    self.pending = Pending::Token(y);
                    return out.len() - emitted_before;
                }
                self.pending = Pending::Token(y);
                y
            }
        };

        // `x` sits at history index `n`; the target holds positions 0..n.
        let n = self.history.len() - 1;
        debug_assert_eq!(target.context_len(), n, "target context out of sync");

        // Draft sync: truncate past the accept point, or lazily catch up
        // on history the draft has not seen (first round, or after the
        // serving layer prefilled the target out-of-band).
        let draft_ctx = draft_kv.kv_len();
        if draft_ctx > n {
            draft_kv.truncate(n);
        } else {
            for i in draft_ctx..n {
                draft.forward_with_kv(draft_kv, self.history[i], i);
            }
        }

        // Propose greedily. Budget cap: a round can usefully emit at most
        // `budget` tokens, and the j-th accepted draft is the (j+1)-th
        // emission, so drafting past `budget - 1` is wasted work. The
        // window cap keeps verify positions inside the target context.
        let budget = self.end_pos - self.history.len();
        let j_max = self
            .k
            .min(budget.saturating_sub(1))
            .min(cfg.seq_len - 1 - n);
        let mut run = Vec::with_capacity(j_max + 1);
        run.push(x);
        let mut cur = x;
        for off in 0..j_max {
            let logits = draft.forward_with_kv(draft_kv, cur, n + off);
            cur = sampler::argmax(logits);
            run.push(cur);
        }
        self.metrics.drafted += j_max as u64;

        // One target pass scores every row; afterwards the target holds
        // n + run.len() positions (to be rolled back past the accept
        // point below).
        let mut scratch = std::mem::take(&mut self.scratch);
        target.verify_into(&run, n, &mut scratch);
        self.metrics.rounds += 1;
        let vocab = cfg.vocab_size;

        // Accept loop: row j holds the logits after run[j]; the request
        // sampler decides the token at position n + j + 1. Each sampled
        // token is compared against the next draft; the first
        // disagreement (or the bonus token past the last draft) ends the
        // round.
        let last = run.len() - 1;
        for j in 0..run.len() {
            let row = &scratch[j * vocab..(j + 1) * vocab];
            let y = sampler.sample(row);
            if self.stop_at_eos && (y == TOKEN_EOS || y == TOKEN_BOS) {
                // Nothing emitted for EOS; drop rows past the history.
                self.finished = true;
                target.truncate(n + j + 1);
                break;
            }
            self.emit(y, out);
            let matched = j < last && y == run[j + 1];
            if matched {
                self.metrics.accepted += 1;
            }
            if self.history.len() >= self.end_pos {
                // Budget exhausted; keep exactly the rows backing the
                // history (y itself is forwarded only if it matched).
                self.finished = true;
                target.truncate(n + j + 1 + usize::from(matched));
                break;
            }
            if !matched {
                // `y` replaces the rejected draft: roll both sides back
                // to the agreed prefix. `y` is emitted but not yet
                // forwarded — it becomes the next round's pending token.
                self.pending = Pending::Token(y);
                target.truncate(n + j + 1);
                draft_kv.truncate(n + j + 1);
                break;
            }
        }
        self.scratch = scratch;
        out.len() - emitted_before
    }

    fn emit(&mut self, y: u32, out: &mut Vec<u32>) {
        self.history.push(y);
        self.metrics.emitted += 1;
        out.push(y);
    }
}

/// Drives a [`SpecSession`] to completion, returning the emitted stream —
/// the speculative twin of collecting [`crate::generate::DecodeSession`]
/// steps. The stream is bit-identical to sequential decoding with the
/// same `sampler` seed.
pub fn run_speculative<T, K>(
    session: &mut SpecSession,
    target: &mut T,
    draft: &mut Transformer,
    draft_kv: &mut K,
    sampler: &mut Sampler,
) -> Vec<u32>
where
    T: VerifyTarget,
    K: KvStore + ?Sized,
{
    let mut out = Vec::new();
    while !session.is_finished() {
        session.round(target, draft, draft_kv, sampler, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{DecodeSession, GenerateOptions};
    use crate::kv_cache::KvCache;
    use crate::sampler::SamplerKind;
    use crate::weights::TransformerWeights;

    fn target() -> Transformer {
        Transformer::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42))
    }

    fn draft() -> Transformer {
        // An *independent* tiny model: same vocab/window, different seed,
        // so acceptance is imperfect and rollback paths actually run.
        Transformer::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 9))
    }

    fn sequential_stream(prompt: &[u32], sampler: &mut Sampler, opts: GenerateOptions) -> Vec<u32> {
        let mut model = target();
        let mut session = DecodeSession::begin(&mut model, prompt, opts);
        let mut out = Vec::new();
        while let Some(t) = session.step(sampler) {
            out.push(t);
        }
        out
    }

    #[test]
    fn matches_sequential_greedy_and_seeded() {
        let cfg = ModelConfig::test_tiny();
        let prompt = [1u32, 5, 9];
        for opts in [
            GenerateOptions {
                max_new_tokens: 12,
                stop_at_eos: true,
            },
            GenerateOptions {
                max_new_tokens: 24,
                stop_at_eos: false,
            },
        ] {
            for kind in [
                SamplerKind::Argmax,
                SamplerKind::Temperature(0.8),
                SamplerKind::TopP {
                    temperature: 1.0,
                    p: 0.9,
                },
            ] {
                let want = sequential_stream(&prompt, &mut Sampler::new(kind, 7), opts);
                for k in [1usize, 2, 4, 8] {
                    let mut tmodel = target();
                    let mut tkv = KvCache::new(&cfg);
                    let mut dmodel = draft();
                    let mut dkv = KvCache::new(&cfg);
                    let mut verifier = CpuVerifier::new(&mut tmodel, &mut tkv);
                    let mut session = SpecSession::begin(&mut verifier, &prompt, k, opts);
                    let got = run_speculative(
                        &mut session,
                        &mut verifier,
                        &mut dmodel,
                        &mut dkv,
                        &mut Sampler::new(kind, 7),
                    );
                    assert_eq!(got, want, "k={k} kind={kind:?} opts={opts:?}");
                    assert_eq!(session.emitted(), &want[..]);
                }
            }
        }
    }

    #[test]
    fn self_draft_accepts_everything() {
        // Draft == target under greedy sampling: every proposal must be
        // accepted, so each round emits k accepted tokens plus a bonus.
        let cfg = ModelConfig::test_tiny();
        let prompt = [2u32, 3];
        let opts = GenerateOptions {
            max_new_tokens: 9,
            stop_at_eos: false,
        };
        let mut tmodel = target();
        let mut tkv = KvCache::new(&cfg);
        let mut dmodel = target();
        let mut dkv = KvCache::new(&cfg);
        let mut verifier = CpuVerifier::new(&mut tmodel, &mut tkv);
        let mut session = SpecSession::begin(&mut verifier, &prompt, 4, opts);
        let got = run_speculative(
            &mut session,
            &mut verifier,
            &mut dmodel,
            &mut dkv,
            &mut Sampler::argmax(),
        );
        let want = sequential_stream(&prompt, &mut Sampler::argmax(), opts);
        assert_eq!(got, want);
        let m = *session.metrics();
        assert_eq!(m.accepted, m.drafted, "greedy self-draft must fully agree");
        assert!(m.drafted > 0);
        assert_eq!(m.acceptance_rate(), 1.0);
    }

    #[test]
    fn post_rejection_kv_matches_fresh_prefill() {
        // Rollback oracle: after a full speculative run, the target KV
        // bytes over the kept context must equal a from-scratch prefill
        // of the same history — no stale draft rows survive.
        let cfg = ModelConfig::test_tiny();
        let prompt = [4u32, 8, 1];
        let opts = GenerateOptions {
            max_new_tokens: 10,
            stop_at_eos: false,
        };
        let mut tmodel = target();
        let mut tkv = KvCache::new(&cfg);
        let mut dmodel = draft();
        let mut dkv = KvCache::new(&cfg);
        let mut verifier = CpuVerifier::new(&mut tmodel, &mut tkv);
        let mut session = SpecSession::begin(&mut verifier, &prompt, 3, opts);
        run_speculative(
            &mut session,
            &mut verifier,
            &mut dmodel,
            &mut dkv,
            &mut Sampler::new(SamplerKind::Temperature(0.9), 13),
        );
        assert!(session.metrics().accepted < session.metrics().drafted);

        let kept = tkv.len();
        let history = session.history().to_vec();
        assert!(kept <= history.len());
        let mut fresh_model = target();
        let mut fresh = KvCache::new(&cfg);
        for (pos, &tok) in history[..kept].iter().enumerate() {
            fresh_model.forward_with_kv(&mut fresh, tok, pos);
        }
        for layer in 0..cfg.n_layers {
            for pos in 0..kept {
                assert_eq!(
                    tkv.key_row(layer, pos),
                    fresh.key_row(layer, pos),
                    "stale K at layer {layer} pos {pos}"
                );
                assert_eq!(
                    tkv.value_row(layer, pos),
                    fresh.value_row(layer, pos),
                    "stale V at layer {layer} pos {pos}"
                );
            }
        }
    }

    #[test]
    fn budget_is_respected_exactly() {
        let cfg = ModelConfig::test_tiny();
        let prompt = [1u32, 2, 3, 4];
        for max_new in [1usize, 2, 5] {
            let opts = GenerateOptions {
                max_new_tokens: max_new,
                stop_at_eos: false,
            };
            let mut tmodel = target();
            let mut tkv = KvCache::new(&cfg);
            let mut dmodel = draft();
            let mut dkv = KvCache::new(&cfg);
            let mut verifier = CpuVerifier::new(&mut tmodel, &mut tkv);
            let mut session = SpecSession::begin(&mut verifier, &prompt, 4, opts);
            let got = run_speculative(
                &mut session,
                &mut verifier,
                &mut dmodel,
                &mut dkv,
                &mut Sampler::argmax(),
            );
            let want = sequential_stream(&prompt, &mut Sampler::argmax(), opts);
            assert_eq!(got, want, "max_new={max_new}");
            assert_eq!(got.len(), max_new.min(want.len()));
        }
    }

    #[test]
    #[should_panic(expected = "speculative depth k must be >= 1")]
    fn zero_k_is_rejected() {
        let cfg = ModelConfig::test_tiny();
        let mut tmodel = target();
        let mut tkv = KvCache::new(&cfg);
        let mut verifier = CpuVerifier::new(&mut tmodel, &mut tkv);
        SpecSession::begin(&mut verifier, &[1, 2], 0, GenerateOptions::default());
    }

    #[test]
    fn metrics_merge_accumulates() {
        let mut a = SpecMetrics {
            drafted: 4,
            accepted: 3,
            rounds: 2,
            emitted: 5,
        };
        let b = SpecMetrics {
            drafted: 6,
            accepted: 1,
            rounds: 3,
            emitted: 4,
        };
        a.merge(&b);
        assert_eq!(
            a,
            SpecMetrics {
                drafted: 10,
                accepted: 4,
                rounds: 5,
                emitted: 9,
            }
        );
        assert!((a.acceptance_rate() - 0.4).abs() < 1e-12);
        assert!((a.mean_accepted_run() - 0.8).abs() < 1e-12);
    }
}
