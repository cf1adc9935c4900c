//! End-to-end text generation on the CPU reference model, with the same
//! latency/throughput accounting the paper's host program performs (total
//! inference time; decode throughput = generated tokens / decode time).

use std::time::{Duration, Instant};

use speedllm_telemetry as tel;

use crate::forward::Transformer;
use crate::kv_cache::KvCache;
use crate::sampler::Sampler;
use crate::tokenizer::{Tokenizer, TOKEN_BOS, TOKEN_EOS};

/// Limits and termination policy for a generation run.
#[derive(Debug, Clone, Copy)]
pub struct GenerateOptions {
    /// Maximum number of *new* tokens to produce.
    pub max_new_tokens: usize,
    /// Stop early if EOS is produced.
    pub stop_at_eos: bool,
}

impl Default for GenerateOptions {
    fn default() -> Self {
        Self {
            max_new_tokens: 64,
            stop_at_eos: true,
        }
    }
}

/// Result of a generation run, including the paper's two headline metrics.
#[derive(Debug, Clone)]
pub struct GenerateOutput {
    /// Prompt token ids (BOS included).
    pub prompt_tokens: Vec<u32>,
    /// Newly generated token ids (EOS excluded).
    pub generated_tokens: Vec<u32>,
    /// Decoded generated text.
    pub text: String,
    /// Wall-clock time of the prefill stage.
    pub prefill_time: Duration,
    /// Wall-clock time of the decode stage.
    pub decode_time: Duration,
}

impl GenerateOutput {
    /// Total inference latency (prefill + decode), the paper's latency
    /// metric.
    #[must_use]
    pub fn total_latency(&self) -> Duration {
        self.prefill_time + self.decode_time
    }

    /// Decode throughput in tokens per second, the paper's throughput
    /// metric. Zero-token and zero-duration runs report `0.0` rather than
    /// NaN/inf (see [`safe_rate`]).
    #[must_use]
    pub fn decode_tokens_per_sec(&self) -> f64 {
        safe_rate(
            self.generated_tokens.len() as f64,
            self.decode_time.as_secs_f64(),
        )
    }
}

/// `count / secs` with every degenerate case pinned to `0.0`: a run that
/// produced no tokens, took no measurable time (`0/0` would be NaN), or
/// whose clock misbehaved (negative or non-finite denominator) must never
/// leak NaN/inf into aggregated reports — serving-layer percentiles and
/// the serve-bench summary both feed from this.
#[must_use]
pub fn safe_rate(count: f64, secs: f64) -> f64 {
    if count <= 0.0 || secs <= 0.0 || !secs.is_finite() || !count.is_finite() {
        return 0.0;
    }
    count / secs
}

/// Stepwise decoding over a [`Transformer`]: prefill once at
/// construction, then pull one token per [`DecodeSession::step`] call.
///
/// This is `generate()`'s engine, exposed as the sequential oracle one
/// request at a time: the serve equivalence suites and the benchmark's
/// correctness check step a session per request and compare its tokens
/// with the batched scheduler's. The per-step ordering — sample from the
/// previous logits, check EOS *before* emitting, then run the forward
/// pass — is exactly the loop `generate()` always ran, so a session
/// stepped to exhaustion reproduces `generate()` bit-for-bit.
pub struct DecodeSession<'m> {
    model: &'m mut Transformer,
    kv: KvCache,
    prompt_len: usize,
    /// Next position to decode into.
    pos: usize,
    /// One past the last position the budget/context allows.
    end_pos: usize,
    logits: Vec<f32>,
    stop_at_eos: bool,
    finished: bool,
}

impl<'m> DecodeSession<'m> {
    /// Prefills `prompt_tokens` into a fresh sequence of its own and
    /// leaves the session ready to decode.
    ///
    /// # Panics
    /// Panics if the prompt is empty or exceeds the context window.
    pub fn begin(
        model: &'m mut Transformer,
        prompt_tokens: &[u32],
        options: GenerateOptions,
    ) -> Self {
        let seq_len = model.config().seq_len;
        assert!(!prompt_tokens.is_empty(), "prompt must not be empty");
        assert!(
            prompt_tokens.len() <= seq_len,
            "prompt of {} tokens exceeds context window {}",
            prompt_tokens.len(),
            seq_len
        );

        // Prefill: feed every prompt token; only the last logits matter.
        let mut kv = KvCache::new(model.config());
        let mut logits: Vec<f32> = Vec::new();
        for (pos, &tok) in prompt_tokens.iter().enumerate() {
            let _g = tel::span("host", "prefill_token").arg("pos", pos as i64);
            let t0 = tel::enabled().then(Instant::now);
            logits = model.forward_with_kv(&mut kv, tok, pos).to_vec();
            if let Some(t0) = t0 {
                tel::metrics::observe("llama.prefill_token_ns", t0.elapsed().as_nanos() as u64);
            }
        }

        let prompt_len = prompt_tokens.len();
        Self {
            model,
            kv,
            prompt_len,
            pos: prompt_len,
            end_pos: (prompt_len + options.max_new_tokens).min(seq_len),
            logits,
            stop_at_eos: options.stop_at_eos,
            finished: false,
        }
    }

    /// Samples and commits one token, returning it — or `None` once the
    /// budget/context is exhausted or EOS was sampled (EOS is never
    /// emitted).
    pub fn step(&mut self, sampler: &mut Sampler) -> Option<u32> {
        if self.finished || self.pos >= self.end_pos {
            self.finished = true;
            return None;
        }
        let next = sampler.sample(&self.logits);
        if self.stop_at_eos && (next == TOKEN_EOS || next == TOKEN_BOS) {
            self.finished = true;
            return None;
        }
        let _g = tel::span("host", "decode_token").arg("pos", self.pos as i64);
        let t0 = tel::enabled().then(Instant::now);
        self.logits = Vec::from(self.model.forward_with_kv(&mut self.kv, next, self.pos));
        if let Some(t0) = t0 {
            tel::metrics::observe("llama.decode_token_ns", t0.elapsed().as_nanos() as u64);
        }
        self.pos += 1;
        Some(next)
    }

    /// Logits from the most recent forward pass.
    #[must_use]
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }

    /// Prompt length in tokens (positions consumed by prefill).
    #[must_use]
    pub fn prompt_len(&self) -> usize {
        self.prompt_len
    }

    /// True once `step` has returned `None` for any reason.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Decode steps still allowed by the token budget / context window.
    #[must_use]
    pub fn remaining_budget(&self) -> usize {
        if self.finished {
            0
        } else {
            self.end_pos - self.pos
        }
    }
}

/// Tokenizes `prompt`, prefills, then decodes up to
/// `options.max_new_tokens` tokens with `sampler`.
///
/// Each call decodes an independent sequence of its own.
///
/// # Panics
/// Panics if the prompt alone exceeds the model's context window.
pub fn generate(
    model: &mut Transformer,
    tokenizer: &Tokenizer,
    sampler: &mut Sampler,
    prompt: &str,
    options: GenerateOptions,
) -> GenerateOutput {
    let prompt_tokens = tokenizer.encode(prompt, true, false);

    let prefill_start = Instant::now();
    let mut session = DecodeSession::begin(model, &prompt_tokens, options);
    let prefill_time = prefill_start.elapsed();

    let decode_start = Instant::now();
    let mut generated = Vec::with_capacity(options.max_new_tokens);
    while let Some(next) = session.step(sampler) {
        generated.push(next);
    }
    let decode_time = decode_start.elapsed();
    tel::metrics::counter_add("llama.tokens_generated", generated.len() as u64);

    let text = tokenizer.decode(&generated);
    GenerateOutput {
        prompt_tokens,
        generated_tokens: generated,
        text,
        prefill_time,
        decode_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::weights::TransformerWeights;

    fn setup() -> (Transformer, Tokenizer) {
        let cfg = ModelConfig::test_tiny();
        let model = Transformer::new(TransformerWeights::synthetic(cfg, 42));
        let tokenizer = Tokenizer::synthetic(cfg.vocab_size, 42);
        (model, tokenizer)
    }

    #[test]
    fn generates_up_to_limit() {
        let (mut model, tok) = setup();
        let mut sampler = Sampler::argmax();
        let opts = GenerateOptions {
            max_new_tokens: 8,
            stop_at_eos: false,
        };
        let out = generate(&mut model, &tok, &mut sampler, "ab", opts);
        assert!(!out.prompt_tokens.is_empty());
        assert!(out.generated_tokens.len() <= 8);
        assert!(!out.generated_tokens.is_empty());
    }

    #[test]
    fn generation_is_deterministic_with_seeded_sampler() {
        let (mut m1, tok) = setup();
        let (mut m2, _) = setup();
        let opts = GenerateOptions {
            max_new_tokens: 10,
            stop_at_eos: false,
        };
        let mut s1 = Sampler::new(crate::sampler::SamplerKind::Temperature(1.0), 5);
        let mut s2 = Sampler::new(crate::sampler::SamplerKind::Temperature(1.0), 5);
        let a = generate(&mut m1, &tok, &mut s1, "hi", opts);
        let b = generate(&mut m2, &tok, &mut s2, "hi", opts);
        assert_eq!(a.generated_tokens, b.generated_tokens);
        assert_eq!(a.text, b.text);
    }

    #[test]
    fn respects_context_window() {
        let (mut model, tok) = setup();
        let mut sampler = Sampler::argmax();
        // Prompt close to the window; generation must stop at seq_len.
        let opts = GenerateOptions {
            max_new_tokens: 1000,
            stop_at_eos: false,
        };
        let out = generate(&mut model, &tok, &mut sampler, "aaaa bbbb cccc", opts);
        assert!(out.prompt_tokens.len() + out.generated_tokens.len() <= 32);
    }

    #[test]
    fn consecutive_calls_reset_state() {
        let (mut model, tok) = setup();
        let mut sampler = Sampler::argmax();
        let opts = GenerateOptions {
            max_new_tokens: 5,
            stop_at_eos: false,
        };
        let a = generate(&mut model, &tok, &mut sampler, "xy", opts);
        let b = generate(&mut model, &tok, &mut sampler, "xy", opts);
        assert_eq!(a.generated_tokens, b.generated_tokens);
    }

    #[test]
    fn safe_rate_pins_degenerate_cases_to_zero() {
        assert_eq!(safe_rate(0.0, 1.0), 0.0);
        assert_eq!(safe_rate(5.0, 0.0), 0.0);
        assert_eq!(safe_rate(0.0, 0.0), 0.0);
        assert_eq!(safe_rate(5.0, -1.0), 0.0);
        assert_eq!(safe_rate(5.0, f64::NAN), 0.0);
        assert_eq!(safe_rate(5.0, f64::INFINITY), 0.0);
        assert_eq!(safe_rate(f64::NAN, 1.0), 0.0);
        assert_eq!(safe_rate(10.0, 2.0), 5.0);
    }

    #[test]
    fn zero_token_output_reports_zero_throughput() {
        let out = GenerateOutput {
            prompt_tokens: vec![1],
            generated_tokens: vec![],
            text: String::new(),
            prefill_time: Duration::from_millis(3),
            decode_time: Duration::ZERO,
        };
        let rate = out.decode_tokens_per_sec();
        assert_eq!(rate, 0.0);
        assert!(rate.is_finite());
    }

    #[test]
    fn decode_session_matches_generate() {
        let (mut m1, tok) = setup();
        let (mut m2, _) = setup();
        let opts = GenerateOptions {
            max_new_tokens: 12,
            stop_at_eos: true,
        };
        let mut s1 = Sampler::new(crate::sampler::SamplerKind::Temperature(0.9), 11);
        let mut s2 = Sampler::new(crate::sampler::SamplerKind::Temperature(0.9), 11);
        let oracle = generate(&mut m1, &tok, &mut s1, "hello", opts);

        let prompt_tokens = tok.encode("hello", true, false);
        let mut session = DecodeSession::begin(&mut m2, &prompt_tokens, opts);
        let mut stepped = Vec::new();
        while let Some(next) = session.step(&mut s2) {
            stepped.push(next);
        }
        assert_eq!(stepped, oracle.generated_tokens);
        assert!(session.is_finished());
        assert_eq!(session.prompt_len(), oracle.prompt_tokens.len());
    }

    #[test]
    fn decode_session_budget_tracks_steps() {
        let (mut model, tok) = setup();
        let prompt = tok.encode("ab", true, false);
        let opts = GenerateOptions {
            max_new_tokens: 3,
            stop_at_eos: false,
        };
        let mut session = DecodeSession::begin(&mut model, &prompt, opts);
        assert_eq!(session.remaining_budget(), 3);
        let mut sampler = Sampler::argmax();
        assert!(session.step(&mut sampler).is_some());
        assert_eq!(session.remaining_budget(), 2);
        assert!(session.step(&mut sampler).is_some());
        assert!(session.step(&mut sampler).is_some());
        assert_eq!(session.remaining_budget(), 0);
        assert!(session.step(&mut sampler).is_none());
        assert!(session.is_finished());
        assert_eq!(session.logits().len(), 64);
    }

    #[test]
    fn throughput_metric_is_positive() {
        let (mut model, tok) = setup();
        let mut sampler = Sampler::argmax();
        let opts = GenerateOptions {
            max_new_tokens: 6,
            stop_at_eos: false,
        };
        let out = generate(&mut model, &tok, &mut sampler, "q", opts);
        assert!(out.decode_tokens_per_sec() > 0.0);
        assert!(out.total_latency() >= out.decode_time);
    }
}
