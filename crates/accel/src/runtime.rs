//! Host runtime: model + tokenizer + accelerator sessions.
//!
//! [`AcceleratedLlm`] owns the immutable assets (weights, tokenizer, the
//! chosen optimization configuration); [`Session`] wraps one engine
//! instance, the [`KvCache`] of the conversation it drives (the engine
//! owns no KV storage) and a sampler, and runs the paper's
//! host loop — tokenize, prefill, decode — while collecting the metrics
//! Fig. 2 reports: total inference latency (host timing function), decode
//! throughput (generated tokens over decode-stage time), and energy.

use std::sync::Arc;

use speedllm_telemetry as tel;

use speedllm_fpga_sim::cycles::{ClockDomain, Cycles};
use speedllm_fpga_sim::power::EnergyBreakdown;
use speedllm_fpga_sim::stats::SimStats;
use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::LogitRows;
use speedllm_llama::kv_cache::KvCache;
use speedllm_llama::resident::{IntoResident, ResidentWeights};
use speedllm_llama::sampler::{Sampler, SamplerKind};
use speedllm_llama::tokenizer::{Tokenizer, TOKEN_BOS, TOKEN_EOS};
use speedllm_llama::weights::TransformerWeights;

use crate::engine::{
    check_prefill_chunk, AccelConfig, Engine, EngineError, StepResult, STAGING_ROWS,
};
use crate::opt::OptConfig;

/// Errors surfaced by the runtime.
#[derive(Debug)]
pub enum RuntimeError {
    /// Engine construction failed (design does not fit the device).
    Engine(EngineError),
    /// The prompt does not fit the model's context window.
    PromptTooLong {
        /// Prompt length in tokens.
        tokens: usize,
        /// Context window.
        seq_len: usize,
    },
    /// The turn has no tokens to prefill: an empty prompt appended to a
    /// non-empty context (no BOS is added there), so there would be no
    /// logits to sample from.
    EmptyPrompt,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Engine(e) => write!(f, "{e}"),
            RuntimeError::PromptTooLong { tokens, seq_len } => {
                write!(
                    f,
                    "prompt of {tokens} tokens exceeds context window {seq_len}"
                )
            }
            RuntimeError::EmptyPrompt => write!(f, "empty prompt: nothing to prefill"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<EngineError> for RuntimeError {
    fn from(e: EngineError) -> Self {
        RuntimeError::Engine(e)
    }
}

/// An accelerated model: immutable weights + tokenizer + configuration.
pub struct AcceleratedLlm {
    /// Resident once, at `opt.precision`; every session's engine shares
    /// them.
    weights: Arc<ResidentWeights>,
    tokenizer: Arc<Tokenizer>,
    opt: OptConfig,
    accel: AccelConfig,
}

impl AcceleratedLlm {
    /// Wraps a tokenizer and weights: a checkpoint, made resident here
    /// once at `opt.precision`, or resident weights already at it.
    pub fn new(
        weights: impl IntoResident,
        tokenizer: Tokenizer,
        opt: OptConfig,
    ) -> Result<Self, RuntimeError> {
        let accel = AccelConfig::for_opt(&opt);
        // A first engine makes the weights resident, and fails here — not
        // in `session` — if the design point does not fit the device's
        // fabric or the model its HBM.
        let engine = Engine::with_config(weights, opt, accel)?;
        Ok(Self {
            weights: Arc::clone(engine.weights()),
            tokenizer: Arc::new(tokenizer),
            opt,
            accel,
        })
    }

    /// Builds a synthetic model of the given architecture (seeded weights
    /// and vocabulary) — the substitution for the real TinyStories
    /// checkpoint (DESIGN.md §2).
    pub fn synthetic(config: ModelConfig, seed: u64, opt: OptConfig) -> Result<Self, RuntimeError> {
        let weights = TransformerWeights::synthetic(config, seed);
        let tokenizer = Tokenizer::synthetic(config.vocab_size, seed ^ 0x5eed);
        Self::new(weights, tokenizer, opt)
    }

    /// The model architecture.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        self.weights.config()
    }

    /// The active optimization selection.
    #[must_use]
    pub fn opt(&self) -> &OptConfig {
        &self.opt
    }

    /// The design point.
    #[must_use]
    pub fn accel_config(&self) -> &AccelConfig {
        &self.accel
    }

    /// Sets the chunked-prefill length for sessions opened afterwards
    /// (1 = paper-faithful token-at-a-time).
    ///
    /// # Errors
    /// [`EngineError::PrefillChunk`] outside 1..=[`STAGING_ROWS`]; the
    /// chunk in use is then unchanged.
    pub fn set_prefill_chunk(&mut self, chunk: usize) -> Result<(), EngineError> {
        check_prefill_chunk(chunk)?;
        self.accel.prefill_chunk = chunk;
        Ok(())
    }

    /// The tokenizer.
    #[must_use]
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Shared handle to the weights.
    #[must_use]
    pub fn weights(&self) -> &Arc<ResidentWeights> {
        &self.weights
    }

    /// Opens an inference session with the given sampling policy.
    #[must_use]
    pub fn session(&self, sampler: SamplerKind, seed: u64) -> Session {
        let engine = Engine::with_config(Arc::clone(&self.weights), self.opt, self.accel)
            .expect("validated at construction");
        Session {
            kv: KvCache::new(self.config()),
            engine,
            tokenizer: Arc::clone(&self.tokenizer),
            sampler: Sampler::new(sampler, seed),
        }
    }
}

/// Generated tokens and text of one inference.
#[derive(Debug, Clone)]
pub struct GenerationOutput {
    /// Prompt token ids (BOS included).
    pub prompt_tokens: Vec<u32>,
    /// Generated token ids (EOS excluded).
    pub generated_tokens: Vec<u32>,
    /// Decoded text of the generation.
    pub text: String,
}

/// The paper's metrics for one inference run.
#[derive(Debug, Clone)]
pub struct InferenceReport {
    /// What was generated.
    pub output: GenerationOutput,
    /// Kernel clock used for time conversion.
    pub clock: ClockDomain,
    /// Device cycles spent in prefill.
    pub prefill_cycles: Cycles,
    /// Device cycles spent in decode.
    pub decode_cycles: Cycles,
    /// Per-decode-token cycle counts (latency distribution).
    pub per_token_cycles: Vec<Cycles>,
    /// Aggregated device activity (prefill + decode).
    pub stats: SimStats,
    /// Energy breakdown over the whole inference.
    pub energy: EnergyBreakdown,
}

impl InferenceReport {
    /// Total inference latency in seconds (the paper's latency metric).
    #[must_use]
    pub fn total_latency_s(&self) -> f64 {
        self.clock
            .to_seconds(self.prefill_cycles + self.decode_cycles)
    }

    /// Decode throughput in tokens/s (the paper's throughput metric).
    #[must_use]
    pub fn decode_tokens_per_s(&self) -> f64 {
        let secs = self.clock.to_seconds(self.decode_cycles);
        if secs == 0.0 {
            return 0.0;
        }
        self.output.generated_tokens.len() as f64 / secs
    }

    /// Energy efficiency in tokens per joule (Fig 2(b)'s metric).
    #[must_use]
    pub fn tokens_per_joule(&self) -> f64 {
        let j = self.energy.total_j();
        if j == 0.0 {
            return 0.0;
        }
        self.output.generated_tokens.len() as f64 / j
    }

    /// Average power over the run, watts.
    #[must_use]
    pub fn avg_power_w(&self) -> f64 {
        self.energy
            .avg_power_w(&self.clock, self.stats.total_cycles)
    }
}

/// One inference session: engine, its sequence's KV, sampler state.
pub struct Session {
    engine: Engine,
    /// The conversation's KV, the way a serve slot holds a request's.
    kv: KvCache,
    tokenizer: Arc<Tokenizer>,
    sampler: Sampler,
}

impl Session {
    /// Mutable access to the engine (trace capture, ablations).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// The engine.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Positions of the session's sequence (prompts and generations so far).
    #[must_use]
    pub fn context_len(&self) -> usize {
        self.kv.len()
    }

    /// Runs a full inference: tokenize, prefill, decode up to
    /// `max_new_tokens` (stopping at EOS/BOS). Resets the session's
    /// context first; use [`Session::append_generate`] for multi-turn
    /// conversations that keep the KV cache.
    pub fn generate(
        &mut self,
        prompt: &str,
        max_new_tokens: usize,
    ) -> Result<InferenceReport, RuntimeError> {
        self.kv.reset();
        self.append_generate(prompt, max_new_tokens)
    }

    /// Continues the conversation **without resetting the KV cache**: the
    /// new turn's tokens are appended after everything generated so far
    /// (BOS is only added on an empty context), so earlier turns stay
    /// visible to attention — real multi-turn chat, paying prefill only
    /// for the new text.
    pub fn append_generate(
        &mut self,
        prompt: &str,
        max_new_tokens: usize,
    ) -> Result<InferenceReport, RuntimeError> {
        let seq_len = self.engine.graph().config.seq_len;
        let start = self.kv.len();
        let prompt_tokens = self.tokenizer.encode(prompt, start == 0, false);
        if start + prompt_tokens.len() > seq_len {
            return Err(RuntimeError::PromptTooLong {
                tokens: start + prompt_tokens.len(),
                seq_len,
            });
        }
        if prompt_tokens.is_empty() {
            return Err(RuntimeError::EmptyPrompt);
        }

        // Values and cost are independent halves of a pass (see
        // `crate::engine`), so prefill batches them differently. Values:
        // one layer walk per group of whole chunks, up to `STAGING_ROWS`
        // rows. Cost: one device pass per `prefill_chunk` positions,
        // exactly what the device would run — so every simulated number
        // is the same as walking chunk by chunk.
        let mut stats = SimStats::default();
        let mut prefill_cycles = Cycles::ZERO;
        let mut logits: Vec<f32> = Vec::new();
        // A plain argmax sampler only needs each scored row's argmax, which
        // a greedy row keeps bit for bit.
        let scored = if self.sampler.is_greedy() {
            LogitRows::Greedy
        } else {
            LogitRows::Last
        };
        let chunk = self.engine.config().prefill_chunk;
        let group = STAGING_ROWS / chunk * chunk;
        let mut pos0 = start;
        for tokens in prompt_tokens.chunks(group) {
            logits = self.extend(tokens, scored);
            let group_end = pos0 + tokens.len();
            while pos0 < group_end {
                let end = (pos0 + chunk).min(group_end);
                let _g = tel::span("host", "prefill_chunk")
                    .arg("pos", pos0 as i64)
                    .arg("tokens", (end - pos0) as i64);
                let positions: Vec<usize> = (pos0..end).collect();
                let (cycles, pass) = self.engine.time(&positions);
                tel::metrics::observe("accel.prefill_chunk_cycles", cycles.0);
                prefill_cycles += cycles;
                stats.accumulate(&pass);
                pos0 = end;
            }
        }
        let prompt_end = pos0;

        let mut decode_cycles = Cycles::ZERO;
        let mut per_token_cycles = Vec::new();
        let mut generated = Vec::new();
        let mut pos = prompt_end;
        while generated.len() < max_new_tokens && pos < seq_len {
            let next = self.sampler.sample(&logits);
            if next == TOKEN_EOS || next == TOKEN_BOS {
                break;
            }
            generated.push(next);
            let _g = tel::span("host", "decode_token").arg("pos", pos as i64);
            // The token that ends the budget or the window is walked for
            // its KV row (a later turn continues from it) but not scored:
            // its logits would never be sampled. The device is charged the
            // same pass either way.
            let last = generated.len() == max_new_tokens || pos + 1 == seq_len;
            let rows = if last { LogitRows::None } else { scored };
            logits = self.extend(&[next], rows);
            let (cycles, pass) = self.engine.time(&[pos]);
            tel::metrics::observe("accel.decode_token_cycles", cycles.0);
            decode_cycles += cycles;
            per_token_cycles.push(cycles);
            stats.accumulate(&pass);
            pos += 1;
        }

        // Bridge the simulator's aggregate activity into the metrics
        // registry, so instrumented runs see device counters next to
        // host-side latencies.
        if tel::enabled() {
            tel::metrics::counter_add("sim.kernel_launches", stats.kernel_launches);
            tel::metrics::counter_add("sim.alloc_stalls", stats.alloc_stalls);
            tel::metrics::counter_add("sim.hbm_read_bytes", stats.hbm.read_bytes);
            tel::metrics::counter_add("sim.hbm_write_bytes", stats.hbm.write_bytes);
            tel::metrics::counter_add("sim.mpe_macs", stats.mpe.macs);
            tel::metrics::counter_add("sim.sfu_elements", stats.sfu.elements);
            tel::metrics::counter_add("sim.total_cycles", stats.total_cycles.0);
        }

        let text = self.tokenizer.decode(&generated);
        let energy = self.engine.power_model().energy(&stats);
        Ok(InferenceReport {
            output: GenerationOutput {
                prompt_tokens,
                generated_tokens: generated,
                text,
            },
            clock: self.engine.power_model().clock,
            prefill_cycles,
            decode_cycles,
            per_token_cycles,
            stats,
            energy,
        })
    }

    /// Values of a pass extending the sequence by `tokens`; the caller charges [`Engine::time`].
    fn extend(&mut self, tokens: &[u32], rows: LogitRows) -> Vec<f32> {
        let mut logits = self
            .engine
            .execute([&mut self.kv].as_mut_slice(), &[tokens], rows);
        logits.pop().unwrap_or_default()
    }

    /// One decode pass that extends the session's sequence by `token`,
    /// values and cost (low-level access: perplexity scoring, traces).
    pub fn step(&mut self, token: u32) -> StepResult {
        self.engine
            .forward_runs([&mut self.kv].as_mut_slice(), &[&[token]], LogitRows::Last)
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(opt: OptConfig) -> AcceleratedLlm {
        AcceleratedLlm::synthetic(ModelConfig::test_tiny(), 42, opt).unwrap()
    }

    /// A chunk no device pass could stage is refused, not clamped, and
    /// the chunk already set stays.
    #[test]
    fn set_prefill_chunk_refuses_chunks_outside_the_staging_rows() {
        let mut sys = system(OptConfig::full());
        sys.set_prefill_chunk(8).unwrap();
        for chunk in [0, STAGING_ROWS + 1] {
            match sys.set_prefill_chunk(chunk) {
                Err(EngineError::PrefillChunk(c)) => assert_eq!(c, chunk),
                other => panic!("chunk {chunk}: {other:?}"),
            }
            assert_eq!(sys.accel_config().prefill_chunk, 8);
        }
    }

    /// The weights become resident once, in `new`, at the variant's
    /// precision: every session's engine holds that allocation, and what
    /// a session generates and costs is what it did (the pinned values,
    /// read at the parent commit) when each session quantized a copy of
    /// its own.
    #[test]
    fn sessions_share_one_resident_copy_of_the_weights() {
        let cfg = ModelConfig {
            vocab_size: 512,
            ..ModelConfig::test_tiny()
        };
        let sys = AcceleratedLlm::synthetic(cfg, 42, OptConfig::full_int8()).unwrap();
        assert_eq!(sys.weights().mode(), speedllm_llama::QuantMode::Int8);
        for _ in 0..2 {
            let mut s = sys.session(SamplerKind::Temperature(0.8), 7);
            assert!(Arc::ptr_eq(s.engine().weights(), sys.weights()));
            let r = s.generate("the quick brown fox", 8).unwrap();
            assert_eq!(
                r.output.generated_tokens,
                [357, 143, 430, 502, 507, 445, 31, 53]
            );
            assert_eq!((r.prefill_cycles.0, r.decode_cycles.0), (13088, 7312));
        }
    }

    #[test]
    fn generate_produces_tokens_and_metrics() {
        let sys = system(OptConfig::full());
        let mut s = sys.session(SamplerKind::Argmax, 0);
        let r = s.generate("hello", 8).unwrap();
        assert!(!r.output.prompt_tokens.is_empty());
        assert!(r.output.generated_tokens.len() <= 8);
        assert!(r.total_latency_s() > 0.0);
        assert!(r.decode_tokens_per_s() > 0.0 || r.output.generated_tokens.is_empty());
        assert!(r.energy.total_j() > 0.0);
        assert!(r.avg_power_w() > 0.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let sys = system(OptConfig::full());
        let mut a = sys.session(SamplerKind::Temperature(0.9), 7);
        let mut b = sys.session(SamplerKind::Temperature(0.9), 7);
        let ra = a.generate("once upon", 10).unwrap();
        let rb = b.generate("once upon", 10).unwrap();
        assert_eq!(ra.output.generated_tokens, rb.output.generated_tokens);
        assert_eq!(ra.decode_cycles, rb.decode_cycles);
    }

    #[test]
    fn variants_generate_identical_tokens() {
        // The co-design is functionally transparent: every fp32 variant
        // must sample the same token sequence.
        let mut outputs = Vec::new();
        for (_, opt) in OptConfig::paper_variants() {
            let sys = system(opt);
            let mut s = sys.session(SamplerKind::Argmax, 0);
            outputs.push(s.generate("abc", 6).unwrap().output.generated_tokens);
        }
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0]);
        }
    }

    #[test]
    fn full_beats_unoptimized_end_to_end() {
        let full = system(OptConfig::full());
        let unopt = system(OptConfig::unoptimized());
        let rf = full
            .session(SamplerKind::Argmax, 0)
            .generate("speed", 6)
            .unwrap();
        let ru = unopt
            .session(SamplerKind::Argmax, 0)
            .generate("speed", 6)
            .unwrap();
        assert_eq!(rf.output.generated_tokens, ru.output.generated_tokens);
        let speedup = ru.total_latency_s() / rf.total_latency_s();
        assert!(speedup > 2.0, "speedup only {speedup:.2}x");
        // Energy efficiency ordering too.
        assert!(rf.tokens_per_joule() > ru.tokens_per_joule());
    }

    #[test]
    fn prompt_too_long_is_rejected() {
        let sys = system(OptConfig::full());
        let mut s = sys.session(SamplerKind::Argmax, 0);
        let long: String = "word ".repeat(200);
        match s.generate(&long, 1) {
            Err(RuntimeError::PromptTooLong { tokens, seq_len }) => {
                assert!(tokens > seq_len);
            }
            other => panic!(
                "expected PromptTooLong, got {other:?}",
                other = other.map(|r| r.output.text)
            ),
        }
    }

    #[test]
    fn respects_context_window() {
        let sys = system(OptConfig::full());
        let mut s = sys.session(SamplerKind::Argmax, 0);
        let r = s.generate("a b c", 10_000).unwrap();
        assert!(
            r.output.prompt_tokens.len() + r.output.generated_tokens.len() <= sys.config().seq_len
        );
    }

    #[test]
    fn append_generate_keeps_context() {
        let sys = system(OptConfig::full());
        let mut s = sys.session(SamplerKind::Argmax, 0);
        let first = s.generate("hello", 4).unwrap();
        let ctx_after_first = s.context_len();
        assert_eq!(
            ctx_after_first,
            first.output.prompt_tokens.len() + first.output.generated_tokens.len()
        );
        let second = s.append_generate("more", 4).unwrap();
        // Context grew past the first turn instead of resetting.
        assert!(s.context_len() > ctx_after_first);
        // Second turn's prompt has no BOS (context not empty).
        assert_ne!(second.output.prompt_tokens.first(), Some(&1u32));
        // Multi-turn runs are deterministic: replaying the same two turns
        // in a fresh session reproduces both outputs and timings.
        let mut replay = sys.session(SamplerKind::Argmax, 0);
        let first_b = replay.generate("hello", 4).unwrap();
        let second_b = replay.append_generate("more", 4).unwrap();
        assert_eq!(
            first.output.generated_tokens,
            first_b.output.generated_tokens
        );
        assert_eq!(
            second.output.generated_tokens,
            second_b.output.generated_tokens
        );
        assert_eq!(second.decode_cycles, second_b.decode_cycles);
        // The second turn paid prefill only for its own (short) prompt.
        assert!(second.output.prompt_tokens.len() < first.output.prompt_tokens.len() + 4);
    }

    #[test]
    fn append_generate_rejects_context_overflow() {
        let sys = system(OptConfig::full());
        let mut s = sys.session(SamplerKind::Argmax, 0);
        s.generate("a b c d e f", 8).unwrap();
        let mut last = Ok(());
        for _ in 0..20 {
            match s.append_generate("even more words to push the window", 8) {
                Ok(_) => {}
                Err(e) => {
                    last = Err(e);
                    break;
                }
            }
        }
        assert!(matches!(last, Err(RuntimeError::PromptTooLong { .. })));
    }

    #[test]
    fn append_generate_rejects_an_empty_turn() {
        let sys = system(OptConfig::full());
        let mut s = sys.session(SamplerKind::Argmax, 0);
        s.generate("hello", 2).unwrap();
        let ctx = s.context_len();
        // No BOS on a non-empty context, so "" is zero tokens: nothing to
        // prefill and no logits to sample.
        assert!(matches!(
            s.append_generate("", 4),
            Err(RuntimeError::EmptyPrompt)
        ));
        assert_eq!(s.context_len(), ctx, "the sequence must stay untouched");
        // On an empty context the same prompt is just BOS, and runs.
        assert!(s.generate("", 2).is_ok());
    }

    /// A prompt string that encodes to exactly `n` tokens (`bos` counted).
    fn prompt_of(tok: &Tokenizer, n: usize, bos: bool) -> String {
        let mut p = String::new();
        for c in "the quick brown fox jumps over a lazy dog ".chars().cycle() {
            match tok.encode(&p, bos, false).len().cmp(&n) {
                std::cmp::Ordering::Less => p.push(c),
                std::cmp::Ordering::Equal => return p,
                std::cmp::Ordering::Greater => panic!("overshot {n} tokens"),
            }
        }
        unreachable!()
    }

    /// One turn on a bare engine the way the device runs it, extending
    /// `seq`: one pass per `chunk` prompt tokens, then one per token.
    fn explicit_turn(
        engine: &mut Engine,
        seq: &mut KvCache,
        sampler: &mut Sampler,
        prompt: &[u32],
        chunk: usize,
        max_new: usize,
    ) -> (Cycles, Cycles, Vec<Cycles>, SimStats, Vec<u32>) {
        let mut pass = |tokens: &[u32]| {
            engine
                .forward_runs([&mut *seq].as_mut_slice(), &[tokens], LogitRows::Last)
                .1
        };
        let mut stats = SimStats::default();
        let mut prefill = Cycles::ZERO;
        let mut logits = Vec::new();
        for tokens in prompt.chunks(chunk) {
            let step = pass(tokens);
            prefill += step.cycles;
            stats.accumulate(&step.stats);
            logits = step.logits;
        }
        let (mut decode, mut per_token, mut generated) = (Cycles::ZERO, Vec::new(), Vec::new());
        while generated.len() < max_new {
            let next = sampler.sample(&logits);
            if next == TOKEN_EOS || next == TOKEN_BOS {
                break;
            }
            generated.push(next);
            let step = pass(&[next]);
            decode += step.cycles;
            per_token.push(step.cycles);
            stats.accumulate(&step.stats);
            logits = step.logits;
        }
        (prefill, decode, per_token, stats, generated)
    }

    /// Grouping prefill *values* never moves a simulated number: a
    /// `generate` and a following `append_generate` report, field for
    /// field, what the explicit chunk-at-a-time loop reports — at prompt
    /// lengths around the 64-row group, for chunks that do and do not
    /// divide it.
    #[test]
    fn session_reports_equal_the_explicit_chunk_loop() {
        // A vocabulary wide enough to hold the printable characters, so
        // prompts are varied tokens and not all `<unk>`.
        let cfg = ModelConfig {
            seq_len: 192,
            vocab_size: 512,
            ..ModelConfig::test_tiny()
        };
        let kind = SamplerKind::Temperature(0.8);
        for opt in [OptConfig::full(), OptConfig::unoptimized()] {
            let mut sys = AcceleratedLlm::synthetic(cfg, 42, opt).unwrap();
            for chunk in [1, 4, 7, 64] {
                sys.set_prefill_chunk(chunk).unwrap();
                for n in [1, 5, 64, 65, 130] {
                    let mut session = sys.session(kind, 7);
                    let mut engine =
                        Engine::with_config(Arc::clone(sys.weights()), opt, *sys.accel_config())
                            .unwrap();
                    let mut seq = KvCache::new(sys.config());
                    let mut sampler = Sampler::new(kind, 7);
                    let turns = [
                        (prompt_of(sys.tokenizer(), n, true), true),
                        (prompt_of(sys.tokenizer(), 9, false), false),
                    ];
                    for (prompt, first) in turns {
                        let got = if first {
                            session.generate(&prompt, 3)
                        } else {
                            session.append_generate(&prompt, 3)
                        }
                        .unwrap();
                        let tokens = sys.tokenizer().encode(&prompt, first, false);
                        let (prefill, decode, per_token, stats, generated) =
                            explicit_turn(&mut engine, &mut seq, &mut sampler, &tokens, chunk, 3);
                        let at = format!(
                            "{} chunk {chunk} prompt {n} first {first}",
                            opt.short_name()
                        );
                        assert_eq!(got.output.prompt_tokens, tokens, "{at}");
                        assert_eq!(got.output.generated_tokens, generated, "{at}");
                        assert_eq!(got.prefill_cycles, prefill, "{at}");
                        assert_eq!(got.decode_cycles, decode, "{at}");
                        assert_eq!(got.per_token_cycles, per_token, "{at}");
                        assert_eq!(got.stats, stats, "{at}");
                        assert_eq!(got.energy, engine.power_model().energy(&stats), "{at}");
                    }
                }
            }
        }
    }

    /// One `generate` and one `append_generate` of a plain argmax session,
    /// which scores greedy rows, against the explicit chunk loop, which
    /// samples full `Last` rows: the reports agree field for field.
    fn assert_argmax_turns_match(sys: &AcceleratedLlm, chunk: usize, n: usize, max_new: usize) {
        let (kind, opt) = (SamplerKind::Argmax, *sys.opt());
        let mut session = sys.session(kind, 7);
        let mut engine =
            Engine::with_config(Arc::clone(sys.weights()), opt, *sys.accel_config()).unwrap();
        let mut seq = KvCache::new(sys.config());
        let mut sampler = Sampler::new(kind, 7);
        let turns = [
            (prompt_of(sys.tokenizer(), n, true), true),
            (prompt_of(sys.tokenizer(), 9, false), false),
        ];
        for (prompt, first) in turns {
            let got = if first {
                session.generate(&prompt, max_new)
            } else {
                session.append_generate(&prompt, max_new)
            }
            .unwrap();
            let tokens = sys.tokenizer().encode(&prompt, first, false);
            let (prefill, decode, per_token, stats, generated) =
                explicit_turn(&mut engine, &mut seq, &mut sampler, &tokens, chunk, max_new);
            let at = format!(
                "{} chunk {chunk} prompt {n} first {first}",
                opt.short_name()
            );
            assert_eq!(got.output.prompt_tokens, tokens, "{at}");
            assert_eq!(got.output.generated_tokens, generated, "{at}");
            assert_eq!(got.prefill_cycles, prefill, "{at}");
            assert_eq!(got.decode_cycles, decode, "{at}");
            assert_eq!(got.per_token_cycles, per_token, "{at}");
            assert_eq!(got.stats, stats, "{at}");
            assert_eq!(got.energy, engine.power_model().energy(&stats), "{at}");
        }
    }

    /// The argmax twin of `session_reports_equal_the_explicit_chunk_loop`.
    #[test]
    fn argmax_session_reports_equal_the_explicit_chunk_loop() {
        let cfg = ModelConfig {
            seq_len: 192,
            vocab_size: 512,
            ..ModelConfig::test_tiny()
        };
        for opt in [OptConfig::full(), OptConfig::unoptimized()] {
            let mut sys = AcceleratedLlm::synthetic(cfg, 42, opt).unwrap();
            for chunk in [1, 4, 7, 64] {
                sys.set_prefill_chunk(chunk).unwrap();
                for n in [1, 5, 64, 65, 130] {
                    assert_argmax_turns_match(&sys, chunk, n, 3);
                }
            }
        }
    }

    /// The same on stories15M's 32000-row classifier, one prompt.
    #[test]
    fn argmax_session_reports_equal_the_explicit_chunk_loop_on_stories15m() {
        let mut sys =
            AcceleratedLlm::synthetic(ModelConfig::stories15m(), 42, OptConfig::full()).unwrap();
        sys.set_prefill_chunk(4).unwrap();
        assert_argmax_turns_match(&sys, 4, 14, 8);
    }

    /// A pass that panics — here on an out-of-vocab token — leaves the
    /// session whole: its next `generate` reports what a fresh session's
    /// does.
    #[test]
    fn a_panicking_step_leaves_the_session_usable() {
        let sys = system(OptConfig::full());
        let kind = SamplerKind::Temperature(0.8);
        let mut s = sys.session(kind, 7);
        s.step(5);
        let vocab = sys.config().vocab_size as u32;
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.step(vocab)));
        assert!(hit.is_err(), "an out-of-vocab token must panic");
        assert_eq!(s.context_len(), 1, "the failed pass stored nothing");
        let got = s.generate("once upon", 6).unwrap();
        let want = sys.session(kind, 7).generate("once upon", 6).unwrap();
        assert_eq!(got.output.prompt_tokens, want.output.prompt_tokens);
        assert_eq!(got.output.generated_tokens, want.output.generated_tokens);
        assert_eq!(got.prefill_cycles, want.prefill_cycles);
        assert_eq!(got.decode_cycles, want.decode_cycles);
        assert_eq!(got.per_token_cycles, want.per_token_cycles);
        assert_eq!(got.stats, want.stats);
        assert_eq!(got.energy, want.energy);
    }

    #[test]
    fn per_token_cycles_align_with_decode_total() {
        let sys = system(OptConfig::full());
        let mut s = sys.session(SamplerKind::Argmax, 0);
        let r = s.generate("x", 5).unwrap();
        let sum: u64 = r.per_token_cycles.iter().map(|c| c.0).sum();
        assert_eq!(sum, r.decode_cycles.0);
        assert_eq!(r.per_token_cycles.len(), r.output.generated_tokens.len());
    }
}
