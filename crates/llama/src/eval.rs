//! Model-quality evaluation: token-level cross-entropy and perplexity.
//!
//! The standard way to check that a compressed or accelerated model still
//! "works" is to score a held-out token stream: feed tokens one at a time
//! and accumulate the negative log-likelihood the model assigns to each
//! *next* token. This is how int8/sparse variants of the accelerator are
//! judged against the fp32 reference without needing trained weights —
//! relative perplexity degradation is meaningful even on synthetic models.

use crate::forward::Transformer;
use crate::kv_cache::KvCache;
use crate::ops::softmax;

/// Accumulated evaluation result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Tokens scored (predictions made).
    pub tokens: usize,
    /// Summed negative log-likelihood (nats).
    pub nll: f64,
}

impl EvalResult {
    /// Mean cross-entropy in nats per token.
    #[must_use]
    pub fn cross_entropy(&self) -> f64 {
        if self.tokens == 0 {
            return 0.0;
        }
        self.nll / self.tokens as f64
    }

    /// Perplexity (`exp` of the mean cross-entropy).
    #[must_use]
    pub fn perplexity(&self) -> f64 {
        self.cross_entropy().exp()
    }

    /// Bits per token.
    #[must_use]
    pub fn bits_per_token(&self) -> f64 {
        self.cross_entropy() / std::f64::consts::LN_2
    }
}

/// Scores `tokens` with the reference transformer: for each position `i`,
/// the model predicts token `i+1`, over a sequence of its own; the stream
/// must fit the context window.
///
/// # Panics
/// Panics if fewer than two tokens are supplied or the stream exceeds the
/// context window.
pub fn evaluate_reference(model: &mut Transformer, tokens: &[u32]) -> EvalResult {
    assert!(tokens.len() >= 2, "need at least two tokens to score one");
    assert!(
        tokens.len() <= model.config().seq_len,
        "stream of {} exceeds context window {}",
        tokens.len(),
        model.config().seq_len
    );
    let mut kv = KvCache::new(model.config());
    let mut result = EvalResult {
        tokens: 0,
        nll: 0.0,
    };
    let mut probs: Vec<f32> = Vec::new();
    for (pos, window) in tokens.windows(2).enumerate() {
        let (current, next) = (window[0], window[1]);
        let logits = model.forward_with_kv(&mut kv, current, pos);
        probs.clear();
        probs.extend_from_slice(logits);
        softmax(&mut probs);
        let p = probs[next as usize].max(f32::MIN_POSITIVE);
        result.nll -= (p as f64).ln();
        result.tokens += 1;
    }
    result
}

/// Scores a token stream against per-step logits supplied by any engine
/// (used to evaluate the simulated accelerator without duplicating the
/// loop). The callback receives `(token, pos)` and returns the logits.
pub fn evaluate_with(
    vocab_size: usize,
    tokens: &[u32],
    mut step: impl FnMut(u32, usize) -> Vec<f32>,
) -> EvalResult {
    assert!(tokens.len() >= 2, "need at least two tokens to score one");
    let mut result = EvalResult {
        tokens: 0,
        nll: 0.0,
    };
    for (pos, window) in tokens.windows(2).enumerate() {
        let (current, next) = (window[0], window[1]);
        let mut logits = step(current, pos);
        assert_eq!(logits.len(), vocab_size, "bad logit width");
        softmax(&mut logits);
        let p = logits[next as usize].max(f32::MIN_POSITIVE);
        result.nll -= (p as f64).ln();
        result.tokens += 1;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::weights::TransformerWeights;

    fn model() -> Transformer {
        Transformer::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42))
    }

    #[test]
    fn perplexity_of_random_model_is_near_vocab_size() {
        // An untrained model is close to uniform over the vocabulary, so
        // perplexity ≈ vocab_size.
        let mut m = model();
        let tokens: Vec<u32> = (0..24).map(|i| (i * 7 + 3) % 64).collect();
        let r = evaluate_reference(&mut m, &tokens);
        assert_eq!(r.tokens, 23);
        let v = 64.0;
        assert!(
            (v * 0.5..v * 2.0).contains(&r.perplexity()),
            "perplexity {} far from vocab {v}",
            r.perplexity()
        );
    }

    #[test]
    fn metrics_are_consistent() {
        let r = EvalResult {
            tokens: 10,
            nll: 23.0,
        };
        assert!((r.cross_entropy() - 2.3).abs() < 1e-12);
        assert!((r.perplexity() - (2.3f64).exp()).abs() < 1e-9);
        assert!((r.bits_per_token() - 2.3 / std::f64::consts::LN_2).abs() < 1e-12);
        let empty = EvalResult {
            tokens: 0,
            nll: 0.0,
        };
        assert_eq!(empty.perplexity(), 1.0);
    }

    #[test]
    fn evaluate_with_matches_reference() {
        let tokens: Vec<u32> = (0..12).map(|i| (i * 11 + 5) % 64).collect();
        let mut m1 = model();
        let want = evaluate_reference(&mut m1, &tokens);
        let mut m2 = model();
        let mut kv = KvCache::new(m2.config());
        let got = evaluate_with(64, &tokens, |t, p| {
            m2.forward_with_kv(&mut kv, t, p).to_vec()
        });
        assert_eq!(want.tokens, got.tokens);
        assert!((want.nll - got.nll).abs() < 1e-9);
    }

    #[test]
    fn deterministic_across_runs() {
        let tokens: Vec<u32> = (0..16).map(|i| (i * 3 + 1) % 64).collect();
        let a = evaluate_reference(&mut model(), &tokens);
        let b = evaluate_reference(&mut model(), &tokens);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least two tokens")]
    fn single_token_rejected() {
        evaluate_reference(&mut model(), &[1]);
    }
}
