//! Model architecture configuration.
//!
//! [`ModelConfig`] mirrors the `Config` header of a llama2.c checkpoint and
//! fully determines every tensor shape in the network. The named presets
//! correspond to the TinyStories checkpoint family the paper evaluates
//! (`stories15M` is the headline workload) plus the 1.1B TinyLlama
//! configuration for scale studies.

use std::fmt;

/// Architecture hyper-parameters of a Llama-2 style decoder-only
/// transformer, as serialized in the llama2.c checkpoint header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    /// Embedding / residual-stream width.
    pub dim: usize,
    /// Hidden width of the SwiGLU feed-forward block.
    pub hidden_dim: usize,
    /// Number of transformer layers.
    pub n_layers: usize,
    /// Number of attention (query) heads. Must divide `dim`.
    pub n_heads: usize,
    /// Number of key/value heads (grouped-query attention when smaller than
    /// `n_heads`). Must divide `n_heads`.
    pub n_kv_heads: usize,
    /// Vocabulary size of the paired tokenizer.
    pub vocab_size: usize,
    /// Maximum sequence length the RoPE tables / KV cache are sized for.
    pub seq_len: usize,
    /// Whether the token-embedding matrix is shared with the output
    /// classifier ("tied" weights, as in the TinyStories checkpoints).
    pub shared_classifier: bool,
}

/// Error returned by [`ModelConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A dimension that must be non-zero was zero.
    ZeroField(&'static str),
    /// `dim` is not divisible by `n_heads`.
    #[allow(missing_docs)]
    DimNotDivisibleByHeads { dim: usize, n_heads: usize },
    /// `n_heads` is not divisible by `n_kv_heads`.
    #[allow(missing_docs)]
    HeadsNotDivisibleByKvHeads { n_heads: usize, n_kv_heads: usize },
    /// The per-head dimension must be even for rotary embeddings.
    #[allow(missing_docs)]
    OddHeadDim { head_dim: usize },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroField(name) => write!(f, "config field `{name}` must be non-zero"),
            ConfigError::DimNotDivisibleByHeads { dim, n_heads } => {
                write!(f, "dim {dim} is not divisible by n_heads {n_heads}")
            }
            ConfigError::HeadsNotDivisibleByKvHeads {
                n_heads,
                n_kv_heads,
            } => {
                write!(
                    f,
                    "n_heads {n_heads} is not divisible by n_kv_heads {n_kv_heads}"
                )
            }
            ConfigError::OddHeadDim { head_dim } => {
                write!(f, "head_dim {head_dim} must be even for RoPE")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ModelConfig {
    /// The 260K-parameter TinyStories model (`stories260K`). Small enough
    /// for exhaustive testing in debug builds.
    #[must_use]
    pub fn stories260k() -> Self {
        Self {
            dim: 64,
            hidden_dim: 172,
            n_layers: 5,
            n_heads: 8,
            n_kv_heads: 4,
            vocab_size: 512,
            seq_len: 512,
            shared_classifier: true,
        }
    }

    /// The 15M-parameter TinyStories model (`stories15M`) — the checkpoint
    /// the paper deploys on the U280.
    #[must_use]
    pub fn stories15m() -> Self {
        Self {
            dim: 288,
            hidden_dim: 768,
            n_layers: 6,
            n_heads: 6,
            n_kv_heads: 6,
            vocab_size: 32000,
            seq_len: 256,
            shared_classifier: true,
        }
    }

    /// The 42M-parameter TinyStories model (`stories42M`).
    #[must_use]
    pub fn stories42m() -> Self {
        Self {
            dim: 512,
            hidden_dim: 1376,
            n_layers: 8,
            n_heads: 8,
            n_kv_heads: 8,
            vocab_size: 32000,
            seq_len: 1024,
            shared_classifier: true,
        }
    }

    /// The 110M-parameter TinyStories model (`stories110M`).
    #[must_use]
    pub fn stories110m() -> Self {
        Self {
            dim: 768,
            hidden_dim: 2048,
            n_layers: 12,
            n_heads: 12,
            n_kv_heads: 12,
            vocab_size: 32000,
            seq_len: 1024,
            shared_classifier: true,
        }
    }

    /// The TinyLlama-1.1B architecture (GQA, 22 layers). Used only for
    /// analytic scale studies — far too large for functional simulation in
    /// tests.
    #[must_use]
    pub fn tinyllama1_1b() -> Self {
        Self {
            dim: 2048,
            hidden_dim: 5632,
            n_layers: 22,
            n_heads: 32,
            n_kv_heads: 4,
            vocab_size: 32000,
            seq_len: 2048,
            shared_classifier: false,
        }
    }

    /// A stories260K-class draft architecture for speculative decoding
    /// against `target`: the stories260K trunk (dim 64, 5 layers) with the
    /// target's `vocab_size` and `seq_len`, so drafted token ids are valid
    /// target inputs and the draft can shadow the full context. Keeping
    /// the trunk tiny is what makes the draft pass nearly free — its
    /// per-token GEMM cost is a small fraction of the target's even after
    /// adopting a 32K vocab, because the tied classifier reuses the
    /// embedding.
    #[must_use]
    pub fn draft_for(target: &Self) -> Self {
        Self {
            vocab_size: target.vocab_size,
            seq_len: target.seq_len,
            ..Self::stories260k()
        }
    }

    /// A deliberately tiny config for unit tests: 2 layers, dim 16.
    #[must_use]
    pub fn test_tiny() -> Self {
        Self {
            dim: 16,
            hidden_dim: 44,
            n_layers: 2,
            n_heads: 4,
            n_kv_heads: 2,
            vocab_size: 64,
            seq_len: 32,
            shared_classifier: true,
        }
    }

    /// Checks the structural invariants every other module relies on.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, v) in [
            ("dim", self.dim),
            ("hidden_dim", self.hidden_dim),
            ("n_layers", self.n_layers),
            ("n_heads", self.n_heads),
            ("n_kv_heads", self.n_kv_heads),
            ("vocab_size", self.vocab_size),
            ("seq_len", self.seq_len),
        ] {
            if v == 0 {
                return Err(ConfigError::ZeroField(name));
            }
        }
        if !self.dim.is_multiple_of(self.n_heads) {
            return Err(ConfigError::DimNotDivisibleByHeads {
                dim: self.dim,
                n_heads: self.n_heads,
            });
        }
        if !self.n_heads.is_multiple_of(self.n_kv_heads) {
            return Err(ConfigError::HeadsNotDivisibleByKvHeads {
                n_heads: self.n_heads,
                n_kv_heads: self.n_kv_heads,
            });
        }
        if !self.head_dim().is_multiple_of(2) {
            return Err(ConfigError::OddHeadDim {
                head_dim: self.head_dim(),
            });
        }
        Ok(())
    }

    /// Width of one attention head.
    #[must_use]
    pub fn head_dim(&self) -> usize {
        self.dim / self.n_heads
    }

    /// Total width of the key/value projections (`n_kv_heads * head_dim`).
    #[must_use]
    pub fn kv_dim(&self) -> usize {
        self.n_kv_heads * self.head_dim()
    }

    /// Number of query heads sharing each KV head (1 for MHA).
    #[must_use]
    pub fn gqa_group(&self) -> usize {
        self.n_heads / self.n_kv_heads
    }

    /// Total parameter count implied by the shapes.
    #[must_use]
    pub fn param_count(&self) -> usize {
        let d = self.dim;
        let h = self.hidden_dim;
        let kv = self.kv_dim();
        let per_layer = 2 * d                 // rms_att + rms_ffn
            + d * d                           // wq
            + 2 * d * kv                      // wk, wv
            + d * d                           // wo
            + 3 * d * h; // w1, w2, w3
        let embed = self.vocab_size * d;
        let classifier = if self.shared_classifier {
            0
        } else {
            self.vocab_size * d
        };
        embed + self.n_layers * per_layer + d /* final rmsnorm */ + classifier
    }

    /// Bytes of weight data at the given element width (4 for f32, 1 for
    /// Q8 payload before scales).
    #[must_use]
    pub fn weight_bytes(&self, bytes_per_el: usize) -> usize {
        self.param_count() * bytes_per_el
    }

    /// Bytes of f32 weight data streamed through the dense GEMM kernels by
    /// one forward step: the seven per-layer projections plus the
    /// classifier. This is exactly the traffic a batched decode step
    /// amortizes — a batch of B sequences streams these bytes once instead
    /// of B times — so `gemm_weight_bytes / tokens` is the
    /// weight-bytes-per-token figure the telemetry counters report.
    #[must_use]
    pub fn gemm_weight_bytes(&self) -> usize {
        let d = self.dim;
        let h = self.hidden_dim;
        let kv = self.kv_dim();
        let per_layer = d * d       // wq
            + 2 * d * kv            // wk, wv
            + d * d                 // wo
            + 3 * d * h; // w1, w2, w3
        (self.n_layers * per_layer + self.vocab_size * d) * 4
    }

    /// Bytes of KV cache required for a full `seq_len` context in f32.
    #[must_use]
    pub fn kv_cache_bytes(&self) -> usize {
        2 * self.n_layers * self.seq_len * self.kv_dim() * 4
    }
}

impl fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dim={} hidden={} layers={} heads={} kv_heads={} vocab={} seq={} (~{:.1}M params)",
            self.dim,
            self.hidden_dim,
            self.n_layers,
            self.n_heads,
            self.n_kv_heads,
            self.vocab_size,
            self.seq_len,
            self.param_count() as f64 / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for cfg in [
            ModelConfig::stories260k(),
            ModelConfig::stories15m(),
            ModelConfig::stories42m(),
            ModelConfig::stories110m(),
            ModelConfig::tinyllama1_1b(),
            ModelConfig::test_tiny(),
        ] {
            cfg.validate().expect("preset must validate");
        }
    }

    #[test]
    fn stories15m_param_count_is_about_15m() {
        let n = ModelConfig::stories15m().param_count();
        assert!((14_000_000..26_000_000).contains(&n), "got {n}");
    }

    #[test]
    fn stories260k_is_small() {
        // stories260K has a tied classifier and tiny dims; the embedding
        // dominates. Parameter count should be well under 2M.
        let n = ModelConfig::stories260k().param_count();
        assert!(n < 2_000_000, "got {n}");
    }

    #[test]
    fn head_dim_and_kv_dim() {
        let cfg = ModelConfig::test_tiny();
        assert_eq!(cfg.head_dim(), 4);
        assert_eq!(cfg.kv_dim(), 8);
        assert_eq!(cfg.gqa_group(), 2);
    }

    #[test]
    fn zero_field_is_rejected() {
        let mut cfg = ModelConfig::test_tiny();
        cfg.n_layers = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroField("n_layers")));
    }

    #[test]
    fn indivisible_heads_rejected() {
        let mut cfg = ModelConfig::test_tiny();
        cfg.n_heads = 3;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::DimNotDivisibleByHeads { .. })
                | Err(ConfigError::HeadsNotDivisibleByKvHeads { .. })
        ));
    }

    #[test]
    fn gqa_mismatch_rejected() {
        let mut cfg = ModelConfig::test_tiny();
        cfg.n_kv_heads = 3;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::HeadsNotDivisibleByKvHeads { .. })
        ));
    }

    #[test]
    fn kv_cache_bytes_match_shape() {
        let cfg = ModelConfig::test_tiny();
        assert_eq!(cfg.kv_cache_bytes(), 2 * 2 * 32 * 8 * 4);
    }

    #[test]
    fn untied_classifier_adds_params() {
        let tied = ModelConfig::stories15m();
        let untied = ModelConfig {
            shared_classifier: false,
            ..tied
        };
        assert_eq!(
            untied.param_count() - tied.param_count(),
            tied.vocab_size * tied.dim
        );
    }
}
