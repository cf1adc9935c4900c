//! Transformer weights: in-memory layout, llama2.c-compatible binary I/O,
//! and seeded synthetic initialization.
//!
//! The on-disk format is the **legacy llama2.c checkpoint** (the format of
//! `stories15M.bin` that the paper deploys): a 7-field `i32` header followed
//! by little-endian `f32` tensors in a fixed order. A real checkpoint
//! downloaded from the llama2.c project loads unchanged; when none is
//! available, [`TransformerWeights::synthetic`] produces a
//! structurally-identical model with seeded Gaussian weights (see DESIGN.md
//! §2 — dense-inference *performance* does not depend on weight values).

use std::io::{self, Read, Write};
use std::path::Path;

use crate::config::ModelConfig;
use crate::rng::Xoshiro256;

/// Weights for a single transformer layer, each stored row-major as
/// `[rows = out_features, cols = in_features]`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWeights {
    /// RMSNorm gain before attention, `[dim]`.
    pub rms_att: Vec<f32>,
    /// Query projection, `[dim, dim]`.
    pub wq: Vec<f32>,
    /// Key projection, `[kv_dim, dim]`.
    pub wk: Vec<f32>,
    /// Value projection, `[kv_dim, dim]`.
    pub wv: Vec<f32>,
    /// Output projection, `[dim, dim]`.
    pub wo: Vec<f32>,
    /// RMSNorm gain before the FFN, `[dim]`.
    pub rms_ffn: Vec<f32>,
    /// FFN gate projection, `[hidden_dim, dim]`.
    pub w1: Vec<f32>,
    /// FFN down projection, `[dim, hidden_dim]`.
    pub w2: Vec<f32>,
    /// FFN up projection, `[hidden_dim, dim]`.
    pub w3: Vec<f32>,
}

/// All model weights plus the owning [`ModelConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerWeights {
    /// Architecture the shapes below were sized for.
    pub config: ModelConfig,
    /// Token embedding table, `[vocab_size, dim]`.
    pub token_embedding: Vec<f32>,
    /// Per-layer projection weights.
    pub layers: Vec<LayerWeights>,
    /// Final RMSNorm gain, `[dim]`.
    pub rms_final: Vec<f32>,
    /// Output classifier, `[vocab_size, dim]`; `None` when tied to the
    /// embedding table.
    pub wcls: Option<Vec<f32>>,
}

/// Errors raised while loading a checkpoint.
#[derive(Debug)]
pub enum WeightsError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Header fields describe an invalid architecture.
    BadConfig(crate::config::ConfigError),
    /// File ended before all tensors were read.
    #[allow(missing_docs)]
    Truncated { expected: usize, got: usize },
}

impl std::fmt::Display for WeightsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightsError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            WeightsError::BadConfig(e) => write!(f, "checkpoint header invalid: {e}"),
            WeightsError::Truncated { expected, got } => {
                write!(
                    f,
                    "checkpoint truncated: expected {expected} floats, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for WeightsError {}

impl From<io::Error> for WeightsError {
    fn from(e: io::Error) -> Self {
        WeightsError::Io(e)
    }
}

impl TransformerWeights {
    /// Builds a model with seeded Gaussian weights (`std = 0.02`, with the
    /// GPT-2-style `1/sqrt(2·n_layers)` scaling on residual-output
    /// projections so deep configs stay numerically tame).
    #[must_use]
    pub fn synthetic(config: ModelConfig, seed: u64) -> Self {
        config.validate().expect("invalid config");
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let d = config.dim;
        let h = config.hidden_dim;
        let kv = config.kv_dim();
        let std = 0.02f32;
        let res_std = std / (2.0 * config.n_layers as f32).sqrt();

        let mut normal = |n: usize, s: f32| {
            let mut v = vec![0.0f32; n];
            rng.fill_normal(&mut v, s);
            v
        };

        let token_embedding = normal(config.vocab_size * d, std);
        let mut layers = Vec::with_capacity(config.n_layers);
        for _ in 0..config.n_layers {
            layers.push(LayerWeights {
                rms_att: vec![1.0; d],
                wq: normal(d * d, std),
                wk: normal(kv * d, std),
                wv: normal(kv * d, std),
                wo: normal(d * d, res_std),
                rms_ffn: vec![1.0; d],
                w1: normal(h * d, std),
                w2: normal(d * h, res_std),
                w3: normal(h * d, std),
            });
        }
        let wcls = if config.shared_classifier {
            None
        } else {
            Some(normal(config.vocab_size * d, std))
        };
        Self {
            config,
            token_embedding,
            layers,
            rms_final: vec![1.0; d],
            wcls,
        }
    }

    /// The classifier matrix: `wcls` when untied, otherwise the embedding
    /// table.
    #[must_use]
    pub fn classifier(&self) -> &[f32] {
        self.wcls.as_deref().unwrap_or(&self.token_embedding)
    }

    /// Total number of stored parameters.
    #[must_use]
    pub fn param_count(&self) -> usize {
        let layer: usize = self
            .layers
            .iter()
            .map(|l| {
                l.rms_att.len()
                    + l.wq.len()
                    + l.wk.len()
                    + l.wv.len()
                    + l.wo.len()
                    + l.rms_ffn.len()
                    + l.w1.len()
                    + l.w2.len()
                    + l.w3.len()
            })
            .sum();
        self.token_embedding.len()
            + layer
            + self.rms_final.len()
            + self.wcls.as_ref().map_or(0, Vec::len)
    }

    /// Serializes in the legacy llama2.c checkpoint format.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = io::BufWriter::new(file);
        self.write_to(&mut w)?;
        w.flush()
    }

    /// Writes the checkpoint to an arbitrary sink (legacy llama2.c layout).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let c = &self.config;
        // Legacy header: negative vocab_size encodes an untied classifier.
        let vocab_field = if c.shared_classifier {
            c.vocab_size as i32
        } else {
            -(c.vocab_size as i32)
        };
        for v in [
            c.dim as i32,
            c.hidden_dim as i32,
            c.n_layers as i32,
            c.n_heads as i32,
            c.n_kv_heads as i32,
            vocab_field,
            c.seq_len as i32,
        ] {
            w.write_all(&v.to_le_bytes())?;
        }
        let dump = |w: &mut dyn Write, data: &[f32]| -> io::Result<()> {
            let mut buf = Vec::with_capacity(data.len() * 4);
            for &x in data {
                buf.extend_from_slice(&x.to_le_bytes());
            }
            w.write_all(&buf)
        };
        dump(w, &self.token_embedding)?;
        for l in &self.layers {
            dump(w, &l.rms_att)?;
        }
        for l in &self.layers {
            dump(w, &l.wq)?;
        }
        for l in &self.layers {
            dump(w, &l.wk)?;
        }
        for l in &self.layers {
            dump(w, &l.wv)?;
        }
        for l in &self.layers {
            dump(w, &l.wo)?;
        }
        for l in &self.layers {
            dump(w, &l.rms_ffn)?;
        }
        for l in &self.layers {
            dump(w, &l.w1)?;
        }
        for l in &self.layers {
            dump(w, &l.w2)?;
        }
        for l in &self.layers {
            dump(w, &l.w3)?;
        }
        dump(w, &self.rms_final)?;
        // Legacy freq_cis_{real,imag}: 2 * seq_len * head_dim/2 floats of
        // precomputed RoPE tables that modern loaders ignore; we write
        // zeros for byte-compatibility.
        let freq_len = c.seq_len * c.head_dim() / 2;
        dump(w, &vec![0.0f32; 2 * freq_len])?;
        if let Some(wcls) = &self.wcls {
            dump(w, wcls)?;
        }
        Ok(())
    }

    /// Loads a legacy llama2.c checkpoint (e.g. `stories15M.bin`).
    pub fn load(path: &Path) -> Result<Self, WeightsError> {
        let file = std::fs::File::open(path)?;
        let mut r = io::BufReader::new(file);
        Self::read_from(&mut r)
    }

    /// Reads a checkpoint from an arbitrary source (legacy llama2.c layout).
    pub fn read_from(r: &mut impl Read) -> Result<Self, WeightsError> {
        let mut header = [0u8; 28];
        r.read_exact(&mut header)?;
        let field = |i: usize| i32::from_le_bytes(header[i * 4..i * 4 + 4].try_into().unwrap());
        // Every field except vocab (whose sign encodes classifier tying)
        // must be positive; garbage headers otherwise wrap to absurd usize
        // values and produce confusing errors downstream.
        for (i, name) in ["dim", "hidden_dim", "n_layers", "n_heads", "n_kv_heads"]
            .iter()
            .enumerate()
        {
            if field(i) <= 0 {
                return Err(WeightsError::BadConfig(
                    crate::config::ConfigError::ZeroField(match *name {
                        "dim" => "dim",
                        "hidden_dim" => "hidden_dim",
                        "n_layers" => "n_layers",
                        "n_heads" => "n_heads",
                        _ => "n_kv_heads",
                    }),
                ));
            }
        }
        if field(6) <= 0 {
            return Err(WeightsError::BadConfig(
                crate::config::ConfigError::ZeroField("seq_len"),
            ));
        }
        let vocab_field = field(5);
        let config = ModelConfig {
            dim: field(0) as usize,
            hidden_dim: field(1) as usize,
            n_layers: field(2) as usize,
            n_heads: field(3) as usize,
            n_kv_heads: field(4) as usize,
            vocab_size: vocab_field.unsigned_abs() as usize,
            seq_len: field(6) as usize,
            shared_classifier: vocab_field > 0,
        };
        config.validate().map_err(WeightsError::BadConfig)?;

        let read_f32s = |r: &mut dyn Read, n: usize| -> Result<Vec<f32>, WeightsError> {
            let mut bytes = vec![0u8; n * 4];
            let mut filled = 0;
            while filled < bytes.len() {
                let got = r.read(&mut bytes[filled..])?;
                if got == 0 {
                    return Err(WeightsError::Truncated {
                        expected: n,
                        got: filled / 4,
                    });
                }
                filled += got;
            }
            Ok(bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect())
        };

        let d = config.dim;
        let h = config.hidden_dim;
        let kv = config.kv_dim();
        let nl = config.n_layers;

        let token_embedding = read_f32s(r, config.vocab_size * d)?;
        let mut layers: Vec<LayerWeights> = (0..nl)
            .map(|_| LayerWeights {
                rms_att: Vec::new(),
                wq: Vec::new(),
                wk: Vec::new(),
                wv: Vec::new(),
                wo: Vec::new(),
                rms_ffn: Vec::new(),
                w1: Vec::new(),
                w2: Vec::new(),
                w3: Vec::new(),
            })
            .collect();
        for l in layers.iter_mut() {
            l.rms_att = read_f32s(r, d)?;
        }
        for l in layers.iter_mut() {
            l.wq = read_f32s(r, d * d)?;
        }
        for l in layers.iter_mut() {
            l.wk = read_f32s(r, kv * d)?;
        }
        for l in layers.iter_mut() {
            l.wv = read_f32s(r, kv * d)?;
        }
        for l in layers.iter_mut() {
            l.wo = read_f32s(r, d * d)?;
        }
        for l in layers.iter_mut() {
            l.rms_ffn = read_f32s(r, d)?;
        }
        for l in layers.iter_mut() {
            l.w1 = read_f32s(r, h * d)?;
        }
        for l in layers.iter_mut() {
            l.w2 = read_f32s(r, d * h)?;
        }
        for l in layers.iter_mut() {
            l.w3 = read_f32s(r, h * d)?;
        }
        let rms_final = read_f32s(r, d)?;
        // Skip the legacy RoPE tables.
        let freq_len = config.seq_len * config.head_dim() / 2;
        let _ = read_f32s(r, 2 * freq_len)?;
        let wcls = if config.shared_classifier {
            None
        } else {
            Some(read_f32s(r, config.vocab_size * d)?)
        };
        Ok(Self {
            config,
            token_embedding,
            layers,
            rms_final,
            wcls,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_matches_config_param_count() {
        let cfg = ModelConfig::test_tiny();
        let w = TransformerWeights::synthetic(cfg, 1);
        assert_eq!(w.param_count(), cfg.param_count());
    }

    #[test]
    fn synthetic_is_deterministic() {
        let cfg = ModelConfig::test_tiny();
        let a = TransformerWeights::synthetic(cfg, 99);
        let b = TransformerWeights::synthetic(cfg, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = ModelConfig::test_tiny();
        let a = TransformerWeights::synthetic(cfg, 1);
        let b = TransformerWeights::synthetic(cfg, 2);
        assert_ne!(a.token_embedding, b.token_embedding);
    }

    #[test]
    fn classifier_tied_and_untied() {
        let tied = TransformerWeights::synthetic(ModelConfig::test_tiny(), 3);
        assert_eq!(tied.classifier().as_ptr(), tied.token_embedding.as_ptr());
        let cfg = ModelConfig {
            shared_classifier: false,
            ..ModelConfig::test_tiny()
        };
        let untied = TransformerWeights::synthetic(cfg, 3);
        assert!(untied.wcls.is_some());
        assert_ne!(
            untied.classifier().as_ptr(),
            untied.token_embedding.as_ptr()
        );
    }

    #[test]
    fn roundtrip_through_memory() {
        let cfg = ModelConfig::test_tiny();
        let w = TransformerWeights::synthetic(cfg, 42);
        let mut buf = Vec::new();
        w.write_to(&mut buf).unwrap();
        let r = TransformerWeights::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(w, r);
    }

    #[test]
    fn roundtrip_untied_classifier() {
        let cfg = ModelConfig {
            shared_classifier: false,
            ..ModelConfig::test_tiny()
        };
        let w = TransformerWeights::synthetic(cfg, 5);
        let mut buf = Vec::new();
        w.write_to(&mut buf).unwrap();
        let r = TransformerWeights::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(w, r);
        assert!(!r.config.shared_classifier);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let cfg = ModelConfig::test_tiny();
        let w = TransformerWeights::synthetic(cfg, 7);
        let mut buf = Vec::new();
        w.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let err = TransformerWeights::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(
            err,
            WeightsError::Truncated { .. } | WeightsError::Io(_)
        ));
    }

    #[test]
    fn bad_header_is_rejected() {
        // All-zero header: every field zero -> ZeroField.
        let buf = vec![0u8; 28];
        let err = TransformerWeights::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, WeightsError::BadConfig(_)));
    }

    #[test]
    fn header_byte_layout_matches_llama2c() {
        let cfg = ModelConfig::test_tiny();
        let w = TransformerWeights::synthetic(cfg, 11);
        let mut buf = Vec::new();
        w.write_to(&mut buf).unwrap();
        let field = |i: usize| i32::from_le_bytes(buf[i * 4..i * 4 + 4].try_into().unwrap());
        assert_eq!(field(0), cfg.dim as i32);
        assert_eq!(field(1), cfg.hidden_dim as i32);
        assert_eq!(field(2), cfg.n_layers as i32);
        assert_eq!(field(3), cfg.n_heads as i32);
        assert_eq!(field(4), cfg.n_kv_heads as i32);
        assert_eq!(field(5), cfg.vocab_size as i32); // positive = tied
        assert_eq!(field(6), cfg.seq_len as i32);
    }

    #[test]
    fn file_size_matches_formula() {
        let cfg = ModelConfig::test_tiny();
        let w = TransformerWeights::synthetic(cfg, 13);
        let mut buf = Vec::new();
        w.write_to(&mut buf).unwrap();
        let freq = 2 * cfg.seq_len * cfg.head_dim() / 2;
        let expected = 28 + 4 * (cfg.param_count() + freq);
        assert_eq!(buf.len(), expected);
    }

    #[test]
    fn roundtrip_through_disk() {
        let cfg = ModelConfig::test_tiny();
        let w = TransformerWeights::synthetic(cfg, 21);
        let path = std::env::temp_dir().join("speedllm_weights_roundtrip.bin");
        w.save(&path).unwrap();
        let r = TransformerWeights::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(w, r);
    }
}
