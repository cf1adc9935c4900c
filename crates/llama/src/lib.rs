//! # speedllm-llama
//!
//! The Llama-2 inference substrate of the SpeedLLM reproduction: everything
//! the paper's host software stack provides (llama2.c model loading,
//! tokenization, the reference forward pass, sampling, quantization), built
//! from scratch in safe Rust. There are two `unsafe` blocks, both in
//! `ops::run_isa`, the one dispatch of the one GEMM kernel body over
//! kernel-order, split-order and quantized matrices (see [`ops`] and
//! [`qgemm`]) and of the seeded normal fill ([`rng`]): each calls the
//! AVX2 or AVX-512 copy of a body on a CPU just observed to have it.
//!
//! The crate serves two roles:
//!
//! 1. **Correctness oracle and CPU baseline** — [`forward::Transformer`]
//!    is the reference implementation that the simulated accelerator's
//!    outputs are checked against, and the comparison point in the
//!    examples. Its large GEMMs run on both host cores ([`cores`]),
//!    bit-identical to the serial walk, the oracle they are tested on.
//! 2. **Shared layer walk** — the accelerator engine gets its values from
//!    the same [`forward::Transformer::forward_runs`] walk over the same
//!    [`ops`] kernels, so the co-design is functionally transparent by
//!    construction.
//!
//! A [`forward::Transformer`] is weights plus walk scratch and owns no
//! sequence: every pass reads and extends KV stores its caller holds (a
//! [`kv_cache::KvCache`], or any [`kv_cache::KvBatch`]).
//!
//! ## Quick example
//!
//! ```
//! use speedllm_llama::config::ModelConfig;
//! use speedllm_llama::weights::TransformerWeights;
//! use speedllm_llama::forward::Transformer;
//! use speedllm_llama::tokenizer::Tokenizer;
//! use speedllm_llama::sampler::Sampler;
//! use speedllm_llama::generate::{generate, GenerateOptions};
//!
//! let cfg = ModelConfig::test_tiny();
//! let mut model = Transformer::new(TransformerWeights::synthetic(cfg, 42));
//! let tokenizer = Tokenizer::synthetic(cfg.vocab_size, 42);
//! let mut sampler = Sampler::argmax();
//! let out = generate(&mut model, &tokenizer, &mut sampler, "once", GenerateOptions::default());
//! assert!(!out.generated_tokens.is_empty());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod cores;
pub mod eval;
pub mod forward;
pub mod generate;
pub mod kv_cache;
pub mod ops;
pub mod qgemm;
pub mod quant;
pub mod resident;
pub mod rng;
pub mod sampler;
pub mod tokenizer;
mod vocab;
pub mod weights;

pub use config::ModelConfig;
pub use forward::Transformer;
pub use quant::QuantMode;
pub use resident::ResidentWeights;
pub use sampler::{Sampler, SamplerKind};
pub use tokenizer::Tokenizer;
pub use weights::TransformerWeights;
