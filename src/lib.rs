//! # SpeedLLM
//!
//! A from-scratch Rust reproduction of *"SpeedLLM: An FPGA Co-design of
//! Large Language Model Inference Accelerator"* (HPDC '25): a TinyLlama
//! (llama2.c) inference accelerator for the Xilinx Alveo U280, rebuilt as a
//! cycle-approximate simulator with the paper's three co-design
//! optimizations — data-stream pipelining, memory-allocation reuse, and
//! Llama-2 operator fusion.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`llama`] — the Llama-2 model substrate (tokenizer, weights, reference
//!   forward pass, sampling, quantization).
//! * [`fpga`] — the U280 device model (HBM, on-chip memory, MPE, SFU,
//!   resources, power).
//! * [`accel`] — the SpeedLLM accelerator itself (IR, fusion, memory
//!   planner, streamed pipeline, engine, host runtime).
//! * [`gpu`] — the analytical GPU roofline used in the cost study.
//! * [`pagedkv`] — the block-granular paged KV-cache (free-list allocator,
//!   block tables, radix-tree prefix sharing) behind `--kv paged` serving.
//! * [`serve`] — the continuous-batching serve layer over either backend.
//! * [`router`] — the cluster front-end: N serve replicas behind one
//!   queue with prefix-aware routing, load-aware admission, and
//!   deterministic failover.
//!
//! ## Quickstart
//!
//! ```
//! use speedllm::prelude::*;
//!
//! // Build a (synthetic) stories15M-architecture model and run it on the
//! // fully-optimized accelerator.
//! let cfg = ModelConfig::test_tiny();
//! let system = AcceleratedLlm::synthetic(cfg, 42, OptConfig::full()).unwrap();
//! let mut session = system.session(SamplerKind::Argmax, 7);
//! let report = session.generate("once upon a time", 16).unwrap();
//! assert!(report.output.generated_tokens.len() <= 16);
//! ```

#![forbid(unsafe_code)]

pub use speedllm_accel as accel;
pub use speedllm_fpga_sim as fpga;
pub use speedllm_gpu_model as gpu;
pub use speedllm_llama as llama;
pub use speedllm_pagedkv as pagedkv;
pub use speedllm_router as router;
pub use speedllm_serve as serve;
pub use speedllm_telemetry as telemetry;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use speedllm_accel::engine::{AccelConfig, Engine};
    pub use speedllm_accel::opt::OptConfig;
    pub use speedllm_accel::runtime::{AcceleratedLlm, InferenceReport, Session};
    pub use speedllm_llama::config::ModelConfig;
    pub use speedllm_llama::resident::{IntoResident, ResidentWeights};
    pub use speedllm_llama::sampler::{Sampler, SamplerKind};
    pub use speedllm_llama::tokenizer::Tokenizer;
    pub use speedllm_llama::weights::TransformerWeights;
    pub use speedllm_pagedkv::{
        BlockAllocator, BlockConfig, BlockTable, KvSpace, PagedKvArena, RadixIndex, SeqKv,
    };
    pub use speedllm_serve::{
        AccelBackend, Backend, CpuBackend, ServeConfig, ServeEngine, ServeReport,
    };
}
