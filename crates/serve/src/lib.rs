//! # speedllm-serve
//!
//! The serving layer above the SpeedLLM accelerator: a continuous-batching
//! engine that multiplexes many generation requests over one model and a
//! fixed pool of KV-cache slots (DESIGN.md §11).
//!
//! * [`engine::ServeEngine`] — the scheduler: one tick loop (admit →
//!   capacity → sample → plan → issue → settle → evict) whose plan step is
//!   all that differs between phase-serialized prefill-then-decode,
//!   unified mixed batching under a token budget (DESIGN.md §14) and
//!   speculative draft-then-verify decoding (DESIGN.md §16). With a paged
//!   backend, admission is block-budget gated, common prompt prefixes are
//!   shared through a radix index, and block exhaustion preempts the
//!   youngest sequence (DESIGN.md §12).
//! * [`backend`] — the [`backend::Backend`] trait plus the CPU-reference
//!   and accelerator-simulation implementations, each in flat (slot-pool)
//!   and paged (block-table) flavors.
//! * [`loadgen`] — a seeded, deterministic synthetic traffic generator
//!   (open or closed loop).
//! * [`report`] — exact-percentile latency/throughput reporting in
//!   virtual ticks, byte-reproducible for a given seed.
//! * [`events`] — per-request lifecycle event log (virtual-tick stamped,
//!   JSONL + Perfetto export), per-tick scheduler samples, and exact
//!   phase breakdowns (DESIGN.md §15). Attach with
//!   [`engine::ServeEngine::attach_recorder`]; recording never perturbs
//!   token streams.
//! * [`analyze`] — the textual dashboard behind `speedllm analyze`:
//!   phase-breakdown table, goodput, top-N slowest requests, anomaly
//!   flags, all derived from the event JSONL.
//!
//! ## Quick example
//!
//! ```
//! use speedllm_llama::config::ModelConfig;
//! use speedllm_llama::forward::Transformer;
//! use speedllm_llama::sampler::SamplerKind;
//! use speedllm_llama::weights::TransformerWeights;
//! use speedllm_serve::backend::CpuBackend;
//! use speedllm_serve::engine::{ServeConfig, ServeEngine};
//! use speedllm_serve::loadgen::{ArrivalMode, LoadGen, LoadGenConfig};
//!
//! let cfg = ModelConfig::test_tiny();
//! let backend = CpuBackend::new(Transformer::new(TransformerWeights::synthetic(cfg, 42)));
//! let mut engine = ServeEngine::new(backend, ServeConfig::default());
//! let mut traffic = LoadGen::new(&LoadGenConfig {
//!     n_requests: 4,
//!     mode: ArrivalMode::Closed { concurrency: 2 },
//!     prompt_len: (2, 6),
//!     shared_prefix_len: 0,
//!     max_new_tokens: (1, 8),
//!     sampler: SamplerKind::Temperature(0.8),
//!     stop_at_eos: true,
//!     vocab_size: cfg.vocab_size,
//!     seq_len: cfg.seq_len,
//!     seed: 7,
//! });
//! let completions = engine.run_with_source(&mut traffic);
//! assert_eq!(completions.len(), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod backend;
pub mod engine;
pub mod events;
pub mod loadgen;
pub mod report;

pub use analyze::{render_analysis, AnalyzeOptions};
pub use backend::{AccelBackend, ArgmaxSlot, Backend, CpuBackend, ServeSlot};
pub use engine::{
    Completion, Request, ServeConfig, ServeEngine, ServeStats, TrafficSource, UnifiedConfig,
};
pub use events::{
    events_to_chrome, parse_events_jsonl, phase_breakdowns, Event, EventKind, EventLog,
    RequestPhases, ServeRecorder,
};
pub use loadgen::{ArrivalMode, LoadGen, LoadGenConfig};
pub use report::{percentile, Percentiles, ServeReport};
