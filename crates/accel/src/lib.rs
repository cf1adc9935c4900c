//! # speedllm-accel
//!
//! The paper's primary contribution: the SpeedLLM accelerator, mapped onto
//! the [`speedllm_fpga_sim`] device model and executing real
//! [`speedllm_llama`] inference.
//!
//! Pipeline from model to metrics:
//!
//! 1. [`ir`] builds the SSA decode graph of one Llama-2 token step.
//! 2. [`fusion`] groups ops into composite kernels (toggleable — the
//!    paper's *operator fusion*).
//! 3. [`memplan`] places every materialized value: recycled on-chip
//!    segment (the paper's *memory-allocation reuse*) or fresh HBM buffer.
//! 4. [`pipeline`] schedules each kernel's read–compute–write tiles,
//!    sequential or double-buffered/streamed (the paper's *data-stream
//!    parallelism*).
//! 5. [`engine`] runs both the functional math and the timing model;
//!    [`runtime`] wraps it in the host loop and produces
//!    [`runtime::InferenceReport`]s with the paper's metrics.
//!
//! The four Fig. 2 variants are presets on [`opt::OptConfig`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod fusion;
pub mod ir;
pub mod memplan;
pub mod opt;
pub mod pipeline;
pub mod report;
pub mod roofline;
pub mod runtime;

pub use engine::{AccelConfig, Engine, StepResult};
pub use opt::OptConfig;
pub use runtime::{AcceleratedLlm, InferenceReport, Session};
