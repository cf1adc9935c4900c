//! # speedllm-bench
//!
//! The in-repo [`harness`] and the one bench it runs,
//! `benches/cpu_kernels.rs`. The paper's tables are printed by the
//! `speedllm` CLI (`compare`, `generate`, `devices`; DESIGN.md §4 is the
//! experiment index); the simulator's own speed and the serve paths are
//! timed by the `benchmark/` package.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
