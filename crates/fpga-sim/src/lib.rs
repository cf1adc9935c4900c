//! # speedllm-fpga-sim
//!
//! A cycle-approximate model of the Xilinx Alveo U280 accelerator card —
//! the device substrate of the SpeedLLM reproduction (see DESIGN.md §2 for
//! the substitution argument; absolute cycle counts are approximate, but
//! the bottleneck structure of the real card is preserved).
//!
//! Components, mirroring Fig. 1 of the paper:
//!
//! * [`hbm`] — the 32-pseudo-channel HBM2 stack (bandwidth, latency,
//!   bursts, traffic counters).
//! * [`ocm`] — the on-chip (URAM) pool: a first-fit, cyclically reusing
//!   byte allocator.
//! * [`mpe`] — the DSP-based Matrix Processing Engine timing model
//!   (fp32 and int8 design points).
//! * [`sfu`] — the Special Function Unit (softmax, rmsnorm, RoPE, SiLU,
//!   element-wise ops).
//! * [`dma`] — AXI stream engines between HBM and on-chip buffers.
//! * [`event`] — resource timelines and an event queue; the substrate the
//!   streamed pipeline recurrence is built on.
//! * [`resources`] — the XCU280 fabric budget and per-block utilization
//!   estimation; designs that do not fit are rejected.
//! * [`power`] — activity-based energy model with per-component power
//!   gating.
//! * [`stats`] / [`trace`] — run statistics and ASCII Gantt tracing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cycles;
pub mod dma;
pub mod event;
pub mod hbm;
pub mod mpe;
pub mod ocm;
pub mod power;
pub mod resources;
pub mod sfu;
pub mod stats;
pub mod trace;

pub use cycles::{ClockDomain, Cycles};
pub use event::{ResourceId, Span, Timeline};
pub use hbm::{Hbm, HbmConfig};
pub use mpe::{Mpe, MpeConfig, Precision};
pub use ocm::OcmPool;
pub use power::{EnergyBreakdown, PowerModel};
pub use resources::Resources;
pub use sfu::{Sfu, SfuKind};
pub use stats::SimStats;
