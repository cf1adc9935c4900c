//! # speedllm-router
//!
//! The cluster front-end over the serve layer (DESIGN.md §17): N
//! independent [`speedllm_serve::ServeEngine`] replicas — each with its
//! own backend, KV budget, and paged-KV arena — behind a single router
//! queue, driven by one deterministic virtual-tick cluster clock.
//!
//! Three pieces:
//!
//! * [`policy`] — the routing stack: prefix-cache-aware placement
//!   (side-effect-free `RadixIndex` probes), least-outstanding-tokens
//!   load balancing with a per-replica backpressure cap, and a
//!   round-robin baseline.
//! * [`fault`] — scheduled replica outages ([`FaultPlan`]); a downed
//!   replica's incomplete requests drain back into the router queue and
//!   re-route, with token streams bit-identical to a no-fault run.
//! * [`cluster`] / [`report`] — the tick loop and the byte-reproducible
//!   [`ClusterReport`] (per-replica serve reports plus router rows).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod fault;
pub mod policy;
pub mod report;

pub use cluster::{Cluster, ClusterCompletion, ClusterConfig, RouteDecision};
pub use fault::FaultPlan;
pub use policy::{Candidate, Policy, RouteReason};
pub use report::{stream_digest, ClusterReport, RouterStats};
