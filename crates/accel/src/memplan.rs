//! Memory-allocation reuse planning.
//!
//! Every value a schedule materializes needs a home. The planner assigns
//! one of:
//!
//! * [`Placement::Internal`] — fused away inside a kernel (free);
//! * [`Placement::Ocm`] — a segment of the on-chip URAM pool, allocated at
//!   the producing kernel and recycled the moment the last consumer
//!   finishes. This is the paper's *cyclic / loop-back reuse*: liveness is
//!   tracked per kernel step and freed segments are immediately available
//!   to later values, so the pool's high-water mark stays near the width of
//!   the widest live set instead of growing with the graph.
//! * [`Placement::Hbm`] — a fresh off-chip buffer (the naive baseline):
//!   each one costs an allocation stall and makes its consumers pay HBM
//!   round-trip traffic.
//!
//! With `memory_reuse == false` every materialized value goes to HBM; with
//! it on, values go to the pool first-fit and only overflow to HBM if the
//! pool is exhausted (which never happens for the shipped workloads — the
//! tests assert it).

use speedllm_fpga_sim::ocm::{OcmPool, Segment};

use crate::fusion::Schedule;
use crate::ir::{Graph, ValueId};

/// Where a value lives during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Never materialized (streams inside a fused kernel).
    Internal,
    /// On-chip segment (URAM pool), recycled after last use.
    Ocm(Segment),
    /// Fresh HBM buffer with an allocation stall.
    Hbm,
}

/// The planner's output.
#[derive(Debug, Clone)]
pub struct MemoryPlan {
    /// Placement per [`ValueId`] index.
    pub placements: Vec<Placement>,
    /// Peak bytes simultaneously allocated in the on-chip pool.
    pub ocm_high_water: u64,
    /// Pool allocations performed (reuse events ≈ allocs − high-water/size).
    pub ocm_allocs: u64,
    /// Values that had to fall back to HBM despite reuse being enabled.
    pub overflowed: usize,
    /// Total bytes of activations placed in HBM.
    pub hbm_activation_bytes: u64,
    /// Pool capacity used for planning.
    pub pool_bytes: u64,
}

impl MemoryPlan {
    /// Placement of a value.
    #[must_use]
    pub fn placement(&self, v: ValueId) -> Placement {
        self.placements[v.0]
    }

    /// Number of values in HBM (activation round-trips).
    #[must_use]
    pub fn hbm_values(&self) -> usize {
        self.placements
            .iter()
            .filter(|p| matches!(p, Placement::Hbm))
            .count()
    }

    /// Number of values in the on-chip pool.
    #[must_use]
    pub fn ocm_values(&self) -> usize {
        self.placements
            .iter()
            .filter(|p| matches!(p, Placement::Ocm(_)))
            .count()
    }
}

/// Computes, per materialized value, the kernel index after which it is
/// dead (its last consumer; the graph output lives to the end).
fn last_use_kernel(graph: &Graph, schedule: &Schedule, v: ValueId) -> usize {
    let output = graph.output();
    if v == output {
        return schedule.kernels.len() - 1;
    }
    graph
        .consumers(v)
        .into_iter()
        .map(|oi| schedule.kernel_of(oi))
        .max()
        .expect("materialized value must have consumers")
}

/// Plans placements for `graph` under `schedule`, first-fit in the pool.
///
/// `pool_bytes` is the URAM budget dedicated to activation recycling
/// (weights and KV stay in HBM regardless).
#[must_use]
pub fn plan(graph: &Graph, schedule: &Schedule, memory_reuse: bool, pool_bytes: u64) -> MemoryPlan {
    let classes = schedule.classify(graph);
    let mut placements = vec![Placement::Internal; graph.values.len()];
    let mut hbm_activation_bytes = 0u64;
    let mut overflowed = 0usize;

    if !memory_reuse {
        for &(v, _) in &classes.materialized {
            placements[v.0] = Placement::Hbm;
            hbm_activation_bytes += graph.values[v.0].bytes();
        }
        return MemoryPlan {
            placements,
            ocm_high_water: 0,
            ocm_allocs: 0,
            overflowed: 0,
            hbm_activation_bytes,
            pool_bytes,
        };
    }

    // Liveness-driven pool simulation over kernel steps.
    let mut pool = OcmPool::new(pool_bytes);
    let n_kernels = schedule.kernels.len();
    // Values to free after each kernel step.
    let mut death_row: Vec<Vec<ValueId>> = vec![Vec::new(); n_kernels];
    for &(v, _) in &classes.materialized {
        death_row[last_use_kernel(graph, schedule, v)].push(v);
    }
    // Values born at each kernel step.
    let mut births: Vec<Vec<ValueId>> = vec![Vec::new(); n_kernels];
    for &(v, producer_k) in &classes.materialized {
        births[producer_k].push(v);
    }

    for k in 0..n_kernels {
        for &v in &births[k] {
            let bytes = graph.values[v.0].bytes();
            match pool.alloc(bytes) {
                Ok(seg) => placements[v.0] = Placement::Ocm(seg),
                Err(_) => {
                    placements[v.0] = Placement::Hbm;
                    hbm_activation_bytes += bytes;
                    overflowed += 1;
                }
            }
        }
        for &v in &death_row[k] {
            if let Placement::Ocm(seg) = placements[v.0] {
                pool.free(seg);
            }
        }
    }

    MemoryPlan {
        placements,
        ocm_high_water: pool.high_water(),
        ocm_allocs: pool.alloc_count(),
        overflowed,
        hbm_activation_bytes,
        pool_bytes,
    }
}

/// Soundness checker used by tests: replays the kernel sequence and
/// asserts no two *simultaneously live* OCM values overlap and that live
/// bytes never exceed the pool. Returns the observed peak.
pub fn verify_plan(graph: &Graph, schedule: &Schedule, plan: &MemoryPlan) -> Result<u64, String> {
    let classes = schedule.classify(graph);
    let n_kernels = schedule.kernels.len();
    let mut live: Vec<(ValueId, Segment)> = Vec::new();
    let mut peak = 0u64;
    for k in 0..n_kernels {
        // Births first.
        for &(v, producer_k) in &classes.materialized {
            if producer_k != k {
                continue;
            }
            if let Placement::Ocm(seg) = plan.placement(v) {
                for &(other, oseg) in &live {
                    let disjoint =
                        seg.offset + seg.len <= oseg.offset || oseg.offset + oseg.len <= seg.offset;
                    if !disjoint {
                        return Err(format!(
                            "values {v:?} and {other:?} overlap in OCM at kernel {k}"
                        ));
                    }
                }
                live.push((v, seg));
            }
        }
        let live_bytes: u64 = live.iter().map(|(_, s)| s.len).sum();
        peak = peak.max(live_bytes);
        if live_bytes > plan.pool_bytes {
            return Err(format!(
                "live bytes {live_bytes} exceed pool {}",
                plan.pool_bytes
            ));
        }
        // Deaths after the kernel executes.
        live.retain(|&(v, _)| last_use_kernel(graph, schedule, v) != k);
    }
    Ok(peak)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fuse;
    use crate::ir::build_decode_graph;
    use speedllm_llama::config::ModelConfig;

    const POOL: u64 = 2 << 20;

    fn setup(fused: bool) -> (Graph, Schedule) {
        let g = build_decode_graph(&ModelConfig::test_tiny());
        let s = fuse(&g, fused);
        (g, s)
    }

    #[test]
    fn naive_plan_puts_everything_in_hbm() {
        let (g, s) = setup(false);
        let p = plan(&g, &s, false, POOL);
        assert_eq!(p.ocm_values(), 0);
        assert_eq!(p.hbm_values(), g.values.len());
        assert!(p.hbm_activation_bytes > 0);
    }

    #[test]
    fn reuse_plan_fits_on_chip() {
        let (g, s) = setup(true);
        let p = plan(&g, &s, true, POOL);
        assert_eq!(p.overflowed, 0);
        assert_eq!(p.hbm_values(), 0);
        assert!(p.ocm_values() > 0);
        verify_plan(&g, &s, &p).unwrap();
    }

    #[test]
    fn reuse_high_water_is_far_below_total_bytes() {
        let (g, s) = setup(true);
        let p = plan(&g, &s, true, POOL);
        let total: u64 = g.values.iter().map(|v| v.bytes()).sum();
        assert!(
            p.ocm_high_water * 3 < total,
            "cyclic reuse should keep peak ({}) well under total ({total})",
            p.ocm_high_water
        );
    }

    #[test]
    fn reuse_recycles_segments() {
        let (g, s) = setup(true);
        let p = plan(&g, &s, true, POOL);
        // More allocations than peak-bytes/smallest-value implies recycling:
        // allocations must exceed the number of values that could fit the
        // high-water region at once.
        assert!(p.ocm_allocs as usize > 2 * ModelConfig::test_tiny().n_layers);
        // Distinct values may share the same offset (over time).
        let mut offsets = std::collections::HashMap::new();
        let mut shared = 0;
        for pl in &p.placements {
            if let Placement::Ocm(seg) = pl {
                *offsets.entry(seg.offset).or_insert(0usize) += 1;
                if offsets[&seg.offset] > 1 {
                    shared += 1;
                }
            }
        }
        assert!(shared > 0, "no segment was ever reused");
    }

    #[test]
    fn tiny_pool_overflows_to_hbm() {
        let (g, s) = setup(true);
        let p = plan(&g, &s, true, 64); // 64 bytes: almost nothing fits
        assert!(p.overflowed > 0);
        assert!(p.hbm_activation_bytes > 0);
        verify_plan(&g, &s, &p).unwrap();
        // A larger pool never spills more: over stories15M's fused graph,
        // neither the overflowed values nor their HBM bytes grow.
        let g = build_decode_graph(&ModelConfig::stories15m());
        let s = fuse(&g, true);
        let mut last: Option<(usize, u64)> = None;
        for pool in [16 << 10, 64 << 10, 256 << 10, 1 << 20, 2 << 20] {
            let p = plan(&g, &s, true, pool);
            verify_plan(&g, &s, &p).unwrap();
            let now = (p.overflowed, p.hbm_activation_bytes);
            if let Some(prev) = last {
                assert!(
                    now.0 <= prev.0 && now.1 <= prev.1,
                    "pool {pool}: {now:?} after {prev:?}"
                );
            }
            last = Some(now);
        }
    }

    #[test]
    fn unfused_reuse_also_sound() {
        let (g, s) = setup(false);
        let p = plan(&g, &s, true, POOL);
        verify_plan(&g, &s, &p).unwrap();
        assert_eq!(p.overflowed, 0);
    }

    #[test]
    fn stories15m_activations_fit_default_pool() {
        let g = build_decode_graph(&ModelConfig::stories15m());
        let s = fuse(&g, true);
        let p = plan(&g, &s, true, POOL);
        assert_eq!(
            p.overflowed, 0,
            "stories15M activations must fit 2 MiB URAM pool"
        );
        verify_plan(&g, &s, &p).unwrap();
    }

    #[test]
    fn fused_plan_has_fewer_materialized_values() {
        let (g, s_fused) = setup(true);
        let s_unfused = fuse(&g, false);
        let pf = plan(&g, &s_fused, true, POOL);
        let pu = plan(&g, &s_unfused, true, POOL);
        assert!(pf.ocm_values() < pu.ocm_values());
    }

    #[test]
    fn verifier_catches_forged_overlap() {
        let (g, s) = setup(true);
        let mut p = plan(&g, &s, true, POOL);
        // Forge: force two early long-lived values onto the same segment.
        let classes = s.classify(&g);
        let mut picked: Vec<ValueId> = Vec::new();
        for &(v, _) in &classes.materialized {
            // Two values alive at the same time: the residual input x0
            // (lives until L0.res_att) and L0.q_rot (crosses into the
            // attention kernel while x0 is still live).
            if g.values[v.0].name == "L0.q_rot" || g.values[v.0].name == "x0" {
                picked.push(v);
            }
        }
        if picked.len() == 2 {
            let seg = Segment {
                offset: 0,
                len: graph_bytes(&g, picked[0]),
            };
            p.placements[picked[0].0] = Placement::Ocm(seg);
            p.placements[picked[1].0] = Placement::Ocm(seg);
            assert!(verify_plan(&g, &s, &p).is_err());
        } else {
            panic!("expected both x0 and L0.q_rot to be materialized");
        }
    }

    fn graph_bytes(g: &Graph, v: ValueId) -> u64 {
        g.values[v.0].bytes()
    }
}
