//! The customized data pipeline: multi-level read–compute–write iteration.
//!
//! Each kernel's work is decomposed into tiles, and each tile into a READ
//! (HBM → on-chip via the read DMA), a COMPUTE (MPE or SFU), and a WRITE
//! (on-chip → HBM via the write DMA). Two scheduling disciplines exist:
//!
//! * **Sequential** (the unoptimized iteration): stages of every tile are
//!   chained — `read; compute; write; read; …` — so the kernel time is the
//!   *sum* of all stage durations, and the host pays a full kernel-launch
//!   overhead before anything moves.
//! * **Streamed** (the paper's data-stream parallelism): stages run on
//!   dedicated resources with `depth`-deep double buffering, so tile `i`'s
//!   read overlaps tile `i−1`'s compute and tile `i−2`'s write; kernel time
//!   converges to the *max* stage total plus fill/drain, and launches are
//!   pipelined (enqueue-ahead), shrinking their exposed cost.
//!
//! [`schedule_kernel`] implements both against a shared
//! [`Timeline`], so per-resource busy cycles (for gated power) and optional
//! trace events fall out of the same recurrence.

use speedllm_fpga_sim::cycles::Cycles;
use speedllm_fpga_sim::event::{ResourceId, Span, Timeline};
use speedllm_fpga_sim::trace::TraceBuffer;

/// Timeline resource: host kernel dispatch.
pub const R_HOST: ResourceId = ResourceId(0);
/// Timeline resource: read DMA engine.
pub const R_DMA_RD: ResourceId = ResourceId(1);
/// Timeline resource: Matrix Processing Engine.
pub const R_MPE: ResourceId = ResourceId(2);
/// Timeline resource: Special Function Unit.
pub const R_SFU: ResourceId = ResourceId(3);
/// Timeline resource: write DMA engine.
pub const R_DMA_WR: ResourceId = ResourceId(4);
/// Number of timeline resources.
pub const N_RESOURCES: usize = 5;

/// Which compute unit a tile occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Dense MAC array.
    Mpe,
    /// Special function datapath.
    Sfu,
}

impl Unit {
    /// The timeline resource for this unit.
    #[must_use]
    pub fn resource(&self) -> ResourceId {
        match self {
            Unit::Mpe => R_MPE,
            Unit::Sfu => R_SFU,
        }
    }
}

/// Stage durations of one tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileCost {
    /// READ stage (HBM → on-chip) duration.
    pub read: Cycles,
    /// COMPUTE stage duration.
    pub compute: Cycles,
    /// WRITE stage (on-chip → HBM) duration.
    pub write: Cycles,
    /// Compute unit occupied.
    pub unit: Unit,
}

/// How a kernel is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Streamed (overlapping) vs sequential iteration.
    pub streamed: bool,
    /// Double-buffer depth: how many tiles may be in flight (≥ 1).
    /// Depth 1 degenerates to sequential-per-tile even when streamed.
    pub depth: usize,
    /// Host launch overhead for a sequential kernel.
    pub launch: Cycles,
    /// Exposed launch overhead when launches are pipelined (streamed).
    pub streamed_launch: Cycles,
}

/// The scheduling outcome of one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelTiming {
    /// Full kernel span (launch start → last stage end).
    pub span: Span,
    /// When the kernel's outputs are available to consumers.
    pub outputs_ready: Cycles,
}

/// Schedules one kernel's tiles.
///
/// * `host_ready` — earliest time the host may dispatch this kernel. A
///   naive host-driven loop passes the previous kernel's end (strict
///   serialization); a streaming runtime passes zero (enqueue-ahead).
/// * `read_ready` — earliest time the first READ may start (weight streams
///   depend only on the launch; activation reads additionally wait for
///   producer kernels).
/// * `compute_ready` — earliest time any COMPUTE may start (input
///   activations resident on-chip).
#[allow(clippy::too_many_arguments)] // a scheduling entry point: every arg is load-bearing
pub fn schedule_kernel(
    tl: &mut Timeline,
    mut trace: Option<&mut TraceBuffer>,
    cfg: &PipelineConfig,
    host_ready: Cycles,
    read_ready: Cycles,
    compute_ready: Cycles,
    tiles: &[TileCost],
    label: &str,
) -> KernelTiming {
    assert!(cfg.depth >= 1, "pipeline depth must be >= 1");
    let launch_cost = if cfg.streamed {
        cfg.streamed_launch
    } else {
        cfg.launch
    };
    let launch = tl.schedule(R_HOST, host_ready, launch_cost);
    if let Some(t) = trace.as_deref_mut() {
        t.record("HOST", launch, format!("{label}:launch"));
    }
    let start = launch.start;
    let read_ready = read_ready.max(launch.end);
    let compute_ready = compute_ready.max(launch.end);

    // Double-buffering applies to the *staging buffers* that weight/data
    // reads land in, so only tiles that actually read participate in the
    // reuse chain; pure-compute (SFU epilogue) tiles never hold a buffer.
    let mut staged_compute_ends: Vec<Cycles> = Vec::with_capacity(tiles.len());
    let mut end = launch.end;
    let mut seq_cursor = launch.end.max(read_ready);

    for (i, tile) in tiles.iter().enumerate() {
        let (r_start, c_start_min) = if cfg.streamed {
            // Buffer constraint: this read reuses the buffer freed by the
            // compute of the `depth`-th previous *reading* tile.
            let buffer_free = if tile.read > Cycles::ZERO && staged_compute_ends.len() >= cfg.depth
            {
                staged_compute_ends[staged_compute_ends.len() - cfg.depth]
            } else {
                Cycles::ZERO
            };
            (read_ready.max(buffer_free), compute_ready)
        } else {
            (seq_cursor.max(read_ready), seq_cursor)
        };
        let r = tl.schedule(R_DMA_RD, r_start, tile.read);
        let c = tl.schedule(
            tile.unit.resource(),
            r.end.max(c_start_min).max(compute_ready),
            tile.compute,
        );
        if tile.read > Cycles::ZERO {
            staged_compute_ends.push(c.end);
        }
        let w = tl.schedule(R_DMA_WR, c.end, tile.write);
        if let Some(t) = trace.as_deref_mut() {
            t.record("DMA-RD", r, format!("{label}:t{i}.read"));
            let unit_name = match tile.unit {
                Unit::Mpe => "MPE",
                Unit::Sfu => "SFU",
            };
            t.record(unit_name, c, format!("{label}:t{i}.compute"));
            t.record("DMA-WR", w, format!("{label}:t{i}.write"));
        }
        let tile_end = c.end.max(w.end);
        end = end.max(tile_end);
        if !cfg.streamed {
            seq_cursor = tile_end;
        }
    }

    KernelTiming {
        span: Span { start, end },
        outputs_ready: end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mpe_tile(read: u64, compute: u64, write: u64) -> TileCost {
        TileCost {
            read: Cycles(read),
            compute: Cycles(compute),
            write: Cycles(write),
            unit: Unit::Mpe,
        }
    }

    fn cfg(streamed: bool) -> PipelineConfig {
        PipelineConfig {
            streamed,
            depth: 2,
            launch: Cycles(100),
            streamed_launch: Cycles(10),
        }
    }

    #[test]
    fn sequential_is_sum_of_stages_plus_launch() {
        let mut tl = Timeline::new(N_RESOURCES);
        let tiles = vec![mpe_tile(10, 20, 5); 4];
        let t = schedule_kernel(
            &mut tl,
            None,
            &cfg(false),
            Cycles::ZERO,
            Cycles::ZERO,
            Cycles::ZERO,
            &tiles,
            "k",
        );
        // 100 launch + 4 * (10+20+5).
        assert_eq!(t.span.end, Cycles(100 + 4 * 35));
    }

    #[test]
    fn streamed_approaches_max_stage_total() {
        let mut tl = Timeline::new(N_RESOURCES);
        let tiles = vec![mpe_tile(10, 20, 5); 8];
        let t = schedule_kernel(
            &mut tl,
            None,
            &cfg(true),
            Cycles::ZERO,
            Cycles::ZERO,
            Cycles::ZERO,
            &tiles,
            "k",
        );
        // Steady state: one compute (20) per tile; fill = launch 10 + first
        // read 10; drain = last write 5. 10 + 10 + 8*20 + 5 = 185.
        assert_eq!(t.span.end, Cycles(185));
        // Far below the sequential 100 + 280 = 380.
    }

    #[test]
    fn streamed_read_bound_kernel() {
        let mut tl = Timeline::new(N_RESOURCES);
        // Reads dominate: steady state is one read per tile.
        let tiles = vec![mpe_tile(30, 10, 0); 5];
        let t = schedule_kernel(
            &mut tl,
            None,
            &cfg(true),
            Cycles::ZERO,
            Cycles::ZERO,
            Cycles::ZERO,
            &tiles,
            "k",
        );
        // launch 10 + 5 reads * 30 + last compute 10 = 170.
        assert_eq!(t.span.end, Cycles(170));
    }

    #[test]
    fn depth_one_streamed_cannot_overlap_reads_with_compute() {
        let mut tl = Timeline::new(N_RESOURCES);
        let mut c = cfg(true);
        c.depth = 1;
        let tiles = vec![mpe_tile(10, 10, 0); 4];
        let t = schedule_kernel(
            &mut tl,
            None,
            &c,
            Cycles::ZERO,
            Cycles::ZERO,
            Cycles::ZERO,
            &tiles,
            "k",
        );
        // Each read waits for the previous compute: launch 10 + 10 + 4*10
        // computes + 3*10 reads (after the first) = 10 + 10+10 + ... exact:
        // r0@10..20, c0@20..30, r1@30..40 (buffer frees at c0), c1@40..50,
        // r2@50..60, c2@60..70, r3@70..80, c3@80..90.
        assert_eq!(t.span.end, Cycles(90));
    }

    #[test]
    fn deeper_buffers_help_irregular_tiles() {
        let tiles: Vec<TileCost> = (0..12)
            .map(|i| {
                if i % 3 == 0 {
                    mpe_tile(40, 10, 0) // read-heavy
                } else {
                    mpe_tile(5, 30, 0) // compute-heavy
                }
            })
            .collect();
        let mut end2 = Cycles::ZERO;
        let mut end4 = Cycles::ZERO;
        for (depth, out) in [(2usize, &mut end2), (4usize, &mut end4)] {
            let mut tl = Timeline::new(N_RESOURCES);
            let mut c = cfg(true);
            c.depth = depth;
            *out = schedule_kernel(
                &mut tl,
                None,
                &c,
                Cycles::ZERO,
                Cycles::ZERO,
                Cycles::ZERO,
                &tiles,
                "k",
            )
            .span
            .end;
        }
        assert!(
            end4 <= end2,
            "deeper buffering cannot be slower: {end4:?} vs {end2:?}"
        );
    }

    #[test]
    fn ready_times_are_respected() {
        let mut tl = Timeline::new(N_RESOURCES);
        let tiles = vec![mpe_tile(10, 10, 0)];
        let t = schedule_kernel(
            &mut tl,
            None,
            &cfg(true),
            Cycles::ZERO,
            Cycles(500),
            Cycles(800),
            &tiles,
            "k",
        );
        // Read starts at 500, done 510; compute waits for 800.
        assert_eq!(t.span.end, Cycles(810));
    }

    #[test]
    fn sfu_and_mpe_tiles_use_distinct_resources() {
        let mut tl = Timeline::new(N_RESOURCES);
        let tiles = vec![
            TileCost {
                read: Cycles(0),
                compute: Cycles(50),
                write: Cycles(0),
                unit: Unit::Mpe,
            },
            TileCost {
                read: Cycles(0),
                compute: Cycles(50),
                write: Cycles(0),
                unit: Unit::Sfu,
            },
        ];
        schedule_kernel(
            &mut tl,
            None,
            &cfg(true),
            Cycles::ZERO,
            Cycles::ZERO,
            Cycles::ZERO,
            &tiles,
            "k",
        );
        assert_eq!(tl.busy(R_MPE), Cycles(50));
        assert_eq!(tl.busy(R_SFU), Cycles(50));
    }

    #[test]
    fn consecutive_kernels_serialize_on_resources() {
        let mut tl = Timeline::new(N_RESOURCES);
        let tiles = vec![mpe_tile(10, 10, 10); 2];
        let t1 = schedule_kernel(
            &mut tl,
            None,
            &cfg(true),
            Cycles::ZERO,
            Cycles::ZERO,
            Cycles::ZERO,
            &tiles,
            "k1",
        );
        // Second kernel's reads may prefetch (read_ready = 0 via its own
        // launch), but the MPE is still busy with k1.
        let t2 = schedule_kernel(
            &mut tl,
            None,
            &cfg(true),
            Cycles::ZERO,
            Cycles::ZERO,
            t1.outputs_ready,
            &tiles,
            "k2",
        );
        assert!(t2.span.end > t1.span.end);
        // DMA-RD busy equals total read time (4 tiles).
        assert_eq!(tl.busy(R_DMA_RD), Cycles(40));
    }

    #[test]
    fn trace_records_stage_segments() {
        let mut tl = Timeline::new(N_RESOURCES);
        let mut trace = speedllm_fpga_sim::trace::TraceBuffer::new(64);
        let tiles = vec![mpe_tile(10, 20, 5); 2];
        schedule_kernel(
            &mut tl,
            Some(&mut trace),
            &cfg(true),
            Cycles::ZERO,
            Cycles::ZERO,
            Cycles::ZERO,
            &tiles,
            "k",
        );
        let resources: std::collections::HashSet<&str> =
            trace.events().iter().map(|e| e.resource).collect();
        assert!(resources.contains("HOST"));
        assert!(resources.contains("DMA-RD"));
        assert!(resources.contains("MPE"));
        assert!(resources.contains("DMA-WR"));
    }

    #[test]
    fn empty_tile_list_costs_only_launch() {
        let mut tl = Timeline::new(N_RESOURCES);
        let t = schedule_kernel(
            &mut tl,
            None,
            &cfg(false),
            Cycles::ZERO,
            Cycles::ZERO,
            Cycles::ZERO,
            &[],
            "k",
        );
        assert_eq!(t.span.duration(), Cycles(100));
    }
}
