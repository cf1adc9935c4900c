//! The accelerator engine: one model on the simulated device. It owns no
//! sequence and no KV storage: every pass extends the [`KvBatch`] its
//! caller passes — a session's [`KvCache`](speedllm_llama::kv_cache::KvCache),
//! a serve backend's flat or paged sequences — each run starting at that
//! sequence's stored length.
//!
//! A device pass ([`Engine::forward_runs`]) is two halves that share
//! nothing but the pass's row positions:
//!
//! * **Values** (`Engine::execute`) — one call of the CPU reference's
//!   layer walk ([`Transformer::forward_runs`]) over every row of the
//!   pass, on the caller's KV. There is no second interpreter:
//!   fusion, placement and pipelining change *timing*, never values, so
//!   logits are bit-identical to the CPU path at the same weight
//!   precision.
//! * **Cost** (`Engine::time`) — what the op graph, fused schedule and
//!   memory plan are for. Every kernel is decomposed into read/compute/
//!   write tiles (weight streaming per MPE row-wave, KV paging for
//!   attention, activation round-trips for HBM-placed values) and
//!   scheduled on the shared resource timeline by
//!   [`crate::pipeline::schedule_kernel`] under the active [`OptConfig`]
//!   discipline; device counters accumulate into a per-pass [`SimStats`]
//!   for the power model.
//!
//! So values may batch more coarsely than cost: `Session` prefill walks up
//! to [`STAGING_ROWS`] prompt rows at once and still charges one pass per
//! [`AccelConfig::prefill_chunk`] positions.

use std::sync::Arc;

use speedllm_telemetry as tel;

use speedllm_fpga_sim::cycles::Cycles;
use speedllm_fpga_sim::dma::{Direction, DmaConfig, DmaEngine};
use speedllm_fpga_sim::event::Timeline;
use speedllm_fpga_sim::hbm::{Hbm, HbmConfig};
use speedllm_fpga_sim::mpe::{Mpe, MpeConfig, Precision};
use speedllm_fpga_sim::power::PowerModel;
use speedllm_fpga_sim::resources::{
    check_fit, estimate_buffers, estimate_dma, estimate_mpe, estimate_sfu, OverBudget, Resources,
};
use speedllm_fpga_sim::sfu::{Sfu, SfuKind};
use speedllm_fpga_sim::stats::SimStats;
use speedllm_fpga_sim::trace::TraceBuffer;
use speedllm_llama::forward::{LogitRows, Transformer};
use speedllm_llama::kv_cache::KvBatch;
use speedllm_llama::quant::QuantMode;
use speedllm_llama::resident::{IntoResident, ResidentWeights};

use crate::fusion::{fuse_with_limit, Schedule};
use crate::ir::{build_decode_graph, Graph, OpKind, ValueId};
use crate::memplan::{plan, MemoryPlan, Placement};
use crate::opt::OptConfig;
use crate::pipeline::{schedule_kernel, PipelineConfig, TileCost, Unit, N_RESOURCES};

/// Token rows one device pass may stage on chip: the most a pass, a
/// prefill chunk or a serve tick may carry.
pub const STAGING_ROWS: usize = 64;

/// Device/design parameters of an accelerator instance. Derived from an
/// [`OptConfig`] by [`AccelConfig::for_opt`]; individually overridable for
/// ablation studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Matrix engine design point.
    pub mpe: MpeConfig,
    /// HBM stack parameters.
    pub hbm: HbmConfig,
    /// Read-side DMA engine.
    pub read_dma: DmaConfig,
    /// Write-side DMA engine.
    pub write_dma: DmaConfig,
    /// Host kernel-launch overhead (sequential dispatch).
    pub launch_overhead: Cycles,
    /// Exposed launch overhead with pipelined enqueue (streamed).
    pub streamed_launch_overhead: Cycles,
    /// Stall per fresh HBM buffer allocation (naive memory management).
    pub alloc_stall: Cycles,
    /// Tile double-buffer depth in streamed mode.
    pub double_buffer_depth: usize,
    /// URAM bytes dedicated to the activation-recycling pool.
    pub activation_pool_bytes: u64,
    /// KV pages of this many positions per attention read tile.
    pub kv_page_positions: usize,
    /// Composite-kernel depth limit handed to the fusion pass.
    pub fusion_max_ops: usize,
    /// Prompt tokens processed per device pass during prefill (chunked
    /// prefill, an extension beyond the paper). 1 = paper-faithful
    /// token-at-a-time prefill; larger values amortize weight streaming
    /// across the chunk. [`Engine::with_config`] refuses a value outside
    /// 1..=[`STAGING_ROWS`].
    pub prefill_chunk: usize,
    /// Energy model.
    pub power: PowerModel,
}

impl AccelConfig {
    /// The shipped design point for an optimization selection.
    ///
    /// The data-stream co-design also widens the DMA striping: a streamed
    /// design instantiates separate wide read/write engines (24 + 8
    /// pseudo-channels), while the naive baseline is a single-port-style
    /// design on 6 channels — the footprint a first-pass HLS implementation
    /// actually has.
    #[must_use]
    pub fn for_opt(opt: &OptConfig) -> Self {
        let mpe = match opt.precision {
            Precision::Fp32 => MpeConfig::u280_fp32(),
            Precision::Int8 => MpeConfig::u280_int8(),
            Precision::Int4 => MpeConfig::u280_int4(),
        };
        let mut hbm = HbmConfig::u280();
        if opt.precision != Precision::Fp32 {
            // Quantized weight streams move in group-sized transfers (32 B
            // Q8_0 / 16 B Q4_0 payloads), so the design point narrows the
            // burst to halve padding waste on those small reads.
            hbm.burst_bytes = 32;
        }
        let (rd_ch, wr_ch) = if opt.stream_parallel { (24, 8) } else { (8, 8) };
        let pipelined = opt.stream_parallel;
        Self {
            mpe,
            hbm,
            read_dma: DmaConfig {
                channels: rd_ch,
                setup_cycles: 16,
                pipelined,
            },
            write_dma: DmaConfig {
                channels: wr_ch,
                setup_cycles: 16,
                pipelined,
            },
            launch_overhead: Cycles(240),
            streamed_launch_overhead: Cycles(40),
            alloc_stall: Cycles(320),
            double_buffer_depth: 2,
            activation_pool_bytes: 2 << 20,
            kv_page_positions: 32,
            fusion_max_ops: crate::fusion::MAX_OPS_PER_KERNEL,
            prefill_chunk: 1,
            power: PowerModel::u280(),
        }
    }

    /// Fabric cost estimate of this design point.
    #[must_use]
    pub fn resource_usage(&self) -> Resources {
        let mut total = estimate_mpe(&self.mpe)
            .plus(estimate_dma(self.read_dma.channels))
            .plus(estimate_dma(self.write_dma.channels));
        for kind in SfuKind::ALL {
            total = total.plus(estimate_sfu(kind));
        }
        // Tile double buffers in BRAM + activation pool in URAM.
        let tile_buf_bytes = (self.double_buffer_depth as u64 + 1) * 256 * 1024;
        total.plus(estimate_buffers(tile_buf_bytes, self.activation_pool_bytes))
    }

    /// Checks the design fits the U280.
    pub fn validate(&self) -> Result<(), OverBudget> {
        check_fit(&self.resource_usage(), &Resources::u280_budget())
    }
}

/// Bytes of a `rows × cols` matrix in HBM at `precision`: f32, or the
/// packed payload (int8 one byte an element, int4 two elements a byte)
/// plus one f32 scale per 32-wide group per row.
fn packed_bytes(precision: Precision, rows: usize, cols: usize) -> u64 {
    let payload = match precision {
        Precision::Fp32 => return (rows * cols * 4) as u64,
        Precision::Int8 => cols,
        Precision::Int4 => cols.div_ceil(2),
    };
    (rows * (payload + cols.div_ceil(32) * 4)) as u64
}

/// Result of one device pass.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Logits over the vocabulary after the pass's last row.
    pub logits: Vec<f32>,
    /// Makespan of the step.
    pub cycles: Cycles,
    /// Device activity of the step.
    pub stats: SimStats,
}

/// Construction errors.
#[derive(Debug)]
pub enum EngineError {
    /// The design point does not fit the device.
    OverBudget(OverBudget),
    /// [`AccelConfig::prefill_chunk`] is 0 or above [`STAGING_ROWS`].
    PrefillChunk(usize),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::OverBudget(e) => write!(f, "{e}"),
            EngineError::PrefillChunk(chunk) => write!(
                f,
                "prefill chunk {chunk} outside 1..={STAGING_ROWS} (the on-chip staging limit)"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Refuses a prefill chunk that one device pass could not stage.
///
/// # Errors
/// [`EngineError::PrefillChunk`] outside 1..=[`STAGING_ROWS`].
pub(crate) fn check_prefill_chunk(chunk: usize) -> Result<(), EngineError> {
    if (1..=STAGING_ROWS).contains(&chunk) {
        Ok(())
    } else {
        Err(EngineError::PrefillChunk(chunk))
    }
}

/// The fused schedule and what every timing pass reads of it, fixed when
/// the engine is built: per kernel, the values it loads from outside
/// itself, in first-use order.
struct KernelPlan {
    schedule: Schedule,
    external_inputs: Vec<Vec<ValueId>>,
}

impl KernelPlan {
    fn new(graph: &Graph, schedule: Schedule) -> Self {
        let external_inputs = schedule
            .kernels
            .iter()
            .map(|kernel| {
                let produced_here: std::collections::HashSet<ValueId> = kernel
                    .ops
                    .iter()
                    .flat_map(|&oi| graph.ops[oi].outputs.iter().copied())
                    .collect();
                let mut external: Vec<ValueId> = Vec::new();
                for &oi in &kernel.ops {
                    for &inp in &graph.ops[oi].inputs {
                        if !produced_here.contains(&inp) && !external.contains(&inp) {
                            external.push(inp);
                        }
                    }
                }
                external
            })
            .collect();
        Self {
            schedule,
            external_inputs,
        }
    }
}

/// The simulated SpeedLLM accelerator bound to one model.
pub struct Engine {
    /// The model the walk runs: weights at `opt.precision`, shared with
    /// every other engine, model and backend of the same checkpoint, and
    /// the walk's row scratch.
    model: Transformer,
    opt: OptConfig,
    cfg: AccelConfig,
    graph: Graph,
    /// Shared with each timing pass, which borrows the device mutably.
    kernels: Arc<KernelPlan>,
    plan: MemoryPlan,
    // Device component models (counters accumulate across steps).
    hbm: Hbm,
    mpe: Mpe,
    sfu: Sfu,
    dma_rd: DmaEngine,
    dma_wr: DmaEngine,
    launches: u64,
    stalls: u64,
    // Optional capture of the next step's timeline.
    trace: Option<TraceBuffer>,
}

impl Engine {
    /// Builds an engine for `weights` under `opt`, using the shipped
    /// design point.
    pub fn new(weights: impl IntoResident, opt: OptConfig) -> Result<Self, EngineError> {
        Self::with_config(weights, opt, AccelConfig::for_opt(&opt))
    }

    /// Builds an engine with an explicit design point (ablations).
    /// `weights` are resident weights to share — already at
    /// `opt.precision`, or f32 and not yet shared — or a checkpoint to
    /// consume at that precision.
    ///
    /// # Errors
    /// [`EngineError::OverBudget`] when the design does not fit the
    /// device, [`EngineError::PrefillChunk`] for a chunk outside
    /// 1..=[`STAGING_ROWS`].
    pub fn with_config(
        weights: impl IntoResident,
        opt: OptConfig,
        cfg: AccelConfig,
    ) -> Result<Self, EngineError> {
        cfg.validate().map_err(EngineError::OverBudget)?;
        check_prefill_chunk(cfg.prefill_chunk)?;
        let weights = weights.into_resident(match opt.precision {
            Precision::Fp32 => QuantMode::F32,
            Precision::Int8 => QuantMode::Int8,
            Precision::Int4 => QuantMode::Int4,
        });
        let graph = build_decode_graph(weights.config());
        let schedule = fuse_with_limit(&graph, opt.operator_fusion, cfg.fusion_max_ops);
        let plan = plan(
            &graph,
            &schedule,
            opt.memory_reuse,
            cfg.activation_pool_bytes,
        );
        if tel::enabled() {
            let rep = schedule.report(&graph);
            tel::metrics::gauge_set("accel.schedule_kernels", rep.kernels as f64);
            tel::metrics::gauge_set("accel.fused_values", rep.internal_values as f64);
            tel::metrics::gauge_set("accel.memplan_ocm_values", plan.ocm_values() as f64);
            tel::metrics::gauge_set("accel.memplan_hbm_values", plan.hbm_values() as f64);
        }
        let kernels = Arc::new(KernelPlan::new(&graph, schedule));
        let engine = Self {
            model: Transformer::with_weights(weights),
            opt,
            cfg,
            graph,
            kernels,
            plan,
            hbm: Hbm::new(cfg.hbm),
            mpe: Mpe::new(cfg.mpe),
            sfu: Sfu::new(),
            dma_rd: DmaEngine::new(cfg.read_dma, Direction::Read),
            dma_wr: DmaEngine::new(cfg.write_dma, Direction::Write),
            launches: 0,
            stalls: 0,
            trace: None,
        };
        let used = engine.hbm_footprint();
        if used > cfg.hbm.capacity_bytes {
            return Err(EngineError::OverBudget(OverBudget {
                axis: "HBM",
                used,
                available: cfg.hbm.capacity_bytes,
            }));
        }
        Ok(engine)
    }

    /// Bytes the design point keeps in HBM: the weights as the host holds
    /// them at `opt.precision` (norm gains and the embedding table f32),
    /// one context window of f32 KV rows, and the
    /// HBM-placed activations of a full [`STAGING_ROWS`]-row pass.
    fn hbm_footprint(&self) -> u64 {
        let c = &self.graph.config;
        let kv = (2 * c.n_layers * c.seq_len) as u64 * self.kv_row_bytes();
        let staging = STAGING_ROWS as u64 * self.plan.hbm_activation_bytes;
        self.weights().resident_bytes() as u64 + kv + staging
    }

    /// Shared handle to the weights.
    #[must_use]
    pub fn weights(&self) -> &Arc<ResidentWeights> {
        self.model.weights()
    }

    /// The active optimization selection.
    #[must_use]
    pub fn opt(&self) -> &OptConfig {
        &self.opt
    }

    /// The design point.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// The decode graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The fused schedule.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.kernels.schedule
    }

    /// The memory plan.
    #[must_use]
    pub fn memory_plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// The power model in use.
    #[must_use]
    pub fn power_model(&self) -> &PowerModel {
        &self.cfg.power
    }

    /// Starts capturing the next decode step's timeline into a trace
    /// buffer of `capacity` events.
    pub fn capture_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceBuffer::new(capacity));
    }

    /// Takes the captured trace, if any.
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.trace.take()
    }

    /// Weight bytes a `rows × cols` tile streams in the active precision.
    fn matrix_bytes(&self, rows: usize, cols: usize) -> u64 {
        packed_bytes(self.opt.precision, rows, cols)
    }

    /// Bytes one f32 K or V row of `kv_dim` elements occupies in HBM.
    fn kv_row_bytes(&self) -> u64 {
        (self.graph.config.kv_dim() * 4) as u64
    }

    /// Builds the timing tiles of one op for a chunk of `positions`
    /// processed back-to-back.
    ///
    /// Batching is where chunked prefill wins: matrix weights are streamed
    /// from HBM **once** per tile and applied to every position in the
    /// chunk, so the read cost is amortized while compute scales with the
    /// chunk length. Per-position work (SFU ops, KV paging) scales
    /// linearly.
    fn op_tiles(&mut self, op_idx: usize, positions: &[usize], tiles: &mut Vec<TileCost>) {
        let op = &self.graph.ops[op_idx];
        let batch = positions.len().max(1);
        let kind = match op.kind {
            OpKind::Embed => {
                let bytes = (batch * self.graph.config.dim * 4) as u64;
                let read = self.dma_rd.transfer(&mut self.hbm, bytes);
                tiles.push(TileCost {
                    read,
                    compute: Cycles::ZERO,
                    write: Cycles::ZERO,
                    unit: Unit::Sfu,
                });
                return;
            }
            OpKind::MatMul { rows, cols } => {
                // Stream weights one row-wave at a time; each wave is
                // applied to every position in the chunk.
                let wave = self.cfg.mpe.lanes;
                let mut r = 0usize;
                while r < rows {
                    let take = wave.min(rows - r);
                    let bytes = self.matrix_bytes(take, cols);
                    let read = self.dma_rd.transfer(&mut self.hbm, bytes);
                    let mut compute = Cycles::ZERO;
                    for _ in 0..batch {
                        compute += self.mpe.run_tile(take, cols);
                    }
                    tiles.push(TileCost {
                        read,
                        compute,
                        write: Cycles::ZERO,
                        unit: Unit::Mpe,
                    });
                    r += take;
                }
                return;
            }
            OpKind::KvAppend { .. } => {
                let bytes = batch as u64 * 2 * self.kv_row_bytes();
                let write = self.dma_wr.transfer(&mut self.hbm, bytes);
                tiles.push(TileCost {
                    read: Cycles::ZERO,
                    compute: Cycles::ZERO,
                    write,
                    unit: Unit::Sfu,
                });
                return;
            }
            OpKind::Attention {
                n_heads, head_dim, ..
            } => {
                // Page the cached context in from HBM; compute scores+mix
                // per page on the MPE, softmax on the SFU at the end. Each
                // chunk position attends to its own (causal) context; pages
                // already resident for earlier positions are re-read —
                // a deliberate simplification that under-states the chunk
                // benefit rather than overstating it.
                let page = self.cfg.kv_page_positions.max(1);
                let mut softmax_elems = 0usize;
                for &pos in positions {
                    let ctx = pos + 1;
                    let mut t = 0usize;
                    while t < ctx {
                        let take = page.min(ctx - t);
                        let bytes = 2 * take as u64 * self.kv_row_bytes();
                        let read = self.dma_rd.transfer(&mut self.hbm, bytes);
                        // Scores (q·k) and mix (p·v) for every query head
                        // over this page: 2 dot-product sets.
                        let compute = self.mpe.run_tile(2 * n_heads * take, head_dim);
                        tiles.push(TileCost {
                            read,
                            compute,
                            write: Cycles::ZERO,
                            unit: Unit::Mpe,
                        });
                        t += take;
                    }
                    softmax_elems += n_heads * ctx;
                }
                let softmax = self.sfu.run(SfuKind::Softmax, softmax_elems);
                tiles.push(TileCost {
                    read: Cycles::ZERO,
                    compute: softmax,
                    write: Cycles::ZERO,
                    unit: Unit::Sfu,
                });
                return;
            }
            OpKind::RmsNorm => SfuKind::RmsNorm,
            OpKind::Rope { .. } => SfuKind::Rope,
            OpKind::Silu => SfuKind::Silu,
            OpKind::ElemMul => SfuKind::Mul,
            OpKind::Add => SfuKind::Add,
        };
        // An element-wise op: one SFU pass per position over its input.
        // RMSNorm's gain vector is tiny; stream it once with the op.
        let n = self.graph.elems(op.inputs[0]);
        let read = if kind == SfuKind::RmsNorm {
            self.dma_rd.transfer(&mut self.hbm, (n * 4) as u64)
        } else {
            Cycles::ZERO
        };
        let mut compute = Cycles::ZERO;
        for _ in 0..batch {
            compute += self.sfu.run(kind, n);
        }
        tiles.push(TileCost {
            read,
            compute,
            write: Cycles::ZERO,
            unit: Unit::Sfu,
        });
    }

    /// Snapshot of the device counters, for per-step deltas.
    fn counters_snapshot(&self) -> SimStats {
        SimStats {
            total_cycles: Cycles::ZERO,
            hbm: *self.hbm.counters(),
            ocm_read_bytes: 0,
            ocm_write_bytes: 0,
            mpe: *self.mpe.counters(),
            sfu: *self.sfu.counters(),
            dma_busy_cycles: self.dma_rd.counters().busy_cycles * self.cfg.read_dma.channels as u64
                + self.dma_wr.counters().busy_cycles * self.cfg.write_dma.channels as u64,
            kernel_launches: self.launches,
            alloc_stalls: self.stalls,
        }
    }

    /// Schedules every kernel for a pass over `positions` (a contiguous
    /// prefill chunk or one position per batched sequence) and returns the
    /// makespan plus on-chip read/write byte counts.
    fn timing_pass(&mut self, positions: &[usize]) -> (Cycles, u64, u64) {
        let _g = tel::span("engine", "timing_pass").arg("batch", positions.len() as i64);
        let batch = positions.len() as u64;
        let mut ocm_read = 0u64;
        let mut ocm_write = 0u64;
        // Batched locally so the registry lock is taken once per pass.
        let mut fusion_hits = 0u64;
        let mut ocm_hits = 0u64;
        let mut tl = Timeline::new(N_RESOURCES);
        let pipe = PipelineConfig {
            streamed: self.opt.stream_parallel,
            depth: self.cfg.double_buffer_depth,
            launch: self.cfg.launch_overhead,
            streamed_launch: self.cfg.streamed_launch_overhead,
        };
        // When each materialized value becomes available.
        let mut avail: Vec<Cycles> = vec![Cycles::ZERO; self.graph.values.len()];
        // In the naive host loop every kernel strictly follows its
        // predecessor; the streaming runtime enqueues ahead.
        let mut prev_kernel_end = Cycles::ZERO;

        let kernels = Arc::clone(&self.kernels);
        let mut tiles: Vec<TileCost> = Vec::new();
        for (kernel, external_inputs) in kernels
            .schedule
            .kernels
            .iter()
            .zip(&kernels.external_inputs)
        {
            self.launches += 1;
            if kernel.ops.len() > 1 {
                fusion_hits += 1;
            }
            // External activation inputs: availability + load cost (one
            // activation instance per chunk position).
            let mut compute_ready = Cycles::ZERO;
            let mut extra_read = Cycles::ZERO; // HBM activation loads
            let mut read_ready = Cycles::ZERO;
            for &inp in external_inputs {
                compute_ready = compute_ready.max(avail[inp.0]);
                let bytes = self.graph.values[inp.0].bytes() * batch;
                match self.plan.placement(inp) {
                    Placement::Hbm => {
                        extra_read += self.dma_rd.transfer(&mut self.hbm, bytes);
                        read_ready = read_ready.max(avail[inp.0]);
                    }
                    Placement::Ocm(_) => {
                        ocm_read += bytes;
                        ocm_hits += 1;
                    }
                    Placement::Internal => {}
                }
            }

            // Tiles for the member ops.
            tiles.clear();
            if extra_read > Cycles::ZERO {
                tiles.push(TileCost {
                    read: extra_read,
                    compute: Cycles::ZERO,
                    write: Cycles::ZERO,
                    unit: Unit::Sfu,
                });
            }
            for &oi in &kernel.ops {
                self.op_tiles(oi, positions, &mut tiles);
            }

            // Materialized outputs: placement costs.
            let mut out_write = Cycles::ZERO;
            for &oi in &kernel.ops {
                for &out in &self.graph.ops[oi].outputs {
                    let bytes = self.graph.values[out.0].bytes() * batch;
                    match self.plan.placement(out) {
                        Placement::Hbm => {
                            out_write += self.dma_wr.transfer(&mut self.hbm, bytes);
                            if !self.opt.memory_reuse {
                                self.stalls += 1;
                                // Allocation bookkeeping stalls the host
                                // before the transfer can be enqueued.
                                out_write += self.cfg.alloc_stall;
                            }
                        }
                        Placement::Ocm(_) => {
                            ocm_write += bytes;
                        }
                        Placement::Internal => {}
                    }
                }
            }
            if out_write > Cycles::ZERO {
                tiles.push(TileCost {
                    read: Cycles::ZERO,
                    compute: Cycles::ZERO,
                    write: out_write,
                    unit: Unit::Sfu,
                });
            }

            let host_ready = if self.opt.stream_parallel {
                Cycles::ZERO
            } else {
                prev_kernel_end
            };
            let timing = schedule_kernel(
                &mut tl,
                self.trace.as_mut(),
                &pipe,
                host_ready,
                read_ready,
                compute_ready,
                &tiles,
                &kernel.label,
            );
            prev_kernel_end = timing.outputs_ready;
            for &oi in &kernel.ops {
                for &out in &self.graph.ops[oi].outputs {
                    avail[out.0] = timing.outputs_ready;
                }
            }
        }
        tel::metrics::counter_add("accel.fusion_kernel_hits", fusion_hits);
        tel::metrics::counter_add("accel.memplan_ocm_hits", ocm_hits);
        (tl.makespan(), ocm_read, ocm_write)
    }

    /// Builds the per-step [`SimStats`] from a counter snapshot taken
    /// before the step.
    fn step_stats(
        &self,
        before: &SimStats,
        cycles: Cycles,
        ocm_read: u64,
        ocm_write: u64,
    ) -> SimStats {
        let after = self.counters_snapshot();
        SimStats {
            total_cycles: cycles,
            hbm: speedllm_fpga_sim::hbm::HbmCounters {
                read_bytes: after.hbm.read_bytes - before.hbm.read_bytes,
                write_bytes: after.hbm.write_bytes - before.hbm.write_bytes,
                read_transfers: after.hbm.read_transfers - before.hbm.read_transfers,
                write_transfers: after.hbm.write_transfers - before.hbm.write_transfers,
            },
            ocm_read_bytes: ocm_read,
            ocm_write_bytes: ocm_write,
            mpe: speedllm_fpga_sim::mpe::MpeCounters {
                macs: after.mpe.macs - before.mpe.macs,
                busy_cycles: after.mpe.busy_cycles - before.mpe.busy_cycles,
                tiles: after.mpe.tiles - before.mpe.tiles,
            },
            sfu: speedllm_fpga_sim::sfu::SfuCounters {
                elements: after.sfu.elements - before.sfu.elements,
                busy_cycles: after.sfu.busy_cycles - before.sfu.busy_cycles,
                ops: after.sfu.ops - before.sfu.ops,
            },
            dma_busy_cycles: after.dma_busy_cycles - before.dma_busy_cycles,
            kernel_launches: after.kernel_launches - before.kernel_launches,
            alloc_stalls: after.alloc_stalls - before.alloc_stalls,
        }
    }

    /// The **values** of a pass: one call of the reference layer walk over
    /// every row of every run, run `i` extending sequence `i` of `kv` at
    /// its stored length. Returns per sequence the logits after its run's
    /// last token, or with [`LogitRows::All`] after every run token,
    /// row-major. Charges nothing: the caller owes the device an
    /// [`Engine::time`].
    ///
    /// # Panics
    /// Panics wherever the walk or `kv` does — an empty batch or run, a
    /// position outside the context window, a token out of vocabulary, a
    /// pass mixing flat and paged sequences.
    pub(crate) fn execute<B: KvBatch + Send + Sync + ?Sized>(
        &mut self,
        kv: &mut B,
        runs: &[&[u32]],
        logit_rows: LogitRows,
    ) -> Vec<Vec<f32>> {
        let starts: Vec<usize> = (0..kv.batch_len()).map(|i| kv.kv_len(i)).collect();
        let counts: Vec<usize> = runs.iter().map(|r| r.len()).collect();
        let tokens = runs.concat();
        let logits = self
            .model
            .forward_runs(kv, &tokens, &counts, &starts, logit_rows);
        logit_rows.split(logits, &counts, self.graph.config.vocab_size)
    }

    /// The **cost** of a pass over rows at `positions` (a contiguous
    /// prefill chunk, one position per batched sequence, or a mix): one
    /// [`Engine::timing_pass`], so matrix weights stream from HBM once for
    /// every row — where chunking, batching and verification win. Reads
    /// only the positions, never a value.
    ///
    /// # Panics
    /// Panics on more rows than the on-chip staging limit
    /// ([`STAGING_ROWS`]).
    pub(crate) fn time(&mut self, positions: &[usize]) -> (Cycles, SimStats) {
        let rows = positions.len();
        assert!(
            rows <= STAGING_ROWS,
            "{rows} rows exceed the on-chip staging limit ({STAGING_ROWS})"
        );
        let before = self.counters_snapshot();
        let (cycles, ocm_read, ocm_write) = self.timing_pass(positions);
        let stats = self.step_stats(&before, cycles, ocm_read, ocm_write);
        if tel::enabled() {
            // Same accounting as the CPU path (`cpu.gemm_*`): one device
            // pass streams the dense weights once for all its rows, so
            // bytes-per-token falls with the rows a pass carries.
            let streamed = self.model.gemm_weight_bytes();
            tel::metrics::counter_add("accel.gemm_weight_bytes", streamed as u64);
            tel::metrics::counter_add("accel.gemm_tokens", rows as u64);
            tel::metrics::gauge_set("accel.gemm_batch_width", rows as f64);
        }
        (cycles, stats)
    }

    /// **The** device pass: each sequence of `kv` contributes a *run* of
    /// one or more consecutive tokens extending it at its stored length.
    /// A decode step is a run of length 1, a prefill chunk a run of its
    /// chunk length, a speculative verify a run scored with
    /// [`LogitRows::All`]; one tick may mix them (extensions beyond the
    /// paper, DESIGN.md §13/§14/§16).
    ///
    /// It is `execute` (values) then `time` (cost) over the same rows:
    /// logits are bit-identical however the same tokens are cut into runs
    /// and ticks (the walk's run-shape identity), and the pass is charged
    /// one weight stream — a verify over a pending token plus K draft rows
    /// streams the dense weights once where K+1 decode steps would stream
    /// them K+1 times.
    ///
    /// Returns one entry per sequence, in order — the logits after its
    /// run's last token, or with [`LogitRows::All`] those of every run
    /// token, row-major — plus the pass's [`StepResult`] (whose `logits`
    /// are the final row's).
    ///
    /// # Panics
    /// Panics on an empty batch, an empty run, mismatched lengths, total
    /// rows above the on-chip staging limit ([`STAGING_ROWS`]), positions
    /// outside the context window, or tokens out of vocabulary.
    pub fn forward_runs<B: KvBatch + Send + Sync + ?Sized>(
        &mut self,
        kv: &mut B,
        runs: &[&[u32]],
        logit_rows: LogitRows,
    ) -> (Vec<Vec<f32>>, StepResult) {
        assert!(kv.batch_len() > 0, "empty batch");
        assert_eq!(kv.batch_len(), runs.len(), "one token run per sequence");
        let positions: Vec<usize> = runs
            .iter()
            .enumerate()
            .flat_map(|(i, run)| {
                let start = kv.kv_len(i);
                start..start + run.len()
            })
            .collect();
        let all_logits = self.execute(kv, runs, logit_rows);
        let (cycles, stats) = self.time(&positions);
        let last = all_logits.last().expect("one logits entry per sequence");
        // Empty when the pass scores no row.
        let logits = last[last.len().saturating_sub(self.graph.config.vocab_size)..].to_vec();
        (
            all_logits,
            StepResult {
                logits,
                cycles,
                stats,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedllm_llama::config::ModelConfig;
    use speedllm_llama::kv_cache::KvCache;
    use speedllm_llama::weights::TransformerWeights;

    fn engine(opt: OptConfig) -> Engine {
        let w = Arc::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
        Engine::new(w, opt).expect("engine must build")
    }

    /// An empty sequence for `e`'s model.
    fn new_seq(e: &Engine) -> KvCache {
        KvCache::new(&e.graph().config)
    }

    /// One `Last` pass of `tokens` extending `seq`.
    fn pass(e: &mut Engine, seq: &mut KvCache, tokens: &[u32]) -> StepResult {
        e.forward_runs([seq].as_mut_slice(), &[tokens], LogitRows::Last)
            .1
    }

    /// One `Last` pass of `tokens` on a fresh sequence.
    fn fresh(e: &mut Engine, tokens: &[u32]) -> StepResult {
        let mut seq = new_seq(e);
        pass(e, &mut seq, tokens)
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .fold(0.0f32, |m, (x, y)| m.max((x - y).abs()))
    }

    /// HBM is a budget too: a design point whose weights, KV window and
    /// staging activations exceed the configured stack is refused, and one
    /// byte more than the footprint is enough to build.
    #[test]
    fn a_model_that_does_not_fit_the_hbm_is_refused() {
        for opt in [OptConfig::full(), OptConfig::full_int8()] {
            let need = engine(opt).hbm_footprint();
            let c = ModelConfig::test_tiny();
            assert!(need > (c.param_count() * opt.precision.weight_bits() / 8) as u64);
            let mut cfg = AccelConfig::for_opt(&opt);
            cfg.hbm.capacity_bytes = need - 1;
            let w = TransformerWeights::synthetic(c, 42);
            match Engine::with_config(w.clone(), opt, cfg) {
                Err(EngineError::OverBudget(e)) => {
                    assert_eq!((e.axis, e.used, e.available), ("HBM", need, need - 1));
                }
                Err(e) => panic!("{}: {e}", opt.short_name()),
                Ok(_) => panic!("{} built on too small an HBM", opt.short_name()),
            }
            cfg.hbm.capacity_bytes = need;
            assert!(Engine::with_config(w, opt, cfg).is_ok());
        }
        // Narrower weights need less.
        assert!(
            engine(OptConfig::full_int4()).hbm_footprint()
                < engine(OptConfig::full_int8()).hbm_footprint()
        );
    }

    /// A prefill chunk is one device pass, so it must fit the staging
    /// rows: 0 and 65 are refused at construction, 1 and 64 build.
    #[test]
    fn a_prefill_chunk_outside_the_staging_rows_is_refused() {
        let w = Arc::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
        let mut cfg = AccelConfig::for_opt(&OptConfig::full());
        for chunk in [0, STAGING_ROWS + 1] {
            cfg.prefill_chunk = chunk;
            match Engine::with_config(Arc::clone(&w), OptConfig::full(), cfg) {
                Err(EngineError::PrefillChunk(c)) => assert_eq!(c, chunk),
                Err(e) => panic!("chunk {chunk}: {e}"),
                Ok(_) => panic!("chunk {chunk} built"),
            }
        }
        for chunk in [1, STAGING_ROWS] {
            cfg.prefill_chunk = chunk;
            assert!(Engine::with_config(Arc::clone(&w), OptConfig::full(), cfg).is_ok());
        }
    }

    #[test]
    fn all_paper_variants_fit_the_device() {
        for (_, opt) in OptConfig::paper_variants() {
            AccelConfig::for_opt(&opt)
                .validate()
                .expect("must fit U280");
        }
    }

    #[test]
    fn logits_match_reference_for_every_variant() {
        let weights = TransformerWeights::synthetic(ModelConfig::test_tiny(), 42);
        let mut reference = Transformer::new(weights.clone());
        let mut kv = KvCache::new(reference.config());
        let mut engines: Vec<(Engine, KvCache)> = OptConfig::paper_variants()
            .into_iter()
            .map(|(_, opt)| {
                let e = Engine::new(Arc::new(weights.clone()), opt).unwrap();
                let seq = new_seq(&e);
                (e, seq)
            })
            .collect();
        for pos in 0..5 {
            let token = (pos * 7 + 3) as u32;
            let expected = reference.forward_with_kv(&mut kv, token, pos).to_vec();
            for (e, seq) in &mut engines {
                let got = pass(e, seq, &[token]);
                assert_eq!(
                    expected,
                    got.logits,
                    "{} diverged at pos {pos}",
                    e.opt().short_name()
                );
            }
        }
    }

    #[test]
    fn int8_logits_are_close_to_reference() {
        let weights = TransformerWeights::synthetic(ModelConfig::test_tiny(), 42);
        let mut reference = Transformer::new(weights.clone());
        let mut e = Engine::new(Arc::new(weights), OptConfig::full_int8()).unwrap();
        let expected = reference
            .forward_with_kv(&mut KvCache::new(reference.config()), 3, 0)
            .to_vec();
        let got = fresh(&mut e, &[3]);
        // Quantized arithmetic: looser tolerance, but same ballpark.
        assert!(max_diff(&expected, &got.logits) < 0.15);
    }

    #[test]
    fn int4_logits_are_close_to_reference_and_cpu_int4() {
        let weights = TransformerWeights::synthetic(ModelConfig::test_tiny(), 42);
        let mut reference = Transformer::new(weights.clone());
        let mut e = Engine::new(Arc::new(weights.clone()), OptConfig::full_int4()).unwrap();
        let expected = reference
            .forward_with_kv(&mut KvCache::new(reference.config()), 3, 0)
            .to_vec();
        let got = fresh(&mut e, &[3]);
        // 4-bit weights: looser still, but same ballpark.
        assert!(max_diff(&expected, &got.logits) < 0.6);
        // And bit-identical to the CPU fused dequant path — both stream the
        // same Q4_0 payload through the same accumulation order.
        let mut cpu = Transformer::new(weights);
        cpu.set_quant_mode(speedllm_llama::quant::QuantMode::Int4);
        let mut kv = KvCache::new(cpu.config());
        assert_eq!(cpu.forward_with_kv(&mut kv, 3, 0).to_vec(), got.logits);
    }

    #[test]
    fn quantized_weight_traffic_is_compressed() {
        let mut f32e = engine(OptConfig::full());
        let mut i8e = engine(OptConfig::full_int8());
        let mut i4e = engine(OptConfig::full_int4());
        let rf = fresh(&mut f32e, &[0]).stats.hbm.read_bytes;
        let r8 = fresh(&mut i8e, &[0]).stats.hbm.read_bytes;
        let r4 = fresh(&mut i4e, &[0]).stats.hbm.read_bytes;
        // Weight reads dominate a decode step; int8 should cut the stream
        // to well under ⅓ of f32, and int4 below int8.
        assert!(r8 * 3 < rf, "int8 {r8} vs f32 {rf}");
        assert!(r4 < r8, "int4 {r4} vs int8 {r8}");
    }

    #[test]
    fn full_is_substantially_faster_than_unoptimized() {
        let mut full = engine(OptConfig::full());
        let mut unopt = engine(OptConfig::unoptimized());
        let cf = fresh(&mut full, &[1]).cycles;
        let cu = fresh(&mut unopt, &[1]).cycles;
        assert!(
            cu.0 > 2 * cf.0,
            "expected a large speedup, got full={cf} unopt={cu}"
        );
    }

    #[test]
    fn weight_traffic_matches_model_size() {
        let cfg = ModelConfig::test_tiny();
        let mut e = engine(OptConfig::full());
        let r = fresh(&mut e, &[0]);
        // Every matmul weight is streamed once per token; embeddings and
        // norms are small. HBM reads should be within 30% of param bytes
        // (the vocab-sized classifier dominates tiny configs).
        let weight_bytes = cfg.weight_bytes(4) as f64;
        let read = r.stats.hbm.read_bytes as f64;
        assert!(
            read > 0.6 * weight_bytes && read < 1.6 * weight_bytes,
            "read {read} vs weights {weight_bytes}"
        );
    }

    #[test]
    fn alloc_stalls_only_without_reuse() {
        let mut with = engine(OptConfig::full());
        let mut without = engine(OptConfig::no_reuse());
        assert_eq!(fresh(&mut with, &[0]).stats.alloc_stalls, 0);
        assert!(fresh(&mut without, &[0]).stats.alloc_stalls > 0);
    }

    #[test]
    fn launches_shrink_with_fusion() {
        let mut fused = engine(OptConfig::full());
        let mut unfused = engine(OptConfig::no_fuse());
        let lf = fresh(&mut fused, &[0]).stats.kernel_launches;
        let lu = fresh(&mut unfused, &[0]).stats.kernel_launches;
        assert!(lf * 2 < lu, "fused {lf} vs unfused {lu}");
        // A deeper composite-kernel limit never adds a launch to a decode
        // pass, and moves no HBM byte: with memory reuse every value
        // between kernels already stays on chip.
        for cfg in [ModelConfig::stories260k(), ModelConfig::stories15m()] {
            let weights = TransformerWeights::synthetic(cfg, 42).into_resident(QuantMode::F32);
            let mut last: Option<(u64, u64, u64)> = None;
            for limit in [1, 2, 3, 4, 6, 8] {
                let mut accel = AccelConfig::for_opt(&OptConfig::full());
                accel.fusion_max_ops = limit;
                let mut e = Engine::with_config(Arc::clone(&weights), OptConfig::full(), accel)
                    .expect("engine must build");
                let s = fresh(&mut e, &[1]).stats;
                let now = (s.kernel_launches, s.hbm.read_bytes, s.hbm.write_bytes);
                if let Some(prev) = last {
                    assert!(
                        now.0 <= prev.0,
                        "{cfg:?} limit {limit}: {now:?} after {prev:?}"
                    );
                    assert_eq!((now.1, now.2), (prev.1, prev.2), "{cfg:?} limit {limit}");
                }
                last = Some(now);
            }
        }
    }

    #[test]
    fn attention_cost_grows_with_position() {
        let mut e = engine(OptConfig::full());
        let mut seq = new_seq(&e);
        let c0 = pass(&mut e, &mut seq, &[1]).cycles;
        for _ in 1..8 {
            pass(&mut e, &mut seq, &[1]);
        }
        let c8 = pass(&mut e, &mut seq, &[1]).cycles;
        assert!(c8 >= c0, "KV paging must not shrink: {c0} -> {c8}");
        // And HBM read traffic grows with context.
        let mut e2 = engine(OptConfig::full());
        let mut seq = new_seq(&e2);
        let r0 = pass(&mut e2, &mut seq, &[1]).stats.hbm.read_bytes;
        let r1 = pass(&mut e2, &mut seq, &[1]).stats.hbm.read_bytes;
        assert!(r1 > r0);
    }

    #[test]
    fn hbm_activation_traffic_only_without_reuse() {
        let mut with = engine(OptConfig::full());
        let mut without = engine(OptConfig::no_reuse());
        let sw = fresh(&mut with, &[0]).stats;
        let so = fresh(&mut without, &[0]).stats;
        // Without reuse, extra HBM writes appear (activations round-trip).
        assert!(so.hbm.write_bytes > sw.hbm.write_bytes);
        // With reuse, on-chip traffic appears instead.
        assert!(sw.ocm_read_bytes > 0 && sw.ocm_write_bytes > 0);
    }

    #[test]
    fn energy_is_positive_and_unopt_less_efficient() {
        let mut full = engine(OptConfig::full());
        let mut unopt = engine(OptConfig::unoptimized());
        let rf = fresh(&mut full, &[1]);
        let ru = fresh(&mut unopt, &[1]);
        let ef = full.power_model().energy(&rf.stats).total_j();
        let eu = unopt.power_model().energy(&ru.stats).total_j();
        assert!(ef > 0.0 && eu > ef, "full {ef} J vs unopt {eu} J");
    }

    #[test]
    fn trace_capture_roundtrip() {
        let mut e = engine(OptConfig::full());
        e.capture_trace(256);
        fresh(&mut e, &[0]);
        let trace = e.take_trace().expect("trace captured");
        assert!(!trace.events().is_empty());
        assert!(e.take_trace().is_none());
    }

    #[test]
    fn reset_allows_replay() {
        let mut e = engine(OptConfig::full());
        let mut seq = new_seq(&e);
        let a = pass(&mut e, &mut seq, &[5]);
        seq.reset();
        let b = pass(&mut e, &mut seq, &[5]);
        assert_eq!(a.logits, b.logits);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    #[should_panic(expected = "outside context window")]
    fn pos_overflow_panics() {
        let mut e = engine(OptConfig::full());
        let window = e.graph().config.seq_len;
        let mut seq = new_seq(&e);
        pass(&mut e, &mut seq, &vec![1; window]);
        pass(&mut e, &mut seq, &[0]);
    }

    #[test]
    fn chunked_prefill_matches_token_at_a_time_logits() {
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
        let tokens: Vec<u32> = vec![3, 9, 14, 27, 5, 61, 2, 40];
        let mut one = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
        let mut seq = new_seq(&one);
        let mut last = Vec::new();
        for &t in &tokens {
            last = pass(&mut one, &mut seq, &[t]).logits;
        }
        let mut chunked = Engine::new(weights, OptConfig::full()).unwrap();
        let mut cseq = new_seq(&chunked);
        let r = pass(&mut chunked, &mut cseq, &tokens);
        assert_eq!(last, r.logits, "chunked prefill diverged");
        // And the KV cache is equally advanced.
        assert_eq!(cseq.len(), tokens.len());
    }

    #[test]
    fn chunked_prefill_is_faster_and_reads_less() {
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::stories260k(), 7));
        let tokens: Vec<u32> = (0..16).map(|i| 10 + i).collect();
        let mut one = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
        let mut seq = new_seq(&one);
        let mut cycles_one = 0u64;
        let mut read_one = 0u64;
        for &t in &tokens {
            let r = pass(&mut one, &mut seq, &[t]);
            cycles_one += r.cycles.0;
            read_one += r.stats.hbm.read_bytes;
        }
        let mut chunked = Engine::new(weights, OptConfig::full()).unwrap();
        let r = fresh(&mut chunked, &tokens);
        // stories260K is compute-bound, so the wall-clock win is modest —
        // the weight-stream amortization is the strong claim (reads drop
        // nearly 16x for a 16-token chunk; only KV paging still scales).
        assert!(
            (r.cycles.0 as f64) < 0.8 * cycles_one as f64,
            "chunked {} vs token-at-a-time {}",
            r.cycles.0,
            cycles_one
        );
        assert!(
            r.stats.hbm.read_bytes * 5 < read_one,
            "weight stream must be amortized: {} vs {}",
            r.stats.hbm.read_bytes,
            read_one
        );
        // And every doubling of the chunk over a 32-token prompt cuts
        // both the prefill's cycles and its HBM reads.
        let weights = TransformerWeights::synthetic(ModelConfig::stories260k(), 42)
            .into_resident(QuantMode::F32);
        let tokens: Vec<u32> = (0..32).map(|i| 5 + i).collect();
        let mut last: Option<(u64, u64)> = None;
        for chunk in [1, 2, 4, 8, 16, 32] {
            let mut e = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
            let mut seq = new_seq(&e);
            let (mut cycles, mut reads) = (0, 0);
            for run in tokens.chunks(chunk) {
                let r = pass(&mut e, &mut seq, run);
                cycles += r.cycles.0;
                reads += r.stats.hbm.read_bytes;
            }
            if let Some((c, b)) = last {
                assert!(cycles < c, "chunk {chunk}: {cycles} cycles after {c}");
                assert!(reads < b, "chunk {chunk}: {reads} B read after {b}");
            }
            last = Some((cycles, reads));
        }
    }

    #[test]
    #[should_panic(expected = "empty run")]
    fn empty_chunk_panics() {
        let mut e = engine(OptConfig::full());
        fresh(&mut e, &[]);
    }

    /// One decode tick on external sequences.
    fn decode_tick(
        e: &mut Engine,
        seqs: &mut [&mut KvCache],
        tokens: &[u32],
    ) -> (Vec<Vec<f32>>, StepResult) {
        let runs: Vec<&[u32]> = tokens.iter().map(std::slice::from_ref).collect();
        e.forward_runs(seqs, &runs, LogitRows::Last)
    }

    #[test]
    fn batched_decode_tick_matches_independent_sequences() {
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
        // Reference: three independent engines decoding different histories.
        let mut refs: Vec<Engine> = (0..3)
            .map(|_| Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap())
            .collect();
        let histories: [&[u32]; 3] = [&[1, 5], &[9], &[3, 7, 11]];
        let mut expected = Vec::new();
        for (e, h) in refs.iter_mut().zip(histories) {
            let mut seq = new_seq(e);
            let mut last = Vec::new();
            for &t in h {
                last = pass(e, &mut seq, &[t]).logits;
            }
            expected.push(last);
        }

        // Batched: one engine, three sequences, advanced in lock-step where
        // possible (ragged histories decoded up-front).
        let mut batch_engine = Engine::new(weights, OptConfig::full()).unwrap();
        let mut s0 = new_seq(&batch_engine);
        let mut s1 = new_seq(&batch_engine);
        let mut s2 = new_seq(&batch_engine);
        // Bring each sequence to one-before-the-end of its history.
        {
            let mut seqs: Vec<(&mut KvCache, &[u32])> = vec![
                (&mut s0, histories[0]),
                (&mut s1, histories[1]),
                (&mut s2, histories[2]),
            ];
            for (seq, h) in seqs.iter_mut() {
                for &t in &h[..h.len() - 1] {
                    decode_tick(&mut batch_engine, &mut [&mut **seq], &[t]);
                }
            }
        }
        // Final tokens together, as one batch.
        let finals = [histories[0][1], histories[1][0], histories[2][2]];
        let mut seqs = [&mut s0, &mut s1, &mut s2];
        let (logits, step) = decode_tick(&mut batch_engine, &mut seqs, &finals);
        assert_eq!(logits.len(), 3);
        assert_eq!(expected, logits, "a batched sequence diverged");
        assert!(step.cycles > Cycles::ZERO);
    }

    #[test]
    fn batched_decode_tick_amortizes_weight_reads() {
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::stories260k(), 7));
        let mut e = Engine::new(weights, OptConfig::full()).unwrap();
        // Eight fresh sequences, one decode each — batched.
        let mut seqs: Vec<KvCache> = (0..8).map(|_| new_seq(&e)).collect();
        let mut refs: Vec<&mut KvCache> = seqs.iter_mut().collect();
        let tokens = [1u32, 2, 3, 4, 5, 6, 7, 8];
        let (_, batched) = decode_tick(&mut e, &mut refs, &tokens);

        // Same eight decodes, one at a time.
        let mut single_cycles = 0u64;
        let mut single_reads = 0u64;
        for &t in &tokens {
            let mut seq = new_seq(&e);
            let (_, r) = decode_tick(&mut e, &mut [&mut seq], &[t]);
            single_cycles += r.cycles.0;
            single_reads += r.stats.hbm.read_bytes;
        }
        assert!(
            batched.cycles.0 < single_cycles,
            "batching must win wall-clock"
        );
        assert!(
            batched.stats.hbm.read_bytes * 4 < single_reads,
            "weight stream must be shared: {} vs {}",
            batched.stats.hbm.read_bytes,
            single_reads
        );
    }

    #[test]
    fn serving_sequence_works_as_pool_slot() {
        use speedllm_llama::kv_cache::{KvCachePool, PoolSlot};
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
        let mut e = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
        let mut pool = KvCachePool::new(2, || new_seq(&e));
        let mut slot = pool.acquire().expect("slot free");
        let chunk: &[u32] = &[3, 9];
        pass(&mut e, slot.state_mut(), chunk);
        assert_eq!(slot.state().slot_len(), 2);
        pool.release(slot);
        // Reused slot must behave exactly like a fresh sequence.
        let mut again = pool.acquire().expect("slot free");
        assert_eq!(again.state().slot_len(), 0);
        let r = pass(&mut e, again.state_mut(), chunk);
        assert_eq!(
            r.logits,
            fresh(&mut e, chunk).logits,
            "recycled slot leaked state"
        );
        pool.release(again);
        assert!(pool.all_free());
        assert_eq!(pool.reuse_count(), 1);
    }

    #[test]
    fn paged_sequences_match_flat_bit_for_bit() {
        use speedllm_pagedkv::{BlockAllocator, BlockConfig, KvSpace};
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
        let prompt: Vec<u32> = vec![3, 9, 14, 27, 5, 61];
        let decode: Vec<u32> = vec![8, 12, 19];

        // Flat reference.
        let mut flat = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
        let mut fseq = new_seq(&flat);
        let mut flat_logits = Vec::new();
        for run in std::iter::once(&prompt[..]).chain(decode.chunks(1)) {
            flat_logits.push(pass(&mut flat, &mut fseq, run).logits);
        }

        // Paged twin: same weights, block-table indirection.
        let bc = BlockConfig {
            block_size: 4,
            n_blocks: 8,
        };
        let mut paged = Engine::new(weights, OptConfig::full()).unwrap();
        let mut space = KvSpace::new(&ModelConfig::test_tiny(), Some(bc));
        let mut alloc = BlockAllocator::new(bc);
        let mut pseq = space.new_seq();
        {
            let table = pseq.table_mut().expect("paged sequence");
            let need = (prompt.len() + decode.len()).div_ceil(bc.block_size);
            for _ in 0..need {
                table.push_block(alloc.alloc().unwrap());
            }
        }
        let mut paged_logits = Vec::new();
        for run in std::iter::once(&prompt[..]).chain(decode.chunks(1)) {
            let (_, r) =
                paged.forward_runs(&mut space.batch(&mut [&mut pseq]), &[run], LogitRows::Last);
            paged_logits.push(r.logits);
        }
        assert_eq!(paged_logits, flat_logits, "block indirection changed math");
        assert_eq!(pseq.len(), prompt.len() + decode.len());

        // A second sequence sharing the first full prompt block resumes at
        // the divergence point and still matches a from-scratch flat run.
        let shared_tokens = bc.block_size; // one full block
        let tail: Vec<u32> = vec![40, 22];
        let mut full2: Vec<u32> = prompt[..shared_tokens].to_vec();
        full2.extend(&tail);
        let flat2 = fresh(&mut flat, &full2);

        let mut p2 = space.new_seq();
        {
            let shared_block = pseq.table().unwrap().blocks()[0];
            alloc.retain(shared_block);
            let table = p2.table_mut().unwrap();
            table.push_block(shared_block);
            table.push_block(alloc.alloc().unwrap());
            table.set_len(shared_tokens); // prefix-hit credit
        }
        assert_eq!(p2.len(), shared_tokens);
        let (_, paged2) = paged.forward_runs(
            &mut space.batch(&mut [&mut p2]),
            &[&full2[shared_tokens..]],
            LogitRows::Last,
        );
        assert_eq!(paged2.logits, flat2.logits, "prefix sharing changed math");
    }

    /// The run-shape identity at the engine: a pass of mixed runs gives
    /// every row the bits it gets when the same tokens are fed one row per
    /// pass — on flat and paged KV, for both row selections.
    #[test]
    fn mixed_runs_match_one_row_passes_bit_for_bit() {
        use speedllm_pagedkv::{BlockAllocator, BlockConfig, KvSpace, SeqKv};
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
        let bc = BlockConfig {
            block_size: 4,
            n_blocks: 12,
        };
        // Two ticks over three sequences: every tick mixes run lengths.
        let ticks: [[&[u32]; 3]; 2] = [[&[3, 9], &[14], &[27, 5, 61]], [&[2], &[40, 8, 33], &[12]]];
        for (paged, rows) in [
            (false, LogitRows::Last),
            (false, LogitRows::All),
            (true, LogitRows::All),
            (true, LogitRows::Last),
        ] {
            let build = || {
                let e = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
                let mut alloc = BlockAllocator::new(bc);
                let space = KvSpace::new(&ModelConfig::test_tiny(), paged.then_some(bc));
                let mut seqs: Vec<SeqKv> = (0..3).map(|_| space.new_seq()).collect();
                for table in seqs.iter_mut().filter_map(SeqKv::table_mut) {
                    for _ in 0..2 {
                        table.push_block(alloc.alloc().unwrap());
                    }
                }
                (e, space, seqs)
            };
            let (mut batched, mut bspace, mut bseqs) = build();
            let (mut single, mut sspace, mut sseqs) = build();
            for tick in ticks {
                let mut refs: Vec<&mut SeqKv> = bseqs.iter_mut().collect();
                let (got, _) = batched.forward_runs(&mut bspace.batch(&mut refs), &tick, rows);
                for (i, run) in tick.iter().enumerate() {
                    let mut want = Vec::new();
                    for (r, tok) in run.iter().enumerate() {
                        let (_, step) = single.forward_runs(
                            &mut sspace.batch(&mut [&mut sseqs[i]]),
                            &[std::slice::from_ref(tok)],
                            LogitRows::Last,
                        );
                        if rows == LogitRows::All || r + 1 == run.len() {
                            want.extend(step.logits.iter().map(|x| x.to_bits()));
                        }
                    }
                    let got: Vec<u32> = got[i].iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "seq {i} paged={paged} {rows:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one token run per sequence")]
    fn run_count_mismatch_panics() {
        let mut e = engine(OptConfig::full());
        let mut s0 = new_seq(&e);
        e.forward_runs([&mut s0].as_mut_slice(), &[&[1], &[2]], LogitRows::Last);
    }

    #[test]
    #[should_panic(expected = "staging limit")]
    fn oversized_chunk_panics() {
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::stories260k(), 7));
        let mut e = Engine::new(weights, OptConfig::full()).unwrap();
        let tokens = vec![1u32; 65];
        fresh(&mut e, &tokens);
    }
}
