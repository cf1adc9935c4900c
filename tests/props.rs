//! Property-based tests (speedllm-testkit) over the public API: codec
//! round-trips, quantization error bounds, memory-plan soundness, scheduler
//! laws, and sampler ranges under arbitrary inputs.
//!
//! Every property keeps its original name and 64-case budget from the
//! `proptest` era; runs are reproducible from a fixed seed (override with
//! `TESTKIT_SEED=<u64>` to replay a reported failure).

use speedllm_testkit::prelude::*;

use speedllm::accel::fusion::{fuse, fuse_with_limit};
use speedllm::accel::ir::build_decode_graph;
use speedllm::accel::memplan::{plan, verify_plan};
use speedllm::accel::pipeline::{schedule_kernel, PipelineConfig, TileCost, Unit, N_RESOURCES};
use speedllm::fpga::cycles::Cycles;
use speedllm::fpga::event::Timeline;
use speedllm::llama::config::ModelConfig;
use speedllm::llama::ops;
use speedllm::llama::quant::{QuantMatrix, GROUP};
use speedllm::llama::tokenizer::Tokenizer;

/// Builds a [`SimStats`] from 16 scalars — one per public leaf field. The
/// struct literal is exhaustive (no `..Default::default()`), so adding a
/// field to `SimStats` or its nested counters breaks this helper at compile
/// time, forcing `accumulate` (checked below) to be updated with it.
fn sim_stats_from(v: &[u64; 16]) -> speedllm::fpga::stats::SimStats {
    use speedllm::fpga::hbm::HbmCounters;
    use speedllm::fpga::mpe::MpeCounters;
    use speedllm::fpga::sfu::SfuCounters;
    speedllm::fpga::stats::SimStats {
        total_cycles: Cycles(v[0]),
        hbm: HbmCounters {
            read_bytes: v[1],
            write_bytes: v[2],
            read_transfers: v[3],
            write_transfers: v[4],
        },
        ocm_read_bytes: v[5],
        ocm_write_bytes: v[6],
        mpe: MpeCounters {
            macs: v[7],
            busy_cycles: v[8],
            tiles: v[9],
        },
        sfu: SfuCounters {
            elements: v[10],
            busy_cycles: v[11],
            ops: v[12],
        },
        dma_busy_cycles: v[13],
        kernel_launches: v[14],
        alloc_stalls: v[15],
    }
}

/// Flattens every public leaf field of a [`SimStats`] back into the order
/// used by [`sim_stats_from`]; exhaustive destructuring keeps it honest.
fn sim_stats_fields(s: &speedllm::fpga::stats::SimStats) -> [u64; 16] {
    use speedllm::fpga::hbm::HbmCounters;
    use speedllm::fpga::mpe::MpeCounters;
    use speedllm::fpga::sfu::SfuCounters;
    let speedllm::fpga::stats::SimStats {
        total_cycles,
        hbm:
            HbmCounters {
                read_bytes,
                write_bytes,
                read_transfers,
                write_transfers,
            },
        ocm_read_bytes,
        ocm_write_bytes,
        mpe:
            MpeCounters {
                macs,
                busy_cycles: mpe_busy,
                tiles,
            },
        sfu:
            SfuCounters {
                elements,
                busy_cycles: sfu_busy,
                ops,
            },
        dma_busy_cycles,
        kernel_launches,
        alloc_stalls,
    } = *s;
    [
        total_cycles.0,
        read_bytes,
        write_bytes,
        read_transfers,
        write_transfers,
        ocm_read_bytes,
        ocm_write_bytes,
        macs,
        mpe_busy,
        tiles,
        elements,
        sfu_busy,
        ops,
        dma_busy_cycles,
        kernel_launches,
        alloc_stalls,
    ]
}

props! {
    #![config(cases = 64)]

    fn tokenizer_roundtrips_arbitrary_ascii(text in printable_ascii(0..121)) {
        let t = Tokenizer::synthetic(512, 7);
        let ids = t.encode(&text, true, false);
        prop_assert_eq!(t.decode(&ids), text);
    }

    fn tokenizer_roundtrips_arbitrary_unicode(text in unicode(0..41)) {
        let t = Tokenizer::synthetic(512, 7);
        let ids = t.encode(&text, true, false);
        prop_assert_eq!(t.decode(&ids), text);
    }

    fn quantization_error_is_bounded(values in vec_of(-100.0f32..100.0, 1..300)) {
        let qm = QuantMatrix::quantize(&values, 1, values.len());
        let back = qm.dequantize();
        let bound = qm.error_bound() + 1e-5;
        for (a, b) in values.iter().zip(&back) {
            prop_assert!((a - b).abs() <= bound, "{} vs {} (bound {})", a, b, bound);
        }
        // Group scale bound: error <= absmax/254 per group is implied by
        // symmetric 127-step quantization.
        prop_assert!(qm.groups_per_row() == values.len().div_ceil(GROUP));
    }

    fn softmax_is_a_distribution(values in vec_of(-50.0f32..50.0, 1..200)) {
        let mut x = values;
        ops::softmax(&mut x);
        let sum: f32 = x.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4, "sum {}", sum);
        prop_assert!(x.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
    }

    fn rmsnorm_output_is_finite_and_scaled(values in vec_of(-1000.0f32..1000.0, 4..128)) {
        let gain = vec![1.0f32; values.len()];
        let mut out = vec![0.0f32; values.len()];
        ops::rmsnorm(&mut out, &values, &gain);
        prop_assert!(out.iter().all(|v| v.is_finite()));
        // RMS of output is ~1 when input is non-degenerate.
        let ss: f32 = values.iter().map(|v| v * v).sum();
        if ss / values.len() as f32 > 1e-3 {
            let rms_out: f32 = (out.iter().map(|v| v * v).sum::<f32>() / out.len() as f32).sqrt();
            prop_assert!((rms_out - 1.0).abs() < 0.05, "rms {}", rms_out);
        }
    }

    fn memory_plans_are_sound_for_any_pool_size(
        pool in 64u64..4_000_000,
        fused in any_bool(),
        reuse in any_bool(),
    ) {
        let graph = build_decode_graph(&ModelConfig::test_tiny());
        let schedule = fuse(&graph, fused);
        let p = plan(&graph, &schedule, reuse, pool);
        verify_plan(&graph, &schedule, &p).map_err(TestCaseError::fail)?;
    }

    fn fusion_partitions_for_any_limit(limit in 1usize..12) {
        let graph = build_decode_graph(&ModelConfig::test_tiny());
        let s = fuse_with_limit(&graph, true, limit);
        s.validate(&graph).map_err(TestCaseError::fail)?;
        prop_assert!(s.kernels.iter().all(|k| k.ops.len() <= limit));
        // Total op count is preserved.
        prop_assert_eq!(s.op_count(), graph.ops.len());
    }

    fn streamed_schedule_never_slower_than_sequential(
        tiles in vec_of((0u64..200, 1u64..200, 0u64..100), 1..40),
        depth in 1usize..5,
    ) {
        let tiles: Vec<TileCost> = tiles
            .into_iter()
            .map(|(r, c, w)| TileCost {
                read: Cycles(r),
                compute: Cycles(c),
                write: Cycles(w),
                unit: Unit::Mpe,
            })
            .collect();
        let launch = Cycles(280);
        let streamed_cfg = PipelineConfig { streamed: true, depth, launch, streamed_launch: Cycles(40) };
        let seq_cfg = PipelineConfig { streamed: false, depth, launch, streamed_launch: Cycles(40) };
        let mut tl_s = Timeline::new(N_RESOURCES);
        let mut tl_q = Timeline::new(N_RESOURCES);
        let z = Cycles::ZERO;
        let s = schedule_kernel(&mut tl_s, None, &streamed_cfg, z, z, z, &tiles, "s");
        let q = schedule_kernel(&mut tl_q, None, &seq_cfg, z, z, z, &tiles, "q");
        prop_assert!(s.span.end <= q.span.end, "streamed {:?} > sequential {:?}", s.span.end, q.span.end);
        // And the sequential schedule equals launch + sum of stages.
        let total: u64 = tiles.iter().map(|t| t.read.0 + t.compute.0 + t.write.0).sum();
        prop_assert_eq!(q.span.end, Cycles(launch.0 + total));
    }

    fn sampler_indices_always_in_vocab(
        logits in vec_of(-30.0f32..30.0, 2..100),
        seed in any_u64(),
        temp in 0.1f32..3.0,
        p in 0.05f32..1.0,
    ) {
        use speedllm::llama::sampler::{Sampler, SamplerKind};
        for kind in [
            SamplerKind::Argmax,
            SamplerKind::Temperature(temp),
            SamplerKind::TopP { temperature: temp, p },
        ] {
            let mut s = Sampler::new(kind, seed);
            for _ in 0..8 {
                let id = s.sample(&logits) as usize;
                prop_assert!(id < logits.len());
            }
        }
    }

    fn rope_preserves_norm_for_any_position(
        pos in 0usize..4096,
        head_dim in (1usize..8).prop_map(|x| x * 2),
    ) {
        let n = head_dim * 3;
        let mut v: Vec<f32> = (0..n).map(|i| ((i * 37 + 11) as f32 * 0.1).sin()).collect();
        let norm0: f32 = v.iter().map(|x| x * x).sum();
        ops::rope_inplace(&mut v, pos, head_dim, ops::ROPE_THETA);
        let norm1: f32 = v.iter().map(|x| x * x).sum();
        prop_assert!((norm0 - norm1).abs() < norm0 * 1e-3 + 1e-4);
    }

    fn chunked_prefill_matches_for_any_split(
        split in 1usize..12,
        seed in any_u64(),
    ) {
        use speedllm::accel::engine::Engine;
        use speedllm::accel::opt::OptConfig;
        use speedllm::llama::forward::LogitRows;
        use speedllm::llama::kv_cache::KvCache;
        use std::sync::Arc;
        let cfg = ModelConfig::test_tiny();
        let weights = Arc::new(speedllm::llama::weights::TransformerWeights::synthetic(cfg, 42));
        let tokens: Vec<u32> = (0..12u32).map(|i| (i.wrapping_mul(7).wrapping_add(seed as u32)) % 64).collect();
        let mut reference = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
        let mut seq = KvCache::new(&reference.graph().config);
        let mut last = Vec::new();
        for &t in &tokens {
            last = reference.forward_runs([&mut seq].as_mut_slice(), &[&[t]], LogitRows::Last).1.logits;
        }
        let mut chunked = Engine::new(weights, OptConfig::full()).unwrap();
        let mut seq = KvCache::new(&chunked.graph().config);
        let mut got = Vec::new();
        for run in tokens.chunks(split) {
            got = chunked.forward_runs([&mut seq].as_mut_slice(), &[run], LogitRows::Last).1.logits;
        }
        for (a, b) in last.iter().zip(&got) {
            prop_assert!((a - b).abs() < 1e-5, "{} vs {}", a, b);
        }
    }

    fn checkpoint_roundtrip_for_random_tiny_architectures(
        n_layers in 1usize..4,
        heads in 1usize..5,
        gqa in 1usize..3,
        dim_mult in 1usize..5,
        seed in any_u64(),
    ) {
        let n_heads = heads * gqa;
        let dim = n_heads * 2 * dim_mult;
        let cfg = ModelConfig {
            dim,
            hidden_dim: dim * 2 + 4,
            n_layers,
            n_heads,
            n_kv_heads: heads,
            vocab_size: 32,
            seq_len: 16,
            shared_classifier: seed % 2 == 0,
        };
        cfg.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        let w = speedllm::llama::weights::TransformerWeights::synthetic(cfg, seed);
        let mut buf = Vec::new();
        w.write_to(&mut buf).unwrap();
        let r = speedllm::llama::weights::TransformerWeights::read_from(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(w, r);
    }

    fn sim_stats_accumulate_sums_every_public_field(
        a in vec_of(0u64..1_000_000_000, 16..17),
        b in vec_of(0u64..1_000_000_000, 16..17),
    ) {
        let a: [u64; 16] = a.try_into().unwrap();
        let b: [u64; 16] = b.try_into().unwrap();
        let mut acc = sim_stats_from(&a);
        acc.accumulate(&sim_stats_from(&b));
        let got = sim_stats_fields(&acc);
        for (i, (&x, &y)) in a.iter().zip(&b).enumerate() {
            prop_assert_eq!(got[i], x + y, "field #{} not summed by accumulate", i);
        }
        // Accumulating the zero stats is the identity.
        let mut id = sim_stats_from(&a);
        id.accumulate(&speedllm::fpga::stats::SimStats::default());
        prop_assert_eq!(sim_stats_fields(&id), a);
    }
}
