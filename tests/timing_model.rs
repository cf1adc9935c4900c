//! Quantitative regression guards on the timing model: the relationships
//! that make Fig. 2 come out right are pinned here as inequalities and
//! decompositions, so a cost-model change that silently breaks the
//! reproduction fails tests instead of just shifting numbers.

use std::sync::Arc;

use speedllm::accel::engine::{AccelConfig, Engine, StepResult};
use speedllm::accel::opt::OptConfig;
use speedllm::llama::config::ModelConfig;
use speedllm::llama::forward::LogitRows;
use speedllm::llama::kv_cache::KvCache;
use speedllm::llama::weights::TransformerWeights;

fn weights(cfg: ModelConfig) -> Arc<TransformerWeights> {
    Arc::new(TransformerWeights::synthetic(cfg, 42))
}

/// One decode pass of token 1 extending `seq`.
fn pass(e: &mut Engine, seq: &mut KvCache) -> StepResult {
    e.forward_runs([seq].as_mut_slice(), &[&[1]], LogitRows::Last)
        .1
}

/// One decode pass of token 1 on a fresh sequence.
fn fresh(e: &mut Engine) -> StepResult {
    let mut seq = KvCache::new(&e.graph().config);
    pass(e, &mut seq)
}

#[test]
fn launch_count_equals_kernel_count() {
    for (fused, expected_per_token) in [(true, 26usize), (false, 105usize)] {
        let mut opt = OptConfig::full();
        opt.operator_fusion = fused;
        let mut e = Engine::new(weights(ModelConfig::stories15m()), opt).unwrap();
        let r = fresh(&mut e);
        assert_eq!(
            r.stats.kernel_launches as usize, expected_per_token,
            "fused={fused}"
        );
        assert_eq!(e.schedule().kernels.len(), expected_per_token);
    }
}

#[test]
fn alloc_stalls_equal_materialized_hbm_values() {
    let mut e = Engine::new(weights(ModelConfig::test_tiny()), OptConfig::no_reuse()).unwrap();
    let r = fresh(&mut e);
    assert_eq!(r.stats.alloc_stalls as usize, e.memory_plan().hbm_values());
}

#[test]
fn each_optimization_helps_individually() {
    // Enabling any one optimization on top of the unoptimized baseline
    // must reduce per-token cycles.
    let w = weights(ModelConfig::stories15m());
    let base = {
        let mut e = Engine::new(Arc::clone(&w), OptConfig::unoptimized()).unwrap();
        fresh(&mut e).cycles
    };
    for (name, opt) in [
        (
            "P",
            OptConfig {
                stream_parallel: true,
                ..OptConfig::unoptimized()
            },
        ),
        (
            "R",
            OptConfig {
                memory_reuse: true,
                ..OptConfig::unoptimized()
            },
        ),
        (
            "F",
            OptConfig {
                operator_fusion: true,
                ..OptConfig::unoptimized()
            },
        ),
    ] {
        let mut e = Engine::new(Arc::clone(&w), opt).unwrap();
        let c = fresh(&mut e).cycles;
        assert!(c < base, "{name} alone did not help: {c} vs {base}");
    }
}

#[test]
fn optimizations_compose_monotonically() {
    // full <= any two-of-three <= any one-of-three <= none, on cycles.
    let w = weights(ModelConfig::stories15m());
    let cycles = |opt: OptConfig| {
        let mut e = Engine::new(Arc::clone(&w), opt).unwrap();
        fresh(&mut e).cycles.0
    };
    let full = cycles(OptConfig::full());
    for (_, opt) in OptConfig::paper_variants() {
        assert!(full <= cycles(opt), "full must be fastest");
    }
    let unopt = cycles(OptConfig::unoptimized());
    for (name, opt) in OptConfig::all_corners() {
        let c = cycles(opt);
        assert!(c <= unopt, "{name} slower than unoptimized: {c} vs {unopt}");
        assert!(c >= full, "{name} faster than full: {c} vs {full}");
    }
}

#[test]
fn weight_stream_is_the_dominant_read_traffic() {
    let cfg = ModelConfig::stories15m();
    let mut e = Engine::new(weights(cfg), OptConfig::full()).unwrap();
    let r = fresh(&mut e);
    let weight_bytes = cfg.weight_bytes(4) as f64;
    let read = r.stats.hbm.read_bytes as f64;
    assert!(
        (read / weight_bytes - 1.0).abs() < 0.1,
        "per-token reads {read} should be ~weight bytes {weight_bytes}"
    );
}

#[test]
fn int8_reads_roughly_quarter_of_fp32() {
    let cfg = ModelConfig::stories15m();
    let mut f = Engine::new(weights(cfg), OptConfig::full()).unwrap();
    let mut q = Engine::new(weights(cfg), OptConfig::full_int8()).unwrap();
    let rf = fresh(&mut f).stats.hbm.read_bytes as f64;
    let rq = fresh(&mut q).stats.hbm.read_bytes as f64;
    let ratio = rf / rq;
    assert!((3.0..4.5).contains(&ratio), "int8 read ratio {ratio}");
}

#[test]
fn mpe_busy_is_invariant_across_pipeline_variants() {
    // Pipelining changes when compute happens, not how much.
    let w = weights(ModelConfig::stories15m());
    let mut a = Engine::new(Arc::clone(&w), OptConfig::full()).unwrap();
    let mut b = Engine::new(w, OptConfig::no_parallel()).unwrap();
    let sa = fresh(&mut a).stats;
    let sb = fresh(&mut b).stats;
    assert_eq!(sa.mpe.macs, sb.mpe.macs);
    assert_eq!(sa.mpe.busy_cycles, sb.mpe.busy_cycles);
}

#[test]
fn deeper_double_buffering_never_hurts() {
    let w = weights(ModelConfig::stories260k());
    let mut prev = u64::MAX;
    for depth in [1usize, 2, 4] {
        let mut cfg = AccelConfig::for_opt(&OptConfig::full());
        cfg.double_buffer_depth = depth;
        let mut e = Engine::with_config(Arc::clone(&w), OptConfig::full(), cfg).unwrap();
        let c = fresh(&mut e).cycles.0;
        assert!(c <= prev, "depth {depth} regressed: {c} vs {prev}");
        prev = c;
    }
}

#[test]
fn streamed_total_beats_sum_of_stage_busy() {
    // In the streamed design the makespan must be well below the sum of
    // all resource busy times (that sum is what the sequential design
    // approaches).
    let mut e = Engine::new(weights(ModelConfig::stories15m()), OptConfig::full()).unwrap();
    let r = fresh(&mut e);
    let busy_sum = r.stats.mpe.busy_cycles + r.stats.sfu.busy_cycles + r.stats.dma_busy_cycles / 24; // channel-cycles back to engine-cycles
    assert!(
        r.cycles.0 * 3 < busy_sum * 2,
        "overlap missing: makespan {} vs busy sum {busy_sum}",
        r.cycles.0
    );
}

#[test]
fn per_token_cost_is_stable_in_steady_state() {
    // Consecutive decode steps differ only by one KV page at most.
    let mut e = Engine::new(weights(ModelConfig::stories15m()), OptConfig::full()).unwrap();
    let mut seq = KvCache::new(&e.graph().config);
    let mut prev = pass(&mut e, &mut seq).cycles.0;
    for pos in 1..6 {
        let c = pass(&mut e, &mut seq).cycles.0;
        let rel = (c as f64 - prev as f64).abs() / prev as f64;
        assert!(
            rel < 0.05,
            "step-to-step jump of {:.1}% at pos {pos}",
            rel * 100.0
        );
        prev = c;
    }
}
