//! # speedllm-gpu-model
//!
//! Analytical roofline decode model for the datacenter GPUs the paper's
//! cost-efficiency argument (§3.2.2) compares against. Single-batch LLM
//! decoding is memory-bandwidth bound on GPUs — every generated token
//! streams all weights plus the live KV cache — so
//! `tokens/s ≈ effective_bandwidth / bytes_per_token`, clipped by the
//! compute roofline. Cost efficiency is then `tokens/s / list price`,
//! exactly the arithmetic behind the paper's claim that the $8k U280 beats
//! the $12k V100S and $17k A100 on tokens/s/$ for small-model inference.
//!
//! For the *tiny* models of the paper's edge scenario, the binding term is
//! not bandwidth but **kernel-launch overhead**: ~a dozen dispatches per
//! layer at microseconds each, which caps batch-1 throughput in the low
//! thousands of tokens/s regardless of how fast the HBM is — consistent
//! with real measurements of TinyStories-class models on datacenter GPUs.
//! Both terms are modelled; the binding one wins.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use speedllm_llama::config::ModelConfig;

/// Static specification of a decode device for the roofline.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Peak memory bandwidth, bytes/s.
    pub mem_bw_bytes_per_s: f64,
    /// Sustained fraction of peak bandwidth achievable on matvec streams.
    pub mem_efficiency: f64,
    /// Peak fp16/fp32-accumulate throughput, FLOP/s.
    pub peak_flops: f64,
    /// Board power, watts (TDP).
    pub tdp_w: f64,
    /// List price in USD (the paper's figures).
    pub price_usd: f64,
    /// Host overhead per kernel launch, seconds. Batch-1 decoding of tiny
    /// models is dominated by this on GPUs: every layer dispatches ~a
    /// dozen kernels and each costs microseconds of launch latency —
    /// the effect that makes FPGAs attractive for small-model inference
    /// and the paper's edge use case.
    pub kernel_launch_s: f64,
}

/// Kernels a framework dispatches per decoded token: roughly a dozen per
/// transformer layer (norms, QKV, rope, attention pieces, FFN) plus
/// embedding/classifier/sampling.
#[must_use]
pub fn kernels_per_token(model: &ModelConfig) -> f64 {
    (model.n_layers * 12 + 5) as f64
}

impl GpuSpec {
    /// NVIDIA V100S 32 GB (HBM2, 1134 GB/s), $12,000 per the paper.
    #[must_use]
    pub fn v100s() -> Self {
        Self {
            name: "V100S",
            mem_bw_bytes_per_s: 1134.0e9,
            mem_efficiency: 0.75,
            peak_flops: 130.0e12, // tensor fp16
            tdp_w: 250.0,
            price_usd: 12_000.0,
            kernel_launch_s: 6.0e-6,
        }
    }

    /// NVIDIA A100 40 GB (HBM2e, 1555 GB/s), $17,000 per the paper.
    #[must_use]
    pub fn a100() -> Self {
        Self {
            name: "A100",
            mem_bw_bytes_per_s: 1555.0e9,
            mem_efficiency: 0.78,
            peak_flops: 312.0e12,
            tdp_w: 300.0,
            price_usd: 17_000.0,
            kernel_launch_s: 5.0e-6,
        }
    }

    /// The paper's comparison set.
    #[must_use]
    pub fn paper_gpus() -> Vec<GpuSpec> {
        vec![Self::v100s(), Self::a100()]
    }

    /// Bytes streamed per generated token: all weights at
    /// `bytes_per_weight`, plus the KV cache up to `ctx` positions (f16 on
    /// GPU).
    #[must_use]
    pub fn bytes_per_token(&self, model: &ModelConfig, ctx: usize, bytes_per_weight: f64) -> f64 {
        let weights = model.param_count() as f64 * bytes_per_weight;
        let kv = (2 * model.n_layers * ctx * model.kv_dim()) as f64 * 2.0;
        weights + kv
    }

    /// Decode throughput (tokens/s) at context length `ctx` with
    /// `bytes_per_weight`-wide weights, for batch size 1.
    #[must_use]
    pub fn decode_tokens_per_s(
        &self,
        model: &ModelConfig,
        ctx: usize,
        bytes_per_weight: f64,
    ) -> f64 {
        let bytes = self.bytes_per_token(model, ctx, bytes_per_weight);
        let mem_time = bytes / (self.mem_bw_bytes_per_s * self.mem_efficiency);
        // Compute roofline: 2 FLOPs per weight (MAC).
        let flops = 2.0 * model.param_count() as f64;
        let compute_time = flops / self.peak_flops;
        let overhead = kernels_per_token(model) * self.kernel_launch_s;
        1.0 / (mem_time.max(compute_time) + overhead)
    }

    /// Cost efficiency in tokens/s per dollar (the paper's §3.2.2 metric).
    #[must_use]
    pub fn tokens_per_s_per_dollar(
        &self,
        model: &ModelConfig,
        ctx: usize,
        bytes_per_weight: f64,
    ) -> f64 {
        self.decode_tokens_per_s(model, ctx, bytes_per_weight) / self.price_usd
    }
}

/// The U280's list price used by the paper.
pub const U280_PRICE_USD: f64 = 8_000.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ModelConfig {
        ModelConfig::stories15m()
    }

    #[test]
    fn decode_is_memory_bound_for_small_models() {
        let g = GpuSpec::a100();
        let m = model();
        let bytes = g.bytes_per_token(&m, 128, 2.0);
        let mem_time = bytes / (g.mem_bw_bytes_per_s * g.mem_efficiency);
        let compute_time = 2.0 * m.param_count() as f64 / g.peak_flops;
        assert!(mem_time > compute_time, "decode must be memory-bound");
    }

    #[test]
    fn a100_is_faster_than_v100s() {
        let m = model();
        let a = GpuSpec::a100().decode_tokens_per_s(&m, 128, 2.0);
        let v = GpuSpec::v100s().decode_tokens_per_s(&m, 128, 2.0);
        assert!(a > v, "a100 {a} vs v100s {v}");
    }

    #[test]
    fn throughput_decreases_with_context() {
        let m = model();
        let g = GpuSpec::a100();
        let t0 = g.decode_tokens_per_s(&m, 0, 2.0);
        let t_long = g.decode_tokens_per_s(&m, 256, 2.0);
        assert!(t0 >= t_long);
    }

    #[test]
    fn small_model_throughput_is_launch_limited() {
        // stories15M dispatches ~77 kernels/token; at ~5 us per launch the
        // A100 lands in the low thousands of tokens/s at batch 1 —
        // matching real measurements of tiny models on GPUs and the reason
        // FPGAs shine in the paper's edge use case.
        let m = model();
        let g = GpuSpec::a100();
        let t = g.decode_tokens_per_s(&m, 128, 2.0);
        assert!(t > 1_000.0 && t < 5_000.0, "got {t}");
        let overhead = kernels_per_token(&m) * g.kernel_launch_s;
        let mem = g.bytes_per_token(&m, 128, 2.0) / (g.mem_bw_bytes_per_s * g.mem_efficiency);
        assert!(overhead > mem, "launch overhead should dominate");
    }

    #[test]
    fn cost_efficiency_divides_price() {
        let m = model();
        let g = GpuSpec::v100s();
        let t = g.decode_tokens_per_s(&m, 64, 2.0);
        assert!((g.tokens_per_s_per_dollar(&m, 64, 2.0) - t / 12_000.0).abs() < 1e-9);
    }

    #[test]
    fn paper_gpu_set() {
        let gpus = GpuSpec::paper_gpus();
        assert_eq!(gpus.len(), 2);
        assert_eq!(gpus[0].name, "V100S");
        assert_eq!(gpus[1].name, "A100");
        assert_eq!(gpus[0].price_usd, 12_000.0);
        assert_eq!(gpus[1].price_usd, 17_000.0);
    }
}
