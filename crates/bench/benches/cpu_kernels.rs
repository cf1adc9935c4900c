//! Substrate microbenchmarks at stories15M dimensions: the GEMMs the walk
//! runs, RMSNorm, softmax, RoPE and quantizing a matrix — plus a full
//! reference forward step. Every weight-streaming row
//! carries `gb_s`: weight bytes over median time.
//!
//! The `cpu/cores_*` rows time every GEMM body through `llama::cores`,
//! serial (`serial`) and with its rows split over both host cores
//! (`two`): f32 in kernel order, f32 in split order (`exact`, the vocab
//! table's exact GEMM, on the same shapes as the kernel-order rows), the
//! split-order vocab screen, int8 and int4, on the FFN and classifier
//! shapes at widths 1 (plain decode), 3 and 6 (what the
//! `serve15m_int8_open` benchmark workload runs), 4 (to hold 3 against: a
//! width must not cost more than the next power of two) and 16; and
//! square f32 GEMMs at width 1 around the smallest size worth splitting.
//!
//! The `setup/*` rows time what builds every synthetic checkpoint: 2²⁰
//! seeded normals drawn one at a time (`fill_normal_1m_loop`, the
//! reference `next_normal_f32` loop) and by the certified vector fill
//! (`fill_normal_1m`), each stamped with `ns_per_element`, and the whole
//! stories15M checkpoint (`synthetic_stories15m`, 15.2 M normals).

use speedllm_bench::harness::Runner;
use speedllm_llama::config::ModelConfig;
use speedllm_llama::cores::{with_cores, Buffers, Gemm};
use speedllm_llama::forward::Transformer;
use speedllm_llama::kv_cache::KvCache;
use speedllm_llama::ops;
use speedllm_llama::quant::{QuantKind, QuantMatrix};
use speedllm_llama::rng::Xoshiro256;
use speedllm_llama::weights::TransformerWeights;
use std::hint::black_box;

/// Widths of the `cpu/cores_*` rows on the FFN and classifier shapes.
const WIDTHS: [usize; 5] = [1, 3, 4, 6, 16];

fn bench_kernels(c: &mut Runner) {
    let cfg = ModelConfig::stories15m();
    let (rows, cols) = (cfg.hidden_dim, cfg.dim);
    let mut rng = Xoshiro256::seed_from_u64(1);
    let mut w = vec![0.0f32; rows * cols];
    let mut x = vec![0.0f32; cols];
    rng.fill_normal(&mut w, 0.02);
    rng.fill_normal(&mut x, 1.0);

    // Quantizing a checkpoint matrix (once per model load).
    c.bench_function("quant/quantize_768x288", |b| {
        b.iter(|| black_box(QuantMatrix::quantize(black_box(&w), rows, cols).bytes()))
    });

    let gain = vec![1.0f32; cols];
    let mut nbuf = x.clone();
    c.bench_function("cpu/rmsnorm_288", |b| {
        b.iter(|| {
            ops::rmsnorm(black_box(&mut nbuf), &x, &gain);
            black_box(nbuf[0])
        })
    });

    let mut sm = vec![0.0f32; 256];
    rng.fill_normal(&mut sm, 1.0);
    c.bench_function("cpu/softmax_256", |b| {
        let src = sm.clone();
        b.iter(|| {
            sm.copy_from_slice(&src);
            ops::softmax(black_box(&mut sm));
            black_box(sm[0])
        })
    });

    let mut q = x.clone();
    c.bench_function("cpu/rope_288", |b| {
        b.iter(|| {
            ops::rope_inplace(black_box(&mut q), 17, cfg.head_dim(), ops::ROPE_THETA);
            black_box(q[0])
        })
    });

    // Full reference decode step on stories260K (15M is too slow for tight
    // bench loops in CI).
    let weights = TransformerWeights::synthetic(ModelConfig::stories260k(), 42);
    let mut model = Transformer::new(weights);
    let mut kv = KvCache::new(model.config());
    c.bench_function("cpu/forward_260k_serial", |b| {
        b.iter(|| {
            if kv.len() == 500 {
                kv.reset();
            }
            let pos = kv.len();
            let l = model.forward_with_kv(&mut kv, black_box(3), pos);
            black_box(l[0])
        })
    });
}

/// `gemm` on one core, then on two inside one [`with_cores`] scope, so
/// the helper thread is started once for every sample.
fn serial_and_two_cores(
    c: &mut Runner,
    name: &str,
    gemm: Gemm<'_>,
    shape: (usize, usize),
    width: usize,
) {
    let (rows, cols) = shape;
    let mut xt = vec![0.0f32; cols * width];
    Xoshiro256::seed_from_u64(width as u64).fill_normal(&mut xt, 1.0);
    let mut out = vec![0.0f32; rows * width];
    c.bench_function(&format!("cpu/cores_serial_{name}"), |b| {
        b.iter(|| {
            gemm.run(black_box(&mut out), &xt, 0..rows, width);
            black_box(out[0])
        })
    });
    with_cores(&mut Buffers::default(), usize::MAX, |cores| {
        c.bench_function(&format!("cpu/cores_two_{name}"), |b| {
            b.iter(|| {
                cores.run(gemm, black_box(&mut out), &xt, 0..rows, width);
                black_box(out[0])
            })
        });
    });
}

fn bench_cores(c: &mut Runner) {
    let cfg = ModelConfig::stories15m();
    let cols = cfg.dim;
    let mut rng = Xoshiro256::seed_from_u64(2);
    for rows in [cfg.hidden_dim, cfg.vocab_size] {
        let mut w = vec![0.0f32; rows * cols];
        rng.fill_normal(&mut w, 0.02);
        let int8 = QuantMatrix::quantize_with(&w, rows, cols, QuantKind::Int8);
        let int4 = QuantMatrix::quantize_with(&w, rows, cols, QuantKind::Int4);
        let (mut kernel, mut split) = (w.clone(), w);
        ops::to_kernel_order(&mut kernel, rows, cols);
        ops::to_split_order(&mut split, rows, cols);
        let gemms = [
            ("f32", Gemm::KernelOrder(&kernel, cols), rows * cols * 4),
            ("exact", Gemm::SplitExact(&split, cols), rows * cols * 4),
            ("screen", Gemm::SplitScreen(&split, cols), rows * cols * 2),
            ("int8", Gemm::Quant(&int8), int8.bytes()),
            ("int4", Gemm::Quant(&int4), int4.bytes()),
        ];
        for (form, gemm, bytes) in gemms {
            c.set_bytes_per_iter(Some(bytes as u64));
            for width in WIDTHS {
                let name = format!("{form}_w{width}_{rows}x{cols}");
                serial_and_two_cores(c, &name, gemm, (rows, cols), width);
            }
        }
    }
    // Square f32 GEMMs at width 1 around the split's break-even.
    for n in [64usize, 128, 192, 256] {
        let mut w = vec![0.0f32; n * n];
        rng.fill_normal(&mut w, 0.02);
        ops::to_kernel_order(&mut w, n, n);
        c.set_bytes_per_iter(Some((n * n * 4) as u64));
        let gemm = Gemm::KernelOrder(&w, n);
        serial_and_two_cores(c, &format!("f32_w1_{n}x{n}"), gemm, (n, n), 1);
    }
    c.set_bytes_per_iter(None);
}

fn bench_setup(c: &mut Runner) {
    const N: usize = 1 << 20;
    let mut out = vec![0.0f32; N];
    c.set_elements_per_iter(Some(N as u64));
    let mut rng = Xoshiro256::seed_from_u64(3);
    c.bench_function("setup/fill_normal_1m_loop", |b| {
        b.iter(|| {
            for v in out.iter_mut() {
                *v = rng.next_normal_f32() * 0.02;
            }
            black_box(out[0])
        })
    });
    c.bench_function("setup/fill_normal_1m", |b| {
        b.iter(|| {
            rng.fill_normal(black_box(&mut out), 0.02);
            black_box(out[0])
        })
    });
    c.set_elements_per_iter(None);
    c.bench_function("setup/synthetic_stories15m", |b| {
        b.iter(|| TransformerWeights::synthetic(ModelConfig::stories15m(), 42).param_count())
    });
}

fn main() {
    let mut c = Runner::from_env().sample_size(30);
    bench_setup(&mut c);
    bench_kernels(&mut c);
    bench_cores(&mut c);
    c.finish();
}
