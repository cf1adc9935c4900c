//! Substrate microbenchmarks: the CPU reference kernels at stories15M
//! dimensions — the row-major f32 matvec, the batched row-major f32
//! matmul at the widths whose lane blocks are the 4/2/1 tails, the GEMMs
//! the hot path runs (f32 in kernel order, int8, int4) at widths 1, 3, 4
//! and 6 on the FFN and classifier shapes, RMSNorm, softmax, RoPE — plus
//! a full reference forward step. Every weight-streaming row carries
//! `gb_s`: weight bytes over median time.

use speedllm_bench::harness::Runner;
use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::Transformer;
use speedllm_llama::ops;
use speedllm_llama::qgemm::{qmatmul, qmatvec};
use speedllm_llama::quant::{QuantKind, QuantMatrix};
use speedllm_llama::rng::Xoshiro256;
use speedllm_llama::weights::TransformerWeights;
use std::hint::black_box;

fn bench_kernels(c: &mut Runner) {
    let cfg = ModelConfig::stories15m();
    let (rows, cols) = (cfg.hidden_dim, cfg.dim);
    let mut rng = Xoshiro256::seed_from_u64(1);
    let mut w = vec![0.0f32; rows * cols];
    let mut x = vec![0.0f32; cols];
    rng.fill_normal(&mut w, 0.02);
    rng.fill_normal(&mut x, 1.0);
    let mut out = vec![0.0f32; rows];

    c.set_bytes_per_iter(Some((rows * cols * 4) as u64));
    c.bench_function("cpu/matvec_serial_768x288", |b| {
        b.iter(|| {
            ops::matvec(black_box(&mut out), &w, &x, rows, cols);
            black_box(out[0])
        })
    });

    // Widths 2/3/5/6 decompose into lane blocks of 2, 2+1, 4+1 and 4+2:
    // the tail tiles a verify or mixed tick lands on.
    for width in [2usize, 3, 5, 6] {
        let mut xs = vec![0.0f32; width * cols];
        rng.fill_normal(&mut xs, 1.0);
        let mut mout = vec![0.0f32; rows * width];
        c.bench_function(&format!("cpu/matmul_w{width}_768x288"), |b| {
            b.iter(|| {
                ops::matmul(black_box(&mut mout), &w, &xs, rows, cols, width);
                black_box(mout[0])
            })
        });
    }

    // Classifier-sized matvec is the big one: vocab x dim.
    let vrows = cfg.vocab_size;
    let mut wv = vec![0.0f32; vrows * cols];
    rng.fill_normal(&mut wv, 0.02);
    let mut vout = vec![0.0f32; vrows];
    c.set_bytes_per_iter(Some((vrows * cols * 4) as u64));
    c.bench_function("cpu/matvec_serial_32000x288", |b| {
        b.iter(|| {
            ops::matvec(black_box(&mut vout), &wv, &x, vrows, cols);
            black_box(vout[0])
        })
    });

    // The hot path's GEMMs on the FFN and classifier shapes: f32 in
    // kernel order, int8 and int4. Widths 3 and 6 are what the
    // `serve15m_int8_open` benchmark workload runs, 1 is plain decode, and
    // 4 is there to hold 3 against: a width must not cost more than the
    // next power of two. The f32 rows time the kernel alone, on
    // activations transposed once outside the loop.
    for (w, rows) in [(&w, rows), (&wv, vrows)] {
        let mut k = w.clone();
        ops::to_kernel_order(&mut k, rows, cols);
        c.set_bytes_per_iter(Some((rows * cols * 4) as u64));
        for width in [1usize, 3, 4, 6] {
            let mut xs = vec![0.0f32; width * cols];
            rng.fill_normal(&mut xs, 1.0);
            let xt = ops::transpose_batch_major(&xs, cols, width);
            let mut mout = vec![0.0f32; rows * width];
            let name = format!("cpu/tiled_matmul_f32_w{width}_{rows}x288");
            c.bench_function(&name, |b| {
                b.iter(|| {
                    ops::tiled_matmul_rows_xt(black_box(&mut mout), &k, &xt, 0..rows, cols, width);
                    black_box(mout[0])
                })
            });
        }
        for kind in [QuantKind::Int8, QuantKind::Int4] {
            let qm = QuantMatrix::quantize_with(w, rows, cols, kind);
            c.set_bytes_per_iter(Some(qm.bytes() as u64));
            c.bench_function(&format!("cpu/qmatvec_{}_{rows}x288", kind.name()), |b| {
                b.iter(|| {
                    qmatvec(black_box(&mut vout[..rows]), &qm, &x);
                    black_box(vout[0])
                })
            });
            for width in [3usize, 4, 6] {
                let mut xs = vec![0.0f32; width * cols];
                rng.fill_normal(&mut xs, 1.0);
                let mut mout = vec![0.0f32; rows * width];
                let name = format!("cpu/qmatmul_{}_w{width}_{rows}x288", kind.name());
                c.bench_function(&name, |b| {
                    b.iter(|| {
                        qmatmul(black_box(&mut mout), &qm, &xs, width);
                        black_box(mout[0])
                    })
                });
            }
        }
    }
    c.set_bytes_per_iter(None);

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
    let mut pos = 0usize;
    c.bench_function("cpu/forward_260k_serial", |b| {
        b.iter(|| {
            let l = model.forward(black_box(3), pos % 500);
            pos += 1;
            black_box(l[0])
        })
    });
}

fn main() {
    let mut c = Runner::from_env().sample_size(30);
    bench_kernels(&mut c);
    c.finish();
}
