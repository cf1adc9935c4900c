//! Probes timed outside the serve run: what this host can stream, and
//! what single kernels of `llama` and `pagedkv` cost at the workload's
//! precision. Each probe calls a public function of the layer it names.

use std::hint::black_box;
use std::time::{Duration, Instant};

use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::Transformer;
use speedllm_llama::kv_cache::KvCache;
use speedllm_llama::ops;
use speedllm_llama::qgemm::qmatvec;
use speedllm_llama::quant::{QuantMatrix, QuantWeights};
use speedllm_llama::rng::Xoshiro256;
use speedllm_llama::sampler::Sampler;
use speedllm_llama::weights::TransformerWeights;
use speedllm_pagedkv::{BlockAllocator, BlockConfig, BlockId, RadixIndex};

use crate::json::Json;
use crate::spec::{ServeSpec, DRIFT_LIMIT, WEIGHT_SEED};
use crate::stats::median;

/// Wall time one probe may take.
const PROBE_BUDGET: Duration = Duration::from_millis(40);

/// Median seconds per call of `run`, sampled for about [`PROBE_BUDGET`].
/// Each sample times `inner` back-to-back calls, so that nanosecond-scale
/// probes are not dominated by the clock read.
fn seconds_per_call(inner: usize, mut run: impl FnMut()) -> f64 {
    run();
    let mut samples = Vec::new();
    let began = Instant::now();
    while samples.len() < 5 || (began.elapsed() < PROBE_BUDGET && samples.len() < 4096) {
        let t = Instant::now();
        for _ in 0..inner {
            run();
        }
        samples.push(t.elapsed().as_secs_f64() / inner as f64);
    }
    median(samples)
}

fn random_vec(rng: &mut Xoshiro256, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| (rng.below(2001) as f32 - 1000.0) / 1000.0)
        .collect()
}

/// What one core of this host streams from memory, in GB/s: a serial
/// dot-product read (rows of `cols` floats against one vector, the access
/// pattern of a matvec) over a buffer the size of the stories15M GEMM
/// weight set. The fastest of nine passes: neighbours on a shared host
/// only ever slow a pass down, so the fastest one is the steadiest
/// reading of what the host can do. The buffer is freed on return so that
/// it never adds to the peak RSS of the run it brackets.
fn host_stream_gb_s(bytes: usize) -> f64 {
    const COLS: usize = 288;
    let rows = bytes / 4 / COLS;
    let mut rng = Xoshiro256::seed_from_u64(1);
    let x = random_vec(&mut rng, COLS);
    // Written once so every page is resident before the first timed pass.
    let buf: Vec<f32> = (0..rows * COLS).map(|i| (i % 251) as f32 * 1e-3).collect();
    let mut fastest = f64::INFINITY;
    for _ in 0..9 {
        let t = Instant::now();
        let mut acc = 0.0f32;
        for row in buf.chunks_exact(COLS) {
            acc += ops::dot(row, &x);
        }
        black_box(acc);
        fastest = fastest.min(t.elapsed().as_secs_f64());
    }
    (rows * COLS * 4) as f64 / fastest / 1e9
}

/// The host-noise guard: [`host_stream_gb_s`] read before a run and again
/// after it.
pub struct HostProbe {
    bytes: usize,
    before_gb_s: f64,
}

impl HostProbe {
    /// Takes the opening reading. A `--smoke` run probes 1 MB, not the
    /// 60.75 MB of the stories15M weight set.
    #[must_use]
    pub fn open(smoke: bool) -> Self {
        let bytes = if smoke {
            1 << 20
        } else {
            ModelConfig::stories15m().gemm_weight_bytes()
        };
        Self {
            bytes,
            before_gb_s: host_stream_gb_s(bytes),
        }
    }

    /// Takes the closing reading.
    #[must_use]
    pub fn close(&self) -> HostReading {
        let after = host_stream_gb_s(self.bytes);
        HostReading {
            stream_gb_s: self.before_gb_s,
            drift: (after - self.before_gb_s).abs() / self.before_gb_s,
        }
    }
}

/// What the host could stream before a run, and how far that moved.
#[derive(Debug, Clone, Copy)]
pub struct HostReading {
    /// The opening reading, GB/s.
    pub stream_gb_s: f64,
    /// Relative difference of the closing reading.
    pub drift: f64,
}

impl HostReading {
    /// The `host.*` per-layer metrics.
    #[must_use]
    pub fn values(&self) -> [(&'static str, f64); 2] {
        [
            ("host.stream_gb_s", self.stream_gb_s),
            ("host.probe_drift", self.drift),
        ]
    }

    /// The same for the `aux` line, with the verdict: above the limit the
    /// host changed under the run, and its wall-clock rows say nothing
    /// about the code.
    #[must_use]
    pub fn aux(&self) -> [(&'static str, Json); 3] {
        [
            ("host.stream_gb_s", Json::Num(self.stream_gb_s)),
            ("host.probe_drift", Json::Num(self.drift)),
            ("unresolved", Json::Bool(self.drift > DRIFT_LIMIT)),
        ]
    }
}

/// `llama.*` probe results, in microseconds unless named otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct LlamaProbes {
    /// One `forward_with_kv` at position 64.
    pub forward_w1_us: f64,
    /// One `forward_batch_with_kv` over 8 sequences at position 64, per row.
    pub forward_w8_us_per_row: f64,
    /// The classifier matvec (vocab × dim).
    pub classifier_us: f64,
    /// The seven projections of every layer.
    pub layer_gemm_us: f64,
    /// Scores + softmax + mix over 128 cached positions, all heads and layers.
    pub attention_ctx128_us: f64,
    /// Every RMSNorm of one forward (two per layer and the final one).
    pub rmsnorm_us: f64,
    /// RoPE on q and k of every layer.
    pub rope_us: f64,
    /// One `Sampler::sample` over a vocabulary of logits.
    pub sampler_us: f64,
    /// GEMM weight bytes one token streams, in MB (computed, not measured).
    pub weight_mb_per_token: f64,
}

/// A matvec over either weight representation.
enum Mat<'a> {
    F32 {
        w: &'a [f32],
        rows: usize,
        cols: usize,
    },
    Quant(&'a QuantMatrix),
}

impl Mat<'_> {
    fn rows(&self) -> usize {
        match self {
            Mat::F32 { rows, .. } => *rows,
            Mat::Quant(q) => q.rows(),
        }
    }

    fn cols(&self) -> usize {
        match self {
            Mat::F32 { cols, .. } => *cols,
            Mat::Quant(q) => q.cols(),
        }
    }

    fn apply(&self, out: &mut [f32], x: &[f32]) {
        match self {
            Mat::F32 { w, rows, cols } => ops::matvec(out, w, x, *rows, *cols),
            Mat::Quant(q) => qmatvec(out, q, x),
        }
    }
}

/// Times the `llama` kernels at `spec`'s model and precision.
#[must_use]
pub fn llama_probes(spec: &ServeSpec) -> LlamaProbes {
    let c = spec.model;
    let weights = TransformerWeights::synthetic(c, WEIGHT_SEED);
    let quant = spec
        .quant
        .kind()
        .map(|kind| QuantWeights::quantize(&weights, kind));
    let mut rng = Xoshiro256::seed_from_u64(2);
    let (dim, kv_dim, hid) = (c.dim, c.kv_dim(), c.hidden_dim);
    let head_dim = c.head_dim();
    // Context the attention probe reads, and the position the forward
    // probes extend: the named sizes, shrunk to fit a smoke model.
    let ctx = 128.min(c.seq_len);
    let pos = 64.min(c.seq_len - 1);

    let filled_cache = |rng: &mut Xoshiro256| {
        let mut kv = KvCache::new(&c);
        for p in 0..ctx {
            for layer in 0..c.n_layers {
                kv.store(layer, p, &random_vec(rng, kv_dim), &random_vec(rng, kv_dim));
            }
        }
        kv
    };

    // Projections, in the order a forward applies them.
    let mats: Vec<Mat> = (0..c.n_layers)
        .flat_map(|l| {
            let lw = &weights.layers[l];
            match &quant {
                Some(q) => {
                    let ql = &q.layers[l];
                    [&ql.wq, &ql.wk, &ql.wv, &ql.wo, &ql.w1, &ql.w3, &ql.w2]
                        .map(Mat::Quant)
                        .into_iter()
                        .collect::<Vec<_>>()
                }
                None => vec![
                    Mat::F32 {
                        w: &lw.wq,
                        rows: dim,
                        cols: dim,
                    },
                    Mat::F32 {
                        w: &lw.wk,
                        rows: kv_dim,
                        cols: dim,
                    },
                    Mat::F32 {
                        w: &lw.wv,
                        rows: kv_dim,
                        cols: dim,
                    },
                    Mat::F32 {
                        w: &lw.wo,
                        rows: dim,
                        cols: dim,
                    },
                    Mat::F32 {
                        w: &lw.w1,
                        rows: hid,
                        cols: dim,
                    },
                    Mat::F32 {
                        w: &lw.w3,
                        rows: hid,
                        cols: dim,
                    },
                    Mat::F32 {
                        w: &lw.w2,
                        rows: dim,
                        cols: hid,
                    },
                ],
            }
        })
        .collect();
    let classifier = match &quant {
        Some(q) => Mat::Quant(&q.classifier),
        None => Mat::F32 {
            w: weights.classifier(),
            rows: c.vocab_size,
            cols: dim,
        },
    };

    let x_dim = random_vec(&mut rng, dim);
    let x_hid = random_vec(&mut rng, hid);
    let mut out = vec![0.0f32; c.vocab_size.max(hid)];
    let classifier_us = 1e6
        * seconds_per_call(1, || {
            classifier.apply(&mut out[..classifier.rows()], &x_dim);
            black_box(&out);
        });
    let layer_gemm_us = 1e6
        * seconds_per_call(1, || {
            for m in &mats {
                let x = if m.cols() == dim { &x_dim } else { &x_hid };
                m.apply(&mut out[..m.rows()], x);
            }
            black_box(&out);
        });

    let kv = filled_cache(&mut rng);
    let q = random_vec(&mut rng, dim);
    let mut scores = vec![0.0f32; c.seq_len];
    let mut mixed = vec![0.0f32; head_dim];
    let attention_ctx128_us = 1e6
        * seconds_per_call(1, || {
            for layer in 0..c.n_layers {
                for h in 0..c.n_heads {
                    let kvh = h / c.gqa_group();
                    let qh = &q[h * head_dim..(h + 1) * head_dim];
                    ops::attention_scores(&mut scores, qh, |t| kv.key_head(layer, t, kvh), ctx - 1);
                    ops::softmax(&mut scores[..ctx]);
                    ops::attention_mix(
                        &mut mixed,
                        &scores,
                        |t| kv.value_head(layer, t, kvh),
                        ctx - 1,
                    );
                    black_box(&mixed);
                }
            }
        });

    let mut normed = vec![0.0f32; dim];
    let rmsnorm_us = 1e6
        * seconds_per_call(64, || {
            for lw in &weights.layers {
                ops::rmsnorm(&mut normed, &x_dim, &lw.rms_att);
                ops::rmsnorm(&mut normed, &x_dim, &lw.rms_ffn);
            }
            ops::rmsnorm(&mut normed, &x_dim, &weights.rms_final);
            black_box(&normed);
        });
    let mut qk = random_vec(&mut rng, dim + kv_dim);
    let rope_us = 1e6
        * seconds_per_call(16, || {
            for _ in 0..c.n_layers {
                let (qv, kv_row) = qk.split_at_mut(dim);
                ops::rope_inplace(qv, pos, head_dim, ops::ROPE_THETA);
                ops::rope_inplace(kv_row, pos, head_dim, ops::ROPE_THETA);
            }
            black_box(&qk);
        });

    let logits = random_vec(&mut rng, c.vocab_size);
    let mut sampler = Sampler::new(spec.sampler, 1);
    let sampler_us = 1e6
        * seconds_per_call(1, || {
            black_box(sampler.sample(black_box(&logits)));
        });

    drop((mats, classifier));
    let mut model = Transformer::new(weights);
    model.set_quant_mode(spec.quant);
    let weight_mb_per_token = model.gemm_weight_bytes() as f64 / 1e6;
    let mut kv1 = filled_cache(&mut rng);
    let forward_w1_us = 1e6
        * seconds_per_call(1, || {
            black_box(model.forward_with_kv(&mut kv1, 5, pos));
        });
    let mut caches: Vec<KvCache> = (0..8).map(|_| filled_cache(&mut rng)).collect();
    let tokens = [5u32, 6, 7, 8, 9, 10, 11, 12];
    let positions = [pos; 8];
    let forward_w8_us_per_row = 1e6 / 8.0
        * seconds_per_call(1, || {
            let mut kvs: Vec<&mut KvCache> = caches.iter_mut().collect();
            black_box(model.forward_batch_with_kv(kvs.as_mut_slice(), &tokens, &positions));
        });

    LlamaProbes {
        forward_w1_us,
        forward_w8_us_per_row,
        classifier_us,
        layer_gemm_us,
        attention_ctx128_us,
        rmsnorm_us,
        rope_us,
        sampler_us,
        weight_mb_per_token,
    }
}

/// `pagedkv.*` probe results, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PagedProbes {
    /// One `BlockAllocator::alloc` + `release` pair.
    pub alloc_release_ns: f64,
    /// One `RadixIndex::longest_prefix_len` of a 48-token prompt whose
    /// whole blocks are cached.
    pub radix_lookup_ns: f64,
}

/// Times the block allocator and the radix index at `blocks`' geometry.
#[must_use]
pub fn paged_probes(blocks: BlockConfig, vocab: usize) -> PagedProbes {
    let mut alloc = BlockAllocator::new(blocks);
    let alloc_release_ns = 1e9
        * seconds_per_call(1024, || {
            let b = alloc.alloc().expect("the pool is never exhausted here");
            black_box(alloc.release(black_box(b)));
        });

    let mut rng = Xoshiro256::seed_from_u64(3);
    let prompt: Vec<u32> = (0..48)
        .map(|_| 3 + rng.below(vocab as u64 - 3) as u32)
        .collect();
    let chain: Vec<BlockId> = (0..prompt.len() / blocks.block_size)
        .map(|_| alloc.alloc().expect("the pool holds a 48-token prompt"))
        .collect();
    let mut radix = RadixIndex::new(blocks.block_size);
    radix.insert(&prompt, &chain, &mut alloc);
    let radix_lookup_ns = 1e9
        * seconds_per_call(1024, || {
            black_box(radix.longest_prefix_len(black_box(&prompt)));
        });
    PagedProbes {
        alloc_release_ns,
        radix_lookup_ns,
    }
}
