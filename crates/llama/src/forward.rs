//! Reference transformer forward pass (the CPU implementation of
//! llama2.c's `forward()`), used both as the correctness oracle for the
//! simulated accelerator and as the CPU baseline in examples.
//!
//! There is one layer walk, [`Transformer::forward_runs`]; a decode step,
//! a batched decode tick, a prefill chunk, a mixed tick and a speculative
//! verify are run shapes of it (DESIGN.md §13), bit-identical to feeding
//! the same tokens one one-row call at a time.

use std::ops::Range;
use std::sync::{Arc, PoisonError, RwLock};

use speedllm_telemetry as tel;

use crate::config::ModelConfig;
use crate::cores::{self, Cores, Gemm, Items};
use crate::kv_cache::{KvBatch, KvCache};
use crate::ops;
use crate::quant::QuantMode;
use crate::resident::{Operand, ResidentWeights};
use crate::weights::TransformerWeights;

/// Which token rows of a runs call the classifier scores. The caller's
/// verb decides, never a user: decode, prefill and mixed ticks observe only
/// each run's last row; speculative verification scores every row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogitRows {
    /// Each sequence's **last** run row, sequence-major: sequence `i`'s
    /// logits are `out[i * vocab..(i + 1) * vocab]`. Intermediate prefill
    /// rows are never classified, which cannot change an observed value.
    Last,
    /// **Every** row, row-major: `out[r * vocab..(r + 1) * vocab]` is the
    /// distribution after row `r` of `tokens`.
    All,
    /// **No** row: the pass only extends the KV stores, for a token whose
    /// logits nobody samples (the last of a generation budget). The final
    /// norm and the classifier GEMM are skipped and `out` is empty.
    None,
    /// The rows of [`LogitRows::Last`], for a caller that only takes
    /// their `sampler::argmax`: over an f32 vocab table each row holds the
    /// exact logit of every token that could be the argmax and −∞
    /// elsewhere, so its argmax — first-index ties included — and the
    /// winning value are the `Last` row's, bit for bit. A screen over
    /// the table's high halves finds those tokens (`crate::vocab`).
    /// Quantized classifiers score full `Last` rows.
    Greedy,
}

impl LogitRows {
    /// How many of a `count`-row run's rows — its trailing ones — are
    /// scored.
    #[must_use]
    pub fn of_run(self, count: usize) -> usize {
        match self {
            Self::Last | Self::Greedy => 1,
            Self::All => count,
            Self::None => 0,
        }
    }

    /// Splits a runs call's `logits` into one entry per run of `counts`:
    /// that run's scored rows, row-major over `vocab`.
    #[must_use]
    pub fn split(self, logits: &[f32], counts: &[usize], vocab: usize) -> Vec<Vec<f32>> {
        let mut rest = logits;
        counts
            .iter()
            .map(|&cnt| {
                let (scored, tail) = rest.split_at(self.of_run(cnt) * vocab);
                rest = tail;
                scored.to_vec()
            })
            .collect()
    }
}

/// Scratch buffers of the layer walk (what llama2.c keeps per token, one copy
/// per token row), token-row-major: row `r` of an `[rows * width]` buffer is
/// `[r * width..(r + 1) * width]`, so every per-token kernel (rmsnorm,
/// RoPE, attention, swiglu) runs on the same operands whatever else shares
/// the pass. A *row* is one token of one sequence: a decode
/// step contributes one row, a prefill chunk contributes one row per
/// chunk token, and rows of the same sequence are contiguous and
/// position-ordered. Only the GEMM staging buffer is row-major in the
/// [`cores::Gemm::run`] output sense (`[out_rows][batch]`); its contents are
/// scattered back to token-row-major immediately after each matmul.
///
/// A model allocates one on its first pass and grows it to the widest
/// pass since.
#[derive(Debug, Clone)]
struct BatchState {
    /// Allocated row capacity; buffers are sized for this many token rows.
    capacity: usize,
    /// Residual streams, `[capacity * dim]`.
    x: Vec<f32>,
    /// Normed input / attention output scratch, `[capacity * dim]`.
    xb: Vec<f32>,
    /// Projection results, `[capacity * dim]`.
    xb2: Vec<f32>,
    /// FFN gate activations, `[capacity * hidden_dim]`.
    hb: Vec<f32>,
    /// FFN up activations, `[capacity * hidden_dim]`.
    hb2: Vec<f32>,
    /// Query vectors, `[capacity * dim]`.
    q: Vec<f32>,
    /// Key scratch, `[capacity * kv_dim]`.
    k: Vec<f32>,
    /// Value scratch, `[capacity * kv_dim]`.
    v: Vec<f32>,
    /// The caller's attention scores for one head of one row ([`Heads`]),
    /// `[seq_len]`.
    att: Vec<f32>,
    /// Output logits, `[capacity * vocab_size]`, one vector per scored
    /// row (see [`LogitRows`]).
    logits: Vec<f32>,
    /// Row-major GEMM staging, `[max(dim, hidden_dim, vocab) * capacity]`.
    gemm: Vec<f32>,
    /// A GEMM's activations transposed batch-major, `[max(dim, hidden_dim)
    /// * capacity]`.
    xt: Vec<f32>,
    /// RoPE rotations of the context window. It depends on the config
    /// alone, so a state regrown for more rows takes it over.
    rope: ops::RopeTable,
    /// The GEMM helper's activations and output ([`cores::with_cores`]).
    helper: cores::Buffers,
}

impl BatchState {
    /// Buffers for `capacity` rows; `rope` is the table a smaller state
    /// already built, if any.
    fn new(c: &ModelConfig, capacity: usize, rope: Option<ops::RopeTable>) -> Self {
        let widest = c.dim.max(c.hidden_dim).max(c.vocab_size);
        Self {
            capacity,
            x: vec![0.0; capacity * c.dim],
            xb: vec![0.0; capacity * c.dim],
            xb2: vec![0.0; capacity * c.dim],
            hb: vec![0.0; capacity * c.hidden_dim],
            hb2: vec![0.0; capacity * c.hidden_dim],
            q: vec![0.0; capacity * c.dim],
            k: vec![0.0; capacity * c.kv_dim()],
            v: vec![0.0; capacity * c.kv_dim()],
            att: vec![0.0; c.seq_len],
            logits: vec![0.0; capacity * c.vocab_size],
            gemm: vec![0.0; capacity * widest],
            xt: vec![0.0; capacity * c.dim.max(c.hidden_dim)],
            rope: rope
                .unwrap_or_else(|| ops::RopeTable::new(c.seq_len, c.head_dim(), ops::ROPE_THETA)),
            helper: cores::Buffers::default(),
        }
    }
}

/// Scatters a row-major GEMM result (`src[r * batch + b]`, the
/// [`cores::Gemm::run`] output layout) into sequence-major scratch
/// (`dst[b * rows + r]`). Pure data movement — `O(rows × batch)` against
/// the `O(rows × cols)` weight stream it unlocks — and therefore neutral
/// to bit-identity.
pub(crate) fn scatter_to_seq(dst: &mut [f32], src: &[f32], rows: usize, batch: usize) {
    debug_assert_eq!(dst.len(), rows * batch);
    debug_assert_eq!(src.len(), rows * batch);
    for (b, seq) in dst.chunks_exact_mut(rows).enumerate() {
        for (r, o) in seq.iter_mut().enumerate() {
            *o = src[r * batch + b];
        }
    }
}

/// The walk's helper scope and the two scratch buffers every dense
/// projection goes through, so a walk allocates nothing per GEMM.
struct Gemms<'c, 's, 'w> {
    cores: &'c mut Cores<'s, 'w>,
    /// Row-major staging ([`BatchState::gemm`]).
    gemm: &'c mut [f32],
    /// Batch-major activations ([`BatchState::xt`]).
    xt: &'c mut [f32],
}

impl<'w> Gemms<'_, '_, 'w> {
    /// One dense projection over all `batch` token rows: the activations
    /// transposed batch-major into `xt`, a GEMM on `cores` into the
    /// row-major staging buffer, scattered back to token-row-major `dst`.
    /// Every element is one accumulator in [`ops::dot`]'s order (f32), or
    /// its fused-dequant twin in [`crate::qgemm`].
    fn project(
        &mut self,
        dst: &mut [f32],
        w: &'w Operand,
        xs: &[f32],
        rows: usize,
        cols: usize,
        batch: usize,
    ) {
        let out = &mut self.gemm[..rows * batch];
        let xt = &mut self.xt[..cols * batch];
        ops::transpose_batch_major_into(xt, xs, cols, batch);
        let gemm = match w {
            Operand::F32(w) => Gemm::KernelOrder(w, cols),
            Operand::Vocab(v) => v.exact(),
            Operand::Quant(q) => Gemm::Quant(q),
        };
        self.cores.run(gemm, out, xt, 0..rows, batch);
        scatter_to_seq(&mut dst[..batch * rows], out, rows, batch);
    }
}

/// One layer's multi-head attention as [`cores::Items`]: item `i` is head
/// `i % n_heads` of row `i / n_heads % rows` in layer `i / per_layer`,
/// reading that row's query head from the input and writing that head's
/// `head_dim` floats of `xb`. Each item runs the unchanged scores →
/// softmax → mix over keys `0..=pos` of its own sequence, which every row
/// has stored before any item runs, so a head's values do not depend on
/// the thread that computes them.
struct Heads<'a, B: ?Sized> {
    kv: &'a RwLock<&'a mut B>,
    row_seq: &'a [usize],
    row_pos: &'a [usize],
    /// Items of one layer: rows × heads.
    per_layer: usize,
    n_heads: usize,
    head_dim: usize,
    gqa: usize,
}

impl<B: KvBatch + Send + Sync + ?Sized> Items for Heads<'_, B> {
    fn width(&self) -> usize {
        self.head_dim
    }

    fn run(&self, items: Range<usize>, q: &[f32], out: &mut [f32], att: &mut Vec<f32>) {
        let kv = self.kv.read().unwrap_or_else(PoisonError::into_inner);
        let hd = self.head_dim;
        for (i, out) in items.zip(out.chunks_exact_mut(hd)) {
            // `rh`: the item within its layer, row-major over heads.
            let (layer, rh) = (i / self.per_layer, i % self.per_layer);
            let (r, kv_head) = (rh / self.n_heads, rh % self.n_heads / self.gqa);
            let (b, pos) = (self.row_seq[r], self.row_pos[r]);
            // Causal mask inside a mixed tick: row `r` scores positions
            // `0..=pos` of its own sequence only — later run rows are
            // invisible by construction.
            if att.len() <= pos {
                att.resize(pos + 1, 0.0);
            }
            let att = &mut att[..=pos];
            let q = &q[rh * hd..(rh + 1) * hd];
            ops::attention_scores(att, q, |t| kv.key_head(b, layer, t, kv_head), pos);
            ops::softmax(att);
            ops::attention_mix(out, att, |t| kv.value_head(b, layer, t, kv_head), pos);
        }
    }
}

/// A transformer: its weights and the layer walk's scratch. It owns no
/// sequence — every pass reads and extends KV stores its caller owns.
pub struct Transformer {
    /// Shared with whatever else runs this model at this precision.
    weights: Arc<ResidentWeights>,
    /// Layer-walk scratch, allocated on the first forward call and grown
    /// to the largest row count seen since.
    batch: Option<BatchState>,
}

impl Transformer {
    /// Takes over loaded or synthetic weights, as f32.
    #[must_use]
    pub fn new(weights: TransformerWeights) -> Self {
        Self::with_weights(Arc::new(ResidentWeights::new(weights, QuantMode::F32)))
    }

    /// A model over weights that are already resident, at their precision:
    /// replicas, drafts and engines of one checkpoint clone the `Arc`.
    #[must_use]
    pub fn with_weights(weights: Arc<ResidentWeights>) -> Self {
        Self {
            weights,
            batch: None,
        }
    }

    /// Quantizes the model's f32 weights in place to `mode`
    /// (deterministically — same weights, same payload), freeing each f32
    /// GEMM operand as its compressed form is built; every forward entry
    /// point then streams that through the fused dequant-GEMM kernels.
    /// A no-op at the current mode.
    ///
    /// # Panics
    /// Panics where [`ResidentWeights::set_mode`] does: when the model is
    /// already quantized to another mode (the f32 operands are gone —
    /// build a second model from the checkpoint), and when its weights are
    /// shared with another holder.
    pub fn set_quant_mode(&mut self, mode: QuantMode) {
        ResidentWeights::set_mode(&mut self.weights, mode);
    }

    /// The active weight precision.
    #[must_use]
    pub fn quant_mode(&self) -> QuantMode {
        self.weights.mode()
    }

    /// Bytes one GEMM tick streams under the active weight precision —
    /// what the `cpu.gemm_weight_bytes` telemetry adds per forward call.
    #[must_use]
    pub fn gemm_weight_bytes(&self) -> usize {
        self.weights.gemm_weight_bytes()
    }

    /// The architecture config.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        self.weights.config()
    }

    /// Shared handle to the weights.
    #[must_use]
    pub fn weights(&self) -> &Arc<ResidentWeights> {
        &self.weights
    }

    /// Runs one decode step: processes `token` at position `pos` of the
    /// sequence `kv` holds and returns the logits over the vocabulary —
    /// the one-row run of [`Transformer::forward_runs`].
    ///
    /// # Panics
    /// Panics if `pos` is outside the context window or past `kv`'s
    /// length, `token` is out of vocabulary, or `kv` was not sized for
    /// this model's config.
    pub fn forward_with_kv(&mut self, kv: &mut KvCache, token: u32, pos: usize) -> &[f32] {
        self.forward_runs([kv].as_mut_slice(), &[token], &[1], &[pos], LogitRows::Last)
    }

    /// Runs one decode step for a whole **batch** of independent sequences:
    /// `tokens[i]` extends sequence `i` (whose context lives at index `i`
    /// of `kv`) at `positions[i]`. The `counts = [1; n]` call of
    /// [`Transformer::forward_runs`]; returns the logits sequence-major.
    ///
    /// # Panics
    /// Panics on an empty batch or mismatched `tokens`/`positions` lengths,
    /// and wherever [`Transformer::forward_runs`] does.
    pub fn forward_batch_with_kv<B: KvBatch + Send + Sync + ?Sized>(
        &mut self,
        kv: &mut B,
        tokens: &[u32],
        positions: &[usize],
    ) -> &[f32] {
        let n = tokens.len();
        assert!(n >= 1, "empty batch");
        assert_eq!(n, positions.len(), "one position per token");
        self.forward_runs(kv, tokens, &vec![1; n], positions, LogitRows::Last)
    }

    /// **The** forward pass: one walk over the layers carries a variable
    /// number of tokens per sequence. Sequence `i` contributes the *run*
    /// of `counts[i]` consecutive tokens starting at `starts[i]` (its rows
    /// are the corresponding slice of `tokens`, which concatenates all
    /// runs in sequence order). A decode step is a run of length 1, a
    /// prefill chunk a run of its chunk length, a speculative verify a run
    /// scored with [`LogitRows::All`]; a tick may mix them (Sarathi-style
    /// unified batching, DESIGN.md §14).
    ///
    /// The point is **weight reuse**: every dense projection is one GEMM
    /// over all token rows, so each weight matrix is streamed from memory
    /// once per call instead of once per token. Decode is bandwidth-bound,
    /// which is why serve throughput scales with the rows a tick carries.
    ///
    /// **Bit-identical** to feeding the same tokens one one-row call at a
    /// time: every dense projection computes each element with the same
    /// `dot` over the same operands, the per-row kernels (rmsnorm, RoPE,
    /// attention, SwiGLU) run on row slices no other row touches, and
    /// attention is causally exact within a run — all K/V rows of a layer
    /// are stored before any row attends, and a row at position `p` reads
    /// keys `0..=p` only, which by the run's contiguity are exactly the
    /// rows the one-row calls would have cached. Layer-major order cannot
    /// change any value because a token's QKV inputs depend on earlier
    /// tokens only through attention in *previous* layers.
    ///
    /// # Panics
    /// Panics on an empty batch, an empty run, mismatched
    /// `tokens`/`counts`/`starts`/batch lengths, a position outside the
    /// context window, an out-of-vocab token, a run starting past its
    /// store's length, or a store sized for a different context window.
    pub fn forward_runs<B: KvBatch + Send + Sync + ?Sized>(
        &mut self,
        kv: &mut B,
        tokens: &[u32],
        counts: &[usize],
        starts: &[usize],
        logit_rows: LogitRows,
    ) -> &[f32] {
        let (weights, scratch) = (&*self.weights, &mut self.batch);
        let c = *weights.config();
        let rows = tokens.len();
        let n_seqs = counts.len();
        let dim = c.dim;
        let kv_dim = c.kv_dim();
        let head_dim = c.head_dim();
        let gqa = c.gqa_group();
        let hid = c.hidden_dim;

        assert!(n_seqs >= 1, "empty batch");
        assert_eq!(n_seqs, starts.len(), "one start position per sequence");
        assert_eq!(n_seqs, kv.batch_len(), "one KV store per sequence");
        assert_eq!(
            rows,
            counts.iter().sum::<usize>(),
            "token rows must match run counts"
        );
        for (i, &cnt) in counts.iter().enumerate() {
            assert!(cnt >= 1, "empty run for sequence {i}");
            assert_eq!(
                kv.kv_capacity(i),
                c.seq_len,
                "kv store {i} sized for a different context window"
            );
        }

        // Row maps: which sequence each token row extends, at which
        // position. Rows of one run are contiguous and position-ordered,
        // which is what makes in-run attention causally exact.
        let mut row_seq = Vec::with_capacity(rows);
        let mut row_pos = Vec::with_capacity(rows);
        for (i, (&cnt, &start)) in counts.iter().zip(starts).enumerate() {
            for off in 0..cnt {
                row_seq.push(i);
                row_pos.push(start + off);
            }
        }
        for (&tok, &pos) in tokens.iter().zip(&row_pos) {
            assert!(
                pos < c.seq_len,
                "pos {pos} outside context window {}",
                c.seq_len
            );
            assert!((tok as usize) < c.vocab_size, "token {tok} out of vocab");
        }
        // A run may re-write stored positions, never skip unstored ones:
        // attention would read the rows in between, which belong to no
        // one (or to a previous tenant of the store).
        for (i, &start) in starts.iter().enumerate() {
            let len = kv.kv_len(i);
            assert!(
                start <= len,
                "run {i} starts at {start}, past its {len} stored positions"
            );
        }

        if scratch.as_ref().is_none_or(|b| b.capacity < rows) {
            let rope = scratch.take().map(|b| b.rope);
            *scratch = Some(BatchState::new(&c, rows, rope));
        }
        let bs = scratch.as_mut().expect("scratch just ensured");

        let _fwd = tel::span("cpu", "forward")
            .arg("batch", n_seqs as i64)
            .arg("rows", rows as i64);
        if tel::enabled() {
            // One call streams the GEMM weights once for all `rows`
            // tokens (decode + prefill alike); `gemm_weight_bytes /
            // gemm_tokens` is bytes-per-token. Quantized weights report the
            // compressed stream.
            tel::metrics::counter_add("cpu.gemm_weight_bytes", weights.gemm_weight_bytes() as u64);
            tel::metrics::counter_add("cpu.gemm_tokens", rows as u64);
            tel::metrics::gauge_set("cpu.gemm_batch_width", rows as f64);
        }

        // The KV batch behind a lock: the caller stores through it, and
        // attention items read it on either core (`Heads`). Only a store
        // that panics can poison it, and that panic ends the walk.
        let kv = RwLock::new(kv);
        let heads = Heads {
            kv: &kv,
            row_seq: &row_seq,
            row_pos: &row_pos,
            per_layer: rows * c.n_heads,
            n_heads: c.n_heads,
            head_dim,
            gqa,
        };
        // A layer's attention multiply-adds: scores and mix, `pos + 1`
        // keys of every head of every row.
        let mha_work = row_pos.iter().map(|&p| 2 * (p + 1) * dim).sum();

        // The walk, in one scope with a helper thread (`crate::cores`).
        let scored = cores::with_cores(&mut bs.helper, rows * c.param_count(), |cores| {
            let mut gemms = Gemms {
                cores,
                gemm: &mut bs.gemm,
                xt: &mut bs.xt,
            };

            // Gather: token embeddings -> per-row residual streams.
            for (r, &tok) in tokens.iter().enumerate() {
                weights
                    .embedding_row(tok as usize)
                    .copy_to(&mut bs.x[r * dim..(r + 1) * dim]);
            }

            for layer in 0..c.n_layers {
                let lw = &weights.layers[layer];

                // ---- Attention block ----
                {
                    let _att = tel::span("cpu", "attention").arg("layer", layer as i64);
                    for r in 0..rows {
                        ops::rmsnorm(
                            &mut bs.xb[r * dim..(r + 1) * dim],
                            &bs.x[r * dim..(r + 1) * dim],
                            &lw.rms_att,
                        );
                    }
                    {
                        let _qkv = tel::span("cpu", "qkv").arg("layer", layer as i64);
                        gemms.project(&mut bs.q, &lw.wq, &bs.xb[..rows * dim], dim, dim, rows);
                        gemms.project(&mut bs.k, &lw.wk, &bs.xb[..rows * dim], kv_dim, dim, rows);
                        gemms.project(&mut bs.v, &lw.wv, &bs.xb[..rows * dim], kv_dim, dim, rows);
                    }

                    // RoPE + KV store for every row **before** any row
                    // attends: a prefill row at position p then finds all
                    // same-run keys `<= p` already cached, exactly as the
                    // one-row calls would have left them. The write lock
                    // is released before any attention item reads.
                    let mut store = kv.write().unwrap_or_else(PoisonError::into_inner);
                    for r in 0..rows {
                        let pos = row_pos[r];
                        bs.rope.apply(&mut bs.q[r * dim..(r + 1) * dim], pos);
                        bs.rope.apply(&mut bs.k[r * kv_dim..(r + 1) * kv_dim], pos);
                        store.store(
                            row_seq[r],
                            layer,
                            pos,
                            &bs.k[r * kv_dim..(r + 1) * kv_dim],
                            &bs.v[r * kv_dim..(r + 1) * kv_dim],
                        );
                    }
                    drop(store);

                    {
                        let _mha = tel::span("cpu", "mha").arg("layer", layer as i64);
                        let (q, out) = (&bs.q[..rows * dim], &mut bs.xb[..rows * dim]);
                        let items = layer * heads.per_layer..(layer + 1) * heads.per_layer;
                        gemms
                            .cores
                            .items(&heads, out, q, items, mha_work, &mut bs.att);
                    }

                    gemms.project(&mut bs.xb2, &lw.wo, &bs.xb[..rows * dim], dim, dim, rows);
                    for r in 0..rows {
                        ops::add_inplace(
                            &mut bs.x[r * dim..(r + 1) * dim],
                            &bs.xb2[r * dim..(r + 1) * dim],
                        );
                    }
                }

                // ---- FFN block (SwiGLU) ----
                {
                    let _ffn = tel::span("cpu", "ffn").arg("layer", layer as i64);
                    for r in 0..rows {
                        ops::rmsnorm(
                            &mut bs.xb[r * dim..(r + 1) * dim],
                            &bs.x[r * dim..(r + 1) * dim],
                            &lw.rms_ffn,
                        );
                    }
                    gemms.project(&mut bs.hb, &lw.w1, &bs.xb[..rows * dim], hid, dim, rows);
                    gemms.project(&mut bs.hb2, &lw.w3, &bs.xb[..rows * dim], hid, dim, rows);
                    for r in 0..rows {
                        ops::swiglu(
                            &mut bs.hb[r * hid..(r + 1) * hid],
                            &bs.hb2[r * hid..(r + 1) * hid],
                        );
                    }
                    gemms.project(&mut bs.xb2, &lw.w2, &bs.hb[..rows * hid], dim, hid, rows);
                    for r in 0..rows {
                        ops::add_inplace(
                            &mut bs.x[r * dim..(r + 1) * dim],
                            &bs.xb2[r * dim..(r + 1) * dim],
                        );
                    }
                }
            }

            // Final norm + classifier over the scored rows: every row for
            // speculative verification, none for a step nobody samples,
            // otherwise each sequence's last (intermediate prefill logits are
            // never observed). The scored rows are compacted into `xb` so the
            // classifier is one GEMM streaming the weight matrix once; each
            // row's values match a one-row call bit for bit because rmsnorm
            // and that row's GEMM column see exactly its operands.
            let mut scored = Vec::with_capacity(rows);
            let mut end = 0usize;
            for &cnt in counts {
                end += cnt;
                scored.extend(end - logit_rows.of_run(cnt)..end);
            }
            let n = scored.len();
            if n == 0 {
                return 0;
            }
            let greedy = match (logit_rows, weights.classifier()) {
                (LogitRows::Greedy, Operand::Vocab(table)) => Some(table),
                _ => None,
            };
            let _cls = tel::span("cpu", "classifier")
                .arg("batch", n as i64)
                .arg("greedy", i64::from(greedy.is_some()));
            for (i, &r) in scored.iter().enumerate() {
                ops::rmsnorm_inplace(&mut bs.x[r * dim..(r + 1) * dim], &weights.rms_final);
                bs.xb[i * dim..(i + 1) * dim].copy_from_slice(&bs.x[r * dim..(r + 1) * dim]);
            }
            let logits = &mut bs.logits[..n * c.vocab_size];
            if let Some(table) = greedy {
                let xs = &bs.xb[..n * dim];
                let counts = table.greedy(logits, xs, gemms.xt, gemms.gemm, gemms.cores);
                if tel::enabled() {
                    tel::metrics::counter_add("cpu.greedy_rows", counts.rows as u64);
                    tel::metrics::counter_add("cpu.greedy_candidates", counts.candidates as u64);
                    tel::metrics::counter_add("cpu.greedy_fallbacks", counts.fallbacks as u64);
                }
            } else {
                let xs = &bs.xb[..n * dim];
                gemms.project(logits, weights.classifier(), xs, c.vocab_size, dim, n);
            }
            n * c.vocab_size
        });
        &bs.logits[..scored]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::TransformerWeights;

    // The identity tests here compare run shapes of the one walk — an
    // N-row call against N one-row calls ("sequential") through an
    // `oracle` model — not one implementation against another.

    fn model() -> Transformer {
        Transformer::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42))
    }

    /// An empty cache for `t`'s sequences.
    fn cache(t: &Transformer) -> KvCache {
        KvCache::new(t.config())
    }

    #[test]
    fn forward_produces_finite_logits() {
        let mut t = model();
        let logits = t.forward_with_kv(&mut cache(&t), 5, 0);
        assert_eq!(logits.len(), 64);
        assert!(logits.iter().all(|x| x.is_finite()));
        assert!(logits.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn forward_is_deterministic() {
        let (mut a, mut b) = (model(), model());
        let (mut ka, mut kb) = (cache(&a), cache(&b));
        for pos in 0..4 {
            let la = a.forward_with_kv(&mut ka, pos as u32 + 1, pos).to_vec();
            let lb = b.forward_with_kv(&mut kb, pos as u32 + 1, pos).to_vec();
            assert_eq!(la, lb);
        }
    }

    #[test]
    fn logits_depend_on_history() {
        // Same token at pos 1 after different pos-0 tokens must differ.
        let mut t = model();
        let (mut ka, mut kb) = (cache(&t), cache(&t));
        t.forward_with_kv(&mut ka, 1, 0);
        t.forward_with_kv(&mut kb, 2, 0);
        let la = t.forward_with_kv(&mut ka, 3, 1).to_vec();
        let lb = t.forward_with_kv(&mut kb, 3, 1).to_vec();
        assert_ne!(la, lb);
    }

    #[test]
    fn reset_restores_initial_behavior() {
        let mut t = model();
        let mut kv = cache(&t);
        let first = t.forward_with_kv(&mut kv, 7, 0).to_vec();
        t.forward_with_kv(&mut kv, 9, 1);
        kv.reset();
        let again = t.forward_with_kv(&mut kv, 7, 0).to_vec();
        assert_eq!(first, again);
    }

    #[test]
    fn batched_forward_is_bit_identical_to_sequential() {
        let cfg = ModelConfig::test_tiny();
        for n in [1usize, 2, 5] {
            let weights = TransformerWeights::synthetic(cfg, 7);
            let mut batched = Transformer::new(weights.clone());
            let mut oracle = Transformer::new(weights);

            let mut kvs_b: Vec<KvCache> = (0..n).map(|_| KvCache::new(&cfg)).collect();
            let mut kvs_s: Vec<KvCache> = (0..n).map(|_| KvCache::new(&cfg)).collect();
            // Stagger contexts so the batch composition is heterogeneous.
            for (i, kv) in kvs_s.iter_mut().enumerate() {
                for p in 0..i {
                    oracle.forward_with_kv(kv, (i + p) as u32 % 64, p);
                }
            }
            for (i, kv) in kvs_b.iter_mut().enumerate() {
                for p in 0..i {
                    oracle.forward_with_kv(kv, (i + p) as u32 % 64, p);
                }
            }

            for step in 0..3 {
                let tokens: Vec<u32> = (0..n).map(|i| ((7 * i + step) % 64) as u32).collect();
                let positions: Vec<usize> = kvs_b.iter().map(KvCache::len).collect();
                let mut refs: Vec<&mut KvCache> = kvs_b.iter_mut().collect();
                let got = batched
                    .forward_batch_with_kv(refs.as_mut_slice(), &tokens, &positions)
                    .to_vec();
                for (i, kv) in kvs_s.iter_mut().enumerate() {
                    let want = oracle.forward_with_kv(kv, tokens[i], positions[i]);
                    assert_eq!(
                        &got[i * cfg.vocab_size..(i + 1) * cfg.vocab_size],
                        want,
                        "batch {n} seq {i} step {step} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn quantized_batched_forward_is_bit_identical_to_sequential() {
        let cfg = ModelConfig::test_tiny();
        for mode in [QuantMode::Int8, QuantMode::Int4] {
            for n in [1usize, 3, 5] {
                let weights = TransformerWeights::synthetic(cfg, 7);
                let mut batched = Transformer::new(weights.clone());
                batched.set_quant_mode(mode);
                let mut oracle = Transformer::new(weights);
                oracle.set_quant_mode(mode);
                assert_eq!(oracle.quant_mode(), mode);

                let mut kvs_b: Vec<KvCache> = (0..n).map(|_| KvCache::new(&cfg)).collect();
                let mut kvs_s: Vec<KvCache> = (0..n).map(|_| KvCache::new(&cfg)).collect();
                for step in 0..3 {
                    let tokens: Vec<u32> = (0..n).map(|i| ((7 * i + step) % 64) as u32).collect();
                    let positions: Vec<usize> = kvs_b.iter().map(KvCache::len).collect();
                    let mut refs: Vec<&mut KvCache> = kvs_b.iter_mut().collect();
                    let got = batched
                        .forward_batch_with_kv(refs.as_mut_slice(), &tokens, &positions)
                        .to_vec();
                    for (i, kv) in kvs_s.iter_mut().enumerate() {
                        let want = oracle.forward_with_kv(kv, tokens[i], positions[i]);
                        assert_eq!(
                            &got[i * cfg.vocab_size..(i + 1) * cfg.vocab_size],
                            want,
                            "{mode:?} batch {n} seq {i} step {step} diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quantized_logits_stay_close_to_f32() {
        let cfg = ModelConfig::test_tiny();
        let weights = TransformerWeights::synthetic(cfg, 11);
        let mut exact = Transformer::new(weights.clone());
        let mut quant = Transformer::new(weights);
        quant.set_quant_mode(QuantMode::Int8);
        let (mut ke, mut kq) = (cache(&exact), cache(&quant));
        for pos in 0..4 {
            let want = exact
                .forward_with_kv(&mut ke, (pos as u32 * 3) % 64, pos)
                .to_vec();
            let got = quant
                .forward_with_kv(&mut kq, (pos as u32 * 3) % 64, pos)
                .to_vec();
            let max_err = want
                .iter()
                .zip(&got)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_err < 0.5, "int8 logits drifted {max_err} at pos {pos}");
            assert_ne!(want, got, "quantization must actually perturb values");
        }
        // Re-selecting the current mode is a no-op on both.
        quant.set_quant_mode(QuantMode::Int8);
        exact.set_quant_mode(QuantMode::F32);
        assert_eq!(quant.quant_mode(), QuantMode::Int8);
        // Quantizing freed the f32 GEMM operands: the model is smaller, and
        // a second model built at int8 holds the very same bytes.
        assert!(quant.weights().resident_bytes() < exact.weights().resident_bytes());
        let rebuilt = ResidentWeights::new(TransformerWeights::synthetic(cfg, 11), QuantMode::Int8);
        assert_eq!(**quant.weights(), rebuilt);
    }

    /// The f32 operands are freed when a model is quantized, so there is
    /// nothing to switch back to: a loud panic, never empty matrices.
    #[test]
    #[should_panic(expected = "f32 operands were freed")]
    fn a_quantized_model_cannot_switch_precision() {
        let mut quant = model();
        quant.set_quant_mode(QuantMode::Int8);
        quant.set_quant_mode(QuantMode::F32);
    }

    #[test]
    #[should_panic(expected = "shared weights cannot change")]
    fn shared_weights_cannot_be_quantized_under_another_holder() {
        let mut a = model();
        let _b = Transformer::with_weights(Arc::clone(a.weights()));
        a.set_quant_mode(QuantMode::Int4);
    }

    #[test]
    fn models_over_one_arc_agree_and_allocate_nothing_twice() {
        let mut a = model();
        a.set_quant_mode(QuantMode::Int8);
        let mut b = Transformer::with_weights(Arc::clone(a.weights()));
        assert!(Arc::ptr_eq(a.weights(), b.weights()));
        let want = a.forward_with_kv(&mut cache(&a), 5, 0).to_vec();
        assert_eq!(b.forward_with_kv(&mut cache(&b), 5, 0), &want[..]);
    }

    #[test]
    fn mixed_runs_are_bit_identical_to_sequential() {
        let cfg = ModelConfig::test_tiny();
        // Each case: per-sequence (context already cached, run length).
        // Mixes decode rows (count 1) with prefill chunks (count > 1),
        // including a chunk continuing a non-empty context.
        for case in [
            vec![(0usize, 4usize)],       // pure prefill, one seq
            vec![(3, 1), (0, 4)],         // decode + cold prefill
            vec![(2, 1), (1, 3), (4, 1)], // decode, chunk, decode
            vec![(0, 2), (2, 2)],         // two chunks, one warm
            vec![(1, 1), (2, 1), (3, 1)], // pure decode (regression)
        ] {
            let weights = TransformerWeights::synthetic(cfg, 7);
            let mut mixed = Transformer::new(weights.clone());
            let mut oracle = Transformer::new(weights);

            let n = case.len();
            let mut kvs_m: Vec<KvCache> = (0..n).map(|_| KvCache::new(&cfg)).collect();
            let mut kvs_s: Vec<KvCache> = (0..n).map(|_| KvCache::new(&cfg)).collect();
            for (i, &(ctx, _)) in case.iter().enumerate() {
                for p in 0..ctx {
                    let tok = ((5 * i + p) % 64) as u32;
                    oracle.forward_with_kv(&mut kvs_s[i], tok, p);
                    oracle.forward_with_kv(&mut kvs_m[i], tok, p);
                }
            }

            let mut tokens = Vec::new();
            let mut counts = Vec::new();
            let mut starts = Vec::new();
            for (i, &(ctx, run)) in case.iter().enumerate() {
                counts.push(run);
                starts.push(ctx);
                for off in 0..run {
                    tokens.push(((11 * i + 3 * off + 1) % 64) as u32);
                }
            }

            let mut refs: Vec<&mut KvCache> = kvs_m.iter_mut().collect();
            let got = mixed
                .forward_runs(
                    refs.as_mut_slice(),
                    &tokens,
                    &counts,
                    &starts,
                    LogitRows::Last,
                )
                .to_vec();

            // Oracle: feed each sequence's run token-by-token; only the
            // last logits of each run are observable.
            let mut row = 0usize;
            for (i, &(ctx, run)) in case.iter().enumerate() {
                let mut want = Vec::new();
                for off in 0..run {
                    want = oracle
                        .forward_with_kv(&mut kvs_s[i], tokens[row], ctx + off)
                        .to_vec();
                    row += 1;
                }
                assert_eq!(
                    &got[i * cfg.vocab_size..(i + 1) * cfg.vocab_size],
                    &want[..],
                    "case {case:?} seq {i} diverged"
                );
                // KV contents must match too: decode again and compare.
                let probe = ((i + 9) % 64) as u32;
                let pos = ctx + run;
                let m = mixed.forward_with_kv(&mut kvs_m[i], probe, pos).to_vec();
                let s = oracle.forward_with_kv(&mut kvs_s[i], probe, pos);
                assert_eq!(&m[..], s, "case {case:?} seq {i} KV diverged");
            }
        }
    }

    #[test]
    fn all_logits_rows_match_sequential_decode() {
        let cfg = ModelConfig::test_tiny();
        for case in [
            vec![(0usize, 4usize)],
            vec![(3, 1), (0, 4)],
            vec![(2, 2), (1, 3)],
        ] {
            let weights = TransformerWeights::synthetic(cfg, 7);
            let mut mixed = Transformer::new(weights.clone());
            let mut oracle = Transformer::new(weights);

            let n = case.len();
            let mut kvs_m: Vec<KvCache> = (0..n).map(|_| KvCache::new(&cfg)).collect();
            let mut kvs_s: Vec<KvCache> = (0..n).map(|_| KvCache::new(&cfg)).collect();
            for (i, &(ctx, _)) in case.iter().enumerate() {
                for p in 0..ctx {
                    let tok = ((5 * i + p) % 64) as u32;
                    oracle.forward_with_kv(&mut kvs_s[i], tok, p);
                    oracle.forward_with_kv(&mut kvs_m[i], tok, p);
                }
            }

            let mut tokens = Vec::new();
            let mut counts = Vec::new();
            let mut starts = Vec::new();
            for (i, &(ctx, run)) in case.iter().enumerate() {
                counts.push(run);
                starts.push(ctx);
                for off in 0..run {
                    tokens.push(((11 * i + 3 * off + 1) % 64) as u32);
                }
            }

            let mut refs: Vec<&mut KvCache> = kvs_m.iter_mut().collect();
            let got = mixed
                .forward_runs(
                    refs.as_mut_slice(),
                    &tokens,
                    &counts,
                    &starts,
                    LogitRows::All,
                )
                .to_vec();
            assert_eq!(got.len(), tokens.len() * cfg.vocab_size);

            // Every row's logits must match the sequential decode of
            // that prefix — this is what makes speculative
            // verification exact rather than approximate.
            let mut row = 0usize;
            for (i, &(ctx, run)) in case.iter().enumerate() {
                for off in 0..run {
                    let want = oracle.forward_with_kv(&mut kvs_s[i], tokens[row], ctx + off);
                    assert_eq!(
                        &got[row * cfg.vocab_size..(row + 1) * cfg.vocab_size],
                        want,
                        "case {case:?} seq {i} row {off} diverged"
                    );
                    row += 1;
                }
            }
        }
    }

    /// A pass that scores no row returns no logits and leaves every KV
    /// row, and so the next call's logits, as a scored pass does.
    /// Greedy rows over a pass of three runs keep each `Last` row's argmax
    /// and winning value bit for bit, every other value they keep is the
    /// `Last` value, and the rest is −∞; over a quantized classifier they
    /// are the full `Last` rows.
    #[test]
    fn greedy_rows_keep_the_argmax_of_the_last_rows() {
        use crate::sampler::argmax;
        let cfg = ModelConfig {
            vocab_size: 512,
            ..ModelConfig::test_tiny()
        };
        let (tokens, counts, starts) = ([5u32, 6, 7, 9, 300, 2], [3usize, 1, 2], [0usize; 3]);
        for mode in [QuantMode::F32, QuantMode::Int8] {
            let weights = ResidentWeights::new(TransformerWeights::synthetic(cfg, 11), mode);
            let mut t = Transformer::with_weights(Arc::new(weights));
            let [last, greedy] = [LogitRows::Last, LogitRows::Greedy].map(|rows| {
                let mut kv = [0; 3].map(|_| KvCache::new(&cfg));
                let mut kv = kv.each_mut();
                t.forward_runs(kv.as_mut_slice(), &tokens, &counts, &starts, rows)
                    .to_vec()
            });
            assert_eq!(greedy.len(), 3 * cfg.vocab_size);
            let vocab = cfg.vocab_size;
            for (g, l) in greedy.chunks_exact(vocab).zip(last.chunks_exact(vocab)) {
                let best = argmax(l) as usize;
                assert_eq!(argmax(g) as usize, best, "{mode:?}");
                assert_eq!(g[best].to_bits(), l[best].to_bits(), "{mode:?}");
                let kept = g.iter().zip(l).filter(|&(&g, &l)| {
                    assert!(g.to_bits() == l.to_bits() || g == f32::NEG_INFINITY);
                    g.to_bits() == l.to_bits()
                });
                let kept = kept.count();
                if mode == QuantMode::F32 {
                    assert!(kept < vocab / 8, "the screen kept {kept} of {vocab}");
                } else {
                    assert_eq!(kept, vocab, "a quantized classifier scores full rows");
                }
            }
        }
    }

    #[test]
    fn an_unscored_pass_extends_the_kv_like_a_scored_one() {
        let cfg = ModelConfig::test_tiny();
        let mut t = model();
        let (tokens, counts, starts) = ([5u32, 6, 7, 9], [3usize, 1], [0usize, 0]);
        let [mut scored, mut unscored] = [0, 1].map(|_| [KvCache::new(&cfg), KvCache::new(&cfg)]);
        let logits = t
            .forward_runs(
                scored.each_mut().as_mut_slice(),
                &tokens,
                &counts,
                &starts,
                LogitRows::Last,
            )
            .len();
        assert_eq!(logits, 2 * cfg.vocab_size);
        let none = t.forward_runs(
            unscored.each_mut().as_mut_slice(),
            &tokens,
            &counts,
            &starts,
            LogitRows::None,
        );
        assert!(none.is_empty());
        for (a, b) in scored.iter().zip(&unscored) {
            assert_eq!(a.len(), b.len());
            for layer in 0..cfg.n_layers {
                for pos in 0..a.len() {
                    assert_eq!(a.key_row(layer, pos), b.key_row(layer, pos));
                    assert_eq!(a.value_row(layer, pos), b.value_row(layer, pos));
                }
            }
        }
        for (a, b) in scored.iter_mut().zip(&mut unscored) {
            let pos = a.len();
            let want = t.forward_with_kv(a, 11, pos).to_vec();
            assert_eq!(t.forward_with_kv(b, 11, pos), &want[..]);
        }
    }

    /// A run may not skip unstored positions: on a just-reset cache the
    /// rows a run at position 2 would attend to are the previous tenant's.
    #[test]
    #[should_panic(expected = "run 0 starts at 2, past its 0 stored positions")]
    fn a_run_past_the_stored_length_panics() {
        let mut t = model();
        let mut kv = KvCache::new(t.config());
        for pos in 0..4 {
            t.forward_with_kv(&mut kv, 1, pos);
        }
        kv.reset();
        t.forward_with_kv(&mut kv, 5, 2);
    }

    #[test]
    #[should_panic(expected = "token rows must match run counts")]
    fn mismatched_run_counts_panic() {
        let cfg = ModelConfig::test_tiny();
        let mut t = model();
        let mut kv = KvCache::new(&cfg);
        let mut refs = [&mut kv];
        t.forward_runs(refs.as_mut_slice(), &[1, 2, 3], &[2], &[0], LogitRows::Last);
    }

    #[test]
    fn batch_scratch_grows_and_shrinks_transparently() {
        let cfg = ModelConfig::test_tiny();
        let mut t = model();
        let mut oracle = model();
        // Wide batch first, then a narrower one reusing the larger scratch.
        for n in [4usize, 2, 6, 1] {
            let mut kvs: Vec<KvCache> = (0..n).map(|_| KvCache::new(&cfg)).collect();
            let tokens: Vec<u32> = (0..n as u32).map(|i| 3 + i).collect();
            let positions = vec![0usize; n];
            let mut refs: Vec<&mut KvCache> = kvs.iter_mut().collect();
            let got = t
                .forward_batch_with_kv(refs.as_mut_slice(), &tokens, &positions)
                .to_vec();
            for (i, &tok) in tokens.iter().enumerate() {
                let mut kv = KvCache::new(&cfg);
                let want = oracle.forward_with_kv(&mut kv, tok, 0);
                assert_eq!(&got[i * cfg.vocab_size..(i + 1) * cfg.vocab_size], want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let mut t = model();
        let mut refs: Vec<&mut KvCache> = Vec::new();
        t.forward_batch_with_kv(refs.as_mut_slice(), &[], &[]);
    }

    #[test]
    #[should_panic(expected = "outside context window")]
    fn pos_overflow_panics() {
        let mut t = model();
        t.forward_with_kv(&mut cache(&t), 0, 32);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn bad_token_panics() {
        let mut t = model();
        t.forward_with_kv(&mut cache(&t), 64, 0);
    }

    #[test]
    fn context_len_advances() {
        let mut t = model();
        let mut kv = cache(&t);
        assert_eq!(kv.len(), 0);
        t.forward_with_kv(&mut kv, 1, 0);
        assert_eq!(kv.len(), 1);
        t.forward_with_kv(&mut kv, 2, 1);
        assert_eq!(kv.len(), 2);
    }
}
