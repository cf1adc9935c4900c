//! The weights a forward pass reads: one immutable value with **one
//! representation per matrix**, shared by `Arc` between every model,
//! backend, engine and draft that runs the same checkpoint.
//!
//! [`TransformerWeights`] stays the checkpoint format. Consuming one at a
//! [`QuantMode`] moves every `Vec` and reorders each matrix in place: a
//! layer matrix into kernel order ([`ops::to_kernel_order`]), the order
//! the f32 GEMM streams it, and a vocab table into split order
//! (`crate::vocab`), whose high halves a greedy step screens alone. A
//! quantized mode then replaces each GEMM operand by its [`QuantMatrix`],
//! freeing the f32 matrix before the next is touched. Norm gains and the
//! embedding table always stay f32: only what streams through the matmul
//! kernels is quantized, and the embedding gather must stay a bit-exact
//! row copy.

use std::sync::Arc;

use crate::config::ModelConfig;
use crate::ops::{self, KernelRow};
use crate::quant::{QuantKind, QuantMatrix, QuantMode};
use crate::vocab::VocabTable;
use crate::weights::{LayerWeights, TransformerWeights};

/// One GEMM operand, in the one form the kernels read it.
#[derive(Debug, PartialEq)]
pub(crate) enum Operand {
    /// f32 in kernel order ([`ops::to_kernel_order`]), streamed by
    /// [`ops::tiled_matmul_rows_xt`].
    F32(Vec<f32>),
    /// An f32 vocab table in split order, streamed whole by
    /// `ops::split_gemm` or screened by a greedy step.
    Vocab(VocabTable),
    /// Group-quantized, streamed by the fused dequant-GEMM kernels in
    /// [`crate::qgemm`].
    Quant(QuantMatrix),
}

impl Operand {
    /// Takes over a row-major `rows × cols` checkpoint matrix, reordered in
    /// place into kernel order: same buffer, same length.
    fn f32(mut w: Vec<f32>, rows: usize, cols: usize) -> Self {
        ops::to_kernel_order(&mut w, rows, cols);
        Self::F32(w)
    }

    /// Takes over a row-major `rows × cols` vocab table, re-laid in place
    /// in split order.
    fn vocab(w: Vec<f32>, rows: usize, cols: usize) -> Self {
        Self::Vocab(VocabTable::new(w, rows, cols))
    }

    /// Row `r` of an f32 operand, read in place.
    fn row(&self, cols: usize, r: usize) -> KernelRow<'_> {
        match self {
            Self::F32(w) => ops::kernel_order_row(w, cols, r),
            Self::Vocab(v) => v.row(r),
            Self::Quant(_) => unreachable!("quantized rows are not read back"),
        }
    }

    fn quantized(&self, rows: usize, cols: usize, kind: QuantKind) -> Self {
        Self::Quant(QuantMatrix::quantize_rows(rows, cols, kind, |r, out| {
            self.row(cols, r).copy_to(out);
        }))
    }

    /// Bytes one GEMM over this operand streams (group padding excluded).
    fn stream_bytes(&self) -> usize {
        match self {
            Self::F32(w) => w.len() * 4,
            Self::Vocab(v) => v.words().len() * 4,
            Self::Quant(q) => q.bytes(),
        }
    }

    /// Heap bytes this operand's weights own.
    fn resident_bytes(&self) -> usize {
        match self {
            Self::F32(w) => w.capacity() * 4,
            Self::Vocab(v) => v.resident_bytes(),
            Self::Quant(q) => q.storage_bytes(),
        }
    }
}

/// One transformer layer: the f32 norm gains and the seven GEMM operands
/// of a [`LayerWeights`], shaped as there.
#[derive(Debug, PartialEq)]
pub(crate) struct ResidentLayer {
    pub(crate) rms_att: Vec<f32>,
    pub(crate) wq: Operand,
    pub(crate) wk: Operand,
    pub(crate) wv: Operand,
    pub(crate) wo: Operand,
    pub(crate) rms_ffn: Vec<f32>,
    pub(crate) w1: Operand,
    pub(crate) w2: Operand,
    pub(crate) w3: Operand,
}

impl ResidentLayer {
    fn from_f32(l: LayerWeights, c: &ModelConfig) -> Self {
        let (dim, kv_dim, hid) = (c.dim, c.kv_dim(), c.hidden_dim);
        Self {
            rms_att: l.rms_att,
            wq: Operand::f32(l.wq, dim, dim),
            wk: Operand::f32(l.wk, kv_dim, dim),
            wv: Operand::f32(l.wv, kv_dim, dim),
            wo: Operand::f32(l.wo, dim, dim),
            rms_ffn: l.rms_ffn,
            w1: Operand::f32(l.w1, hid, dim),
            w2: Operand::f32(l.w2, dim, hid),
            w3: Operand::f32(l.w3, hid, dim),
        }
    }

    fn operands(&self) -> [&Operand; 7] {
        [
            &self.wq, &self.wk, &self.wv, &self.wo, &self.w1, &self.w2, &self.w3,
        ]
    }

    /// Replaces each f32 operand by its quantized form; assigning drops
    /// the f32 matrix before the next one is touched.
    fn quantize(&mut self, c: &ModelConfig, kind: QuantKind) {
        let (dim, kv_dim, hid) = (c.dim, c.kv_dim(), c.hidden_dim);
        self.wq = self.wq.quantized(dim, dim, kind);
        self.wk = self.wk.quantized(kv_dim, dim, kind);
        self.wv = self.wv.quantized(kv_dim, dim, kind);
        self.wo = self.wo.quantized(dim, dim, kind);
        self.w1 = self.w1.quantized(hid, dim, kind);
        self.w2 = self.w2.quantized(dim, hid, kind);
        self.w3 = self.w3.quantized(hid, dim, kind);
    }
}

/// Every weight of one model at one precision. Immutable once shared:
/// build it, wrap it in an `Arc`, and hand clones of the `Arc` to whatever
/// runs the model. Deliberately not `Clone` — a second resident copy is
/// what this type exists to prevent.
#[derive(Debug, PartialEq)]
pub struct ResidentWeights {
    config: ModelConfig,
    mode: QuantMode,
    /// Token embedding table `[vocab, dim]` — always [`Operand::Vocab`]; an
    /// operand because the tied f32 classifier is this very matrix.
    embedding: Operand,
    pub(crate) layers: Vec<ResidentLayer>,
    pub(crate) rms_final: Vec<f32>,
    /// The classifier when it is a matrix of its own (untied, or
    /// quantized); `None` reads the embedding table.
    classifier: Option<Operand>,
}

impl ResidentWeights {
    /// Consumes a checkpoint at `mode`: moves every layer matrix into
    /// kernel order and every vocab table into split order, then
    /// quantizes-then-frees matrix by matrix for a quantized mode.
    #[must_use]
    pub fn new(w: TransformerWeights, mode: QuantMode) -> Self {
        let c = w.config;
        let mut out = Self {
            config: c,
            mode: QuantMode::F32,
            embedding: Operand::vocab(w.token_embedding, c.vocab_size, c.dim),
            layers: w
                .layers
                .into_iter()
                .map(|l| ResidentLayer::from_f32(l, &c))
                .collect(),
            rms_final: w.rms_final,
            classifier: w.wcls.map(|m| Operand::vocab(m, c.vocab_size, c.dim)),
        };
        out.quantize(mode);
        out
    }

    /// Quantizes the f32 weights behind `this` in place to `mode`; a no-op
    /// at the current mode.
    ///
    /// # Panics
    /// Panics when the weights are already quantized to another mode —
    /// their f32 operands were freed then, so build a new value from the
    /// checkpoint — and when another holder shares them: build them at
    /// the wanted mode before sharing.
    pub fn set_mode(this: &mut Arc<Self>, mode: QuantMode) {
        if this.mode == mode {
            return;
        }
        assert!(
            this.mode == QuantMode::F32 && mode != QuantMode::F32,
            "weights are resident as {} and their f32 operands were freed: \
             rebuild them from the checkpoint to get {}",
            this.mode.name(),
            mode.name()
        );
        Arc::get_mut(this)
            .unwrap_or_else(|| panic!("shared weights cannot change to {}", mode.name()))
            .quantize(mode);
    }

    /// Layers go first: the tied classifier adds a matrix without freeing
    /// one, so it is built when the layers' f32 operands are gone.
    fn quantize(&mut self, mode: QuantMode) {
        let Some(kind) = mode.kind() else { return };
        let c = self.config;
        for layer in &mut self.layers {
            layer.quantize(&c, kind);
        }
        let f32_classifier = self.classifier();
        self.classifier = Some(f32_classifier.quantized(c.vocab_size, c.dim, kind));
        self.mode = mode;
    }

    /// The architecture config.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The precision of every GEMM operand.
    #[must_use]
    pub fn mode(&self) -> QuantMode {
        self.mode
    }

    /// The embedding row for `token`, read in place from the split table.
    pub(crate) fn embedding_row(&self, token: usize) -> KernelRow<'_> {
        self.embedding.row(self.config.dim, token)
    }

    /// The classifier operand, `vocab × dim`: its own matrix, or the
    /// embedding table when tied and f32.
    pub(crate) fn classifier(&self) -> &Operand {
        self.classifier.as_ref().unwrap_or(&self.embedding)
    }

    /// Bytes one forward call streams through the GEMM kernels when every
    /// projection is read once — `config.gemm_weight_bytes()` for f32, the
    /// compressed stream otherwise. What `cpu.gemm_weight_bytes` counts.
    #[must_use]
    pub fn gemm_weight_bytes(&self) -> usize {
        let layers = self.layers.iter().flat_map(ResidentLayer::operands);
        let operands = layers.chain([self.classifier()]);
        operands.map(Operand::stream_bytes).sum()
    }

    /// Heap bytes this value owns, computed from its buffers' capacities:
    /// the embedding table, the norm gains and every operand's storage.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        let gains = |l: &ResidentLayer| l.rms_att.capacity() + l.rms_ffn.capacity();
        let norms = self.layers.iter().map(gains).sum::<usize>() + self.rms_final.capacity();
        let layers = self.layers.iter().flat_map(ResidentLayer::operands);
        let operands = layers.chain([&self.embedding]).chain(&self.classifier);
        operands.map(Operand::resident_bytes).sum::<usize>() + norms * 4
    }
}

/// What an engine can be built from: resident weights to share, or a
/// checkpoint to consume. `mode` is the precision the engine runs at.
pub trait IntoResident {
    /// The resident weights at `mode`.
    ///
    /// # Panics
    /// Panics where [`ResidentWeights::set_mode`] does.
    fn into_resident(self, mode: QuantMode) -> Arc<ResidentWeights>;
}

impl IntoResident for Arc<ResidentWeights> {
    fn into_resident(mut self, mode: QuantMode) -> Arc<ResidentWeights> {
        ResidentWeights::set_mode(&mut self, mode);
        self
    }
}

impl IntoResident for TransformerWeights {
    fn into_resident(self, mode: QuantMode) -> Arc<ResidentWeights> {
        Arc::new(ResidentWeights::new(self, mode))
    }
}

/// A checkpoint behind an `Arc` is consumed when this is its last holder
/// and **copied** otherwise: build the resident weights once and share
/// those instead.
impl IntoResident for Arc<TransformerWeights> {
    fn into_resident(self, mode: QuantMode) -> Arc<ResidentWeights> {
        Arc::unwrap_or_clone(self).into_resident(mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QuantWeights;

    fn checkpoint(shared_classifier: bool) -> TransformerWeights {
        let config = ModelConfig {
            shared_classifier,
            ..ModelConfig::test_tiny()
        };
        TransformerWeights::synthetic(config, 3)
    }

    #[test]
    fn the_f32_build_moves_every_tensor() {
        let w = checkpoint(true);
        let (embedding, wq0, w2_last) = (
            w.token_embedding.as_ptr(),
            w.layers[0].wq.as_ptr(),
            w.layers.last().unwrap().w2.as_ptr(),
        );
        let (params, stream) = (w.param_count(), w.config.gemm_weight_bytes());
        let r = ResidentWeights::new(w, QuantMode::F32);
        assert_eq!(r.embedding_row(0).as_ptr(), embedding);
        let Operand::Vocab(classifier) = r.classifier() else {
            panic!("the f32 classifier is a split vocab table")
        };
        assert_eq!(classifier.words().as_ptr(), embedding, "tied: one table");
        let [Operand::F32(wq), .., Operand::F32(w2), _] = r.layers[0].operands() else {
            panic!("f32 weights hold f32 operands")
        };
        assert_eq!(wq.as_ptr(), wq0);
        assert_eq!(w2.len(), r.config().dim * r.config().hidden_dim);
        let Operand::F32(w2) = &r.layers.last().unwrap().w2 else {
            panic!("f32 weights hold f32 operands")
        };
        assert_eq!(w2.as_ptr(), w2_last);
        assert_eq!(r.resident_bytes(), params * 4);
        assert_eq!(r.gemm_weight_bytes(), stream);
    }

    /// Every f32 matrix is the checkpoint's, reordered in its own buffer:
    /// each row read back from kernel order (layers) or split order (the
    /// vocab tables) is the checkpoint row — including `test_tiny`'s
    /// 44-row FFN matrices, whose last 4 rows are a row-major tail — and
    /// the embedding gather returns it.
    #[test]
    fn the_f32_build_interleaves_every_matrix_in_place() {
        for shared_classifier in [true, false] {
            let w = checkpoint(shared_classifier);
            let reference = w.clone();
            let c = w.config;
            let (dim, kv_dim, hid) = (c.dim, c.kv_dim(), c.hidden_dim);
            let ptrs = |l: &LayerWeights| {
                [&l.wq, &l.wk, &l.wv, &l.wo, &l.w1, &l.w2, &l.w3].map(|m| m.as_ptr())
            };
            let layer_ptrs: Vec<_> = w.layers.iter().map(ptrs).collect();
            let (table, wcls) = (w.token_embedding.as_ptr(), w.wcls.as_ref().map(Vec::as_ptr));
            let params = w.param_count();
            let r = ResidentWeights::new(w, QuantMode::F32);
            assert_eq!(r.resident_bytes(), params * 4);

            let read_back = |got: &Operand, want: &[f32], rows: usize, cols: usize| {
                let words = match got {
                    Operand::F32(w) => w,
                    Operand::Vocab(v) => v.words(),
                    Operand::Quant(_) => panic!("f32 weights hold f32 operands"),
                };
                assert_eq!(words.len(), rows * cols);
                for row in 0..rows {
                    let checkpoint_row = &want[row * cols..(row + 1) * cols];
                    assert_eq!(got.row(cols, row), checkpoint_row);
                }
                words.as_ptr()
            };
            let shapes = [
                (dim, dim),
                (kv_dim, dim),
                (kv_dim, dim),
                (dim, dim),
                (hid, dim),
                (dim, hid),
                (hid, dim),
            ];
            for ((layer, want), ptrs) in r.layers.iter().zip(&reference.layers).zip(&layer_ptrs) {
                let want = [
                    &want.wq, &want.wk, &want.wv, &want.wo, &want.w1, &want.w2, &want.w3,
                ];
                for (((got, want), (rows, cols)), &ptr) in
                    layer.operands().into_iter().zip(want).zip(shapes).zip(ptrs)
                {
                    assert!(matches!(got, Operand::F32(_)), "layers are in kernel order");
                    assert_eq!(read_back(got, want, rows, cols), ptr);
                }
            }
            for vocab in [&r.embedding, r.classifier()] {
                assert!(matches!(vocab, Operand::Vocab(_)), "vocab tables are split");
            }
            assert_eq!(
                read_back(&r.embedding, &reference.token_embedding, c.vocab_size, dim),
                table
            );
            let classifier = read_back(r.classifier(), reference.classifier(), c.vocab_size, dim);
            assert_eq!(classifier, wcls.unwrap_or(table));
            for token in 0..c.vocab_size {
                let want = &reference.token_embedding[token * dim..(token + 1) * dim];
                let mut gathered = vec![f32::NAN; dim];
                r.embedding_row(token).copy_to(&mut gathered);
                assert_eq!(gathered, want, "token {token}");
            }
        }
    }

    #[test]
    fn a_quantized_build_owns_no_f32_gemm_operand() {
        for shared_classifier in [true, false] {
            let f32_bytes = ResidentWeights::new(checkpoint(shared_classifier), QuantMode::F32)
                .resident_bytes();
            let mut last = f32_bytes;
            for (mode, kind) in [
                (QuantMode::Int8, QuantKind::Int8),
                (QuantMode::Int4, QuantKind::Int4),
            ] {
                let w = checkpoint(shared_classifier);
                let by_reference = QuantWeights::quantize(&w, kind);
                let small = (w.token_embedding.len()
                    + w.rms_final.len()
                    + w.layers
                        .iter()
                        .map(|l| l.rms_att.len() + l.rms_ffn.len())
                        .sum::<usize>())
                    * 4;
                let r = ResidentWeights::new(w, mode);
                assert_eq!(r.mode(), mode);

                // Every operand is the matrix a by-reference quantization
                // builds, and none is f32.
                let mut storage = 0;
                for (layer, q) in r.layers.iter().zip(&by_reference.layers) {
                    let want = [&q.wq, &q.wk, &q.wv, &q.wo, &q.w1, &q.w2, &q.w3];
                    for (got, want) in layer.operands().into_iter().zip(want) {
                        let Operand::Quant(got) = got else {
                            panic!("an f32 layer operand survived the {mode:?} build")
                        };
                        assert_eq!(got, want);
                        storage += got.storage_bytes();
                    }
                }
                let Operand::Quant(classifier) = r.classifier() else {
                    panic!("the f32 classifier survived the {mode:?} build")
                };
                assert_eq!(classifier, &by_reference.classifier);
                storage += classifier.storage_bytes();

                assert_eq!(r.resident_bytes(), small + storage);
                assert_eq!(r.gemm_weight_bytes(), by_reference.gemm_weight_bytes());
                assert!(
                    r.resident_bytes() < last,
                    "{mode:?} must be smaller: {} vs {last} (f32 {f32_bytes})",
                    r.resident_bytes()
                );
                last = r.resident_bytes();
            }
        }
    }

    #[test]
    fn a_shared_checkpoint_is_copied_and_a_sole_one_consumed() {
        let sole = Arc::new(checkpoint(true));
        let table = sole.token_embedding.as_ptr();
        let r = sole.into_resident(QuantMode::F32);
        assert_eq!(r.embedding_row(0).as_ptr(), table);

        let shared = Arc::new(checkpoint(true));
        let r = Arc::clone(&shared).into_resident(QuantMode::Int8);
        assert_ne!(r.embedding_row(0).as_ptr(), shared.token_embedding.as_ptr());
        let dim = shared.config.dim;
        assert_eq!(
            r.embedding_row(7),
            &shared.token_embedding[7 * dim..8 * dim]
        );

        // Resident weights pass through untouched at their own mode.
        let again = Arc::clone(&r).into_resident(QuantMode::Int8);
        assert!(Arc::ptr_eq(&r, &again));
    }
}
