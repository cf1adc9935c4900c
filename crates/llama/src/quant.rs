//! Group-wise weight quantization: Q8_0 (int8) and Q4_0 (packed int4).
//!
//! The paper motivates FPGAs partly by their native support for
//! mixed-precision arithmetic; the accelerator's MPE has int8/int4 modes
//! and the serve decode hot path is HBM weight traffic. This module
//! provides the reference formats backing both:
//!
//! - **Q8_0** — groups of [`GROUP`] weights share one `f32` scale, each
//!   weight stored as a signed byte (`w ≈ scale · q`), identical to
//!   llama2.c's quantized runtime.
//! - **Q4_0** — same group-scale layout with weights narrowed to 4 bits,
//!   two per byte (`q ∈ [-7, 7]`, stored biased by +8 so a packed nibble
//!   is always a valid unsigned value).
//!
//! [`QuantMatrix`] stores a matrix tile-interleaved — in the order the
//! fused dequant-GEMM kernel in [`crate::qgemm`] consumes it, so the
//! kernel never reshuffles. A model holds its operands in
//! [`crate::resident::ResidentWeights`], which quantizes a checkpoint
//! matrix by matrix as it consumes it; [`QuantWeights`] quantizes one by
//! reference, beside it, for probes and tests that want both.

use crate::ops::ROW_TILE;
use crate::weights::TransformerWeights;

/// Number of weights sharing a scale factor.
pub const GROUP: usize = 32;

/// Bias added to an int4 value before nibble packing (`q + 8 ∈ [0, 15]`).
pub const INT4_BIAS: i8 = 8;

/// Storage kind of a quantized weight payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantKind {
    /// 8-bit signed weights, one byte per element.
    Int8,
    /// 4-bit weights packed two per byte, biased by [`INT4_BIAS`].
    Int4,
}

impl QuantKind {
    /// Bits per stored weight element.
    #[must_use]
    pub fn bits(self) -> usize {
        match self {
            Self::Int8 => 8,
            Self::Int4 => 4,
        }
    }

    /// Payload bytes of one full [`GROUP`]-wide group.
    #[must_use]
    pub fn group_bytes(self) -> usize {
        GROUP * self.bits() / 8
    }

    /// Largest representable magnitude (`scale = absmax / max_q`).
    #[must_use]
    pub fn max_q(self) -> f32 {
        match self {
            Self::Int8 => 127.0,
            Self::Int4 => 7.0,
        }
    }

    /// Lower-case display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Int8 => "int8",
            Self::Int4 => "int4",
        }
    }
}

/// Serve-facing weight precision selection: full precision or one of the
/// quantized kinds. This is what `--quant f32|int8|int4` parses into.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QuantMode {
    /// Stream the original f32 weights (the pre-quantization hot path).
    #[default]
    F32,
    /// Q8_0 group-quantized weights.
    Int8,
    /// Q4_0 nibble-packed weights.
    Int4,
}

impl QuantMode {
    /// Parses `"f32" | "int8" | "int4"`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" | "fp32" => Some(Self::F32),
            "int8" | "i8" => Some(Self::Int8),
            "int4" | "i4" => Some(Self::Int4),
            _ => None,
        }
    }

    /// Lower-case display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::F32 => "f32",
            Self::Int8 => "int8",
            Self::Int4 => "int4",
        }
    }

    /// The quantized storage kind, if any.
    #[must_use]
    pub fn kind(self) -> Option<QuantKind> {
        match self {
            Self::F32 => None,
            Self::Int8 => Some(QuantKind::Int8),
            Self::Int4 => Some(QuantKind::Int4),
        }
    }
}

/// Packs int4 values (`q ∈ [-8, 7]`) two per byte: even index in the low
/// nibble, odd index in the high nibble, each biased by [`INT4_BIAS`]. An
/// odd-length slice pads the final high nibble with a biased zero.
#[must_use]
pub fn pack_nibbles(vals: &[i8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len().div_ceil(2));
    for pair in vals.chunks(2) {
        debug_assert!((-8..=7).contains(&pair[0]));
        let lo = (pair[0] + INT4_BIAS) as u8;
        let hi = if pair.len() == 2 {
            debug_assert!((-8..=7).contains(&pair[1]));
            (pair[1] + INT4_BIAS) as u8
        } else {
            INT4_BIAS as u8
        };
        out.push(lo | (hi << 4));
    }
    out
}

/// Inverse of [`pack_nibbles`]: recovers `len` signed int4 values.
#[must_use]
pub fn unpack_nibbles(bytes: &[u8], len: usize) -> Vec<i8> {
    assert!(bytes.len() * 2 >= len, "short nibble payload");
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let b = bytes[i / 2];
        let nib = if i % 2 == 0 { b & 0x0F } else { b >> 4 };
        out.push(nib as i8 - INT4_BIAS);
    }
    out
}

/// A Q8_0-quantized tensor: `q.len() == groups * GROUP`,
/// `scales.len() == groups`. Trailing partial groups are zero-padded.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    /// Signed 8-bit quantized values.
    pub q: Vec<i8>,
    /// One scale per [`GROUP`]-wide group.
    pub scales: Vec<f32>,
    /// Logical (unpadded) element count.
    pub len: usize,
}

impl QuantTensor {
    /// Quantizes `data` with symmetric per-group absmax scaling.
    #[must_use]
    pub fn quantize(data: &[f32]) -> Self {
        let groups = data.len().div_ceil(GROUP);
        let mut q = vec![0i8; groups * GROUP];
        let mut scales = vec![0.0f32; groups];
        for (g, scale_slot) in scales.iter_mut().enumerate() {
            let start = g * GROUP;
            let end = (start + GROUP).min(data.len());
            let chunk = &data[start..end];
            let absmax = chunk.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let scale = if absmax == 0.0 { 0.0 } else { absmax / 127.0 };
            *scale_slot = scale;
            if scale > 0.0 {
                for (i, &x) in chunk.iter().enumerate() {
                    q[start + i] = (x / scale).round().clamp(-127.0, 127.0) as i8;
                }
            }
        }
        Self {
            q,
            scales,
            len: data.len(),
        }
    }

    /// Reconstructs the `f32` values (padding excluded).
    #[must_use]
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.len);
        for (i, &qv) in self.q.iter().take(self.len).enumerate() {
            out.push(qv as f32 * self.scales[i / GROUP]);
        }
        out
    }

    /// Worst-case absolute reconstruction error bound: half a quantization
    /// step per group (`scale / 2`), maximized over groups.
    #[must_use]
    pub fn error_bound(&self) -> f32 {
        self.scales.iter().fold(0.0f32, |m, &s| m.max(s)) * 0.5
    }

    /// Payload bytes (int8 values + f32 scales) — what the accelerator
    /// streams from HBM in int8 mode.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.q.len() + self.scales.len() * 4
    }
}

/// A group-quantized matrix, tile-interleaved in kernel order.
///
/// Rows are quantized independently, `groups_per_row =
/// cols.div_ceil(GROUP)` groups each, and stored by tiles of [`ROW_TILE`]
/// rows. Tile `t`, group `g` is block `t * groups_per_row + g`: its
/// [`ROW_TILE`] scales sit together, and its quants go column by column,
/// each column's [`ROW_TILE`] rows adjacent — one vector load per column
/// for the kernel. Partial trailing groups are padded to [`GROUP`] columns
/// with zero quants and the last tile to [`ROW_TILE`] rows with zero
/// scales; neither padding ever reaches an output.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    kind: QuantKind,
    rows: usize,
    cols: usize,
    groups_per_row: usize,
    /// Per block, `ROW_TILE * kind.group_bytes()` bytes. Int8: byte
    /// `c * ROW_TILE + i` is row `i`, column `c`. Int4: byte
    /// `(c / 2) * ROW_TILE + i` holds row `i`'s columns `c` (low nibble)
    /// and `c + 1` (high nibble), the [`pack_nibbles`] convention.
    data: Vec<u8>,
    /// Per block, `ROW_TILE` scales: `scales[block * ROW_TILE + i]`.
    scales: Vec<f32>,
}

/// Columns `2p` and `2p + 1` of one block, dequantized: `out[k][i] =
/// q[i, 2p + k] as f32 * scales[i]` for the tile's [`ROW_TILE`] rows. The
/// one place the payload encoding is read; two columns a call because
/// that is what one int4 vector load holds.
#[inline(always)]
pub(crate) fn dequant_column_pair(
    kind: QuantKind,
    scales: &[f32; ROW_TILE],
    quants: &[u8],
    p: usize,
) -> [[f32; ROW_TILE]; 2] {
    let mut out = [[0.0f32; ROW_TILE]; 2];
    match kind {
        QuantKind::Int8 => {
            let q = &quants[2 * p * ROW_TILE..][..2 * ROW_TILE];
            for i in 0..ROW_TILE {
                out[0][i] = (q[i] as i8) as f32 * scales[i];
            }
            for i in 0..ROW_TILE {
                out[1][i] = (q[ROW_TILE + i] as i8) as f32 * scales[i];
            }
        }
        QuantKind::Int4 => {
            let q = &quants[p * ROW_TILE..][..ROW_TILE];
            for i in 0..ROW_TILE {
                out[0][i] = ((q[i] & 0x0F) as i8 - INT4_BIAS) as f32 * scales[i];
            }
            for i in 0..ROW_TILE {
                out[1][i] = ((q[i] >> 4) as i8 - INT4_BIAS) as f32 * scales[i];
            }
        }
    }
    out
}

impl QuantMatrix {
    /// Quantizes a row-major `rows × cols` matrix as Q8_0 (the historic
    /// default; see [`Self::quantize_with`] for int4).
    #[must_use]
    pub fn quantize(w: &[f32], rows: usize, cols: usize) -> Self {
        Self::quantize_with(w, rows, cols, QuantKind::Int8)
    }

    /// Quantizes a row-major `rows × cols` matrix with per-row-group
    /// symmetric absmax scaling in the requested storage kind, writing
    /// each group straight into its tile-interleaved place.
    #[must_use]
    pub fn quantize_with(w: &[f32], rows: usize, cols: usize, kind: QuantKind) -> Self {
        assert_eq!(w.len(), rows * cols, "matrix shape mismatch");
        Self::quantize_rows(rows, cols, kind, |r, out| {
            out.copy_from_slice(&w[r * cols..(r + 1) * cols]);
        })
    }

    /// [`Self::quantize_with`] over a matrix in any layout: `row(r, out)`
    /// copies row `r` into `out`, one row of `cols` at a time.
    pub(crate) fn quantize_rows(
        rows: usize,
        cols: usize,
        kind: QuantKind,
        mut row: impl FnMut(usize, &mut [f32]),
    ) -> Self {
        let groups_per_row = cols.div_ceil(GROUP);
        let blocks = rows.div_ceil(ROW_TILE) * groups_per_row;
        let block_bytes = ROW_TILE * kind.group_bytes();
        let mut data = vec![0u8; blocks * block_bytes];
        let mut scales = vec![0.0f32; blocks * ROW_TILE];
        let mut row_buf = vec![0.0f32; cols];
        for r in 0..rows {
            row(r, &mut row_buf);
            let row = &row_buf;
            let (t, i) = (r / ROW_TILE, r % ROW_TILE);
            for g in 0..groups_per_row {
                let start = g * GROUP;
                let end = (start + GROUP).min(cols);
                let chunk = &row[start..end];
                let absmax = chunk.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                let scale = if absmax == 0.0 {
                    0.0
                } else {
                    absmax / kind.max_q()
                };
                let block = t * groups_per_row + g;
                scales[block * ROW_TILE + i] = scale;
                let mut qbuf = [0i8; GROUP];
                if scale > 0.0 {
                    let max_q = kind.max_q();
                    for (slot, &x) in qbuf.iter_mut().zip(chunk) {
                        *slot = (x / scale).round().clamp(-max_q, max_q) as i8;
                    }
                }
                // Row `i`'s byte `p` of the group goes to tile byte
                // `p * ROW_TILE + i`.
                let dst = data[block * block_bytes + i..].iter_mut().step_by(ROW_TILE);
                match kind {
                    QuantKind::Int8 => dst.zip(qbuf).for_each(|(d, q)| *d = q as u8),
                    QuantKind::Int4 => dst.zip(pack_nibbles(&qbuf)).for_each(|(d, b)| *d = b),
                }
            }
        }
        Self {
            kind,
            rows,
            cols,
            groups_per_row,
            data,
            scales,
        }
    }

    /// Storage kind.
    #[must_use]
    pub fn kind(&self) -> QuantKind {
        self.kind
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Groups per row (`cols.div_ceil(GROUP)`).
    #[must_use]
    pub fn groups_per_row(&self) -> usize {
        self.groups_per_row
    }

    /// Scale of group `g` of row `r`.
    #[must_use]
    pub fn scale(&self, r: usize, g: usize) -> f32 {
        assert!(r < self.rows && g < self.groups_per_row);
        self.tile_group(r / ROW_TILE, g).0[r % ROW_TILE]
    }

    /// Block `(t, g)`: the [`ROW_TILE`] scales and the column-interleaved
    /// quants [`dequant_column_pair`] reads.
    fn tile_group(&self, t: usize, g: usize) -> (&[f32; ROW_TILE], &[u8]) {
        let (scales, quants) = self.tile(t);
        let block_bytes = ROW_TILE * self.kind.group_bytes();
        (&scales[g], &quants[g * block_bytes..][..block_bytes])
    }

    /// Tile `t`, whose blocks are contiguous: one [`ROW_TILE`] scale vector
    /// per group, and the quants of all its groups.
    #[inline(always)]
    pub(crate) fn tile(&self, t: usize) -> (&[[f32; ROW_TILE]], &[u8]) {
        let groups = self.groups_per_row;
        let tile_bytes = groups * ROW_TILE * self.kind.group_bytes();
        let scales = &self.scales[t * groups * ROW_TILE..][..groups * ROW_TILE];
        let quants = &self.data[t * tile_bytes..][..tile_bytes];
        (scales.as_chunks().0, quants)
    }

    /// Logical streamed payload bytes: packed weight elements plus one
    /// f32 scale per group. Zero-padding of trailing partial groups is
    /// storage slack, not stream traffic, so it is excluded — this is the
    /// number the `gemm_weight_bytes` telemetry reports.
    #[must_use]
    pub fn bytes(&self) -> usize {
        let payload = match self.kind {
            QuantKind::Int8 => self.cols,
            QuantKind::Int4 => self.cols.div_ceil(2),
        };
        self.rows * (payload + self.groups_per_row * 4)
    }

    /// Heap bytes the matrix owns: the padded payload and its scales.
    pub(crate) fn storage_bytes(&self) -> usize {
        self.data.capacity() + self.scales.capacity() * 4
    }

    /// Worst-case absolute reconstruction error bound: half a quantization
    /// step per group, maximized over groups.
    #[must_use]
    pub fn error_bound(&self) -> f32 {
        self.scales.iter().fold(0.0f32, |m, &s| m.max(s)) * 0.5
    }

    /// Dequantizes group `g` of row `r` (padding columns included).
    pub fn dequant_group_into(&self, r: usize, g: usize, out: &mut [f32; GROUP]) {
        assert!(r < self.rows && g < self.groups_per_row);
        let (scales, quants) = self.tile_group(r / ROW_TILE, g);
        for (p, o) in out.chunks_exact_mut(2).enumerate() {
            let pair = dequant_column_pair(self.kind, scales, quants, p);
            (o[0], o[1]) = (pair[0][r % ROW_TILE], pair[1][r % ROW_TILE]);
        }
    }

    /// Reconstructs row `r` as f32 (padding excluded).
    #[must_use]
    pub fn dequantize_row(&self, r: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        let mut group = [0.0f32; GROUP];
        for g in 0..self.groups_per_row {
            self.dequant_group_into(r, g, &mut group);
            let start = g * GROUP;
            let end = (start + GROUP).min(self.cols);
            out[start..end].copy_from_slice(&group[..end - start]);
        }
        out
    }

    /// Reconstructs the full matrix as row-major f32.
    #[must_use]
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            out.extend_from_slice(&self.dequantize_row(r));
        }
        out
    }

    /// Fused dequant matvec: weights are dequantized in registers and
    /// accumulated in f32 (weight-only quantization — the activations stay
    /// full precision). Delegates to the kernel module so the serve path
    /// and this entry point share one accumulation order.
    pub fn matvec(&self, out: &mut [f32], x: &[f32]) {
        crate::qgemm::qmatvec(out, self, x);
    }
}

/// One transformer layer's GEMM operands, quantized.
#[derive(Debug, Clone)]
pub struct QuantLayer {
    /// Query projection, `dim × dim`.
    pub wq: QuantMatrix,
    /// Key projection, `kv_dim × dim`.
    pub wk: QuantMatrix,
    /// Value projection, `kv_dim × dim`.
    pub wv: QuantMatrix,
    /// Attention output projection, `dim × dim`.
    pub wo: QuantMatrix,
    /// FFN gate projection, `hidden × dim`.
    pub w1: QuantMatrix,
    /// FFN down projection, `dim × hidden`.
    pub w2: QuantMatrix,
    /// FFN up projection, `hidden × dim`.
    pub w3: QuantMatrix,
}

/// Every GEMM operand of a checkpoint, group-quantized by reference: a
/// second copy beside the f32 tensors, for probes and tests that compare
/// the two. A model to run is a [`crate::resident::ResidentWeights`].
#[derive(Debug, Clone)]
pub struct QuantWeights {
    /// Per-layer quantized projections.
    pub layers: Vec<QuantLayer>,
    /// Classifier head, `vocab × dim` (shared embedding or `wcls`).
    pub classifier: QuantMatrix,
}

impl QuantWeights {
    /// Quantizes every GEMM operand of `w`.
    #[must_use]
    pub fn quantize(w: &TransformerWeights, kind: QuantKind) -> Self {
        let c = &w.config;
        let (dim, kv_dim, hid) = (c.dim, c.kv_dim(), c.hidden_dim);
        let layers = w
            .layers
            .iter()
            .map(|lw| QuantLayer {
                wq: QuantMatrix::quantize_with(&lw.wq, dim, dim, kind),
                wk: QuantMatrix::quantize_with(&lw.wk, kv_dim, dim, kind),
                wv: QuantMatrix::quantize_with(&lw.wv, kv_dim, dim, kind),
                wo: QuantMatrix::quantize_with(&lw.wo, dim, dim, kind),
                w1: QuantMatrix::quantize_with(&lw.w1, hid, dim, kind),
                w2: QuantMatrix::quantize_with(&lw.w2, dim, hid, kind),
                w3: QuantMatrix::quantize_with(&lw.w3, hid, dim, kind),
            })
            .collect();
        let classifier = QuantMatrix::quantize_with(w.classifier(), c.vocab_size, dim, kind);
        Self { layers, classifier }
    }

    /// Compressed bytes one decode tick streams when every GEMM operand is
    /// read once — the quantized counterpart of
    /// [`crate::config::ModelConfig::gemm_weight_bytes`].
    #[must_use]
    pub fn gemm_weight_bytes(&self) -> usize {
        let layers = self.layers.iter();
        let operands = layers.flat_map(|l| [&l.wq, &l.wk, &l.wv, &l.wo, &l.w1, &l.w2, &l.w3]);
        operands
            .chain([&self.classifier])
            .map(QuantMatrix::bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn quantize_dequantize_small_error() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut data = vec![0.0f32; 1000];
        rng.fill_normal(&mut data, 0.5);
        let qt = QuantTensor::quantize(&data);
        let back = qt.dequantize();
        assert_eq!(back.len(), data.len());
        let bound = qt.error_bound() + 1e-7;
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= bound, "{a} vs {b}, bound {bound}");
        }
    }

    #[test]
    fn zero_tensor_quantizes_to_zero() {
        let qt = QuantTensor::quantize(&[0.0; 40]);
        assert!(qt.q.iter().all(|&q| q == 0));
        assert!(qt.dequantize().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn partial_group_is_handled() {
        let data: Vec<f32> = (0..37).map(|i| i as f32 / 10.0).collect();
        let qt = QuantTensor::quantize(&data);
        assert_eq!(qt.scales.len(), 2);
        assert_eq!(qt.q.len(), 64);
        assert_eq!(qt.dequantize().len(), 37);
    }

    #[test]
    fn absmax_element_is_exact() {
        // The absmax element maps to ±127 exactly, so reconstruction error
        // there is at most scale * 0.5 (rounding of 127.0 is exact).
        let data = [0.1f32, -2.54, 0.3];
        let qt = QuantTensor::quantize(&data);
        let back = qt.dequantize();
        assert!((back[1] - data[1]).abs() < 1e-6, "absmax should round-trip");
    }

    #[test]
    fn payload_bytes_formula() {
        let qt = QuantTensor::quantize(&[1.0; 64]);
        assert_eq!(qt.bytes(), 64 + 2 * 4);
    }

    #[test]
    fn nibble_pack_unpack_round_trips() {
        let vals: Vec<i8> = (-8..=7).collect();
        let packed = pack_nibbles(&vals);
        assert_eq!(packed.len(), 8);
        assert_eq!(unpack_nibbles(&packed, vals.len()), vals);
        // Odd length pads the final high nibble with zero.
        let odd = [3i8, -5, 7];
        let packed = pack_nibbles(&odd);
        assert_eq!(packed.len(), 2);
        assert_eq!(unpack_nibbles(&packed, 3), odd);
        assert_eq!(packed[1] >> 4, INT4_BIAS as u8);
    }

    #[test]
    fn matrix_round_trip_is_within_error_bound() {
        for kind in [QuantKind::Int8, QuantKind::Int4] {
            let mut rng = Xoshiro256::seed_from_u64(7);
            let (rows, cols) = (12, 70); // partial trailing group
            let mut w = vec![0.0f32; rows * cols];
            rng.fill_normal(&mut w, 0.3);
            let qm = QuantMatrix::quantize_with(&w, rows, cols, kind);
            let back = qm.dequantize();
            let bound = qm.error_bound() + 1e-7;
            for (a, b) in w.iter().zip(&back) {
                assert!((a - b).abs() <= bound, "{kind:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn quant_matvec_tracks_f32_matvec() {
        let rows = 24;
        let cols = 96;
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut w = vec![0.0f32; rows * cols];
        let mut x = vec![0.0f32; cols];
        rng.fill_normal(&mut w, 0.1);
        rng.fill_normal(&mut x, 1.0);
        let mut exact = vec![0.0f32; rows];
        crate::ops::matvec(&mut exact, &w, &x, rows, cols);
        let qm = QuantMatrix::quantize(&w, rows, cols);
        let mut approx = vec![0.0f32; rows];
        qm.matvec(&mut approx, &x);
        for (e, a) in exact.iter().zip(&approx) {
            // Weight-only int8: well under the old W8A8 tolerance.
            assert!((e - a).abs() < 0.08, "{e} vs {a}");
        }
    }

    #[test]
    fn quant_matrix_is_smaller_than_f32() {
        let w = vec![0.5f32; 128 * 128];
        let qm = QuantMatrix::quantize(&w, 128, 128);
        assert!(qm.bytes() < 128 * 128 * 4 / 3, "got {}", qm.bytes());
        assert_eq!(qm.rows(), 128);
        assert_eq!(qm.cols(), 128);
        let q4 = QuantMatrix::quantize_with(&w, 128, 128, QuantKind::Int4);
        assert!(q4.bytes() < qm.bytes(), "int4 must beat int8");
    }

    #[test]
    fn logical_bytes_exclude_group_padding() {
        // 16 cols → one half-full group per row: stream 16 B + 1 scale,
        // not the 32 B the padded storage holds.
        let w = vec![1.0f32; 4 * 16];
        let qm = QuantMatrix::quantize(&w, 4, 16);
        assert_eq!(qm.bytes(), 4 * (16 + 4));
        let q4 = QuantMatrix::quantize_with(&w, 4, 16, QuantKind::Int4);
        assert_eq!(q4.bytes(), 4 * (8 + 4));
    }

    #[test]
    fn identity_like_matrix_quant_matvec() {
        // Scaled identity: output must match input within quant error.
        let n = 32;
        let mut w = vec![0.0f32; n * n];
        for i in 0..n {
            w[i * n + i] = 2.0;
        }
        let qm = QuantMatrix::quantize(&w, n, n);
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.2).cos()).collect();
        let mut out = vec![0.0f32; n];
        qm.matvec(&mut out, &x);
        for (o, xi) in out.iter().zip(&x) {
            assert!((o - 2.0 * xi).abs() < 0.05, "{o} vs {}", 2.0 * xi);
        }
    }

    #[test]
    fn quant_weights_compress_the_gemm_stream() {
        let config = crate::config::ModelConfig::test_tiny();
        let weights = TransformerWeights::synthetic(config, 3);
        let f32_bytes = config.gemm_weight_bytes();
        let q8 = QuantWeights::quantize(&weights, QuantKind::Int8);
        let q4 = QuantWeights::quantize(&weights, QuantKind::Int4);
        assert!(
            q8.gemm_weight_bytes() * 3 < f32_bytes,
            "int8 {} vs f32 {f32_bytes}",
            q8.gemm_weight_bytes()
        );
        assert!(q4.gemm_weight_bytes() < q8.gemm_weight_bytes());
        assert_eq!(q8.layers.len(), config.n_layers);
        assert_eq!(q8.classifier.rows(), config.vocab_size);
    }
}
