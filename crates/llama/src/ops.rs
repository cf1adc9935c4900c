//! The f32 kernels of Llama-2 inference.
//!
//! Every kernel operates on plain `f32` slices, and the one layer walk
//! ([`crate::forward`]) that both the CPU model and the accelerator
//! engine's values come from calls them. Keeping one set of kernels is
//! what lets integration tests assert that the simulated accelerator is
//! *functionally transparent*: fusion, memory planning, and pipelining may
//! only change timing, never values.
//!
//! Every weight-streaming kernel sums each output element in [`dot`]'s
//! order, so one-row, batched and row-tiled results are bit-identical.
//! What the layer walk streams — f32 in kernel order ([`to_kernel_order`])
//! or split order, and the quantized matrices of [`crate::qgemm`] — goes
//! through one kernel body, each form a loader of its tile columns
//! ([`TileColumns`]), and one dispatch ([`run_isa`], through
//! [`run_tiled`]), which also compiles the seeded normal fill of
//! [`crate::rng`] per instruction set. The row-major [`matvec`] is a
//! [`dot`] per row: a reference, not a kernel.

use std::ops::Range;

/// Default RoPE frequency base used by the llama2.c model family.
pub const ROPE_THETA: f32 = 10000.0;

/// Epsilon used inside RMS normalization, matching llama2.c.
pub const RMS_EPS: f32 = 1e-5;

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics (debug) if the lengths differ.
#[inline]
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    // One f32 accumulator, increasing index, mul then add, like llama2.c.
    // This is the reference order: every matvec/matmul element replays it.
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// RMS normalization: `out[i] = x[i] * weight[i] / rms(x)`.
///
/// `out` and `x` may be the same slice via [`rmsnorm_inplace`]; this variant
/// writes to a distinct output.
pub fn rmsnorm(out: &mut [f32], x: &[f32], weight: &[f32]) {
    debug_assert_eq!(out.len(), x.len());
    debug_assert_eq!(x.len(), weight.len());
    let ss = x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ss + RMS_EPS).sqrt();
    for ((o, &xi), &wi) in out.iter_mut().zip(x).zip(weight) {
        *o = xi * inv * wi;
    }
}

/// In-place RMS normalization.
pub fn rmsnorm_inplace(x: &mut [f32], weight: &[f32]) {
    debug_assert_eq!(x.len(), weight.len());
    let ss = x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ss + RMS_EPS).sqrt();
    for (xi, &wi) in x.iter_mut().zip(weight) {
        *xi *= inv * wi;
    }
}

/// Lanes of [`lane_max`].
const LANE_MAX_LANES: usize = 16;

/// The largest non-NaN element of `x`, −∞ when there is none (or no
/// element). A max kept per lane by `v > m` (false for a NaN, which so
/// never enters), which the compiler can vectorize. Over the non-NaN
/// values the max does not depend on the order they are read in, except
/// for the sign of a zero max.
#[must_use]
pub fn lane_max(x: &[f32]) -> f32 {
    let keep_larger = |m: f32, v: f32| if v > m { v } else { m };
    let (blocks, tail) = x.as_chunks::<LANE_MAX_LANES>();
    let mut lanes = [f32::NEG_INFINITY; LANE_MAX_LANES];
    for block in blocks {
        for (m, &v) in lanes.iter_mut().zip(block) {
            *m = keep_larger(*m, v);
        }
    }
    lanes
        .into_iter()
        .chain(tail.iter().copied())
        .fold(f32::NEG_INFINITY, keep_larger)
}

/// Numerically-stable in-place softmax over `x`.
pub fn softmax(x: &mut [f32]) {
    softmax_from(x, lane_max(x));
}

/// [`softmax`] given `max`, the [`lane_max`] of `x`. Any reading order's
/// max gives the same bits: `v − max` differs between a +0 and a −0 max
/// only for `v = −0`, where `exp(∓0)` is 1 either way.
pub(crate) fn softmax_from(x: &mut [f32], max: f32) {
    let mut sum = 0.0f32;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in x.iter_mut() {
        *v *= inv;
    }
}

/// Dense matrix–vector product over a row-major `rows × cols` matrix `w`:
/// `out[r] = dot(w[r, :], x)`, one [`dot`] per row. No walk calls it (its
/// matrices are resident in kernel or split order); it is the
/// one-accumulator reference the benchmark's probes time.
pub fn matvec(out: &mut [f32], w: &[f32], x: &[f32], rows: usize, cols: usize) {
    assert_eq!(w.len(), rows * cols, "matrix shape mismatch");
    assert_eq!(out.len(), rows, "output shape mismatch");
    assert_eq!(x.len(), cols, "activation shape mismatch");
    for (o, row) in out.iter_mut().zip(w.chunks_exact(cols)) {
        *o = dot(row, x);
    }
}

/// Transposes sequence-major activations (`xs[b * cols + c]`) into
/// batch-major order (`xt[c * batch + b]`), the layout the batched matmul
/// kernel consumes: all batch lanes for one column sit adjacent, so the
/// inner loop reads them with one contiguous load per weight element.
#[must_use]
pub fn transpose_batch_major(xs: &[f32], cols: usize, batch: usize) -> Vec<f32> {
    let mut xt = vec![0.0f32; cols * batch];
    transpose_batch_major_into(&mut xt, xs, cols, batch);
    xt
}

/// [`transpose_batch_major`] into a caller's buffer of `cols * batch`.
///
/// # Panics
/// Panics unless `xs` and `xt` both hold `batch * cols` values.
pub fn transpose_batch_major_into(xt: &mut [f32], xs: &[f32], cols: usize, batch: usize) {
    assert_eq!(xs.len(), batch * cols, "activation shape mismatch");
    assert_eq!(xt.len(), batch * cols, "transpose buffer shape mismatch");
    for (b, x) in xs.chunks_exact(cols).enumerate() {
        for (c, &v) in x.iter().enumerate() {
            xt[c * batch + b] = v;
        }
    }
}

/// Weight rows per register tile, and per storage tile of the
/// kernel-order matrices ([`to_kernel_order`], [`crate::quant::QuantMatrix`]).
/// Measured, not tunable: on the 32000×288 classifier at width 1, 4 rows
/// still left the add chain exposed, 8 reached the host's stream
/// bandwidth, and 16 spilled the accumulators and gave the whole gain
/// back; 8 was also the best or tied-best height for the 2-, 4- and
/// 8-lane blocks. The kernels read two adjacent tiles per step where a
/// 16-wide register holds them ([`tiled_matmul_rows_xt`]).
pub const ROW_TILE: usize = 8;

/// Reorders a row-major `rows × cols` matrix **in place** into kernel
/// order, the layout [`tiled_matmul_rows_xt`] streams: each full tile of
/// [`ROW_TILE`] rows is interleaved column by column (element `(t *
/// ROW_TILE + i, c)` at `t * ROW_TILE * cols + c * ROW_TILE + i`), so one
/// column of a tile is one contiguous load. The `rows % ROW_TILE` tail rows
/// stay row-major after the last full tile, where they already are. The
/// buffer keeps its length; the only scratch is one tile.
pub fn to_kernel_order(w: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(w.len(), rows * cols, "matrix shape mismatch");
    let tiled = rows / ROW_TILE * ROW_TILE;
    let mut tile = vec![0.0f32; ROW_TILE * cols];
    for dst in w[..tiled * cols].chunks_exact_mut(ROW_TILE * cols) {
        tile.copy_from_slice(dst);
        for (i, row) in tile.chunks_exact(cols).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                dst[c * ROW_TILE + i] = v;
            }
        }
    }
}

/// Row `r` of a kernel-order matrix with `cols` columns (see
/// [`to_kernel_order`]), read in place.
#[must_use]
pub fn kernel_order_row(w: &[f32], cols: usize, r: usize) -> KernelRow<'_> {
    let tiled = w.len() / cols / ROW_TILE * ROW_TILE;
    let (start, stride) = if r < tiled {
        (r / ROW_TILE * ROW_TILE * cols + r % ROW_TILE, ROW_TILE)
    } else {
        (r * cols, 1)
    };
    KernelRow(RowData::Strided {
        data: &w[start..=start + (cols - 1) * stride],
        stride,
    })
}

/// Rows per group of a split-order matrix ([`to_split_order`]): a column
/// of a group is [`GROUP_WORDS`] words, and word `i` holds the halves of
/// the group's rows `i` (top 16 bits) and `GROUP_WORDS + i` (bottom 16).
pub(crate) const SPLIT_GROUP: usize = 32;

/// Words per column of a split-order group.
pub(crate) const GROUP_WORDS: usize = SPLIT_GROUP / 2;

/// Rows per block of a split-order matrix: a block's high halves are one
/// contiguous run (`SPLIT_BLOCK * cols * 2` bytes, 288 KB at 288
/// columns), and its low halves the next.
pub(crate) const SPLIT_BLOCK: usize = 512;

/// The top 16 bits of a word: one weight's high half (sign, exponent and
/// 7 mantissa bits — the weight truncated toward zero to bf16).
const HIGH: u32 = 0xFFFF_0000;

/// Rows of a `rows`-row matrix that split order stores as halves, the
/// whole groups; the rest are its tail, stored in kernel order after them.
#[must_use]
pub(crate) fn split_rows(rows: usize) -> usize {
    rows / SPLIT_GROUP * SPLIT_GROUP
}

/// The word range a block of split-order storage occupies, and where its
/// low halves begin inside it: the block of group `g` of a matrix whose
/// first [`split_rows`] rows are `split`.
fn split_block(g: usize, split: usize, cols: usize) -> (usize, usize) {
    let first = g * SPLIT_GROUP / SPLIT_BLOCK * SPLIT_BLOCK;
    let block_rows = SPLIT_BLOCK.min(split - first);
    (first * cols, block_rows * cols / 2)
}

/// Re-lays a row-major `rows × cols` matrix **in place** in split order,
/// the layout of the f32 vocab table: every weight as its high and low
/// 16-bit halves, so a screen can stream the high halves alone.
///
/// The [`split_rows`] rows go in blocks of [`SPLIT_BLOCK`]: a block's high
/// halves first, its low halves after, each in groups of [`SPLIT_GROUP`]
/// rows stored column by column, two halves to a 32-bit word (word `i` of
/// a group column holds rows `i` and `i + 16` in its top and bottom 16
/// bits). `w & 0xFFFF_0000` and `w << 16` of a column's 16 high words are
/// then the high halves of rows `0..16` and `16..32`, with no shuffles.
/// The tail rows follow in kernel order ([`to_kernel_order`]). The words
/// are kept as `f32` bit patterns, so the buffer keeps its type and
/// length; the only scratch is one group and a half.
pub fn to_split_order(w: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(w.len(), rows * cols, "matrix shape mismatch");
    let split = split_rows(rows);
    let group_len = SPLIT_GROUP * cols;
    let half_len = group_len / 2;
    let mut group = vec![0.0f32; group_len];
    let mut chunk = vec![0.0f32; half_len];
    for first in (0..split).step_by(SPLIT_BLOCK) {
        let (start, half) = split_block(first / SPLIT_GROUP, split, cols);
        let block = &mut w[start..start + 2 * half];
        let groups = 2 * half / group_len;
        // Each group's halves first replace its own rows, high words then
        // low words, so one group of scratch suffices...
        for words in block.chunks_exact_mut(group_len) {
            group.copy_from_slice(words);
            let (top, bottom) = group.split_at(half_len);
            let (high, low) = words.split_at_mut(half_len);
            for c in 0..cols {
                for i in 0..GROUP_WORDS {
                    let (t, b) = (top[i * cols + c].to_bits(), bottom[i * cols + c].to_bits());
                    high[c * GROUP_WORDS + i] = f32::from_bits(t & HIGH | b >> 16);
                    low[c * GROUP_WORDS + i] = f32::from_bits(t << 16 | b & !HIGH);
                }
            }
        }
        // ...and then the block's `2 × groups` half-groups are unshuffled
        // in place, high ones to the front and low ones to the back,
        // following each cycle of the permutation with one more half of
        // scratch.
        let to = |k: usize| k / 2 + k % 2 * groups;
        let mut placed = vec![false; 2 * groups];
        for lead in 0..2 * groups {
            if placed[lead] {
                continue;
            }
            chunk.copy_from_slice(&block[lead * half_len..][..half_len]);
            let mut k = lead;
            loop {
                k = to(k);
                block[k * half_len..][..half_len].swap_with_slice(&mut chunk);
                placed[k] = true;
                if k == lead {
                    break;
                }
            }
        }
    }
    to_kernel_order(&mut w[split * cols..], rows - split, cols);
}

/// The words of group `g` of a split-order matrix with `cols` columns
/// (see [`to_split_order`]): its high halves and its low halves, each
/// `cols` columns of [`GROUP_WORDS`] words.
#[must_use]
pub(crate) fn split_group(w: &[f32], cols: usize, g: usize) -> (&[f32], &[f32]) {
    let (start, half) = split_block(g, split_rows(w.len() / cols), cols);
    let at = start + (g % (SPLIT_BLOCK / SPLIT_GROUP)) * GROUP_WORDS * cols;
    let len = GROUP_WORDS * cols;
    (&w[at..at + len], &w[at + half..at + half + len])
}

/// Row `r` of a split-order matrix with `cols` columns (see
/// [`to_split_order`]), read in place.
#[must_use]
pub(crate) fn split_order_row(w: &[f32], cols: usize, r: usize) -> KernelRow<'_> {
    let split = split_rows(w.len() / cols);
    if r >= split {
        return kernel_order_row(&w[split * cols..], cols, r - split);
    }
    let (g, i) = (r / SPLIT_GROUP, r % SPLIT_GROUP);
    let (high, low) = split_group(w, cols, g);
    let (at, last) = (i % GROUP_WORDS, i % GROUP_WORDS + (cols - 1) * GROUP_WORDS);
    KernelRow(RowData::Split {
        high: &high[at..=last],
        low: &low[at..=last],
        top: i < GROUP_WORDS,
    })
}

/// One row of a kernel-order or split-order matrix, read in place.
#[derive(Clone, Copy)]
pub struct KernelRow<'a>(RowData<'a>);

#[derive(Clone, Copy)]
enum RowData<'a> {
    /// Elements `stride` apart ([`ROW_TILE`] inside a full tile, 1 in the
    /// row-major tail), from the row's first element to its last.
    Strided { data: &'a [f32], stride: usize },
    /// Words [`GROUP_WORDS`] apart holding the row's high and low halves,
    /// in their top 16 bits when `top`, else in their bottom 16.
    Split {
        high: &'a [f32],
        low: &'a [f32],
        top: bool,
    },
}

impl KernelRow<'_> {
    /// Where the row's first element — for a split row, the word holding
    /// its first high half — sits.
    #[must_use]
    pub fn as_ptr(&self) -> *const f32 {
        match self.0 {
            RowData::Strided { data, .. } => data.as_ptr(),
            RowData::Split { high, .. } => high.as_ptr(),
        }
    }

    fn len(&self) -> usize {
        match self.0 {
            RowData::Strided { data, stride } => data.len().div_ceil(stride),
            RowData::Split { high, .. } => high.len().div_ceil(GROUP_WORDS),
        }
    }

    fn iter(&self) -> impl Iterator<Item = f32> + '_ {
        (0..self.len()).map(|c| match self.0 {
            RowData::Strided { data, stride } => data[c * stride],
            RowData::Split { high, low, top } => {
                let (h, l) = (
                    high[c * GROUP_WORDS].to_bits(),
                    low[c * GROUP_WORDS].to_bits(),
                );
                f32::from_bits(if top {
                    h & HIGH | l >> 16
                } else {
                    h << 16 | l & !HIGH
                })
            }
        })
    }

    /// Copies the row into `out`, which holds exactly one row.
    pub fn copy_to(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len());
        for (o, v) in out.iter_mut().zip(self.iter()) {
            *o = v;
        }
    }
}

/// A row compares equal to the slice holding the same elements, as the
/// row-major `&[f32]` it replaces did.
impl PartialEq<&[f32]> for KernelRow<'_> {
    fn eq(&self, other: &&[f32]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl std::fmt::Debug for KernelRow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Widest lane block: 8 accumulator vectors, the weight column and a
/// broadcast (and quantized, scales and a temporary) fit 16 registers.
const MAX_LANES: usize = 8;

/// Lanes per accumulator group of a lane block. A block of 8 lanes is two
/// groups of 4 over one column loop: with 16-wide accumulators the
/// compiler kept at most 5 lanes of one array in registers, and 6 to 8
/// compiled to code about 10× slower.
const GROUP_LANES: usize = 4;

/// The accumulators of one lane block: `[lane][tile][row]`.
type LaneAccs<const R: usize, const T: usize> = [[[f32; R]; T]; MAX_LANES];

/// One column step of a lane group: `acc[l][j][i] += wv[j][i] * x[l]`, a
/// mul then an add per accumulator — [`dot`]'s step.
#[inline(always)]
fn accumulate_lanes<const R: usize, const T: usize, const L: usize>(
    acc: &mut [[[f32; R]; T]; L],
    wv: &[[f32; R]; T],
    x: &[f32],
) {
    let x: &[f32; L] = x[..L].try_into().expect("lane group in bounds");
    for l in 0..L {
        for j in 0..T {
            for i in 0..R {
                acc[l][j][i] += wv[j][i] * x[l];
            }
        }
    }
}

/// Writes lanes `b0..b0 + lanes` of a lane block whose first row is `r0`
/// to `out`, the rows inside `rows` only. Called after the `match` over
/// the lane count, where the count is a run-time value, so each block
/// hands over whole `T × R`-wide vectors the compiler keeps in registers
/// (written per count, widths 3, 5 and 6 ran 5× slower).
#[inline(always)]
fn write_lanes<const R: usize, const T: usize>(
    out: &mut [f32],
    acc: &LaneAccs<R, T>,
    lanes: usize,
    r0: usize,
    rows: &Range<usize>,
    batch: usize,
    b0: usize,
) {
    for (l, lane) in acc[..lanes].iter().enumerate() {
        for (i, &v) in lane.as_flattened().iter().enumerate() {
            let r = r0 + i;
            if rows.contains(&r) {
                out[(r - rows.start) * batch + b0 + l] = v;
            }
        }
    }
}

/// How the kernel body loads `T` adjacent `R`-row tiles, `S` columns a
/// step: stored as f32 ([`F32Tiles`]), rebuilt from a split-order group's
/// halves ([`SplitGroup`]), or dequantized, two columns a step, in blocks
/// of one group (`crate::qgemm`). Every form yields each row's weights in
/// column order, so the lane blocks over it keep [`dot`]'s. Everything
/// here is `#[inline(always)]`, down to the decoding: inside the per-ISA
/// copies the compiler otherwise left a call per column and spilled the
/// accumulators.
pub(crate) trait TileColumns<const R: usize, const T: usize, const S: usize>: Copy {
    /// Steps per block; `None` makes the whole row one block.
    const BLOCK_STEPS: Option<usize> = None;

    /// The loader narrowed to block `g`, steps `g * BLOCK_STEPS..`.
    #[inline(always)]
    fn block(self, _g: usize) -> Self {
        self
    }

    /// Steps in a block. Where it is the length of a slice [`Self::step`]
    /// indexes, the compiler drops the bounds checks on it, which
    /// otherwise cost f32 width 1 about 15%.
    fn steps(&self) -> usize;

    /// Step `s` of a block: `w[k][j][i]` is its column `k` of row `j * R
    /// + i`.
    fn step(self, s: usize) -> [[[f32; R]; T]; S];
}

/// `T` adjacent kernel-order tiles: column `c` of tile `j` is
/// `columns[j][c]`, each of the `T` slices `cols` long.
#[derive(Clone, Copy)]
struct F32Tiles<'a, const R: usize, const T: usize> {
    columns: [&'a [[f32; R]]; T],
}

impl<'a, const R: usize, const T: usize> F32Tiles<'a, R, T> {
    /// The `T` tiles `tiles` holds (`T × R × cols` weights, column `c` of
    /// tile `j` at `tiles[(j * cols + c) * R..][..R]`).
    #[inline(always)]
    fn new(tiles: &'a [f32], cols: usize) -> Self {
        let columns =
            std::array::from_fn(|j| &tiles[j * R * cols..][..R * cols].as_chunks().0[..cols]);
        Self { columns }
    }
}

impl<const R: usize, const T: usize> TileColumns<R, T, 1> for F32Tiles<'_, R, T> {
    #[inline(always)]
    fn steps(&self) -> usize {
        self.columns[0].len()
    }

    #[inline(always)]
    fn step(self, c: usize) -> [[[f32; R]; T]; 1] {
        [std::array::from_fn(|j| self.columns[j][c])]
    }
}

/// One split-order group ([`to_split_order`]) as two 16-row tiles: its
/// high words and, when `EXACT`, its low words, one `[f32; 16]` of words
/// per column. `EXACT` rebuilds every weight from its two halves; without
/// it the tiles are the high halves alone, what the screen streams.
#[derive(Clone, Copy)]
struct SplitGroup<'a, const EXACT: bool> {
    high: &'a [[f32; GROUP_WORDS]],
    low: &'a [[f32; GROUP_WORDS]],
}

impl<const EXACT: bool> TileColumns<GROUP_WORDS, 2, 1> for SplitGroup<'_, EXACT> {
    #[inline(always)]
    fn steps(&self) -> usize {
        self.high.len()
    }

    #[inline(always)]
    fn step(self, c: usize) -> [[[f32; GROUP_WORDS]; 2]; 1] {
        let h = self.high[c].map(f32::to_bits);
        if EXACT {
            let l = self.low[c].map(f32::to_bits);
            [[
                std::array::from_fn(|i| f32::from_bits(h[i] & HIGH | l[i] >> 16)),
                std::array::from_fn(|i| f32::from_bits(h[i] << 16 | l[i] & !HIGH)),
            ]]
        } else {
            [[
                h.map(|w| f32::from_bits(w & HIGH)),
                h.map(|w| f32::from_bits(w << 16)),
            ]]
        }
    }
}

/// The steps of one block, over their columns `xg` of the lanes, summed
/// into lane groups `a` and `b`.
#[inline(always)]
fn sum_block<const R: usize, const T: usize, const S: usize, const A: usize, const B: usize>(
    a: &mut [[[f32; R]; T]; A],
    b: &mut [[[f32; R]; T]; B],
    block: impl TileColumns<R, T, S>,
    xg: &[f32],
    batch: usize,
    b0: usize,
) {
    // The lanes, and a step's, are in bounds: checked once here, so the
    // compiler drops the lane groups' bounds checks on every column.
    assert!(b0 + A + B <= batch);
    let step = S.checked_mul(batch).expect("a step's lanes fit in memory");
    // Whole steps, whose length the compiler sees.
    let steps = xg.chunks_exact(step);
    let rest = steps.remainder();
    for (s, xs) in (0..block.steps()).zip(steps) {
        for (k, w) in block.step(s).iter().enumerate() {
            let xc = &xs[k * batch..][..batch];
            accumulate_lanes(a, w, &xc[b0..]);
            accumulate_lanes(b, w, &xc[b0 + A..]);
        }
    }
    // A row with an odd column count ends on a pair with no second.
    if !rest.is_empty() {
        let w = block.step(xg.len() / step)[0];
        accumulate_lanes(a, &w, &rest[b0..]);
        accumulate_lanes(b, &w, &rest[b0 + A..]);
    }
}

/// Lanes `b0..b0 + A + B` of one step's tiles, in two groups, `A` then
/// `B` ([`GROUP_LANES`]): `acc[l][j][i] = row j * R + i · x_{b0 + l}`,
/// lanes past `A + B` zero. Each column of the `T` tiles is one `T ×
/// R`-wide vector applied to every lane, summed in [`dot`]'s order.
#[inline(always)]
fn tiled_lane_block<
    const R: usize,
    const T: usize,
    const S: usize,
    const A: usize,
    const B: usize,
    C: TileColumns<R, T, S>,
>(
    tiles: C,
    xt: &[f32],
    batch: usize,
    b0: usize,
) -> LaneAccs<R, T> {
    let mut a = [[[0.0f32; R]; T]; A];
    let mut b = [[[0.0f32; R]; T]; B];
    match C::BLOCK_STEPS {
        None => sum_block(&mut a, &mut b, tiles, xt, batch, b0),
        Some(steps) => {
            for (g, xg) in xt.chunks(steps * S * batch).enumerate() {
                sum_block(&mut a, &mut b, tiles.block(g), xg, batch, b0);
            }
        }
    }
    let mut lanes = [[[0.0f32; R]; T]; MAX_LANES];
    lanes[..A].copy_from_slice(&a);
    lanes[A..A + B].copy_from_slice(&b);
    lanes
}

/// Every lane of one step's tiles, whose first row is `r0`, in lane
/// blocks of [`MAX_LANES`] and then one block of exactly the lanes left
/// over; the tiles' rows inside `rows` are written out ([`write_lanes`]).
#[inline(always)]
fn tiled_tiles<const R: usize, const T: usize, const S: usize>(
    out: &mut [f32],
    tiles: impl TileColumns<R, T, S>,
    r0: usize,
    xt: &[f32],
    rows: &Range<usize>,
    batch: usize,
) {
    const G: usize = GROUP_LANES;
    for b0 in (0..batch).step_by(MAX_LANES) {
        let lanes = (batch - b0).min(MAX_LANES);
        let acc = match lanes {
            1 => tiled_lane_block::<R, T, S, 1, 0, _>(tiles, xt, batch, b0),
            2 => tiled_lane_block::<R, T, S, 2, 0, _>(tiles, xt, batch, b0),
            3 => tiled_lane_block::<R, T, S, 3, 0, _>(tiles, xt, batch, b0),
            4 => tiled_lane_block::<R, T, S, G, 0, _>(tiles, xt, batch, b0),
            5 => tiled_lane_block::<R, T, S, G, 1, _>(tiles, xt, batch, b0),
            6 => tiled_lane_block::<R, T, S, G, 2, _>(tiles, xt, batch, b0),
            7 => tiled_lane_block::<R, T, S, G, 3, _>(tiles, xt, batch, b0),
            _ => tiled_lane_block::<R, T, S, G, G, _>(tiles, xt, batch, b0),
        };
        write_lanes(out, &acc, lanes, r0, rows, batch, b0);
    }
}

/// A matrix stored in [`ROW_TILE`]-row tiles, adjacent ones adjacent in
/// storage, so the layout is the same whatever `T` tiles a step reads.
pub(crate) trait RowTiles<const S: usize>: Copy {
    /// Tiles `t..t + T`.
    fn tiles<const T: usize>(self, t: usize) -> impl TileColumns<ROW_TILE, T, S>;

    /// The tiles `tiles`, `T` adjacent ones a step and a leftover one
    /// alone, each computed whole and written in part.
    #[inline(always)]
    fn walk<const T: usize>(
        self,
        tiles: Range<usize>,
        out: &mut [f32],
        xt: &[f32],
        rows: &Range<usize>,
        batch: usize,
    ) {
        let mut t = tiles.start;
        while t + T <= tiles.end {
            tiled_tiles(out, self.tiles::<T>(t), t * ROW_TILE, xt, rows, batch);
            t += T;
        }
        for t in t..tiles.end {
            tiled_tiles(out, self.tiles::<1>(t), t * ROW_TILE, xt, rows, batch);
        }
    }
}

/// One matrix and the kernel body that streams it, as the per-ISA copies
/// of [`run_isa`] take it through [`run_tiled`]. `body::<T>` runs with
/// `T` = 1 at the baseline and with AVX2, and `T` = 2 with AVX-512.
pub(crate) trait TiledGemm: Copy {
    /// The narrowest batch that runs the AVX-512 copy, measured per body.
    const AVX512_FROM: usize;

    /// `out[(r - rows.start) * batch + b] = w[r, :] · x_b` for `r` in
    /// `rows`, from batch-major `xt`.
    fn body<const T: usize>(self, out: &mut [f32], xt: &[f32], rows: Range<usize>, batch: usize);
}

/// A kernel-order f32 matrix ([`to_kernel_order`]): the full tiles that
/// overlap `rows`, then the row-major tail rows inside `rows` as one-row
/// tiles (a one-row tile in kernel order *is* a row-major row).
#[derive(Clone, Copy)]
struct KernelOrder<'a> {
    w: &'a [f32],
    cols: usize,
}

impl TiledGemm for KernelOrder<'_> {
    /// Width 1 is bound by the weight stream and measured no faster with
    /// AVX-512 (see [`tiled_matmul_rows_xt`]).
    const AVX512_FROM: usize = 2;

    #[inline(always)]
    fn body<const T: usize>(self, out: &mut [f32], xt: &[f32], rows: Range<usize>, batch: usize) {
        let (w, cols) = (self.w, self.cols);
        let tiled = w.len() / cols / ROW_TILE * ROW_TILE;
        let tiles = rows.start / ROW_TILE..rows.end.min(tiled).div_ceil(ROW_TILE);
        self.walk::<T>(tiles, out, xt, &rows, batch);
        for r in rows.start.max(tiled)..rows.end {
            let row = F32Tiles::<1, 1>::new(&w[r * cols..], cols);
            tiled_tiles(out, row, r, xt, &rows, batch);
        }
    }
}

impl RowTiles<1> for KernelOrder<'_> {
    #[inline(always)]
    fn tiles<const T: usize>(self, t: usize) -> impl TileColumns<ROW_TILE, T, 1> {
        F32Tiles::new(&self.w[t * ROW_TILE * self.cols..], self.cols)
    }
}

/// The split rows of a split-order matrix ([`to_split_order`]), read
/// whole when `EXACT` and as their high halves otherwise: every group
/// that overlaps `rows`, one [`SplitGroup`] step each, computed whole and
/// written in part.
#[derive(Clone, Copy)]
struct SplitOrder<'a, const EXACT: bool> {
    w: &'a [f32],
    cols: usize,
}

impl<const EXACT: bool> TiledGemm for SplitOrder<'_, EXACT> {
    /// A group column is one 512-bit word vector; both bodies measured
    /// faster with AVX-512 at width 1 too (see [`split_gemm`]).
    const AVX512_FROM: usize = 1;

    /// A group step is the same at every `T`.
    #[inline(always)]
    fn body<const T: usize>(self, out: &mut [f32], xt: &[f32], rows: Range<usize>, batch: usize) {
        let (w, cols) = (self.w, self.cols);
        let split = w.len() / cols;
        let group_len = GROUP_WORDS * cols;
        for g in rows.start / SPLIT_GROUP..rows.end.div_ceil(SPLIT_GROUP) {
            let (start, half) = split_block(g, split, cols);
            let at = start + (g % (SPLIT_BLOCK / SPLIT_GROUP)) * group_len;
            let low = if EXACT { at + half } else { at };
            let group = SplitGroup::<EXACT> {
                high: w[at..][..group_len].as_chunks().0,
                low: w[low..][..group_len].as_chunks().0,
            };
            tiled_tiles(out, group, g * SPLIT_GROUP, xt, &rows, batch);
        }
    }
}

/// A body compiled once per instruction set, as [`run_isa`] runs it:
/// `run::<T>` with `T` = 1 at the baseline and with AVX2, and `T` = 2
/// with AVX-512. The GEMM bodies ([`TiledGemm`], through [`run_tiled`])
/// step `T` row tiles at a time; the normal fill of
/// [`crate::rng::Xoshiro256::fill_normal`] ignores `T`.
pub(crate) trait IsaBody {
    /// What the body returns.
    type Output;

    /// Whether this call runs the AVX-512 copy on a CPU that has it.
    fn wants_avx512(&self) -> bool;

    /// The body, `T` row tiles per step where it steps tiles.
    fn run<const T: usize>(self) -> Self::Output;
}

/// One [`TiledGemm`] call: `out[(r - rows.start) * batch + b] = w[r, :] ·
/// x_b` for `r` in `rows`.
struct GemmCall<'a, G> {
    g: G,
    out: &'a mut [f32],
    xt: &'a [f32],
    rows: Range<usize>,
    batch: usize,
}

impl<G: TiledGemm> IsaBody for GemmCall<'_, G> {
    type Output = ();

    fn wants_avx512(&self) -> bool {
        self.batch >= G::AVX512_FROM
    }

    #[inline(always)]
    fn run<const T: usize>(self) {
        self.g.body::<T>(self.out, self.xt, self.rows, self.batch);
    }
}

/// An [`IsaBody`] compiled with AVX2 enabled, one tile per step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn isa_avx2<B: IsaBody>(b: B) -> B::Output {
    b.run::<1>()
}

/// An [`IsaBody`] compiled with AVX-512 enabled, two tiles per step: a
/// column of a tile pair, or of a split-order group's words, fills one
/// 16-wide register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn isa_avx512<B: IsaBody>(b: B) -> B::Output {
    b.run::<2>()
}

/// The widest instruction set a body may pick a copy for: the public
/// kernels allow AVX-512, and the tests cap it to compare the copies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Isa {
    Avx2,
    Avx512,
}

/// Runs `b` in the widest copy up to `widest` that this CPU executes:
/// AVX-512 where [`IsaBody::wants_avx512`], else AVX2, else the baseline.
/// The copies run the same IEEE operations in the same order (mul then
/// add, never a fused multiply-add), so they agree bit for bit.
#[allow(unsafe_code)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn run_isa<B: IsaBody>(b: B, widest: Isa) -> B::Output {
    #[cfg(target_arch = "x86_64")]
    if widest >= Isa::Avx512 && b.wants_avx512() && std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: `isa_avx512` is safe code whose one extra requirement,
        // a CPU that executes AVX-512F, the line above has just observed.
        // It is `b`'s body under another instruction selection, over the
        // same bounds-checked slices.
        return unsafe { isa_avx512(b) };
    }
    #[cfg(target_arch = "x86_64")]
    if widest >= Isa::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `isa_avx2` is safe code whose one extra requirement, a
        // CPU that executes AVX2, the line above has just observed. It is
        // `b`'s body under another instruction selection, over the same
        // bounds-checked slices.
        return unsafe { isa_avx2(b) };
    }
    b.run::<1>()
}

/// Runs `g`'s body through [`run_isa`]: AVX-512 from
/// [`TiledGemm::AVX512_FROM`] lanes.
pub(crate) fn run_tiled<G: TiledGemm>(
    g: G,
    out: &mut [f32],
    xt: &[f32],
    rows: Range<usize>,
    batch: usize,
    widest: Isa,
) {
    let call = GemmCall {
        g,
        out,
        xt,
        rows,
        batch,
    };
    run_isa(call, widest);
}

/// The shape checks every GEMM over a `w_rows × cols` matrix makes, in
/// every build: a short `xt` would otherwise leave lanes at zero.
pub(crate) fn check_gemm(
    out: &[f32],
    xt: &[f32],
    rows: &Range<usize>,
    (w_rows, cols): (usize, usize),
    batch: usize,
) {
    assert_eq!(out.len(), rows.len() * batch, "output shape mismatch");
    assert!(rows.end <= w_rows, "rows past the matrix");
    assert_eq!(xt.len(), cols * batch, "activation shape mismatch");
}

/// The shape of an f32 matrix `w` with `cols` columns.
fn f32_shape(w: &[f32], cols: usize) -> (usize, usize) {
    assert_eq!(w.len() % cols, 0, "a whole number of rows");
    (w.len() / cols, cols)
}

/// Batched matmul over a **kernel-order** matrix ([`to_kernel_order`])
/// and pre-transposed (batch-major) activations: `out[(r - rows.start) *
/// batch + b] = w[r, :] · x_b` for `r` in `rows`, any row range. Each tile
/// column is one load reused across every lane of a lane block, and every
/// element equals `dot(w[r, :], x_b)` bit for bit. A tile column fills one
/// AVX2 register, a tile pair's one AVX-512 register; the pair pays from
/// width 2, where the kernel is bound by arithmetic, not the stream.
pub fn tiled_matmul_rows_xt(
    out: &mut [f32],
    w: &[f32],
    xt: &[f32],
    rows: Range<usize>,
    cols: usize,
    batch: usize,
) {
    check_gemm(out, xt, &rows, f32_shape(w, cols), batch);
    run_tiled(KernelOrder { w, cols }, out, xt, rows, batch, Isa::Avx512);
}

/// [`tiled_matmul_rows_xt`] over a **split-order** matrix
/// ([`to_split_order`]): split rows through [`SplitOrder`], tail rows
/// through [`KernelOrder`]. `EXACT` rebuilds each weight from its halves,
/// so every element is `dot(w[r, :], x_b)` bit for bit; the screen keeps
/// the high halves (each weight truncated toward zero to bf16) of the
/// [`split_rows`], half the bytes, `dot(high(w[r, :]), x_b)`. The AVX-512
/// copy runs from width 1, where it measured faster than AVX2 and than
/// the kernel-order kernel over the same matrix.
pub(crate) fn split_gemm<const EXACT: bool>(
    out: &mut [f32],
    w: &[f32],
    xt: &[f32],
    rows: Range<usize>,
    cols: usize,
    batch: usize,
) {
    check_gemm(out, xt, &rows, f32_shape(w, cols), batch);
    let split = split_rows(w.len() / cols);
    let (w, tail) = w.split_at(split * cols);
    let groups = rows.start.min(split)..rows.end.min(split);
    let (out, tail_out) = out.split_at_mut(groups.len() * batch);
    let split_rows = SplitOrder::<EXACT> { w, cols };
    run_tiled(split_rows, out, xt, groups, batch, Isa::Avx512);
    if rows.end > split {
        let tail_rows = rows.start.max(split) - split..rows.end - split;
        let tail = KernelOrder { w: tail, cols };
        run_tiled(tail, tail_out, xt, tail_rows, batch, Isa::Avx512);
    }
}

/// SiLU (sigmoid-weighted linear unit): `x * σ(x)`.
#[inline]
#[must_use]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// SwiGLU gate: `h1[i] = silu(h1[i]) * h3[i]`, in place in `h1`.
pub fn swiglu(h1: &mut [f32], h3: &[f32]) {
    debug_assert_eq!(h1.len(), h3.len());
    for (a, &b) in h1.iter_mut().zip(h3) {
        *a = silu(*a) * b;
    }
}

/// Element-wise residual accumulation: `acc[i] += delta[i]`.
pub fn add_inplace(acc: &mut [f32], delta: &[f32]) {
    debug_assert_eq!(acc.len(), delta.len());
    for (a, &d) in acc.iter_mut().zip(delta) {
        *a += d;
    }
}

/// Applies rotary position embeddings in the llama2.c convention: adjacent
/// pairs within each `head_dim`-wide head of `v` are rotated by
/// `pos · θ^(−i/head_dim)`.
pub fn rope_inplace(v: &mut [f32], pos: usize, head_dim: usize, theta: f32) {
    debug_assert_eq!(v.len() % head_dim, 0, "vector not a whole number of heads");
    debug_assert_eq!(head_dim % 2, 0, "head_dim must be even");
    for head in v.chunks_mut(head_dim) {
        for i in (0..head_dim).step_by(2) {
            let freq = 1.0 / theta.powf(i as f32 / head_dim as f32);
            let angle = pos as f32 * freq;
            let (sin, cos) = angle.sin_cos();
            let (v0, v1) = (head[i], head[i + 1]);
            head[i] = v0 * cos - v1 * sin;
            head[i + 1] = v0 * sin + v1 * cos;
        }
    }
}

/// [`rope_inplace`]'s rotations for every position of a context window,
/// computed once: `(sin, cos)` of each `(pos, pair)` by the very
/// expressions `rope_inplace` evaluates per call, so [`RopeTable::apply`]
/// is bit-identical to it.
#[derive(Debug, Clone)]
pub(crate) struct RopeTable {
    head_dim: usize,
    /// Pair `i / 2` at position `pos` is `[pos * head_dim / 2 + i / 2]`.
    sin_cos: Vec<(f32, f32)>,
}

impl RopeTable {
    /// The table for positions `0..seq_len` of `head_dim`-wide heads.
    #[must_use]
    pub(crate) fn new(seq_len: usize, head_dim: usize, theta: f32) -> Self {
        assert_eq!(head_dim % 2, 0, "head_dim must be even");
        let freqs: Vec<f32> = (0..head_dim)
            .step_by(2)
            .map(|i| 1.0 / theta.powf(i as f32 / head_dim as f32))
            .collect();
        let sin_cos = (0..seq_len)
            .flat_map(|pos| freqs.iter().map(move |&freq| (pos as f32 * freq).sin_cos()))
            .collect();
        Self { head_dim, sin_cos }
    }

    /// [`rope_inplace`] of `v` at `pos`, read from the table.
    pub(crate) fn apply(&self, v: &mut [f32], pos: usize) {
        debug_assert_eq!(
            v.len() % self.head_dim,
            0,
            "vector not a whole number of heads"
        );
        let half = self.head_dim / 2;
        let rot = &self.sin_cos[pos * half..][..half];
        for head in v.chunks_exact_mut(self.head_dim) {
            for (pair, &(sin, cos)) in head.chunks_exact_mut(2).zip(rot) {
                let (v0, v1) = (pair[0], pair[1]);
                pair[0] = v0 * cos - v1 * sin;
                pair[1] = v0 * sin + v1 * cos;
            }
        }
    }
}

/// Keys per tile of [`attention_scores`].
const KEY_TILE: usize = 4;

/// Attention scores for one head: `scores[t] = q · k_t / sqrt(head_dim)` for
/// `t` in `0..=pos`, where `key_at(t)` yields the cached key row.
///
/// Keys go [`KEY_TILE`] at a time, one accumulator each over one pass of
/// `q`: the tile's sums are independent chains, so their add latencies
/// overlap. Each accumulator still takes its terms in increasing index,
/// mul then add, so every score is `dot(q, k_t) * scale` bit for bit.
pub fn attention_scores<'k>(
    scores: &mut [f32],
    q: &[f32],
    mut key_at: impl FnMut(usize) -> &'k [f32],
    pos: usize,
) {
    debug_assert!(scores.len() > pos);
    let scale = 1.0 / (q.len() as f32).sqrt();
    let (tiles, rest) = scores[..=pos].as_chunks_mut::<KEY_TILE>();
    for (n, tile) in tiles.iter_mut().enumerate() {
        let keys: [&[f32]; KEY_TILE] =
            std::array::from_fn(|j| &key_at(n * KEY_TILE + j)[..q.len()]);
        let mut acc = [0.0f32; KEY_TILE];
        for (i, &qi) in q.iter().enumerate() {
            for (a, k) in acc.iter_mut().zip(keys) {
                *a += qi * k[i];
            }
        }
        for (s, a) in tile.iter_mut().zip(acc) {
            *s = a * scale;
        }
    }
    let first = tiles.len() * KEY_TILE;
    for (t, s) in (first..).zip(rest) {
        *s = dot(q, key_at(t)) * scale;
    }
}

/// Weighted value mix for one head: `out = Σ_t probs[t] · v_t`.
pub fn attention_mix<'v>(
    out: &mut [f32],
    probs: &[f32],
    mut value_at: impl FnMut(usize) -> &'v [f32],
    pos: usize,
) {
    out.fill(0.0);
    for (t, &p) in probs.iter().enumerate().take(pos + 1) {
        let v = value_at(t);
        debug_assert_eq!(v.len(), out.len());
        for (o, &vi) in out.iter_mut().zip(v) {
            *o += p * vi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel-order body `T` tiles per step, at the build's baseline.
    fn tiled_body<const T: usize>(
        out: &mut [f32],
        w: &[f32],
        xt: &[f32],
        rows: Range<usize>,
        cols: usize,
        batch: usize,
    ) {
        KernelOrder { w, cols }.body::<T>(out, xt, rows, batch);
    }

    /// [`tiled_body`] one tile per step.
    fn tiled_kernel(
        out: &mut [f32],
        w: &[f32],
        xt: &[f32],
        rows: Range<usize>,
        cols: usize,
        batch: usize,
    ) {
        tiled_body::<1>(out, w, xt, rows, cols, batch);
    }

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn rmsnorm_matches_hand_computation() {
        let x = [3.0f32, 4.0];
        let w = [1.0f32, 2.0];
        let mut out = [0.0f32; 2];
        rmsnorm(&mut out, &x, &w);
        // rms = sqrt((9+16)/2 + eps) ≈ sqrt(12.5)
        let inv = 1.0 / (12.5f32 + RMS_EPS).sqrt();
        assert_close(out[0], 3.0 * inv, 1e-6);
        assert_close(out[1], 4.0 * inv * 2.0, 1e-6);
    }

    #[test]
    fn rmsnorm_inplace_matches_out_of_place() {
        let x = [0.5f32, -1.25, 2.0, 0.0];
        let w = [1.0f32, 0.5, -1.0, 2.0];
        let mut a = [0.0f32; 4];
        rmsnorm(&mut a, &x, &w);
        let mut b = x;
        rmsnorm_inplace(&mut b, &w);
        for (x, y) in a.iter().zip(&b) {
            assert_close(*x, *y, 1e-7);
        }
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut x = [1.0f32, 2.0, 3.0];
        softmax(&mut x);
        assert_close(x.iter().sum::<f32>(), 1.0, 1e-6);
        assert!(x[2] > x[1] && x[1] > x[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = [1.0f32, 2.0, 3.0];
        let mut b = [1001.0f32, 1002.0, 1003.0];
        softmax(&mut a);
        softmax(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_close(*x, *y, 1e-6);
        }
    }

    #[test]
    fn softmax_handles_extremes() {
        let mut x = [f32::NEG_INFINITY, 0.0];
        softmax(&mut x);
        assert_close(x[0], 0.0, 1e-9);
        assert_close(x[1], 1.0, 1e-9);
        let mut empty: [f32; 0] = [];
        softmax(&mut empty);
    }

    #[test]
    fn matvec_identity() {
        let w = [1.0f32, 0.0, 0.0, 1.0]; // 2x2 identity
        let x = [7.0f32, -3.0];
        let mut out = [0.0f32; 2];
        matvec(&mut out, &w, &x, 2, 2);
        assert_eq!(out, x);
    }

    #[test]
    fn matvec_rectangular() {
        // 2x3 matrix
        let w = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x = [1.0f32, 0.0, -1.0];
        let mut out = [0.0f32; 2];
        matvec(&mut out, &w, &x, 2, 3);
        assert_eq!(out, [-2.0, -2.0]);
    }

    /// A matvec given too short an activation panics in every build,
    /// rather than pairing a row with fewer columns.
    #[test]
    #[should_panic(expected = "activation shape mismatch")]
    fn matvec_shape_check_rejects_a_short_activation() {
        let (rows, cols) = (8, 5);
        let mut out = vec![0.0f32; rows];
        matvec(&mut out, &vec![1.0; rows * cols], &[1.0; 4], rows, cols);
    }

    /// A batch-3 transpose given two lanes panics in every build, rather
    /// than leaving the third lane of `xt` stale.
    #[test]
    #[should_panic(expected = "activation shape mismatch")]
    fn transpose_shape_check_rejects_a_missing_lane() {
        let (cols, batch) = (4, 3);
        let mut xt = vec![0.0f32; cols * batch];
        transpose_batch_major_into(&mut xt, &vec![1.0; (batch - 1) * cols], cols, batch);
    }

    /// A batch-3 GEMM given two lanes of activations panics in every
    /// build, rather than reading the third lane as zeros.
    #[test]
    #[should_panic(expected = "activation shape mismatch")]
    fn kernel_order_shape_check_rejects_a_missing_lane() {
        let (rows, cols) = (8, 5);
        let mut out = vec![0.0f32; rows * 3];
        let w = vec![1.0; rows * cols];
        tiled_matmul_rows_xt(&mut out, &w, &vec![1.0; 2 * cols], 0..rows, cols, 3);
    }

    /// A random row-major `rows × cols` matrix and its kernel-order copy.
    fn kernel_order_case(rows: usize, cols: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(seed);
        let mut w = vec![0.0f32; rows * cols];
        rng.fill_normal(&mut w, 0.2);
        let mut k = w.clone();
        to_kernel_order(&mut k, rows, cols);
        (w, k)
    }

    fn normal(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(seed);
        let mut v = vec![0.0f32; len];
        rng.fill_normal(&mut v, 1.0);
        v
    }

    #[test]
    fn kernel_order_rows_read_back_the_row_major_matrix() {
        for (rows, cols) in [(1usize, 5usize), (8, 3), (21, 4), (44, 16)] {
            let (w, k) = kernel_order_case(rows, cols, 3);
            let tiled = rows / ROW_TILE * ROW_TILE;
            // Full tiles are column-interleaved, the tail stays row-major.
            for r in 0..rows {
                for c in 0..cols {
                    let at = if r < tiled {
                        r / ROW_TILE * ROW_TILE * cols + c * ROW_TILE + r % ROW_TILE
                    } else {
                        r * cols + c
                    };
                    assert_eq!(
                        k[at].to_bits(),
                        w[r * cols + c].to_bits(),
                        "{rows}x{cols} ({r}, {c})"
                    );
                }
                let mut copied = vec![f32::NAN; cols];
                kernel_order_row(&k, cols, r).copy_to(&mut copied);
                assert_eq!(
                    copied,
                    &w[r * cols..(r + 1) * cols],
                    "{rows}x{cols} row {r}"
                );
            }
        }
    }

    /// Every element of the kernel-order GEMM, batched or not, over the
    /// whole matrix or a sub-range that starts and ends mid-tile, is
    /// `dot(w[r, :], x_b)` bit for bit.
    #[test]
    fn kernel_order_matmul_replays_dot_bit_for_bit() {
        for rows in [1usize, 7, 8, 44, 45, 768] {
            for cols in [16usize, 17, 288] {
                let (w, k) = kernel_order_case(rows, cols, (rows * 1000 + cols) as u64);
                let ranges = [
                    0..rows,
                    rows / 2..rows,
                    3.min(rows)..rows.saturating_sub(2).max(3.min(rows)),
                ];
                for batch in 1..=20 {
                    let xs = normal(batch * cols, (batch * 7 + rows) as u64);
                    let xt = transpose_batch_major(&xs, cols, batch);
                    for range in ranges.clone() {
                        let mut out = vec![f32::NAN; range.len() * batch];
                        tiled_matmul_rows_xt(&mut out, &k, &xt, range.clone(), cols, batch);
                        for r in range.clone() {
                            for b in 0..batch {
                                let want = dot(
                                    &w[r * cols..(r + 1) * cols],
                                    &xs[b * cols..(b + 1) * cols],
                                );
                                assert_eq!(
                                    out[(r - range.start) * batch + b].to_bits(),
                                    want.to_bits(),
                                    "{rows}x{cols} batch {batch} range {range:?} row {r} lane {b}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The baseline and the run-time-selected instantiation of the f32
    /// kernel body are the same IEEE operations in the same order. On a
    /// host without AVX2 both sides are the baseline copy.
    #[test]
    fn portable_and_detected_f32_instantiations_agree_bitwise() {
        let (rows, cols) = (45, 37);
        let (_, k) = kernel_order_case(rows, cols, 9);
        for batch in 1..=20 {
            let xt = transpose_batch_major(&normal(batch * cols, batch as u64), cols, batch);
            let range = 3..43;
            let mut portable = vec![f32::NAN; range.len() * batch];
            tiled_kernel(&mut portable, &k, &xt, range.clone(), cols, batch);
            let mut detected = vec![f32::NAN; range.len() * batch];
            tiled_matmul_rows_xt(&mut detected, &k, &xt, range, cols, batch);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&portable), bits(&detected), "batch {batch}");
        }
    }

    /// Row ranges of a `rows`-row matrix: the whole, and ones that start
    /// and end mid-tile and mid-pair of tiles.
    fn row_ranges(rows: usize) -> Vec<Range<usize>> {
        let mut ranges = vec![0..rows, rows / 2..rows];
        for (start, end) in [(3, 2), (11, 5), (19, 13)] {
            if start + end < rows {
                ranges.push(start..rows - end);
            }
        }
        ranges
    }

    /// The two-tile instantiation of the kernel body, compiled at the
    /// baseline, is `dot(w[r, :], x_b)` bit for bit — over an odd tile
    /// left after the pairs, the row-major tail, every lane-group split
    /// of batches up to 33, and ranges that cut tiles and pairs.
    #[test]
    fn kernel_order_pair_body_replays_dot_bit_for_bit() {
        for rows in [1usize, 7, 8, 15, 16, 17, 24, 44, 45, 768] {
            for cols in [16usize, 17, 288] {
                let (w, k) = kernel_order_case(rows, cols, (rows * 1000 + cols) as u64);
                for batch in 1..=33 {
                    let xs = normal(batch * cols, (batch * 7 + rows) as u64);
                    let xt = transpose_batch_major(&xs, cols, batch);
                    for range in row_ranges(rows) {
                        let mut out = vec![f32::NAN; range.len() * batch];
                        tiled_body::<2>(&mut out, &k, &xt, range.clone(), cols, batch);
                        for r in range.clone() {
                            for b in 0..batch {
                                let want = dot(
                                    &w[r * cols..(r + 1) * cols],
                                    &xs[b * cols..(b + 1) * cols],
                                );
                                assert_eq!(
                                    out[(r - range.start) * batch + b].to_bits(),
                                    want.to_bits(),
                                    "{rows}x{cols} batch {batch} range {range:?} row {r} lane {b}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// An f32 kernel-order GEMM's signature.
    type F32Kernel = fn(&mut [f32], &[f32], &[f32], Range<usize>, usize, usize);

    /// The run-time-selected copy — AVX-512 two tiles per step from width
    /// 2 where the CPU has it, else AVX2 or the baseline one tile per
    /// step — equals both baseline instantiations bit for bit. On a host
    /// without AVX-512 the selected side is a one-tile copy.
    #[test]
    fn avx512_and_baseline_f32_instantiations_agree_bitwise() {
        let (rows, cols) = (61, 37);
        let (_, k) = kernel_order_case(rows, cols, 13);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for batch in 1..=33 {
            let xt = transpose_batch_major(&normal(batch * cols, batch as u64), cols, batch);
            for range in row_ranges(rows) {
                let run = |kernel: F32Kernel| {
                    let mut out = vec![f32::NAN; range.len() * batch];
                    kernel(&mut out, &k, &xt, range.clone(), cols, batch);
                    bits(&out)
                };
                let detected = run(tiled_matmul_rows_xt);
                assert_eq!(
                    detected,
                    run(tiled_body::<2>),
                    "batch {batch} range {range:?}"
                );
                assert_eq!(detected, run(tiled_kernel), "batch {batch} range {range:?}");
            }
        }
    }

    /// A random row-major `rows × cols` matrix with special values mixed
    /// in — subnormals, signed zeros and, unless `finite`, infinities and
    /// NaN payloads (which no GEMM order pins) — and its split-order copy.
    fn split_order_case(rows: usize, cols: usize, seed: u64, finite: bool) -> (Vec<f32>, Vec<f32>) {
        let (mut w, _) = kernel_order_case(rows, cols, seed);
        let special = &[
            f32::from_bits(1),
            -f32::from_bits(0x0007_FFFF),
            f32::MIN_POSITIVE,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7FC0_1234),
            f32::from_bits(0xFF80_0001),
        ][..if finite { 4 } else { 8 }];
        for (i, v) in w.iter_mut().enumerate().filter(|(i, _)| i % 37 == 5) {
            *v = special[i % special.len()];
        }
        let mut s = w.clone();
        to_split_order(&mut s, rows, cols);
        (w, s)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// `w` with every weight of the split rows truncated to its high half.
    fn high_halves(w: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let split = split_rows(rows) * cols;
        let truncate = |(i, &v): (usize, &f32)| {
            if i < split {
                f32::from_bits(v.to_bits() & HIGH)
            } else {
                v
            }
        };
        w.iter().enumerate().map(truncate).collect()
    }

    /// The split table keeps the buffer and every bit: each row of each
    /// shape — groups, blocks (1056 rows is two blocks, the second
    /// partial), tail rows behind them — reads back exactly, and a group
    /// column's high words hold rows `i` and `16 + i` as documented.
    #[test]
    fn split_order_rows_read_back_bit_for_bit() {
        for rows in [
            1usize, 7, 8, 15, 16, 17, 31, 32, 33, 45, 64, 513, 1000, 1056,
        ] {
            for cols in [16usize, 17, 288] {
                let (w, s) = split_order_case(rows, cols, (rows * 100 + cols) as u64, false);
                assert_eq!(s.len(), w.len());
                for r in 0..rows {
                    let mut row = vec![0.0f32; cols];
                    split_order_row(&s, cols, r).copy_to(&mut row);
                    assert_eq!(
                        bits(&row),
                        bits(&w[r * cols..(r + 1) * cols]),
                        "{rows}x{cols} row {r}"
                    );
                }
                if rows >= SPLIT_GROUP {
                    // Group 0 of block 0: column 1, word 3 holds rows 3 and 19.
                    let word = s[GROUP_WORDS + 3].to_bits();
                    assert_eq!(word & HIGH, w[3 * cols + 1].to_bits() & HIGH);
                    assert_eq!(word << 16, w[19 * cols + 1].to_bits() & HIGH);
                }
            }
        }
    }

    /// The split-order GEMM rebuilds every weight: each element, batched
    /// or not, over ranges cut mid-tile, mid-group and across a block
    /// boundary, is `dot(w[r, :], x_b)` bit for bit. The screen is `dot`
    /// over the high halves on the split rows and exact on the tail.
    #[test]
    fn split_order_matmul_and_screen_replay_dot_bit_for_bit() {
        for rows in [1usize, 7, 8, 15, 16, 17, 45, 64, 1000] {
            for cols in [16usize, 17, 288] {
                let (w, s) = split_order_case(rows, cols, (rows * 1000 + cols) as u64, true);
                let high = high_halves(&w, rows, cols);
                let mut ranges = row_ranges(rows);
                if rows > 530 {
                    ranges.push(500..530);
                }
                for batch in (1..=33).filter(|b| rows < 1000 || b % 4 == 1) {
                    let xs = normal(batch * cols, (batch * 7 + rows) as u64);
                    let xt = transpose_batch_major(&xs, cols, batch);
                    for range in ranges.clone() {
                        let mut exact = vec![f32::NAN; range.len() * batch];
                        split_gemm::<true>(&mut exact, &s, &xt, range.clone(), cols, batch);
                        let mut screen = vec![f32::NAN; range.len() * batch];
                        split_gemm::<false>(&mut screen, &s, &xt, range.clone(), cols, batch);
                        for r in range.clone() {
                            for b in 0..batch {
                                let x = &xs[b * cols..(b + 1) * cols];
                                let at = (r - range.start) * batch + b;
                                let row = r * cols..(r + 1) * cols;
                                let want = dot(&w[row.clone()], x);
                                let case = format!(
                                    "{rows}x{cols} batch {batch} {range:?} row {r} lane {b}"
                                );
                                assert_eq!(exact[at].to_bits(), want.to_bits(), "{case}");
                                let want = dot(&high[row], x);
                                assert_eq!(screen[at].to_bits(), want.to_bits(), "screen {case}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The AVX-512, AVX2 and baseline copies of both split-order bodies
    /// agree bit for bit (each copy the CPU lacks falls back to the next
    /// narrower one), over the 992 split rows of a 1000-row matrix.
    #[test]
    fn split_order_instantiations_agree_bitwise() {
        let (rows, cols) = (1000, 37);
        let (_, s) = split_order_case(rows, cols, 17, true);
        let split = split_rows(rows);
        let s = &s[..split * cols];
        for batch in 1..=33 {
            let xt = transpose_batch_major(&normal(batch * cols, batch as u64), cols, batch);
            for range in row_ranges(split)
                .into_iter()
                .chain(std::iter::once(500..530))
            {
                fn copies<G: TiledGemm>(
                    g: G,
                    xt: &[f32],
                    range: &Range<usize>,
                    batch: usize,
                ) -> [Vec<u32>; 3] {
                    let run = |widest: Option<Isa>| {
                        let mut out = vec![f32::NAN; range.len() * batch];
                        match widest {
                            Some(isa) => run_tiled(g, &mut out, xt, range.clone(), batch, isa),
                            None => g.body::<1>(&mut out, xt, range.clone(), batch),
                        }
                        bits(&out)
                    };
                    [run(Some(Isa::Avx512)), run(Some(Isa::Avx2)), run(None)]
                }
                let exact = copies(SplitOrder::<true> { w: s, cols }, &xt, &range, batch);
                let screen = copies(SplitOrder::<false> { w: s, cols }, &xt, &range, batch);
                for [avx512, avx2, baseline] in [exact, screen] {
                    assert_eq!(avx512, baseline, "batch {batch} range {range:?}");
                    assert_eq!(avx2, baseline, "batch {batch} range {range:?}");
                }
            }
        }
    }

    /// The table's rotation is `rope_inplace`'s, bit for bit, at every
    /// position of the window and for several head widths.
    #[test]
    fn rope_table_replays_rope_inplace_bit_for_bit() {
        for (seq_len, head_dim, heads) in [
            (37usize, 2usize, 3usize),
            (64, 8, 2),
            (256, 48, 6),
            (40, 64, 1),
        ] {
            let table = RopeTable::new(seq_len, head_dim, ROPE_THETA);
            for pos in 0..seq_len {
                let v = normal(heads * head_dim, pos as u64);
                let (mut want, mut got) = (v.clone(), v);
                rope_inplace(&mut want, pos, head_dim, ROPE_THETA);
                table.apply(&mut got, pos);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "head_dim {head_dim} pos {pos}");
            }
        }
    }

    /// Key-tiled scores are per-key `dot(q, k_t) * scale`, bit for bit,
    /// for every `pos` of a window that is not a multiple of the tile.
    #[test]
    fn tiled_attention_scores_replay_per_key_dot_bit_for_bit() {
        for (seq_len, head_dim) in [(37usize, 48usize), (20, 7), (9, 64)] {
            let keys: Vec<Vec<f32>> = (0..seq_len)
                .map(|t| normal(head_dim, 100 + t as u64))
                .collect();
            let q = normal(head_dim, 5);
            let scale = 1.0 / (head_dim as f32).sqrt();
            for pos in 0..seq_len {
                let mut scores = vec![f32::NAN; seq_len];
                attention_scores(&mut scores, &q, |t| &keys[t], pos);
                for (t, s) in scores.iter().enumerate() {
                    let want = if t <= pos {
                        dot(&q, &keys[t]) * scale
                    } else {
                        f32::NAN
                    };
                    assert_eq!(
                        s.to_bits(),
                        want.to_bits(),
                        "seq {seq_len} pos {pos} key {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn silu_fixed_points() {
        assert_close(silu(0.0), 0.0, 1e-9);
        assert!(silu(10.0) > 9.99);
        assert!(silu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn swiglu_combines() {
        let mut h1 = [1.0f32, -1.0];
        let h3 = [2.0f32, 3.0];
        swiglu(&mut h1, &h3);
        assert_close(h1[0], silu(1.0) * 2.0, 1e-6);
        assert_close(h1[1], silu(-1.0) * 3.0, 1e-6);
    }

    #[test]
    fn add_inplace_accumulates() {
        let mut acc = [1.0f32, 2.0];
        add_inplace(&mut acc, &[10.0, 20.0]);
        assert_eq!(acc, [11.0, 22.0]);
    }

    #[test]
    fn rope_at_pos_zero_is_identity() {
        let mut v = [0.3f32, -0.7, 1.1, 0.0];
        let orig = v;
        rope_inplace(&mut v, 0, 4, ROPE_THETA);
        for (a, b) in v.iter().zip(&orig) {
            assert_close(*a, *b, 1e-7);
        }
    }

    #[test]
    fn rope_preserves_norm() {
        let mut v: Vec<f32> = (0..8).map(|i| (i as f32 * 0.7).cos()).collect();
        let norm0: f32 = v.iter().map(|x| x * x).sum();
        rope_inplace(&mut v, 17, 4, ROPE_THETA);
        let norm1: f32 = v.iter().map(|x| x * x).sum();
        assert_close(norm0, norm1, 1e-4);
    }

    #[test]
    fn rope_first_pair_rotates_by_pos_radians() {
        // For i=0 the frequency is exactly 1, so the first pair rotates by
        // `pos` radians.
        let mut v = [1.0f32, 0.0, 0.0, 0.0];
        rope_inplace(&mut v, 1, 4, ROPE_THETA);
        assert_close(v[0], 1.0f32.cos(), 1e-6);
        assert_close(v[1], 1.0f32.sin(), 1e-6);
    }

    #[test]
    fn attention_scores_and_mix_single_key() {
        let q = [1.0f32, 0.0];
        let k = [2.0f32, 0.0];
        let v = [5.0f32, 7.0];
        let mut scores = [0.0f32; 1];
        attention_scores(&mut scores, &q, |_| &k[..], 0);
        assert_close(scores[0], 2.0 / (2.0f32).sqrt(), 1e-6);
        softmax(&mut scores);
        let mut out = [0.0f32; 2];
        attention_mix(&mut out, &scores, |_| &v[..], 0);
        assert_eq!(out, v);
    }

    #[test]
    fn attention_mix_weights_values() {
        let probs = [0.25f32, 0.75];
        let v0 = [4.0f32];
        let v1 = [8.0f32];
        let mut out = [0.0f32];
        attention_mix(
            &mut out,
            &probs,
            |t| if t == 0 { &v0[..] } else { &v1[..] },
            1,
        );
        assert_close(out[0], 0.25 * 4.0 + 0.75 * 8.0, 1e-6);
    }
}
