//! The f32 vocab table — the tied embedding and classifier, or an untied
//! f32 classifier — in split order ([`ops::to_split_order`]), with the
//! per-row bounds that let a greedy step screen it on its high halves.
//!
//! A greedy step needs the argmax of the classifier row, not the row. The
//! screen streams half the table's bytes — each weight's high half, the
//! weight truncated toward zero to bf16 — and a rigorous per-row bound on
//! how far each screened logit can sit from the exact one keeps every
//! row that could be the argmax. Those candidates, usually one, are
//! rescored exactly by the full-row kernel, which replays [`ops::dot`].
//! The row handed back holds the exact logit at each candidate and −∞
//! everywhere else, so `sampler::argmax` of it is `sampler::argmax` of the
//! full row, first-index tie rule included (DESIGN.md §13).

use std::sync::OnceLock;

use crate::cores::{Cores, Gemm};
use crate::ops::{self, KernelRow};

/// Relative slack that every rounded-up quantity here is enlarged by. It
/// dominates the rounding of the f64 sums of at most [`MAX_COLS`] exact
/// squares (`MAX_COLS · 2⁻⁵³ < 2⁻⁴¹`) and of the few f64 operations that
/// follow each, so every such quantity errs only upward.
const SLACK: f64 = 1.0 / (1u64 << 40) as f64;

/// The widest row the slack above covers.
const MAX_COLS: usize = 4096;

/// `sqrt(sum)` rounded up, for an f64 `sum` of at most [`MAX_COLS`]
/// squares of f32 values (each exact in f64).
fn root_up(sum: f64) -> f64 {
    (sum * (1.0 + SLACK)).sqrt() * (1.0 + SLACK)
}

/// `v` as the smallest f32 that is not below it.
fn f32_up(v: f64) -> f32 {
    let f = v as f32;
    if f64::from(f) < v {
        f.next_up()
    } else {
        f
    }
}

/// The split f32 vocab table and its screening bounds.
#[derive(Debug, PartialEq)]
pub(crate) struct VocabTable {
    /// `rows × cols` weights in split order, in the checkpoint's buffer.
    words: Vec<f32>,
    cols: usize,
    /// Computed from the table by the first greedy call, so a table no
    /// greedy step reads — an int8 model's embedding, the classifier of
    /// a model that serves only drawing samplers — never pays for them.
    bounds: OnceLock<Bounds>,
}

/// What the certificate needs of the table, rounded up.
#[derive(Debug, PartialEq)]
struct Bounds {
    /// Row `r` of the split rows ([`ops::split_rows`]): an upper bound on
    /// `e_r + 2γ·n_r`, where `e_r = ‖w_r − hi_r‖₂`, `n_r = ‖w_r‖₂` and
    /// `γ = n·u / (1 − n·u)` for `n = cols`, `u = 2⁻²⁴`.
    error: Vec<f32>,
    /// The largest of `error`.
    error_max: f32,
    /// An upper bound on every row's `n_r`; +∞ when a weight is not
    /// finite, which sends every greedy step to the full classifier.
    norm_max: f64,
}

/// Adds weight `v`'s terms to its row's sums in f64: `(v − hi)²` to `e2`,
/// where `hi` is its high half, and `v²` to `n2`.
fn add_squares(v: f32, e2: &mut f64, n2: &mut f64) {
    let high = f32::from_bits(v.to_bits() & 0xFFFF_0000);
    let low = f64::from(v) - f64::from(high);
    *e2 += low * low;
    *n2 += f64::from(v) * f64::from(v);
}

impl Bounds {
    /// Row by row in f64, each row's terms summed in column order: the
    /// split rows group by group, in the order the words are stored, and
    /// the tail rows read back one by one.
    fn new(table: &VocabTable) -> Self {
        let (rows, cols) = (table.rows(), table.cols);
        let nu = cols as f64 / (1u64 << 24) as f64;
        let gamma = nu / (1.0 - nu) * (1.0 + SLACK);
        let split = ops::split_rows(rows);
        let mut sums = vec![(0.0f64, 0.0f64); rows];
        for (g, group) in sums[..split].chunks_exact_mut(ops::SPLIT_GROUP).enumerate() {
            // Word `i` of a column holds rows `i` and `i + 16` of the group.
            let (top, bottom) = group.split_at_mut(ops::GROUP_WORDS);
            let (high, low) = ops::split_group(table.words(), cols, g);
            for (high, low) in high
                .chunks_exact(ops::GROUP_WORDS)
                .zip(low.chunks_exact(ops::GROUP_WORDS))
            {
                for (i, (&h, &l)) in high.iter().zip(low).enumerate() {
                    let (h, l) = (h.to_bits(), l.to_bits());
                    let (e2, n2) = &mut top[i];
                    add_squares(f32::from_bits(h & 0xFFFF_0000 | l >> 16), e2, n2);
                    let (e2, n2) = &mut bottom[i];
                    add_squares(f32::from_bits(h << 16 | l & 0xFFFF), e2, n2);
                }
            }
        }
        let mut row = vec![0.0f32; cols];
        for (r, (e2, n2)) in sums.iter_mut().enumerate().skip(split) {
            table.row(r).copy_to(&mut row);
            for &v in &row {
                add_squares(v, e2, n2);
            }
        }
        let mut error = Vec::with_capacity(split);
        let mut norm_max = 0.0f64;
        for (r, &(e2, n2)) in sums.iter().enumerate() {
            let n = root_up(n2);
            norm_max = if n.is_finite() {
                norm_max.max(n)
            } else {
                f64::INFINITY
            };
            if r < split {
                error.push(f32_up((root_up(e2) + 2.0 * gamma * n) * (1.0 + SLACK)));
            }
        }
        let error_max = error.iter().fold(0.0f32, |m, &e| m.max(e));
        Self {
            error,
            error_max,
            norm_max,
        }
    }
}

/// What one [`VocabTable::greedy`] call did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GreedyCounts {
    /// Rows scored.
    pub(crate) rows: usize,
    /// Candidates rescored over all certified rows, tail rows included.
    pub(crate) candidates: usize,
    /// Rows that ran the full classifier instead (non-finite or huge
    /// activations, or non-finite weights).
    pub(crate) fallbacks: usize,
}

impl VocabTable {
    /// Takes over a row-major `rows × cols` checkpoint matrix, re-laid in
    /// place in split order.
    pub(crate) fn new(mut words: Vec<f32>, rows: usize, cols: usize) -> Self {
        assert!(cols <= MAX_COLS, "{cols} columns exceed the bound's slack");
        ops::to_split_order(&mut words, rows, cols);
        Self {
            words,
            cols,
            bounds: OnceLock::new(),
        }
    }

    /// Vocabulary rows.
    pub(crate) fn rows(&self) -> usize {
        self.words.len() / self.cols
    }

    /// The weight words, split order.
    pub(crate) fn words(&self) -> &[f32] {
        &self.words
    }

    /// Heap bytes of the weights. The screening bounds (4 bytes a row,
    /// once a greedy call has computed them) are derived, not weights,
    /// and are not counted.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.words.capacity() * 4
    }

    /// Row `r`, read in place.
    pub(crate) fn row(&self, r: usize) -> KernelRow<'_> {
        ops::split_order_row(&self.words, self.cols, r)
    }

    /// The exact GEMM over the table.
    pub(crate) fn exact(&self) -> Gemm<'_> {
        Gemm::SplitExact(&self.words, self.cols)
    }

    /// Greedy rows for the activation rows `xs` (`n × cols`, each already
    /// final-normed): `out` (`n × rows`, sequence-major) gets, per row,
    /// the exact logit at every candidate and −∞ elsewhere. One screen
    /// GEMM streams the high halves for all `n` rows into the row-major
    /// scratch `screen` (for one row, straight into `out`), through the
    /// batch-major scratch `xt`, on `cores`.
    pub(crate) fn greedy<'w>(
        &'w self,
        out: &mut [f32],
        xs: &[f32],
        xt: &mut [f32],
        screen: &mut [f32],
        cores: &mut Cores<'_, 'w>,
    ) -> GreedyCounts {
        let (rows, cols) = (self.rows(), self.cols);
        let n = xs.len() / cols;
        let (xt, screen) = (&mut xt[..cols * n], &mut screen[..rows * n]);
        ops::transpose_batch_major_into(xt, xs, cols, n);
        let gemm = Gemm::SplitScreen(&self.words, cols);
        if n == 1 {
            // One row: the row-major result is already sequence-major.
            cores.run(gemm, &mut out[..rows], xt, 0..rows, 1);
        } else {
            cores.run(gemm, screen, xt, 0..rows, n);
            crate::forward::scatter_to_seq(&mut out[..n * rows], screen, rows, n);
        }
        let mut counts = GreedyCounts {
            rows: n,
            ..GreedyCounts::default()
        };
        for (out, x) in out.chunks_exact_mut(rows).zip(xs.chunks_exact(cols)) {
            match self.certify(out, x) {
                Some(candidates) => counts.candidates += candidates,
                None => {
                    counts.fallbacks += 1;
                    self.exact().run(out, x, 0..rows, 1);
                }
            }
        }
        counts
    }

    /// Turns one row of screened logits `out` for activations `x` into a
    /// greedy row, and returns its candidate count; `None` leaves `out`
    /// untouched when the bound does not hold for `x`.
    ///
    /// With `s_r` the screened logit and `‖x‖₂` rounded up, `|exact_r −
    /// s_r| ≤ B_r = ‖x‖₂·(e_r + 2γ·n_r) + 2n·2⁻¹⁴⁹`: Cauchy–Schwarz bounds
    /// `(w_r − hi_r)·x` by `e_r·‖x‖₂` and `Σ|w_i·x_i|` by `n_r·‖x‖₂`;
    /// Higham's recursive-dot bound gives each of the two f32 dots (mul
    /// then add) an error of at most `γ·Σ|w_i·x_i|` — for the screen too,
    /// as `|hi_i| ≤ |w_i|` (truncation is toward zero) — plus `n·2⁻¹⁴⁹`
    /// for underflowing products. That needs no overflow, so `x` with
    /// `‖x‖₂·max n_r` near `f32::MAX` (NaN and ±∞ included) is refused.
    ///
    /// Every `B_r` is evaluated in f64 with a relative and an `|s_r|`
    /// slack that its own rounding and that of `s_r ± B_r` cannot eat, so
    /// the computed `s_r − B_r` is a lower and `s_r + B_r` an upper bound
    /// of the exact logit. `L = max_r(s_r − B_r)` is then at most the
    /// exact logit of its row, a candidate, and a row with `s_r + B_r <
    /// L` is strictly below that: it can never win, not even a tie. The
    /// tail rows were screened exactly and all stay.
    fn certify(&self, out: &mut [f32], x: &[f32]) -> Option<usize> {
        const LANES: usize = 16;
        const GROUP: usize = 4 * LANES;
        let bounds = self.bounds.get_or_init(|| Bounds::new(self));
        let norm = root_up(x.iter().map(|&v| f64::from(v) * f64::from(v)).sum());
        // False for a NaN norm too.
        let fits = norm * bounds.norm_max <= f64::from(f32::MAX) / 2.0;
        if !fits {
            return None;
        }
        let underflow = 2.0 * self.cols as f64 * f64::from(f32::from_bits(1));
        let bound = |s: f32, e: f32| {
            (norm * f64::from(e) + underflow) * (1.0 + SLACK) + f64::from(s).abs() * SLACK
        };
        let split = bounds.error.len();
        // Per group of rows, the largest screened logit and the largest
        // magnitude, in f32 lanes the compiler can vectorize; NaN rows,
        // never candidates, are passed over.
        let max = |m: f32, v: f32| if v > m { v } else { m };
        let tops: Vec<(f32, f32)> = out[..split]
            .chunks(GROUP)
            .map(|group| {
                let (mut top, mut mag) = ([f32::NEG_INFINITY; LANES], [0.0f32; LANES]);
                for block in group.chunks(LANES) {
                    for ((t, m), &s) in top.iter_mut().zip(&mut mag).zip(block) {
                        *t = max(*t, s);
                        *m = max(*m, s.abs());
                    }
                }
                let top = top.into_iter().fold(f32::NEG_INFINITY, max);
                (top, mag.into_iter().fold(0.0, max))
            })
            .collect();
        let groups = || {
            (0..split)
                .step_by(GROUP)
                .map(|r0| r0..(r0 + GROUP).min(split))
        };
        // Every computed `s − B` is at most `s` (`B ≥ 0`, and rounding is
        // monotone), so a group whose top is not above the running floor
        // leaves it where the fold over every row would.
        let mut floor = f64::NEG_INFINITY;
        for (rows, &(top, _)) in groups().zip(&tops) {
            if f64::from(top) <= floor {
                continue;
            }
            for (&s, &e) in out[rows.clone()].iter().zip(&bounds.error[rows]) {
                let v = f64::from(s) - bound(s, e);
                if v > floor {
                    floor = v;
                }
            }
        }
        let is_candidate = |s: f32, e: f32| f64::from(s) + bound(s, e) >= floor;

        // A group whose top plus the bound at its largest magnitude and
        // the largest error falls short of the floor holds no candidate:
        // every operation of `s + B` is monotone in `s`, `|s|` and `e`.
        // The other groups, few, are tested row by row; adjacent
        // candidates are rescored as one row range.
        let mut candidates = 0;
        let mut run: Option<std::ops::Range<usize>> = None;
        for (rows, &(top, mag)) in groups().zip(&tops) {
            if f64::from(top) + bound(mag, bounds.error_max) < floor {
                out[rows].fill(f32::NEG_INFINITY);
                continue;
            }
            for r in rows {
                if !is_candidate(out[r], bounds.error[r]) {
                    out[r] = f32::NEG_INFINITY;
                    continue;
                }
                candidates += 1;
                if let Some(run) = run.as_mut().filter(|run| run.end == r) {
                    run.end += 1;
                } else if let Some(done) = run.replace(r..r + 1) {
                    self.exact().run(&mut out[done.clone()], x, done, 1);
                }
            }
        }
        if let Some(done) = run {
            self.exact().run(&mut out[done.clone()], x, done, 1);
        }
        Some(candidates + self.rows() - split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use crate::sampler::argmax;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// A `rows × cols` matrix for activations `x`, with the hazards the
    /// screen must survive planted in it: a row pointing along `x`
    /// duplicated later (an exact tie, the first must win), a near-rival
    /// and its twin that differs only in the low halves (the screen
    /// cannot separate them), a row of subnormals, subnormal weights
    /// scattered elsewhere, and a pair the screen ranks wrongly. Where the
    /// planted rows land — split rows or tail rows — varies with the seed.
    fn matrix(rows: usize, cols: usize, x: &[f32], rng: &mut Xoshiro256) -> Vec<f32> {
        let mut w = vec![0.0f32; rows * cols];
        rng.fill_normal(&mut w, 0.05);
        let norm = x.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-3);
        let pick = |rng: &mut Xoshiro256| rng.below(rows as u64) as usize;
        let plant = |w: &mut [f32], r: usize, scale: f32| {
            for (o, &v) in w[r * cols..(r + 1) * cols].iter_mut().zip(x) {
                *o = v / norm * scale;
            }
        };
        let (a, b) = (pick(rng), pick(rng));
        plant(&mut w, a, 0.5);
        if b != a {
            w.copy_within(a * cols..(a + 1) * cols, b * cols);
        }
        let (c, d) = (pick(rng), pick(rng));
        if c != a && c != b && d != a && d != b && d != c {
            plant(
                &mut w,
                c,
                0.5 * (1.0 + f32::EPSILON * rng.range_f32(-4.0, 4.0)),
            );
            for i in 0..cols {
                let v = w[c * cols + i].to_bits();
                w[d * cols + i] = f32::from_bits(v ^ (rng.next_u32() & 0xFF));
            }
        }
        let e = pick(rng);
        if ![a, b, c, d].contains(&e) {
            for v in &mut w[e * cols..(e + 1) * cols] {
                *v = f32::from_bits(rng.next_u32() & 0x8007_FFFF);
            }
        }
        for v in w.iter_mut().step_by(41) {
            *v = f32::from_bits(v.to_bits() & 0x8000_FFFF);
        }
        // A pair the screen ranks the wrong way round, above all the rest:
        // `f` with every low half at its largest (the larger exact
        // logit), `g` with the same high halves, its low halves cleared
        // and the high half of `x`'s smallest column one bf16 step larger
        // (the larger screened logit). Only a bound as wide as `f`'s low
        // halves keeps `f`.
        let (f, g) = (pick(rng), pick(rng));
        if f != g && ![a, b, c, d, e].contains(&f) && ![a, b, c, d, e].contains(&g) {
            plant(&mut w, f, 0.51);
            let j = (0..cols)
                .min_by(|&i, &k| x[i].abs().total_cmp(&x[k].abs()))
                .expect("a column");
            for i in 0..cols {
                let v = w[f * cols + i].to_bits();
                let step = if i == j { 0x1_0000 } else { 0 };
                w[f * cols + i] = f32::from_bits(v | 0xFFFF);
                w[g * cols + i] = f32::from_bits((v & 0xFFFF_0000) + step);
            }
        }
        w
    }

    /// Greedy rows for `xs` against the exact rows `dot(w_r, x)`.
    fn check(w: &[f32], rows: usize, cols: usize, xs: &[f32], case: &str) -> GreedyCounts {
        let table = VocabTable::new(w.to_vec(), rows, cols);
        let n = xs.len() / cols;
        let mut out = vec![f32::NAN; n * rows];
        let (mut xt, mut screen) = (vec![0.0; n * cols], vec![0.0; n * rows]);
        let counts = crate::cores::with_cores(&mut Default::default(), usize::MAX, |cores| {
            table.greedy(&mut out, xs, &mut xt, &mut screen, cores)
        });
        assert_eq!(counts.rows, n, "{case}");
        let mut kept = 0;
        for (b, (got, x)) in out
            .chunks_exact(rows)
            .zip(xs.chunks_exact(cols))
            .enumerate()
        {
            let want: Vec<f32> = w.chunks_exact(cols).map(|row| ops::dot(row, x)).collect();
            assert_eq!(argmax(got), argmax(&want), "{case} lane {b}");
            let finite_input = x.iter().all(|v| v.is_finite());
            for (r, (&g, &e)) in got.iter().zip(&want).enumerate() {
                if g == f32::NEG_INFINITY && finite_input {
                    continue;
                }
                kept += 1;
                let same = g.to_bits() == e.to_bits() || (g.is_nan() && e.is_nan());
                assert!(same, "{case} lane {b} row {r}: {g} vs exact {e}");
            }
        }
        let certified = n - counts.fallbacks;
        assert!(
            counts.candidates >= certified,
            "{case}: a candidate per row"
        );
        assert!(kept >= counts.candidates, "{case}");
        counts
    }

    /// The generated property: over every shape, a greedy row's argmax is
    /// the full row's, first-index ties included, and every value it
    /// keeps is the exact logit bit for bit.
    #[test]
    fn greedy_rows_keep_the_argmax_and_the_exact_values() {
        let mut candidates = Vec::new();
        for rows in [1usize, 7, 8, 15, 16, 17, 45, 64, 1000] {
            for cols in [16usize, 17, 288] {
                for seed in 0..8u64 {
                    let mut rng =
                        Xoshiro256::seed_from_u64(seed * 7919 + (rows * 1000 + cols) as u64);
                    let mut x = vec![0.0f32; cols];
                    rng.fill_normal(&mut x, 1.0);
                    let w = matrix(rows, cols, &x, &mut rng);
                    let mut xs = x.clone();
                    let mut other = vec![0.0f32; cols];
                    rng.fill_normal(&mut other, 3.0);
                    xs.extend(&other);
                    let case = format!("{rows}x{cols} seed {seed}");
                    let counts = check(&w, rows, cols, &xs, &case);
                    assert_eq!(counts.fallbacks, 0, "{case}");
                    if rows == 1000 {
                        candidates.push(counts.candidates - 8 * 2);
                    }
                }
            }
        }
        // 1000 rows keep 8 tail rows per lane; of two lanes' split rows the
        // screen keeps a few: the planted ties and twins, which it cannot
        // separate, and no more.
        assert!(
            candidates.iter().all(|&c| (2..=8).contains(&c)),
            "{candidates:?}"
        );
        assert!(candidates.iter().any(|&c| c >= 4), "{candidates:?}");
    }

    /// Activations the bound cannot take — NaN, ±∞, or so large that a dot
    /// could overflow — and weights that are not finite run the full
    /// classifier for that row; the other rows of the call stay greedy.
    #[test]
    fn rows_the_bound_cannot_take_fall_back_to_the_full_classifier() {
        let (rows, cols) = (1000, 17);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut x = vec![0.0f32; cols];
        rng.fill_normal(&mut x, 1.0);
        let w = matrix(rows, cols, &x, &mut rng);
        // The last: four finite 3e38s, a norm no weight row's can meet.
        for (i, bad) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3e38]
            .into_iter()
            .enumerate()
        {
            let mut xs = x.clone();
            let mut y = x.clone();
            y[i * 4..=i * 4 + i / 3 * 3].fill(bad);
            xs.extend(&y);
            let counts = check(&w, rows, cols, &xs, &format!("x[{}] = {bad}", i * 4));
            assert_eq!((counts.rows, counts.fallbacks), (2, 1), "{bad}");
        }
        for bad in [f32::NAN, f32::INFINITY] {
            let mut w = w.clone();
            w[3 * cols + 2] = bad;
            let counts = check(&w, rows, cols, &x, &format!("w = {bad}"));
            assert_eq!(counts.fallbacks, 1, "{bad}");
        }
    }

    /// The bounds summed row by row, each row read back from split order.
    #[test]
    fn bounds_sum_each_row_as_it_reads_back() {
        for (rows, cols) in [(1usize, 16usize), (45, 17), (1000, 288), (1056, 16)] {
            let mut w = vec![0.0f32; rows * cols];
            let mut rng = Xoshiro256::seed_from_u64((rows + cols) as u64);
            rng.fill_normal(&mut w, 1.0);
            for v in w.iter_mut().step_by(37) {
                *v = f32::from_bits(rng.next_u32() & 0x8007_FFFF);
            }
            let table = VocabTable::new(w, rows, cols);
            let nu = cols as f64 / (1u64 << 24) as f64;
            let gamma = nu / (1.0 - nu) * (1.0 + SLACK);
            let (mut error, mut norm_max) = (Vec::new(), 0.0f64);
            let mut row = vec![0.0f32; cols];
            for r in 0..rows {
                table.row(r).copy_to(&mut row);
                let (mut e2, mut n2) = (0.0f64, 0.0f64);
                for &v in &row {
                    add_squares(v, &mut e2, &mut n2);
                }
                let n = root_up(n2);
                norm_max = norm_max.max(n);
                if r < ops::split_rows(rows) {
                    error.push(f32_up((root_up(e2) + 2.0 * gamma * n) * (1.0 + SLACK)));
                }
            }
            let got = Bounds::new(&table);
            assert_eq!(bits(&got.error), bits(&error), "{rows}x{cols}");
            assert_eq!(got.norm_max.to_bits(), norm_max.to_bits(), "{rows}x{cols}");
            let top = error.iter().fold(0.0f32, |m, &e| m.max(e));
            assert_eq!(got.error_max.to_bits(), top.to_bits(), "{rows}x{cols}");
        }
    }

    /// [`VocabTable::certify`] without its group screen: the floor folded
    /// over every row, then every row tested on its own and each
    /// candidate rescored alone.
    fn certify_row_by_row(table: &VocabTable, out: &mut [f32], x: &[f32]) -> Option<usize> {
        let bounds = table.bounds.get_or_init(|| Bounds::new(table));
        let norm = root_up(x.iter().map(|&v| f64::from(v) * f64::from(v)).sum());
        // False for a NaN norm too.
        let fits = norm * bounds.norm_max <= f64::from(f32::MAX) / 2.0;
        if !fits {
            return None;
        }
        let underflow = 2.0 * table.cols as f64 * f64::from(f32::from_bits(1));
        let bound = |s: f32, e: f32| {
            (norm * f64::from(e) + underflow) * (1.0 + SLACK) + f64::from(s).abs() * SLACK
        };
        let split = bounds.error.len();
        let floor = out[..split]
            .iter()
            .zip(&bounds.error)
            .map(|(&s, &e)| f64::from(s) - bound(s, e))
            .fold(f64::NEG_INFINITY, |m, v| if v > m { v } else { m });
        let mut candidates = 0;
        for r in 0..split {
            if f64::from(out[r]) + bound(out[r], bounds.error[r]) >= floor {
                candidates += 1;
                table.exact().run(&mut out[r..=r], x, r..r + 1, 1);
            } else {
                out[r] = f32::NEG_INFINITY;
            }
        }
        Some(candidates + table.rows() - split)
    }

    /// Skipping the groups that cannot hold a candidate changes nothing:
    /// over screened rows with near-ties spread across groups, NaN, ±∞,
    /// signed zeros and all-equal rows, the certified row and its
    /// candidate count equal the row-by-row fold's, bit for bit.
    #[test]
    fn the_group_screen_certifies_what_the_row_by_row_fold_does() {
        for (rows, cols) in [(64usize, 17usize), (1000, 288), (4099, 16)] {
            let mut rng = Xoshiro256::seed_from_u64((rows * 31 + cols) as u64);
            let mut x = vec![0.0f32; cols];
            rng.fill_normal(&mut x, 1.0);
            let w = matrix(rows, cols, &x, &mut rng);
            let table = VocabTable::new(w, rows, cols);
            let mut exact = vec![0.0f32; rows];
            table.exact().run(&mut exact, &x, 0..rows, 1);
            let top = exact.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            // About the widest bound a row gets: rows this far below the
            // top straddle the floor.
            let bounds = table.bounds.get_or_init(|| Bounds::new(&table));
            let norm = x.iter().map(|&v| v * v).sum::<f32>().sqrt();
            let reach = norm * bounds.error_max;
            for variant in 0..8 {
                let mut screened = exact.clone();
                for (r, s) in screened.iter_mut().enumerate() {
                    let pick = rng.below(16);
                    *s = match variant {
                        1 if pick == 0 => f32::NAN,
                        2 if pick == 0 => f32::NEG_INFINITY,
                        3 if pick < 4 => top - reach * rng.range_f32(0.0, 4.0),
                        4 => top,
                        5 => [0.0, -0.0][r % 2],
                        6 if pick == 0 => -3e38,
                        7 if pick == 0 => f32::INFINITY,
                        _ => *s,
                    };
                }
                let (mut got, mut want) = (screened.clone(), screened);
                let case = format!("{rows}x{cols} variant {variant}");
                let n = table.certify(&mut got, &x);
                assert_eq!(n, certify_row_by_row(&table, &mut want, &x), "{case}");
                assert_eq!(bits(&got), bits(&want), "{case}");
            }
        }
    }

    /// The table keeps the checkpoint's buffer, and its rows read back.
    #[test]
    fn the_table_is_the_checkpoint_buffer_split_in_place() {
        let (rows, cols) = (1056, 16);
        let mut w = vec![0.0f32; rows * cols];
        Xoshiro256::seed_from_u64(2).fill_normal(&mut w, 1.0);
        let reference = w.clone();
        let ptr = w.as_ptr();
        let table = VocabTable::new(w, rows, cols);
        assert_eq!(table.words().as_ptr(), ptr);
        assert_eq!(table.resident_bytes(), rows * cols * 4);
        for (r, want) in reference.chunks_exact(cols).enumerate() {
            let mut got = vec![f32::NAN; cols];
            table.row(r).copy_to(&mut got);
            assert_eq!(bits(&got), bits(want), "row {r}");
        }
    }
}
