//! Deterministic pseudo-random number generation.
//!
//! Library code never depends on ambient randomness: every stochastic
//! component (synthetic weights, synthetic vocabularies, nucleus sampling)
//! takes an explicit seeded generator so that runs — and therefore tests and
//! benchmark workloads — are bit-reproducible across machines.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny, fast stream used for seeding and for cheap
//!   one-off draws.
//! * [`Xoshiro256`] — xoshiro256** 1.0, the workhorse generator used for
//!   bulk draws (weight tensors, sampling). Seeded from a `SplitMix64`
//!   stream per the authors' recommendation.
//!
//! # The certified normal fill
//!
//! [`Xoshiro256::next_normal_f32`] is the reference normal draw: Box–Muller
//! on two 53-bit uniforms, `p = r·cos θ` with `r = sqrt(-2 ln u1)` and
//! `θ = 2π·u2`, through libm's `ln` and `cos` in f64, rounded to f32.
//! [`Xoshiro256::fill_normal`], which builds every synthetic checkpoint,
//! returns exactly what a loop of it returns, about 3× faster, by
//! evaluating the same draws as `p′` with vectorizable polynomials and
//! keeping `p′ as f32` only where it provably equals `p as f32`.
//!
//! The error budget, with ε = 2⁻⁵³ (half an f64 ulp, relative):
//!
//! * **Fast path** (`fast_normal`). `u1`, `u2` and `θ` are bit for bit
//!   the reference's. `ln u1` reduces the mantissa to [√½, √2) and sums
//!   `2·atanh(s)` to `s²¹`, truncation < 2⁻⁵⁹ relative: ≤ 4ε relative, so
//!   `r′` is within 2.5ε of `r`. `cos θ` reduces by π/2 with two
//!   Cody–Waite constants (absolute error < 2⁻⁸⁰) and sums Taylor
//!   polynomials to `y¹⁵`/`y¹⁶` on |y| ≤ π/4 (truncation < 2⁻⁵⁴):
//!   ≤ 1.5ε relative plus the reduction's absolute error. With the
//!   product's rounding, |p′ − r·cos θ| ≤ 4.5ε·|p| + 2⁻⁸⁰·r.
//! * **libm.** `ln` and `cos` are documented within 1 ulp (2ε relative),
//!   so with `sqrt` and the product rounded, |p − r·cos θ| ≤ 4ε·|p|.
//! * **Margin.** `certified` charges `E = |p′|·2⁻⁴⁰ + r′·2⁻⁴⁵`. Its
//!   relative part is 2¹³ε, over 1000× the fast path's 4.5ε plus libm's
//!   4ε; its absolute part is 2³⁵ times the reduction's error. So
//!   |p′ − p| < E wherever the bounds hold.
//! * **Acceptance.** `q = p′ as f32` is kept when `|p′ − q| + E` is below
//!   half of `q`'s f32 ulp, `2^(e_q − 24)`, `q` is normal, and `q`'s
//!   mantissa is nonzero (below a power of two the ulp halves). Then
//!   p′ ± E, and so `p`, lie strictly inside `q`'s rounding interval:
//!   `p` rounds to `q`, ties included.
//! * **Refusals** (454 of the 15.2 M weights of stories15M) are
//!   recomputed from the same two draws with the reference's own
//!   expression (`box_muller`), so a refused element is exact by
//!   construction, however wide the margin.

use crate::ops::{run_isa, Isa, IsaBody};

/// SplitMix64 generator (Steele, Lea & Flood; public domain reference
/// implementation). Primarily used to expand a single `u64` seed into the
/// larger state of [`Xoshiro256`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Any seed, including zero, is
    /// valid.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** 1.0 (Blackman & Vigna; public domain reference
/// implementation). Full-period 2^256 − 1 generator with excellent
/// statistical quality for non-cryptographic use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator whose 256-bit state is expanded from `seed` with
    /// [`SplitMix64`], as recommended by the xoshiro authors.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns the next 32 pseudo-random bits (upper half of a 64-bit draw).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; dividing by 2^53 yields a uniform double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[0, 1)` with 24 bits of precision.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform draw in `[lo, hi)`. `hi` must be greater than `lo`.
    #[inline]
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        debug_assert!(hi > lo, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.next_f32()
    }

    /// Unbiased uniform draw in `[0, n)` using Lemire's multiply-shift
    /// rejection method. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is an empty range");
        // Lemire 2019: multiply a 64-bit draw by n, reject the biased slice.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Standard normal draw (Box–Muller transform).
    pub fn next_normal_f32(&mut self) -> f32 {
        // Draw u1 in (0, 1] to keep ln finite.
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        (r * theta.cos()) as f32
    }

    /// Fills `out` with i.i.d. normal draws scaled by `std`: exactly
    /// `next_normal_f32() * std` per element, in order, leaving the
    /// generator where that loop leaves it.
    ///
    /// A chunk of 4096 elements takes its draws in stream order, then
    /// evaluates each `r·cos θ` as `p′` with the branch-free f64
    /// polynomials of `fast_normal`, in the widest vector copy this CPU
    /// runs (`ops::run_isa`), and keeps `q = p′ as f32` only where
    /// `certified` proves that libm's `p` rounds to the same `q`. The
    /// elements it refuses (about 3 in 100,000) are recomputed from the
    /// same two draws with `next_normal_f32`'s own expression
    /// (`box_muller`), so every element is the reference's whatever
    /// the margin refuses. The error budget is in the module doc.
    pub fn fill_normal(&mut self, out: &mut [f32], std: f32) {
        run_isa(
            NormalFill {
                rng: self,
                out,
                std,
            },
            Isa::Avx512,
        );
    }
}

/// Elements per chunk of [`Xoshiro256::fill_normal`]: its draws, two
/// `u64`s an element, live on the stack (64 KiB), whatever the tensor.
const CHUNK: usize = 4096;

/// One [`Xoshiro256::fill_normal`] call, compiled per instruction set by
/// [`run_isa`]; it returns how many elements the certificate refused.
struct NormalFill<'a> {
    rng: &'a mut Xoshiro256,
    out: &'a mut [f32],
    std: f32,
}

impl IsaBody for NormalFill<'_> {
    type Output = usize;

    fn wants_avx512(&self) -> bool {
        true
    }

    /// The fill steps no row tiles, so every `T` runs the same body.
    #[inline(always)]
    fn run<const T: usize>(self) -> usize {
        let mut first = [0u64; CHUNK];
        let mut second = [0u64; CHUNK];
        let mut refused = 0;
        for out in self.out.chunks_mut(CHUNK) {
            let (first, second) = (&mut first[..out.len()], &mut second[..out.len()]);
            for (a, b) in first.iter_mut().zip(second.iter_mut()) {
                (*a, *b) = (self.rng.next_u64(), self.rng.next_u64());
            }
            // Branch-free, so it vectorizes; a refused element is NaN.
            for ((v, &a), &b) in out.iter_mut().zip(&*first).zip(&*second) {
                let (p, r) = fast_normal(a, b);
                *v = certified(p, r) * self.std;
            }
            for ((v, &a), &b) in out.iter_mut().zip(&*first).zip(&*second) {
                if v.is_nan() {
                    *v = box_muller(a, b) * self.std;
                    refused += 1;
                }
            }
        }
        refused
    }
}

/// [`Xoshiro256::next_normal_f32`]'s expression on the two draws it takes.
fn box_muller(a: u64, b: u64) -> f32 {
    let unit = |x: u64| (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let u1 = 1.0 - unit(a);
    let u2 = unit(b);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos()) as f32
}

/// The bits of 1.0.
const ONE: u64 = 0x3FF0_0000_0000_0000;
/// The bits of √½, the bottom of the reduced mantissa's range.
const SQRT_HALF: u64 = 0x3FE6_A09E_667F_3BCD;
/// The bits of 2⁵², whose ulp is 1: `from_bits(EXP52 | n) − 2⁵² = n`.
const EXP52: u64 = 0x4330_0000_0000_0000;
/// ln 2 in two parts (fdlibm's split): the high one's low 21 bits are
/// zero, so `k·LN2_HI` is exact for any exponent `k`.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
/// π/2 in two parts (fdlibm's `pio2_1`, `pio2_1t`): the high one's low
/// 22 bits are zero, so `n·PIO2_HI` is exact for the quadrants `n ≤ 4`.
const PIO2_HI: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);
const PIO2_LO: f64 = f64::from_bits(0x3DD0_B461_1A62_6331);
/// 1.5·2⁵²: adding and subtracting it rounds an f64 below 2⁵¹ to the
/// nearest integer, which the sum holds in its low mantissa bits.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// `2·atanh(s) = 2s + 2s·z·Σ ATANH[j]·z^j`, `z = s²`: `1/(2j + 3)`, to
/// `s²¹`.
const ATANH: [f64; 10] = [
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
    1.0 / 17.0,
    1.0 / 19.0,
    1.0 / 21.0,
];
/// `sin y = y + y·z·Σ SIN[j]·z^j`, `z = y²` (Taylor, to `y¹⁵`).
const SIN: [f64; 7] = [
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5_040.0,
    1.0 / 362_880.0,
    -1.0 / 39_916_800.0,
    1.0 / 6_227_020_800.0,
    -1.0 / 1_307_674_368_000.0,
];
/// `cos y = 1 − z/2 + z²·Σ COS[j]·z^j`, `z = y²` (Taylor, to `y¹⁶`).
const COS: [f64; 7] = [
    1.0 / 24.0,
    -1.0 / 720.0,
    1.0 / 40_320.0,
    -1.0 / 3_628_800.0,
    1.0 / 479_001_600.0,
    -1.0 / 87_178_291_200.0,
    1.0 / 20_922_789_888_000.0,
];

/// `Σ c[j]·z^j`: Horner's rule on `z²` over the even and the odd
/// coefficients, two chains half as long, so the vector body waits on
/// half the latency.
#[inline(always)]
fn poly(z: f64, c: &[f64]) -> f64 {
    let z2 = z * z;
    horner(z2, c.iter().step_by(2)) + z * horner(z2, c.iter().skip(1).step_by(2))
}

/// `Σ c[j]·z^j` over the coefficients `c`, by Horner's rule.
#[inline(always)]
fn horner<'a>(z: f64, mut c: impl DoubleEndedIterator<Item = &'a f64>) -> f64 {
    let last = c.next_back().copied().unwrap_or(0.0);
    c.rev().fold(last, |acc, &c| acc * z + c)
}

/// `(x >> 11) as f64 · 2⁻⁵³`, the reference's uniform, without a `u64`
/// conversion (which has no vector instruction below AVX-512DQ): the top
/// 52 bits as the mantissa of a number in [1, 2), then bit 11 as 2⁻⁵³.
/// Both steps are exact.
#[inline(always)]
fn unit_f64(x: u64) -> f64 {
    let high = f64::from_bits(ONE | x >> 12) - 1.0;
    high + f64::from_bits((x >> 11 & 1).wrapping_neg() & 0x3CA0_0000_0000_0000)
}

/// `ln u` for `u` in (0, 1], within 4ε relative: `u = 2^k·m` with `m` in
/// [√½, √2) (musl's offset trick, on the bits), then `ln m = 2·atanh(s)`
/// with `s = (m − 1)/(m + 1)`, |s| ≤ 0.172.
#[inline(always)]
fn ln_fast(u: f64) -> f64 {
    let ix = u.to_bits().wrapping_add(ONE - SQRT_HALF);
    let k = (f64::from_bits(EXP52 | ix >> 52) - f64::from_bits(EXP52)) - 1023.0;
    let f = f64::from_bits((ix & 0x000F_FFFF_FFFF_FFFF) + SQRT_HALF) - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let two_s = s + s;
    k * LN2_HI + (two_s + (two_s * z * poly(z, &ATANH) + k * LN2_LO))
}

/// `cos θ` for `θ` in [0, 2π], within 1.5ε relative plus 2⁻⁸⁰: the
/// nearest quadrant `n`, `y = θ − n·π/2` in two Cody–Waite steps, then
/// `±cos y` or `±sin y`, both evaluated and one picked on the bits.
#[inline(always)]
fn cos_fast(theta: f64) -> f64 {
    let t = theta * std::f64::consts::FRAC_2_PI + ROUND;
    let n = t.to_bits();
    let nf = t - ROUND;
    let y = (theta - nf * PIO2_HI) - nf * PIO2_LO;
    let z = y * y;
    let sin = y + y * z * poly(z, &SIN);
    let cos = 1.0 - 0.5 * z + z * z * poly(z, &COS);
    // Quadrants 1 and 3 take sin; 1 and 2 negate.
    let odd = (n & 1).wrapping_neg();
    let value = (sin.to_bits() & odd) | (cos.to_bits() & !odd);
    f64::from_bits(value ^ (n.wrapping_add(1) & 2) << 62)
}

/// `(p′, r′)`: the fast path's `r·cos θ` and `r` for the draws `a`, `b`
/// that [`box_muller`] turns into `p`.
#[inline(always)]
fn fast_normal(a: u64, b: u64) -> (f64, f64) {
    let u1 = 1.0 - unit_f64(a);
    let theta = 2.0 * std::f64::consts::PI * unit_f64(b);
    let r = (-2.0 * ln_fast(u1)).sqrt();
    (r * cos_fast(theta), r)
}

/// `p′ as f32` where it certifies `p as f32` for every `p` within
/// `E = |p′|·2⁻⁴⁰ + r′·2⁻⁴⁵` of `p′`, else NaN: accepted only when
/// `|p′ − q| + E` is below half of `q`'s ulp, `q` is normal and `q`'s
/// mantissa is nonzero (so the ulp below `q` is `q`'s own). Branch-free;
/// its own roundings are below 2⁻⁷⁷·|p′|, far inside `E`.
#[inline(always)]
fn certified(p: f64, r: f64) -> f32 {
    let q = p as f32;
    let margin = p.abs() * f64::from_bits(0x3D70_0000_0000_0000) // 2⁻⁴⁰
        + r * f64::from_bits(0x3D20_0000_0000_0000); // 2⁻⁴⁵
    let bits = q.to_bits();
    let half_ulp =
        f64::from(f32::from_bits(bits & 0x7F80_0000)) * f64::from_bits(0x3E70_0000_0000_0000); // 2⁻²⁴
    let inside = (p - f64::from(q)).abs() + margin < half_ulp;
    if inside && bits & 0x007F_FFFF != 0 {
        q
    } else {
        f32::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedllm_testkit::prelude::*;

    /// One copy of the fill: the dispatch capped at an instruction set
    /// (each copy the CPU lacks falls back to the next narrower one), or
    /// the body at the build's baseline.
    #[derive(Clone, Copy, Debug)]
    enum FillCopy {
        Capped(Isa),
        Baseline,
    }

    const COPIES: [FillCopy; 3] = [
        FillCopy::Capped(Isa::Avx512),
        FillCopy::Capped(Isa::Avx2),
        FillCopy::Baseline,
    ];

    /// `copy`'s fill of `len` elements from `seed`: the output bits, the
    /// generator's next draw, and how many elements the certificate
    /// refused.
    fn fill(copy: FillCopy, seed: u64, std: f32, len: usize) -> (Vec<u32>, u64, usize) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut out = vec![f32::NAN; len];
        let fill = NormalFill {
            rng: &mut rng,
            out: &mut out,
            std,
        };
        let refused = match copy {
            FillCopy::Capped(isa) => run_isa(fill, isa),
            FillCopy::Baseline => fill.run::<1>(),
        };
        (
            out.iter().map(|v| v.to_bits()).collect(),
            rng.next_u64(),
            refused,
        )
    }

    /// The reference: a loop of `next_normal_f32() * std`, and the next
    /// draw after it.
    fn draw_loop(seed: u64, std: f32, len: usize) -> (Vec<u32>, u64) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let out = (0..len)
            .map(|_| (rng.next_normal_f32() * std).to_bits())
            .collect();
        (out, rng.next_u64())
    }

    props! {
        #![config(cases = 48)]

        /// Every copy of `fill_normal` equals the one-draw-at-a-time loop
        /// bit for bit and leaves the generator where the loop does, over
        /// lengths on and around the chunk boundary.
        fn fill_normal_replays_the_draw_loop_in_every_copy(
            seed in any_u64(),
            std_pick in 0usize..4,
            any_std in 0.001f32..3.0,
            len_pick in 0usize..6,
            any_len in 0usize..3 * CHUNK,
        ) {
            let std = [1.0, 0.02, -0.5, any_std][std_pick];
            let len = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, any_len][len_pick];
            let (want, next) = draw_loop(seed, std, len);
            for copy in COPIES {
                let (got, after, _) = fill(copy, seed, std, len);
                let first = got.iter().zip(&want).position(|(g, w)| g != w);
                prop_assert!(first.is_none(), "{copy:?} seed {seed} std {std} len {len}: element {first:?}");
                prop_assert_eq!(after, next);
            }
        }
    }

    /// A stream long enough to hold refused elements: each copy refuses
    /// some, and recomputes them to the loop's values.
    #[test]
    fn refused_elements_take_the_reference_expression_in_every_copy() {
        let len = 1 << 18;
        let (want, next) = draw_loop(42, 0.02, len);
        for copy in COPIES {
            let (got, after, refused) = fill(copy, 42, 0.02, len);
            assert!(refused > 0, "{copy:?}: no element refused in {len}");
            assert!(refused < len / 1000, "{copy:?}: {refused} of {len} refused");
            assert!(got == want, "{copy:?}: the fill left the draw loop");
            assert_eq!(after, next, "{copy:?}");
        }
    }

    /// `box_muller` on the two draws `next_normal_f32` takes is that draw.
    #[test]
    fn box_muller_is_next_normal_on_the_same_draws() {
        let mut rng = Xoshiro256::seed_from_u64(12);
        for _ in 0..10_000 {
            let mut replay = rng.clone();
            let (a, b) = (replay.next_u64(), replay.next_u64());
            assert_eq!(box_muller(a, b).to_bits(), rng.next_normal_f32().to_bits());
        }
        assert_eq!(box_muller(0, 0).to_bits(), (-0.0f32).to_bits());
    }

    /// The split constants are the f64 `ln 2` and `π/2` to well past an
    /// f64 ulp: `ln 2 − LN_2` and `π/2 − FRAC_PI_2` are known values.
    #[test]
    fn split_constants_carry_the_extra_bits() {
        use std::f64::consts::{FRAC_PI_2, LN_2};
        let ln2_rest = (LN_2 - LN2_HI) - LN2_LO;
        assert!((ln2_rest + 2.319_046_813_846_299_6e-17).abs() < 1e-25);
        let pio2_rest = (FRAC_PI_2 - PIO2_HI) - PIO2_LO;
        assert!((pio2_rest + 6.123_233_995_736_766e-17).abs() < 1e-25);
        assert_eq!(LN2_HI.to_bits() & 0x1F_FFFF, 0);
        assert_eq!(PIO2_HI.to_bits() & 0x3F_FFFF, 0);
    }

    /// `p′` sits within 1/100 of the margin of libm's `p` on every draw
    /// of a long stream and on the edge draws (`u1` = 1 and 2⁻⁵³, `θ` at
    /// and beside each quadrant boundary): the bound the certificate
    /// relies on, with room to spare.
    #[test]
    fn fast_path_stays_far_inside_the_margin() {
        let exact = |a: u64, b: u64| {
            let unit = |x: u64| (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let r = (-2.0 * (1.0 - unit(a)).ln()).sqrt();
            (r * (2.0 * std::f64::consts::PI * unit(b)).cos(), r)
        };
        let quarter = 1u64 << 62;
        let mut draws: Vec<(u64, u64)> = [0, 1 << 11, u64::MAX, quarter, 3 << 61]
            .iter()
            .flat_map(|&a| {
                (0..5u64).flat_map(move |n| {
                    let b = n.wrapping_mul(quarter);
                    [b, b.wrapping_add(1 << 11), b.wrapping_sub(1 << 11)].map(|b| (a, b))
                })
            })
            .collect();
        let mut rng = Xoshiro256::seed_from_u64(13);
        draws.extend((0..1 << 18).map(|_| (rng.next_u64(), rng.next_u64())));
        for (a, b) in draws {
            let (fast, r_fast) = fast_normal(a, b);
            let (p, r) = exact(a, b);
            let margin = fast.abs() * 2f64.powi(-40) + r_fast * 2f64.powi(-45);
            assert!(
                (fast - p).abs() * 100.0 <= margin,
                "draws {a:#x} {b:#x}: p′ {fast:e} p {p:e} r′ {r_fast:e} r {r:e}"
            );
        }
    }

    /// The certificate's margin, written out again here.
    fn margin(p: f64, r: f64) -> f64 {
        p.abs() * 2f64.powi(-40) + r * 2f64.powi(-45)
    }

    /// Whether all of `[p − E, p + E]` rounds to `q`: it lies strictly
    /// between the midpoints from `q` to its two f32 neighbours (exact in
    /// f64), each distance taken exactly. `E` is shrunk by 2⁻³⁰ of itself,
    /// room for the predicate's own roundings (below 2⁻⁷⁷·|p|, so 2⁻³⁷ of
    /// `E`).
    fn rounds_one_way(q: f32, p: f64, r: f64) -> bool {
        let e = margin(p, r) * (1.0 - 2f64.powi(-30));
        let mid =
            |k: u32| (f64::from(f32::from_bits(q.to_bits().wrapping_add(k))) + f64::from(q)) / 2.0;
        let (a, b) = (mid(1), mid(u32::MAX));
        p - a.min(b) > e && a.max(b) - p > e
    }

    /// `p` moved by `k` f64 ulps.
    fn ulps(p: f64, k: i64) -> f64 {
        let bits = p.to_bits() as i64;
        let step = if p < 0.0 { -k } else { k };
        f64::from_bits((bits + step) as u64)
    }

    /// The certificate on `p` with every `r` the draws allow (`r ≥ |p|`):
    /// where it accepts, `[p − E, p + E]` rounds one way, to the f32 it
    /// returns. Returns whether any `r` was accepted.
    fn check_certificate(p: f64) -> bool {
        let mut accepted = false;
        for r in [p.abs(), 2.0 * p.abs(), 1.0, 9.0] {
            let q = certified(p, r);
            if !q.is_nan() {
                assert!(
                    rounds_one_way(q, p, r),
                    "p′ {p:e} r′ {r:e}: accepted {q:e} across a rounding boundary"
                );
                assert_eq!(q.to_bits(), (p as f32).to_bits(), "p′ {p:e} r′ {r:e}");
                accepted = true;
            }
        }
        accepted
    }

    /// The acceptance predicate on constructed `p′`: f32 midpoints and a
    /// few f64 ulps either side, and points across the margin's edge,
    /// are refused; powers of two from both sides, zeros and subnormals
    /// are refused; f32 values with a nonzero mantissa are accepted. Every
    /// case also holds the general rule: an accepted `p′` rounds one way
    /// over its whole margin, to the f32 returned.
    #[test]
    fn certificate_refuses_every_interval_that_rounds_two_ways() {
        let next_up = |x: f32| f32::from_bits(x.to_bits() + 1);
        let values = [
            1.25f32,
            1.5,
            0.3,
            3.7,
            8.5,
            0.02,
            1.1e-7,
            4.0e-30,
            1.5 * f32::MIN_POSITIVE,
        ];
        for sign in [1.0f32, -1.0] {
            for &v in &values {
                let x = sign * v;
                // On an f32 with a nonzero mantissa, and a few ulps off it.
                for k in -4..=4 {
                    assert!(
                        check_certificate(ulps(f64::from(x), k)),
                        "{x:e} + {k} ulps refused"
                    );
                }
                // On the midpoint above it, a few ulps and a margin off it.
                let mid = (f64::from(x) + f64::from(sign * next_up(v))) / 2.0;
                for k in -8..=8 {
                    let p = ulps(mid, k);
                    assert!(
                        certified(p, p.abs()).is_nan(),
                        "midpoint {mid:e} + {k} ulps accepted"
                    );
                    check_certificate(p);
                }
                for j in -12i32..=12 {
                    let p = mid + f64::from(j) * margin(mid, mid.abs()) / 4.0;
                    if j.abs() <= 3 {
                        assert!(
                            certified(p, p.abs()).is_nan(),
                            "{j}/4 margin off {mid:e} accepted"
                        );
                    }
                    check_certificate(p);
                }
            }
            // Powers of two, from both sides: the ulp below is half the
            // ulp above, so `q` with a zero mantissa is always refused.
            for e in [-30, -7, -1, 0, 1, 3] {
                let x = sign * 2f32.powi(e);
                for k in -4..=4 {
                    let p = ulps(f64::from(x), k);
                    assert!(
                        !check_certificate(p),
                        "power of two {x:e} + {k} ulps accepted"
                    );
                }
                let below = sign * f32::from_bits(x.abs().to_bits() - 1);
                assert!(check_certificate(f64::from(below)), "{below:e} refused");
            }
            // Zero, the smallest normal and subnormals: never accepted.
            for p in [0.0, f64::from(f32::MIN_POSITIVE), 1e-40, 3e-45, 1e-300] {
                assert!(!check_certificate(f64::from(sign) * p), "{p:e} accepted");
            }
        }
        // Arbitrary `p′` and `r′`: the rule holds, and most are accepted.
        let mut rng = Xoshiro256::seed_from_u64(14);
        let accepted = (0..100_000)
            .filter(|_| {
                let p = rng.next_normal_f32() as f64 * (1.0 + rng.next_f64() * 1e-6);
                let r = p.abs() * (1.0 + 10.0 * rng.next_f64());
                let q = certified(p, r);
                if !q.is_nan() {
                    assert!(rounds_one_way(q, p, r), "p′ {p:e} r′ {r:e} accepted {q:e}");
                }
                !q.is_nan()
            })
            .count();
        assert!(accepted > 99_000, "{accepted} of 100000 accepted");
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference outputs for seed 1234567 from the canonical C code.
        let mut sm = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                6457827717110365317,
                3203168211198807973,
                9817491932198370423
            ]
        );
    }

    #[test]
    fn xoshiro_is_deterministic_across_instances() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f32_draws_stay_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f32();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn f64_draws_stay_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn below_is_in_range_and_hits_all_values() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all residues should appear in 1000 draws"
        );
    }

    #[test]
    fn below_one_is_always_zero() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(rng.below(1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_zero_panics() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let _ = rng.below(0);
    }

    #[test]
    fn normal_draws_have_plausible_moments() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let n = 50_000;
        let mut sum = 0.0f64;
        let mut sumsq = 0.0f64;
        for _ in 0..n {
            let x = rng.next_normal_f32() as f64;
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = Xoshiro256::seed_from_u64(10);
        for _ in 0..10_000 {
            let x = rng.range_f32(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
        }
    }

    #[test]
    fn fill_normal_scales_std() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut buf = vec![0.0f32; 20_000];
        rng.fill_normal(&mut buf, 0.5);
        let var: f64 = buf.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>() / buf.len() as f64;
        assert!(
            (var - 0.25).abs() < 0.02,
            "variance {var} should be near 0.25"
        );
    }
}
