//! Token sampling: greedy argmax, temperature scaling, and top-p (nucleus)
//! sampling — the same trio llama2.c's host program offers. All sampling is
//! driven by an explicit seeded RNG so generation is reproducible.

use crate::ops;
use crate::rng::Xoshiro256;

/// Sampling policy applied to the logits of each decode step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplerKind {
    /// Always pick the highest-logit token (deterministic).
    Argmax,
    /// Softmax with temperature, then draw from the full distribution.
    Temperature(f32),
    /// Softmax with temperature, then draw from the smallest set of tokens
    /// whose cumulative probability exceeds `p`.
    TopP {
        /// Softmax temperature (must be positive).
        temperature: f32,
        /// Nucleus mass in `(0, 1]`.
        p: f32,
    },
    /// Softmax with temperature restricted to the `k` highest-probability
    /// tokens.
    TopK {
        /// Softmax temperature (must be positive).
        temperature: f32,
        /// Number of candidates kept (≥ 1).
        k: usize,
    },
}

impl SamplerKind {
    /// Whether a [`Sampler`] can draw with this policy: a temperature
    /// above 0 (not NaN), a top-p mass in `(0, 1]` and a top-k of at
    /// least one candidate. The error says which bound is broken.
    ///
    /// # Errors
    /// Returns the broken bound, as [`Sampler::new`] would panic with it.
    pub fn validate(self) -> Result<(), String> {
        let (t, p, k) = match self {
            Self::Argmax => return Ok(()),
            Self::Temperature(t) => (t, 1.0, 1),
            Self::TopP { temperature, p } => (temperature, p, 1),
            Self::TopK { temperature, k } => (temperature, 1.0, k),
        };
        if t.is_nan() || t <= 0.0 {
            return Err(format!("temperature must be positive, got {t}"));
        }
        if p.is_nan() || p <= 0.0 || p > 1.0 {
            return Err(format!("top-p mass must be in (0,1], got {p}"));
        }
        if k == 0 {
            return Err("top-k needs at least one candidate".to_owned());
        }
        Ok(())
    }
}

/// A stateful sampler: policy + RNG + scratch.
#[derive(Debug, Clone)]
pub struct Sampler {
    kind: SamplerKind,
    rng: Xoshiro256,
    /// Scratch probability buffer reused between steps.
    probs: Vec<f32>,
    /// Scratch index buffer for nucleus sorting.
    order: Vec<u32>,
}

impl Sampler {
    /// Creates a sampler with the given policy and seed.
    ///
    /// # Panics
    /// Panics on a policy [`SamplerKind::validate`] refuses.
    #[must_use]
    pub fn new(kind: SamplerKind, seed: u64) -> Self {
        if let Err(broken) = kind.validate() {
            panic!("{broken}");
        }
        Self {
            kind,
            rng: Xoshiro256::seed_from_u64(seed),
            probs: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Convenience for greedy decoding.
    #[must_use]
    pub fn argmax() -> Self {
        Self::new(SamplerKind::Argmax, 0)
    }

    /// Whether every draw is [`argmax`] of the logits as given:
    /// [`SamplerKind::Argmax`]. Such a sampler may be fed
    /// `forward::LogitRows::Greedy` rows.
    #[must_use]
    pub fn is_greedy(&self) -> bool {
        self.kind == SamplerKind::Argmax
    }

    /// Samples the next token id from `logits`.
    pub fn sample(&mut self, logits: &[f32]) -> u32 {
        assert!(!logits.is_empty(), "empty logits");
        match self.kind {
            SamplerKind::Argmax => argmax(logits),
            SamplerKind::Temperature(t) => {
                self.prepare_probs(logits, t);
                let coin = self.rng.next_f32();
                sample_multinomial(&self.probs, coin)
            }
            SamplerKind::TopP { temperature, p } => {
                self.prepare_probs(logits, temperature);
                let coin = self.rng.next_f32();
                sample_top_p(&self.probs, &mut self.order, p, coin)
            }
            SamplerKind::TopK { temperature, k } => {
                self.prepare_probs(logits, temperature);
                let coin = self.rng.next_f32();
                sample_top_k(&self.probs, &mut self.order, k, coin)
            }
        }
    }

    /// The distribution over `logits / temperature`. NaN counts as −∞, as
    /// in [`argmax`]; +∞ entries share the whole mass; a row with nothing
    /// above −∞ puts it all on [`argmax`]'s pick. `softmax` alone would
    /// turn either non-finite case into all-NaN probabilities, and every
    /// draw into the last token.
    ///
    /// One pass scales (the quotient is taken for a NaN too, then
    /// replaced, so the pass has no branch), and one [`ops::lane_max`]
    /// decides both infinite cases and feeds the softmax.
    fn prepare_probs(&mut self, logits: &[f32], temperature: f32) {
        self.probs.clear();
        self.probs.extend(logits.iter().map(|&l| {
            let scaled = l / temperature;
            if l.is_nan() {
                f32::NEG_INFINITY
            } else {
                scaled
            }
        }));
        let max = ops::lane_max(&self.probs);
        if max == f32::INFINITY {
            let infinite = self.probs.iter().filter(|&&p| p == f32::INFINITY).count();
            let share = 1.0 / infinite as f32;
            for p in &mut self.probs {
                *p = if *p == f32::INFINITY { share } else { 0.0 };
            }
        } else if max == f32::NEG_INFINITY {
            self.probs.fill(0.0);
            self.probs[argmax(logits) as usize] = 1.0;
        } else {
            ops::softmax_from(&mut self.probs, max);
        }
    }
}

/// Lanes of [`argmax`]'s second pass.
const ARGMAX_LANES: usize = 16;

/// Index of the largest non-NaN element, the first on ties (`-0.0 ==
/// +0.0`); 0 when every element is NaN, or there is none.
///
/// Two passes the compiler can vectorize: the largest value
/// ([`ops::lane_max`]), and then the first index holding it.
#[must_use]
pub fn argmax(x: &[f32]) -> u32 {
    let max = ops::lane_max(x);
    let (blocks, tail) = x.as_chunks::<ARGMAX_LANES>();
    let first_in = |s: &[f32]| s.iter().position(|&v| v == max);
    let hit = blocks
        .iter()
        .position(|b| b.iter().fold(false, |hit, &v| hit | (v == max)));
    let index = match hit {
        Some(n) => first_in(&blocks[n]).map(|i| n * ARGMAX_LANES + i),
        None => first_in(tail).map(|i| blocks.len() * ARGMAX_LANES + i),
    };
    index.unwrap_or(0) as u32
}

/// Draws from a probability vector using an inverse-CDF walk with the given
/// uniform `coin` in `[0, 1)`.
fn sample_multinomial(probs: &[f32], coin: f32) -> u32 {
    let mut cdf = 0.0f32;
    for (i, &p) in probs.iter().enumerate() {
        cdf += p;
        if coin < cdf {
            return i as u32;
        }
    }
    // Rounding may leave cdf slightly below 1; fall back to the last token.
    probs.len() as u32 - 1
}

/// Nucleus sampling: restricts to the highest-probability tokens whose
/// cumulative mass reaches `top_p`, renormalizes, and draws with `coin`.
fn sample_top_p(probs: &[f32], order: &mut Vec<u32>, top_p: f32, coin: f32) -> u32 {
    order.clear();
    order.extend(0..probs.len() as u32);
    // Sort descending by probability; stable so equal-probability tokens
    // keep id order and results are platform-independent.
    order.sort_by(|&a, &b| {
        probs[b as usize]
            .partial_cmp(&probs[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut mass = 0.0f32;
    let mut cut = order.len();
    for (i, &id) in order.iter().enumerate() {
        mass += probs[id as usize];
        if mass >= top_p {
            cut = i + 1;
            break;
        }
    }
    let nucleus = &order[..cut];
    let target = coin * mass;
    let mut cdf = 0.0f32;
    for &id in nucleus {
        cdf += probs[id as usize];
        if target < cdf {
            return id;
        }
    }
    nucleus[nucleus.len() - 1]
}

/// Top-k sampling: keeps the `k` highest-probability tokens, renormalizes,
/// and draws with `coin`.
fn sample_top_k(probs: &[f32], order: &mut Vec<u32>, k: usize, coin: f32) -> u32 {
    order.clear();
    order.extend(0..probs.len() as u32);
    order.sort_by(|&a, &b| {
        probs[b as usize]
            .partial_cmp(&probs[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let cut = k.min(order.len());
    let kept = &order[..cut];
    let mass: f32 = kept.iter().map(|&i| probs[i as usize]).sum();
    let target = coin * mass;
    let mut cdf = 0.0f32;
    for &id in kept {
        cdf += probs[id as usize];
        if target < cdf {
            return id;
        }
    }
    kept[kept.len() - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedllm_testkit::prelude::*;

    #[test]
    fn argmax_picks_max_and_first_tie() {
        assert_eq!(argmax(&[0.1, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0, 5.0, 1.0]), 0);
        assert_eq!(argmax(&[-1.0]), 0);
    }

    /// The first index of the largest non-NaN value: ties, signed zeros,
    /// infinities and NaN anywhere, across the vectorized blocks and the
    /// tail.
    #[test]
    fn argmax_skips_nan_and_keeps_the_first_of_ties() {
        let nan = f32::NAN;
        let inf = f32::INFINITY;
        assert_eq!(argmax(&[]), 0);
        assert_eq!(argmax(&[nan, 1.0, 3.0, 2.0]), 2, "NaN at index 0");
        assert_eq!(argmax(&[1.0, nan, 3.0, nan, 2.0]), 2, "NaN in the middle");
        assert_eq!(argmax(&[1.0, 3.0, 2.0, nan]), 1, "NaN at the end");
        assert_eq!(argmax(&[nan, nan, nan]), 0, "all NaN");
        assert_eq!(argmax(&[nan, -inf, -inf]), 1, "-inf beats NaN");
        assert_eq!(argmax(&[-inf, -inf]), 0);
        assert_eq!(argmax(&[-1.0, -0.0, 0.0]), 1, "-0.0 == +0.0, first wins");
        assert_eq!(argmax(&[0.0, -0.0]), 0);
        assert_eq!(argmax(&[2.0, inf, nan, inf]), 1);
        assert_eq!(argmax(&[4.0, 7.0, 7.0, 1.0]), 1);
        // Long enough for several blocks plus a tail, the winner and the
        // NaNs placed in each part.
        for len in [16usize, 17, 40, 63] {
            for at in [0, len / 2, len - 1] {
                let mut x: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
                x[at] = 5.0;
                for (i, v) in x.iter_mut().enumerate() {
                    if i != at && i % 5 == 0 {
                        *v = nan;
                    }
                }
                assert_eq!(argmax(&x), at as u32, "len {len} max at {at}");
                x.push(5.0);
                assert_eq!(argmax(&x), at as u32, "len {len}: a later tie");
            }
            assert_eq!(argmax(&vec![nan; len]), 0, "len {len} all NaN");
        }
    }

    /// For every NaN-free input the index is the one a strict `>` scan
    /// from index 0 gives, as it always was.
    #[test]
    fn argmax_matches_the_first_strictly_greater_scan() {
        let mut rng = Xoshiro256::seed_from_u64(17);
        for len in 1..80 {
            let mut x = vec![0.0f32; len];
            rng.fill_normal(&mut x, 1.0);
            // Coarse values so ties happen.
            for v in &mut x {
                *v = (*v * 2.0).round();
            }
            let mut best = 0;
            for i in 1..len {
                if x[i] > x[best] {
                    best = i;
                }
            }
            assert_eq!(argmax(&x), best as u32, "{x:?}");
        }
    }

    #[test]
    fn argmax_sampler_is_deterministic() {
        let mut s = Sampler::argmax();
        let logits = [0.0f32, 10.0, 3.0];
        for _ in 0..5 {
            assert_eq!(s.sample(&logits), 1);
        }
    }

    #[test]
    fn temperature_sampler_is_seed_deterministic() {
        let logits: Vec<f32> = (0..50).map(|i| (i as f32 * 0.3).sin()).collect();
        let mut a = Sampler::new(SamplerKind::Temperature(0.8), 11);
        let mut b = Sampler::new(SamplerKind::Temperature(0.8), 11);
        for _ in 0..20 {
            assert_eq!(a.sample(&logits), b.sample(&logits));
        }
    }

    #[test]
    fn low_temperature_approaches_argmax() {
        let logits = [1.0f32, 4.0, 2.0];
        let mut s = Sampler::new(SamplerKind::Temperature(0.01), 3);
        for _ in 0..20 {
            assert_eq!(s.sample(&logits), 1);
        }
    }

    #[test]
    fn temperature_sampler_hits_multiple_tokens() {
        let logits = [1.0f32, 1.0, 1.0, 1.0];
        let mut s = Sampler::new(SamplerKind::Temperature(1.0), 5);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.sample(&logits) as usize] = true;
        }
        assert!(seen.iter().filter(|&&x| x).count() >= 3, "{seen:?}");
    }

    #[test]
    fn top_p_excludes_tail() {
        // Token 0 has ~overwhelming mass; with small p only it survives.
        let logits = [10.0f32, 0.0, 0.0, 0.0];
        let mut s = Sampler::new(
            SamplerKind::TopP {
                temperature: 1.0,
                p: 0.5,
            },
            9,
        );
        for _ in 0..50 {
            assert_eq!(s.sample(&logits), 0);
        }
    }

    #[test]
    fn top_p_one_behaves_like_full_multinomial_support() {
        let logits = [1.0f32, 1.0, 1.0];
        let mut s = Sampler::new(
            SamplerKind::TopP {
                temperature: 1.0,
                p: 1.0,
            },
            17,
        );
        let mut seen = [false; 3];
        for _ in 0..300 {
            seen[s.sample(&logits) as usize] = true;
        }
        assert!(seen.iter().all(|&x| x), "{seen:?}");
    }

    #[test]
    fn samples_are_always_in_range() {
        let logits: Vec<f32> = (0..31).map(|i| ((i * 7 % 13) as f32) - 6.0).collect();
        for kind in [
            SamplerKind::Argmax,
            SamplerKind::Temperature(1.3),
            SamplerKind::TopP {
                temperature: 0.9,
                p: 0.9,
            },
        ] {
            let mut s = Sampler::new(kind, 23);
            for _ in 0..100 {
                assert!((s.sample(&logits) as usize) < logits.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn zero_temperature_rejected() {
        let _ = Sampler::new(SamplerKind::Temperature(0.0), 0);
    }

    #[test]
    #[should_panic(expected = "top-p mass")]
    fn bad_top_p_rejected() {
        let _ = Sampler::new(
            SamplerKind::TopP {
                temperature: 1.0,
                p: 1.5,
            },
            0,
        );
    }

    #[test]
    fn top_k_one_is_argmax() {
        let logits = [0.5f32, 3.0, -1.0, 2.9];
        let mut s = Sampler::new(
            SamplerKind::TopK {
                temperature: 1.0,
                k: 1,
            },
            3,
        );
        for _ in 0..20 {
            assert_eq!(s.sample(&logits), 1);
        }
    }

    #[test]
    fn top_k_restricts_support() {
        // With k=2, only the two best tokens may appear.
        let logits = [5.0f32, 4.9, -10.0, -10.0];
        let mut s = Sampler::new(
            SamplerKind::TopK {
                temperature: 1.0,
                k: 2,
            },
            5,
        );
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.sample(&logits) as usize] = true;
        }
        assert!(seen[0] && seen[1], "{seen:?}");
        assert!(!seen[2] && !seen[3], "{seen:?}");
    }

    #[test]
    fn top_k_larger_than_vocab_is_full_multinomial() {
        let logits = [1.0f32, 1.0, 1.0];
        let mut s = Sampler::new(
            SamplerKind::TopK {
                temperature: 1.0,
                k: 99,
            },
            8,
        );
        let mut seen = [false; 3];
        for _ in 0..300 {
            seen[s.sample(&logits) as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn top_k_zero_rejected() {
        let _ = Sampler::new(
            SamplerKind::TopK {
                temperature: 1.0,
                k: 0,
            },
            0,
        );
    }

    #[test]
    fn multinomial_degenerate_coin() {
        // coin == 0.99999 with all mass on token 0 must still return a
        // valid index via the fallback.
        assert_eq!(sample_multinomial(&[1.0, 0.0], 0.999_99), 0);
        assert_eq!(sample_multinomial(&[0.0, 0.0], 0.5), 1, "fallback to last");
    }

    /// The three drawing kinds, with seeds fixed per kind.
    fn drawing_samplers() -> [Sampler; 3] {
        [
            Sampler::new(SamplerKind::Temperature(0.8), 11),
            Sampler::new(
                SamplerKind::TopP {
                    temperature: 0.9,
                    p: 0.9,
                },
                12,
            ),
            Sampler::new(
                SamplerKind::TopK {
                    temperature: 1.1,
                    k: 3,
                },
                13,
            ),
        ]
    }

    /// A NaN logit draws as a −∞ one would, wherever it sits: the same
    /// token as the row with −∞ in its place, from the same seed, and
    /// never the NaN's index.
    #[test]
    fn a_nan_logit_draws_like_negative_infinity() {
        let base = [0.5f32, 1.5, -0.25, 2.0, 1.0, 0.75];
        for at in [0, base.len() / 2, base.len() - 1] {
            let (mut nan, mut neg) = (base, base);
            nan[at] = f32::NAN;
            neg[at] = f32::NEG_INFINITY;
            for (mut a, mut b) in drawing_samplers().into_iter().zip(drawing_samplers()) {
                for step in 0..64 {
                    let got = a.sample(&nan);
                    assert_eq!(got, b.sample(&neg), "{:?} NaN at {at} step {step}", a.kind);
                    assert_ne!(got as usize, at, "{:?} drew the NaN", a.kind);
                }
            }
        }
    }

    /// +∞ logits share the whole mass: one is always drawn, two split
    /// the draws between them; a row with nothing above −∞ draws
    /// `argmax`'s pick.
    #[test]
    fn infinite_and_empty_rows_draw_what_argmax_allows() {
        let inf = f32::INFINITY;
        let one = [0.5f32, inf, 2.0, f32::NAN, 1.0];
        let two = [inf, 0.5, f32::NAN, 2.0, inf, 1.0];
        for mut s in drawing_samplers() {
            let picks: Vec<u32> = (0..64).map(|_| s.sample(&two)).collect();
            assert!(
                picks.iter().all(|&t| t == 0 || t == 4),
                "{:?}: {picks:?}",
                s.kind
            );
            assert!(
                picks.contains(&0) && picks.contains(&4),
                "{:?}: {picks:?}",
                s.kind
            );
            for _ in 0..16 {
                assert_eq!(s.sample(&one), 1, "{:?}", s.kind);
                assert_eq!(s.sample(&[f32::NAN; 5]), 0, "{:?} all NaN", s.kind);
                let empty = [f32::NAN, f32::NEG_INFINITY, f32::NAN];
                assert_eq!(s.sample(&empty), argmax(&empty), "{:?}", s.kind);
            }
        }
    }

    /// Only plain argmax may take greedy rows.
    #[test]
    fn only_argmax_is_greedy() {
        assert!(Sampler::argmax().is_greedy());
        for s in drawing_samplers() {
            assert!(!s.is_greedy(), "{:?}", s.kind);
        }
    }

    /// The draw's distribution as three scans computed it before
    /// `prepare_probs` became one scale pass and one [`ops::lane_max`]: a
    /// scaling scan, a count of +∞, a test for all −∞, and a softmax over
    /// a sequential `f32::max` fold ([`reference_softmax`]).
    fn reference_probs(logits: &[f32], temperature: f32) -> Vec<f32> {
        let scaled = |l: f32| {
            if l.is_nan() {
                f32::NEG_INFINITY
            } else {
                l / temperature
            }
        };
        let mut probs: Vec<f32> = logits.iter().map(|&l| scaled(l)).collect();
        let infinite = probs.iter().filter(|&&p| p == f32::INFINITY).count();
        if infinite > 0 {
            let share = 1.0 / infinite as f32;
            for p in &mut probs {
                *p = if *p == f32::INFINITY { share } else { 0.0 };
            }
        } else if probs.iter().all(|&p| p == f32::NEG_INFINITY) {
            probs.fill(0.0);
            probs[argmax(logits) as usize] = 1.0;
        } else {
            reference_softmax(&mut probs);
        }
        probs
    }

    /// `ops::softmax` with its max as a sequential `f32::max` fold.
    fn reference_softmax(x: &mut [f32]) {
        if x.is_empty() {
            return;
        }
        let max = x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
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

    /// A row from generated `(pick, value)` pairs: mostly finite values,
    /// with NaN, ±0, ±∞, subnormals and values near `f32::MAX` mixed in;
    /// `shape` 1–3 overwrite it with all −∞, all NaN, or −∞ and NaN, and
    /// 4 negates its positive values, so a zero is often the max.
    fn special_row(picks: &[(usize, f32)], shape: usize) -> Vec<f32> {
        let value = |(pick, v): (usize, f32)| match pick {
            0..=3 => v,
            4 => f32::NAN,
            5 => 0.0,
            6 => -0.0,
            7 => f32::INFINITY,
            8 => f32::NEG_INFINITY,
            9 => f32::from_bits(1 + v.abs() as u32).copysign(v),
            _ => v * 8.0e36,
        };
        picks
            .iter()
            .enumerate()
            .map(|(i, &p)| match shape {
                1 => f32::NEG_INFINITY,
                2 => f32::NAN,
                3 if i % 2 == 0 => f32::NAN,
                3 => f32::NEG_INFINITY,
                4 => match value(p) {
                    v if v > 0.0 => -v,
                    v => v,
                },
                _ => value(p),
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const TEMPERATURES: [f32; 6] = [0.8, 1.0, 1.0e-3, 7.5, 1.0e-40, 3.0e38];

    props! {
        #![config(cases = 256)]

        /// Every drawing kind's distribution and token equal the three-scan
        /// reference's bit for bit, special values included.
        fn one_pass_probs_replay_the_three_scans(
            picks in vec_of((0usize..11, -40.0f32..40.0), 1..80),
            shape in 0usize..6,
            t_pick in 0usize..6,
            seed in any_u64(),
        ) {
            let logits = special_row(&picks, shape);
            let t = TEMPERATURES[t_pick];
            let want = reference_probs(&logits, t);
            let kinds = [
                SamplerKind::Temperature(t),
                SamplerKind::TopP { temperature: t, p: 0.9 },
                SamplerKind::TopK { temperature: t, k: 3 },
            ];
            for kind in kinds {
                let mut s = Sampler::new(kind, seed);
                let got = s.sample(&logits);
                prop_assert!(bits(&s.probs) == bits(&want), "{kind:?} {logits:?}");
                let coin = Xoshiro256::seed_from_u64(seed).next_f32();
                let mut order = Vec::new();
                let drawn = match kind {
                    SamplerKind::TopP { p, .. } => sample_top_p(&want, &mut order, p, coin),
                    SamplerKind::TopK { k, .. } => sample_top_k(&want, &mut order, k, coin),
                    _ => sample_multinomial(&want, coin),
                };
                prop_assert_eq!(got, drawn);
            }
        }

        /// `ops::softmax` over its lane max equals the fold's bit for bit.
        fn lane_max_softmax_replays_the_fold(
            picks in vec_of((0usize..11, -40.0f32..40.0), 0..80),
            shape in 0usize..6,
        ) {
            let mut got = special_row(&picks, shape);
            let mut want = got.clone();
            ops::softmax(&mut got);
            reference_softmax(&mut want);
            prop_assert!(bits(&got) == bits(&want), "{picks:?} {shape}");
        }
    }

    #[test]
    fn validate_names_the_broken_bound() {
        let temp = SamplerKind::Temperature;
        for kind in [temp(0.0), temp(-1.0), temp(f32::NAN)] {
            let err = kind.validate().expect_err("a temperature not above 0");
            assert!(err.contains("temperature must be positive"), "{err}");
        }
        let topp = |p| SamplerKind::TopP {
            temperature: 0.9,
            p,
        };
        for kind in [topp(0.0), topp(1.5), topp(f32::NAN)] {
            assert!(kind
                .validate()
                .expect_err("a mass outside (0,1]")
                .contains("top-p mass"));
        }
        let topk = SamplerKind::TopK {
            temperature: 0.9,
            k: 0,
        };
        assert!(topk
            .validate()
            .expect_err("k = 0")
            .contains("at least one candidate"));
        for kind in [
            SamplerKind::Argmax,
            temp(0.8),
            topp(1.0),
            SamplerKind::TopK {
                temperature: 2.0,
                k: 1,
            },
        ] {
            assert_eq!(kind.validate(), Ok(()));
        }
    }
}
