//! Seeded synthetic traffic for serve-bench.
//!
//! [`LoadGen`] materializes its whole request schedule at construction
//! from one [`Xoshiro256`] stream, so a (config, seed) pair names a
//! byte-reproducible workload. Interarrival gaps are uniform on
//! `[1, 2·mean]` — same mean as an exponential ("Poisson-ish") process
//! without `ln()`, whose libm rounding varies across platforms and would
//! break byte-identical reports.

use std::collections::VecDeque;

use speedllm_llama::rng::Xoshiro256;
use speedllm_llama::sampler::SamplerKind;
use speedllm_llama::tokenizer::TOKEN_BOS;

use crate::engine::{Request, TrafficSource};

/// How requests arrive.
#[derive(Debug, Clone, Copy)]
pub enum ArrivalMode {
    /// Open loop: arrivals follow the seeded schedule regardless of how
    /// the server keeps up (queueing shows up as TTFT).
    Open {
        /// Mean gap between arrivals, in virtual ticks (≥ 1).
        mean_interarrival: u64,
    },
    /// Closed loop: keep `concurrency` requests outstanding; a new request
    /// arrives the moment one finishes.
    Closed {
        /// Target number of outstanding requests (≥ 1).
        concurrency: usize,
    },
    /// Bursty open loop: requests arrive in groups of `burst_size` that
    /// share one arrival tick, with seeded gaps (uniform on
    /// `[1, 2·burst_gap]`, same discipline as [`ArrivalMode::Open`])
    /// between groups — the admission-spike workload of ROADMAP item 1.
    Bursty {
        /// Requests per burst (≥ 1).
        burst_size: usize,
        /// Mean gap between bursts, in virtual ticks (≥ 1).
        burst_gap: u64,
    },
}

/// Workload shape.
#[derive(Debug, Clone, Copy)]
pub struct LoadGenConfig {
    /// Total requests to generate.
    pub n_requests: usize,
    /// Arrival process.
    pub mode: ArrivalMode,
    /// Inclusive prompt-length range, BOS included (min ≥ 1).
    pub prompt_len: (usize, usize),
    /// Tokens (after BOS) shared by every prompt — a common system-prompt
    /// prefix for exercising radix prefix caching. 0 disables sharing and
    /// reproduces the pre-prefix schedules byte-for-byte. When non-zero,
    /// every prompt still ends in at least one unique token, so
    /// `shared_prefix_len + 2 <= prompt_len.0` is required.
    pub shared_prefix_len: usize,
    /// Inclusive new-token-budget range.
    pub max_new_tokens: (usize, usize),
    /// Sampling policy stamped on every request.
    pub sampler: SamplerKind,
    /// Stop-at-EOS policy stamped on every request.
    pub stop_at_eos: bool,
    /// Vocabulary size prompts draw from (> 3: ids 0..=2 are specials).
    pub vocab_size: usize,
    /// Context window; prompts are validated against it.
    pub seq_len: usize,
    /// Master seed: schedule, prompts, and per-request sampler seeds.
    pub seed: u64,
}

/// The deterministic traffic source.
pub struct LoadGen {
    mode: ArrivalMode,
    /// Requests not yet handed out, in arrival order.
    pending: VecDeque<Request>,
}

impl LoadGen {
    /// Materializes the full schedule for `cfg`.
    ///
    /// # Panics
    /// Panics on a degenerate config (empty ranges, prompts longer than
    /// the context window, vocabulary too small).
    #[must_use]
    pub fn new(cfg: &LoadGenConfig) -> Self {
        assert!(cfg.prompt_len.0 >= 1 && cfg.prompt_len.0 <= cfg.prompt_len.1);
        assert!(cfg.max_new_tokens.0 <= cfg.max_new_tokens.1);
        assert!(
            cfg.prompt_len.1 <= cfg.seq_len,
            "prompts of {} tokens cannot fit the context window {}",
            cfg.prompt_len.1,
            cfg.seq_len
        );
        assert!(cfg.vocab_size > 3, "vocabulary leaves no non-special ids");
        if let ArrivalMode::Open { mean_interarrival } = cfg.mode {
            assert!(mean_interarrival >= 1, "mean interarrival must be >= 1");
        }
        if let ArrivalMode::Closed { concurrency } = cfg.mode {
            assert!(concurrency >= 1, "closed loop needs concurrency >= 1");
        }
        if let ArrivalMode::Bursty {
            burst_size,
            burst_gap,
        } = cfg.mode
        {
            assert!(burst_size >= 1, "bursts need at least one request");
            assert!(burst_gap >= 1, "burst gap must be >= 1");
        }

        // The shared prefix draws from its own salted stream so that
        // `shared_prefix_len = 0` leaves the main stream — and therefore
        // every pre-existing (config, seed) schedule — untouched.
        let shared: Vec<u32> = if cfg.shared_prefix_len > 0 {
            assert!(
                cfg.shared_prefix_len + 2 <= cfg.prompt_len.0,
                "shared prefix of {} leaves no unique token in the shortest prompt ({})",
                cfg.shared_prefix_len,
                cfg.prompt_len.0
            );
            let mut prng = Xoshiro256::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
            (0..cfg.shared_prefix_len)
                .map(|_| 3 + prng.below(cfg.vocab_size as u64 - 3) as u32)
                .collect()
        } else {
            Vec::new()
        };

        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        let in_range = |rng: &mut Xoshiro256, (lo, hi): (usize, usize)| -> usize {
            lo + rng.below((hi - lo + 1) as u64) as usize
        };
        let mut clock = 0u64;
        let mut pending = VecDeque::with_capacity(cfg.n_requests);
        for id in 0..cfg.n_requests as u64 {
            let plen = in_range(&mut rng, cfg.prompt_len);
            let mut prompt = Vec::with_capacity(plen);
            prompt.push(TOKEN_BOS);
            prompt.extend_from_slice(&shared);
            for _ in prompt.len()..plen {
                // Ordinary tokens only: 3..vocab (0=pad, 1=BOS, 2=EOS).
                prompt.push(3 + rng.below(cfg.vocab_size as u64 - 3) as u32);
            }
            let max_new_tokens = in_range(&mut rng, cfg.max_new_tokens);
            let seed = rng.next_u64();
            match cfg.mode {
                ArrivalMode::Open { mean_interarrival } => {
                    clock += 1 + rng.below(2 * mean_interarrival);
                }
                ArrivalMode::Bursty {
                    burst_size,
                    burst_gap,
                } => {
                    // One seeded gap per burst; every member of the burst
                    // lands on the same tick.
                    if (id as usize).is_multiple_of(burst_size) {
                        clock += 1 + rng.below(2 * burst_gap);
                    }
                }
                ArrivalMode::Closed { .. } => {}
            }
            pending.push_back(Request {
                id,
                prompt,
                max_new_tokens,
                stop_at_eos: cfg.stop_at_eos,
                sampler: cfg.sampler,
                seed,
                arrival: clock,
            });
        }
        Self {
            mode: cfg.mode,
            pending,
        }
    }

    /// Requests not yet handed out.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.pending.len()
    }
}

impl TrafficSource for LoadGen {
    fn poll(&mut self, now: u64, outstanding: usize, room: usize) -> Vec<Request> {
        let budget = match self.mode {
            ArrivalMode::Open { .. } | ArrivalMode::Bursty { .. } => room,
            ArrivalMode::Closed { concurrency } => {
                room.min(concurrency.saturating_sub(outstanding))
            }
        };
        let mut due = Vec::new();
        while due.len() < budget {
            match self.mode {
                ArrivalMode::Open { .. } | ArrivalMode::Bursty { .. } => {
                    if self.pending.front().is_none_or(|r| r.arrival > now) {
                        break;
                    }
                }
                ArrivalMode::Closed { .. } => {
                    if self.pending.is_empty() {
                        break;
                    }
                }
            }
            let mut req = self.pending.pop_front().expect("checked above");
            if matches!(self.mode, ArrivalMode::Closed { .. }) {
                req.arrival = now; // a closed-loop request arrives on demand
            }
            due.push(req);
        }
        due
    }

    fn next_arrival(&self, _outstanding: usize) -> Option<u64> {
        match self.mode {
            ArrivalMode::Open { .. } | ArrivalMode::Bursty { .. } => {
                self.pending.front().map(|r| r.arrival)
            }
            // Closed loop: the next request is due immediately whenever
            // the engine has room for it.
            ArrivalMode::Closed { .. } => (!self.pending.is_empty()).then_some(0),
        }
    }

    fn is_exhausted(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(mode: ArrivalMode, seed: u64) -> LoadGenConfig {
        LoadGenConfig {
            n_requests: 8,
            mode,
            prompt_len: (2, 6),
            shared_prefix_len: 0,
            max_new_tokens: (1, 8),
            sampler: SamplerKind::Temperature(0.8),
            stop_at_eos: true,
            vocab_size: 64,
            seq_len: 32,
            seed,
        }
    }

    fn drain_all(gen: &mut LoadGen) -> Vec<Request> {
        let mut out = Vec::new();
        let mut now = 0;
        while !gen.is_exhausted() {
            now = gen.next_arrival(0).unwrap().max(now);
            out.extend(gen.poll(now, 0, usize::MAX));
        }
        out
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = drain_all(&mut LoadGen::new(&cfg(
            ArrivalMode::Open {
                mean_interarrival: 10,
            },
            7,
        )));
        let b = drain_all(&mut LoadGen::new(&cfg(
            ArrivalMode::Open {
                mean_interarrival: 10,
            },
            7,
        )));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.prompt, y.prompt);
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.max_new_tokens, y.max_new_tokens);
        }
        // And a different seed changes the workload.
        let c = drain_all(&mut LoadGen::new(&cfg(
            ArrivalMode::Open {
                mean_interarrival: 10,
            },
            8,
        )));
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.prompt != y.prompt || x.arrival != y.arrival));
    }

    #[test]
    fn open_loop_respects_arrival_times_and_room() {
        let mut gen = LoadGen::new(&cfg(
            ArrivalMode::Open {
                mean_interarrival: 10,
            },
            3,
        ));
        // Nothing is due at tick 0 (first gap is >= 1).
        assert!(gen.poll(0, 0, 8).is_empty());
        let first = gen.next_arrival(0).unwrap();
        let due = gen.poll(first, 0, 1);
        assert_eq!(due.len(), 1, "room=1 must cap the hand-out");
        assert!(due[0].arrival <= first);
    }

    #[test]
    fn closed_loop_paces_by_outstanding() {
        let mut gen = LoadGen::new(&cfg(ArrivalMode::Closed { concurrency: 2 }, 3));
        let a = gen.poll(0, 0, 8);
        assert_eq!(a.len(), 2, "fill to concurrency");
        assert!(gen.poll(5, 2, 8).is_empty(), "at target, nothing arrives");
        let b = gen.poll(9, 1, 8);
        assert_eq!(b.len(), 1, "a completion opens one arrival");
        assert_eq!(b[0].arrival, 9, "closed-loop arrival is stamped on demand");
    }

    #[test]
    fn prompts_are_valid() {
        let reqs = drain_all(&mut LoadGen::new(&cfg(
            ArrivalMode::Open {
                mean_interarrival: 4,
            },
            11,
        )));
        assert_eq!(reqs.len(), 8);
        for r in &reqs {
            assert_eq!(r.prompt[0], TOKEN_BOS);
            assert!((2..=6).contains(&r.prompt.len()));
            assert!(r.prompt[1..].iter().all(|&t| (3..64).contains(&t)));
            assert!((1..=8).contains(&r.max_new_tokens));
        }
        // Arrivals are non-decreasing (FIFO schedule).
        assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn bursty_same_seed_is_byte_identical() {
        let mode = ArrivalMode::Bursty {
            burst_size: 3,
            burst_gap: 20,
        };
        let a = drain_all(&mut LoadGen::new(&cfg(mode, 7)));
        let b = drain_all(&mut LoadGen::new(&cfg(mode, 7)));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.prompt, y.prompt);
            assert_eq!(x.arrival, y.arrival, "arrival trace must be seeded");
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.max_new_tokens, y.max_new_tokens);
        }
        let c = drain_all(&mut LoadGen::new(&cfg(mode, 8)));
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.prompt != y.prompt || x.arrival != y.arrival),
            "different seeds must produce different traces"
        );
    }

    #[test]
    fn bursty_arrivals_cluster_into_bursts() {
        let mode = ArrivalMode::Bursty {
            burst_size: 4,
            burst_gap: 50,
        };
        let reqs = drain_all(&mut LoadGen::new(&cfg(mode, 11)));
        assert_eq!(reqs.len(), 8);
        // Members of one burst share an arrival tick; bursts are strictly
        // separated (gap >= 1).
        for chunk in reqs.chunks(4) {
            assert!(
                chunk.iter().all(|r| r.arrival == chunk[0].arrival),
                "burst members must share an arrival tick"
            );
        }
        assert!(
            reqs[4].arrival > reqs[0].arrival,
            "bursts must be separated in time"
        );
        // The spike is real: nothing is due at tick 0, everything of the
        // first burst is due together.
        let mut gen = LoadGen::new(&cfg(mode, 11));
        assert!(gen.poll(0, 0, 8).is_empty());
        let first = gen.next_arrival(0).unwrap();
        assert_eq!(gen.poll(first, 0, 8).len(), 4, "whole burst due at once");
    }

    #[test]
    fn shared_prefix_is_common_and_prompts_stay_unique() {
        let mut c = cfg(ArrivalMode::Closed { concurrency: 2 }, 5);
        c.prompt_len = (8, 12);
        c.shared_prefix_len = 6;
        let reqs = drain_all(&mut LoadGen::new(&c));
        assert_eq!(reqs.len(), 8);
        let prefix = &reqs[0].prompt[1..7];
        for r in &reqs {
            assert_eq!(r.prompt[0], TOKEN_BOS);
            assert_eq!(&r.prompt[1..7], prefix, "prefix must be shared");
            assert!(r.prompt.len() >= 8, "prefix plus at least one unique token");
            assert!(r.prompt[1..].iter().all(|&t| (3..64).contains(&t)));
        }
        // The tails still differ (same master seed, distinct draws).
        assert!(
            reqs.iter().any(|r| r.prompt[7..] != reqs[0].prompt[7..]),
            "tails should diverge across requests"
        );
        // Turning sharing off reproduces the unshared schedule exactly.
        let mut base = cfg(ArrivalMode::Closed { concurrency: 2 }, 5);
        base.prompt_len = (8, 12);
        let plain = drain_all(&mut LoadGen::new(&base));
        let again = drain_all(&mut LoadGen::new(&base.clone()));
        for (x, y) in plain.iter().zip(&again) {
            assert_eq!(x.prompt, y.prompt);
        }
    }
}
