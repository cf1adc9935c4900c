//! The harness's own serving loop: it offers requests to a
//! [`ServeEngine`] on the wall clock, brackets every `step()` with
//! `Instant`, and afterwards turns the engine's virtual-tick timestamps
//! into wall time through the per-step table it kept.
//!
//! **Ticks to wall time.** The engine only surfaces tokens inside a
//! [`Completion`], stamped in ticks. A tick `t` is mapped to the first step whose clock moved past
//! it (`now_after > t`, steps being half-open tick intervals), clamped
//! into the steps between the request's submission and the step that
//! returned its completion, and the token is timed at that step's
//! wall-clock **end** — when a streaming caller of `step()` could first
//! see it. The resolution of TTFT and of every token gap is therefore one
//! step. Under speculation, tokens accepted at the very end of a verify
//! step carry the next step's opening tick and are timed one step late
//! (except a request's last tokens, which the clamp pins).

use std::time::{Duration, Instant};

use speedllm_serve::backend::Backend;
use speedllm_serve::engine::{Completion, Request, ServeEngine, TrafficSource};
use speedllm_serve::loadgen::{ArrivalMode, LoadGen, LoadGenConfig};

use crate::spec::{Load, ServeSpec, CHECKED_REQUESTS};

/// Requests generated for a time-bounded closed-loop pass: far more than
/// any plausible machine completes in `--seconds`.
const CLOSED_POOL: usize = 4096;

/// When a pass stops offering new requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// After this many seconds of wall time (requests in flight finish).
    Seconds(f64),
    /// After this many requests (the engine's counters then repeat
    /// exactly on the closed-loop workloads).
    Requests(usize),
}

/// How a plan's requests are offered.
#[derive(Debug, Clone, PartialEq)]
pub enum Arrivals {
    /// Keep `clients` requests outstanding until `stop`.
    Closed {
        /// Concurrent callers.
        clients: usize,
        /// When to stop sending.
        stop: Stop,
    },
    /// Request `i` is due `due_s[i]` seconds into the pass.
    Open {
        /// Due times, ascending.
        due_s: Vec<f64>,
    },
}

/// The inputs of one pass: requests (ids `0..n`, in send order) and
/// their arrival rule. Made from the seed alone.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Requests in send order; `requests[i].id == i`.
    pub requests: Vec<Request>,
    /// Arrival rule.
    pub arrivals: Arrivals,
}

/// Builds the plan for `spec`: `LoadGen` draws prompts, lengths and
/// sampler seeds from `seed`; when requests are due is fixed by the
/// workload, so that two seeds offer the same load.
#[must_use]
pub fn plan(spec: &ServeSpec, seed: u64, stop: Stop) -> Plan {
    let n_requests = match (spec.load, stop) {
        (_, Stop::Requests(n)) => n,
        (Load::Closed { .. }, Stop::Seconds(_)) => CLOSED_POOL,
        (Load::Open { rate_rps, .. }, Stop::Seconds(s)) => (rate_rps * s).round() as usize,
    };
    let mut gen = LoadGen::new(&LoadGenConfig {
        n_requests,
        // Only the requests are LoadGen's; the harness paces them itself.
        mode: ArrivalMode::Closed { concurrency: 1 },
        prompt_len: spec.prompt_len,
        shared_prefix_len: spec.shared_prefix_len,
        max_new_tokens: spec.max_new_tokens,
        sampler: spec.sampler,
        // Every request runs to its token budget, so the work in a run
        // does not depend on where a stream happens to sample EOS.
        stop_at_eos: false,
        vocab_size: spec.model.vocab_size,
        seq_len: spec.model.seq_len,
        seed,
    });
    let mut requests = Vec::with_capacity(n_requests);
    while !gen.is_exhausted() {
        requests.extend(gen.poll(0, 0, usize::MAX));
    }
    let arrivals = match spec.load {
        Load::Closed { clients } => Arrivals::Closed { clients, stop },
        // A burst every `burst / rate` seconds, its requests due together.
        // Seeded gaps were tried and dropped: which bursts overlap then
        // depends on the seed, and the median TPOT of the same code moved
        // by a third from one seed to the next.
        Load::Open { burst, rate_rps } => Arrivals::Open {
            due_s: (0..requests.len())
                .map(|i| (i / burst) as f64 * burst as f64 / rate_rps)
                .collect(),
        },
    };
    Plan { requests, arrivals }
}

/// One bracketed `step()`.
#[derive(Debug, Clone, Copy)]
pub struct StepRec {
    /// `now()` before the step.
    pub now_before: u64,
    /// `now()` after the step.
    pub now_after: u64,
    /// Wall start, seconds since the pass epoch.
    pub start_s: f64,
    /// Wall end, seconds since the pass epoch.
    pub end_s: f64,
}

/// A request the generator sent.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// When it was due (closed loop: when it was sent).
    pub due_s: f64,
    /// When `submit` was called.
    pub submit_s: f64,
    /// Index of the first step run after submission.
    pub first_step: usize,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
}

/// A completion and the step that returned it.
#[derive(Debug, Clone)]
pub struct Finished {
    /// What the engine returned.
    pub completion: Completion,
    /// Index of the step that returned it.
    pub step: usize,
}

/// Everything one pass observed.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Every step, in order.
    pub steps: Vec<StepRec>,
    /// Every request offered, indexed by id (refused ones included).
    pub sent: Vec<Sent>,
    /// Every completion, in finish order.
    pub finished: Vec<Finished>,
}

/// Offers `plan` to `engine` from this one thread and steps the engine
/// until everything sent has completed. Times are seconds since `epoch`.
pub fn drive<B: Backend>(engine: &mut ServeEngine<B>, plan: &Plan, epoch: Instant) -> Pass {
    drive_observed(engine, plan, epoch, |_, _| {})
}

/// [`drive`], calling `after_step(engine, step_index)` once each step has
/// been recorded — outside the step's time bracket. The harness's tests
/// use it to see which step the engine's own recorder logged an event in.
pub fn drive_observed<B: Backend>(
    engine: &mut ServeEngine<B>,
    plan: &Plan,
    epoch: Instant,
    mut after_step: impl FnMut(&ServeEngine<B>, usize),
) -> Pass {
    let mut pass = Pass::default();
    let n = plan.requests.len();
    let t0 = epoch.elapsed().as_secs_f64();
    let mut next = 0usize;
    loop {
        let t = epoch.elapsed().as_secs_f64();
        let submit = |pass: &mut Pass, engine: &mut ServeEngine<B>, i: usize, due_s: f64| {
            let mut req = plan.requests[i].clone();
            // The engine's clock is virtual; a request arrives "now".
            req.arrival = engine.now();
            pass.sent.push(Sent {
                due_s,
                submit_s: epoch.elapsed().as_secs_f64(),
                first_step: pass.steps.len(),
                prompt_tokens: req.prompt.len(),
            });
            // A refusal shows as a request sent and never finished.
            let _refused = engine.submit(req);
        };
        let more = match &plan.arrivals {
            Arrivals::Closed { clients, stop } => {
                // The checked requests are sent however slow the host is.
                let open = |next: usize| match *stop {
                    Stop::Seconds(s) => next < n && (t - t0 < s || next < CHECKED_REQUESTS),
                    Stop::Requests(k) => next < n.min(k),
                };
                while open(next) && engine.outstanding() < *clients {
                    submit(&mut pass, engine, next, t);
                    next += 1;
                }
                open(next)
            }
            Arrivals::Open { due_s } => {
                while next < n && t0 + due_s[next] <= t {
                    submit(&mut pass, engine, next, t0 + due_s[next]);
                    next += 1;
                }
                next < n
            }
        };
        if engine.is_idle() {
            if !more {
                break;
            }
            // Only an open loop idles with requests still to come.
            if let Arrivals::Open { due_s } = &plan.arrivals {
                let wait = t0 + due_s[next] - epoch.elapsed().as_secs_f64();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
            }
            continue;
        }
        let now_before = engine.now();
        let start_s = epoch.elapsed().as_secs_f64();
        let done = engine.step();
        let end_s = epoch.elapsed().as_secs_f64();
        let step = pass.steps.len();
        pass.steps.push(StepRec {
            now_before,
            now_after: engine.now(),
            start_s,
            end_s,
        });
        pass.finished.extend(
            done.into_iter()
                .map(|completion| Finished { completion, step }),
        );
        after_step(engine, step);
    }
    pass
}

impl Pass {
    /// The step that produced a token stamped `tick`, for a request whose
    /// steps are `first..=last` (see the module docs for the rule).
    #[must_use]
    pub fn step_of(&self, tick: u64, first: usize, last: usize) -> usize {
        // `now_after` never decreases, so the steps at or before `tick`
        // form a prefix.
        self.steps
            .partition_point(|s| s.now_after <= tick)
            .clamp(first, last)
    }

    /// The steps a finished request spans.
    fn span_of(&self, f: &Finished) -> (usize, usize) {
        let first = self.sent[f.completion.id as usize].first_step;
        (first.min(f.step), f.step)
    }

    /// Wall time (seconds since the epoch) of each token of `f`.
    #[must_use]
    pub fn token_walls(&self, f: &Finished) -> Vec<f64> {
        let (first, last) = self.span_of(f);
        f.completion
            .token_ticks
            .iter()
            .map(|&t| self.steps[self.step_of(t, first, last)].end_s)
            .collect()
    }

    /// The step in which `f` produced its first token, if it produced any.
    #[must_use]
    pub fn first_token_step(&self, f: &Finished) -> Option<usize> {
        let (first, last) = self.span_of(f);
        f.completion
            .first_token_at
            .map(|t| self.step_of(t, first, last))
    }

    /// Wall-clock latencies of every finished request.
    #[must_use]
    pub fn latencies(&self) -> Latencies {
        let mut l = Latencies::default();
        for f in &self.finished {
            let sent = &self.sent[f.completion.id as usize];
            let (first, last) = self.span_of(f);
            // Admission happens as a step opens, so a request waited in
            // the queue until the start of its admitting step.
            let admitted = self.steps[self.step_of(f.completion.admitted_at, first, last)].start_s;
            l.queue_wait_ms.push((admitted - sent.due_s).max(0.0) * 1e3);
            let walls = self.token_walls(f);
            if let (Some(&head), Some(&tail)) = (walls.first(), walls.last()) {
                l.ttft_ms.push((head - sent.due_s) * 1e3);
                if walls.len() > 1 {
                    l.tpot_ms
                        .push((tail - head) * 1e3 / (walls.len() - 1) as f64);
                }
                l.itl_ms
                    .extend(walls.windows(2).map(|w| (w[1] - w[0]) * 1e3));
            }
        }
        l.late_ms = self
            .sent
            .iter()
            .map(|s| (s.submit_s - s.due_s) * 1e3)
            .collect();
        l
    }

    /// First due time to last completion, in seconds.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        let start = self.sent.first().map_or(0.0, |s| s.due_s);
        let end = self
            .finished
            .iter()
            .map(|f| self.steps[f.step].end_s)
            .fold(start, f64::max);
        end - start
    }

    /// Seconds spent inside `step()`.
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.steps.iter().map(|s| s.end_s - s.start_s).sum()
    }

    /// Token rows the engine's clock charged (one tick per row on the
    /// CPU backend).
    #[must_use]
    pub fn rows(&self) -> u64 {
        match (self.steps.first(), self.steps.last()) {
            (Some(a), Some(b)) => b.now_after - a.now_before,
            _ => 0,
        }
    }

    /// Tokens generated by finished requests.
    #[must_use]
    pub fn generated_tokens(&self) -> usize {
        self.finished
            .iter()
            .map(|f| f.completion.tokens.len())
            .sum()
    }

    /// Prompt tokens of finished requests.
    #[must_use]
    pub fn prompt_tokens(&self) -> usize {
        self.finished
            .iter()
            .map(|f| self.sent[f.completion.id as usize].prompt_tokens)
            .sum()
    }
}

/// Per-request and per-token wall-clock samples of one pass, unsorted.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    /// Due time to first token, per request.
    pub ttft_ms: Vec<f64>,
    /// Mean gap per token after the first, per request with ≥ 2 tokens.
    pub tpot_ms: Vec<f64>,
    /// Every gap between consecutive tokens of a request.
    pub itl_ms: Vec<f64>,
    /// Due time to the start of the admitting step, per request.
    pub queue_wait_ms: Vec<f64>,
    /// How late the generator submitted, per request sent.
    pub late_ms: Vec<f64>,
}
