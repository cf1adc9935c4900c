//! The paper's own experiment: Fig 2(a)'s four prompts through
//! `AcceleratedLlm::session().generate()` on the simulated U280, with
//! every optimization on (`full`) and off (`unoptimized`).
//!
//! Two clocks meet here. **Simulated** time and energy come from the
//! cycle model and repeat exactly; they are the paper's claims. **Host**
//! time is how long this machine takes to simulate them, and is what the
//! end-to-end metrics of this workload measure. `generate` returns only
//! when a whole generation is done, so the host-side time to first token
//! of a prompt is measured as a separate one-token `generate`, and the
//! time per further token from the full call minus that.

use std::time::Instant;

use speedllm_accel::opt::OptConfig;
use speedllm_accel::runtime::{AcceleratedLlm, InferenceReport, Session};
use speedllm_llama::config::ModelConfig;
use speedllm_llama::sampler::SamplerKind;
use speedllm_telemetry as tel;

use crate::check::stream_digest;
use crate::json::Json;
use crate::probes::HostProbe;
use crate::report::{peak_rss_mb, Measured, Opts, Report};
use crate::serve::set_up_repeatedly;
use crate::spec::WEIGHT_SEED;
use crate::stats::median;
use crate::trace::{harness_trace, request_tid, span, write_trace, ProgramSpans, BACKEND_TID};

/// One cell of the workload grid.
#[derive(Debug, Clone, Copy)]
pub struct Item {
    /// Display name.
    pub name: &'static str,
    /// Prompt text.
    pub prompt: &'static str,
    /// New tokens to generate.
    pub gen_tokens: usize,
}

/// Fig 2(a)'s grid, copied from `speedllm_bench::fig2a_workloads` so the
/// benchmark does not move when the bench crate does.
pub const GRID: [Item; 4] = [
    Item {
        name: "chat-short",
        prompt: "Hello there, how are you today?",
        gen_tokens: 16,
    },
    Item {
        name: "story-64",
        prompt: "Once upon a time there was a little dog named Tim.",
        gen_tokens: 64,
    },
    Item {
        name: "story-128",
        prompt: "One day a girl named Lily went to the park with her mom and saw a big tree.",
        gen_tokens: 128,
    },
    Item {
        name: "completion-192",
        prompt: "The little cat wanted to play with the ball but it was up in the tree, so",
        gen_tokens: 192,
    },
];

/// The grid of a `--smoke` run (the tiny model has a 32-token context).
pub const SMOKE_GRID: [Item; 2] = [
    Item {
        name: "chat-short",
        prompt: "Hi",
        gen_tokens: 4,
    },
    Item {
        name: "story-8",
        prompt: "Once",
        gen_tokens: 8,
    },
];

/// The paper's headline numbers the simulated ratios are held against.
const PAPER_SPEEDUP: f64 = 4.8;
const PAPER_ENERGY_GAIN: f64 = 1.18;

/// Index of `full` and `unoptimized` in a variant pair.
const FULL: usize = 0;
const UNOPT: usize = 1;

fn variants() -> [OptConfig; 2] {
    [OptConfig::full(), OptConfig::unoptimized()]
}

/// One session per variant, each warmed by a short generation. Returns
/// them with the seconds `AcceleratedLlm::synthetic` took in total.
fn set_up(model: ModelConfig) -> ([Session; 2], f64) {
    let mut build_s = 0.0;
    let sessions = variants().map(|opt| {
        let began = Instant::now();
        let system = AcceleratedLlm::synthetic(model, WEIGHT_SEED, opt)
            .expect("both paper variants fit the device");
        build_s += began.elapsed().as_secs_f64();
        let mut session = system.session(SamplerKind::Argmax, WEIGHT_SEED);
        session
            .generate("Hi", 2)
            .expect("the warm-up fits the context window");
        session
    });
    (sessions, build_s)
}

/// One grid cell on one variant: the one-token call and the full call.
struct Cell {
    item: usize,
    variant: usize,
    /// When the one-token call began, seconds since the run's epoch.
    start_s: f64,
    /// Host seconds of `generate(prompt, 1)`.
    first_s: f64,
    /// Host seconds of `generate(prompt, gen_tokens)`.
    full_s: f64,
    first: InferenceReport,
    full: InferenceReport,
}

impl Cell {
    fn generated(&self) -> usize {
        self.first.output.generated_tokens.len() + self.full.output.generated_tokens.len()
    }

    fn prompt_tokens(&self) -> usize {
        self.first.output.prompt_tokens.len() + self.full.output.prompt_tokens.len()
    }

    fn cycles(&self) -> u64 {
        [&self.first, &self.full]
            .iter()
            .map(|r| (r.prefill_cycles + r.decode_cycles).0)
            .sum()
    }
}

/// The cells one timed stretch ran, with its host wall time.
struct Passes {
    cells: Vec<Cell>,
    wall_s: f64,
    /// `generate` calls made.
    calls: u64,
    /// `generate` calls that returned an error.
    errors: Vec<String>,
}

/// Runs the grid's cells, pass after pass, until `done(cells_run,
/// elapsed_s)` — checked after every cell, but never before one whole
/// pass, which the simulated results need. The prompts are the paper's
/// and the order is the grid's: a seed has nothing to vary here.
fn run_passes(
    sessions: &mut [Session; 2],
    grid: &[Item],
    epoch: Instant,
    done: impl Fn(usize, f64) -> bool,
) -> Passes {
    let order: Vec<(usize, usize)> = (0..grid.len())
        .flat_map(|i| [(i, FULL), (i, UNOPT)])
        .collect();
    let began = Instant::now();
    let mut out = Passes {
        cells: Vec::new(),
        wall_s: 0.0,
        calls: 0,
        errors: Vec::new(),
    };
    for &(i, v) in order.iter().cycle() {
        let (item, session) = (&grid[i], &mut sessions[v]);
        let t = Instant::now();
        let start_s = t.duration_since(epoch).as_secs_f64();
        let first = session.generate(item.prompt, 1);
        let first_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let full = session.generate(item.prompt, item.gen_tokens);
        let full_s = t.elapsed().as_secs_f64();
        out.calls += 2;
        match (first, full) {
            (Ok(first), Ok(full)) => out.cells.push(Cell {
                item: i,
                variant: v,
                start_s,
                first_s,
                full_s,
                first,
                full,
            }),
            (a, b) => out.errors.extend(
                [a.err(), b.err()]
                    .into_iter()
                    .flatten()
                    .map(|e| format!("{}: {e}", item.name)),
            ),
        }
        let cells_run = (out.calls / 2) as usize;
        if cells_run >= order.len() && done(cells_run, began.elapsed().as_secs_f64()) {
            break;
        }
    }
    out.wall_s = began.elapsed().as_secs_f64();
    out
}

/// What the simulator said, taken from the first pass.
#[derive(Default)]
struct Simulated {
    decode_tok_s: f64,
    tok_per_j: f64,
    speedup_x: f64,
    energy_gain_x: f64,
}

impl Passes {
    fn cell(&self, item: usize, variant: usize) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|c| c.item == item && c.variant == variant)
    }

    /// The simulated headline numbers; `reference` is the grid cell
    /// (story-128) the single-cell ones are read from.
    fn simulated(&self, grid: &[Item], reference: usize) -> Option<Simulated> {
        let full = &self.cell(reference, FULL)?.full;
        let unopt = &self.cell(reference, UNOPT)?.full;
        let mut speedup_x = 0.0f64;
        for i in 0..grid.len() {
            let ours = self.cell(i, FULL)?.full.total_latency_s();
            let theirs = self.cell(i, UNOPT)?.full.total_latency_s();
            speedup_x = speedup_x.max(theirs / ours);
        }
        Some(Simulated {
            decode_tok_s: full.decode_tokens_per_s(),
            tok_per_j: full.tokens_per_joule(),
            speedup_x,
            energy_gain_x: full.tokens_per_joule() / unopt.tokens_per_joule(),
        })
    }

    /// Everything the simulator must repeat exactly and every variant
    /// must agree on.
    fn problems(&self, grid: &[Item]) -> Vec<String> {
        let mut problems = self.errors.clone();
        for (i, item) in grid.iter().enumerate() {
            let Some(want) = self.cell(i, FULL) else {
                continue;
            };
            for c in self.cells.iter().filter(|c| c.item == i) {
                if c.full.output.generated_tokens != want.full.output.generated_tokens {
                    problems.push(format!(
                        "{}: full and unoptimized, or two passes, generated different tokens",
                        item.name
                    ));
                }
                if c.first.output.generated_tokens.first() != c.full.output.generated_tokens.first()
                {
                    problems.push(format!(
                        "{}: the one-token call disagrees with the full call",
                        item.name
                    ));
                }
                if c.variant == FULL
                    && (c.full.prefill_cycles, c.full.decode_cycles)
                        != (want.full.prefill_cycles, want.full.decode_cycles)
                {
                    problems.push(format!("{}: simulated cycles did not repeat", item.name));
                }
            }
        }
        problems
    }

    fn generated(&self) -> usize {
        self.cells.iter().map(Cell::generated).sum()
    }

    /// The harness's spans of a traced pass: a request per grid cell and,
    /// inside it, its two `generate` calls.
    fn harness_spans(&self, grid: &[Item]) -> tel::export::ChromeTrace {
        let mut trace = harness_trace();
        for (n, c) in self.cells.iter().enumerate() {
            let args = [
                ("req", n as i64),
                ("variant", c.variant as i64),
                ("tokens", c.full.output.generated_tokens.len() as i64),
            ];
            // One stream: every request on the same lane.
            let (name, whole_s) = (grid[c.item].name, c.first_s + c.full_s);
            span(&mut trace, request_tid(0), name, c.start_s, whole_s, &args);
            let mut call = |name, start_s, dur_s| {
                span(&mut trace, BACKEND_TID, name, start_s, dur_s, &args);
            };
            call("generate_first", c.start_s, c.first_s);
            call("generate_full", c.start_s + c.first_s, c.full_s);
        }
        trace
    }
}

/// Runs the paper workload.
#[must_use]
pub fn run(name: &'static str, o: &Opts) -> Report {
    let (model, grid, reference): (_, &[Item], _) = if o.smoke {
        (ModelConfig::test_tiny(), &SMOKE_GRID, 1)
    } else {
        (ModelConfig::stories15m(), &GRID, 2)
    };
    let probe = HostProbe::open(o.smoke);
    let epoch = Instant::now();

    let mut builds = Vec::new();
    let (mut sessions, setups) = set_up_repeatedly(|| {
        let (sessions, build_s) = set_up(model);
        builds.push(build_s);
        sessions
    });

    // A traced run splits its window, like the serve workloads do.
    let window_s = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let cells_per_pass = 2 * grid.len();
    // A smoke run is two whole passes, so that its counters repeat.
    let done = |cells: usize, elapsed_s: f64| {
        if o.smoke {
            cells >= 2 * cells_per_pass
        } else {
            elapsed_s >= window_s
        }
    };
    let bare = run_passes(&mut sessions, grid, epoch, done);
    let peak_rss = peak_rss_mb();
    let traced = o.trace.then(|| {
        tel::reset();
        tel::set_enabled(true);
        let passes = run_passes(&mut sessions, grid, epoch, done);
        tel::set_enabled(false);
        (passes, tel::drain_spans(), tel::dropped_spans())
    });
    drop(sessions);

    let host = probe.close();

    let mut problems = bare.problems(grid);
    let mut attempted = bare.calls;
    let mut failed = bare.errors.len() as u64;
    let digest_of = |p: &Passes| {
        stream_digest((0..grid.len()).filter_map(|i| {
            p.cell(i, FULL)
                .map(|c| (i as u64, c.full.output.generated_tokens.as_slice()))
        }))
    };
    let digest = digest_of(&bare);
    if let Some((t, _, _)) = &traced {
        attempted += t.calls;
        failed += t.errors.len() as u64;
        problems.extend(
            t.problems(grid)
                .into_iter()
                .map(|p| format!("traced pass: {p}")),
        );
        if digest_of(t) != digest {
            problems.push("traced and untraced passes generated different streams".to_string());
        }
    }
    let sim = bare.simulated(grid, reference);
    if sim.is_none() {
        problems.push("the grid did not complete".to_string());
    }
    let sim = sim.unwrap_or_default();

    let generated = bare.generated();
    let prompt_tokens: usize = bare.cells.iter().map(Cell::prompt_tokens).sum();
    let cycles: u64 = bare.cells.iter().map(Cell::cycles).sum();
    let first_ms: Vec<f64> = bare.cells.iter().map(|c| c.first_s * 1e3).collect();
    // Time per token after the first: the full call less the one-token
    // call. Less the *fastest* one-token call of that prompt, so that a
    // disturbed one-token call does not make the full call look fast.
    let fastest_first = |item: usize| {
        bare.cells
            .iter()
            .filter(|c| c.item == item)
            .map(|c| c.first_s)
            .fold(f64::INFINITY, f64::min)
    };
    let per_token_ms: Vec<f64> = bare
        .cells
        .iter()
        .filter(|c| c.full.output.generated_tokens.len() > 1)
        .map(|c| {
            (c.full_s - fastest_first(c.item)).max(0.0) * 1e3
                / (c.full.output.generated_tokens.len() - 1) as f64
        })
        .collect();

    let mut aux = vec![
        ("seed", Json::Num(o.seed as f64)),
        ("digest", Json::str(format!("{digest:016x}"))),
        (
            "passes",
            Json::Num(bare.cells.len() as f64 / cells_per_pass as f64),
        ),
        ("wall_s", Json::Num(bare.wall_s)),
        // Simulated, so they repeat exactly; `--repeat` compares them
        // bit for bit.
        ("sim_decode_tok_s", Json::Num(sim.decode_tok_s)),
        ("sim_tok_per_j", Json::Num(sim.tok_per_j)),
        ("sim_speedup_x", Json::Num(sim.speedup_x)),
        ("sim_energy_gain_x", Json::Num(sim.energy_gain_x)),
    ];
    aux.extend(host.aux());

    let (values, samples) = match &traced {
        None => Measured {
            setups_s: setups,
            generated,
            prompt: prompt_tokens,
            wall_s: bare.wall_s,
            ttft_ms: first_ms,
            tpot_ms: per_token_ms,
            // `generate` returns whole generations: no token gaps to see.
            itl_ms: Vec::new(),
            peak_rss_mb: peak_rss,
        }
        .end_to_end(),
        Some((t, spans, dropped)) => {
            if let Some(dir) = &o.out_dir {
                write_trace(
                    &dir.join(format!("{name}.trace.json")),
                    t.harness_spans(grid),
                );
            }
            let full = bare.cell(reference, FULL).map(|c| &c.full);
            let per_token = |f: &dyn Fn(&InferenceReport) -> f64| {
                full.map_or(0.0, |r| {
                    f(r) / r.output.generated_tokens.len().max(1) as f64
                })
            };
            let program = ProgramSpans::of(spans);
            let host_us = |p: &Passes| p.wall_s * 1e6 / (p.generated() as f64).max(1.0);
            let mut values = vec![
                ("accel.build_ms", median(builds) * 1e3),
                ("accel.host_us_per_token", host_us(&bare)),
                (
                    "accel.cycles_per_token_p50",
                    full.map_or(0.0, |r| {
                        median(r.per_token_cycles.iter().map(|c| c.0 as f64).collect())
                    }),
                ),
                ("accel.speedup_x", sim.speedup_x),
                ("accel.energy_gain_x", sim.energy_gain_x),
                (
                    "fpga-sim.hbm_read_mb_per_token",
                    per_token(&|r| r.stats.hbm.read_bytes as f64 / 1e6),
                ),
                (
                    "fpga-sim.mpe_macs_per_token",
                    per_token(&|r| r.stats.mpe.macs as f64),
                ),
                (
                    "fpga-sim.kernel_launches_per_token",
                    per_token(&|r| r.stats.kernel_launches as f64),
                ),
                (
                    "fpga-sim.alloc_stalls_per_token",
                    per_token(&|r| r.stats.alloc_stalls as f64),
                ),
                (
                    "fpga-sim.energy_mj_per_token",
                    per_token(&|r| r.energy.total_j() * 1e3),
                ),
                (
                    "fpga-sim.mpe_busy_share",
                    full.map_or(0.0, |r| {
                        r.stats.mpe.busy_cycles as f64 / (r.stats.total_cycles.0 as f64).max(1.0)
                    }),
                ),
                ("sim_decode_tok_s", sim.decode_tok_s),
                ("sim_tok_per_j", sim.tok_per_j),
                (
                    "paper_speedup_err",
                    (sim.speedup_x - PAPER_SPEEDUP).abs() / PAPER_SPEEDUP,
                ),
                (
                    "paper_energy_err",
                    (sim.energy_gain_x - PAPER_ENERGY_GAIN).abs() / PAPER_ENERGY_GAIN,
                ),
                ("sim_cycles_per_s", cycles as f64 / bare.wall_s),
                ("telemetry.spans", spans.len() as f64),
                ("telemetry.dropped", *dropped as f64),
                (
                    "telemetry.unattributed_share",
                    1.0 - program.total_ms() / (t.wall_s * 1e3),
                ),
                (
                    "telemetry.overhead_share",
                    host_us(t) / host_us(&bare) - 1.0,
                ),
                ("loadgen.sent", t.calls as f64),
                ("loadgen.ok", 2.0 * t.cells.len() as f64),
                ("loadgen.failed", t.errors.len() as f64),
            ];
            values.extend(program.values());
            values.extend(host.values());
            (values, Vec::new())
        }
    };

    Report {
        workload: name,
        traced: o.trace,
        attempted,
        failed,
        problems,
        values,
        samples,
        aux,
    }
}
