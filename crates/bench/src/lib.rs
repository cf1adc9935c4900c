//! # speedllm-bench
//!
//! Workload definitions behind every table and figure reproduction (see
//! DESIGN.md §4 for the experiment index): the `repro-*` binaries print
//! the paper's rows from them. The in-repo [`harness`] runs the one bench,
//! `benches/cpu_kernels.rs`; the simulator's own speed and the serve
//! paths are timed by the `benchmark/` package.
//!
//! Setting `SPEEDLLM_TINY=1` swaps the preset and workload grids for
//! tiny, seconds-scale versions — the mode the repro-binary smoke tests
//! use.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;

use speedllm_accel::opt::OptConfig;
use speedllm_accel::runtime::{AcceleratedLlm, InferenceReport};
use speedllm_llama::config::ModelConfig;
use speedllm_llama::sampler::SamplerKind;

pub use speedllm_accel::report::{fmt_bytes, fmt_joules, fmt_seconds, Table};

/// A named model preset used in sweeps.
#[derive(Debug, Clone, Copy)]
pub struct ModelPreset {
    /// Display name (the llama2.c checkpoint name).
    pub name: &'static str,
    /// Architecture.
    pub config: ModelConfig,
}

/// True when tiny (smoke) mode is active: `SPEEDLLM_TINY` is set, by hand
/// or by the bench harness's `--smoke` flag.
#[must_use]
pub fn tiny_mode() -> bool {
    std::env::var_os("SPEEDLLM_TINY").is_some()
}

/// The TinyStories model family the paper's workload comes from.
/// `stories15M` is the paper's deployed checkpoint. In tiny mode the sweep
/// shrinks to the two smallest architectures.
#[must_use]
pub fn model_presets() -> Vec<ModelPreset> {
    if tiny_mode() {
        return vec![
            ModelPreset {
                name: "test-tiny",
                config: ModelConfig::test_tiny(),
            },
            ModelPreset {
                name: "stories260K",
                config: ModelConfig::stories260k(),
            },
        ];
    }
    vec![
        ModelPreset {
            name: "stories260K",
            config: ModelConfig::stories260k(),
        },
        ModelPreset {
            name: "stories15M",
            config: ModelConfig::stories15m(),
        },
        ModelPreset {
            name: "stories42M",
            config: ModelConfig::stories42m(),
        },
        ModelPreset {
            name: "stories110M",
            config: ModelConfig::stories110m(),
        },
    ]
}

/// The headline preset (what the paper deploys); `stories260K` in tiny
/// mode.
#[must_use]
pub fn headline_preset() -> ModelPreset {
    if tiny_mode() {
        return ModelPreset {
            name: "stories260K",
            config: ModelConfig::stories260k(),
        };
    }
    ModelPreset {
        name: "stories15M",
        config: ModelConfig::stories15m(),
    }
}

/// One benchmark workload: a prompt and a generation budget.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Display name.
    pub name: &'static str,
    /// Prompt text (tokenized with the model's tokenizer).
    pub prompt: &'static str,
    /// New tokens to generate.
    pub gen_tokens: usize,
}

/// The workload grid used for Fig 2(a): short interactive prompts through
/// longer completions, mirroring the paper's chat / code-completion
/// motivations. Tiny mode keeps the grid shape but shrinks the generation
/// budgets to seconds-scale.
#[must_use]
pub fn fig2a_workloads() -> Vec<Workload> {
    if tiny_mode() {
        return vec![
            Workload {
                name: "chat-short",
                prompt: "Hello there",
                gen_tokens: 4,
            },
            Workload {
                name: "story-8",
                prompt: "Once upon a time",
                gen_tokens: 8,
            },
        ];
    }
    vec![
        Workload {
            name: "chat-short",
            prompt: "Hello there, how are you today?",
            gen_tokens: 16,
        },
        Workload {
            name: "story-64",
            prompt: "Once upon a time there was a little dog named Tim.",
            gen_tokens: 64,
        },
        Workload {
            name: "story-128",
            prompt: "One day a girl named Lily went to the park with her mom and saw a big tree.",
            gen_tokens: 128,
        },
        Workload {
            name: "completion-192",
            prompt: "The little cat wanted to play with the ball but it was up in the tree, so",
            gen_tokens: 192,
        },
    ]
}

/// The fixed workload used for Fig 2(b) (energy) and the cost table.
#[must_use]
pub fn fig2b_workload() -> Workload {
    if tiny_mode() {
        return Workload {
            name: "story-8",
            prompt: "Once upon a time",
            gen_tokens: 8,
        };
    }
    Workload {
        name: "story-128",
        prompt: "Once upon a time there was a little dog named Tim.",
        gen_tokens: 128,
    }
}

/// Deterministic generation settings shared by all measurements: argmax
/// sampling so every variant generates the identical token sequence and
/// measured work is identical across variants.
pub const SAMPLER: SamplerKind = SamplerKind::Argmax;
/// Seed for synthetic weights/vocabulary.
pub const SEED: u64 = 42;

/// One measured data point.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Variant name (e.g. "SpeedLLM (ours)").
    pub variant: &'static str,
    /// Optimization selection measured.
    pub opt: OptConfig,
    /// The full report.
    pub report: InferenceReport,
}

impl Measurement {
    /// Total latency in seconds.
    #[must_use]
    pub fn latency_s(&self) -> f64 {
        self.report.total_latency_s()
    }

    /// Decode throughput in tokens/s.
    #[must_use]
    pub fn tokens_per_s(&self) -> f64 {
        self.report.decode_tokens_per_s()
    }

    /// Energy efficiency in tokens/J.
    #[must_use]
    pub fn tokens_per_joule(&self) -> f64 {
        self.report.tokens_per_joule()
    }
}

/// Builds the accelerated system for a preset and optimization selection.
///
/// # Panics
/// Panics if the design point does not fit the device (all shipped
/// variants do — checked by tests).
#[must_use]
pub fn build_system(preset: &ModelPreset, opt: OptConfig) -> AcceleratedLlm {
    AcceleratedLlm::synthetic(preset.config, SEED, opt)
        .unwrap_or_else(|e| panic!("variant {} failed to build: {e}", opt.short_name()))
}

/// Runs one workload on one variant and returns the measurement.
#[must_use]
pub fn run_variant(
    preset: &ModelPreset,
    workload: &Workload,
    variant: &'static str,
    opt: OptConfig,
) -> Measurement {
    let system = build_system(preset, opt);
    let mut session = system.session(SAMPLER, SEED);
    let report = session
        .generate(workload.prompt, workload.gen_tokens)
        .expect("workload must fit the context window");
    Measurement {
        variant,
        opt,
        report,
    }
}

/// Runs all four paper variants on a workload.
#[must_use]
pub fn run_paper_variants(preset: &ModelPreset, workload: &Workload) -> Vec<Measurement> {
    OptConfig::paper_variants()
        .into_iter()
        .map(|(name, opt)| run_variant(preset, workload, name, opt))
        .collect()
}

/// Looks up a measurement by variant name.
#[must_use]
pub fn find<'m>(ms: &'m [Measurement], variant: &str) -> &'m Measurement {
    ms.iter()
        .find(|m| m.variant == variant)
        .unwrap_or_else(|| panic!("variant {variant} missing"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_preset() -> ModelPreset {
        ModelPreset {
            name: "tiny",
            config: ModelConfig::test_tiny(),
        }
    }

    #[test]
    fn presets_cover_paper_family() {
        let names: Vec<&str> = model_presets().iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec!["stories260K", "stories15M", "stories42M", "stories110M"]
        );
        assert_eq!(headline_preset().name, "stories15M");
    }

    #[test]
    fn run_variant_produces_tokens() {
        let w = Workload {
            name: "t",
            prompt: "ab",
            gen_tokens: 4,
        };
        let m = run_variant(&tiny_preset(), &w, "full", OptConfig::full());
        assert!(!m.report.output.generated_tokens.is_empty());
        assert!(m.latency_s() > 0.0);
        assert!(m.tokens_per_s() > 0.0);
        assert!(m.tokens_per_joule() > 0.0);
    }

    #[test]
    fn paper_variants_agree_on_tokens() {
        let w = Workload {
            name: "t",
            prompt: "xy",
            gen_tokens: 4,
        };
        let ms = run_paper_variants(&tiny_preset(), &w);
        assert_eq!(ms.len(), 4);
        for m in &ms[1..] {
            assert_eq!(
                m.report.output.generated_tokens,
                ms[0].report.output.generated_tokens
            );
        }
        let ours = find(&ms, "SpeedLLM (ours)");
        let unopt = find(&ms, "unoptimized");
        assert!(ours.latency_s() < unopt.latency_s());
    }
}
