//! Minimal dependency-free flag parsing for the `speedllm` binary.
//!
//! Grammar: `speedllm <command> [--flag value]...` — every flag takes
//! exactly one value; unknown flags are errors so typos fail loudly.

use std::collections::HashMap;

use speedllm_accel::opt::OptConfig;
use speedllm_llama::config::ModelConfig;
use speedllm_llama::sampler::SamplerKind;

/// Parsed command line: command name + flag map.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: HashMap<String, String>,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl Args {
    /// Parses `argv[1..]`: a command followed by `--key value` pairs.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, ParseError> {
        let mut it = argv.into_iter();
        let command = it
            .next()
            .ok_or_else(|| ParseError("missing command; try `speedllm help`".into()))?;
        let mut flags = HashMap::new();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| ParseError(format!("expected --flag, got `{arg}`")))?;
            let value = it
                .next()
                .ok_or_else(|| ParseError(format!("flag --{key} needs a value")))?;
            if flags.insert(key.to_string(), value).is_some() {
                return Err(ParseError(format!("duplicate flag --{key}")));
            }
        }
        Ok(Self { command, flags })
    }

    /// Raw string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// String flag with default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Integer flag with default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, ParseError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("--{key} expects an integer, got `{v}`"))),
        }
    }

    /// u64 flag with default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, ParseError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("--{key} expects an integer, got `{v}`"))),
        }
    }

    /// Rejects flags outside the allowed set (catches typos).
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), ParseError> {
        for key in self.flags.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(ParseError(format!(
                    "unknown flag --{key}; allowed: {}",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

/// Resolves a `--preset` name to a model config.
pub fn parse_preset(name: &str) -> Result<ModelConfig, ParseError> {
    match name {
        "stories260k" | "260k" => Ok(ModelConfig::stories260k()),
        "stories15m" | "15m" => Ok(ModelConfig::stories15m()),
        "stories42m" | "42m" => Ok(ModelConfig::stories42m()),
        "stories110m" | "110m" => Ok(ModelConfig::stories110m()),
        "tiny" => Ok(ModelConfig::test_tiny()),
        other => Err(ParseError(format!(
            "unknown preset `{other}` (stories260k|stories15m|stories42m|stories110m|tiny)"
        ))),
    }
}

/// Resolves a `--variant` name to an optimization config.
pub fn parse_variant(name: &str) -> Result<OptConfig, ParseError> {
    match name {
        "full" | "ours" => Ok(OptConfig::full()),
        "no-fuse" => Ok(OptConfig::no_fuse()),
        "no-parallel" => Ok(OptConfig::no_parallel()),
        "no-reuse" => Ok(OptConfig::no_reuse()),
        "unoptimized" | "baseline" => Ok(OptConfig::unoptimized()),
        "int8" => Ok(OptConfig::full_int8()),
        "int4" => Ok(OptConfig::full_int4()),
        other => Err(ParseError(format!(
            "unknown variant `{other}` (full|no-fuse|no-parallel|no-reuse|unoptimized|int8|int4)"
        ))),
    }
}

/// Parses a `--quant` weight precision: `f32`, `int8`, or `int4`.
pub fn parse_quant(name: &str) -> Result<speedllm_llama::QuantMode, ParseError> {
    speedllm_llama::QuantMode::parse(name)
        .ok_or_else(|| ParseError(format!("unknown quant mode `{name}` (f32|int8|int4)")))
}

/// Parses a `--sampler` spec: `argmax`, `temp:0.9`, `topp:0.9,0.95`,
/// `topk:0.9,40`. A policy no sampler can draw with
/// ([`SamplerKind::validate`]) is an error too.
pub fn parse_sampler(spec: &str) -> Result<SamplerKind, ParseError> {
    let kind = parse_sampler_kind(spec)?;
    kind.validate()
        .map_err(|broken| ParseError(format!("bad sampler spec `{spec}`: {broken}")))?;
    Ok(kind)
}

/// The policy a `--sampler` spec spells, unchecked.
fn parse_sampler_kind(spec: &str) -> Result<SamplerKind, ParseError> {
    if spec == "argmax" {
        return Ok(SamplerKind::Argmax);
    }
    let (kind, rest) = spec
        .split_once(':')
        .ok_or_else(|| ParseError(format!("bad sampler spec `{spec}`")))?;
    let bad = || ParseError(format!("bad sampler spec `{spec}`"));
    match kind {
        "temp" => {
            let t: f32 = rest.parse().map_err(|_| bad())?;
            Ok(SamplerKind::Temperature(t))
        }
        "topp" => {
            let (t, p) = rest.split_once(',').ok_or_else(bad)?;
            Ok(SamplerKind::TopP {
                temperature: t.parse().map_err(|_| bad())?,
                p: p.parse().map_err(|_| bad())?,
            })
        }
        "topk" => {
            let (t, k) = rest.split_once(',').ok_or_else(bad)?;
            Ok(SamplerKind::TopK {
                temperature: t.parse().map_err(|_| bad())?,
                k: k.parse().map_err(|_| bad())?,
            })
        }
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(argv("generate --prompt hello --steps 8")).unwrap();
        assert_eq!(a.command, "generate");
        assert_eq!(a.get("prompt"), Some("hello"));
        assert_eq!(a.get_usize("steps", 0).unwrap(), 8);
        assert_eq!(a.get_usize("missing", 7).unwrap(), 7);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(Args::parse(argv("")).is_err());
        assert!(Args::parse(argv("cmd positional")).is_err());
        assert!(Args::parse(argv("cmd --flag")).is_err());
        assert!(Args::parse(argv("cmd --a 1 --a 2")).is_err());
    }

    #[test]
    fn expect_only_catches_typos() {
        let a = Args::parse(argv("cmd --steps 3 --stpes 4")).unwrap();
        assert!(a.expect_only(&["steps"]).is_err());
        let b = Args::parse(argv("cmd --steps 3")).unwrap();
        assert!(b.expect_only(&["steps", "prompt"]).is_ok());
    }

    #[test]
    fn preset_names_resolve() {
        assert_eq!(
            parse_preset("stories15m").unwrap(),
            ModelConfig::stories15m()
        );
        assert_eq!(parse_preset("15m").unwrap(), ModelConfig::stories15m());
        assert!(parse_preset("huge").is_err());
    }

    #[test]
    fn variant_names_resolve() {
        assert_eq!(parse_variant("full").unwrap(), OptConfig::full());
        assert_eq!(parse_variant("baseline").unwrap(), OptConfig::unoptimized());
        assert_eq!(parse_variant("int8").unwrap(), OptConfig::full_int8());
        assert_eq!(parse_variant("int4").unwrap(), OptConfig::full_int4());
        assert!(parse_variant("hyper").is_err());
        assert_eq!(
            parse_quant("int4").unwrap(),
            speedllm_llama::QuantMode::Int4
        );
        assert!(parse_quant("fp16").is_err());
    }

    #[test]
    fn sampler_specs_resolve() {
        assert_eq!(parse_sampler("argmax").unwrap(), SamplerKind::Argmax);
        assert_eq!(
            parse_sampler("temp:0.8").unwrap(),
            SamplerKind::Temperature(0.8)
        );
        assert_eq!(
            parse_sampler("topp:0.9,0.95").unwrap(),
            SamplerKind::TopP {
                temperature: 0.9,
                p: 0.95
            }
        );
        assert_eq!(
            parse_sampler("topk:1.0,40").unwrap(),
            SamplerKind::TopK {
                temperature: 1.0,
                k: 40
            }
        );
        assert!(parse_sampler("weird").is_err());
        assert!(parse_sampler("topp:0.9").is_err());
    }

    #[test]
    fn bad_integer_flag_reports_key() {
        let a = Args::parse(argv("cmd --steps banana")).unwrap();
        let err = a.get_usize("steps", 0).unwrap_err();
        assert!(err.0.contains("--steps"));
    }
}
