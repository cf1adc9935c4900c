//! # speedllm-benchmark
//!
//! The repo's benchmark, as a library so that its own tests can run it:
//! five named workloads over the public API of `crates/*`, measured on
//! the wall clock from outside. `README.md` says what every metric means;
//! [`spec`] is where the names live.

#![warn(missing_docs)]

pub mod check;
pub mod drive;
pub mod json;
pub mod paper;
pub mod probes;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod timed;
pub mod trace;

use report::{Opts, Report};
use spec::Kind;

/// Runs workload `name` once in this process, or `None` for an unknown
/// name.
#[must_use]
pub fn run_workload(name: &str, opts: &Opts) -> Option<Report> {
    let workload = spec::WORKLOADS.iter().find(|w| w.name == name)?;
    Some(match spec::kind(name, opts.smoke)? {
        Kind::Serve(s) => serve::run(workload.name, &s, opts),
        Kind::Paper => paper::run(workload.name, opts),
    })
}
