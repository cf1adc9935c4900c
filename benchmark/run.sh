#!/usr/bin/env bash
# The repo's benchmark. Builds the `speedllm-benchmark` package (release,
# offline) and runs it; every argument is passed through.
#
#   benchmark/run.sh                     all five workloads, one process each
#   benchmark/run.sh --trace             ... and the traced pass of each
#   benchmark/run.sh --repeat            two untraced sets, compared
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                        one workload, one JSON result line
#
# See benchmark/README.md for what is measured and why.
set -euo pipefail

# Paths in the arguments and in the output are relative to the repo root.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Cargo's progress goes to stderr; stdout stays the benchmark's own.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/speedllm-benchmark" "$@"
