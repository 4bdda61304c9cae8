#!/usr/bin/env bash
# Builds the benchmark from source and runs it. All arguments go to the
# binary (see `run.sh --help`); the driver of BENCHMARK.json appends
# `--workload NAME --seed N --seconds T --trace 0|1`.
#
# Cargo's output goes to stderr, so stdout carries metric lines only and
# ends with the result object. With CARGO_TARGET_DIR unset the build
# lands in benchmark/target.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/vlog-benchmark" "$@"
