#!/usr/bin/env bash
# Sampling profile of one benchmark/ workload, for hosts without `perf`:
#
#   scripts/profile.sh <workload> [seconds]      # seconds defaults to 15
#
# Compiles scripts/prof/sampler.c (a SIGPROF sampler preloaded into the
# process, see its header), builds benchmark/ with line tables into its
# own target directory, runs `--workload <workload> --seed 11 --seconds
# <seconds> --trace 0` under the sampler and prints the report of
# `prof_report` (crates/bench/src/bin): self time by layer (calendar,
# kernel, net, daemon, protocol, codec, stats, workload program, sweep
# driver) and by file, each sample charged to its innermost frame under
# crates/; self time by inlined function, by source file and by crate;
# and inclusive time of the functions under crates/. The samples stay in
# target/profile/<workload>.samples.
#
# Needs only `cc` and binutils' `addr2line`; without either it says so in
# one line, prints no table (no layer rows either) and exits 0, so a gate
# can call it unconditionally.
#
# Reading the numbers: this host ticks ITIMER_PROF at 250 Hz whatever
# interval is asked for (about 3,750 samples per busy thread in 15 s, so a
# 1 % share is known to roughly +-0.2 points), and the sampler keeps 24
# frames per sample: where stacks run deeper, outer callers are
# under-counted in the inclusive table. Self time is exact per sample.
# The set-up iterations and the measured ones are sampled alike.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/profile.sh <workload> [seconds]}"
seconds="${2:-15}"

for tool in cc addr2line; do
    command -v "$tool" >/dev/null 2>&1 || {
        echo "profile: skipped ($tool is not installed)"
        exit 0; }
done

out=target/profile
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$out/sampler.so" scripts/prof/sampler.c

# Line tables only: enough for addr2line, and the code is the release
# build's. benchmark/ is its own workspace, so the root profile's
# `debug = true` does not reach it.
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$out/build" \
    cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
cargo build -q --release --offline -p vlog-bench --bin prof_report >&2

samples="$out/$workload.samples"
PROF_OUT="$samples" LD_PRELOAD="$PWD/$out/sampler.so" \
    "$out/build/release/vlog-benchmark" \
    --workload "$workload" --seed 11 --seconds "$seconds" --trace 0 >&2

"${CARGO_TARGET_DIR:-target}/release/prof_report" "$samples"
