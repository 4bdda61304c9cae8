#!/usr/bin/env bash
# Tier-1 verify plus the bench/format gates, all offline.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
# Warnings are errors in every target (lib, tests, benches, examples,
# benchmark/): an import, helper or constant orphaned by a deletion fails
# the gate instead of lingering. Exported once so every cargo call below
# shares one flag set, hence one build cache.
export RUSTFLAGS="-D warnings"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> knob inventory (every VLOG_* name in non-test source under crates/ is in README)"
# Non-test source: no tests/ directory, and each file only up to its
# first #[cfg(test)] module.
knobs=$(find crates -path '*/tests' -prune -o -name '*.rs' -print0 |
    xargs -0 awk 'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 } live' |
    grep -oE 'VLOG_[A-Z_]+' | sort -u)
for knob in $knobs; do
    grep -qw "$knob" README.md || {
        echo "env knob $knob is read or named under crates/ but README.md does not document it" >&2
        exit 1; }
done
echo "    knob inventory: ok ($(echo "$knobs" | wc -w) names, all documented)"

echo "==> cargo build --release (RUSTFLAGS=-D warnings from here on)"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> cargo doc --no-deps (rustdoc gate, RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --quiet

echo "==> cargo bench --no-run (compile every bench target)"
cargo bench --no-run --offline

echo "==> smoke bench (micro, 5 ms window) -> BENCH_micro.json"
VLOG_BENCH_MS=5 cargo bench -q --offline --bench micro >/dev/null
test -s BENCH_micro.json || { echo "BENCH_micro.json was not produced" >&2; exit 1; }
grep -q "event_calendar/calendar_schedule_drain" BENCH_micro.json || {
    echo "BENCH_micro.json is missing the event_calendar group" >&2; exit 1; }
grep -q "event_calendar/heap_schedule_drain" BENCH_micro.json || {
    echo "BENCH_micro.json is missing the heap baseline" >&2; exit 1; }
grep -q "sharded_stats/" BENCH_micro.json || {
    echo "BENCH_micro.json is missing the sharded_stats group" >&2; exit 1; }
grep -q "el_batching/" BENCH_micro.json || {
    echo "BENCH_micro.json is missing the el_batching group" >&2; exit 1; }
grep -q "pb_compact/" BENCH_micro.json || {
    echo "BENCH_micro.json is missing the pb_compact group" >&2; exit 1; }
grep -q "causality_store/" BENCH_micro.json || {
    echo "BENCH_micro.json is missing the causality_store group" >&2; exit 1; }
grep -q "kernel_loop/" BENCH_micro.json || {
    echo "BENCH_micro.json is missing the kernel_loop group" >&2; exit 1; }
echo "    BENCH_micro.json: ok (event_calendar + sharded_stats + el_batching + pb_compact + causality_store + kernel_loop groups present)"

echo "==> throughput-regression gate (vs committed BENCH_micro.json, VLOG_GATE_TOLERANCE=${VLOG_GATE_TOLERANCE:-40}%)"
if git cat-file -e HEAD:BENCH_micro.json 2>/dev/null; then
    mkdir -p target
    git show HEAD:BENCH_micro.json > target/bench_micro_baseline.json
    cargo run -q --release --offline -p vlog-bench --bin bench_gate -- \
        target/bench_micro_baseline.json BENCH_micro.json
else
    echo "    bench gate: skipped (no BENCH_micro.json committed at HEAD yet)"
fi

echo "==> workloads sweep bench (quick registry) -> BENCH_workloads.json"
VLOG_SCALE=quick cargo bench -q --offline --bench workloads >/dev/null
test -s BENCH_workloads.json || { echo "BENCH_workloads.json was not produced" >&2; exit 1; }
for fam in nas netpipe bursty halo fft; do
    grep -q "\"name\": \"$fam/" BENCH_workloads.json || {
        echo "BENCH_workloads.json is missing the $fam workload group" >&2; exit 1; }
done
echo "    BENCH_workloads.json: ok (one group per registered workload family)"

echo "==> paper figures + claims -> BENCH_paper.json (committed artifact, default scale)"
env -u VLOG_SCALE cargo bench -q --offline --bench paper >/dev/null
test -s BENCH_paper.json || { echo "BENCH_paper.json was not produced" >&2; exit 1; }
git ls-files --error-unmatch BENCH_paper.json >/dev/null 2>&1 || {
    echo "BENCH_paper.json is not committed (git diff cannot guard an untracked" >&2
    echo "file) — git add it so the drift gate is real" >&2
    exit 1; }
git diff --exit-code -- BENCH_paper.json || {
    echo "BENCH_paper.json drifted from the committed copy: a figure value moved or a" >&2
    echo "claim's verdict flipped. If that is intended, commit the regenerated file" >&2
    echo "(and REPORT.md, whose section 0 renders it)" >&2
    exit 1; }
echo "    BENCH_paper.json: ok ($(grep -c '"verdict": "holds"' BENCH_paper.json) claims hold, $(grep -c '"verdict": "deviates"' BENCH_paper.json) deviate, regenerated byte-identical)"

echo "==> scaled-regime sweep -> BENCH_regimes.json + REPORT.md (committed artifacts)"
cargo bench -q --offline --bench regimes >/dev/null
test -s BENCH_regimes.json || { echo "BENCH_regimes.json was not produced" >&2; exit 1; }
test -s REPORT.md || { echo "REPORT.md was not produced" >&2; exit 1; }
for fam in nas netpipe bursty halo fft; do
    grep -q "\"family\": \"$fam\"" BENCH_regimes.json || {
        echo "BENCH_regimes.json is missing the $fam family" >&2; exit 1; }
done
for axis in "gigabit/el1" "gigabit/el4" "dual-gigabit/el4" "hetero-uplink/el2"; do
    grep -q "@$axis" BENCH_regimes.json || {
        echo "BENCH_regimes.json is missing the EL-scaling axis $axis" >&2; exit 1; }
done
grep -q "## 0. Paper scorecard" REPORT.md || {
    echo "REPORT.md is missing the paper scorecard (section 0)" >&2; exit 1; }
grep -q "## 6. Event Logger scaling" REPORT.md || {
    echo "REPORT.md is missing the EL-scaling table" >&2; exit 1; }
grep -q "## 7. Compact piggyback at aggregated client scale" REPORT.md || {
    echo "REPORT.md is missing the compact-piggyback scale table" >&2; exit 1; }
grep -q "100800" REPORT.md || {
    echo "REPORT.md table 7 is missing the six-figure modeled population" >&2; exit 1; }
git ls-files --error-unmatch BENCH_regimes.json REPORT.md >/dev/null 2>&1 || {
    echo "BENCH_regimes.json / REPORT.md are not committed (git diff cannot" >&2
    echo "guard untracked files) — git add them so the drift gate is real" >&2
    exit 1; }
git diff --exit-code -- BENCH_regimes.json REPORT.md || {
    echo "BENCH_regimes.json / REPORT.md drifted from the committed copies:" >&2
    echo "the regimes sweep is deterministic, so regenerate and commit them" >&2
    exit 1; }
echo "    BENCH_regimes.json + REPORT.md: ok (regenerated byte-identical)"

echo "==> liveness smoke (hang detector: buggy run dangles, clean run clean)"
for t in liveness_regression prop_causality; do
    test -f "tests/tests/$t.rs" || {
        echo "liveness test target tests/tests/$t.rs is missing" >&2; exit 1; }
done
cargo run -q --release --offline -p vlog-bench --bin liveness_smoke

echo "==> schedule exploration smoke (env-overridable budget)"
VLOG_EXPLORE_SCHEDULES="${VLOG_EXPLORE_SCHEDULES:-48}" \
VLOG_EXPLORE_DEPTH="${VLOG_EXPLORE_DEPTH:-4}" \
VLOG_EXPLORE_SEED="${VLOG_EXPLORE_SEED:-0x19052005}" \
    cargo run -q --release --offline -p vlog-explore --bin explore_smoke

echo "==> sweep driver smoke (--threads 2: parallel path must match sequential)"
cargo run -q --release --offline --example sweep_smoke -- --threads 2

echo "==> end-to-end benchmark crate (build + unit tests + quick run: the BENCHMARK.json pipeline gates on it)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# The quick run's own correctness gate: equal tallies and fingerprints
# across iterations, zero failed operations — else a non-zero exit.
benchmark/run.sh --quick >/dev/null
echo "    benchmark/: ok (six workloads, end to end and traced, zero failed operations)"

echo "==> profiler smoke (scripts/profile.sh kernel_floor 2: a report comes out; no number is judged)"
profile=$(scripts/profile.sh kernel_floor 2 2>/dev/null)
case "$profile" in
    "profile: skipped"*) echo "    $profile" ;;
    *)
        for table in "Self time by function" "Self time by source file" \
            "Self time by crate" "Inclusive time of functions under crates/"; do
            grep -q "^## $table" <<<"$profile" || {
                echo "scripts/profile.sh printed no \"$table\" table" >&2; exit 1; }
        done
        grep -q "^| crates/sim/src/kernel.rs |" <<<"$profile" || {
            echo "scripts/profile.sh resolved no sample to crates/sim/src/kernel.rs" >&2; exit 1; }
        echo "    profile: ok ($(sed -n 's/^\([0-9]* samples\).*/\1/p' <<<"$profile"), four tables, kernel frames resolved)" ;;
esac

echo "==> examples (smoke, quick scale)"
for ex in quickstart protocol_comparison recovery_anatomy fault_tolerant_stencil; do
    VLOG_SCALE=quick cargo run -q --release --offline --example "$ex" >/dev/null
    echo "    example $ex: ok"
done

echo "verify: all green"
