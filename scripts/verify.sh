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

echo "==> knob inventory (every VLOG_* name in non-test source under crates/, vendor/ and examples/ is in README)"
# Non-test source: no tests/ directory, and each file only up to its
# first #[cfg(test)] module.
non_test='FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 } live'
knobs=$(find crates vendor examples -path '*/tests' -prune -o -name '*.rs' -print0 |
    xargs -0 awk "$non_test" |
    grep -oE 'VLOG_[A-Z_]+' | sort -u)
for knob in $knobs; do
    grep -qw "$knob" README.md || {
        echo "env knob $knob is read or named under crates/, vendor/ or examples/ but README.md does not document it" >&2
        exit 1; }
done
echo "    knob inventory: ok ($(echo "$knobs" | wc -w) names, all documented)"

echo "==> boundary gate (no Mutex, no unsafe at the task<->daemon boundary; no lock or atomic around what a cluster run shares; no thread-local or process state behind the causality log)"
# Comment lines may name what the code may not use.
boundary_gate() { # <words> <what to say> <files...>
    local words=$1 say=$2
    shift 2
    if awk "$non_test"' { print FILENAME ":" FNR ": " $0 }' "$@" |
        grep -vE '^[^ ]+ +//' | grep -wE "$words"; then
        echo "$say (lines above)" >&2
        exit 1
    fi
    echo "    boundary gate: ok (no $words in $*)"
}
# The per-message path is plain memory the kernel owns (crates/sim/src/
# exec.rs, "Ownership and Send"); a lock or an unsafe block coming back
# here is a design regression, not a detail.
boundary_gate 'Mutex|unsafe' "the task<->daemon boundary must take no lock and need no unsafe" \
    crates/sim/src/exec.rs crates/vmpi/src/pipe.rs crates/vmpi/src/api.rs
# What the components of a run share is one plain struct in the run's
# kernel (crates/vmpi/src/cluster.rs, "What a run shares"): a run is
# single-threaded, so a lock or an atomic here guards against nobody.
boundary_gate 'Mutex|RwLock|AtomicBool|AtomicU64' "run state is reached through &mut Sim, not through a lock or an atomic" \
    crates/vmpi/src/{hooks,daemon,cluster,dispatcher,scheduler,phase,ckpt}.rs \
    crates/core/src/{el_multi,logcore,causal,pessimistic,coordinated,suite}.rs
# The causality log is a plain value the run's Sim owns (crates/sim/src/
# causality.rs module docs): per-thread or per-process state coming back
# would put the log outside the run it describes.
boundary_gate 'thread_local|AtomicBool|OnceLock' "the causality log belongs to its run, not to a thread or the process" \
    crates/sim/src/causality.rs

echo "==> cargo build --release (RUSTFLAGS=-D warnings from here on)"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> cargo doc --no-deps (rustdoc gate, RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --quiet

echo "==> cargo bench --no-run (compile every bench target)"
cargo bench --no-run --offline

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
# Both bench steps above diff their artifact against the committed copy.
# Any other tracked BENCH_*.json would be regenerated by nothing, or by
# something that does not diff it, and drift unseen.
tracked=$(git ls-files 'BENCH_*.json' | xargs)
test "$tracked" = "BENCH_paper.json BENCH_regimes.json" || {
    echo "tracked BENCH_*.json at the root are '$tracked', want exactly BENCH_paper.json and BENCH_regimes.json" >&2
    exit 1; }
echo "    tracked BENCH_*.json: ok (the two diff-gated artifacts and nothing else)"

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
# Second leg, fixed: script seed 16 x 240 schedules found the dangling
# det-batch-acked of a finished rank (known-failing class (a), ROADMAP
# item 1) in causal+el2/el-failure before the fix.
VLOG_EXPLORE_SCHEDULES=240 VLOG_EXPLORE_DEPTH=4 VLOG_EXPLORE_SEED=16 \
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
