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

echo "==> boundary gate (no Mutex, no unsafe at the task<->daemon boundary; no lock or atomic around what a cluster run shares; no thread-local or process state behind the causality log; no lock, closure or trait object around a run's schedule; no side channel out of a run)"
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
    crates/vmpi/src/{hooks,daemon,cluster,dispatcher,scheduler,fault,ckpt}.rs \
    crates/core/src/{el_multi,logcore,causal,pessimistic,coordinated,suite}.rs
# The causality stores' chunk pool is part of that run state (crates/core/
# src/detseq.rs, "One copy per run"): the suite puts it in ClusterState
# and the protocol hands it down, so it is dropped with its run. Held by a
# thread-local or a process-wide cell it would outlive the run and pin
# chunks of runs long gone.
boundary_gate 'Mutex|RwLock|AtomicBool|AtomicU64|AtomicUsize|thread_local|OnceLock' "the chunk pool is run state, reached through &mut Sim, not a lock, an atomic or a thread-local" \
    crates/core/src/{detseq,vcausal,agred,graph,reduction}.rs
# The causality log is a plain value the run's Sim owns (crates/sim/src/
# causality.rs module docs): per-thread or per-process state coming back
# would put the log outside the run it describes. Recording is one hash
# probe and order is imposed once, in analyze: a B-tree back in the log
# pays a string compare per level on every recorded edge.
boundary_gate 'thread_local|AtomicBool|OnceLock|BTreeMap' "the causality log belongs to its run, not to a thread or the process, and records into hash maps" \
    crates/sim/src/causality.rs
# A run's schedule is data: a script on the config, owned by the run's
# Sim, the applied trace on the report (crates/sim/src/schedule.rs module
# docs). A lock means a handle outlives the run again; a closure or a
# policy trait means a config stopped being plain cloneable data.
boundary_gate 'Mutex|dyn Fn|dyn SchedulePolicy' "a schedule goes in as data on the config and comes out as data on the report" \
    crates/sim/src/schedule.rs crates/explore/src/lib.rs
# What a run produces comes back on its RunReport (crates/vmpi/src/
# cluster.rs, "Data in, data out"): a program records through its pipe
# (Mpi::record), and only the config switches what a run collects. So the
# non-test code of the simulator crates shares nothing through a lock, an
# atomic or a thread-local, and reads no process environment. Allowed:
# crates/sim/src/exec.rs, whose thread-local lends a task its port for
# one poll; crates/sim/src/profiler.rs, whose accumulators benchmark/
# reads; crates/sim/src/env_knob.rs, the knob parser harnesses call.
side_words='\b(Mutex|RwLock|[Aa]tomic[A-Za-z0-9]*|thread_local)\b|std::env\b|env_knob::'
side_files=$(find crates/sim/src crates/vmpi/src crates/core/src crates/workloads/src -name '*.rs' |
    grep -vxE 'crates/sim/src/(exec|profiler|env_knob)\.rs' | sort)
# shellcheck disable=SC2086 # one path per word
if awk "$non_test"' { print FILENAME ":" FNR ": " $0 }' $side_files |
    grep -vE '^[^ ]+ +//' | grep -E "$side_words"; then
    echo "a side channel out of a run (lines above): record through Mpi::record and read RunReport::recorded, or put the switch on ClusterConfig" >&2
    exit 1
fi
echo "    boundary gate: ok (no lock, atomic, thread-local or environment read in the non-test code of crates/{sim,vmpi,core,workloads}/src, besides exec.rs, profiler.rs and env_knob.rs)"
# A planned fault takes effect in one place (crates/vmpi/src/fault.rs
# module docs), which is what lets RunReport::fired say what landed. So
# under crates/vmpi/src only the fault module crashes a node, apart from
# the dispatcher's global rollback (rollback_all), and only the fault
# module builds a DispatcherMsg::Fault; elsewhere the name may only be
# matched (`=>`).
fault_gate='FNR == 1 { live = 1; fn_name = "" }
    /^#\[cfg\(test\)\]/ { live = 0 }
    !live || /^[[:space:]]*\/\// { next }
    match($0, /fn [a-z_0-9]+\(/) { fn_name = substr($0, RSTART + 3, RLENGTH - 4) }
    FILENAME ~ /\/fault\.rs$/ { next }
    /crash_node\(/ && !(FILENAME ~ /\/dispatcher\.rs$/ && fn_name == "rollback_all") { print FILENAME ":" FNR ": " $0 }
    /DispatcherMsg::Fault/ && !/=>/ { print FILENAME ":" FNR ": " $0 }'
if find crates/vmpi/src -name '*.rs' -print0 | xargs -0 awk "$fault_gate" | grep .; then
    echo "a fault takes effect outside the fault module (lines above): crash and report it through crates/vmpi/src/fault.rs so RunReport::fired records it" >&2
    exit 1
fi
echo "    boundary gate: ok (crash_node( and DispatcherMsg::Fault built only in crates/vmpi/src/fault.rs, besides rollback_all)"
# A message leaves its node one way (crates/sim/src/kernel.rs,
# Sim::send): the kernel decides loopback, wire or chunk train, and
# vlog_vmpi::control only sizes a body, boxes it once and calls it. So
# under crates/vmpi/src and crates/core/src a loopback is taken only by
# the fault module's detection notice (detected), which models
# detection, not a hop.
loopback_gate='FNR == 1 { live = 1; fn_name = "" }
    /^#\[cfg\(test\)\]/ { live = 0 }
    !live || /^[[:space:]]*\/\// { next }
    match($0, /fn [a-z_0-9]+\(/) { fn_name = substr($0, RSTART + 3, RLENGTH - 4) }
    FILENAME ~ /\/fault\.rs$/ && fn_name == "detected" { next }
    /local_send\(/ { print FILENAME ":" FNR ": " $0 }'
if find crates/vmpi/src crates/core/src -name '*.rs' -print0 | xargs -0 awk "$loopback_gate" | grep .; then
    echo "a message takes loopback outside Sim::send (lines above): send it through control::send or control::send_at" >&2
    exit 1
fi
echo "    boundary gate: ok (local_send( under crates/vmpi/src and crates/core/src only in fault::detected)"
# The same decision has no second home: a deferred send is Sim::send_at
# (one Event::Send, decided when it pops) and the wire booking is the
# kernel's private net_book.
# (The brackets keep this script out of its own grep.)
if {
    grep -rnE 'net_sen[d](_at)?\(|NetSen[d]' crates tests examples
    grep -rn 'net_boo[k](' crates tests examples | grep -v '^crates/sim/src/kernel\.rs:'
    true # the verdict is the last grep's, not the group's (pipefail)
} | grep .; then
    echo "a second way out of a node is back (lines above): send through Sim::send or Sim::send_at, and let control.rs size and box a body for them" >&2
    exit 1
fi
echo "    boundary gate: ok (no net_send(, net_send_at( or NetSend under crates/ tests/ examples/; net_book( only in kernel.rs)"
# Every kernel event is data (crates/sim/src/kernel.rs, "Every event is
# data"): a completion, a timer of one actor incarnation, a delivery or a
# deferred send. Work a service does later is a timer of the actor that
# owns it — the fault steps are the dispatcher's, a rendezvous data send
# its daemon's — so no event carries code and no call files any.
# (The brackets keep this script out of a grep of the tree for the names.)
if grep -rnE 'Event::[cC]losur[e]\b|fn afte[r]\(' crates tests examples; then
    echo "an event that carries code is back (lines above): make the work a timer of the actor that owns it, and keep what it needs in that actor" >&2
    exit 1
fi
echo "    boundary gate: ok (no Event::Closure, Event::closure or fn after( under crates/ tests/ examples/)"
# A metric is named by its typed id (crates/sim/src/stats.rs: Counter,
# Gauge, Timer), whose name() is the one place a name is spelled, so a
# misspelt or wrong-kind metric fails to compile. Stats::get(&str) stays
# as a by-name reader for code outside this workspace; non-test code here
# never hands a Stats reader or writer a string, literal or formatted.
# A continuation line (`    .set_max("...")`) counts: those method
# names are Stats' own.
stats_gate='stats(\(\)|_mut\(\))?[[:space:]]*\.(get|get_time|add|bump|set_max|add_time)\([[:space:]]*(&?format!|")|^[^ ]+ +\.(get_time|add|bump|set_max|add_time)\([[:space:]]*"'
if find crates examples -path '*/tests' -prune -o -name '*.rs' -print0 |
    xargs -0 awk "$non_test"' { print FILENAME ":" FNR ": " $0 }' |
    grep -vE '^[^ ]+ +//' | grep -E "$stats_gate"; then
    echo "a metric is named by a string (lines above): use vlog_sim::{Counter, Gauge, Timer} and the typed readers" >&2
    exit 1
fi
echo "    boundary gate: ok (no string-named metric in non-test code under crates/ and examples/)"
# The hang detector was a third way to end a run; time_limit +
# export_liveness give the same stop with a typed reason.
# (The bracket keeps this script out of its own and the issue's grep.)
if grep -rn 'liveness[_]watchdog' crates tests examples; then
    echo "the liveness watchdog is back (lines above): a run that must not hang sets time_limit + export_liveness and reads RunReport::stopped" >&2
    exit 1
fi
echo "    boundary gate: ok (no liveness watchdog under crates/ tests/ examples/)"
# A control message's size is its body's (crates/vmpi/src/control.rs
# module docs): control::send reads control::Body::wire_bytes, written
# once beside each body type, so no send site states a size. A control
# size is built only by control.rs itself and by types.rs's
# DaemonMsg::wire_size, and the hand-written size helpers, the
# size-forwarding actor send and the separate gossip type stay gone.
# (The brackets keep this script out of a grep of the tree for the names.)
if find crates/vmpi/src crates/core/src -name '*.rs' ! -name control.rs ! -name types.rs -print0 |
    xargs -0 awk "$non_test"' { print FILENAME ":" FNR ": " $0 }' |
    grep -vE '^[^ ]+ +//' | grep -E 'WireSize::control[(]'; then
    echo "a send site states a control size (lines above): implement vlog_vmpi::control::Body for the body and call control::send" >&2
    exit 1
fi
if grep -rnwE 'el_(batch|ack|resp)_byte[s]|EL_RECORD_BYTE[S]|control_to_acto[r]|ElGossi[p]' crates tests examples; then
    echo "a hand-written control size helper, control_to_actor or ElGossip is back (lines above): a control body states its size in its Body impl" >&2
    exit 1
fi
echo "    boundary gate: ok (WireSize::control( only in control.rs and types.rs; no EL size helper, control_to_actor or ElGossip under crates/ tests/ examples/)"
# A checkpoint image costs only what its rank changed since the last one
# (crates/core/src/sender_log.rs, "Images share frozen runs"; detseq.rs,
# PeerTable): the per-peer watermark tables are rows shared copy-on-write,
# and a checkpoint_blob takes the sender log with SenderLog::snapshot,
# never with a deep clone. Every determinant store is a DetStore
# (detseq.rs module docs), the Event Logger's included, so no per-creator
# Vec of determinants comes back beside it, and a DetSeq keeps packed
# 20-byte entries ("Packed entries"), so no field of detseq.rs holds the
# 40-byte Determinant in a chunk, a tail or a pool slot.
cow_gate='FNR == 1 { live = 1; fn_name = "" }
    /^#\[cfg\(test\)\]/ { live = 0 }
    !live || /^[[:space:]]*\/\// { next }
    match($0, /fn [a-z_0-9]+\(/) { fn_name = substr($0, RSTART + 3, RLENGTH - 4) }
    /Vec<Vec<(RClock|Determinant)>>/ { print FILENAME ":" FNR ": " $0 }
    FILENAME ~ /detseq\.rs$/ && /^[[:space:]]*(pub[^ ]* )?[a-z_0-9]+: .*(<\[Determinant[];]|Vec<Determinant>)/ { print FILENAME ":" FNR ": " $0 }
    fn_name == "checkpoint_blob" && /slog\.clone\(\)/ { print FILENAME ":" FNR ": " $0 }'
if find crates/core/src -name '*.rs' -print0 | xargs -0 awk "$cow_gate" | grep .; then
    echo "a checkpoint image deep-copies what its rank did not change, or a determinant store bypasses DetStore or its packed entries (lines above): keep per-peer watermarks in a PeerTable, take the sender log with SenderLog::snapshot and keep determinants in a DetStore, as PackedDet" >&2
    exit 1
fi
# The antecedence graph is a DetStore walked by graph::extend_past, with
# no wrapper type. (The bracket keeps this script out of a grep of the
# tree for the name.)
if grep -rnw 'AGrap[h]' crates tests examples; then
    echo "the antecedence-graph wrapper is back (lines above): hold a DetStore and walk it with vlog_core::graph::extend_past" >&2
    exit 1
fi
echo "    boundary gate: ok (no Vec<Vec<RClock>> or Vec<Vec<Determinant>> in the non-test code of crates/core/src, and no Arc<[Determinant]>/Vec<Determinant> field in detseq.rs; no slog.clone() in a checkpoint_blob; no AGraph under crates/ tests/ examples/)"
# The event calendar is one timer wheel whose levels span every SimTime
# (crates/sim/src/calendar.rs module docs), and detach is its one way to
# withdraw an event: no tombstone cancel, no far-future heap beside it.
# (The brackets keep this script out of a grep of the tree for the names.)
if awk "$non_test"' { print FILENAME ":" FNR ": " $0 }' crates/sim/src/calendar.rs |
    grep -E 'tombston[e]|BinaryHea[p]|overflo[w]|fn cance[l]'; then
    echo "the calendar grew a second withdrawal or a structure beside the wheel (lines above): withdraw with detach and file every event in the wheel" >&2
    exit 1
fi
# A message goes on the wire through the kernel (Sim::send), which
# profiles and counts it; nothing reaches the network model past it.
if grep -rnE 'net_mu[t]\(|\.ne[t]\(\)' crates tests examples; then
    echo "code reaches the network model past the kernel (lines above): send through Sim::send" >&2
    exit 1
fi
echo "    boundary gate: ok (no tombstone, BinaryHeap, overflow or fn cancel in the non-test code of crates/sim/src/calendar.rs; no net_mut( or .net() under crates/ tests/ examples/)"
# A dead incarnation's timers die by the generation check alone
# (crates/sim/src/kernel.rs, "Actors and generations"): the kernel keeps
# no per-actor timer list, an actor gets no crash hook, and no actor
# arms timers from inside its own registration to keep their handles.
# A live incarnation's timer, once set, pops too: the kernel hands out
# no timer handle and withdraws nothing, and the handler decides whether
# the timer still matters. Task context reaches its poll through the
# free-standing ExecHandle, not through a Sim.
# (The brackets keep this script out of a grep of the tree for the names.)
if grep -rnE 'fn on_cras[h]\b|\b(add_actor_wit[h]|detach_actor_timer[s]|unregister_time[r]|cancel_proto_time[r]|cancel_time[r]|TimerHandl[e])\b|fn exe[c]\(' crates tests examples; then
    echo "a way to withdraw or drop a timer besides its own handler and the generation check is back (lines above): let Event::Timer's generation check drop a dead incarnation's timers, let a live one's handler ignore a timer it no longer needs, install an actor with add_actor, then set_timer, and name ExecHandle directly" >&2
    exit 1
fi
echo "    boundary gate: ok (no fn on_crash, add_actor_with, detach_actor_timers, unregister_timer, cancel_proto_timer, cancel_timer, TimerHandle or fn exec( under crates/ tests/ examples/)"
# Every actor wake-up names its incarnation (crates/sim/src/kernel.rs,
# "Actors and generations"): Event::Timer is the kernel's one data-less
# wake-up, a program's pipe wake-up and finish notice are timers on the
# daemon incarnation that spawned it, and a program's end is the last
# thing it stages. So no generation-less poke, task exit callback, task
# stop request or daemon self-message is left, and a protocol names the
# checkpoint it takes in the one checkpoint_due hook.
# (The brackets keep this script out of a grep of the tree for the names.)
if grep -rnE 'Event::Pok[e]\b|fn on_pok[e]\b|\b(spawn_with_exi[t]|on_exi[t]|stage_sto[p]|snapshot_versio[n])\b|enum Interna[l]\b' crates tests examples; then
    echo "a wake-up that names no incarnation is back (lines above): stage an Event::Timer with the incarnation's generation, and report a program's end as the last thing it stages" >&2
    exit 1
fi
echo "    boundary gate: ok (no Event::Poke, fn on_poke, spawn_with_exit, on_exit, stage_stop, snapshot_version or enum Internal under crates/ tests/ examples/)"
# A workload run is its RunReport (crates/workloads/src/workload.rs):
# run_workload returns the report, the caller already holds the
# workload's family, label and flop count, and a program's own
# measurements come back as RunReport::recorded. So no result wrapper
# and no per-workload metrics hook is left.
# (The brackets keep this script out of a grep of the tree for the names.)
if grep -rnE 'WorkloadRu[n]|fn metric[s]\b' crates tests examples; then
    echo "a second result type around a workload run is back (lines above): return the RunReport, read family, label and total_flops off the workload, compute Mflop/s with vlog_workloads::mflops, and record what a program measures with Mpi::record" >&2
    exit 1
fi
echo "    boundary gate: ok (no WorkloadRun or fn metrics under crates/ tests/ examples/)"

echo "==> cargo build --release (RUSTFLAGS=-D warnings from here on)"
cargo build --release --offline

echo "==> cargo clippy (lib and bin targets of the crates/ packages, -D warnings)"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --release --offline --no-deps -p vlog-sim -p vlog-core -p vlog-vmpi \
        -p vlog-workloads -p vlog-bench -p vlog-explore --lib --bins -- -D warnings || {
        echo "clippy flags the crates/ lib or bin code (sites above)" >&2
        exit 1
    }
    echo "    clippy: ok"
else
    echo "    clippy: skipped (no cargo-clippy)"
fi

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

echo "==> schedule exploration smoke (env-overridable budget)"
VLOG_EXPLORE_SCHEDULES="${VLOG_EXPLORE_SCHEDULES:-48}" \
VLOG_EXPLORE_DEPTH="${VLOG_EXPLORE_DEPTH:-4}" \
VLOG_EXPLORE_SEED="${VLOG_EXPLORE_SEED:-0x19052005}" \
    cargo run -q --release --offline -p vlog-explore --bin explore_smoke
echo "==> schedule exploration gate (every script seed 1..=120 x 240 schedules, $(nproc) processes)"
explore_smoke="${CARGO_TARGET_DIR:-target}/release/explore_smoke"
# One process per seed, nproc at a time. Each seed's output goes to its
# own file, and a failing seed leaves a marker file beside it, so the
# report below reads them back in seed order whatever order they ran in.
gate_dir=$(mktemp -d)
trap 'rm -rf "$gate_dir"' EXIT
seq 1 120 | xargs -P "$(nproc)" -n 1 sh -c '
    VLOG_EXPLORE_SCHEDULES=240 VLOG_EXPLORE_DEPTH=4 VLOG_EXPLORE_SEED="$3" \
        "$1" >"$2/$3.out" 2>&1 || touch "$2/$3.failed"' gate "$explore_smoke" "$gate_dir"
clean=0
failing=""
for seed in $(seq 1 120); do
    if [ -e "$gate_dir/$seed.failed" ]; then
        grep 'violation\[' "$gate_dir/$seed.out" >&2 || cat "$gate_dir/$seed.out" >&2
        failing="$failing $seed"
        continue
    fi
    clean=$((clean + 1))
done
if [ -n "$failing" ]; then
    echo "explore gate: script seeds$failing violated an invariant (lines above); $clean seeds clean" >&2
    exit 1
fi
echo "    explore gate: ok ($clean script seeds x 240 schedules, no violations)"

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
        for table in "Self time by layer" "Self time by the source file of the innermost frame" \
            "Self time by function" "Self time by source file" \
            "Self time by crate" "Inclusive time of functions under crates/"; do
            grep -q "^## $table" <<<"$profile" || {
                echo "scripts/profile.sh printed no \"$table\" table" >&2; exit 1; }
        done
        grep -q "^| crates/sim/src/kernel.rs |" <<<"$profile" || {
            echo "scripts/profile.sh resolved no sample to crates/sim/src/kernel.rs" >&2; exit 1; }
        grep -q "^| kernel |" <<<"$profile" || {
            echo "scripts/profile.sh charged no sample to the kernel layer" >&2; exit 1; }
        echo "    profile: ok ($(sed -n 's/^\([0-9]* samples\).*/\1/p' <<<"$profile"), six tables, kernel frames and layer resolved)" ;;
esac

echo "==> examples (smoke, quick scale)"
for ex in quickstart protocol_comparison recovery_anatomy fault_tolerant_stencil; do
    VLOG_SCALE=quick cargo run -q --release --offline --example "$ex" >/dev/null
    echo "    example $ex: ok"
done

echo "verify: all green"
