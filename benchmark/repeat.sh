#!/usr/bin/env bash
# A/A check: runs the full benchmark twice on the same tree and compares
# the two. Prints both values and the relative difference of every
# (workload, end-to-end metric) pair; fails if a pair is outside the
# metric's bound or an exact count (model.*, *.calls, *.events) differs.
# Arguments (e.g. --seed 5) go to both runs.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$here/out"
mkdir -p "$out"
"$here/run.sh" "$@" > "$out/repeat_A.txt"
"$here/run.sh" "$@" > "$out/repeat_B.txt"
"$here/run.sh" --compare "$out/repeat_A.txt" "$out/repeat_B.txt"
