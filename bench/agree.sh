#!/usr/bin/env bash
# Do two sets of runs of the same code agree within the benchmark's own
# bounds? Runs the full untraced set twice on seed 1 and once on the
# hold-out seed 2, then prints per metric x workload the two values, their
# ratio and PASS/UNRESOLVED against the metric's bound, and writes the
# observed spreads to bench/out/agree.json. About 6 minutes.
#
#   bench/agree.sh            # from the repository root
#
# With SEEDS="1 2 3 ..." it instead runs one set per seed and prints the
# interquartile spread of every metric across them, the way the driver
# computes it (statistics.quantiles(values, n=4)).
set -euo pipefail
cd "$(dirname "$0")/.."

out=bench/out
mkdir -p "$out"
bin="$out/tmp/bench-agree"
mkdir -p "$out/tmp"
go build -o "$bin" ./bench
trap 'rm -f "$bin"' EXIT

if [[ -n "${SEEDS:-}" ]]; then
    files=()
    for s in $SEEDS; do
        "$bin" -all -seed "$s" -out "$out/spread-seed$s.json" >/dev/null || true
        files+=("$out/spread-seed$s.json")
    done
    "$bin" -spread "${files[@]}"
    exit
fi

"$bin" -all -seed 1 -out "$out/agree-a.json" >/dev/null
"$bin" -all -seed 1 -out "$out/agree-b.json" >/dev/null
"$bin" -all -seed 2 -out "$out/agree-holdout.json" >/dev/null
"$bin" -compare "$out/agree-a.json" "$out/agree-b.json" "$out/agree-holdout.json"
