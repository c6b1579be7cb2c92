#!/usr/bin/env bash
# serve-smoke: end-to-end check of the online dispatch service.
#
# Builds the commands, generates a fixture network + workload (1500
# requests), starts urpsm-serve, replays the full workload in -lockstep
# mode (asserting the served decisions are bit-identical to an offline
# sim.Engine run and printing p50/p95/p99 latency), scrapes the
# observability surface (/metrics histograms, /debug/trace, one
# /v1/decisions/{id}/explain, /debug/runtime), then sends SIGTERM
# and asserts a clean drain + final WAL checkpoint, and a warm restart on
# the same -wal directory resumes from that checkpoint. A third server
# then replays the same workload with a mid-replay traffic profile
# injected via POST /v1/traffic (-traffic): decisions must stay
# bit-identical to the offline engine replaying the same congestion
# trace, the epoch must show up in /metrics, and no route may be dropped;
# it is then stopped and restarted on its own -wal directory, and must
# come back at the same traffic epoch (the checkpoint's arc factors).
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
WORK=$(mktemp -d)
SERVE_PID=""
cleanup() {
    if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
        kill "$SERVE_PID" 2>/dev/null || true
    fi
    rm -rf "$BIN" "$WORK"
}
trap cleanup EXIT

PORT=$(( 20000 + RANDOM % 20000 ))
ADDR="127.0.0.1:$PORT"

echo "== build =="
go build -o "$BIN" ./cmd/...

echo "== fixture (chengdu preset, scale 0.1: 1500 requests, 60 workers) =="
"$BIN/netgen" -preset chengdu -scale 0.1 \
    -o "$WORK/city.net" -workload "$WORK/city.load" > /dev/null

echo "== start urpsm-serve on $ADDR =="
"$BIN/urpsm-serve" -net "$WORK/city.net" -load "$WORK/city.load" \
    -oracle auto -addr "$ADDR" -trace-events 16384 \
    -wal "$WORK/wal" > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

echo "== lockstep replay =="
"$BIN/urpsm-replay" -net "$WORK/city.net" -load "$WORK/city.load" \
    -addr "$ADDR" -oracle auto -lockstep -explain 0 | tail -n 20

echo "== scrape /metrics =="
if command -v curl > /dev/null; then
    curl -sf "http://$ADDR/metrics" | grep -E '^urpsm_(requests_total|batches_total)' || {
        echo "metrics scrape failed" >&2; exit 1; }
    # Scrape once into a file: grep -q exits at the first match, and
    # under pipefail the writer's SIGPIPE would read as a curl failure.
    curl -sf "http://$ADDR/metrics" > "$WORK/metrics.txt"
    grep -q '^urpsm_plan_seconds_count [1-9]' "$WORK/metrics.txt" || {
        echo "plan-latency histogram empty (tracing not wired?)" >&2; exit 1; }
    # The lockstep replay never overloads the (unbounded, -max-queue
    # unset) admission queue: any shed here would mean admission control
    # fired outside the overload contract (DESIGN.md §15).
    grep -q '^urpsm_shed_total 0$' "$WORK/metrics.txt" || {
        echo "urpsm_shed_total nonzero (or missing) after a non-overload lockstep run" >&2; exit 1; }
    grep -q '^urpsm_degrade_state 0$' "$WORK/metrics.txt" || {
        echo "urpsm_degrade_state nonzero (or missing): ladder moved while disarmed" >&2; exit 1; }

    echo "== scrape /debug/trace and one explain =="
    # The trace body is multi-MB; grep a file rather than piping a shell
    # variable (grep -q exits early and pipefail would report the writer's
    # SIGPIPE as a failure).
    curl -sf "http://$ADDR/debug/trace" > "$WORK/trace.json"
    for kind in admit plan_start plan ack flush; do
        grep -q "\"kind\": \"$kind\"" "$WORK/trace.json" || {
            echo "/debug/trace has no $kind event" >&2; exit 1; }
    done
    # Pick a request id out of the retained trace and ask the server to
    # explain its decision.
    REQ=$(awk '/"kind": "plan",/ {found=1}
               found && /"req":/ {gsub(/[^0-9]/, ""); print; exit}' \
               "$WORK/trace.json")
    EXPLAIN=$(curl -sf "http://$ADDR/v1/decisions/$REQ/explain")
    for field in reason candidates top_candidates plan_ns; do
        echo "$EXPLAIN" | grep -q "\"$field\"" || {
            echo "explain for request $REQ missing $field:" >&2
            echo "$EXPLAIN" >&2; exit 1; }
    done
    curl -sf "http://$ADDR/debug/runtime" | grep -q '"goroutines"' || {
        echo "/debug/runtime scrape failed" >&2; exit 1; }
fi

echo "== graceful shutdown =="
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "urpsm-serve exited non-zero; log:" >&2
    cat "$WORK/serve.log" >&2
    exit 1
fi
SERVE_PID=""
grep -q "wal final checkpoint written" "$WORK/serve.log" || {
    echo "no final checkpoint written; log:" >&2; cat "$WORK/serve.log" >&2; exit 1; }
test -s "$WORK/wal/checkpoint.json"

# start_serve LOG ARGS... starts urpsm-serve in the background and waits
# until it listens.
start_serve() {
    local log=$1
    shift
    "$BIN/urpsm-serve" -net "$WORK/city.net" -load "$WORK/city.load" \
        -oracle auto -addr "$ADDR" "$@" > "$log" 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 1 100); do
        grep -q "urpsm-serve on" "$log" && return
        sleep 0.1
    done
    echo "urpsm-serve did not start; log:" >&2; cat "$log" >&2; exit 1
}

stop_serve() {
    kill -TERM "$SERVE_PID"
    wait "$SERVE_PID"
    SERVE_PID=""
}

echo "== warm restart from the WAL checkpoint =="
# The drain checkpointed every decision and left the log empty, so the
# restart replays nothing and resumes at the checkpoint's 1500 decisions.
start_serve "$WORK/serve2.log" -wal "$WORK/wal"
grep -q "recovered 0 records (0 torn bytes discarded), state checkpointed at 1500 decided requests" "$WORK/serve2.log" || {
    echo "warm restart did not resume from the checkpoint; log:" >&2; cat "$WORK/serve2.log" >&2; exit 1; }
stop_serve

echo "== lockstep replay with mid-replay traffic updates =="
cat > "$WORK/rush.traffic" <<'TRAFFIC'
urpsm-traffic 1
# congestion builds, peaks on motorways, then clears
at 300 scale 1.6
at 900 scale 2.2 class motorway
at 900 scale 1.3
at 1800 clear
TRAFFIC
start_serve "$WORK/serve3.log" -wal "$WORK/wal3"
"$BIN/urpsm-replay" -net "$WORK/city.net" -load "$WORK/city.load" \
    -traffic "$WORK/rush.traffic" -addr "$ADDR" -oracle auto -lockstep

if command -v curl > /dev/null; then
    METRICS=$(curl -sf "http://$ADDR/metrics")
    echo "$METRICS" | grep -q '^urpsm_traffic_epoch [1-9]' || {
        echo "traffic epoch did not advance:" >&2
        echo "$METRICS" | grep urpsm_traffic >&2; exit 1; }
    # No dropped routes: every decided request is accounted for and the
    # fleet is intact.
    echo "$METRICS" | grep -E '^urpsm_(traffic_epoch|traffic_updates_total|oracle_rebuilds_total|workers)'
    # One more live update over HTTP; the epoch must bump again.
    BEFORE=$(echo "$METRICS" | awk '/^urpsm_traffic_epoch/ {print $2}')
    curl -sf -X POST "http://$ADDR/v1/traffic" \
        -d '{"updates":[{"factor":1.2,"class":"arterial"}]}' > /dev/null
    AFTER=$(curl -sf "http://$ADDR/metrics" | awk '/^urpsm_traffic_epoch/ {print $2}')
    [ "$AFTER" -gt "$BEFORE" ] || { echo "POST /v1/traffic did not bump epoch ($BEFORE -> $AFTER)" >&2; exit 1; }
fi
stop_serve

echo "== restart on the traffic-bearing WAL directory =="
# The checkpoint carries the overlay's arc factors and epoch; the
# restarted daemon must serve at the epoch the first one stopped at.
start_serve "$WORK/serve4.log" -wal "$WORK/wal3"
if command -v curl > /dev/null; then
    RESTORED=$(curl -sf "http://$ADDR/metrics" | awk '/^urpsm_traffic_epoch/ {print $2}')
    [ "$RESTORED" = "$AFTER" ] && grep -q "traffic epoch $AFTER\$" "$WORK/serve4.log" || {
        echo "restart reports traffic epoch $RESTORED, want $AFTER; log:" >&2
        cat "$WORK/serve4.log" >&2; exit 1; }
    echo "restart resumed at traffic epoch $RESTORED"
fi
stop_serve

echo "serve-smoke OK"
