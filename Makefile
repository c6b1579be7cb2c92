GO ?= go

.PHONY: all build vet test race bench-smoke bench check golden fuzz serve-smoke crash-smoke crash-chaos

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# Quick benchmark pass: compiles every benchmark and runs one iteration.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x . ./internal/...

# Full benchmark suite (regenerates the paper's tables and figures), then
# the developer benchmarks that decompose the simulator's leg search, the
# distance cache's per-epoch flush, the CCH skeleton build, customization
# and point query, and the planner on a mostly idle and on a half busy
# fleet. These locate a cost; end-to-end gains are measured with
# `go run ./bench` and recorded in PERF.md.
bench:
	$(GO) test -run xxx -bench . -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkLegPath|BenchmarkLRUFlush|BenchmarkCCHSkeletonBuild|BenchmarkCCHCustomize|BenchmarkCCHQuery' -benchmem ./internal/shortest
	$(GO) test -run xxx -bench 'BenchmarkEngineRunChunked' -benchmem ./internal/sim
	$(GO) test -run xxx -bench 'BenchmarkPlanIdleFleet|BenchmarkPlanBusyFleet' -benchmem ./internal/core

# Regenerate golden files after a deliberate formatter change.
golden:
	$(GO) test ./internal/expt -run Golden -update

# Short fuzz pass over the untrusted-input parsers (roadnet text, DIMACS,
# traffic profiles, workload stream, trip CSV, serve snapshot + request
# bodies), the CCH skeleton build against its map-based reference, the CCH
# customization equivalence invariant, the pruned CCH query against exact
# Dijkstra and the unpruned query, the landmark leg search and the
# landmark pair bound against every oracle tier. `go test` alone replays
# only the seed corpus.
fuzz:
	$(GO) test -fuzz FuzzRead$$ -fuzztime 10s ./internal/roadnet
	$(GO) test -fuzz FuzzLoadDIMACS -fuzztime 10s ./internal/roadnet
	$(GO) test -fuzz FuzzReadTrafficProfile -fuzztime 10s ./internal/roadnet
	$(GO) test -fuzz FuzzReadStream -fuzztime 10s ./internal/workload
	$(GO) test -fuzz FuzzReadTripCSV -fuzztime 10s ./internal/workload
	$(GO) test -run xxx -fuzz FuzzReadSnapshot -fuzztime 10s ./internal/serve
	$(GO) test -run xxx -fuzz FuzzRequestBody -fuzztime 10s ./internal/serve
	$(GO) test -run xxx -fuzz FuzzCCHSkeleton -fuzztime 10s ./internal/shortest
	$(GO) test -run xxx -fuzz FuzzCCHCustomize -fuzztime 10s ./internal/shortest
	$(GO) test -run xxx -fuzz FuzzCCHPrunedDist -fuzztime 10s ./internal/shortest
	$(GO) test -run xxx -fuzz FuzzLegPath -fuzztime 10s ./internal/shortest
	$(GO) test -run xxx -fuzz FuzzLandmarkBound -fuzztime 10s ./internal/core
	$(GO) test -run xxx -fuzz FuzzReadWAL -fuzztime 10s ./internal/wal

# End-to-end check of the online dispatch service: start urpsm-serve on a
# fixture network, lockstep-replay 1500 requests (bit-identical to the
# offline engine), graceful shutdown, snapshot warm restart.
serve-smoke:
	./scripts/serve-smoke.sh

# Crash-recovery equivalence: SIGKILL the real daemon at seeded points of
# a 1500-request lockstep replay, restart on the same WAL dir, and require
# the decision stream to be byte-identical to an uninterrupted run (which
# itself must match the offline engine bit-exactly). Fixed seed for CI;
# crash-chaos re-rolls the kill schedule every invocation.
crash-smoke:
	./scripts/crash-smoke.sh

crash-chaos:
	./scripts/crash-smoke.sh -s $$(date +%s) -k 8

check: build vet test race
