GO ?= go

.PHONY: check build vet lint doclint test test-short race bench bench-smoke bench-diff load-smoke obs-smoke fuzz-smoke scale-smoke transport-smoke sweep

check: build vet lint test fuzz-smoke scale-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repo's own static-analysis suite (internal/lint via
# cmd/lcplint): lockheld, poolput, ctxflow, errignored, doccomment — each
# pins an invariant one of the historical concurrency/API bugs violated
# (see docs/ARCHITECTURE.md, "Static-analysis layer"). It complements
# `go vet`, it does not replace it. TestLintCleanRepo asserts the same
# zero-diagnostics property from inside the test suite.
lint:
	$(GO) run ./cmd/lcplint $$($(GO) list -f '{{.Dir}}' ./...)

# doclint is the old doc-comment-only pass, kept as a deprecated wrapper
# over the doccomment analyzer; `make lint` (and through it `make check`)
# covers it.
doclint:
	$(GO) run ./cmd/doclint $$($(GO) list -f '{{.Dir}}' ./...)

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -run=NONE -bench='BenchmarkAblationViewConstruction|BenchmarkDistributedRuntime|BenchmarkEngineAmortized' -benchmem .
	$(GO) test -run=NONE -bench=. -benchmem ./internal/dist/
	$(GO) test -run=NONE -bench=. -benchmem ./internal/partition/

# bench-smoke runs every benchmark exactly once — including the sharded
# scheduler benches (BenchmarkSchedulerSharded, the message-passing-
# sharded ablation) and the partition-quality benches
# (BenchmarkPartitioners, whose cut-edge metrics feed
# BENCH_partition.json) — so CI catches benches that no longer compile
# or fail their own assertions, without paying for a real measurement.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# load-smoke fires a short burst of real HTTP traffic at an in-process
# lcpserve (cmd/lcpload with no -url): a few seconds of /check and
# /check/batch at modest concurrency, one run per backend family. It
# exists to catch a service stack that no longer survives concurrent
# load (lcpload exits non-zero on any failed request), not to measure —
# `lcpload -duration 10s -concurrency 16` against a real daemon does
# that.
load-smoke:
	$(GO) run ./cmd/lcpload -duration 2s -concurrency 4 -nodes 64 -batch 8
	$(GO) run ./cmd/lcpload -duration 2s -concurrency 4 -nodes 64 -batch 8 -backend engine-dist -partitioner bfs

# fuzz-smoke runs every native fuzz target for a short budget (one
# target per invocation — the go tool's rule). The seed corpora under
# testdata/fuzz/ run as plain tests in `make test` already; this step
# buys a little fresh exploration on every check, so a parser panic, a
# columns/core divergence, a word-at-a-time ReadUint that disagrees with
# the bit-by-bit reference, or a request-body decoder that disagrees
# with encoding/json surfaces in CI, not in production traffic.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzTextioRoundTrip -fuzztime=10s ./internal/textio/
	$(GO) test -run=NONE -fuzz=FuzzBatchColumnsEquivalence -fuzztime=10s ./internal/engine/
	$(GO) test -run=NONE -fuzz=FuzzReadUint -fuzztime=10s ./internal/bitstr/
	$(GO) test -run=NONE -fuzz=FuzzProofBody -fuzztime=10s ./internal/serve/

# scale-smoke runs one n=10^5 sweep cell per backend through cmd/lcpsweep
# — the full generate -> textio write -> parse -> prove -> check pipeline
# on a power-law instance — so "the hot paths hold up at scale" is
# re-proved on every check, not only in the recorded BENCH_sweep.json.
# Seconds per cell; the full grid (plus the n=10^6 tier) is `make sweep`.
scale-smoke:
	$(GO) run ./cmd/lcpsweep -n 100000 -families power-law -backends core,engine,dist,engine-dist

# transport-smoke is the multi-process scale-out check: cmd/lcpfleet
# spawns two real worker subprocesses (its own binary in -as-worker
# mode), registers every catalog scheme's instance over the dist-tcp
# control plane, floods the shards over actual TCP sockets, asserts
# verdict equality with the sequential reference, and SIGTERMs the
# fleet insisting on clean exits. The built binary is used (not `go
# run`) because the harness re-executes os.Executable() to spawn its
# workers.
transport-smoke:
	$(GO) build -o bin/lcpfleet ./cmd/lcpfleet
	./bin/lcpfleet -workers 2

# sweep reproduces BENCH_sweep.json: the full n=10^5 grid over family x
# backend x partitioner x shards, plus the n=10^6 tier on the
# shared-memory backends (the message-passing backends are capped by
# -max-dist-n). Minutes, not seconds.
sweep:
	$(GO) run ./cmd/lcpsweep -n 100000,1000000 -partitioners contiguous,bfs -shards 0,4 -out BENCH_sweep.json

# bench-diff re-runs the benchmarks each BENCH_*.json baseline records
# and prints fresh/baseline ratios, flagging anything 1.20x over. The
# ledger comparison every perf-relevant PR owes — measured, not eyeballed.
bench-diff:
	$(GO) run ./cmd/lcpsweep -bench-diff

# obs-smoke exercises the observability contract end to end: a short
# lcpload burst per backend family scrapes /metrics before and after the
# window and exits non-zero if the Prometheus exposition fails to parse
# or any counter moves backwards, on top of the package-level tests for
# trace-ID propagation and exposition well-formedness.
obs-smoke:
	$(GO) test -run 'TestServeTrace|TestServeMetrics|TestServeRequestLogging' ./internal/serve/
	$(GO) test -run 'TestWriteProm|TestTrace' ./internal/obs/
	$(GO) run ./cmd/lcpload -duration 1s -concurrency 4 -nodes 64 -batch 8 -backend dist
	$(GO) run ./cmd/lcpload -duration 1s -concurrency 4 -nodes 64 -batch 8 -backend engine-dist -partitioner bfs
