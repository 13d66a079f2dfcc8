#!/bin/sh
# The repository's check gate: gofmt, vet, build everything, then two
# test passes — a fast -short pass under the race detector (the
# concurrency tests in concurrency_test.go, internal/obs, and
# internal/service depend on -race to mean anything) and the full suite,
# including the slow harness experiment sweeps, without it — then vet
# and the smoke test of the benchmark module, the fuzz seed corpora and
# the benchmark smoke runs (the estimate-path benchmarks, including the
# cold-compile and prepared-execute pair, once each). `make check` runs
# this script.
#
# The allocation pins (internal/core TestEstimateCacheHitAllocs,
# TestCompileAllocs and TestLRUPutFullRecycles' allocation check,
# internal/service TestServiceEstimateCacheHitAllocs, internal/catalog
# TestHandlerEstimateHotAllocs, internal/query TestStringAllocs) run in
# the plain pass only: the race detector's instrumentation allocates,
# so under -race they skip themselves (raceEnabled, set by each
# package's race_test.go).
set -eux

fmt="$(gofmt -l .)"
if [ -n "$fmt" ]; then
    echo "gofmt needed:" >&2
    echo "$fmt" >&2
    exit 1
fi
go vet ./...
go build ./...

# Every command builds and the daemon binary starts: compile the
# binaries into a throwaway dir and smoke-run xclusterd -version.
bindir="$(mktemp -d)"
trap 'rm -rf "$bindir"' EXIT
go build -o "$bindir" ./cmd/...
"$bindir/xclusterd" -version

# The -short -race pass includes the build differential test
# (internal/core TestBuildWorkersAndMemoIdentical, on a synthetic tree
# and the value-bearing IMDB and XMark generators): serial, parallel
# and memoized construction must agree bit-for-bit, with the worker
# pool under the race detector.
go test -short -race ./...
go test ./...

# The serving benchmark (bench/) is its own module, so the root
# `go test ./...` never compiles it: vet it and run its smoke test
# against the service and catalog APIs it builds on (~15 s).
(cd bench && go vet ./... && go test ./...)

# The fuzz targets' seed corpora are regression tests: run them as
# ordinary tests (no fuzzing engine, just the f.Add seeds + testdata).
# Includes internal/catalog FuzzParseManifest (the -catalog manifest
# parser never panics and everything it accepts round-trips),
# internal/catalog FuzzCatalogHTTP (no request to the daemon's handler
# — over a shard with a resident document and a slow log that captures
# every estimate — panics or answers 500, every status is one its route
# documents, and /debug/traces and /debug/slowlog render afterwards),
# internal/profile FuzzParseProfile (the WorkloadProfile artifact
# parser never panics and anything accepted is a round-trip fixed
# point), and internal/core FuzzEstimate (every parsed query gets a
# finite, non-negative estimate equal to the reference interpreter's,
# and Explain's top embeddings are sorted and sum to at most it).
go test -run=Fuzz ./...

# The estimate-path benchmarks run once each, so they cannot rot:
# internal/service BenchmarkEstimateTelemetry (bare, default,
# SLO-sampled-out and traced telemetry), internal/catalog
# BenchmarkHandlerEstimateHot (one cached POST /estimate through the
# daemon's handler), and the root package's BenchmarkEstimateCold (both
# caches off: every call compiles) and BenchmarkPrepared (execute only),
# whose ratio is the compile cost. Timing itself lives in bench/ and
# `go test -bench`.
go test -run '^$' -bench 'EstimateTelemetry|HandlerEstimateHot' -benchtime 1x ./internal/service ./internal/catalog
go test -run '^$' -bench 'EstimateCold$|Prepared$' -benchtime 1x .

# Machine-readable benchmark artifact, kept at the repo root for
# comparison across revisions: the budget-allocation experiment (fixed
# vs auto vs workload-profiled splits on held-out queries). The run is
# deterministic, so the regenerated file must equal the committed one:
# a change that moves the experiment has to commit the new artifact.
make bench-autobudget
git diff --exit-code -- BENCH_autobudget.json
