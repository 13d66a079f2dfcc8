#!/bin/sh
# The repository's check gate: gofmt, vet, build everything, then two
# test passes — a fast -short pass under the race detector (the
# concurrency tests in concurrency_test.go, internal/obs, and
# internal/service depend on -race to mean anything) and the full suite,
# including the slow harness experiment sweeps, without it — then vet
# and the smoke test of the benchmark module. Same commands as
# `make check`.
#
# The allocation pins (internal/core TestEstimateCacheHitAllocs,
# internal/query TestStringAllocs) run in the plain pass only: the race
# detector's instrumentation allocates, so under -race they skip
# themselves (raceEnabled, set by each package's race_test.go).
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
# (internal/harness TestBuildExperimentDifferential): serial, parallel
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
# panics or answers 500, and every status is one its route documents),
# internal/profile FuzzParseProfile (the WorkloadProfile artifact
# parser never panics and anything accepted is a round-trip fixed
# point), and internal/core FuzzEstimate (every parsed query gets a
# finite, non-negative estimate equal to the reference interpreter's,
# and Explain's top embeddings are sorted and sum to at most it).
go test -run=Fuzz ./...

# Machine-readable benchmark artifacts, kept at the repo root for
# comparison across revisions: the prepared-execution experiment
# (performance + per-class accuracy), the build experiment (serial vs
# parallel vs memoized construction), the catalog experiment
# (scatter-gather vs single-shard estimation across a sharded corpus),
# the observability experiment (tracing-off vs tracing-on overhead on
# the serving hot path), the workload-profiler experiment
# (profiling-off vs profiling-on overhead plus the artifact round
# trip), and the budget-allocation experiment (fixed vs auto vs
# workload-planned splits on held-out queries).
make bench-json
make bench-build
make bench-catalog
make bench-obs
make bench-workload
make bench-autobudget
