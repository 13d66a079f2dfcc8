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
# TestHandlerEstimateHotAllocs, TestServeEstimateAllocs — the cached
# one-query POST /estimate served by an http.Server with xclusterd's
# timeouts over loopback to an allocation-free keep-alive client, the
# one pin that sees net/http read an unclosed body after the handler —
# and TestHandlerEstimateScatterAllocs — a cached scatter over three
# shards, per request plus per query, also with one plan slot per
# shard —, internal/pst TestSelectivityAllocs, internal/query
# TestStringAllocs and TestParseAllocs, and internal/xmltree
# TestParseAllocs — allocations per element of a generated document;
# each bound is a constant in its test, documented there) run in the
# plain pass only: the race detector's instrumentation allocates, so
# under -race they skip themselves (raceEnabled, set by each package's
# race_test.go). Both serving pins run under xclusterd's default -timeout
# (service.WithTimeout(5s)): TestServiceEstimateCacheHitAllocs checks a
# timeout service too, under the same bound, and
# TestHandlerEstimateHotAllocs's shard (hotCatalog) gets the timeout
# through ShardOptions; it also pins the same query as json.Marshal
# escapes it and a body that falls back to json.Decoder.
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

# The -short -race pass includes the build differential tests
# (internal/core TestBuildWorkersAndCacheIdentical and
# TestSweepMatchesIndividualBuilds, on a synthetic tree and the
# value-bearing IMDB and XMark generators): serial and parallel, cached
# and uncached construction must agree bit-for-bit, and so must a sweep
# with one build per budget under every policy, with the worker pool
# and the sweep's concurrent value phases under the race detector.
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
# internal/catalog FuzzDecodeEstimateRequest (POST /estimate's strict
# body decoder and json.Decoder agree on every body: the same request
# or the same error text), internal/catalog FuzzCatalogHTTP (no request to the daemon's handler
# — over a shard with a resident document and a slow log that captures
# every estimate — panics or answers 500, every status is one its route
# documents, and /debug/traces and /debug/slowlog render afterwards),
# internal/core FuzzEstimate (every parsed query gets a
# finite, non-negative estimate equal to the reference interpreter's,
# and Explain's top embeddings are sorted and sum to at most it),
# internal/xmltree FuzzParseXML (the byte-level document reader and the
# encoding/xml oracle parser agree on every document: the same tree,
# dictionary and type-hint calls, or both reject it) and FuzzInternText
# (the type hint's term count and InternText find Tokenize's terms).
go test -run=Fuzz ./...

# The estimate-path and build benchmarks run once each, so they cannot
# rot: internal/service BenchmarkEstimateTelemetry (bare, default,
# SLO-sampled-out and traced telemetry), internal/catalog
# BenchmarkHandlerEstimateHot (one cached POST /estimate through the
# daemon's handler), BenchmarkHandlerEstimateScatter (a cached
# 32-query scatter over three shards through the same handler) and
# BenchmarkHandlerEstimateScatterColdPlans (the same scatter with one
# plan slot per shard), internal/query BenchmarkParse (every accepted
# fuzz seed parsed once per op), internal/xmltree BenchmarkParseXML (the
# IMDB scale-1 document read by xmltree.Parse), and the root package's
# BenchmarkEstimateCold (both
# caches off: every call compiles), BenchmarkPrepared (execute only),
# whose ratio is the compile cost, BenchmarkEstimateCacheHit (the
# result-cache LRU hit path) and BenchmarkXClusterBuild (one IMDB
# build with the Δ-evaluation pool at workers=1 and at
# workers=GOMAXPROCS). Timing itself lives in bench/ and
# `go test -bench`.
go test -run '^$' -bench 'EstimateTelemetry|HandlerEstimateHot|HandlerEstimateScatter|^BenchmarkParse$|^BenchmarkParseXML$' -benchtime 1x ./internal/service ./internal/catalog ./internal/query ./internal/xmltree
go test -run '^$' -bench 'EstimateCold$|Prepared$|EstimateCacheHit$|XClusterBuild' -benchtime 1x .

# Machine-readable benchmark artifact, kept at the repo root for
# comparison across revisions: the budget-allocation experiment (fixed
# vs auto vs workload-profiled splits on held-out queries). The run is
# deterministic, so the regenerated file must equal the committed one:
# a change that moves the experiment has to commit the new artifact.
make bench-autobudget
git diff --exit-code -- BENCH_autobudget.json
