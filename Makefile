GO ?= go

.PHONY: check build test bench bench-json bench-build bench-catalog bench-obs bench-workload bench-autobudget

# The check gate: gofmt, vet, build, a fast -short pass under the race
# detector, then the full suite (slow experiment sweeps included), then
# vet and the smoke test of the benchmark module (bench/ has its own
# go.mod, so the root ./... never compiles it).
check:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt needed:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -short -race ./...
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Estimation micro-benchmarks (cold vs prepared vs cache-hit vs parallel).
bench:
	$(GO) test -run xxx -bench 'Estimate(|Cold|CacheHit|Parallel)$$|Prepared$$' -benchmem .

# Machine-readable benchmark: the prepared-execution experiment (with
# the embedded per-class accuracy report) as JSON at the repo root.
bench-json:
	$(GO) run ./cmd/xclusterbench -experiment prepared > BENCH_prepared.json
	@echo "wrote BENCH_prepared.json"

# Machine-readable build benchmark: serial vs parallel vs memoized
# synopsis construction (with the bit-for-bit identity check) as JSON
# at the repo root.
bench-build:
	$(GO) run ./cmd/xclusterbench -experiment build > BENCH_build.json
	@echo "wrote BENCH_build.json"

# Machine-readable catalog benchmark: scatter-gather estimation across a
# sharded corpus vs the single-shard direct path (with the bit-for-bit
# aggregate check and routing spread) as JSON at the repo root.
bench-catalog:
	$(GO) run ./cmd/xclusterbench -experiment catalog > BENCH_catalog.json
	@echo "wrote BENCH_catalog.json"

# Machine-readable observability benchmark: tracing-off vs tracing-on
# ns/op and allocs/op on the prepared serving hot path (the sampled-out
# overhead must stay under 10%) as JSON at the repo root.
bench-obs:
	$(GO) run ./cmd/xclusterbench -experiment obs > BENCH_obs.json
	@echo "wrote BENCH_obs.json"

# Machine-readable workload-profiler benchmark: profiling-off vs
# profiling-on ns/op on the prepared serving hot path (the overhead
# must stay under 10%) plus the WorkloadProfile export round-trip
# check, as JSON at the repo root.
bench-workload:
	$(GO) run ./cmd/xclusterbench -experiment workload > BENCH_workload.json
	@echo "wrote BENCH_workload.json"

# Machine-readable budget-allocation benchmark: fixed structural/value
# splits vs the sample-guided auto search vs the workload-adaptive
# planner, all scored on held-out queries, as JSON at the repo root.
bench-autobudget:
	$(GO) run ./cmd/xclusterbench -experiment autobudget > BENCH_autobudget.json
	@echo "wrote BENCH_autobudget.json"
