GO ?= go

.PHONY: check build test bench bench-autobudget

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

# Machine-readable budget-allocation benchmark: fixed structural/value
# splits vs the sample-guided auto search vs the workload-adaptive
# planner, all scored on held-out queries, as JSON at the repo root.
bench-autobudget:
	$(GO) run ./cmd/xclusterbench -experiment autobudget > BENCH_autobudget.json
	@echo "wrote BENCH_autobudget.json"
