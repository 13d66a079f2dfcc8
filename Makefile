GO ?= go

.PHONY: check build test bench bench-autobudget

# The check gate is ci.sh, the one list of what CI runs: gofmt, vet,
# build, the binaries' smoke run, a -short pass under the race
# detector, the full suite, the benchmark module's vet and smoke test,
# the fuzz seed corpora, the estimate-path benchmark smoke and the
# budget-allocation artifact.
check:
	sh ./ci.sh

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
