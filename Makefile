GO ?= go

.PHONY: build test check check-short chaos docs gate bench bench-smoke pairs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 gate: build + vet + race-enabled tests.
check:
	./scripts/check.sh

# Same gate with -short: skips the soak/stress/timeout-bound tests.
check-short:
	./scripts/check.sh -short

# Failure-handling suite only (fault injection, heartbeats, kills, the
# chaos soak), run twice under the race detector.
chaos:
	./scripts/check.sh chaos

# Documentation gate only: intra-repo markdown links resolve + go vet.
docs:
	./scripts/check.sh docs

# Perf-regression release gate: re-measure the committed BENCH_4/6/8/9
# headline ratios (prepared speedup, serving fairness, adaptive planning,
# disk-store point scans against memory) on this tree,
# nonzero exit past the noise floor.
gate:
	./scripts/check.sh gate

bench:
	$(GO) test -bench . -benchmem -benchtime 1s .

# The benchmark module (benchmark/, outside the root go test ./...): vet it
# and run its tests, which include a 300 ms smoke of all five workloads.
# The measured run is `bash benchmark/run.sh`.
bench-smoke:
	./scripts/check.sh bench

# Paired runs of the benchmark, a base commit against this tree, alternating
# which goes first: make pairs BASE=HEAD~1 WORKLOAD=point_mem [N=10].
pairs:
	./scripts/pairs.sh $(BASE) $(WORKLOAD) $(N)
