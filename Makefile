GO ?= go

.PHONY: build test check check-short chaos docs gate bench bench-smoke pairs profile lines

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

# Failure-handling suite only (fault injection, heartbeats, kills, sites
# that close as they finish, the chaos soak), run twice under the race
# detector.
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

# CPU profile of BenchmarkReachCluster/stream (the in-process twin of
# reach_mem: a streamed run, the shape mpqd serves), printed as the top
# functions by cumulative share; the profile
# and its test binary are written to PROFILE_DIR, outside the tree.
PROFILE_DIR ?= $(or $(TMPDIR),/tmp)/mpq-profile
profile:
	mkdir -p $(PROFILE_DIR)
	cd internal/engine && $(GO) test -run '^$$' -bench 'BenchmarkReachCluster/stream' -benchtime 3s \
		-cpuprofile $(PROFILE_DIR)/cpu.out -o $(PROFILE_DIR)/engine.test
	$(GO) tool pprof -top -cum $(PROFILE_DIR)/engine.test $(PROFILE_DIR)/cpu.out | head -40

# Non-test Go lines per package, the tree total and the length of
# api/mpq.txt: the size figures ROADMAP.md tracks.
lines:
	./scripts/lines.sh
