#!/bin/sh
# Tier-1 check: build, vet, docs, and the full test suite under the race
# detector. `make check` runs this. Pass -short through for a quick pass:
#   ./scripts/check.sh -short
# `./scripts/check.sh chaos` (or `make chaos`) runs the failure-handling
# suite — fault injection, heartbeats, kills, clean departures, deadlines,
# the chaos soak — twice under the race detector, to shake out schedules
# that only hang or race on the second run.
# `./scripts/check.sh docs` (or `make docs`) runs only the documentation
# gate: intra-repo markdown links must resolve, and `go vet` must be clean.
# `./scripts/check.sh gate` (or `make gate`) runs the perf-regression
# release gate: cmd/bench re-measures the headline ratios of the committed
# BENCH_4/6/8/9.json records on this tree — including the disk store's
# point scans against the memory store's — and exits nonzero if any falls
# past its noise floor (thresholds: EXPERIMENTS.md). Self-test with
# MPQ_GATE_HANDICAP=2ms, which simulates a slowed build — the gate must
# then fail.
# `./scripts/check.sh bench` (or `make bench-smoke`) vets and tests the
# benchmark module. It is a Go module of its own (benchmark/go.mod), outside
# the root `go test ./...`, so nothing else notices when an internal API it
# calls changes; its tests include a 300 ms smoke run of all five workloads.
# The default path runs it too, after the race suite.
set -eu
cd "$(dirname "$0")/.."
bench_smoke() {
	go vet -C benchmark ./...
	go test -C benchmark ./...
}
go build ./...
go vet ./...
# Format gate: gofmt must have nothing to say about any tracked source file
# (.bench_build/ holds generated programs, not ours to format).
unformatted=$(gofmt -l . | grep -v '^\.bench_build/' || true)
if [ -n "$unformatted" ]; then
	echo "gofmt -l reports unformatted files:" >&2
	echo "$unformatted" >&2
	exit 1
fi
# Docs gate: every relative markdown link in the repo's own documentation
# must point at a real file. SNIPPETS/PAPERS/ISSUE quote external material
# whose links are not ours to keep alive, so they are not listed.
go run ./cmd/mdlinkcheck README.md DESIGN.md EXPERIMENTS.md ROADMAP.md CHANGES.md doc/*.md
# API gate: the exported surface of package mpq must match the checked-in
# snapshot. Intentional changes: go run ./cmd/apisnap > api/mpq.txt
go run ./cmd/apisnap -check api/mpq.txt
if [ "${1:-}" = "docs" ]; then
	exit 0
fi
if [ "${1:-}" = "gate" ]; then
	go run ./cmd/bench -gate
	exit 0
fi
if [ "${1:-}" = "bench" ]; then
	bench_smoke
	exit 0
fi
if [ "${1:-}" = "chaos" ]; then
	shift
	go test -race -count=2 \
		-run 'Chaos|FaultNet|ParseChaos|Deadline|Cancel|Panic|Heartbeat|PeerDown|KilledPeer|Frozen|Departure|CloseAsTheyFinish|SiteKill|ConnectionLoss' \
		"$@" ./internal/engine/ ./internal/transport/
	exit 0
fi
go test -race "$@" ./...
# Storage-backend sweep: the engine suite again, with every edb.New()
# backed by a temporary disk segment store. Both backends keep one
# relation.Relation per predicate; what this still guards is what only the
# disk store does — row views that must stay mapped for as long as the
# engine holds them, and the segment-then-journal write order under live
# readers.
MPQ_STORE=disk go test -race "$@" ./internal/engine/ ./internal/edb/
# Subscription soak: live subscriptions racing wire mutations (and the
# mutation/wake ordering that keeps result caches fresh) re-run twice so
# one-in-two schedules still surface; see doc/SUBSCRIPTIONS.md.
go test -race -count=2 -run 'TestServeSubscribe|TestServeFact|TestSubscription|TestSubscribe|TestAddFactWake' \
	"$@" ./internal/serve/ .
# Graph compilation racing AddFact: the compiler must read a program
# snapshot taken under the System lock. The race needs several schedules to
# show, hence the CPU sweep and the repeat count.
go test -race -cpu 1,2,4 -count=5 -run TestAddFactDuringWarming .
# Every Go benchmark once, so the in-process twins of the benchmark
# workloads (BenchmarkReachCluster, BenchmarkPointLookup) and the other
# micro-benchmarks keep compiling and running; a few seconds in all.
go test -run '^$' -bench . -benchtime 1x "$@" ./...
# The lexer parses outside input — program files and wire `fact`/query
# lines — so it is fuzzed on every check, from the committed corpus
# (internal/parser/testdata/fuzz) outward: round trips, and ParseInto's
# fact stream against Parse's facts.
go test -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/parser/
# A disk store's program record (program.rec) is a cache that decides
# whether a reopen reads the program's facts: whatever bytes it holds,
# OpenSystem must end where a record-less open does (corpus in
# testdata/fuzz/FuzzReopen).
go test -run '^$' -fuzz FuzzReopen -fuzztime 10s .
# Memory and disk stores given the same inserts, with disk reopens between
# them, must agree on every read (corpus in
# internal/edb/testdata/fuzz/FuzzStoreConformance).
go test -run '^$' -fuzz FuzzStoreConformance -fuzztime 10s ./internal/edb/
# A relation and a map-based model given the same operations, across chunk
# boundaries and Resets, must agree on every read (corpus in
# internal/relation/testdata/fuzz/FuzzRelation).
go test -run '^$' -fuzz FuzzRelation -fuzztime 10s ./internal/relation/
# The benchmark module compiles against internal signatures (edb.Storage,
# engine.Plan, relation) that nothing above builds it against.
bench_smoke
