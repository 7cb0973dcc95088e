package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/adorn"
	"repro/internal/edb"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/symtab"
	"repro/internal/workload"
)

// reachClusters loads db with the benchmark's dataset D cut down to the given
// number of clusters — each a seeded random digraph of 1000 nodes and 4000
// distinct edges, nodes named c<k>_n<i> — and compiles the reach rules over
// it the way a prepared `?- path(K, Y).` is (the constant is a "d" position
// of the root, supplied per run through Options.Bind). It returns the graph
// and cluster 0's node symbols.
func reachClusters(tb testing.TB, db *edb.Database, clusters int) (*rgg.Graph, []symtab.Sym) {
	tb.Helper()
	const nodes, edges = 1000, 4000
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < clusters; k++ {
		seen := make(map[[2]int]bool, edges)
		for len(seen) < edges {
			e := [2]int{rng.Intn(nodes), rng.Intn(nodes)}
			if e[0] == e[1] || seen[e] {
				continue
			}
			seen[e] = true
			db.Add("edge", fmt.Sprintf("c%d_n%d", k, e[0]), fmt.Sprintf("c%d_n%d", k, e[1]))
		}
	}
	prog := parser.MustParse(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(Y, K) :- path(K, Y).
	`)
	g, err := rgg.Build(prog, rgg.Options{RootAd: adorn.Adornment{adorn.Free, adorn.Dynamic}})
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]symtab.Sym, nodes)
	for i := range ids {
		ids[i] = db.Symbols().Intern(fmt.Sprintf("c0_n%d", i))
	}
	return g, ids
}

// reachCluster is one cluster of D behind a plan.
func reachCluster(tb testing.TB, db *edb.Database) (*Plan, []symtab.Sym) {
	g, ids := reachClusters(tb, db, 1)
	return NewPlan(g, db), ids
}

// diskDB is a database over a disk store in a test directory.
func diskDB(tb testing.TB) *edb.Database {
	tb.Helper()
	st, err := edb.OpenDisk(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	return edb.FromStorage(st)
}

// TestAllocBudget pins the allocation-free hot path: a pooled Plan.Run of
// the reach rules may spend at most 0.1 heap objects per delivered row
// (tuples plus tuple requests), on either backend — an EDB leaf's bound scan
// appends row views into its own buffer, so what is left is per-run wiring.
// Before the node processes became batch-at-a-time it was about 9. A run
// also stays under an absolute ceiling of 90 allocations (about 60 measured,
// nearly all of them the relation a collecting run builds for
// Result.Answers): frames between the site's nodes reuse the buffers of
// frames already handled, and one allocation per flush, as before, was about
// 190. A streamed run, the shape a server runs, stores no answer at all: it
// stays under 27 allocations and 26.9 KB (22 and 21.5 KB measured with base
// subgoals joined in place, plus a quarter; a collecting run makes 59 and
// 128 KB).
func TestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget is measured on the full cluster")
	}
	budget, ceiling := 0.1, 90.0
	const streamCeiling, streamBytes = 27.0, 27520
	if raceEnabled {
		budget = 0.25 // measured 0.05 and 0.11: mailbox and frame buffers the pools dropped
	}
	for _, backend := range []struct {
		name string
		db   *edb.Database
	}{{"memory", edb.FromStorage(edb.NewMemory())}, {"disk", diskDB(t)}} {
		plan, ids := reachCluster(t, backend.db)
		opts := Options{Bind: []symtab.Sym{ids[7]}}
		var rows int64
		run := func() {
			res, err := plan.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			rows = res.Stats.TupleRows + res.Stats.TupReqRows
		}
		run() // two warm-up runs: the second draws the pooled scratch
		run()
		allocs := testing.AllocsPerRun(10, run)
		if per := allocs / float64(rows); per > budget {
			t.Errorf("%s: %.0f allocs for %d delivered rows = %.2f per row, budget %.2f", backend.name, allocs, rows, per, budget)
		} else {
			t.Logf("%s: %.0f allocs for %d delivered rows = %.2f per row", backend.name, allocs, rows, per)
		}
		// sync.Pool drops scratches under the race detector, and a rebuilt
		// one refills its free list: no ceiling to hold there.
		if raceEnabled {
			continue
		}
		if allocs > ceiling {
			t.Errorf("%s: %.0f allocs per pooled reach run, ceiling %.0f", backend.name, allocs, ceiling)
		}
		stream := func() {
			if _, err := plan.RunStream(opts, func(relation.Tuple) bool { return true }); err != nil {
				t.Fatal(err)
			}
		}
		stream()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(10, stream)
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / 11 // AllocsPerRun adds a warm-up run
		switch {
		case allocs > streamCeiling:
			t.Errorf("%s: %.0f allocs per pooled streamed reach run, ceiling %.0f", backend.name, allocs, streamCeiling)
		case bytes > streamBytes:
			t.Errorf("%s: %.0f bytes per pooled streamed reach run, ceiling %d", backend.name, bytes, streamBytes)
		default:
			t.Logf("%s: %.0f allocs and %.1f KB per pooled streamed reach run", backend.name, allocs, bytes/1024)
		}
	}
}

// BenchmarkReachCluster is the in-process twin of the reach_mem workload:
// pooled reach queries, one at a time and two concurrent requests. The
// stream50 case streams over all 50 clusters of dataset D (200k edges),
// each query keyed in another cluster, so its base probes miss the CPU
// caches as the daemon's do; one cluster's 4,000 edges stay cached.
func BenchmarkReachCluster(b *testing.B) {
	plan, ids := reachCluster(b, edb.New())
	var wide *Plan
	var wideKeys []symtab.Sym
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Run(Options{Bind: []symtab.Sym{ids[i%len(ids)]}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		rows := 0
		count := func(relation.Tuple) bool { rows++; return true }
		for i := 0; i < b.N; i++ {
			if _, err := plan.RunStream(Options{Bind: []symtab.Sym{ids[i%len(ids)]}}, count); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream50", func(b *testing.B) {
		const clusters = 50
		if wide == nil {
			db := edb.New()
			g, _ := reachClusters(b, db, clusters)
			wide = NewPlan(g, db)
			for i := range 1000 {
				wideKeys = append(wideKeys, db.Symbols().Intern(fmt.Sprintf("c%d_n%d", i%clusters, i*7919%1000)))
			}
			b.ResetTimer()
		}
		b.ReportAllocs()
		count := func(relation.Tuple) bool { return true }
		for i := 0; i < b.N; i++ {
			if _, err := wide.RunStream(Options{Bind: wideKeys[i%len(wideKeys) : i%len(wideKeys)+1]}, count); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("x2", func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(1)
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				if _, err := plan.Run(Options{Bind: []symtab.Sym{ids[i%len(ids)]}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkPointLookup is the in-process twin of the point_mem workload: a
// pooled `?- edge(K, Y).`, nearly all of it per-run fixed cost.
func BenchmarkPointLookup(b *testing.B) {
	plan, ids := pointCluster(b, edb.New())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(Options{Bind: ids[i%len(ids) : i%len(ids)+1]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSameGeneration is the in-process twin of the sg_embed workload: a
// pooled `?- sg(K, Y).` over Tree(3,7), K a leaf (each query has 2,187
// answers, one per leaf).
func BenchmarkSameGeneration(b *testing.B) {
	db := edb.New()
	for _, f := range workload.Tree(3, 7) {
		db.AddFact(f)
	}
	prog := parser.MustParse(`
		sg(X, Y) :- par(X, P), par(Y, P).
		sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
		goal(Y, K) :- sg(K, Y).
	`)
	g, err := rgg.Build(prog, rgg.Options{RootAd: adorn.Adornment{adorn.Free, adorn.Dynamic}})
	if err != nil {
		b.Fatal(err)
	}
	plan := NewPlan(g, db)
	leaves := make([]symtab.Sym, 3*3*3*3*3*3*3)
	for i := range leaves {
		leaves[i] = db.Symbols().Intern(fmt.Sprintf("c%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(Options{Bind: leaves[i%len(leaves) : i%len(leaves)+1]}); err != nil {
			b.Fatal(err)
		}
	}
}
