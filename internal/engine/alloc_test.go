package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adorn"
	"repro/internal/edb"
	"repro/internal/parser"
	"repro/internal/rgg"
	"repro/internal/symtab"
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
// Before the node processes became batch-at-a-time it was about 9.
func TestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget is measured on the full cluster")
	}
	budget := 0.1
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
	}
}

// BenchmarkReachCluster is the in-process twin of the reach_mem workload:
// pooled reach queries, one at a time and two concurrent requests.
func BenchmarkReachCluster(b *testing.B) {
	plan, ids := reachCluster(b, edb.New())
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Run(Options{Bind: []symtab.Sym{ids[i%len(ids)]}}); err != nil {
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
