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

// reachCluster is the benchmark's dataset D cut down to one cluster: the
// reach rules over a seeded random digraph of 1000 nodes and 4000 distinct
// edges, compiled the way a prepared `?- path(K, Y).` is (the constant is a
// "d" position of the root, supplied per run through Options.Bind).
func reachCluster(tb testing.TB) (*Plan, []symtab.Sym) {
	tb.Helper()
	const nodes, edges = 1000, 4000
	rng := rand.New(rand.NewSource(1))
	db := edb.New()
	seen := make(map[[2]int]bool, edges)
	for len(seen) < edges {
		e := [2]int{rng.Intn(nodes), rng.Intn(nodes)}
		if e[0] == e[1] || seen[e] {
			continue
		}
		seen[e] = true
		db.Add("edge", fmt.Sprintf("n%d", e[0]), fmt.Sprintf("n%d", e[1]))
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
		ids[i] = db.Symbols().Intern(fmt.Sprintf("n%d", i))
	}
	return NewPlan(g, db), ids
}

// TestAllocBudget pins the allocation-free hot path: a pooled Plan.Run of
// the reach rules may spend at most 1.5 heap objects per delivered row
// (tuples plus tuple requests), at Partitions 1 and 2. Before the node
// processes became batch-at-a-time it was about 9.
func TestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget is measured on the full cluster")
	}
	plan, ids := reachCluster(t)
	for _, p := range []int{1, 2} {
		opts := Options{Partitions: p, Bind: []symtab.Sym{ids[7]}}
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
		if per := allocs / float64(rows); per > 1.5 {
			t.Errorf("Partitions=%d: %.0f allocs for %d delivered rows = %.2f per row, budget 1.5", p, allocs, rows, per)
		} else {
			t.Logf("Partitions=%d: %.0f allocs for %d delivered rows = %.2f per row", p, allocs, rows, per)
		}
	}
}

func BenchmarkReachCluster(b *testing.B) {
	plan, ids := reachCluster(b)
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Run(Options{Partitions: p, Bind: []symtab.Sym{ids[i%len(ids)]}}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("P%dx2", p), func(b *testing.B) {
			b.ReportAllocs()
			b.SetParallelism(1)
			b.RunParallel(func(pb *testing.PB) {
				for i := 0; pb.Next(); i++ {
					if _, err := plan.Run(Options{Partitions: p, Bind: []symtab.Sym{ids[i%len(ids)]}}); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
