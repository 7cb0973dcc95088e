package engine

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ast"
	"repro/internal/bottomup"
	"repro/internal/edb"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// An EDB leaf is a retrieval process in front of the one shared store: it
// holds no rows. These tests pin what that buys (building a scratch does not
// read the base relation) and what it must not lose (leaves of many plans and
// concurrent runs read the same rows, however the store is shared).

// fullScanCounter counts the scans that ask a store for a whole relation.
type fullScanCounter struct {
	edb.Storage
	full atomic.Int64
}

func (c *fullScanCounter) Scan(key ast.PredKey, b relation.Binding) iter.Seq[relation.Tuple] {
	if !b.Constrains() {
		c.full.Add(1)
	}
	return c.Storage.Scan(key, b)
}

func (c *fullScanCounter) ScanInto(dst []relation.Tuple, key ast.PredKey, b relation.Binding) []relation.Tuple {
	if !b.Constrains() {
		c.full.Add(1)
	}
	return c.Storage.ScanInto(dst, key, b)
}

func (c *fullScanCounter) ScanSince(key ast.PredKey, from int) iter.Seq[relation.Tuple] {
	if from == 0 {
		c.full.Add(1)
	}
	return c.Storage.ScanSince(key, from)
}

// TestScratchIsGraphSized checks that building a scratch costs O(graph), not
// O(|EDB|), over a 100k-row base relation whose every leaf is bound-access:
// compiling a plan and running it on fresh scratches reads the relation only
// through bound probes, and a retained scratch adds well under 1 MB of live
// heap (a private slice per leaf was about 6 MB each).
func TestScratchIsGraphSized(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 100k-row EDB")
	}
	db := edb.New()
	defer db.Close()
	g, _ := reachClusters(t, db, 25)
	// A start node off the clusters with one successor, so a scratch that
	// has run holds a handful of rows and what is measured is its
	// construction.
	db.Add("edge", "lonely", "lonelier")
	lonely := []symtab.Sym{db.Symbols().Intern("lonely")}
	counted := &fullScanCounter{Storage: db}
	plan := NewPlan(g, counted)
	for i := 0; i < 3; i++ {
		for plan.pool.Get() != nil { // empty the pool: the run builds a fresh scratch
		}
		if _, err := plan.Run(Options{Bind: lonely}); err != nil {
			t.Fatal(err)
		}
	}
	if n := counted.full.Load(); n != 0 {
		t.Fatalf("%d whole-relation scans while compiling and running on fresh scratches, want 0", n)
	}

	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	plan = NewPlan(g, db)
	const scratches = 4
	held := make([]*Incremental, 0, scratches) // an Incremental keeps its scratch
	before := liveHeap()
	for i := 0; i < scratches; i++ {
		inc := plan.Incremental(Options{Bind: lonely})
		if _, err := inc.Round(nil, nil); err != nil {
			t.Fatal(err)
		}
		held = append(held, inc)
	}
	after := liveHeap()
	runtime.KeepAlive(held)
	if grown := int64(after) - int64(before); grown > scratches<<20 {
		t.Errorf("%d retained scratches grew the live heap by %d bytes, budget 1 MB each", scratches, grown)
	} else {
		t.Logf("%d retained scratches grew the live heap by %d bytes", scratches, grown)
	}
}

// TestLeafOwnershipMatrix runs random programs over every way leaves share
// the store — N plans compiled over it (edbN), P runs of each plan at once
// (pP), memory and disk — through a fresh run, a pooled re-run after facts
// arrived, and a delta round over the same facts. The programs include a
// predicate with no facts at plan time and a selection whose bound variable
// repeats (edge(X, X)). Every answer set must equal semi-naive's over the
// same database, and for one request the base rows delivered must not depend
// on N or P: no leaf owns a private copy of a row.
func TestLeafOwnershipMatrix(t *testing.T) {
	const rules = `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- late(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		path(X, Y) :- path(X, U), late(U, Y).
		loop(X) :- path(n0, X), edge(X, X).
		goal(reach, Y) :- path(n0, Y).
		goal(loop, Y) :- loop(Y).
	`
	prog := parser.MustParse(rules)
	const nodes = 12
	node := func(rng *rand.Rand) string { return fmt.Sprintf("n%d", rng.Intn(nodes)) }
	backends := map[string]func(testing.TB) *edb.Database{
		"memory": func(testing.TB) *edb.Database { return edb.FromStorage(edb.NewMemory()) },
		"disk":   diskDB,
	}
	for trial := 0; trial < 3; trial++ {
		for name, mk := range backends {
			// step → "edbN/pP" → base rows delivered.
			delivered := make(map[string]map[string]int64)
			for _, plans := range []int{2, 3} {
				for _, par := range []int{1, 2, 4} {
					cell := fmt.Sprintf("edb%d/p%d", plans, par)
					note := func(step string, n int64) {
						if delivered[step] == nil {
							delivered[step] = make(map[string]int64)
						}
						delivered[step][cell] = n
					}
					t.Run(fmt.Sprintf("trial%d/%s/%s", trial, name, cell), func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(100 + trial)))
						db := mk(t)
						db.Add("edge", "n0", node(rng))
						for k := 0; k < 2*nodes; k++ {
							db.Add("edge", node(rng), node(rng))
						}
						g, err := rgg.Build(prog, rgg.Options{})
						if err != nil {
							t.Fatal(err)
						}
						want := func() string { return renderSet(bottomup.SemiNaive(prog, db).Goal, db) }
						pls := make([]*Plan, plans)
						incs := make([]*Incremental, plans)
						seen := make([]*relation.Relation, plans)
						for i := range pls {
							pls[i] = NewPlan(g, db)
							incs[i] = pls[i].Incremental(Options{})
							seen[i] = relation.New(2)
						}
						// each runs f once per (plan, slot) at once and checks
						// that every one delivered the same base rows.
						each := func(step string, slots int, f func(i int) *Result) {
							t.Helper()
							res := make([]*Result, plans*slots)
							var wg sync.WaitGroup
							for k := range res {
								wg.Add(1)
								go func(k int) {
									defer wg.Done()
									res[k] = f(k % plans)
								}(k)
							}
							wg.Wait()
							for _, r := range res {
								if r == nil {
									t.FailNow() // f reported why
								}
								if r.Stats.EDBTuples != res[0].Stats.EDBTuples {
									t.Fatalf("%s: concurrent evaluations delivered %d and %d base rows", step, r.Stats.EDBTuples, res[0].Stats.EDBTuples)
								}
							}
							note(step, res[0].Stats.EDBTuples)
						}
						run := func(step string) {
							t.Helper()
							w := want()
							each(step, par, func(i int) *Result {
								res, err := pls[i].Run(Options{})
								if err != nil {
									t.Error(err)
									return nil
								}
								if got := renderSet(res.Answers, db); got != w {
									t.Errorf("%s: answers %s, want %s", step, got, w)
									return nil
								}
								return res
							})
						}
						round := func(step string) {
							t.Helper()
							w := want()
							each(step, 1, func(i int) *Result {
								rows, res, err := roundRows(incs[i])
								if err != nil {
									t.Error(err)
									return nil
								}
								for _, r := range rows {
									if !seen[i].Insert(r) {
										t.Errorf("%s: repeated answer %s", step, r.String(db.Syms))
									}
								}
								if got := renderSet(seen[i], db); got != w {
									t.Errorf("%s: accumulated answers %s, want %s", step, got, w)
									return nil
								}
								return res
							})
						}
						run("fresh run")
						round("first round")
						for k := 0; k < 3; k++ {
							// New facts: the late predicate's first rows, more
							// edges, and a self-loop on a reachable node.
							db.Add("late", node(rng), node(rng))
							db.Add("edge", node(rng), node(rng))
							loop := node(rng)
							db.Add("late", "n0", loop)
							db.Add("edge", loop, loop)
							run(fmt.Sprintf("pooled re-run %d", k))
							round(fmt.Sprintf("delta round %d", k))
						}
					})
				}
			}
			for step, byCell := range delivered {
				for _, n := range byCell {
					if n != byCell["edb2/p1"] {
						t.Errorf("trial%d/%s, %s: base rows delivered depend on how the store is shared: %v", trial, name, step, byCell)
						break
					}
				}
			}
		}
	}
}

// TestLeafPassThrough pins which EDB leaves keep an answer store. A leaf
// without existential positions streams its selected rows to its one
// customer unstored; one whose projection drops a position still dedups what
// the projection collapses; and a delta round's window rows, under a binding
// requested in an earlier round or a new one, still reach the driver once.
func TestLeafPassThrough(t *testing.T) {
	leafStored := func(prof *trace.Profile) (leaves int, stored int64) {
		for _, n := range prof.Snapshot().Nodes {
			if n.Kind == "edb" {
				leaves++
				stored += n.Stored
			}
		}
		return leaves, stored
	}

	t.Run("existential", func(t *testing.T) {
		res, prof := runObserved(t, `e(a, 1). e(a, 2).
			p(X) :- e(X, Z).
			goal(X) :- p(X).`, Options{})
		if res.Answers.Len() != 1 {
			t.Errorf("%d answers, want 1", res.Answers.Len())
		}
		if leaves, stored := leafStored(prof); leaves != 1 || stored != 1 {
			t.Errorf("%d leaves stored %d rows, want one leaf storing 1", leaves, stored)
		}
	})

	t.Run("reach", func(t *testing.T) {
		db := edb.New()
		plan, ids := reachCluster(t, db)
		prof := trace.NewProfile()
		res, err := plan.Run(Options{Bind: ids[7:8], Profile: prof})
		if err != nil {
			t.Fatal(err)
		}
		if leaves, stored := leafStored(prof); leaves == 0 || stored != 0 {
			t.Errorf("%d leaves stored %d rows, want none", leaves, stored)
		}
		start := db.Syms.String(ids[7])
		truth, _, tdb, err := magic.EvaluateWith(parser.MustParse(`
			path(X, Y) :- edge(X, Y).
			path(X, Y) :- path(X, U), edge(U, Y).
			goal(Y) :- path(`+start+`, Y).`), db, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for row := range res.Answers.All() {
			got = append(got, db.Syms.String(row[0]))
		}
		for row := range truth.Goal.All() {
			want = append(want, tdb.Syms.String(row[0]))
		}
		slices.Sort(got)
		slices.Sort(want)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("reach from %s: %d answers, semi-naive %d", start, len(got), len(want))
		}
	})

	t.Run("delta", func(t *testing.T) {
		src := `
			edge(a, b). edge(b, c).
			path(X, Y) :- edge(X, Y).
			path(X, Y) :- path(X, U), edge(U, Y).
			goal(Y) :- path(a, Y).
		`
		prog := parser.MustParse(src)
		db := edb.FromProgram(prog)
		g, err := rgg.Build(prog, rgg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		prof := trace.NewProfile()
		inc := NewPlan(g, db).Incremental(Options{Profile: prof})
		seen := relation.New(1)
		round := func(name string) int {
			rows, _ := incRound(t, inc)
			for _, r := range rows {
				if !seen.Insert(r) {
					t.Errorf("%s: answer %s yielded again", name, r.String(db.Syms))
				}
			}
			if _, stored := leafStored(prof); stored != 0 {
				t.Errorf("%s: leaves stored %d rows, want none", name, stored)
			}
			if got, want := renderSet(seen, db), freshSet(t, src, db, nil, Options{}); got != want {
				t.Fatalf("%s: answers so far %s, a fresh run %s", name, got, want)
			}
			return len(rows)
		}
		round("full round")
		// Each delta round extends a node whose binding was requested before
		// (b, then c) and hangs a further edge off the new node, whose binding
		// is requested for the first time within the round; the edge out of z
		// stays under a binding nobody asks for.
		for i, add := range [][][2]string{
			{{"b", "d"}, {"d", "e"}, {"z", "a"}},
			{{"c", "f"}, {"f", "a"}, {"a", "d"}},
		} {
			for _, e := range add {
				db.Add("edge", e[0], e[1])
			}
			if n := round(fmt.Sprintf("delta round %d", i+1)); n == 0 {
				t.Errorf("delta round %d yielded nothing", i+1)
			}
		}
	})
}
