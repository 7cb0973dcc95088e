package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/adorn"
	"repro/internal/bottomup"
	"repro/internal/edb"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/symtab"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestFailedRunLeavesPoolUsable: a run refused before its scratch was built
// (here a Bind of the wrong length) must not pool the empty shell — the next
// run would take it for a recycled one and reset processes that were never
// made.
func TestFailedRunLeavesPoolUsable(t *testing.T) {
	plan, ids := reachCluster(t, edb.New())
	if _, err := plan.Run(Options{}); err == nil {
		t.Fatal("run without the root's binding succeeded")
	}
	res, err := plan.Run(Options{Bind: ids[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() == 0 {
		t.Error("no answers after a refused run")
	}
}

// pointCluster is one cluster of D behind a prepared `?- edge(K, Y).`: the
// benchmark's point_mem request, whose cost is all per-run fixed cost.
func pointCluster(tb testing.TB, db *edb.Database) (*Plan, []symtab.Sym) {
	_, ids := reachClusters(tb, db, 1)
	g, err := rgg.Build(parser.MustParse(`goal(Y, K) :- edge(K, Y).`),
		rgg.Options{RootAd: adorn.Adornment{adorn.Free, adorn.Dynamic}})
	if err != nil {
		tb.Fatal(err)
	}
	return NewPlan(g, db), ids
}

// pointRunAllocs is what a pooled point lookup allocates (measured: the
// runner, the answer relation and its rows, the Result); the budget below
// allows half as much again.
const pointRunAllocs = 20

// TestPointRunBudget pins the fixed cost of a request: a pooled Plan.Run at
// Partitions=1 runs to completion on the calling goroutine — no goroutine
// exists during or after it that did not before — and stays within its
// allocation budget, on either backend.
func TestPointRunBudget(t *testing.T) {
	for _, backend := range []struct {
		name string
		db   *edb.Database
	}{{"memory", edb.FromStorage(edb.NewMemory())}, {"disk", diskDB(t)}} {
		plan, ids := pointCluster(t, backend.db)
		opts := Options{Partitions: 1, Bind: ids[7:8]}
		before, during, rows := runtime.NumGoroutine(), 0, 0
		run := func() {
			rows = 0
			_, err := plan.RunStream(opts, func(relation.Tuple) bool {
				during = max(during, runtime.NumGoroutine())
				rows++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		run() // the second run draws the pooled scratch
		run()
		if rows == 0 {
			t.Fatalf("%s: point lookup found nothing", backend.name)
		}
		if after := runtime.NumGoroutine(); during != before || after != before {
			t.Errorf("%s: goroutines before/during/after a run = %d/%d/%d, want no change", backend.name, before, during, after)
		}
		allocs, budget := testing.AllocsPerRun(100, run), 1.5*pointRunAllocs
		switch {
		case raceEnabled:
			// sync.Pool drops a quarter of the scratches put back, and building
			// one costs several runs' worth: nothing to hold a budget against.
		case allocs > budget:
			t.Errorf("%s: %.0f allocs per pooled point lookup, budget %.0f", backend.name, allocs, budget)
		default:
			t.Logf("%s: %.0f allocs per pooled point lookup", backend.name, allocs)
		}
	}
}

// TestSeededLoopRandomPrograms drives the production loop under seeded
// schedules over random positive programs. For every (program, seed): the
// answers equal semi-naive's; an abort injected at a seeded step returns the
// typed error without hanging and leaves the pooled scratch reusable; and an
// Incremental under the same kind of schedule, after a fact is added,
// accumulates exactly the grown database's answers.
func TestSeededLoopRandomPrograms(t *testing.T) {
	programs, seeds := int64(40), int64(25)
	if testing.Short() {
		programs, seeds = 8, 5
	}
	aborted := 0
	for ps := int64(0); ps < programs; ps++ {
		prog := workload.RandomProgram(rand.New(rand.NewSource(ps)))
		src := prog.String()
		g, err := rgg.Build(prog, rgg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := renderSetBottomup(t, src)
		for seed := int64(0); seed < seeds; seed++ {
			fail := func(what string, args ...any) {
				t.Helper()
				t.Fatalf("program %d seed %d: %s\n%s", ps, seed, fmt.Sprintf(what, args...), src)
			}
			db := edb.FromProgram(prog)
			plan := NewPlan(g, db)
			rng := rand.New(rand.NewSource(seed))
			steps := 0
			res, err := plan.Run(Options{pick: func(n int) int { steps++; return rng.Intn(n) }})
			if err != nil {
				fail("%v", err)
			}
			if got := renderSet(res.Answers, db); got != want {
				fail("answers %s, want %s", got, want)
			}

			// Cancel from inside the schedule: the loop must see it before its
			// next step, so only a run whose last step it was may still succeed.
			cancel, at, picks := make(chan struct{}), 1+rng.Intn(steps), 0
			guard(t, 30*time.Second, "aborted run", func() {
				_, err = plan.Run(Options{Cancel: cancel, pick: func(n int) int {
					if picks++; picks == at {
						close(cancel)
					}
					return rng.Intn(n)
				}})
			})
			switch {
			case errors.Is(err, ErrCancelled):
				aborted++
			case err != nil || picks > at:
				fail("run cancelled at step %d of %d returned %v, want ErrCancelled", at, picks, err)
			}
			if res, err = plan.Run(Options{pick: rng.Intn}); err != nil {
				fail("run on the scratch an abort left behind: %v", err)
			}
			if got := renderSet(res.Answers, db); got != want {
				fail("answers after an aborted run %s, want %s", got, want)
			}

			inc := plan.Incremental(Options{pick: rng.Intn})
			seen := relation.New(len(g.Nodes[g.Root].Atom.Args))
			round := func() {
				rows, _ := incRound(t, inc)
				for _, r := range rows {
					if !seen.Insert(r) {
						fail("delta round repeated answer %s", r.String(db.Syms))
					}
				}
			}
			round()
			db.Add("e", fmt.Sprintf("n%d", rng.Intn(6)), fmt.Sprintf("n%d", rng.Intn(6)))
			db.Add("u", fmt.Sprintf("n%d", rng.Intn(6)))
			round()
			grown := bottomup.SemiNaive(prog, db)
			if got, want := renderSet(seen, db), renderSet(grown.Goal, db); got != want {
				fail("after AddFact: accumulated answers %s, want %s", got, want)
			}
		}
	}
	if aborted < int(programs*seeds)/2 {
		t.Errorf("only %d of %d injected aborts landed before the run's last step", aborted, programs*seeds)
	}
}

// TestLoopWakesOnWorkerOutput: a control process whose only pending work
// arrives from a worker shard — the shard's drain report, the answers it
// routes to an unpartitioned customer — must wake a loop that parked with no
// mail anywhere. A lost wake-up would hang the run (the guard), so run this
// under -race -count=20.
func TestLoopWakesOnWorkerOutput(t *testing.T) {
	plan, ids := reachCluster(t, edb.New())
	want := 0
	for i := 0; i < 30; i++ {
		bind := ids[i%len(ids) : i%len(ids)+1]
		var res *Result
		var err error
		guard(t, 30*time.Second, "partitioned run", func() {
			res, err = plan.Run(Options{Partitions: 2 + 2*(i%2), Bind: bind})
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Workers == 0 {
			t.Fatal("no worker shards: nothing could have woken the loop from outside")
		}
		seq, err := plan.Run(Options{Bind: bind})
		if err != nil {
			t.Fatal(err)
		}
		if res.Answers.Len() != seq.Answers.Len() {
			t.Fatalf("binding %d: %d answers with worker shards, %d without", i, res.Answers.Len(), seq.Answers.Len())
		}
		want += seq.Answers.Len()
	}
	if want == 0 {
		t.Error("no binding had answers")
	}
}

// TestWorkerPanicAborts: a worker shard that panics records the abort from
// its own goroutine, possibly while the loop is parked waiting for that very
// shard; the abort must ring the loop awake and come back typed.
func TestWorkerPanicAborts(t *testing.T) {
	db := edb.New()
	g, ids := reachClusters(t, db, 1)
	local := transport.NewLocal(len(g.Nodes) + 1)
	guard(t, 30*time.Second, "worker panic", func() {
		// The first tuples of a reach query leave the partitioned edge leaf.
		_, err := runOver(g, db, &panicNet{inner: local}, local, Options{Partitions: 2, Bind: ids[7:8]})
		if !errors.Is(err, ErrNodePanic) || !strings.Contains(err.Error(), "worker") {
			t.Errorf("err = %v, want ErrNodePanic from a worker shard", err)
		}
	})
}
