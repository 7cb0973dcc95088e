package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// pointRunAllocs is what a pooled, streamed point lookup allocates
// (measured; the driver stores no answer); the budget below allows half as
// much again.
const pointRunAllocs = 5

// TestPointRunBudget pins the fixed cost of a request: a pooled Plan.Run
// runs to completion on the calling goroutine — no goroutine exists during or
// after it that did not before — and stays within its allocation budget, on
// either backend. It also pins the compatibility contract of the deprecated
// Options.Partitions: a run asking for 4 shards is the default run, answer for
// answer in the same order, and reports Stats.Workers == 0.
func TestPointRunBudget(t *testing.T) {
	for _, backend := range []struct {
		name string
		db   *edb.Database
	}{{"memory", edb.FromStorage(edb.NewMemory())}, {"disk", diskDB(t)}} {
		plan, ids := pointCluster(t, backend.db)
		before, during := runtime.NumGoroutine(), 0
		var rows []relation.Tuple
		run := func(opts Options) *Result {
			rows = rows[:0]
			res, err := plan.RunStream(opts, func(row relation.Tuple) bool {
				during = max(during, runtime.NumGoroutine())
				rows = append(rows, row)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		def, sharded := Options{Bind: ids[7:8]}, Options{Partitions: 4, Bind: ids[7:8]}
		run(def) // the second run draws the pooled scratch
		want := fmt.Sprint(rows)
		got := run(sharded)
		if len(rows) == 0 {
			t.Fatalf("%s: point lookup found nothing", backend.name)
		}
		if after := runtime.NumGoroutine(); during != before || after != before {
			t.Errorf("%s: goroutines before/during/after a run = %d/%d/%d, want no change", backend.name, before, during, after)
		}
		// A streamed run's Result holds no answers: the yielded rows are
		// checked against a collecting run of the same plan and binding.
		collected, err := plan.Run(def)
		if err != nil {
			t.Fatal(err)
		}
		if w := fmt.Sprint(slices.Collect(collected.Answers.All())); want != w {
			t.Errorf("%s: default run yielded %s, a collecting run answers %s", backend.name, want, w)
		}
		if g := fmt.Sprint(rows); g != want {
			t.Errorf("%s: Partitions=4 answers %s, default %s", backend.name, g, want)
		}
		if got.Stats.Workers != 0 {
			t.Errorf("%s: Partitions=4 reports %d workers, want 0", backend.name, got.Stats.Workers)
		}
		allocs, budget := testing.AllocsPerRun(100, func() { run(def) }), 1.5*pointRunAllocs
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

// TestPlanScratchSurvivesGC: a plan run one request at a time keeps its
// scratch across garbage collections, which empty a sync.Pool. Rebuilding
// the scratch after two collections cost a point lookup 206 allocations
// against 20 for a pooled run; keeping it costs a few.
func TestPlanScratchSurvivesGC(t *testing.T) {
	plan, ids := pointCluster(t, edb.FromStorage(edb.NewMemory()))
	run := func() {
		if _, err := plan.Run(Options{Bind: ids[7:8]}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	pooled := testing.AllocsPerRun(20, run)
	collected := testing.AllocsPerRun(20, func() {
		runtime.GC()
		runtime.GC()
		run()
	})
	if collected > 2*pooled {
		t.Errorf("a run after two collections allocates %.0f, a pooled run %.0f: the scratch was rebuilt", collected, pooled)
	}
}

// TestPartitionedWorkerGauge pins Stats.Workers, the deprecated worker-shard
// gauge: a run reports 0 workers, with or without Partitions, and asking for
// 4 shards changes no answer.
func TestPartitionedWorkerGauge(t *testing.T) {
	prog := parser.MustParse(p1data)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := edb.FromProgram(prog)
	var answers []string
	for _, opts := range []Options{{}, {Partitions: 4}} {
		res, err := Run(g, db, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Workers != 0 {
			t.Errorf("Partitions=%d reports %d workers, want 0", opts.Partitions, res.Stats.Workers)
		}
		answers = append(answers, renderSet(res.Answers, db))
	}
	if answers[0] != answers[1] {
		t.Errorf("Partitions=4 answers %s, default %s", answers[1], answers[0])
	}
}

// TestSeededLoopRandomPrograms drives the production loop under seeded
// schedules over random positive programs. For every (program, seed): a
// streamed run yields no answer twice, and its answers equal semi-naive's;
// an abort injected at a seeded step returns the typed error without hanging
// and leaves the pooled scratch reusable; and an Incremental under the same
// kind of schedule, after a fact is added, accumulates exactly the grown
// database's answers. Each program also runs split across two in-process
// sites. Throughout, no rule temporary may receive a row twice: onSubTuple
// appends without a membership probe on that premise, and checkSubTuples
// turns a repeat into a failed run.
func TestSeededLoopRandomPrograms(t *testing.T) {
	programs, seeds := int64(40), int64(25)
	if testing.Short() {
		programs, seeds = 8, 5
	}
	checkSubTuples.Store(true)
	defer checkSubTuples.Store(false)
	srcs := make([]string, 0, programs+int64(len(randomGraphShapes)))
	for ps := int64(0); ps < programs; ps++ {
		srcs = append(srcs, workload.RandomProgram(rand.New(rand.NewSource(ps))).String())
	}
	graphs := rand.New(rand.NewSource(7))
	for _, shape := range append(randomGraphShapes, constantHeadShape) {
		srcs = append(srcs, randomGraphProgram(graphs, shape))
	}
	aborted := 0
	for ps, src := range srcs {
		prog := parser.MustParse(src)
		g, err := rgg.Build(prog, rgg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := renderSetBottomup(t, src)
		db := edb.FromProgram(prog)
		res, err := runPlanSites(NewPlan(g, db), 2)
		if err != nil {
			t.Fatalf("program %d on two sites: %v\n%s", ps, err, src)
		}
		if got := renderSet(res.Answers, db); got != want {
			t.Fatalf("program %d on two sites: answers %s, want %s\n%s", ps, got, want, src)
		}
		for seed := int64(0); seed < seeds; seed++ {
			fail := func(what string, args ...any) {
				t.Helper()
				t.Fatalf("program %d seed %d: %s\n%s", ps, seed, fmt.Sprintf(what, args...), src)
			}
			db := edb.FromProgram(prog)
			plan := NewPlan(g, db)
			rng := rand.New(rand.NewSource(seed))
			steps := 0
			// The driver stores nothing: the root's answer set is the only
			// deduplication between the graph and a streamed run's yield.
			arity := len(g.Nodes[g.Root].Atom.Args)
			streamed := relation.New(arity)
			_, err := plan.RunStream(Options{pick: func(n int) int { steps++; return rng.Intn(n) }}, func(row relation.Tuple) bool {
				if !streamed.Insert(row) {
					fail("streamed run yielded %s twice", row.String(db.Syms))
				}
				return true
			})
			if err != nil {
				fail("%v", err)
			}
			if got := renderSet(streamed, db); got != want {
				fail("streamed answers %s, want %s", got, want)
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
			res, err := plan.Run(Options{pick: rng.Intn})
			if err != nil {
				fail("run on the scratch an abort left behind: %v", err)
			}
			if got := renderSet(res.Answers, db); got != want {
				fail("answers after an aborted run %s, want %s", got, want)
			}

			inc := plan.Incremental(Options{pick: rng.Intn})
			seen := relation.New(arity)
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
	if runs := len(srcs) * int(seeds); aborted < runs/2 {
		t.Errorf("only %d of %d injected aborts landed before the run's last step", aborted, runs)
	}
}

// constantHeadShape has a head whose "d" position is a constant, t(n0, Y),
// over a subgoal without "d" arguments, r(Y): its relation request starts r,
// so r's rows can reach the rule before the binding n0 does, which s derives
// only after some edges.
const constantHeadShape = `
	r(Y) :- edge(Y, Z).
	s(X) :- q(n1, X).
	s(Y) :- s(X), edge(X, Y).
	t(n0, Y) :- r(Y).
	t(X, Y) :- edge(X, Y).
	goal(X, Y) :- s(X), t(X, Y).`

// TestLoopWakesOnWorkerOutput: a site whose every message arrives from
// another goroutine — FaultNet's delay workers, here delaying each send on
// the one site's own link — parks with no mail after every step, and each
// delivery must ring it awake. A lost wake-up would hang the run (the
// guard), so run this under -race -count=20.
func TestLoopWakesOnWorkerOutput(t *testing.T) {
	db := edb.New()
	g, ids := reachClusters(t, db, 1)
	plan := NewPlan(g, db)
	hosts := make([]int, len(g.Nodes)+1)
	want := 0
	for i := 0; i < 6; i++ {
		bind := ids[i%len(ids) : i%len(ids)+1]
		seq, err := plan.Run(Options{Bind: bind})
		if err != nil {
			t.Fatal(err)
		}
		local := transport.NewLocal(len(g.Nodes) + 1)
		fn := transport.NewFaultNet(local, hosts, int64(i))
		fn.AddLink(transport.LinkFault{From: transport.AnySite, To: transport.AnySite, Jitter: 50 * time.Microsecond})
		var res *Result
		guard(t, 30*time.Second, "delayed run", func() {
			res, err = RunSites(g, db, fn, local, hosts, 0, Options{Bind: bind})
		})
		fn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Answers.Len() != seq.Answers.Len() {
			t.Fatalf("binding %d: %d answers with delayed delivery, %d without", i, res.Answers.Len(), seq.Answers.Len())
		}
		want += seq.Answers.Len()
	}
	if want == 0 {
		t.Error("no binding had answers")
	}
}
