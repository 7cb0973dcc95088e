package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/edb"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rgg"
)

// roundRows runs one Incremental round and returns the tuples it yielded,
// in arrival order.
func roundRows(inc *Incremental) ([]relation.Tuple, *Result, error) {
	var rows []relation.Tuple
	res, err := inc.Round(nil, func(tu relation.Tuple) bool {
		rows = append(rows, append(relation.Tuple(nil), tu...))
		return true
	})
	return rows, res, err
}

// incRound is roundRows with a hang guard.
func incRound(t *testing.T, inc *Incremental) ([]relation.Tuple, *Result) {
	t.Helper()
	type out struct {
		res  *Result
		rows []relation.Tuple
		err  error
	}
	ch := make(chan out, 1)
	go func() {
		rows, res, err := roundRows(inc)
		ch <- out{res, rows, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.rows, o.res
	case <-time.After(30 * time.Second):
		t.Fatal("incremental round hung")
		return nil, nil
	}
}

// freshSet evaluates src (facts already in db) from scratch and returns
// the rendered answer set: the oracle every incremental run must match.
func freshSet(t *testing.T, src string, db *edb.Database, strategy rgg.Strategy, opts Options) string {
	t.Helper()
	g, err := rgg.Build(parser.MustParse(src), rgg.Options{Strategy: strategy})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return renderSet(res.Answers, db)
}

func testIncrementalTC(t *testing.T, strategy rgg.Strategy, opts Options) {
	src := `
		edge(a, b). edge(b, c).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(Y) :- path(a, Y).
	`
	prog := parser.MustParse(src)
	db := edb.FromProgram(prog)
	g, err := rgg.Build(prog, rgg.Options{Strategy: strategy})
	if err != nil {
		t.Fatal(err)
	}
	inc := NewPlan(g, db).Incremental(opts)

	seen := relation.New(1)
	rows, _ := incRound(t, inc)
	for _, r := range rows {
		if !seen.Insert(r) {
			t.Errorf("round 1 repeated answer %s", r.String(db.Syms))
		}
	}
	if got, want := renderSet(seen, db), freshSet(t, src, db, strategy, opts); got != want {
		t.Fatalf("round 1 answers = %s, want %s", got, want)
	}

	// Grow the chain one edge at a time; each delta round must add exactly
	// the new reachable vertex and repeat nothing.
	verts := []string{"c", "d", "e0", "f", "g1"}
	for i := 1; i < len(verts); i++ {
		db.Add("edge", verts[i-1], verts[i])
		rows, res := incRound(t, inc)
		for _, r := range rows {
			if !seen.Insert(r) {
				t.Errorf("delta round %d repeated answer %s", i, r.String(db.Syms))
			}
		}
		if len(rows) != 1 {
			t.Errorf("delta round %d yielded %d answers, want 1", i, len(rows))
		}
		if res.Stats.DeltaRounds != 1 {
			t.Errorf("delta round %d: DeltaRounds = %d, want 1", i, res.Stats.DeltaRounds)
		}
		if res.Stats.DeltaSeeded == 0 {
			t.Errorf("delta round %d seeded no base tuples", i)
		}
		if got, want := renderSet(seen, db), freshSet(t, src, db, strategy, opts); got != want {
			t.Fatalf("after delta round %d answers = %s, want %s", i, got, want)
		}
	}

	// A round with no EDB change yields nothing.
	rows, _ = incRound(t, inc)
	if len(rows) != 0 {
		t.Errorf("no-change round yielded %d answers, want 0", len(rows))
	}
}

func TestIncrementalTC(t *testing.T)    { testIncrementalTC(t, nil, Options{}) }
func TestIncrementalTCSeq(t *testing.T) { testIncrementalTC(t, rgg.LeftToRightStrategy, Options{}) }

// TestIncrementalTCPartition pins the deprecated Options.Partitions for
// incremental rounds: asking for 4 shards is the unsharded run, round for round.
func TestIncrementalTCPartition(t *testing.T) { testIncrementalTC(t, nil, Options{Partitions: 4}) }

// TestIncrementalNewPredicate: a base predicate that is empty when the
// plan is built (the plan sees a detached empty relation) must still feed
// delta rounds once facts arrive for it.
func TestIncrementalNewPredicate(t *testing.T) {
	src := `
		e(a, b).
		p(X, Y) :- e(X, Y).
		p(X, Y) :- f(X, Y).
		goal(Y) :- p(a, Y).
	`
	prog := parser.MustParse(src)
	db := edb.FromProgram(prog)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc := NewPlan(g, db).Incremental(Options{})
	seen := relation.New(1)
	rows, _ := incRound(t, inc)
	for _, r := range rows {
		seen.Insert(r)
	}
	db.Add("f", "a", "z")
	rows, _ = incRound(t, inc)
	for _, r := range rows {
		if !seen.Insert(r) {
			t.Errorf("repeated answer %s", r.String(db.Syms))
		}
	}
	if got, want := renderSet(seen, db), freshSet(t, src, db, nil, Options{}); got != want {
		t.Fatalf("answers = %s, want %s", got, want)
	}
}

// TestIncrementalRandom drives random insertion sequences through every
// strategy, with P Incrementals of one plan advancing round by round
// (pP: each retains a scratch of its own), and checks after every delta round
// that each one's accumulated answers equal a from-scratch evaluation, that
// all P yielded the same rows, and that no answer was ever emitted twice.
func TestIncrementalRandom(t *testing.T) {
	rules := `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(X, Y) :- path(X, Y).
		edge(n0, n1).
	`
	for _, strat := range []struct {
		name string
		s    rgg.Strategy
	}{{"default", nil}, {"sequential", rgg.LeftToRightStrategy}} {
		for _, par := range []int{1, 4} {
			name := fmt.Sprintf("%s/p%d", strat.name, par)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				prog := parser.MustParse(rules)
				db := edb.FromProgram(prog)
				g, err := rgg.Build(prog, rgg.Options{Strategy: strat.s})
				if err != nil {
					t.Fatal(err)
				}
				plan := NewPlan(g, db)
				incs := make([]*Incremental, par)
				seen := make([]*relation.Relation, par)
				for i := range incs {
					incs[i], seen[i] = plan.Incremental(Options{}), relation.New(2)
				}
				for round := -1; round < 8; round++ {
					if round >= 0 {
						for k := rng.Intn(3) + 1; k > 0; k-- {
							a := fmt.Sprintf("n%d", rng.Intn(10))
							b := fmt.Sprintf("n%d", rng.Intn(10))
							db.Add("edge", a, b)
						}
					}
					want := freshSet(t, rules, db, strat.s, Options{})
					var first string
					for i, inc := range incs {
						rows, _ := incRound(t, inc)
						delta := relation.New(2)
						for _, r := range rows {
							delta.Insert(r)
							if !seen[i].Insert(r) {
								t.Errorf("round %d, incremental %d repeated answer %s", round, i, r.String(db.Syms))
							}
						}
						if got := renderSet(seen[i], db); got != want {
							t.Fatalf("round %d, incremental %d answers = %s, want %s", round, i, got, want)
						}
						if d := renderSet(delta, db); i == 0 {
							first = d
						} else if d != first {
							t.Errorf("round %d: incremental %d yielded %s, incremental 0 %s", round, i, d, first)
						}
					}
				}
			})
		}
	}
}

// TestIncrementalBroken: once a round fails (here: cancelled), the
// retained node state is unusable and every later Round must refuse.
func TestIncrementalBroken(t *testing.T) {
	prog := parser.MustParse(`
		edge(a, b). edge(b, c).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(Y) :- path(a, Y).
	`)
	db := edb.FromProgram(prog)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc := NewPlan(g, db).Incremental(Options{})
	cancel := make(chan struct{})
	close(cancel)
	if _, err := inc.Round(cancel, func(relation.Tuple) bool { return true }); err == nil {
		t.Fatal("cancelled round returned nil error")
	}
	if _, err := inc.Round(nil, func(relation.Tuple) bool { return true }); err != ErrIncrementalBroken {
		t.Fatalf("Round after failure = %v, want ErrIncrementalBroken", err)
	}
}
