package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/adorn"
	"repro/internal/bottomup"
	"repro/internal/edb"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/trace"
	"repro/internal/trace/export"
)

// seeded is a scheduling seam (Options.pick) that steps a random process
// among those with mail. Every send still lands in the recipient's mailbox
// immediately (the FIFO-enqueue semantics the protocol needs), but which
// process handles its next message is the seed's choice, so the production
// loop explores radically different interleavings deterministically — a
// lightweight model check of the §3.2 termination protocol, and a failing
// interleaving is one number.
func seeded(seed int64) func(n int) int {
	return rand.New(rand.NewSource(seed)).Intn
}

// runSeeded evaluates src under the seed's schedule and returns how many
// goal tuples the driver received. The loop itself reports a schedule that
// goes quiet without the final end (lost termination) as an error.
func runSeeded(t *testing.T, src string, seed int64) int {
	t.Helper()
	prog := parser.MustParse(src)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	answers := 0
	_, err = RunStream(g, edb.FromProgram(prog), Options{pick: seeded(seed)},
		func(relation.Tuple) bool { answers++; return true })
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return answers
}

// TestScheduledInterleavings model-checks the engine across hundreds of
// delivery schedules per program: every schedule must reach the driver's
// final end with the right number of distinct answers (the driver counts
// delivered rows; per-customer streams never repeat a tuple, so the count
// must equal the answer-set size exactly).
func TestScheduledInterleavings(t *testing.T) {
	programs := []string{
		p1data,
		`edge(a, b). edge(b, c). edge(c, a). edge(c, d).
		 path(X, Y) :- edge(X, Y).
		 path(X, Y) :- path(X, U), edge(U, Y).
		 goal(Y) :- path(a, Y).`,
		`e(a, b). e(b, c). e(c, d).
		 odd(X, Y) :- e(X, Y).
		 odd(X, Y) :- even(X, U), e(U, Y).
		 even(X, Y) :- odd(X, U), e(U, Y).
		 goal(Y) :- even(a, Y).`,
		`edge(a, b). edge(b, c). edge(c, d). edge(d, a).
		 t(X, Y) :- edge(X, Y).
		 t(X, Y) :- t(X, U), t(U, Y).
		 goal(Y) :- t(a, Y).`,
	}
	seeds := int64(150)
	if testing.Short() {
		seeds = 40
	}
	for pi, src := range programs {
		truth := bottomup.SemiNaive(parser.MustParse(src), edb.FromProgram(parser.MustParse(src)))
		want := truth.Goal.Len()
		for seed := int64(0); seed < seeds; seed++ {
			if got := runSeeded(t, src, seed); got != want {
				t.Fatalf("program %d seed %d: %d answers, want %d (duplicate stream or premature end)",
					pi, seed, got, want)
			}
		}
	}
}

// TestScheduledNoEndBeforeAnswers asserts a stream-order invariant under
// arbitrary schedules: by the time the final end reaches the driver, all
// answers have too (per-sender FIFO from the root) — the loop stops at the
// final end, so an answer behind it would go uncounted.
func TestScheduledNoEndBeforeAnswers(t *testing.T) {
	src := p1data
	truth := bottomup.SemiNaive(parser.MustParse(src), edb.FromProgram(parser.MustParse(src)))
	for seed := int64(150); seed < 200; seed++ {
		if got := runSeeded(t, src, seed); got != truth.Goal.Len() {
			t.Fatalf("seed %d: %d answers before the final end, want %d", seed, got, truth.Goal.Len())
		}
	}
}

// TestBasicStrategyAgrees runs §2.1's basic graph (no information passing)
// through the engine: answers must match, and the engine must read at least
// as many EDB tuples as with the greedy strategy.
func TestBasicStrategyAgrees(t *testing.T) {
	programs := []string{
		p1data,
		`par(c1, p1). par(c2, p1). par(p1, g1). par(p2, g1). par(c3, p2).
		 sg(X, Y) :- par(X, P), par(Y, P).
		 sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
		 goal(Y) :- sg(c1, Y).`,
	}
	for pi, src := range programs {
		greedy, db1 := runQuery(t, src, rgg.GreedyStrategy)
		basic, db2 := runQuery(t, src, rgg.BasicStrategy)
		if renderSet(greedy.Answers, db1) != renderSet(basic.Answers, db2) {
			t.Errorf("program %d: basic answers differ", pi)
		}
		if basic.Stats.EDBTuples < greedy.Stats.EDBTuples {
			t.Errorf("program %d: basic read fewer EDB tuples (%d) than greedy (%d)?",
				pi, basic.Stats.EDBTuples, greedy.Stats.EDBTuples)
		}
		if basic.Stats.TupReqs != 0 {
			t.Errorf("program %d: basic strategy sent %d tuple requests; expected none", pi, basic.Stats.TupReqs)
		}
	}
}

// TestTraceWriter checks the text trace (mpq -trace) rendered from a
// profile's span ring shows every basic message kind and a round line.
func TestTraceWriter(t *testing.T) {
	prog := parser.MustParse(p1data)
	db := edb.FromProgram(prog)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof := trace.NewProfile()
	prof.RecordSpans(0)
	res, err := Run(g, db, Options{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := export.WriteTraceText(&buf, prof.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"relreq", "tupreq", "tuple", "end", "endreq", "round 1"} {
		if !contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
	if res.Answers.Len() == 0 {
		t.Error("traced run produced no answers")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestFeedState covers the watermark bookkeeping directly.
func TestFeedState(t *testing.T) {
	f := &feedState{hasD: true}
	if !f.settled() {
		t.Error("fresh d-feed not settled (0 of 0)")
	}
	f.sent = 3
	if f.settled() {
		t.Error("settled with 3 outstanding")
	}
	f.acked = 3
	if !f.settled() {
		t.Error("not settled at watermark")
	}
	g := &feedState{hasD: false}
	if g.settled() {
		t.Error("no-d feed settled without final end")
	}
	g.allEnd = true
	if !g.settled() {
		t.Error("no-d feed not settled after final end")
	}
}

// TestPositionHelpers covers the adornment position extraction used
// throughout the engine.
func TestPositionHelpers(t *testing.T) {
	ad := mustAd("cdef")
	if got := fmt.Sprint(carriedPositions(ad)); got != "[1 3]" {
		t.Errorf("carried = %s, want [1 3]", got)
	}
	if got := fmt.Sprint(dynamicPositions(ad)); got != "[1]" {
		t.Errorf("dynamic = %s, want [1]", got)
	}
	if hasDynamic(mustAd("cff")) || !hasDynamic(mustAd("fdf")) {
		t.Error("hasDynamic wrong")
	}
}

func mustAd(s string) adorn.Adornment {
	out := make(adorn.Adornment, len(s))
	for i := range s {
		out[i] = adorn.Class(s[i])
	}
	return out
}
