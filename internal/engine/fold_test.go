package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/edb"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/trace"
)

const linearTC = `
	edge(a, b). edge(b, c). edge(c, d). edge(d, b). edge(x, y).
	path(X, Y) :- edge(X, Y).
	path(X, Y) :- path(X, U), edge(U, Y).
	goal(Y) :- path(a, Y).
`

// fanOutTC sends several rows per Tuple: a wide wavefront packages them.
const fanOutTC = `
	edge(a, b1). edge(a, b2). edge(a, b3). edge(a, b4).
	edge(b1, c). edge(b2, c). edge(b3, d). edge(b4, d). edge(c, e). edge(d, e).
	path(X, Y) :- edge(X, Y).
	path(X, Y) :- path(X, U), edge(U, Y).
	goal(Y) :- path(a, Y).
`

func testPlan(t *testing.T, src string) *Plan {
	t.Helper()
	prog := parser.MustParse(src)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return NewPlan(g, edb.FromProgram(prog))
}

// TestStatsGolden pins the counters of three evaluations under the default
// schedule, as the engine counted them live, per message, before each node
// kept one tally folded in at the end. Tuples holds what were then Tuples
// plus TupleBatches, one frame kind since. Stored counts IDB goals only.
// Joins counts the probes of rule joins in connectivity order, where an
// all-bound step is a membership test counting 1 on a hit; the rows of a
// subgoal whose requests carry the head binding make no head-binding test
// (Joins was 27, 13 and 30 with it). Every base subgoal here is joined in
// place by its rule, so the frames its leaf exchanged are gone from
// RelReqs, TupReqs, Tuples and Ends; TupReqRows, TupleRows, EDBScans and
// EDBTuples still count the requests, rows and scans of §3.1's leaves, as
// logical counts.
func TestStatsGolden(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      trace.Tally
	}{
		{"P1", p1data, trace.Tally{RelReqs: 14, TupReqs: 7, Tuples: 19, Ends: 6, ReqEnds: 1,
			TupReqRows: 11, TupleRows: 24, Protocol: 46, Rounds: 7,
			Derived: 7, Stored: 5, Dups: 1, Joins: 16, EDBScans: 5, EDBTuples: 5}},
		{"linear TC", linearTC, trace.Tally{RelReqs: 7, Tuples: 19, Ends: 4, ReqEnds: 1,
			TupReqRows: 3, TupleRows: 23, Protocol: 16, Rounds: 3,
			Derived: 7, Stored: 6, Dups: 1, Joins: 4, EDBScans: 4, EDBTuples: 4}},
		{"fan-out TC", fanOutTC, trace.Tally{RelReqs: 7, Tuples: 18, Ends: 4, ReqEnds: 1,
			TupReqRows: 7, TupleRows: 52, Protocol: 16, Rounds: 3,
			Derived: 17, Stored: 14, Joins: 10, EDBScans: 8, EDBTuples: 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := testPlan(t, tc.src).Run(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Tally != tc.want {
				t.Errorf("counters\n got %+v\nwant %+v", res.Stats.Tally, tc.want)
			}
		})
	}
}

// TestConcurrentRunsFoldExactly runs one plan from several goroutines into
// one shared Stats: the sum must be exactly that many solo runs, each
// evaluation adding its tallies once.
func TestConcurrentRunsFoldExactly(t *testing.T) {
	const n = 8
	pl := testPlan(t, p1data)
	solo, err := pl.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var shared trace.Stats
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pl.Run(Options{Stats: &shared}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	var want trace.Tally
	for range n {
		want.Add(solo.Stats.Tally)
	}
	if got := shared.Snapshot().Tally; got != want {
		t.Errorf("%d concurrent runs\n got %+v\nwant %+v", n, got, want)
	}
}

// TestAbortedRunsFold: an evaluation that is cancelled, or runs out of time,
// mid-way still adds what it sent and did to the shared Stats.
func TestAbortedRunsFold(t *testing.T) {
	pl := testPlan(t, p1data)
	check := func(name string, stats *trace.Stats, err, want error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", name, err, want)
		}
		sn := stats.Snapshot()
		if sn.Messages() == 0 || sn.TupleRows+sn.TupReqRows == 0 || sn.Aborts != 1 {
			t.Errorf("%s: folded %d messages, %d rows, %d aborts; want messages, rows and one abort",
				name, sn.Messages(), sn.TupleRows+sn.TupReqRows, sn.Aborts)
		}
	}

	// Cancelled at the first answer: the loop aborts before its next step.
	var cancelled trace.Stats
	cancel := make(chan struct{})
	_, err := pl.RunStream(Options{Stats: &cancelled, Cancel: cancel}, func(relation.Tuple) bool {
		select {
		case <-cancel:
		default:
			close(cancel)
		}
		return true
	})
	check("cancelled", &cancelled, err, ErrCancelled)

	// Out of time: thirty steps run at full speed, then each waits out the
	// deadline.
	var expired trace.Stats
	steps := 0
	pick := func(int) int {
		if steps++; steps > 30 {
			time.Sleep(20 * time.Millisecond)
		}
		return 0
	}
	_, err = pl.Run(Options{Stats: &expired, Deadline: 10 * time.Millisecond, pick: pick})
	check("deadline", &expired, err, ErrDeadline)
}
