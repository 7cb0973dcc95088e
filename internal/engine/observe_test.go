package engine

import (
	"testing"
	"time"

	"repro/internal/edb"
	"repro/internal/parser"
	"repro/internal/rgg"
	"repro/internal/trace"
)

// runObserved evaluates src with a profile and its span ring armed and
// returns the result plus the profile.
func runObserved(t *testing.T, src string, opts Options) (*Result, *trace.Profile) {
	t.Helper()
	prog := parser.MustParse(src)
	db := edb.FromProgram(prog)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof := trace.NewProfile()
	prof.RecordSpans(0)
	opts.Profile = prof
	res, err := Run(g, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, prof
}

// TestProfileMatchesAggregate is the cross-check that makes the per-node
// view trustworthy: summed over all nodes (driver included), every per-node
// quantity must equal the aggregate trace.Stats counter — the profile is a
// decomposition of the totals, not a second approximate accounting.
func TestProfileMatchesAggregate(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		opts      Options
	}{
		{"P1", p1data, Options{}},
		{"linear TC", `
			edge(a, b). edge(b, c). edge(c, d). edge(d, b). edge(x, y).
			path(X, Y) :- edge(X, Y).
			path(X, Y) :- path(X, U), edge(U, Y).
			goal(Y) :- path(a, Y).
		`, Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, prof := runObserved(t, tc.src, tc.opts)
			agg := res.Stats
			ps := prof.Snapshot()

			var msgs, protocol, rowsOut, reqRows, derived, stored, dups int64
			var joins, edbScans, edbRows, rounds, handled int64
			for _, n := range ps.Nodes {
				msgs += n.Messages()
				protocol += n.Protocol
				rowsOut += n.TupleRows
				reqRows += n.TupReqRows
				derived += n.Derived
				stored += n.Stored
				dups += n.Dups
				joins += n.Joins
				edbScans += n.EDBScans
				edbRows += n.EDBTuples
				rounds += n.Rounds
				handled += n.Handled
			}
			check := func(what string, got, want int64) {
				t.Helper()
				if got != want {
					t.Errorf("Σ node %s = %d, aggregate = %d", what, got, want)
				}
			}
			check("msgs", msgs, agg.Messages())
			check("protocol", protocol, agg.Protocol)
			check("rows out", rowsOut, agg.TupleRows)
			check("req rows", reqRows, agg.TupReqRows)
			check("derived", derived, agg.Derived)
			check("stored", stored, agg.Stored)
			check("dups", dups, agg.Dups)
			check("joins", joins, agg.Joins)
			check("edb scans", edbScans, agg.EDBScans)
			check("edb rows", edbRows, agg.EDBTuples)
			check("rounds", rounds, agg.Rounds)

			// Every sent basic/protocol message is handled exactly once
			// (nudges and driver-received messages included), so handles
			// can't exceed the wire total; and an engine that ran at all
			// must have handled something.
			if handled == 0 {
				t.Error("no handled messages recorded")
			}
			if handled > agg.Messages()+agg.Protocol {
				t.Errorf("handled %d > sent %d", handled, agg.Messages()+agg.Protocol)
			}

			// The span ring saw the same handles (ring larger than the run),
			// each naming a labelled receiver and sender.
			if ps.Dropped != 0 {
				t.Fatalf("default ring dropped %d spans on a tiny query", ps.Dropped)
			}
			check("ring spans", int64(len(ps.Spans)), handled)
			for _, s := range ps.Spans {
				if s.Node < 0 || s.Node >= len(ps.Nodes) || s.From < 0 || s.From >= len(ps.Nodes) {
					t.Fatalf("span %+v names a node outside the %d labelled", s, len(ps.Nodes))
				}
			}
		})
	}
}

// TestProfileMeta checks the engine labels nodes usefully: adorned atoms
// for graph nodes, kinds from the node type, and the driver last.
func TestProfileMeta(t *testing.T) {
	_, prof := runObserved(t, p1data, Options{})
	ps := prof.Snapshot()
	if len(ps.Nodes) < 3 {
		t.Fatalf("only %d nodes", len(ps.Nodes))
	}
	driver := ps.Nodes[len(ps.Nodes)-1]
	if driver.Kind != "driver" || driver.Label != "driver" {
		t.Errorf("last node is %q/%q, want the driver", driver.Kind, driver.Label)
	}
	kinds := map[string]int{}
	for _, n := range ps.Nodes[:len(ps.Nodes)-1] {
		if n.Label == "" {
			t.Errorf("node %d has no label", n.ID)
		}
		kinds[n.Kind]++
	}
	// P1 has IDB goals, rules, and EDB leaves; its recursion also yields a
	// variant (cycle) node under the default strategy.
	for _, k := range []string{"goal", "rule", "edb"} {
		if kinds[k] == 0 {
			t.Errorf("no %q nodes labelled (kinds: %v)", k, kinds)
		}
	}

	// Activity windows must sit inside the elapsed envelope.
	for _, n := range ps.Nodes {
		if !n.Active() {
			continue
		}
		if n.Last < n.First || n.Last > ps.Elapsed+time.Second {
			t.Errorf("node %d window [%v, %v] outside elapsed %v", n.ID, n.First, n.Last, ps.Elapsed)
		}
	}
}

// TestProfileRecursionRounds checks that a recursive query's termination
// rounds land in the timeline with a confirming final mark.
func TestProfileRecursionRounds(t *testing.T) {
	_, prof := runObserved(t, `
		edge(a, b). edge(b, c). edge(c, a).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(Y) :- path(a, Y).
	`, Options{})
	ps := prof.Snapshot()
	if len(ps.Rounds) == 0 {
		t.Fatal("recursive query recorded no termination rounds")
	}
	last := ps.Rounds[len(ps.Rounds)-1]
	if !last.Confirmed {
		t.Errorf("final round mark not confirmed: %+v", last)
	}
	for i := 1; i < len(ps.Rounds); i++ {
		if ps.Rounds[i].At < ps.Rounds[i-1].At {
			t.Errorf("timeline out of order at %d: %+v", i, ps.Rounds)
		}
	}
}

// TestProfileElapsedIsTheEvaluation: the profile's elapsed time is stamped
// when the evaluation ends, so whatever the caller does before reading the
// profile — printing answers, say — is not counted in it.
func TestProfileElapsedIsTheEvaluation(t *testing.T) {
	start := time.Now()
	_, prof := runObserved(t, p1data, Options{})
	ran := time.Since(start)
	time.Sleep(50 * time.Millisecond)
	if ps := prof.Snapshot(); ps.Elapsed <= 0 || ps.Elapsed > ran {
		t.Errorf("profile elapsed %v, want within the %v the evaluation took", ps.Elapsed, ran)
	}
}
