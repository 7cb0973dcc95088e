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
	"repro/internal/symtab"
)

// ruleSubs calls f for every subgoal with a process of every rule process
// in scratch s of graph g, with the rule's predicates ("p :- q, r").
func ruleSubs(g *rgg.Graph, s *scratch, f func(rule string, s *subSource)) {
	for id, p := range s.procs {
		if p == nil || p.rule == nil {
			continue
		}
		r := g.Nodes[id].Rule
		preds := make([]string, len(r.Body))
		for i, a := range r.Body {
			preds[i] = a.Pred
		}
		for _, sub := range p.rule.subs {
			if sub.sel == nil {
				f(r.Head.Pred+" :- "+strings.Join(preds, ", "), sub)
			}
		}
	}
}

// TestTransientTemporaries pins where a rule stores a subgoal's rows. A
// pooled reach run stores none in the recursive rule's path(X, U) or the
// query rule's path(K, Y): each is its rule's only subgoal with a process,
// and every request to it carries the head binding, so no later probe can
// read its rows. An Incremental keeps them, for its delta rounds, whose
// answers add up to semi-naive's.
func TestTransientTemporaries(t *testing.T) {
	const rules = `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(Y, K) :- path(K, Y).
	`
	rng := rand.New(rand.NewSource(5))
	db := edb.New()
	for range 90 {
		db.Add("edge", fmt.Sprintf("n%d", rng.Intn(40)), fmt.Sprintf("n%d", rng.Intn(40)))
	}
	db.Add("edge", "n0", "n1")
	prog := parser.MustParse(rules)
	g, err := rgg.Build(prog, rgg.Options{RootAd: adorn.Adornment{adorn.Free, adorn.Dynamic}})
	if err != nil {
		t.Fatal(err)
	}
	key := db.Syms.Intern("n0")
	// want is semi-naive's answers for K = n0.
	want := func() string {
		out := relation.New(2)
		for row := range bottomup.SemiNaive(prog, db).Goal.All() {
			if row[1] == key {
				out.Insert(row)
			}
		}
		return renderSet(out, db)
	}
	plan := NewPlan(g, db)
	opts := Options{Bind: []symtab.Sym{key}}
	res, err := plan.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderSet(res.Answers, db); got != want() {
		t.Fatalf("answers %s, semi-naive %s", got, want())
	}
	transient := func(s *scratch, check func(rule string, rows int)) {
		n := 0
		ruleSubs(g, s, func(rule string, s *subSource) {
			if s.transient {
				n++
				check(rule, s.rel.Len())
			}
		})
		if n != 2 {
			t.Fatalf("%d transient subgoals, want the two path subgoals", n)
		}
	}
	transient(plan.idle.Load(), func(rule string, rows int) {
		if rows != 0 {
			t.Errorf("pooled run: %s stores %d rows of its path subgoal", rule, rows)
		}
	})

	// The Incremental draws the idle scratch the pooled run left.
	inc := plan.Incremental(opts)
	defer inc.Close()
	seen := relation.New(2)
	for round, add := range [][2]string{{}, {"n1", "n50"}, {"n50", "n51"}, {"n51", "n0"}} {
		if add[0] != "" {
			db.Add("edge", add[0], add[1])
		}
		rows, _ := incRound(t, inc)
		for _, r := range rows {
			if !seen.Insert(r) {
				t.Errorf("round %d repeated answer %s", round, r.String(db.Syms))
			}
		}
		if got := renderSet(seen, db); got != want() {
			t.Fatalf("after round %d: answers %s, semi-naive %s", round, got, want())
		}
		transient(inc.s, func(rule string, rows int) {
			if rows == 0 {
				t.Errorf("round %d: %s keeps no row of its path subgoal", round, rule)
			}
		})
	}
}

// TestStoredTemporaries covers the shapes where a subgoal's rows must be
// stored, each against semi-naive in fresh runs under seeded schedules and
// across Incremental rounds. In each, the listed rule has a subgoal with a
// process that is not transient: a head whose "d" position is a constant,
// over a subgoal without "d" arguments, which its relation request (not a
// head binding) starts, so rows can precede the binding that joins them; two
// subgoals with processes, each probing the other's rows; and
// same-generation's recursive rule under a bound X, whose sg(XP, YP) is
// requested without X.
func TestStoredTemporaries(t *testing.T) {
	for _, tc := range []struct {
		name, rules, rule string
		facts             []string
		rounds            [][]string // facts added before each delta round, "pred a b"
	}{
		// a is requested of q only after s's chain reaches it, long after
		// r answered its relation request.
		{"constant head", `
			s(X) :- s0(X).
			s(Y) :- s(X), link(X, Y).
			r(Y) :- t(Y, Z).
			q(a, Y) :- r(Y).
			q(X, Y) :- e(X, Y).
			goal(X, Y) :- s(X), q(X, Y).`,
			"q :- r",
			[]string{"s0(b).", "link(b, c).", "link(c, d).", "link(d, a).", "t(y1, z).", "t(y2, z).", "e(b, y3).", "e(c, y4)."},
			[][]string{{"t y5 z"}, {"link a f", "e f y6"}, {"s0 g", "link g a", "t y7 z"}}},
		{"two subgoals with processes", `
			a(X, Y) :- e(X, Y).
			a(X, Y) :- a(X, U), e(U, Y).
			b(X, Y) :- f(X, Y).
			p(X, Y) :- a(X, Z), b(Z, Y).
			goal(Y) :- p(n0, Y).`,
			"p :- a, b",
			[]string{"e(n0, n1).", "e(n1, n2).", "e(n2, n3).", "f(n2, m1).", "f(n3, m2).", "f(n9, m3)."},
			[][]string{{"f n1 m4"}, {"e n3 n9"}, {"e n9 n0", "f n0 m5"}}},
		{"same generation", `
			sg(X, Y) :- par(X, P), par(Y, P).
			sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
			goal(Y) :- start(X), sg(X, Y).`,
			"sg :- par, sg, par",
			[]string{"start(c1).", "par(c1, p1).", "par(c2, p1).", "par(c3, p2).", "par(p1, g).", "par(p2, g).",
				"par(g, r).", "par(h, r)."},
			[][]string{{"par c4 p2"}, {"par p3 g", "par c5 p3"}, {"par g h", "par g2 h", "par p6 g2", "par c6 p6"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.rules + "\n" + strings.Join(tc.facts, "\n")
			prog := parser.MustParse(src)
			g, err := rgg.Build(prog, rgg.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(-1); seed < 10; seed++ {
				db := edb.FromProgram(prog)
				want := func() string { return renderSet(bottomup.SemiNaive(parser.MustParse(tc.rules), db).Goal, db) }
				opts := Options{} // seed -1: the default schedule
				if seed >= 0 {
					opts.pick = rand.New(rand.NewSource(seed)).Intn
				}
				plan := NewPlan(g, db)
				res, err := plan.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := renderSet(res.Answers, db); got != want() {
					t.Fatalf("seed %d: answers %s, semi-naive %s", seed, got, want())
				}
				found := false
				ruleSubs(g, plan.idle.Load(), func(rule string, s *subSource) {
					if rule != tc.rule {
						return
					}
					found = true
					if s.transient || s.rel.Len() == 0 {
						t.Errorf("seed %d: %s: a subgoal (transient %v) stores %d rows, want its rows stored",
							seed, rule, s.transient, s.rel.Len())
					}
				})
				if !found {
					t.Fatalf("no rule process %q", tc.rule)
				}

				inc := plan.Incremental(opts)
				seen := relation.New(res.Answers.Arity())
				for round := 0; round <= len(tc.rounds); round++ {
					if round > 0 {
						for _, f := range tc.rounds[round-1] {
							args := strings.Fields(f)
							db.Add(args[0], args[1:]...)
						}
					}
					rows, _ := incRound(t, inc)
					for _, r := range rows {
						if !seen.Insert(r) {
							t.Errorf("seed %d round %d: repeated answer %s", seed, round, r.String(db.Syms))
						}
					}
					if got := renderSet(seen, db); got != want() {
						t.Fatalf("seed %d after round %d: answers %s, semi-naive %s", seed, round, got, want())
					}
				}
				inc.Close()
			}
		})
	}
}
