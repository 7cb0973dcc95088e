package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bottomup"
	"repro/internal/edb"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestBaseJoinedInPlace pins what joining base subgoals in place means: the
// leaves below rules have no process and handle no message, the rules keep
// no temporary relation for them, and the answers stay semi-naive's through
// constants, repeated variables, an existential leaf (which keeps its
// process and its store), delta rounds, and a rule and its leaf placed on
// different sites.
func TestBaseJoinedInPlace(t *testing.T) {
	t.Run("no leaf traffic", func(t *testing.T) {
		for name, prog := range map[string]*ast.Program{
			"left-linear TC": workload.Program(workload.TCRules, workload.Random("edge", 60, 240, rand.New(rand.NewSource(3)))),
			"sg Tree(3,5)":   workload.Program(workload.SameGenRules, workload.Tree(3, 5)),
		} {
			db := edb.FromProgram(prog)
			g, err := rgg.Build(prog, rgg.Options{})
			if err != nil {
				t.Fatal(err)
			}
			plan := NewPlan(g, db)
			prof := trace.NewProfile()
			res, err := plan.Run(Options{Profile: prof})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := renderSet(res.Answers, db), renderSet(bottomup.SemiNaive(prog, db).Goal, db); got != want {
				t.Fatalf("%s: answers differ from semi-naive\n got: %s\nwant: %s", name, got, want)
			}
			leaves := 0
			for _, n := range prof.Snapshot().Nodes[:len(g.Nodes)] {
				if inPlace(g.Nodes[n.ID]) {
					leaves++
					if n.Active() {
						t.Errorf("%s: leaf #%d %s handled %d and sent %d messages, want none", name, n.ID, n.Label, n.Handled, n.Messages())
					}
				}
			}
			if leaves == 0 {
				t.Fatalf("%s: no base subgoal joined in place", name)
			}
			s := plan.idle.Load()
			for id, p := range s.procs {
				switch {
				case inPlace(g.Nodes[id]) && p != nil:
					t.Errorf("%s: leaf #%d has a process", name, id)
				case p == nil || p.rule == nil:
				default:
					for i, sub := range p.rule.subs {
						if sub.sel != nil && sub.rel != nil {
							t.Errorf("%s: rule #%d stores base subgoal %d (%d rows)", name, id, i, sub.rel.Len())
						}
					}
				}
			}
		}
	})

	for _, tc := range []struct {
		name, rules string
		facts       []string   // before the first run
		rounds      [][]string // facts added before each delta round, "pred a b"
	}{
		{"constant", `
			q(X) :- e(X, c1).
			q(Y) :- q(X), link(X, Y), e(Y, c1).
			goal(X) :- q(X).`,
			[]string{"e(a, c1).", "e(b, c2).", "e(c, c1).", "link(a, b).", "link(a, c).", "link(c, d)."},
			[][]string{{"e d c1"}, {"link d e"}, {"e e c1", "link e f", "e f c1"}}},
		{"repeated variable", `
			q(X) :- e(X, X).
			q(Y) :- q(X), link(X, Y), e(Y, Y).
			goal(X) :- q(X).`,
			[]string{"e(a, a).", "e(b, c).", "e(c, c).", "link(a, b).", "link(a, c).", "link(c, d)."},
			[][]string{{"e d d"}, {"link c e"}, {"e e e", "e b b"}}},
		{"existential", `
			q(X) :- e(X, Z).
			q(Y) :- q(X), link(X, Y).
			goal(X) :- q(X).`,
			[]string{"e(a, 1).", "e(a, 2).", "link(a, b).", "link(x, y)."},
			[][]string{{"e x 3"}, {"link b c"}}},
		// Two base subgoals in one rule. In the last round both windows hold
		// a row of one derivation, sg(g, p8) from par(g, g) and par(p8, g),
		// under bindings requested before: it must be found once.
		{"two base subgoals", `
			sg(X, Y) :- par(X, P), par(Y, P).
			sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
			goal(Y) :- sg(c1, Y).`,
			[]string{"par(c1, p1).", "par(c2, p1).", "par(c3, p2).", "par(p1, g).", "par(p2, g)."},
			[][]string{{"par c4 p2"}, {"par p3 g", "par c5 p3"}, {"par p4 g", "par c6 p4", "par c7 p4"},
				{"par c1 g", "par p9 g"}, {"par g g", "par p8 g"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.rules
			for _, f := range tc.facts {
				src += "\n" + f
			}
			prog := parser.MustParse(src)
			db := edb.FromProgram(prog)
			g, err := rgg.Build(prog, rgg.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := func() string {
				return renderSet(bottomup.SemiNaive(parser.MustParse(tc.rules), db).Goal, db)
			}
			plan := NewPlan(g, db)
			prof := trace.NewProfile()
			res, err := plan.Run(Options{Profile: prof})
			if err != nil {
				t.Fatal(err)
			}
			if got := renderSet(res.Answers, db); got != want() {
				t.Fatalf("answers %s, semi-naive %s", got, want())
			}
			// Only the existential leaf keeps a process, and its store.
			kept := 0
			for _, n := range prof.Snapshot().Nodes[:len(g.Nodes)] {
				if g.Nodes[n.ID].EDB && !inPlace(g.Nodes[n.ID]) {
					kept++
					if n.Handled == 0 || n.Stored == 0 {
						t.Errorf("existential leaf %s handled %d messages and stored %d rows", n.Label, n.Handled, n.Stored)
					}
				}
			}
			wantKept := 0
			if tc.name == "existential" {
				wantKept = 1
			}
			if kept != wantKept {
				t.Errorf("%d leaves keep a process, want %d", kept, wantKept)
			}

			// Delta rounds: after each, the union of the rounds' answers is
			// a fresh evaluation's, with no answer yielded twice, and each
			// derivation was found once: the rounds' Derived sum to a fresh
			// run's.
			inc := plan.Incremental(Options{})
			seen := relation.New(1)
			var derived int64
			collect := func(step string) {
				rows, res := incRound(t, inc)
				for _, r := range rows {
					if !seen.Insert(r) {
						t.Errorf("%s: answer %s yielded again", step, r.String(db.Syms))
					}
				}
				if got := renderSet(seen, db); got != want() {
					t.Fatalf("%s: answers so far %s, semi-naive %s", step, got, want())
				}
				fresh, err := Run(g, db, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if derived += res.Stats.Derived; derived != fresh.Stats.Derived {
					t.Errorf("%s: rounds derived %d head tuples, a fresh run %d", step, derived, fresh.Stats.Derived)
				}
			}
			collect("full round")
			for i, facts := range tc.rounds {
				for _, f := range facts {
					a := strings.Fields(f)
					db.Add(a[0], a[1], a[2])
				}
				collect(fmt.Sprintf("delta round %d %v", i+1, facts))
			}
		})
	}

	t.Run("leaf on another site", func(t *testing.T) {
		prog := workload.Program(workload.TCRules, workload.Random("edge", 40, 120, rand.New(rand.NewSource(5))))
		g, err := rgg.Build(prog, rgg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hosts := Partition(g, 2)
		apart := 0
		for id, n := range g.Nodes {
			if inPlace(n) && hosts[id] != hosts[n.Parent] {
				apart++
			}
		}
		if apart == 0 {
			t.Fatal("Partition put every joined-in-place leaf on its rule's site: the case tests nothing")
		}
		// Every site holds the full base.
		res := runSitesLocal(t, g, func(int) *edb.Database { return edb.FromProgram(prog) }, hosts)
		db := edb.FromProgram(prog)
		if got, want := renderSet(res.Answers, db), renderSet(bottomup.SemiNaive(prog, db).Goal, db); got != want {
			t.Errorf("two sites: answers %s, semi-naive %s", got, want)
		}
	})
}

// TestWarmedBaseProbesBuildNoIndex checks that edbIndexNeeds names every
// composite index a run probes on the base relations — the tuple requests'
// columns and each in-place join step's — so that after NewPlan's warming a
// run builds none, and concurrent readers never take ScanInto's write-lock
// path. The last program's join step binds a constant and two columns no
// tuple request binds.
func TestWarmedBaseProbesBuildNoIndex(t *testing.T) {
	for _, src := range []string{
		shapePrograms["same-generation"],
		p1data,
		`t(a, b, c, d). t(a, b, c, e). t(a, c, c, f). r(b, c). r(c, c).
		 p(X, V) :- t(X, U, W, V), q(U, W).
		 q(U, W) :- r(U, W).
		 goal(V) :- p(a, V).`,
		`s(a, b). s(b, c). s(c, d). t(a, b, x). t(b, c, y). t(b, c, z).
		 q(X, Y) :- s(X, Y).
		 q(X, Z) :- q(X, Y), t(X, Y, Z).
		 q(X, Z) :- q(X, Y), s(Y, Z).
		 goal(Z) :- q(a, Z).`,
	} {
		prog := parser.MustParse(src)
		db := edb.FromProgram(prog)
		g, err := rgg.Build(prog, rgg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plan := NewPlan(g, db)
		builds := func() map[ast.PredKey]int {
			out := make(map[ast.PredKey]int)
			for _, key := range db.Preds() {
				out[key] = edb.Materialize(db, key).IndexBuilds()
			}
			return out
		}
		before := builds()
		res, err := plan.Run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Answers.Len() == 0 {
			t.Fatalf("no answers: the program probes nothing\n%s", src)
		}
		if after := builds(); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Errorf("a run built base indexes after warming: %v, warmed %v\n%s", after, before, src)
		}
	}
}
