package engine

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/bottomup"
	"repro/internal/edb"
	"repro/internal/rgg"
	"repro/internal/workload"
)

// rightLinearTCRules is TCRules with the recursive subgoal last: every
// intermediate node gets its own path(U, _) goal, whose answers the rule
// re-keys to the outer binding.
const rightLinearTCRules = `
	path(X, Y) :- edge(X, Y).
	path(X, Y) :- edge(X, U), path(U, Y).
	goal(Y) :- path(n0, Y).
`

// TestCostShape guards the cost of recursion, not only its answers: each
// program runs on fixed data under the default schedule, its answers must
// equal semi-naive's, and its join probes and stored rows per answer stay
// under committed ceilings. The ceilings are the counts measured with rule
// joins in connectivity order plus 25 % headroom; a join that scans a
// relation where it could probe one shows up as a multiple (joining each
// new row against the head bindings first made 12.2 joins per answer on
// sg, 21,755 on right-linear TC and 392 on P1). The left-linear and sg
// ceilings were re-measured once the rows of a subgoal whose requests carry
// the head binding stopped probing the head bindings (10.0 and 5.9 joins
// per answer before); the others keep their earlier measurement's headroom.
// Stored does not depend on join order: the right-linear row pins today's
// 148 rows per answer, 74 times the left-linear row's, because every
// intermediate node gets its own path(U, _) closure.
func TestCostShape(t *testing.T) {
	graph := workload.Random("edge", 150, 600, rand.New(rand.NewSource(1)))
	small := workload.Random("edge", 50, 150, rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(1))
	p1Graph := append(workload.Random("r", 60, 90, rng), workload.Random("q", 60, 60, rng)...)
	for _, tc := range []struct {
		name          string
		prog          *ast.Program
		joins, stored float64 // ceilings per answer
	}{
		// measured: 594 joins and 296 stored for 148 answers
		{"left-linear TC", workload.Program(workload.TCRules, graph), 5.0, 2.5},
		// measured: 175,830 joins and 21,904 stored for 148 answers
		{"right-linear TC", workload.Program(rightLinearTCRules, graph), 1459, 185},
		// measured: 874 joins and 606 stored for 243 answers
		{"sg Tree(3,5)", workload.Program(workload.SameGenRules, workload.Tree(3, 5)), 4.5, 3.2},
		// measured: 150,012 joins and 2,209 stored for 47 answers
		{"nonlinear TC", workload.Program(workload.NonlinearTCRules, small), 4321, 59},
		// measured: 1,073 joins and 162 stored for 26 answers
		{"P1", workload.Program(workload.P1Rules, p1Graph), 76, 7.8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := edb.FromProgram(tc.prog)
			g, err := rgg.Build(tc.prog, rgg.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(g, db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := renderSet(res.Answers, db), renderSet(bottomup.SemiNaive(tc.prog, db).Goal, db); got != want {
				t.Fatalf("answers differ from semi-naive\n got: %s\nwant: %s", got, want)
			}
			n := float64(res.Answers.Len())
			if n == 0 {
				t.Fatal("no answers: the case measures nothing")
			}
			joins, stored := float64(res.Stats.Joins)/n, float64(res.Stats.Stored)/n
			t.Logf("%d answers: %d joins (%.1f per answer), %d stored (%.2f per answer)",
				res.Answers.Len(), res.Stats.Joins, joins, res.Stats.Stored, stored)
			if joins > tc.joins {
				t.Errorf("%.1f joins per answer, ceiling %g", joins, tc.joins)
			}
			if stored > tc.stored {
				t.Errorf("%.2f stored per answer, ceiling %g", stored, tc.stored)
			}
		})
	}
}
