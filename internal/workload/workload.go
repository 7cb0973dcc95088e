// Package workload generates the synthetic EDBs and query programs used by
// the experiment suite (DESIGN.md E2, E7–E11). The paper has no published
// datasets; these generators produce inputs that exercise the same code
// paths: linear and nonlinear recursion over chains, cycles, grids, trees,
// and random digraphs, same-generation hierarchies, and the pairwise-
// consistent tripartite data of §4.3's monotone-flow discussion.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ast"
	"repro/internal/edb"
	"repro/internal/parser"
)

// Rule templates shared by tests, benchmarks, and examples. Each expects
// the fact predicates its comment names.
const (
	// TCRules computes reachability from constant start "n0" with linear
	// recursion over edge/2.
	TCRules = `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(Y) :- path(n0, Y).
	`
	// TCAllRules asks for the full transitive closure (no bound query
	// argument): the worst case for sideways information passing.
	TCAllRules = `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(X, Y) :- path(X, Y).
	`
	// NonlinearTCRules computes the same reachability with the
	// divide-and-conquer nonlinear rule t(X,Y) ← t(X,U), t(U,Y).
	NonlinearTCRules = `
		t(X, Y) :- edge(X, Y).
		t(X, Y) :- t(X, U), t(U, Y).
		goal(Y) :- t(n0, Y).
	`
	// P1Rules is the paper's Example 2.1 program over r/2 and q/2, with
	// the doubly recursive rule p(X,Y) ← p(X,U), q(U,V), p(V,Y).
	P1Rules = `
		goal(Z) :- p(n0, Z).
		p(X, Y) :- p(X, U), q(U, V), p(V, Y).
		p(X, Y) :- r(X, Y).
	`
	// SameGenRules computes same-generation over par/2 (child, parent),
	// seeded at "c0".
	SameGenRules = `
		sg(X, Y) :- par(X, P), par(Y, P).
		sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
		goal(Y) :- sg(c0, Y).
	`
)

// Program assembles rules (source text) and generated facts into a
// validated program.
func Program(rules string, facts []ast.Atom) *ast.Program {
	prog, err := parser.Parse(rules)
	if err != nil {
		panic(fmt.Sprintf("workload: bad rule template: %v", err))
	}
	prog.Facts = append(prog.Facts, facts...)
	if err := prog.Validate(true); err != nil {
		panic(fmt.Sprintf("workload: generated program invalid: %v", err))
	}
	return prog
}

// DB loads a program's facts into a fresh database.
func DB(prog *ast.Program) *edb.Database { return edb.FromProgram(prog) }

func node(i int) string { return fmt.Sprintf("n%d", i) }

func fact(pred string, args ...string) ast.Atom {
	a := ast.Atom{Pred: pred}
	for _, s := range args {
		a.Args = append(a.Args, ast.C(s))
	}
	return a
}

// Chain generates edge facts n0→n1→…→n(n-1): a path graph.
func Chain(pred string, n int) []ast.Atom {
	out := make([]ast.Atom, 0, n-1)
	for i := 0; i < n-1; i++ {
		out = append(out, fact(pred, node(i), node(i+1)))
	}
	return out
}

// Cycle generates a directed n-cycle n0→n1→…→n0.
func Cycle(pred string, n int) []ast.Atom {
	out := Chain(pred, n)
	return append(out, fact(pred, node(n-1), node(0)))
}

// Grid generates a w×h grid with right and down edges; node (i,j) is
// n<i*h+j>. n0 is the top-left corner.
func Grid(pred string, w, h int) []ast.Atom {
	var out []ast.Atom
	id := func(i, j int) string { return node(i*h + j) }
	for i := 0; i < w; i++ {
		for j := 0; j < h; j++ {
			if i+1 < w {
				out = append(out, fact(pred, id(i, j), id(i+1, j)))
			}
			if j+1 < h {
				out = append(out, fact(pred, id(i, j), id(i, j+1)))
			}
		}
	}
	return out
}

// Random generates m random edges over n nodes (duplicates collapse in the
// EDB), always including an edge out of n0 so point queries are
// productive.
func Random(pred string, n, m int, rng *rand.Rand) []ast.Atom {
	out := make([]ast.Atom, 0, m+1)
	out = append(out, fact(pred, node(0), node(rng.Intn(n))))
	for k := 0; k < m; k++ {
		out = append(out, fact(pred, node(rng.Intn(n)), node(rng.Intn(n))))
	}
	return out
}

// Components generates k disjoint chains of length n each; only the first
// (nodes n0…) is reachable from n0. The query-irrelevant components model
// the part of the minimum model that sideways information passing avoids
// computing (experiment E9).
func Components(pred string, k, n int) []ast.Atom {
	var out []ast.Atom
	for c := 0; c < k; c++ {
		for i := 0; i < n-1; i++ {
			out = append(out, fact(pred, node(c*n+i), node(c*n+i+1)))
		}
	}
	return out
}

// Tree generates par(child, parent) facts for a complete tree with the
// given branching factor and depth. The root is g0; leaves are the c<i>
// generation-0 individuals. Same-generation queries seed at c0.
func Tree(branching, depth int) []ast.Atom {
	var out []ast.Atom
	// Level d has branching^d nodes; node j at level d is named l<d>_<j>,
	// except the top (g0) and the leaves (c<j>).
	name := func(d, j int) string {
		switch {
		case d == 0:
			return "g0"
		case d == depth:
			return fmt.Sprintf("c%d", j)
		default:
			return fmt.Sprintf("l%d_%d", d, j)
		}
	}
	count := 1
	for d := 0; d < depth; d++ {
		for j := 0; j < count; j++ {
			for b := 0; b < branching; b++ {
				out = append(out, fact("par", name(d+1, j*branching+b), name(d, j)))
			}
		}
		count *= branching
	}
	return out
}

// P1Data generates EDB facts for the paper's Example 2.1: r is a chain of
// length n (so p's base case reaches every suffix), and q contains links
// that make the doubly recursive rule productive. density ∈ [0,1] controls
// how many q links exist.
func P1Data(n int, density float64, rng *rand.Rand) []ast.Atom {
	out := Chain("r", n)
	for i := 1; i < n; i++ {
		if rng.Float64() < density {
			out = append(out, fact("q", node(i), node(rng.Intn(i)+1)))
		}
	}
	return out
}

// MonotonePrograms builds the §4.3 experiment pair: two programs with
// identically sized, pairwise-consistent subgoal relations, one shaped like
// the paper's R2 (monotone flow) and one like R3 (cyclic hypergraph). In
// the R3 data, b and c agree pairwise on W (every W value occurs in both)
// but the per-X choices mismatch, so the b⋈c intermediate explodes while
// the final result stays small — exactly the hazard §4.3 describes.
//
// n is the number of X seeds; fanout is tuples per seed in b and c.
func MonotonePrograms(n, fanout int) (r2, r3 *ast.Program) {
	r2rules := `
		p(X, Z) :- a(X, Y, V), b(Y, U), c(V, T), d(T), e(U, Z).
		goal(Z) :- p(x0, Z).
	`
	r3rules := `
		p(X, Z) :- a(X, Y, V), b(Y, W, U), c(V, W, T), d(T), e(U, Z).
		goal(Z) :- p(x0, Z).
	`
	var shared, f2, f3 []ast.Atom
	s := func(p string, i int) string { return fmt.Sprintf("%s%d", p, i) }
	for i := 0; i < n; i++ {
		shared = append(shared, fact("a", s("x", i), s("y", i), s("v", i)))
		for k := 0; k < fanout; k++ {
			u := s("u", (i*fanout+k)%n)
			t := s("t", (i*fanout+k)%n)
			f2 = append(f2, fact("b", s("y", i), u))
			f2 = append(f2, fact("c", s("v", i), t))
			// R3: b uses even W slots for seed i, c uses odd ones, drawn
			// from one shared pool (pairwise consistent, triple-join poor).
			f3 = append(f3, fact("b", s("y", i), s("w", (2*(i*fanout+k))%(2*fanout)), u))
			f3 = append(f3, fact("c", s("v", i), s("w", (2*(i*fanout+k)+1)%(2*fanout)), t))
			// A sparse set of genuine W agreements keeps the final result
			// nonzero (small, not empty) so ratios stay finite.
			if i%5 == 0 && k == 0 {
				f3 = append(f3, fact("c", s("v", i), s("w", (2*(i*fanout))%(2*fanout)), t))
			}
		}
	}
	for i := 0; i < n; i++ {
		shared = append(shared, fact("d", s("t", i)))
		shared = append(shared, fact("e", s("u", i), s("z", i)))
	}
	// Pairwise consistency for W: give each pool value one mirror tuple in
	// the other relation via a dedicated throwaway seed.
	for k := 0; k < 2*fanout; k++ {
		f3 = append(f3, fact("b", "ydead", s("w", k), "udead"))
		f3 = append(f3, fact("c", "vdead", s("w", k), "tdead"))
	}
	r2 = Program(r2rules, append(append([]ast.Atom{}, shared...), f2...))
	r3 = Program(r3rules, append(append([]ast.Atom{}, shared...), f3...))
	return r2, r3
}

// RandomProgram generates a random positive Datalog program for
// differential testing: two or three binary/unary IDB predicates over the
// EDB relations e/2, f/2 and u/1 on a handful of constants, each with a
// non-recursive base rule plus rules whose bodies mix EDB and IDB atoms
// freely (so linear, nonlinear and mutual recursion all occur), with the
// occasional constant or repeated variable in heads and bodies, and a goal
// that binds some arguments of one IDB predicate. Every rule is range
// restricted by construction; relations stay small because the constant
// pool is. The same rng state yields the same program.
func RandomProgram(rng *rand.Rand) *ast.Program {
	const nconst = 6
	c := func() string { return node(rng.Intn(nconst)) }
	var facts []ast.Atom
	for i, n := 0, 6+rng.Intn(10); i < n; i++ {
		facts = append(facts, fact("e", c(), c()))
	}
	for i, n := 0, 3+rng.Intn(6); i < n; i++ {
		facts = append(facts, fact("f", c(), c()))
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		facts = append(facts, fact("u", c()))
	}

	type pred struct {
		name  string
		arity int
	}
	edbPreds := []pred{{"e", 2}, {"f", 2}, {"u", 1}}
	idb := make([]pred, 2+rng.Intn(2))
	for i := range idb {
		idb[i] = pred{fmt.Sprintf("p%d", i), 1 + rng.Intn(2)}
	}
	vars := []string{"X", "Y", "Z", "W"}
	// atom renders pr over random terms, recording the variables it uses.
	atom := func(pr pred, used map[string]bool) string {
		args := make([]string, pr.arity)
		for i := range args {
			if rng.Intn(8) == 0 {
				args[i] = c()
			} else {
				args[i] = vars[rng.Intn(len(vars))]
				used[args[i]] = true
			}
		}
		return pr.name + "(" + strings.Join(args, ", ") + ")"
	}
	// rule renders one rule for head predicate h over body predicates drawn
	// from pool; head arguments are body variables (or, rarely, constants).
	rule := func(h pred, pool []pred) string {
		used := map[string]bool{}
		body := make([]string, 1+rng.Intn(3))
		for i := range body {
			body[i] = atom(pool[rng.Intn(len(pool))], used)
		}
		if len(used) == 0 {
			body = append(body, "e(X, Y)")
			used["X"], used["Y"] = true, true
		}
		var bound []string
		for _, v := range vars {
			if used[v] {
				bound = append(bound, v)
			}
		}
		args := make([]string, h.arity)
		for i := range args {
			if rng.Intn(10) == 0 {
				args[i] = c()
			} else {
				args[i] = bound[rng.Intn(len(bound))]
			}
		}
		return h.name + "(" + strings.Join(args, ", ") + ") :- " + strings.Join(body, ", ") + ".\n"
	}
	var rules strings.Builder
	all := append(append([]pred{}, edbPreds...), idb...)
	for _, h := range idb {
		rules.WriteString(rule(h, edbPreds))
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			rules.WriteString(rule(h, all))
		}
	}
	q := idb[rng.Intn(len(idb))]
	qargs, gargs := make([]string, q.arity), []string{}
	for i := range qargs {
		if rng.Intn(2) == 0 {
			qargs[i] = c()
		} else {
			qargs[i] = vars[i]
			gargs = append(gargs, vars[i])
		}
	}
	goal := "goal"
	if len(gargs) > 0 {
		goal += "(" + strings.Join(gargs, ", ") + ")"
	}
	rules.WriteString(goal + " :- " + q.name + "(" + strings.Join(qargs, ", ") + ").\n")
	return Program(rules.String(), facts)
}

// Describe summarizes a fact set for experiment logs.
func Describe(facts []ast.Atom) string {
	byPred := map[string]int{}
	for _, f := range facts {
		byPred[f.Pred]++
	}
	parts := make([]string, 0, len(byPred))
	for p, n := range byPred {
		parts = append(parts, fmt.Sprintf("%s=%d", p, n))
	}
	return strings.Join(parts, " ")
}
