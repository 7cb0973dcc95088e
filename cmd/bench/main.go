// Command bench runs the experiment suite of DESIGN.md (E1–E11 plus the
// A ablations): for every figure and checkable claim of the paper it
// generates workloads, runs the message-passing engine against the
// baselines, and prints the tables recorded in EXPERIMENTS.md.
//
// Usage:
//
//	bench [-e E1,E7,A1,...|all] [-quick] [-json out.json]
//	bench -gate    # perf-regression release gate vs committed BENCH_*.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/bottomup"
	"repro/internal/costmodel"
	"repro/internal/edb"
	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/serve"
	"repro/internal/symtab"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
)

var experiments = map[string]func(quick bool){
	"E1":  e1Graph,
	"E2":  e2P1,
	"E3":  e3Protocol,
	"E4":  e4GYO,
	"E5":  e5Thm41,
	"E6":  e6Compose,
	"E7":  e7BruteForce,
	"E8":  e8Monotone,
	"E9":  e9Restriction,
	"E10": e10Nonlinear,
	"E11": e11Transport,
	"A1":  a1Strategies,
	"A2":  a2Batching,
	"A3":  a3Substrate,
	"A4":  a4Failure,
	"A5":  a5Observability,
	"A6":  a6Prepared,
	"A8":  a8Serving,
	"A9":  a9Incremental,
	"A10": a10Adaptive,
	"A11": a11Storage,
}

// jsonOut, when non-empty, makes A3 write its measurement record (the
// "after" half of BENCH_1.json), A4 its failure-handling overhead
// record (BENCH_2.json), A5 its observability overhead record
// (BENCH_3.json), A6 its prepared-query serving record (BENCH_4.json), A8
// its multi-tenant serving record (BENCH_6.json), A9 its incremental
// view-maintenance record (BENCH_7.json), A10 its adaptive-planning
// record (BENCH_8.json), and A11 its persistent-storage record
// (BENCH_9.json) to the named file.
var jsonOut string

// machineInfo is the header every BENCH_*.json record carries, so perf
// trajectories stay comparable across machines: CPU count and the
// effective GOMAXPROCS bound any parallelism claim, and the git revision
// pins the measured tree.
func machineInfo() map[string]any {
	return map[string]any{
		"cpu":          fmt.Sprintf("%s/%s, %d cpus", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		"go":           runtime.Version(),
		"goos":         runtime.GOOS,
		"goarch":       runtime.GOARCH,
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"git_revision": gitRevision(),
	}
}

// gitRevision reports the short hash of the measured tree, "unknown" when
// bench runs outside a git checkout.
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	which := flag.String("e", "all", "comma-separated experiment ids (E1..E11) or all")
	quick := flag.Bool("quick", false, "smaller sizes for a fast pass")
	gate := flag.Bool("gate", false, "run the perf-regression release gate against the committed BENCH_*.json records; nonzero exit on regression")
	flag.StringVar(&jsonOut, "json", "", "write A3 substrate measurements as JSON to this file")
	flag.Parse()

	if *gate {
		os.Exit(runGate())
	}

	var ids []string
	if *which == "all" {
		for id := range experiments {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			return len(ids[i]) < len(ids[j]) || (len(ids[i]) == len(ids[j]) && ids[i] < ids[j])
		})
	} else {
		ids = strings.Split(*which, ",")
	}
	for _, id := range ids {
		f, ok := experiments[strings.TrimSpace(id)]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown experiment %q\n", id)
			os.Exit(2)
		}
		f(*quick)
		fmt.Println()
	}
}

func header(id, title, claim string) {
	fmt.Printf("## %s — %s\n", id, title)
	fmt.Printf("paper claim: %s\n\n", claim)
}

func row(cols ...any) {
	parts := make([]string, len(cols))
	for i, c := range cols {
		switch v := c.(type) {
		case float64:
			parts[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			parts[i] = v.Round(time.Microsecond).String()
		default:
			parts[i] = fmt.Sprint(v)
		}
	}
	fmt.Println("| " + strings.Join(parts, " | ") + " |")
}

func mustBuild(prog *ast.Program) *rgg.Graph {
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		panic(err)
	}
	return g
}

func runEngine(prog *ast.Program) (*engine.Result, time.Duration) {
	g := mustBuild(prog)
	db := edb.FromProgram(prog)
	start := time.Now()
	res, err := engine.Run(g, db, engine.Options{})
	if err != nil {
		panic(err)
	}
	return res, time.Since(start)
}

// ---------------------------------------------------------------------------

// e1Graph reproduces Figure 1 structurally and verifies Theorem 2.1's
// EDB-independence: graph size as facts grow.
func e1Graph(quick bool) {
	header("E1", "rule/goal graph construction (Fig 1, Thm 2.1)",
		"graph reflects the IDB only; size independent of EDB size")
	base := `
		goal(Z) :- p(a, Z).
		p(X, Y) :- p(X, U), q(U, V), p(V, Y).
		p(X, Y) :- r(X, Y).
	`
	row("EDB facts", "graph nodes", "goal nodes", "rule nodes", "cycle edges", "SCCs>1", "build time")
	row("---", "---", "---", "---", "---", "---", "---")
	sizes := []int{2, 100, 10000}
	if quick {
		sizes = []int{2, 100}
	}
	for _, n := range sizes {
		prog := parser.MustParse(base)
		prog.Facts = append(prog.Facts, workload.Chain("r", n/2+2)...)
		prog.Facts = append(prog.Facts, workload.Chain("q", n/2+2)...)
		start := time.Now()
		g := mustBuild(prog)
		el := time.Since(start)
		goals, rules, cycles, sccs := 0, 0, 0, 0
		for _, nd := range g.Nodes {
			if nd.Kind == rgg.Goal {
				goals++
			} else {
				rules++
			}
			if nd.CycleTo != rgg.NoNode {
				cycles++
			}
		}
		for _, m := range g.SCCs {
			if len(m) > 1 {
				sccs++
			}
		}
		row(len(prog.Facts), len(g.Nodes), goals, rules, cycles, sccs, el)
	}
	fmt.Println("\nFig 1 graph (below the two goal levels):")
	fmt.Print(mustBuild(parser.MustParse(base + "\nr(x,y). q(y,y).")).Text())
}

// e2P1 evaluates the paper's Example 2.1 over growing chains.
func e2P1(quick bool) {
	header("E2", "evaluation of program P1 (Ex 2.1, §3)",
		"message engine computes exactly the goal portion of the minimum model; recursive steps interleave")
	row("n (chain)", "answers", "mp msgs", "mp tuples stored", "mp time", "semi-naive time", "model size")
	row("---", "---", "---", "---", "---", "---", "---")
	sizes := []int{8, 16, 32, 64}
	if quick {
		sizes = []int{8, 16}
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range sizes {
		prog := workload.Program(workload.P1Rules, workload.P1Data(n, 0.7, rng))
		res, el := runEngine(prog)
		start := time.Now()
		sn := bottomup.SemiNaive(prog, edb.FromProgram(prog))
		snEl := time.Since(start)
		if res.Answers.Len() != sn.Goal.Len() {
			fmt.Printf("MISMATCH: engine %d vs semi-naive %d answers\n", res.Answers.Len(), sn.Goal.Len())
		}
		row(n, res.Answers.Len(), res.Stats.Messages(), res.Stats.Stored, el, snEl, sn.ModelSize)
	}
}

// e3Protocol grows strong components via k-predicate mutual recursion and
// measures the Fig 2 protocol's traffic.
func e3Protocol(quick bool) {
	header("E3", "distributed termination of cycles (Fig 2, Thm 3.1)",
		"end issued iff the component is quiescent; protocol cost scales with component size")
	row("mutual preds k", "SCC size", "answers", "protocol msgs", "rounds", "basic msgs", "time")
	row("---", "---", "---", "---", "---", "---", "---")
	ks := []int{1, 2, 4, 8}
	if quick {
		ks = []int{1, 2, 4}
	}
	for _, k := range ks {
		src := mutualRecursion(k)
		prog := parser.MustParse(src)
		prog.Facts = append(prog.Facts, workload.Cycle("e", 12)...)
		g := mustBuild(prog)
		maxSCC := 0
		for _, m := range g.SCCs {
			if len(m) > maxSCC {
				maxSCC = len(m)
			}
		}
		res, el := runEngine(prog)
		row(k, maxSCC, res.Answers.Len(), res.Stats.Protocol, res.Stats.Rounds, res.Stats.Messages(), el)
	}
}

// mutualRecursion builds a k-cycle of mutually recursive reachability
// predicates p0 … p(k-1).
func mutualRecursion(k int) string {
	var b strings.Builder
	b.WriteString("goal(Y) :- p0(n0, Y).\n")
	b.WriteString("p0(X, Y) :- e(X, Y).\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "p%d(X, Y) :- p%d(X, U), e(U, Y).\n", i, (i+1)%k)
	}
	return b.String()
}

// e4GYO reproduces Figures 3 and 4: acyclicity of R1, R2, R3.
func e4GYO(quick bool) {
	header("E4", "evaluation hypergraphs and GYO reduction (Figs 3-4, Ex 4.1)",
		"R1, R2 have monotone flow; R3 does not (cycle through Y, V, W)")
	rules := map[string]string{
		"R1": `p(X, Z) :- a(X, Y), b(Y, U), c(U, Z).`,
		"R2": `p(X, Z) :- a(X, Y, V), b(Y, U), c(V, T), d(T), e(U, Z).`,
		"R3": `p(X, Z) :- a(X, Y, V), b(Y, W, U), c(V, W, T), d(T), e(U, Z).`,
	}
	row("rule", "hyperedges", "GYO steps", "acyclic", "monotone flow", "qual tree")
	row("---", "---", "---", "---", "---", "---")
	for _, name := range []string{"R1", "R2", "R3"} {
		prog := parser.MustParse(rules[name])
		rule := prog.Rules[0]
		headAd := adorn.Adornment{adorn.Dynamic, adorn.Free}
		h := adorn.EvaluationHypergraph(rule, headAd)
		red := h.Reduce()
		qt := "—"
		if red.Acyclic {
			t, _ := h.QualTree(0)
			qt = strings.ReplaceAll(strings.TrimSpace(t.String()), "\n", " / ")
		}
		row(name, len(h.Edges), len(red.Steps), red.Acyclic, adorn.MonotoneFlow(rule, headAd), qt)
	}
}

// e5Thm41 property-checks Theorem 4.1 on random rules.
func e5Thm41(quick bool) {
	header("E5", "qual-tree strategies are greedy (Ex 4.2, Thm 4.1)",
		"directing qual tree edges away from the root yields a greedy strategy")
	trials := 5000
	if quick {
		trials = 500
	}
	rng := rand.New(rand.NewSource(41))
	monotone, greedyOK := 0, 0
	for i := 0; i < trials; i++ {
		rule := randomRule(rng)
		headAd := adorn.Adornment{adorn.Dynamic, adorn.Free}
		sip, ok := adorn.QualTreeSIP(rule, headAd)
		if !ok {
			continue
		}
		monotone++
		if sip.IsGreedy() == -1 {
			greedyOK++
		}
	}
	row("random rules", "monotone flow", "qual-tree SIP greedy", "violations")
	row("---", "---", "---", "---")
	row(trials, monotone, greedyOK, monotone-greedyOK)
}

func randomRule(rng *rand.Rand) ast.Rule {
	vars := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	pool := vars[:3+rng.Intn(5)]
	n := 2 + rng.Intn(4)
	body := make([]ast.Atom, n)
	for j := range body {
		k := 1 + rng.Intn(3)
		args := make([]ast.Term, k)
		for m := range args {
			args[m] = ast.V(pool[rng.Intn(len(pool))])
		}
		body[j] = ast.Atom{Pred: fmt.Sprintf("s%d", j), Args: args}
	}
	return ast.Rule{
		Head: ast.Atom{Pred: "p", Args: []ast.Term{ast.V(pool[0]), ast.V(pool[rng.Intn(len(pool))])}},
		Body: body,
	}
}

// e6Compose property-checks Theorem 4.2 composition.
func e6Compose(quick bool) {
	header("E6", "qual tree composition (Fig 5, Thm 4.2)",
		"resolving a leaf subgoal composes the qual trees; the result satisfies the qual-tree property")
	trials := 2000
	if quick {
		trials = 200
	}
	rng := rand.New(rand.NewSource(42))
	composed, ok := 0, 0
	for i := 0; i < trials; i++ {
		if tryCompose(rng) {
			ok++
		}
		composed++
	}
	row("compositions", "qual property holds", "violations")
	row("---", "---", "---")
	row(composed, ok, composed-ok)
}

func tryCompose(rng *rand.Rand) bool {
	// Upper: rᵇ{X} — q{X,Y,...} tree grown randomly; compose at a leaf.
	varCount := 0
	fresh := func() string { varCount++; return fmt.Sprintf("v%d", varCount) }
	edges := []hypergraph.Edge{hypergraph.NewEdge("root", fresh())}
	for i := 0; i < 2+rng.Intn(4); i++ {
		parent := edges[rng.Intn(len(edges))]
		vs := []string{}
		for _, v := range parent.Vars {
			if rng.Intn(2) == 0 {
				vs = append(vs, v)
			}
		}
		vs = append(vs, fresh())
		edges = append(edges, hypergraph.NewEdge(fmt.Sprintf("g%d", i), vs...))
	}
	hu := hypergraph.New(edges...)
	tu, okU := hu.QualTree(0)
	if !okU {
		return true // not applicable
	}
	leaf := -1
	for j := range edges {
		if j != tu.Root && tu.IsLeaf(j) {
			leaf = j
			break
		}
	}
	if leaf < 0 {
		return true
	}
	parent := tu.Parent[leaf]
	var bound []string
	for _, v := range hu.Edges[leaf].Vars {
		if hu.Edges[parent].Has(v) {
			bound = append(bound, v)
		}
	}
	hw := hypergraph.Evaluation("p", bound, []hypergraph.Edge{
		hypergraph.NewEdge("w1", append(append([]string{}, hu.Edges[leaf].Vars...), "M1")...),
		hypergraph.NewEdge("w2", "M1", "M2"),
	})
	tw, okW := hw.QualTree(0)
	if !okW {
		return true
	}
	_, tc, err := hypergraph.Compose(tu, leaf, tw)
	if err != nil {
		return false
	}
	return tc.Check() == ""
}

// e7BruteForce compares §1.1's enumeration against semi-naive and the
// engine as the constant domain grows.
func e7BruteForce(quick bool) {
	header("E7", "brute-force enumeration scaling (§1.1)",
		"ground instantiation runs in O(n^(t+O(1))) for n constants; fixpoint and message evaluation scale polynomially with the data")
	row("n constants", "answers", "brute joins", "brute time", "semi-naive time", "mp time")
	row("---", "---", "---", "---", "---", "---")
	sizes := []int{4, 8, 12, 16}
	if quick {
		sizes = []int{4, 8}
	}
	for _, n := range sizes {
		prog := workload.Program(workload.TCRules, workload.Chain("edge", n))
		db := edb.FromProgram(prog)
		start := time.Now()
		bf := bottomup.BruteForce(prog, db)
		bfEl := time.Since(start)
		start = time.Now()
		sn := bottomup.SemiNaive(prog, edb.FromProgram(prog))
		snEl := time.Since(start)
		res, mpEl := runEngine(prog)
		if bf.Goal.Len() != sn.Goal.Len() || res.Answers.Len() != sn.Goal.Len() {
			fmt.Println("MISMATCH between evaluators")
		}
		row(n, sn.Goal.Len(), bf.Joins, bfEl, snEl, mpEl)
	}
}

// e8Monotone contrasts R2-shaped (monotone) and R3-shaped (cyclic) rules on
// pairwise-consistent data, measuring join-plan intermediates directly: by
// [Yan81], acyclicity plus pairwise consistency guarantee that temporary
// relations grow monotonically (bounded by the final join), while cyclic
// rules can form intermediates far larger than their final result.
func e8Monotone(quick bool) {
	header("E8", "monotone flow vs cyclic rules (§4.3)",
		"cyclic rules can produce intermediate results much larger than the final result even on pairwise-consistent relations; monotone rules cannot")
	row("shape", "n", "fanout", "|a⋈b|", "|a⋈b⋈c|", "final join", "max-inter/final", "engine answers", "engine time")
	row("---", "---", "---", "---", "---", "---", "---", "---", "---")
	configs := [][2]int{{20, 6}, {40, 10}}
	if quick {
		configs = [][2]int{{10, 4}}
	}
	for _, c := range configs {
		r2, r3 := workload.MonotonePrograms(c[0], c[1])
		for _, shaped := range []struct {
			name   string
			prog   *ast.Program
			cyclic bool
		}{{"R2 (monotone)", r2, false}, {"R3 (cyclic)", r3, true}} {
			ab, abc, final := joinPlanSizes(shaped.prog, shaped.cyclic)
			maxInter := ab
			if abc > maxInter {
				maxInter = abc
			}
			ratio := float64(maxInter) / float64(maxInt(1, final))
			res, el := runEngine(shaped.prog)
			row(shaped.name, c[0], c[1], ab, abc, final, ratio, res.Answers.Len(), el)
		}
	}
	headAd := adorn.Adornment{adorn.Dynamic, adorn.Free}
	model := costmodel.Default()
	r2, r3 := workload.MonotonePrograms(8, 4)
	e2 := costmodel.EstimateSIP(adorn.Greedy(r2.Rules[0], headAd), model)
	e3 := costmodel.EstimateSIP(adorn.Greedy(r3.Rules[0], headAd), model)
	fmt.Printf("\ncost model (α=%.2f): R2 max intermediate 10^%.2f, R3 max intermediate 10^%.2f\n",
		model.Alpha, e2.MaxIntermediateLog, e3.MaxIntermediateLog)
}

// joinPlanSizes evaluates the rule body as a left-deep join a⋈b⋈c⋈d⋈e and
// returns the two intermediate sizes plus the final join size.
func joinPlanSizes(prog *ast.Program, cyclic bool) (ab, abc, final int) {
	db := edb.FromProgram(prog)
	rel := func(name string, arity int) *relation.Relation {
		return edb.Materialize(db, ast.PredKey{Name: name, Arity: arity})
	}
	if !cyclic {
		// a(X,Y,V), b(Y,U), c(V,T), d(T), e(U,Z)
		j1 := relation.Join(rel("a", 3), rel("b", 2), []relation.EqPair{{L: 1, R: 0}}) // X Y V | Y U
		j2 := relation.Join(j1, rel("c", 2), []relation.EqPair{{L: 2, R: 0}})          // … | V T
		j3 := relation.Join(j2, rel("d", 1), []relation.EqPair{{L: 6, R: 0}})
		j4 := relation.Join(j3, rel("e", 2), []relation.EqPair{{L: 4, R: 0}})
		return j1.Len(), j2.Len(), j4.Len()
	}
	// a(X,Y,V), b(Y,W,U), c(V,W,T), d(T), e(U,Z)
	j1 := relation.Join(rel("a", 3), rel("b", 3), []relation.EqPair{{L: 1, R: 0}})      // X Y V | Y W U
	j2 := relation.Join(j1, rel("c", 3), []relation.EqPair{{L: 2, R: 0}, {L: 4, R: 1}}) // join on V and W
	j3 := relation.Join(j2, rel("d", 1), []relation.EqPair{{L: 8, R: 0}})
	j4 := relation.Join(j3, rel("e", 2), []relation.EqPair{{L: 5, R: 0}})
	return j1.Len(), j2.Len(), j4.Len()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// e9Restriction measures how much of the minimum model the "d" restriction
// avoids computing on point queries.
func e9Restriction(quick bool) {
	header("E9", "relevance restriction via class d (§1.2)",
		"class-d arguments restrict computation to (potentially) relevant tuples; bottom-up computes the whole model")
	row("components", "chain len", "answers", "mp stored", "magic model", "full model", "mp/full", "time mp", "time sn")
	row("---", "---", "---", "---", "---", "---", "---", "---", "---")
	configs := [][2]int{{4, 16}, {16, 16}, {64, 16}}
	if quick {
		configs = [][2]int{{4, 8}, {16, 8}}
	}
	for _, c := range configs {
		prog := workload.Program(workload.TCRules, workload.Components("edge", c[0], c[1]))
		res, mpEl := runEngine(prog)
		start := time.Now()
		sn := bottomup.SemiNaive(prog, edb.FromProgram(prog))
		snEl := time.Since(start)
		mg, _, _, err := magic.Evaluate(prog)
		if err != nil {
			panic(err)
		}
		frac := float64(res.Stats.Stored) / float64(sn.ModelSize)
		row(c[0], c[1], res.Answers.Len(), res.Stats.Stored, mg.ModelSize, sn.ModelSize, frac, mpEl, snEl)
	}
}

// e10Nonlinear exercises nonlinear recursion and compares the engine's
// restriction to magic sets.
func e10Nonlinear(quick bool) {
	header("E10", "nonlinear recursion (§1.2, §3)",
		"the method handles nonlinear recursion (goal depends recursively on two or more subgoals); restriction matches the magic-sets rewrite")
	row("workload", "answers", "mp msgs", "mp stored", "magic model", "full model", "mp time")
	row("---", "---", "---", "---", "---", "---", "---")
	n := 48
	if quick {
		n = 16
	}
	rng := rand.New(rand.NewSource(10))
	cases := []struct {
		name string
		prog *ast.Program
	}{
		{"linear TC", workload.Program(workload.TCRules, workload.Components("edge", 4, n))},
		{"nonlinear TC", workload.Program(workload.NonlinearTCRules, workload.Components("edge", 4, n))},
		{"P1 (two recursive subgoals)", workload.Program(workload.P1Rules, workload.P1Data(n, 0.7, rng))},
	}
	for _, c := range cases {
		res, el := runEngine(c.prog)
		sn := bottomup.SemiNaive(c.prog, edb.FromProgram(c.prog))
		mg, _, _, err := magic.Evaluate(c.prog)
		if err != nil {
			panic(err)
		}
		if res.Answers.Len() != sn.Goal.Len() {
			fmt.Println("MISMATCH vs semi-naive")
		}
		row(c.name, res.Answers.Len(), res.Stats.Messages(), res.Stats.Stored, mg.ModelSize, sn.ModelSize, el)
	}
}

// e11Transport runs the same query in-process and across TCP sites.
func e11Transport(quick bool) {
	header("E11", "in-process vs distributed transport (§1 'suitable for distributed systems')",
		"identical answers with no shared memory; the network adds latency but not messages")
	n := 32
	if quick {
		n = 12
	}
	rng := rand.New(rand.NewSource(11))
	prog := workload.Program(workload.P1Rules, workload.P1Data(n, 0.7, rng))
	res, el := runEngine(prog)
	row("transport", "sites", "answers", "basic msgs", "time")
	row("---", "---", "---", "---", "---")
	row("in-process", 1, res.Answers.Len(), res.Stats.Messages(), el)
	for _, sites := range []int{2, 4} {
		ans, msgs, el, err := runTCP(prog, sites, transport.Config{})
		if err != nil {
			fmt.Println("tcp error:", err)
			continue
		}
		row("tcp", sites, ans, msgs, el)
	}
}

// a1Strategies ablates the sideways information passing strategy: the same
// queries evaluated with the greedy strategy (Def 2.4), the qual-tree
// strategy (Thm 4.1), and Prolog's textual left-to-right order. The rule
// bodies are deliberately written in unfavorable textual order, so the
// reordering strategies must discover the binding flow themselves — "here
// the system decides in which order to solve them" (§2.2).
func a1Strategies(quick bool) {
	header("A1", "information passing strategy ablation (§2.2, Def 2.4, Thm 4.1)",
		"greedy ordering restricts intermediate relations; textual order may evaluate subgoals with no bound arguments")
	n := 64
	if quick {
		n = 16
	}
	// Ancestors, recursive subgoal written last; the first textual subgoal
	// has no bound arguments under left-to-right.
	anc := `
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(U, Y), anc(X, U).
		goal(A) :- anc(n0, A).
	`
	ancFacts := workload.Components("par", 4, n)
	// The paper's R2 with the body scrambled.
	r2scrambled := `
		p(X, Z) :- e(U, Z), d(T), c(V, T), b(Y, U), a(X, Y, V).
		goal(Z) :- p(x0, Z).
	`
	r2prog, _ := workload.MonotonePrograms(n/2, 6)
	row("workload", "strategy", "answers", "msgs", "edb tuples read", "joins", "time")
	row("---", "---", "---", "---", "---", "---", "---")
	strategies := []struct {
		name string
		s    rgg.Strategy
	}{
		{"greedy", rgg.GreedyStrategy},
		{"qualtree", rgg.QualTreeStrategy},
		{"leftright", rgg.LeftToRightStrategy},
		{"basic (no passing)", rgg.BasicStrategy},
		{"stats (EDB statistics)", nil}, // resolved per workload below
	}
	cases := []struct {
		name string
		prog *ast.Program
	}{
		{"ancestors (scrambled rule)", workload.Program(anc, ancFacts)},
		{"R2 (scrambled body)", workload.Program(r2scrambled, r2prog.Facts)},
	}
	for _, c := range cases {
		for _, st := range strategies {
			strat := st.s
			if strat == nil {
				strat = rgg.StatsStrategy(edb.FromProgram(c.prog))
			}
			g, err := rgg.Build(c.prog, rgg.Options{Strategy: strat})
			if err != nil {
				panic(err)
			}
			db := edb.FromProgram(c.prog)
			start := time.Now()
			res, err := engine.Run(g, db, engine.Options{})
			if err != nil {
				panic(err)
			}
			el := time.Since(start)
			row(c.name, st.name, res.Answers.Len(), res.Stats.Messages(), res.Stats.EDBTuples, res.Stats.Joins, el)
		}
	}
}

// a2Batching reports what footnote 2's packaged tuple requests save on a
// workload where one handled message generates many requests (a cross
// product under left-to-right information passing). Packaged delivery is
// the engine's only mode, so this is a frames-versus-rows report: every
// row would have been a message of its own (the historical on/off ablation
// is in EXPERIMENTS.md).
func a2Batching(quick bool) {
	header("A2", "packaged tuple requests (footnote 2)",
		"packaging related tuple requests sends far fewer frames than the bindings they carry")
	n := 40
	if quick {
		n = 12
	}
	src := ""
	for i := 1; i <= n; i++ {
		src += fmt.Sprintf("a(x%d). b(y%d). g(x%d, y%d, z%d).\n", i, i, i, i, i)
	}
	src += `
		r(Z) :- a(X), b(Y), g(X, Y, Z).
		goal(Z) :- r(Z).
	`
	prog := parser.MustParse(src)
	g, err := rgg.Build(prog, rgg.Options{Strategy: rgg.LeftToRightStrategy})
	if err != nil {
		panic(err)
	}
	db := edb.FromProgram(prog)
	start := time.Now()
	res, err := engine.Run(g, db, engine.Options{})
	if err != nil {
		panic(err)
	}
	el := time.Since(start)
	row("answers", "tupreq frames", "tupreq rows", "total frames", "total rows", "time")
	row("---", "---", "---", "---", "---", "---")
	row(res.Answers.Len(), res.Stats.TupReqs, res.Stats.TupReqRows, res.Stats.Messages(), res.Stats.RowMessages(), el)
}

// a3Substrate measures the allocation-free relational substrate and the
// engine's packaged tuple delivery: substrate microbenchmarks (fresh
// insert, duplicate insert, 2-column composite equijoin) plus frames
// against rows for the E7/E11 query families. The narrow original
// instances have nothing to package (a chain's wavefront is one tuple
// wide); the wide instances of the same families show the collapse. With
// -json the measurements are written out in the shape of the "after" half
// of BENCH_1.json, whose on/off ablation is now historical.
func a3Substrate(quick bool) {
	header("A3", "allocation-free substrate and vectorized tuple delivery",
		"duplicate insert allocates nothing; composite indexes probe once per tuple; packaging collapses frames on wide wavefronts")

	micros := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"relation-insert-fresh", microInsertFresh},
		{"relation-insert-dup", microInsertDup},
		{"relation-join-2col", microJoin2Col},
	}
	type microResult struct {
		NsPerOp     float64 `json:"ns_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
	}
	record := struct {
		Machine    map[string]any         `json:"machine"`
		Micro      map[string]microResult `json:"microbenchmarks"`
		Messaging  []map[string]any       `json:"messaging"`
		Commentary string                 `json:"commentary"`
	}{
		Machine: machineInfo(),
		Micro:   map[string]microResult{},
		Commentary: "Packaging gains scale with wavefront width: the original E7/E11 " +
			"instances are chains (one new tuple per step), so rows per frame is ~1; " +
			"the wide instances of the same query families show the collapse.",
	}

	row("microbenchmark", "ns/op", "B/op", "allocs/op")
	row("---", "---", "---", "---")
	for _, m := range micros {
		r := testing.Benchmark(m.fn)
		per := microResult{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		record.Micro[m.name] = per
		row(m.name, per.NsPerOp, per.BytesPerOp, per.AllocsPerOp)
	}

	rng := rand.New(rand.NewSource(11))
	wide, tall := 64, 512
	gw, gh := 12, 12
	if quick {
		wide, tall = 24, 96
		gw, gh = 6, 6
	}
	workloads := []struct {
		name string
		prog *ast.Program
	}{
		{"E7 (chain n=10)", workload.Program(workload.TCRules, workload.Chain("edge", 10))},
		{"E11 (P1 n=16)", workload.Program(workload.P1Rules, workload.P1Data(16, 0.7, rng))},
		{fmt.Sprintf("E7-wide (random %d,%d)", wide, tall),
			workload.Program(workload.TCRules, workload.Random("edge", wide, tall, rand.New(rand.NewSource(11))))},
		{fmt.Sprintf("E11-wide (grid %dx%d)", gw, gh),
			workload.Program(workload.TCRules, workload.Grid("edge", gw, gh))},
	}
	fmt.Println()
	row("workload", "answers", "row messages", "frames", "ratio")
	row("---", "---", "---", "---", "---")
	for _, w := range workloads {
		db := edb.FromProgram(w.prog)
		start := time.Now()
		res, err := engine.Run(mustBuild(w.prog), db, engine.Options{})
		if err != nil {
			panic(err)
		}
		el := time.Since(start)
		rows, frames := res.Stats.RowMessages(), res.Stats.Messages()
		ratio := float64(rows) / float64(frames)
		row(w.name, res.Answers.Len(), rows, frames, ratio)
		record.Messaging = append(record.Messaging, map[string]any{
			"workload":      w.name,
			"answers":       res.Answers.Len(),
			"row_messages":  rows,
			"frames":        frames,
			"message_ratio": ratio,
			"tuple_rows":    res.Stats.TupleRows,
			"tuple_frames":  res.Stats.Tuples,
			"time":          el.String(),
		})
	}

	if jsonOut != "" {
		buf, err := json.MarshalIndent(record, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(jsonOut, append(buf, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("\nwrote %s\n", jsonOut)
	}
}

func microInsertFresh(b *testing.B) {
	r := relation.New(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Insert(relation.Tuple{symtab.Sym(i + 1), symtab.Sym(i%977 + 1), symtab.Sym(i%53 + 1)})
	}
}

func microInsertDup(b *testing.B) {
	r := relation.New(3)
	for i := 0; i < 4096; i++ {
		r.Insert(relation.Tuple{symtab.Sym(i + 1), symtab.Sym(i%977 + 1), symtab.Sym(i%53 + 1)})
	}
	probe := append(relation.Tuple{}, r.Row(100)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Insert(probe) {
			b.Fatal("probe was not a duplicate")
		}
	}
}

func microJoin2Col(b *testing.B) {
	left := relation.New(3)
	right := relation.New(3)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		left.Insert(relation.Tuple{symtab.Sym(rng.Intn(50) + 1), symtab.Sym(rng.Intn(50) + 1), symtab.Sym(rng.Intn(50) + 1)})
		right.Insert(relation.Tuple{symtab.Sym(rng.Intn(50) + 1), symtab.Sym(rng.Intn(50) + 1), symtab.Sym(rng.Intn(50) + 1)})
	}
	on := []relation.EqPair{{L: 1, R: 0}, {L: 2, R: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relation.Join(left, right, on)
	}
}

// runTCP evaluates prog across TCP sites on loopback, one goroutine per
// site, with the given transport configuration.
func runTCP(prog *ast.Program, sites int, cfg transport.Config) (answers int, msgs int64, elapsed time.Duration, err error) {
	g := mustBuild(prog)
	hosts := engine.Partition(g, sites)
	addrs := make([]string, sites)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	locals := make([]*transport.Local, sites)
	nets := make([]*transport.TCP, sites)
	for i := 0; i < sites; i++ {
		locals[i] = transport.NewLocal(len(g.Nodes) + 1)
		n, err := transport.NewTCPConfig(i, addrs, hosts, locals[i], cfg)
		if err != nil {
			return 0, 0, 0, err
		}
		addrs[i] = n.Addr()
		nets[i] = n
	}
	defer func() {
		for _, n := range nets {
			n.Close()
		}
	}()
	start := time.Now()
	opts := engine.Options{Stats: &trace.Stats{}} // one sink so message counts cover all sites
	type siteOut struct {
		res *engine.Result
		err error
	}
	outs := make(chan siteOut, sites)
	for i := 0; i < sites; i++ {
		go func(i int) {
			db := edb.FromProgram(prog)
			res, err := engine.RunSites(g, db, nets[i], locals[i], hosts, i, opts)
			outs <- siteOut{res, err}
		}(i)
	}
	var res *engine.Result
	for i := 0; i < sites; i++ {
		o := <-outs
		if o.err != nil {
			return 0, 0, 0, o.err
		}
		if o.res != nil {
			res = o.res
		}
	}
	return res.Answers.Len(), res.Stats.Messages(), time.Since(start), nil
}

// a4Failure measures what failure-aware evaluation costs a query that
// never fails. Both sides of every comparison run on the same binary —
// the machinery is runtime-toggled — so the deltas isolate exactly the
// new work: an armed watchdog goroutine selecting on deadline, cancel,
// and peer-down for the whole evaluation (in-process rows; the
// per-message Abort check is always on and is part of both sides), and
// heartbeat traffic with read/write deadlines on every site-pair
// connection (TCP rows). With -json the measurements are written out as
// the record behind BENCH_2.json.
func a4Failure(quick bool) {
	header("A4", "failure-handling overhead on the failure-free path",
		"the default path (heartbeats and abort checks always on) regresses <2%; an armed deadline is an opt-in runtime timer tax, reported separately")

	type microResult struct {
		NsPerOp     float64 `json:"ns_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
	}
	reps := 6
	if quick {
		reps = 2
	}
	benchOnce := func(prog *ast.Program, g *rgg.Graph, db *edb.Database, armed bool) microResult {
		res := testing.Benchmark(func(b *testing.B) {
			opts := engine.Options{}
			if armed {
				// A deadline far in the future plus live cancel and
				// peer-down channels: the watchdog runs for the whole
				// evaluation but never fires.
				opts.Deadline = time.Hour
				opts.Cancel = make(chan struct{})
				opts.PeerDown = make(chan transport.PeerDown)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(g, db, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		return microResult{
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
	}
	// Off and armed runs are interleaved and each side keeps its best rep,
	// so slow drift on a shared machine hits both sides equally instead of
	// masquerading as watchdog overhead.
	benchPair := func(prog *ast.Program) (off, on microResult) {
		g := mustBuild(prog)
		db := edb.FromProgram(prog)
		for r := 0; r < reps; r++ {
			o := benchOnce(prog, g, db, false)
			a := benchOnce(prog, g, db, true)
			if r == 0 || o.NsPerOp < off.NsPerOp {
				off = o
			}
			if r == 0 || a.NsPerOp < on.NsPerOp {
				on = a
			}
		}
		return off, on
	}

	type pair struct {
		Workload string `json:"workload"`
		// Off is the default failure-free configuration on this tree: no
		// deadline, no cancel — but the per-message Abort check and the
		// abort bookkeeping are compiled in. Compare it against Bench1Ref
		// (the same benchmark recorded in BENCH_1.json before this change)
		// for the default-path regression.
		Off         microResult `json:"watchdog_off"`
		On          microResult `json:"watchdog_armed"`
		OverheadPct float64     `json:"deadline_overhead_pct"`
		Bench1Ref   float64     `json:"bench1_after_ns_per_op"`
		RefDeltaPct float64     `json:"off_vs_bench1_pct"`
	}
	var micro []pair
	row("in-process workload", "BENCH_1 ns/op", "off ns/op", "vs BENCH_1", "armed ns/op", "deadline tax")
	row("---", "---", "---", "---", "---", "---")
	for _, w := range []struct {
		name string
		prog *ast.Program
		ref  float64 // BENCH_1.json "after" ns/op for the same benchmark
	}{
		{"E7 (chain n=10)", workload.Program(workload.TCRules, workload.Chain("edge", 10)), 129866},
		{"E11 (P1 n=16)", workload.Program(workload.P1Rules, workload.P1Data(16, 0.7, rand.New(rand.NewSource(11)))), 139155},
	} {
		off, on := benchPair(w.prog)
		pct := (on.NsPerOp - off.NsPerOp) / off.NsPerOp * 100
		refPct := (off.NsPerOp - w.ref) / w.ref * 100
		micro = append(micro, pair{w.name, off, on, pct, w.ref, refPct})
		row(w.name, w.ref, off.NsPerOp, fmt.Sprintf("%+.2f%%", refPct),
			on.NsPerOp, fmt.Sprintf("%+.2f%%", pct))
	}

	// Distributed: 2 TCP sites at a 20ms heartbeat interval — tight enough
	// that liveness frames demonstrably flow during the run (the 500ms
	// production default would never fire on a run this short).
	trials, n := 5, 32
	if quick {
		trials, n = 3, 12
	}
	prog := workload.Program(workload.P1Rules, workload.P1Data(n, 0.7, rand.New(rand.NewSource(11))))
	type tcpResult struct {
		Heartbeat  string `json:"heartbeat_interval"`
		MedianTime string `json:"median_time"`
		Heartbeats int64  `json:"heartbeats"`
		Answers    int    `json:"answers"`
	}
	st := &trace.Stats{}
	times := make([]time.Duration, 0, trials)
	answers := 0
	for i := 0; i < trials; i++ {
		ans, _, el, err := runTCP(prog, 2, transport.Config{HeartbeatInterval: 20 * time.Millisecond, Stats: st})
		if err != nil {
			panic(err)
		}
		answers = ans
		times = append(times, el)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	dist := []tcpResult{{"20ms", times[len(times)/2].String(), st.Snapshot().Heartbeats, answers}}
	fmt.Println()
	row("tcp 2 sites (E11 shape)", "median time", "heartbeats", "answers")
	row("---", "---", "---", "---")
	row("heartbeat "+dist[0].Heartbeat, dist[0].MedianTime, dist[0].Heartbeats, dist[0].Answers)

	if jsonOut != "" {
		record := struct {
			Record      string            `json:"record"`
			Description string            `json:"description"`
			Machine     map[string]any    `json:"machine"`
			Units       map[string]string `json:"units"`
			InProcess   []pair            `json:"in_process"`
			Distributed []tcpResult       `json:"distributed_tcp"`
			Commentary  string            `json:"commentary"`
		}{
			Record: "BENCH_2",
			Description: "Failure-aware evaluation (heartbeats, query " +
				"deadlines, Abort protocol, per-process panic isolation) measured on the " +
				"failure-free path. Acceptance (<2% regression) covers the DEFAULT path: " +
				"in-process rows compare this tree with no deadline armed (but the Abort " +
				"check and abort bookkeeping compiled into every process loop) against the " +
				"same benchmarks recorded in BENCH_1.json before the change " +
				"(off_vs_bench1_pct), and the TCP row reports heartbeat traffic at a 20ms " +
				"interval. deadline_overhead_pct is reported separately: arming a " +
				"wall-clock deadline is opt-in and pays the Go runtime's pending-timer " +
				"scheduler tax (see commentary). Best of 6 interleaved benchmark runs per " +
				"side; TCP rows are the median of 5 trials. Reproduce with " +
				"`go run ./cmd/bench -e A4 -json BENCH_2.json`.",
			Machine:     machineInfo(),
			Units:       map[string]string{"time": "ns/op", "bytes": "B/op", "allocs": "allocs/op"},
			InProcess:   micro,
			Distributed: dist,
			Commentary: "Heartbeats ride per-connection ticker goroutines and never touch " +
				"the engine's message path. The per-message Abort check (one predictable branch per " +
				"process-loop iteration) plus the abort bookkeeping is the only always-on " +
				"cost; off_vs_bench1_pct bounds it against the pre-change tree. Arming a " +
				"deadline is different: any pending timer in a Go process makes the " +
				"scheduler consult the timer heap on goroutine park/unpark, and a " +
				"message-driven engine parks constantly — a single ambient time.AfterFunc " +
				"with no engine involvement reproduces the same few-percent slowdown on " +
				"these scheduler-bound microqueries (~10us on a ~120us query, shrinking in " +
				"relative terms as queries grow). The watchdog itself arms and disarms in " +
				"~1.3us (time.AfterFunc for the deadline, no goroutine parked on a timer " +
				"channel; cancel/peer-down watchers measure at noise). That tax is paid " +
				"only by queries that request a deadline, which is exactly the trade a " +
				"caller asking for bounded wall-clock time is making.",
		}
		buf, err := json.MarshalIndent(record, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(jsonOut, append(buf, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("\nwrote %s\n", jsonOut)
	}
}

// a5Observability measures what the observability layer costs a query that
// does not use it, and what opting in costs. All configurations run on the
// same binary — the profile and its span ring are runtime-armed via
// engine.Options — so the deltas isolate exactly the new work: with no
// profile, one pointer check per sent and per handled message; with a
// profile armed, two clock reads plus a handful of uncontended atomic adds
// per message; with its span ring armed (Profile.RecordSpans), one short
// mutexed ring write on top. The "off" column is also compared
// against the same benchmarks recorded in BENCH_2.json before this change
// (watchdog_off), bounding the disabled-path regression across trees. With
// -json the measurements are written out as BENCH_3.json.
func a5Observability(quick bool) {
	header("A5", "observability overhead (profiling, event tracing)",
		"disabled observability is within noise of the pre-change tree; armed profiling costs two clock reads per message")

	type microResult struct {
		NsPerOp     float64 `json:"ns_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
	}
	reps := 6
	if quick {
		reps = 2
	}
	type mode struct {
		name         string
		prof, events bool
	}
	modes := []mode{
		{"off", false, false},
		{"profile", true, false},
		{"profile+events", true, true},
	}
	benchOnce := func(g *rgg.Graph, db *edb.Database, m mode) microResult {
		res := testing.Benchmark(func(b *testing.B) {
			// Sinks are allocated once and reused: the engine re-Inits them
			// per evaluation (that is their documented lifecycle), so the
			// loop measures the per-message recording cost, not the one-time
			// ring allocation a long-lived tool pays once.
			opts := engine.Options{}
			if m.prof {
				opts.Profile = trace.NewProfile()
			}
			if m.events {
				opts.Profile.RecordSpans(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(g, db, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		return microResult{
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
	}
	// All modes are interleaved rep by rep and each keeps its best, so
	// machine drift hits every mode equally (same discipline as A4).
	benchModes := func(prog *ast.Program) map[string]microResult {
		g := mustBuild(prog)
		db := edb.FromProgram(prog)
		best := map[string]microResult{}
		for r := 0; r < reps; r++ {
			for _, m := range modes {
				got := benchOnce(g, db, m)
				if cur, ok := best[m.name]; !ok || got.NsPerOp < cur.NsPerOp {
					best[m.name] = got
				}
			}
		}
		return best
	}

	type workloadRecord struct {
		Workload string `json:"workload"`
		// Off is the default configuration on this tree: no Profile; Both
		// also arms the profile's span ring. Compare Off against Bench2Ref
		// (the same benchmark recorded as watchdog_off in BENCH_2.json
		// before this change) for the disabled-path regression.
		Off         microResult `json:"observability_off"`
		Profile     microResult `json:"profile_armed"`
		Both        microResult `json:"profile_and_events_armed"`
		ProfilePct  float64     `json:"profile_overhead_pct"`
		BothPct     float64     `json:"profile_and_events_overhead_pct"`
		Bench2Ref   float64     `json:"bench2_off_ns_per_op"`
		RefDeltaPct float64     `json:"off_vs_bench2_pct"`
	}
	var records []workloadRecord
	row("workload", "BENCH_2 ns/op", "off ns/op", "vs BENCH_2", "profile ns/op", "profile tax", "+events ns/op", "events tax")
	row("---", "---", "---", "---", "---", "---", "---", "---")
	for _, w := range []struct {
		name string
		prog *ast.Program
		ref  float64 // BENCH_2.json watchdog_off ns/op for the same benchmark
	}{
		{"E7 (chain n=10)", workload.Program(workload.TCRules, workload.Chain("edge", 10)), 116105.5},
		{"E11 (P1 n=16)", workload.Program(workload.P1Rules, workload.P1Data(16, 0.7, rand.New(rand.NewSource(11)))), 115755.0},
	} {
		best := benchModes(w.prog)
		off, prof, both := best["off"], best["profile"], best["profile+events"]
		profPct := (prof.NsPerOp - off.NsPerOp) / off.NsPerOp * 100
		bothPct := (both.NsPerOp - off.NsPerOp) / off.NsPerOp * 100
		refPct := (off.NsPerOp - w.ref) / w.ref * 100
		records = append(records, workloadRecord{
			w.name, off, prof, both, profPct, bothPct, w.ref, refPct,
		})
		row(w.name, w.ref, off.NsPerOp, fmt.Sprintf("%+.2f%%", refPct),
			prof.NsPerOp, fmt.Sprintf("%+.2f%%", profPct),
			both.NsPerOp, fmt.Sprintf("%+.2f%%", bothPct))
	}

	if jsonOut != "" {
		record := struct {
			Record      string            `json:"record"`
			Description string            `json:"description"`
			Machine     map[string]any    `json:"machine"`
			Units       map[string]string `json:"units"`
			InProcess   []workloadRecord  `json:"in_process"`
			Commentary  string            `json:"commentary"`
		}{
			Record: "BENCH_3",
			Description: "Query observability (per-node tallies, profile reports, " +
				"span ring of handled messages) measured disabled and armed. " +
				"Acceptance covers the DEFAULT path: observability_off compares this " +
				"tree with no Profile against the same benchmarks " +
				"recorded as watchdog_off in BENCH_2.json before the change " +
				"(off_vs_bench2_pct). profile_overhead_pct and " +
				"profile_and_events_overhead_pct report the opt-in cost. Best of 6 " +
				"interleaved benchmark runs per mode. Reproduce with " +
				"`go run ./cmd/bench -e A5 -json BENCH_3.json`.",
			Machine:   machineInfo(),
			Units:     map[string]string{"time": "ns/op", "bytes": "B/op", "allocs": "allocs/op"},
			InProcess: records,
			Commentary: "With no profile the run loop pays one " +
				"pointer check per handled message, which is why " +
				"off_vs_bench2_pct sits at measurement noise. Arming a profile adds " +
				"two monotonic clock reads and a few plain adds around each handled " +
				"message; every node counts into its own tally whether or not a " +
				"profile is armed, so there is no shared-counter contention. The span ring adds one short " +
				"mutexed write into a preallocated ring; its fixed capacity (oldest " +
				"spans drop first) bounds both memory and the write cost. These " +
				"scheduler-bound microqueries (~120us, a few hundred messages) are " +
				"close to the worst case for per-message taxes; the relative cost " +
				"shrinks as queries grow join- or data-bound.",
		}
		buf, err := json.MarshalIndent(record, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(jsonOut, append(buf, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("\nwrote %s\n", jsonOut)
	}
}

// a6ChainSource renders the transitive-closure chain workload as Datalog
// source (the mpq public surface, unlike the other experiments' direct
// *ast.Program plumbing, is what the serving layer actually exposes). The
// query starts from vertex `start`: near the chain's tail it is the
// point-query shape a server actually fields — a small answer set whose
// latency is dominated by per-query setup, exactly what preparation
// amortizes.
func a6ChainSource(n, start int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "edge(n%d, n%d).\n", i, i+1)
	}
	b.WriteString("path(X, Y) :- edge(X, Y).\n")
	b.WriteString("path(X, Y) :- path(X, U), edge(U, Y).\n")
	fmt.Fprintf(&b, "goal(Y) :- path(n%d, Y).\n", start)
	return b.String()
}

// a6Prepared measures the prepared-query serving layer: how much latency
// compile-once/bind-many removes versus rebuilding the rule/goal graph per
// evaluation, and what a long-lived mpqd -serve instance sustains under
// concurrent clients. With -json the measurements are written out as
// BENCH_4.json.
func a6Prepared(quick bool) {
	header("A6", "prepared-query serving (compile-once/bind-many plans, plan cache, mpqd -serve)",
		"a goal node's d argument positions receive their needed values at runtime via relation request (§3.1), so one compiled graph serves every constant")

	n, reps := 64, 6
	clients, perClient := 8, 100
	if quick {
		n, reps = 16, 2
		clients, perClient = 8, 20
	}
	base := n - 8 // point queries from near the tail: 5-8 answers each
	src := a6ChainSource(n, base)

	type microResult struct {
		NsPerOp     float64 `json:"ns_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
	}
	bench := func(f func() error) microResult {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f(); err != nil {
					b.Fatal(err)
				}
			}
		})
		return microResult{
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
	}

	// Latency: the same query evaluated three ways on one System. Every
	// path must produce the full n-tuple reachable set.
	sys := mpq.MustLoad(src)
	pq, err := sys.Prepare(fmt.Sprintf("?- path(n%d, Y).", base))
	if err != nil {
		panic(err)
	}
	// The rebinding paths rotate the start vertex over four tail nodes —
	// genuinely different constants per call (hits must rebind, not
	// replay) with near-identical answer-set sizes, so the comparison
	// against the fixed fresh query stays fair.
	checkedAt := func(start int, ans *mpq.Answer, err error) error {
		if err != nil {
			return err
		}
		if len(ans.Tuples) != n-start {
			return fmt.Errorf("path(n%d): got %d answers, want %d", start, len(ans.Tuples), n-start)
		}
		return nil
	}
	pi, qi := 0, 0
	modes := []struct {
		name string
		f    func() error
	}{
		// Fresh: rgg.Build + engine construction every call (the only
		// pre-change path).
		{"fresh Eval", func() error {
			ans, err := sys.Eval()
			return checkedAt(base, ans, err)
		}},
		// Prepared: graph, indexes, and pooled scratch all reused; only
		// the constants bind per call.
		{"PreparedQuery.Eval", func() error {
			pi++
			s := base + pi%4
			ans, err := pq.Eval(nil, fmt.Sprintf("n%d", s))
			return checkedAt(s, ans, err)
		}},
		// Query: the plan-cache path a server takes — parse, canonicalize,
		// cache hit, bind.
		{"Query (cache hit)", func() error {
			qi++
			s := base + qi%4
			ans, err := sys.Query(nil, fmt.Sprintf("?- path(n%d, Y).", s))
			return checkedAt(s, ans, err)
		}},
	}
	best := map[string]microResult{}
	for r := 0; r < reps; r++ {
		for _, m := range modes {
			got := bench(m.f)
			if cur, ok := best[m.name]; !ok || got.NsPerOp < cur.NsPerOp {
				best[m.name] = got
			}
		}
	}
	fresh := best["fresh Eval"]
	row("path", "ns/op", "B/op", "allocs/op", "vs fresh")
	row("---", "---", "---", "---", "---")
	for _, m := range modes {
		b := best[m.name]
		row(m.name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp,
			fmt.Sprintf("%.2fx", fresh.NsPerOp/b.NsPerOp))
	}

	// Throughput: a real serve.Server on loopback under concurrent
	// line-protocol clients, constants rotating per query.
	srv := serve.New(mpq.MustLoad(src), serve.Config{MaxConcurrent: runtime.NumCPU()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			for q := 0; q < perClient; q++ {
				fmt.Fprintf(conn, "?- path(n%d, Y).\n", (c+q)%n)
				done := false
				for !done && sc.Scan() {
					switch line := sc.Text(); {
					case strings.HasPrefix(line, ". "):
						done = true
					case strings.HasPrefix(line, "E "):
						errCh <- fmt.Errorf("server error: %s", line)
						return
					}
				}
				if !done {
					errCh <- fmt.Errorf("connection closed mid-response: %v", sc.Err())
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		panic(err)
	}
	elapsed := time.Since(start)
	srv.Close()
	sn := srv.Stats().Snapshot()
	total := clients * perClient
	qps := float64(total) / elapsed.Seconds()
	fmt.Println()
	row("server", "clients", "queries", "elapsed", "queries/s", "plan hits", "plan misses")
	row("---", "---", "---", "---", "---", "---", "---")
	row(fmt.Sprintf("mpqd -serve (max-concurrent %d)", runtime.NumCPU()),
		clients, total, elapsed, qps, sn.PlanHits, sn.PlanMisses)

	if jsonOut != "" {
		record := struct {
			Record      string                 `json:"record"`
			Description string                 `json:"description"`
			Machine     map[string]any         `json:"machine"`
			Units       map[string]string      `json:"units"`
			Workload    string                 `json:"workload"`
			Latency     map[string]microResult `json:"latency"`
			SpeedupX    float64                `json:"prepared_speedup_x"`
			Server      map[string]any         `json:"server"`
			Commentary  string                 `json:"commentary"`
		}{
			Record: "BENCH_4",
			Description: "Prepared-query serving: latency of one query evaluated fresh " +
				"(rgg.Build per call), through PreparedQuery.Eval (compile-once/" +
				"bind-many), and through System.Query's plan cache with rotating " +
				"constants; plus sustained throughput of a serve.Server (the mpqd " +
				"-serve engine) on loopback under concurrent line-protocol " +
				"clients. Best of 6 interleaved benchmark runs per mode. " +
				"Reproduce with `go run ./cmd/bench -e A6 -json BENCH_4.json`.",
			Machine:  machineInfo(),
			Units:    map[string]string{"time": "ns/op", "bytes": "B/op", "allocs": "allocs/op"},
			Workload: fmt.Sprintf("point reachability queries (5-8 answers) over an %d-edge transitive-closure chain", n),
			Latency: map[string]microResult{
				"fresh_eval":      best["fresh Eval"],
				"prepared_eval":   best["PreparedQuery.Eval"],
				"query_cache_hit": best["Query (cache hit)"],
			},
			SpeedupX: fresh.NsPerOp / best["PreparedQuery.Eval"].NsPerOp,
			Server: map[string]any{
				"clients":         clients,
				"queries":         total,
				"max_concurrent":  runtime.NumCPU(),
				"elapsed_sec":     elapsed.Seconds(),
				"queries_per_sec": qps,
				"plan_hits":       sn.PlanHits,
				"plan_misses":     sn.PlanMisses,
			},
			Commentary: "The prepared path removes per-evaluation graph construction " +
				"(parse, adornment, SIP ordering, SCC analysis), index warming, and " +
				"the allocation of every node's mailbox, temporaries, and maps — " +
				"the pooled scratch is reset in place, so steady-state allocations " +
				"drop to the answer tuples plus per-run bookkeeping. Query adds " +
				"back parsing and shape canonicalization (the cache key), so it " +
				"sits between the two; its constants rotate, proving hits rebind " +
				"rather than replay. The workload is the serving shape — small " +
				"point queries, where per-query setup is the latency floor; on " +
				"whole-closure queries evaluation dominates and the relative win " +
				"shrinks. Server throughput is scheduler-bound on loopback: each " +
				"query is a full message-passing evaluation, so queries/s scales " +
				"with evaluation cost, not connection count.",
		}
		buf, err := json.MarshalIndent(record, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(jsonOut, append(buf, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("\nwrote %s\n", jsonOut)
	}
}
