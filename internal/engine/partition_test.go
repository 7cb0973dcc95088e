package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/edb"
	"repro/internal/parser"
	"repro/internal/rgg"
	"repro/internal/transport"
	"repro/internal/workload"
)

// runQueryOpts is runQuery with caller-chosen Options — the partitioned
// runs use it to turn worker shards on while keeping the hang guard.
func runQueryOpts(t *testing.T, src string, strategy rgg.Strategy, opts Options) (*Result, *edb.Database) {
	t.Helper()
	prog := parser.MustParse(src)
	db := edb.FromProgram(prog)
	g, err := rgg.Build(prog, rgg.Options{Strategy: strategy})
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		res *Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := Run(g, db, opts)
		ch <- out{res, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.res, db
	case <-time.After(30 * time.Second):
		t.Fatalf("engine hung on:\n%s\ngraph:\n%s", src, g.Text())
		return nil, nil
	}
}

// partitionPrograms covers every structural case the shard planner treats
// differently: linear and right-linear recursion, the doubly recursive P1
// rule, nonlinear (diamond) recursion joining a node to itself, mutual
// recursion across a component, same-generation (sideways information
// passing), an all-free root, and a non-recursive pipeline.
var partitionPrograms = map[string]string{
	"p1": p1data,
	"linear-tc": `
		edge(a, b). edge(b, c). edge(c, d). edge(d, b). edge(x, y).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(Y) :- path(a, Y).
	`,
	"right-linear-tc": `
		edge(a, b). edge(b, c). edge(c, d).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, U), path(U, Y).
		goal(Y) :- path(a, Y).
	`,
	"same-generation": `
		par(c1, p1). par(c2, p1). par(p1, g1). par(p2, g1).
		par(c3, p2). par(c4, p2). par(g1, gg). par(g2, gg).
		sg(X, Y) :- par(X, P), par(Y, P).
		sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
		goal(Y) :- sg(c1, Y).
	`,
	"mutual-recursion": `
		e(a, b). e(b, c). e(c, d). e(d, e0). e(e0, f).
		odd(X, Y) :- e(X, Y).
		odd(X, Y) :- even(X, U), e(U, Y).
		even(X, Y) :- odd(X, U), e(U, Y).
		goal(Y) :- even(a, Y).
	`,
	"diamond-nonlinear": `
		edge(a, b). edge(b, c). edge(c, d). edge(d, a). edge(d, e0).
		t(X, Y) :- edge(X, Y).
		t(X, Y) :- t(X, U), t(U, Y).
		goal(Y) :- t(a, Y).
	`,
	"all-free": `
		edge(a, b). edge(b, c).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(X, Y) :- path(X, Y).
	`,
	"non-recursive": `
		e(a, b). e(b, c). e(c, d).
		p2(X, Y) :- e(X, U), e(U, Y).
		p3(X, Y) :- p2(X, U), e(U, Y).
		goal(Y) :- p3(a, Y).
	`,
}

// TestPartitionedEquivalence is the core soundness check of hash-partitioned
// node processes: for every program shape and every partition count, the
// answer set must equal the minimum model — and hence the sequential run —
// exactly. Duplicate answers (dedup split across shards) and missing
// answers (a tuple routed to a shard that does not own its join slice) both
// fail here.
func TestPartitionedEquivalence(t *testing.T) {
	for name, src := range partitionPrograms {
		for _, p := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/p%d", name, p), func(t *testing.T) {
				res, db := runQueryOpts(t, src, nil, Options{Partitions: p})
				if got, want := renderSet(res.Answers, db), renderSetBottomup(t, src); got != want {
					t.Errorf("partitioned answers differ from minimum model\n got: %s\nwant: %s", got, want)
				}
			})
		}
	}
}

// TestPartitionedStrategiesAgree crosses partitioning with every
// information-passing strategy on the doubly recursive P1 program.
func TestPartitionedStrategiesAgree(t *testing.T) {
	for name, s := range map[string]rgg.Strategy{
		"greedy":   rgg.GreedyStrategy,
		"qualtree": rgg.QualTreeStrategy,
		"ltr":      rgg.LeftToRightStrategy,
	} {
		t.Run(name, func(t *testing.T) {
			res, db := runQueryOpts(t, p1data, s, Options{Partitions: 4})
			if got, want := renderSet(res.Answers, db), renderSetBottomup(t, p1data); got != want {
				t.Errorf("partitioned %s answers differ\n got: %s\nwant: %s", name, got, want)
			}
		})
	}
}

// TestPlanPartitionFallbacks pins the planner's "when in doubt, stay
// sequential" rules: EDB leaves and the driver never partition, and a rule
// whose recursive subgoals share no carried variable has no consistent
// partition key, so its whole node falls back to one process.
func TestPlanPartitionFallbacks(t *testing.T) {
	g, err := rgg.Build(parser.MustParse(p1data), rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts := planPartitions(g, 4)
	if len(parts) != len(g.Nodes)+1 {
		t.Fatalf("planPartitions returned %d specs for %d nodes + driver", len(parts), len(g.Nodes))
	}
	if parts[len(g.Nodes)] != nil {
		t.Error("driver got a partition spec")
	}
	partitioned := 0
	for id, sp := range parts[:len(g.Nodes)] {
		n := g.Nodes[id]
		if sp == nil {
			continue
		}
		partitioned++
		if n.Kind == rgg.Goal && n.EDB && len(dynamicPositions(n.Ad)) == 0 {
			t.Errorf("free-access EDB leaf %d partitioned", id)
		}
		if n.Kind == rgg.Goal && n.CycleTo != rgg.NoNode {
			t.Errorf("variant node %d partitioned", id)
		}
		if sp.n != 4 {
			t.Errorf("node %d: %d shards, want 4", id, sp.n)
		}
		// Every partitioned node routes somehow: inner nodes by a tuple
		// routing key, EDB leaves by the request binding (no inbound tuple
		// stream, so their key map is legitimately empty).
		if len(sp.key) == 0 && !(n.Kind == rgg.Goal && n.EDB) {
			t.Errorf("node %d: partitioned with an empty routing key", id)
		}
	}
	if partitioned == 0 {
		t.Error("no node partitioned on P1 — the planner is a no-op")
	}

	// No shared carried variable across subgoals: cart(X,Y) :- f(X), g(Y).
	// f sees only X, g only Y; the key-variable intersection is empty.
	g2, err := rgg.Build(parser.MustParse(`
		f(a). f(b). g(x). g(y).
		cart(X, Y) :- f(X), g(Y).
		goal(X, Y) :- cart(X, Y).
	`), rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Only the product rule itself lacks a key; goal(X,Y) :- cart(X,Y)
	// (one subgoal carrying both variables) partitions fine.
	for id, sp := range planPartitions(g2, 4)[:len(g2.Nodes)] {
		n := g2.Nodes[id]
		if n.Kind == rgg.Rule && len(n.Rule.Body) == 2 && sp != nil {
			t.Errorf("keyless product rule %d partitioned", id)
		}
	}
}

// TestPlanAlternatingPartitions drives one compiled Plan at alternating
// partition counts: the pooled scratch is built for a single worker wiring,
// so a run with a different count must get a fresh scratch set, never a
// recycled mismatched one.
func TestPlanAlternatingPartitions(t *testing.T) {
	prog := parser.MustParse(p1data)
	db := edb.FromProgram(prog)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlan(g, db)
	want := renderSetBottomup(t, p1data)
	for i, p := range []int{0, 4, 0, 2, 4, 4, 1, 8, 0} {
		res, err := pl.Run(Options{Partitions: p})
		if err != nil {
			t.Fatalf("run %d (partitions=%d): %v", i, p, err)
		}
		if got := renderSet(res.Answers, db); got != want {
			t.Errorf("run %d (partitions=%d): answers %s, want %s", i, p, got, want)
		}
	}
}

// TestPartitionedWorkerGauge checks the observability satellite: a
// partitioned run reports its worker-shard count, a sequential run reports
// zero.
func TestPartitionedWorkerGauge(t *testing.T) {
	seq, _ := runQueryOpts(t, p1data, nil, Options{})
	if seq.Stats.Workers != 0 {
		t.Errorf("sequential run reports %d workers", seq.Stats.Workers)
	}
	par, _ := runQueryOpts(t, p1data, nil, Options{Partitions: 4})
	if par.Stats.Workers == 0 {
		t.Error("partitioned run reports 0 workers")
	}
}

// TestPartitionedEDBOverTCP is the cross-site half of the tentpole: one
// logical base relation lives hash-partitioned across shard leaf nodes that
// Partition may place on different sites, and the answers must still match
// the unpartitioned single-process run.
func TestPartitionedEDBOverTCP(t *testing.T) {
	const sites = 2
	src := partitionPrograms["linear-tc"]
	prog := parser.MustParse(src)
	ropts := rgg.Options{PartitionEDB: map[ast.PredKey]int{{Name: "edge", Arity: 2}: sites}}
	g, err := rgg.Build(prog, ropts)
	if err != nil {
		t.Fatal(err)
	}
	shardLeaves := 0
	for _, n := range g.Nodes {
		if n.EDBShardOf > 1 {
			shardLeaves++
		}
	}
	if shardLeaves == 0 {
		t.Fatal("PartitionEDB built no shard leaves")
	}
	hosts := Partition(g, sites)

	addrs := make([]string, sites)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	locals := make([]*transport.Local, sites)
	nets := make([]*transport.TCP, sites)
	for i := 0; i < sites; i++ {
		locals[i] = transport.NewLocal(len(g.Nodes) + 1)
		n, err := transport.NewTCP(i, addrs, hosts, locals[i])
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = n.Addr()
		nets[i] = n
	}
	defer func() {
		for _, n := range nets {
			n.Close()
		}
	}()

	var wg sync.WaitGroup
	results := make([]*Result, sites)
	errs := make([]error, sites)
	for i := 0; i < sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			db := edb.FromProgram(parser.MustParse(src))
			// Intra-node worker shards on top of cross-site EDB shards:
			// both halves of the tentpole in one run.
			results[i], errs[i] = RunSites(g, db, nets[i], locals[i], hosts, i, Options{Partitions: 2})
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("partitioned distributed evaluation hung")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("site %d: %v", i, err)
		}
	}
	db := edb.FromProgram(parser.MustParse(src))
	if got, want := renderSet(results[0].Answers, db), renderSetBottomup(t, src); got != want {
		t.Errorf("partitioned-EDB distributed answers %s, want %s", got, want)
	}
}

// TestPartitionedEDBLocal runs the shard-leaf graphs single-process across
// several shard counts — separating PartitionEDB bugs from TCP ones.
func TestPartitionedEDBLocal(t *testing.T) {
	for name, src := range partitionPrograms {
		for _, shards := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/s%d", name, shards), func(t *testing.T) {
				prog := parser.MustParse(src)
				// Shard every base predicate the program mentions.
				pe := map[ast.PredKey]int{}
				for _, f := range prog.Facts {
					pe[f.Key()] = shards
				}
				g, err := rgg.Build(prog, rgg.Options{PartitionEDB: pe})
				if err != nil {
					t.Fatal(err)
				}
				db := edb.FromProgram(prog)
				res, err := Run(g, db, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := renderSet(res.Answers, db), renderSetBottomup(t, src); got != want {
					t.Errorf("sharded-EDB answers %s, want %s", got, want)
				}
			})
		}
	}
}

// TestPartitionedChaosSoak runs partitioned evaluation under injected
// faults: worker shards add goroutines per node, so abort paths (deadline,
// site crash) must still tear every shard down without hanging or
// corrupting answers. Mirrors TestChaosSoak's contract: byte-identical
// answers or a typed abort, never silence or hangs.
func TestPartitionedChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	prog := workload.Program(workload.TCRules, workload.Grid("edge", 6, 6))
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mkDB := func() *edb.Database { return workload.DB(prog) }
	baselineRes, err := Run(g, mkDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := renderSet(baselineRes.Answers, mkDB())

	scenarios := []struct {
		name      string
		configure func(fn *transport.FaultNet, hosts []int, local *transport.Local)
		strict    bool
	}{
		{name: "clean", strict: true},
		{name: "delay-all", strict: true,
			configure: func(fn *transport.FaultNet, hosts []int, local *transport.Local) {
				fn.AddLink(transport.LinkFault{From: transport.AnySite, To: transport.AnySite,
					Delay: 100 * time.Microsecond, Jitter: 400 * time.Microsecond})
			}},
		{name: "crash-site",
			configure: func(fn *transport.FaultNet, hosts []int, local *transport.Local) {
				fn.OnCrash(2, func() {
					for id, h := range hosts {
						if h == 2 {
							local.Boxes[id].Close()
						}
					}
				})
				fn.AddCrash(transport.SiteCrash{Site: 2, AfterSends: 2})
			}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			res, derr, errs, faultDrops := chaosSites(t, g, mkDB, 3, sc.configure,
				Options{Deadline: 4 * time.Second, Partitions: 4})
			for i, e := range errs[1:] {
				if e != nil && !typedAbort(e) {
					t.Errorf("site %d returned untyped error: %v", i+1, e)
				}
			}
			switch {
			case derr == nil:
				if got := renderSet(res.Answers, mkDB()); got != baseline {
					t.Errorf("partitioned answers diverged under %s:\n got %s\nwant %s", sc.name, got, baseline)
				}
			case typedAbort(derr):
				if sc.strict {
					t.Errorf("lossless schedule aborted: %v", derr)
				}
			default:
				t.Errorf("untyped driver error: %v", derr)
			}
			t.Logf("driver err=%v faultDrops=%d", derr, faultDrops)
		})
	}
}

// TestPartitionedRandomGraphs cross-checks partitioned evaluation against
// semi-naive on randomized EDBs — the same shapes TestEngineRandomGraphs
// uses, with worker shards on.
func TestPartitionedRandomGraphs(t *testing.T) {
	shapes := []string{
		`path(X, Y) :- edge(X, Y).
		 path(X, Y) :- path(X, U), edge(U, Y).
		 goal(Y) :- path(n0, Y).`,
		`t(X, Y) :- edge(X, Y).
		 t(X, Y) :- t(X, U), t(U, Y).
		 goal(Y) :- t(n0, Y).`,
		`p(X, Y) :- p(X, U), q(U, V), p(V, Y).
		 p(X, Y) :- edge(X, Y).
		 goal(Z) :- p(n0, Z).`,
		`sg(X, Y) :- edge(X, P), edge(Y, P).
		 sg(X, Y) :- edge(X, XP), sg(XP, YP), edge(Y, YP).
		 goal(Y) :- sg(n0, Y).`,
	}
	rng := rand.New(rand.NewSource(7))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		shape := shapes[trial%len(shapes)]
		n := 4 + rng.Intn(8)
		edges := 1 + rng.Intn(3*n)
		src := ""
		for k := 0; k < edges; k++ {
			src += fmt.Sprintf("edge(n%d, n%d).\n", rng.Intn(n), rng.Intn(n))
		}
		src += fmt.Sprintf("edge(n0, n%d).\n", rng.Intn(n))
		src += "q(n1, n2). q(n2, n0).\n"
		src += shape
		p := []int{2, 4, 8}[trial%3]
		t.Run(fmt.Sprintf("trial%d/p%d", trial, p), func(t *testing.T) {
			res, db := runQueryOpts(t, src, nil, Options{Partitions: p})
			if got, want := renderSet(res.Answers, db), renderSetBottomup(t, src); got != want {
				t.Errorf("partitioned answers differ\n got: %s\nwant: %s\nprogram:\n%s", got, want, src)
			}
		})
	}
}
