package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/edb"
	"repro/internal/parser"
	"repro/internal/rgg"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestEngineOverTCP runs the P1 query with node processes split across
// three sites connected by real TCP sockets — the paper's "no shared memory
// is required" claim, end to end. Each site loads the same program (so the
// symbol tables agree) and hosts a subset of nodes; the driver runs on
// site 0.
func TestEngineOverTCP(t *testing.T) {
	const sites = 3
	prog := parser.MustParse(p1data)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hosts := Partition(g, sites)

	// Bind every site's listener first so addresses are known, then build
	// the transports that dial lazily.
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
			// Every site loads its own copy of the database; nothing is
			// shared between sites but the sockets.
			db := edb.FromProgram(parser.MustParse(p1data))
			results[i], errs[i] = RunSites(g, db, nets[i], locals[i], hosts, i, Options{})
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("distributed evaluation hung")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("site %d: %v", i, err)
		}
	}
	if results[0] == nil {
		t.Fatal("driver site returned no result")
	}
	for i := 1; i < sites; i++ {
		if results[i] != nil {
			t.Errorf("non-driver site %d returned a result", i)
		}
	}

	// Compare against a single-process run.
	db := edb.FromProgram(parser.MustParse(p1data))
	want, err := Run(g, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := renderSet(results[0].Answers, db) // same interning order across sites
	if got != renderSet(want.Answers, db) {
		t.Errorf("distributed answers %s != local answers %s", got, renderSet(want.Answers, db))
	}
	if results[0].Answers.Len() == 0 {
		t.Error("no answers over TCP")
	}
}

// TestTCPSitesCloseAsTheyFinish runs clean 3-site evaluations in which
// every site closes its transport as soon as its own RunSites returns, as
// mpqd does. A site that finished and left must read as a departure, not a
// failure, and the driver must not send a site anything after it left:
// every site returns nil with no PeerDown and no dropped send, and every
// round ends far inside the 10s default dial window.
func TestTCPSitesCloseAsTheyFinish(t *testing.T) {
	const sites, rounds = 3, 100
	mkProg := func() *ast.Program { return workload.Program(workload.TCRules, workload.Chain("edge", 60)) }
	g, err := rgg.Build(mkProg(), rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hosts := Partition(g, sites)
	want, err := Run(g, workload.DB(mkProg()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		addrs := make([]string, sites)
		for i := range addrs {
			addrs[i] = "127.0.0.1:0"
		}
		locals := make([]*transport.Local, sites)
		nets := make([]*transport.TCP, sites)
		stats := make([]*trace.Stats, sites)
		for i := 0; i < sites; i++ {
			locals[i] = transport.NewLocal(len(g.Nodes) + 1)
			stats[i] = &trace.Stats{}
			n, err := transport.NewTCPConfig(i, addrs, hosts, locals[i], transport.Config{Stats: stats[i]})
			if err != nil {
				t.Fatal(err)
			}
			addrs[i] = n.Addr()
			nets[i] = n
		}
		start := time.Now()
		var wg sync.WaitGroup
		results := make([]*Result, sites)
		errs := make([]error, sites)
		for i := 0; i < sites; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], errs[i] = RunSites(g, workload.DB(mkProg()), nets[i], locals[i], hosts, i, Options{})
				nets[i].Close()
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		for i := 0; i < sites; i++ {
			if errs[i] != nil {
				t.Fatalf("round %d: site %d: %v", round, i, errs[i])
			}
			if sn := stats[i].Snapshot(); sn.PeerDowns != 0 || sn.DroppedSends != 0 {
				t.Fatalf("round %d: site %d: PeerDowns=%d DroppedSends=%d, want 0 and 0", round, i, sn.PeerDowns, sn.DroppedSends)
			}
		}
		if elapsed >= 2*time.Second {
			t.Fatalf("round %d took %v, want under 2s", round, elapsed)
		}
		if got := results[0].Answers.Len(); got != want.Answers.Len() {
			t.Fatalf("round %d: %d answers, want %d", round, got, want.Answers.Len())
		}
	}
}

func TestPartitionCoLocatesComponents(t *testing.T) {
	prog := parser.MustParse(p1data)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sites := range []int{1, 2, 3, 7} {
		hosts := Partition(g, sites)
		for _, members := range g.SCCs {
			for _, m := range members {
				if hosts[m] != hosts[members[0]] {
					t.Errorf("sites=%d: component split across %d and %d", sites, hosts[m], hosts[members[0]])
				}
			}
		}
		for _, h := range hosts {
			if h < 0 || h >= sites {
				t.Errorf("sites=%d: host %d out of range", sites, h)
			}
		}
		if hosts[len(g.Nodes)] != 0 || hosts[g.Root] != 0 {
			t.Errorf("driver/root not on site 0")
		}
	}
}

func TestRunSitesRejectsSplitComponent(t *testing.T) {
	prog := parser.MustParse(p1data)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]int, len(g.Nodes)+1)
	// Deliberately split the first nontrivial component.
	for _, members := range g.SCCs {
		if len(members) > 1 {
			hosts[members[0]] = 1
			break
		}
	}
	db := edb.FromProgram(prog)
	local := transport.NewLocal(len(g.Nodes) + 1)
	if _, err := RunSites(g, db, local, local, hosts, 0, Options{}); err == nil {
		t.Error("RunSites accepted a split strong component")
	}
}

func TestRunSitesRejectsBadHosts(t *testing.T) {
	prog := parser.MustParse(p1data)
	g, _ := rgg.Build(prog, rgg.Options{})
	db := edb.FromProgram(prog)
	local := transport.NewLocal(len(g.Nodes) + 1)
	if _, err := RunSites(g, db, local, local, []int{0}, 0, Options{}); err == nil {
		t.Error("RunSites accepted wrong-length hosts")
	}
}

// shapePrograms covers the structural cases of the engine: linear and
// right-linear recursion, the doubly recursive P1 rule, nonlinear (diamond)
// recursion joining a node to itself, mutual recursion across a component,
// same-generation (sideways information passing), an all-free root, and a
// non-recursive pipeline.
var shapePrograms = map[string]string{
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

// siteDB is site's share of prog's facts under hosts: only the base
// relations read there — by its hosted EDB leaves that keep a process, and
// by its hosted rules, which join their other base subgoals in place — so
// the data lives where it is read. Every constant is still interned in
// program order, so symbol ids agree across sites exactly as with
// edb.FromProgram.
func siteDB(prog *ast.Program, g *rgg.Graph, hosts []int, site int) *edb.Database {
	reads := map[ast.PredKey]bool{}
	for id, n := range g.Nodes {
		if n.EDB && (inPlace(n) && hosts[n.Parent] == site || !inPlace(n) && hosts[id] == site) {
			reads[n.Atom.Key()] = true
		}
	}
	db := edb.New()
	for _, f := range prog.Facts {
		if reads[f.Key()] {
			db.AddFact(f)
			continue
		}
		for _, a := range f.Args {
			db.Syms.Intern(a.Const)
		}
	}
	return db
}

// sitePlacement is Partition's placement with the EDB leaves then dealt
// round-robin over the sites from site 1 on — a leaf is a strong component of
// its own, so it may live anywhere — so that siteDB leaves every site,
// the driver's included, without part of the data whatever the shape.
func sitePlacement(g *rgg.Graph, sites int) []int {
	hosts := Partition(g, sites)
	k := 1
	for id, n := range g.Nodes {
		if n.EDB && id != g.Root {
			hosts[id] = k % sites
			k++
		}
	}
	return hosts
}

// runSitesLocal evaluates g across in-process sites placed by hosts, no
// fault injected, each site's database made by mkDB, and returns the
// driver's result.
func runSitesLocal(t *testing.T, g *rgg.Graph, mkDB func(site int) *edb.Database, hosts []int) *Result {
	t.Helper()
	res, _, errs, _ := chaosSites(t, g, mkDB, hosts, nil, Options{})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("site %d: %v", i, err)
		}
	}
	return res
}

// TestPartitionedEquivalence places every program shape across 2, 4 and 8
// in-process sites (Partition) and checks the driver's answers equal the
// minimum model: only per-link FIFO order crosses a site boundary, and the
// protocol needs no more.
func TestPartitionedEquivalence(t *testing.T) {
	for name, src := range shapePrograms {
		prog := parser.MustParse(src)
		g, err := rgg.Build(prog, rgg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sites := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/p%d", name, sites), func(t *testing.T) {
				res := runSitesLocal(t, g, func(int) *edb.Database { return edb.FromProgram(prog) }, Partition(g, sites))
				if got, want := renderSet(res.Answers, edb.FromProgram(prog)), renderSetBottomup(t, src); got != want {
					t.Errorf("answers across %d sites differ from the minimum model\n got: %s\nwant: %s", sites, got, want)
				}
			})
		}
	}
}

// TestPartitionedStrategiesAgree crosses multi-site placement with every
// information-passing strategy on the doubly recursive P1 program.
func TestPartitionedStrategiesAgree(t *testing.T) {
	prog := parser.MustParse(p1data)
	for name, s := range map[string]rgg.Strategy{
		"greedy":   rgg.GreedyStrategy,
		"qualtree": rgg.QualTreeStrategy,
		"ltr":      rgg.LeftToRightStrategy,
	} {
		t.Run(name, func(t *testing.T) {
			g, err := rgg.Build(prog, rgg.Options{Strategy: s})
			if err != nil {
				t.Fatal(err)
			}
			res := runSitesLocal(t, g, func(int) *edb.Database { return edb.FromProgram(prog) }, Partition(g, 3))
			if got, want := renderSet(res.Answers, edb.FromProgram(prog)), renderSetBottomup(t, p1data); got != want {
				t.Errorf("%s across 3 sites: answers %s, want %s", name, got, want)
			}
		})
	}
}

// TestPartitionedEDBLocal distributes evaluation by where the data lives:
// each in-process site stores only the base relations its own EDB leaves
// read (siteDB), so every answer that needs another site's rows must cross
// a site boundary as tuples.
func TestPartitionedEDBLocal(t *testing.T) {
	for name, src := range shapePrograms {
		prog := parser.MustParse(src)
		g, err := rgg.Build(prog, rgg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sites := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/s%d", name, sites), func(t *testing.T) {
				hosts := sitePlacement(g, sites)
				res := runSitesLocal(t, g, func(site int) *edb.Database { return siteDB(prog, g, hosts, site) }, hosts)
				if got, want := renderSet(res.Answers, edb.FromProgram(prog)), renderSetBottomup(t, src); got != want {
					t.Errorf("site-local data: answers %s, want %s", got, want)
				}
			})
		}
	}
}

// TestPartitionedEDBOverTCP is TestPartitionedEDBLocal over real sockets
// under a lossless chaos spec, wired as mpqd wires it: each site's TCP
// transport wrapped in a FaultNet that delays every frame by a seeded
// jitter. The answers must still match the minimum model exactly.
func TestPartitionedEDBOverTCP(t *testing.T) {
	const sites = 2
	src := shapePrograms["linear-tc"]
	prog := parser.MustParse(src)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hosts := sitePlacement(g, sites)
	links, _, err := transport.ParseChaos("delay:*-*:100us:400us")
	if err != nil {
		t.Fatal(err)
	}

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
		fn := transport.NewFaultNet(nets[i], hosts, int64(i+1))
		for _, l := range links {
			fn.AddLink(l)
		}
		defer fn.Close()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunSites(g, siteDB(prog, g, hosts, i), fn, locals[i], hosts, i, Options{})
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("distributed evaluation hung")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("site %d: %v", i, err)
		}
	}
	if got, want := renderSet(results[0].Answers, edb.FromProgram(prog)), renderSetBottomup(t, src); got != want {
		t.Errorf("site-local data over TCP: answers %s, want %s", got, want)
	}
}

// TestPartitionedChaosSoak runs site-local data (siteDB) under injected
// faults: a site that crashes takes the only copy of its relations with it,
// so the contract is TestChaosSoak's — byte-identical answers or a typed
// abort, never silence or hangs.
func TestPartitionedChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	prog := workload.Program(workload.TCRules, workload.Grid("edge", 6, 6))
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hosts := sitePlacement(g, 3)
	mkDB := func(site int) *edb.Database { return siteDB(prog, g, hosts, site) }
	baselineRes, err := Run(g, workload.DB(prog), Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := renderSet(baselineRes.Answers, workload.DB(prog))

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
		t.Run(sc.name, func(t *testing.T) {
			res, derr, errs, faultDrops := chaosSites(t, g, mkDB, hosts, sc.configure,
				Options{Deadline: 4 * time.Second})
			for i, e := range errs[1:] {
				if e != nil && !typedAbort(e) {
					t.Errorf("site %d returned untyped error: %v", i+1, e)
				}
			}
			switch {
			case derr == nil:
				if got := renderSet(res.Answers, workload.DB(prog)); got != baseline {
					t.Errorf("answers diverged under %s:\n got %s\nwant %s", sc.name, got, baseline)
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

// randomGraphShapes are recursive rule sets over a random edge relation:
// linear and nonlinear closure, a three-subgoal recursion through q, and
// same-generation.
var randomGraphShapes = []string{
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

// randomGraphProgram is one of randomGraphShapes over a random graph of at
// most a dozen nodes with an edge out of n0.
func randomGraphProgram(rng *rand.Rand, shape string) string {
	n := 4 + rng.Intn(8)
	src := ""
	for k, edges := 0, 1+rng.Intn(3*n); k < edges; k++ {
		src += fmt.Sprintf("edge(n%d, n%d).\n", rng.Intn(n), rng.Intn(n))
	}
	src += fmt.Sprintf("edge(n0, n%d).\n", rng.Intn(n))
	src += "q(n1, n2). q(n2, n0).\n"
	return src + shape
}

// TestPartitionedRandomGraphs cross-checks evaluation with site-local data
// across 2, 4 and 8 in-process sites against semi-naive on random graphs.
func TestPartitionedRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		src := randomGraphProgram(rng, randomGraphShapes[trial%len(randomGraphShapes)])
		sites := []int{2, 4, 8}[trial%3]
		t.Run(fmt.Sprintf("trial%d/p%d", trial, sites), func(t *testing.T) {
			prog := parser.MustParse(src)
			g, err := rgg.Build(prog, rgg.Options{})
			if err != nil {
				t.Fatal(err)
			}
			hosts := sitePlacement(g, sites)
			res := runSitesLocal(t, g, func(site int) *edb.Database { return siteDB(prog, g, hosts, site) }, hosts)
			if got, want := renderSet(res.Answers, edb.FromProgram(prog)), renderSetBottomup(t, src); got != want {
				t.Errorf("answers across %d sites differ\n got: %s\nwant: %s\nprogram:\n%s", sites, got, want, src)
			}
		})
	}
}

// TestPlanAlternatingPartitions drives one compiled Plan alternately through
// pooled single-site runs and runs of the same plan partitioned across 2 and
// 4 in-process sites (one scratch per site, built as RunSites builds them):
// site scratches never enter the pool, and a pooled scratch never sees a
// site's wiring.
func TestPlanAlternatingPartitions(t *testing.T) {
	prog := parser.MustParse(p1data)
	db := edb.FromProgram(prog)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlan(g, db)
	want := renderSetBottomup(t, p1data)
	for i, sites := range []int{1, 4, 1, 2, 4, 4, 1, 2, 1} {
		var res *Result
		if sites == 1 {
			res, err = pl.Run(Options{})
		} else {
			res, err = runPlanSites(pl, sites)
		}
		if err != nil {
			t.Fatalf("run %d (sites=%d): %v", i, sites, err)
		}
		if got := renderSet(res.Answers, db); got != want {
			t.Errorf("run %d (sites=%d): answers %s, want %s", i, sites, got, want)
		}
	}
}

// runPlanSites runs pl across in-process sites sharing one mailbox set, each
// site on a scratch of its own, and returns the driver's result.
func runPlanSites(pl *Plan, sites int) (*Result, error) {
	hosts := Partition(pl.g, sites)
	local := transport.NewLocal(len(pl.g.Nodes) + 1)
	results, errs := make([]*Result, sites), make([]error, sites)
	var wg sync.WaitGroup
	for i := 0; i < sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if slices.Contains(hosts, i) {
				results[i], errs[i] = pl.runOn(pl.siteScratch(local, local, hosts, i), Options{}, false, false, nil)
			}
		}(i)
	}
	wg.Wait()
	return results[0], errors.Join(errs...)
}
