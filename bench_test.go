// Benchmarks E1–E11 mirror the experiment suite in DESIGN.md / cmd/bench:
// one benchmark per paper figure or claim, so `go test -bench=. -benchmem`
// regenerates the performance side of EXPERIMENTS.md. Micro-benchmarks for
// the substrates (parser, relations, mailboxes) follow.
package mpq

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/adorn"
	"repro/internal/bottomup"
	"repro/internal/edb"
	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/msg"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/symtab"
	"repro/internal/transport"
	"repro/internal/workload"
)

const p1bench = `
	goal(Z) :- p(n0, Z).
	p(X, Y) :- p(X, U), q(U, V), p(V, Y).
	p(X, Y) :- r(X, Y).
	r(n0, n1). q(n1, n1).
`

// BenchmarkE1GraphConstruction measures information-passing rule/goal graph
// construction for the paper's P1 (Fig 1).
func BenchmarkE1GraphConstruction(b *testing.B) {
	prog := parser.MustParse(p1bench)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rgg.Build(prog, rgg.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2P1Evaluation runs the message engine on Example 2.1 data.
func BenchmarkE2P1Evaluation(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	prog := workload.Program(workload.P1Rules, workload.P1Data(32, 0.7, rng))
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := edb.FromProgram(prog)
		if _, err := engine.Run(g, db, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3TerminationProtocol exercises the Fig 2 protocol over a large
// strong component (4 mutually recursive predicates on a cycle graph).
func BenchmarkE3TerminationProtocol(b *testing.B) {
	src := "goal(Y) :- p0(n0, Y).\np0(X, Y) :- e(X, Y).\n"
	for i := 0; i < 4; i++ {
		src += fmt.Sprintf("p%d(X, Y) :- p%d(X, U), e(U, Y).\n", i, (i+1)%4)
	}
	prog := parser.MustParse(src)
	prog.Facts = append(prog.Facts, workload.Cycle("e", 16)...)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := edb.FromProgram(prog)
		if _, err := engine.Run(g, db, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4GYO measures the Graham reduction on the paper's R2 and R3.
func BenchmarkE4GYO(b *testing.B) {
	progR2 := parser.MustParse(`p(X, Z) :- a(X, Y, V), b(Y, U), c(V, T), d(T), e(U, Z).`)
	progR3 := parser.MustParse(`p(X, Z) :- a(X, Y, V), b(Y, W, U), c(V, W, T), d(T), e(U, Z).`)
	ad := adorn.Adornment{adorn.Dynamic, adorn.Free}
	h2 := adorn.EvaluationHypergraph(progR2.Rules[0], ad)
	h3 := adorn.EvaluationHypergraph(progR3.Rules[0], ad)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !h2.Reduce().Acyclic {
			b.Fatal("R2 must be acyclic")
		}
		if h3.Reduce().Acyclic {
			b.Fatal("R3 must be cyclic")
		}
	}
}

// BenchmarkE5QualTreeSIP builds the Theorem 4.1 strategy for R2.
func BenchmarkE5QualTreeSIP(b *testing.B) {
	prog := parser.MustParse(`p(X, Z) :- a(X, Y, V), b(Y, U), c(V, T), d(T), e(U, Z).`)
	ad := adorn.Adornment{adorn.Dynamic, adorn.Free}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, ok := adorn.QualTreeSIP(prog.Rules[0], ad)
		if !ok || s.IsGreedy() != -1 {
			b.Fatal("Theorem 4.1 violated")
		}
	}
}

// BenchmarkE6Composition measures Theorem 4.2 qual-tree composition
// (Fig 5's shape).
func BenchmarkE6Composition(b *testing.B) {
	hu := hypergraph.Evaluation("r", []string{"X"}, []hypergraph.Edge{
		hypergraph.NewEdge("q", "X", "Y"),
		hypergraph.NewEdge("s", "Y"),
		hypergraph.NewEdge("p", "Y", "Z"),
	})
	tu, _ := hu.QualTree(0)
	hw := hypergraph.Evaluation("p", []string{"Y"}, []hypergraph.Edge{
		hypergraph.NewEdge("a", "Y", "W"),
		hypergraph.NewEdge("b", "W", "Z"),
	})
	tw, _ := hw.QualTree(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, tc, err := hypergraph.Compose(tu, 3, tw)
		if err != nil || tc.Check() != "" {
			b.Fatal("Theorem 4.2 violated")
		}
	}
}

// BenchmarkE7 compares §1.1 brute force against semi-naive and the engine
// on a 10-constant chain.
func BenchmarkE7BruteForce(b *testing.B) {
	prog := workload.Program(workload.TCRules, workload.Chain("edge", 10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bottomup.BruteForce(prog, edb.FromProgram(prog))
	}
}

func BenchmarkE7SemiNaive(b *testing.B) {
	prog := workload.Program(workload.TCRules, workload.Chain("edge", 10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bottomup.SemiNaive(prog, edb.FromProgram(prog))
	}
}

func BenchmarkE7Engine(b *testing.B) {
	prog := workload.Program(workload.TCRules, workload.Chain("edge", 10))
	g, _ := rgg.Build(prog, rgg.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(g, edb.FromProgram(prog), engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8 evaluates the §4.3 monotone (R2) and cyclic (R3) shapes.
func BenchmarkE8MonotoneR2(b *testing.B) {
	r2, _ := workload.MonotonePrograms(20, 6)
	g, _ := rgg.Build(r2, rgg.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(g, edb.FromProgram(r2), engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8CyclicR3(b *testing.B) {
	_, r3 := workload.MonotonePrograms(20, 6)
	g, _ := rgg.Build(r3, rgg.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(g, edb.FromProgram(r3), engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9 measures the §1.2 relevance restriction: a point query on a
// 16-component graph, engine vs full bottom-up.
func BenchmarkE9RestrictionEngine(b *testing.B) {
	prog := workload.Program(workload.TCRules, workload.Components("edge", 16, 16))
	g, _ := rgg.Build(prog, rgg.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(g, edb.FromProgram(prog), engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9RestrictionSemiNaive(b *testing.B) {
	prog := workload.Program(workload.TCRules, workload.Components("edge", 16, 16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bottomup.SemiNaive(prog, edb.FromProgram(prog))
	}
}

// BenchmarkE10 exercises nonlinear recursion (divide-and-conquer transitive
// closure).
func BenchmarkE10Nonlinear(b *testing.B) {
	prog := workload.Program(workload.NonlinearTCRules, workload.Chain("edge", 24))
	g, _ := rgg.Build(prog, rgg.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(g, edb.FromProgram(prog), engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11 compares in-process evaluation with a 2-site TCP cluster on
// the same query.
func BenchmarkE11InProcess(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	prog := workload.Program(workload.P1Rules, workload.P1Data(16, 0.7, rng))
	g, _ := rgg.Build(prog, rgg.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(g, edb.FromProgram(prog), engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11TCPTwoSites(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	prog := workload.Program(workload.P1Rules, workload.P1Data(16, 0.7, rng))
	g, _ := rgg.Build(prog, rgg.Options{})
	const sites = 2
	hosts := engine.Partition(g, sites)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addrs := make([]string, sites)
		for j := range addrs {
			addrs[j] = "127.0.0.1:0"
		}
		locals := make([]*transport.Local, sites)
		nets := make([]*transport.TCP, sites)
		for j := 0; j < sites; j++ {
			locals[j] = transport.NewLocal(len(g.Nodes) + 1)
			n, err := transport.NewTCP(j, addrs, hosts, locals[j])
			if err != nil {
				b.Fatal(err)
			}
			addrs[j] = n.Addr()
			nets[j] = n
		}
		var wg sync.WaitGroup
		for j := 0; j < sites; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				db := edb.FromProgram(prog)
				if _, err := engine.RunSites(g, db, nets[j], locals[j], hosts, j, engine.Options{}); err != nil {
					b.Error(err)
				}
			}(j)
		}
		wg.Wait()
		for _, n := range nets {
			n.Close()
		}
	}
}

// BenchmarkA1 ablates the information passing strategy on the scrambled
// ancestor query of experiment A1.
func benchmarkStrategy(b *testing.B, s rgg.Strategy) {
	prog := workload.Program(`
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(U, Y), anc(X, U).
		goal(A) :- anc(n0, A).
	`, workload.Components("par", 4, 32))
	g, err := rgg.Build(prog, rgg.Options{Strategy: s})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(g, edb.FromProgram(prog), engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA1Greedy(b *testing.B)      { benchmarkStrategy(b, rgg.GreedyStrategy) }
func BenchmarkA1QualTree(b *testing.B)    { benchmarkStrategy(b, rgg.QualTreeStrategy) }
func BenchmarkA1LeftToRight(b *testing.B) { benchmarkStrategy(b, rgg.LeftToRightStrategy) }
func BenchmarkA1Basic(b *testing.B)       { benchmarkStrategy(b, rgg.BasicStrategy) }

// BenchmarkA2Packaged runs the cross-product workload of experiment A2,
// where one handled message generates many (packaged) tuple requests.
func BenchmarkA2Packaged(b *testing.B) {
	src := ""
	for i := 1; i <= 25; i++ {
		src += fmt.Sprintf("a(x%d). b(y%d). g(x%d, y%d, z%d).\n", i, i, i, i, i)
	}
	src += `
		r(Z) :- a(X), b(Y), g(X, Y, Z).
		goal(Z) :- r(Z).
	`
	prog := parser.MustParse(src)
	g, err := rgg.Build(prog, rgg.Options{Strategy: rgg.LeftToRightStrategy})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(g, edb.FromProgram(prog), engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- substrate micro-benchmarks -------------------------------------------

func BenchmarkParser(b *testing.B) {
	src := p1bench
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRelationInsert(b *testing.B) {
	b.ReportAllocs()
	r := relation.New(2)
	for i := 0; i < b.N; i++ {
		r.Insert(relation.Tuple{symtab.Sym(i % 4096), symtab.Sym(i % 977)})
	}
}

func BenchmarkRelationJoin(b *testing.B) {
	left := relation.New(2)
	right := relation.New(2)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		left.Insert(relation.Tuple{symtab.Sym(rng.Intn(500) + 1), symtab.Sym(rng.Intn(500) + 1)})
		right.Insert(relation.Tuple{symtab.Sym(rng.Intn(500) + 1), symtab.Sym(rng.Intn(500) + 1)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relation.Join(left, right, []relation.EqPair{{L: 1, R: 0}})
	}
}

func BenchmarkRelationSemiJoin(b *testing.B) {
	left := relation.New(2)
	right := relation.New(1)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		left.Insert(relation.Tuple{symtab.Sym(rng.Intn(500) + 1), symtab.Sym(rng.Intn(500) + 1)})
		right.Insert(relation.Tuple{symtab.Sym(rng.Intn(500) + 1)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relation.SemiJoin(left, right, []relation.EqPair{{L: 0, R: 0}})
	}
}

// BenchmarkRelationInsertDup measures duplicate rejection — the hot case
// for set-semantics evaluation. The tentpole claim: 0 allocs/op.
func BenchmarkRelationInsertDup(b *testing.B) {
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

// BenchmarkRelationJoin2Col measures a 2-column equijoin: one composite
// index probe per tuple of the larger side, no post-filter scan.
func BenchmarkRelationJoin2Col(b *testing.B) {
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

// BenchmarkWideWavefront runs the E7 query family (TC reachability) on a
// wide-wavefront random graph, where packaged delivery collapses the frame
// count (see TestPackagedMessageDrop for the ratio assertion).
func BenchmarkWideWavefront(b *testing.B) {
	prog := workload.Program(workload.TCRules, workload.Random("edge", 64, 512, rand.New(rand.NewSource(11))))
	g, _ := rgg.Build(prog, rgg.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(g, edb.FromProgram(prog), engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMailbox(b *testing.B) {
	mb := transport.NewMailbox()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mb.Put(msg.Message{Kind: msg.Tuple, N: i})
		if _, ok := mb.Get(); !ok {
			b.Fatal("closed")
		}
	}
}

func BenchmarkFacadeEval(b *testing.B) {
	sys := MustLoad(`
		edge(a, b). edge(b, c). edge(c, d).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(Y) :- path(a, Y).
	`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Eval(); err != nil {
			b.Fatal(err)
		}
	}
}
