package main

import (
	"bufio"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro"
)

// miniD is a three-cluster miniature of D, small enough for the semi-naive
// engine to compute whole transitive closures in a test.
var miniD = dShape{clusters: 3, nodes: 40, edges: 160}

func TestPercentileAndTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
	// The tail is the highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestFoldReportsTheMedianWindow: steady work gives its own rate and latency;
// one slow window out of ten moves neither.
func TestFoldReportsTheMedianWindow(t *testing.T) {
	const timed = 10 * time.Second
	var steady, burst tally
	for at := time.Duration(0); at < timed; at += 250 * time.Millisecond {
		steady.samples = append(steady.samples, sample{at: at, took: 250 * time.Millisecond})
		if at < time.Second { // the first window is four times slower
			if at == 0 {
				burst.samples = append(burst.samples, sample{at: 0, took: time.Second})
			}
			continue
		}
		burst.samples = append(burst.samples, sample{at: at, took: 250 * time.Millisecond})
	}
	for name, tl := range map[string]*tally{"steady": &steady, "burst": &burst} {
		r := &e2e{}
		r.fold([]*tally{tl}, timed)
		if r.P50 != 250 || r.P95 != 250 || math.Abs(r.Throughput-4) > 1e-9 {
			t.Errorf("%s: p50 %g ms, p95 %g ms, %g ops/s; want 250, 250, 4", name, r.P50, r.P95, r.Throughput)
		}
	}
	// An operation counts where its time went: two connections, each with
	// back-to-back 1.5 s operations, complete 4/3 operations a second in
	// every window although no window holds a whole one.
	var long tally
	for at := time.Duration(0); at < timed; at += 1500 * time.Millisecond {
		long.samples = append(long.samples, sample{at: at, took: 1500 * time.Millisecond})
	}
	r := &e2e{}
	r.fold([]*tally{&long, &long}, timed)
	if math.Abs(r.Throughput-4.0/3) > 1e-9 {
		t.Errorf("spanning operations: %g ops/s, want 4/3", r.Throughput)
	}
}

// TestSeedDeterminism: the seed is the only source of randomness, so equal
// seeds give byte-identical program text and request streams, and reach_mem
// and reach_disk see the same requests.
func TestSeedDeterminism(t *testing.T) {
	lines := func(wl workload, seed int64) string {
		ds := wl.dataset(seed, miniD)
		s := wl.stream(seed, 0, ds)
		var b strings.Builder
		b.WriteString(ds.program())
		for i := 0; i < 200; i++ {
			b.WriteString(s.next().line)
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, wl := range workloads {
		a, b := lines(wl, 7), lines(wl, 7)
		if a != b {
			t.Errorf("%s: two generations from seed 7 differ", wl.name)
		}
		if wl.kind != opSG && lines(wl, 8) == a {
			t.Errorf("%s: seeds 7 and 8 generate the same input", wl.name)
		}
	}
	mem, _ := findWorkload("reach_mem")
	disk, _ := findWorkload("reach_disk")
	if lines(mem, 7) != lines(disk, 7) {
		t.Error("reach_mem and reach_disk streams differ for one seed")
	}
	mixed, _ := findWorkload("mixed_rw")
	if n := strings.Count(lines(mixed, 7), "\nfact "); n != 200/mixedWriteGap {
		t.Errorf("mixed_rw: %d facts in 200 operations, want %d", n, 200/mixedWriteGap)
	}
}

// TestOracleAgreesWithSemiNaive checks the generator's breadth-first oracle
// against a different evaluator of the program under test: bottom-up
// semi-naive, which shares no code with the message-passing engine.
func TestOracleAgreesWithSemiNaive(t *testing.T) {
	g := genD(11, miniD)
	orc := g.oracle()
	facts := strings.SplitN(g.program(), "\n", 4)[3] // after the two rules and the query
	for _, u := range []int32{0, 1, 39, 40, 77, 119} {
		for _, kind := range []opKind{opPoint, opReach} {
			q := g.query(kind, u)
			sys, err := mpq.Load(reachRules + q.line + "\n" + facts)
			if err != nil {
				t.Fatal(err)
			}
			ans, err := sys.Eval(mpq.WithEngine(mpq.SemiNaive))
			if err != nil {
				t.Fatal(err)
			}
			if msg := check(q, answerReply(ans), nil, orc); msg != "" {
				t.Errorf("oracle disagrees with semi-naive: %s", msg)
			}
		}
	}
}

func TestReadReply(t *testing.T) {
	in := "T a\tb\nT c\td\n. 2 plan=hit\n" +
		"T\n. 1 plan=miss\n" +
		". 0 plan=hit\n" +
		"E mpq: parse error at 1:3\n" +
		"+ 1 v=42\n" +
		"+ 0 v=42\n" +
		"T x\n~ 1 v=43\n" +
		"? what\n"
	r := bufio.NewReader(strings.NewReader(in))
	two := lineHash([]byte("a\tb")) + lineHash([]byte("c\td"))
	want := []reply{
		{term: '.', n: 2, tuples: 2, hash: two},
		{term: '.', n: 1, tuples: 1, hash: lineHash(nil)},
		{term: '.'},
		{term: 'E', err: "mpq: parse error at 1:3"},
		{term: '+', n: 1, version: 42},
		{term: '+', n: 0, version: 42},
		{term: '~', n: 1, tuples: 1, hash: lineHash([]byte("x")), version: 43},
	}
	for i, w := range want {
		got, err := readReply(r)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if got != w {
			t.Errorf("reply %d = %+v, want %+v", i, got, w)
		}
	}
	if _, err := readReply(r); err == nil {
		t.Error("an unknown line kind was accepted")
	}
	if _, err := readReply(r); err == nil {
		t.Error("end of input was accepted as a reply")
	}
	// Tuple order must not matter.
	a, _ := readReply(bufio.NewReader(strings.NewReader("T p\nT q\n. 2 plan=hit\n")))
	b, _ := readReply(bufio.NewReader(strings.NewReader("T q\nT p\n. 2 plan=hit\n")))
	if a.hash != b.hash {
		t.Error("reply hash depends on tuple order")
	}
}

// TestCorruptedOracleCountsFailures: a reply that differs from the oracle
// is a failed operation, never a panic and never a pass.
func TestCorruptedOracleCountsFailures(t *testing.T) {
	g := genD(5, miniD)
	sys, err := mpq.Load(g.program())
	if err != nil {
		t.Fatal(err)
	}
	pq, err := sys.Prepare(g.anchor().line)
	if err != nil {
		t.Fatal(err)
	}
	tg := embedTarget{sys, pq}
	wl, _ := findWorkload("reach_mem")
	end := time.Now().Add(50 * time.Millisecond)
	if clean := closedLoop(tg, wl.stream(5, 0, g), g.oracle(), time.Now(), end, nil); clean.failed != 0 || clean.attempted == 0 {
		t.Fatalf("pristine oracle: %d of %d failed: %s", clean.failed, clean.attempted, clean.firstFail)
	}
	// Corrupt one entry: the oracle now believes an edge the program never
	// loaded.
	var b bfs
	seen := b.from(g, 0)
	g.adj[seen[0]] = append(g.adj[seen[0]], g.addNode("ghost"))
	end = time.Now().Add(100 * time.Millisecond)
	bad := closedLoop(tg, wl.stream(5, 0, g), g.oracle(), time.Now(), end, nil)
	if bad.failed == 0 || bad.failed > bad.attempted {
		t.Errorf("corrupted oracle: %d of %d failed, want some", bad.failed, bad.attempted)
	}
	r := &e2e{}
	r.fold([]*tally{bad}, 100*time.Millisecond)
	if share := float64(r.Failed) / float64(r.Attempted); share <= 0 {
		t.Errorf("failed_share = %g, want > 0", share)
	}
}

// TestManifestMatchesCode: BENCHMARK.json is the vocabulary; the program
// must know exactly its workloads and fill exactly its end-to-end metrics.
func TestManifestMatchesCode(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	mf, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code has %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range mf.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: manifest says %q (why %q), code says %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if _, err := named(mf.EndToEnd, (&e2e{}).values()); err != nil {
		t.Error(err)
	}
	if len(mf.EndToEnd) != len((&e2e{}).values()) {
		t.Errorf("manifest has %d end-to-end metrics, code fills %d", len(mf.EndToEnd), len((&e2e{}).values()))
	}
}

// TestSmoke runs all five workloads, end to end and traced, against a real
// mpqd with 300 ms phases over a small D.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives mpqd")
	}
	ws, err := newWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	defer ws.close()
	mf, err := readManifest(ws.root)
	if err != nil {
		t.Fatal(err)
	}
	sz := sizing{warmup: 300 * time.Millisecond, timed: 300 * time.Millisecond,
		data: dShape{clusters: 3, nodes: 300, edges: 1200}, setups: 2}
	for _, wl := range workloads {
		r, err := runEndToEnd(ws, wl, 1, sz)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed != 0 || r.Samples == 0 {
			t.Errorf("%s: %d of %d operations failed (%s), %d samples", wl.name, r.Failed, r.Attempted, r.FirstFail, r.Samples)
		}
		if _, err := named(mf.EndToEnd, r.values()); err != nil {
			t.Errorf("%s: %v", wl.name, err)
		}
		if wl.mixed && (r.DeltaP50 <= 0 || r.FactP50 <= 0) {
			t.Errorf("mixed_rw: delta p50 %g ms, fact p50 %g ms, want both measured", r.DeltaP50, r.FactP50)
		}
		lr, err := runLayers(ws, wl, 1, sz)
		if err != nil {
			t.Fatal(err)
		}
		if lr.failed != 0 {
			t.Errorf("%s traced: %d of %d checks failed: %s", wl.name, lr.failed, lr.attempted, lr.firstFail)
		}
		if _, err := named(mf.PerLayer, lr.m); err != nil {
			t.Errorf("%s traced: %v", wl.name, err)
		}
		if len(lr.m) != len(mf.PerLayer) {
			t.Errorf("%s traced: %d metrics measured, manifest lists %d", wl.name, len(lr.m), len(mf.PerLayer))
		}
	}
	// A second seed in the same process must not meet the first seed's store.
	disk, _ := findWorkload("reach_disk")
	if r, err := runEndToEnd(ws, disk, 2, sz); err != nil || r.Failed != 0 {
		t.Errorf("reach_disk on a second seed: %v, %+v", err, r)
	}
}

// Keep the in-process path honest about its own setting: sg_embed evaluates
// at one partition.
func TestEmbedUsesOnePartition(t *testing.T) {
	ds := genT()
	sys, err := mpq.Load(ds.program())
	if err != nil {
		t.Fatal(err)
	}
	pq, err := sys.Prepare(ds.anchor().line, embedOpts...)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := pq.Eval(context.Background(), ds.anchor().args...)
	if err != nil {
		t.Fatal(err)
	}
	if msg := check(ds.anchor(), answerReply(ans), nil, ds.oracle()); msg != "" {
		t.Error(msg)
	}
	if ans.Stats.Workers != 0 {
		t.Errorf("sg_embed ran with %d worker shards, want none", ans.Stats.Workers)
	}
}
