package main

import (
	"fmt"
	"math/rand"
	"strings"

	synth "repro/internal/workload"
)

// dShape sizes dataset D, a clustered random digraph. A reach query never
// leaves its cluster, so nodes and edges per cluster set its cost, while
// the cluster count sets the working set.
type dShape struct {
	clusters, nodes, edges int
}

// fullD is the benchmark's D: 200k rows, BENCH_9's size and three times the
// disk store's 64 Ki-tuple LRU. Only tests use anything smaller.
var fullD = dShape{clusters: 50, nodes: 1000, edges: 4000}

// Dataset T: synth.Tree(treeBranch, treeDepth) under SameGenRules. All
// leaves share the root, so every leaf is in every other leaf's generation
// and each query has treeBranch^treeDepth answers.
const (
	treeBranch = 3
	treeDepth  = 7
)

const reachRules = "path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, U), edge(U, Y).\n"

// mixed_rw: connection A draws reads from a fixed pool so the result cache
// (1024 entries by default) can hit, and writes on a fixed cadence.
const (
	mixedPool     = 2000
	mixedZipfS    = 1.1
	mixedWriteGap = 20 // every 20th operation is a fact
)

// lineHash is FNV-1a over one answer tuple's wire text (the bytes after
// "T "). A reply's hash is the wrapping sum of its tuples' hashes, which
// does not depend on the order the server derived them in.
func lineHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

type opKind uint8

const (
	opPoint opKind = iota // ?- edge(K, Y).
	opReach               // ?- path(K, Y).
	opSG                  // ?- sg(cK, Y).
	opFact                // fact edge(u, v).  /  fact par(c, p).
)

// op is one generated request: the line sent on the wire, the pieces an
// in-process call needs (the constant a PreparedQuery binds, or the fact's
// predicate and arguments), and the node ids the graph oracle needs.
type op struct {
	kind  opKind
	line  string
	pred  string
	args  []string
	u, v  int32
	fresh bool // opFact: adds exactly one answer to the anchor query's view
}

// dataset is one generated database: the program text the system under
// test loads, and the generator's own model of it. The model is never
// shown to the program: mpqd receives program text and request lines only.
type dataset interface {
	program() string
	// anchor is the query a subscription holds and readiness probes ask.
	anchor() op
	// read draws one query of the given kind.
	read(r *rand.Rand, kind opKind) op
	// freshFact draws a fact that adds exactly one answer to anchor's view.
	freshFact(r *rand.Rand) op
	// oracle returns a checker; each goroutine takes its own.
	oracle() oracle
}

// oracle knows the correct reply to every generated request.
type oracle interface {
	// expect returns the answer count and reply hash of a query.
	expect(o op) (n int, h uint64)
	// apply records an acknowledged fact and reports whether it was new,
	// which is what the server's "+ 1" / "+ 0" must have said.
	apply(o op) bool
}

// ---- dataset D ------------------------------------------------------------

// graph is the generator's copy of the edge/2 relation.
type graph struct {
	names []string
	hash  []uint64 // lineHash(names[i])
	adj   [][]int32
	has   map[[2]int32]bool
	shape dShape
	fresh int // fresh nodes issued by freshFact
	walk  bfs // freshFact's scratch; one goroutine writes at a time
	src   string
}

func (g *graph) addNode(name string) int32 {
	g.names = append(g.names, name)
	g.hash = append(g.hash, lineHash([]byte(name)))
	g.adj = append(g.adj, nil)
	return int32(len(g.names) - 1)
}

func (g *graph) addEdge(u, v int32) bool {
	k := [2]int32{u, v}
	if g.has[k] {
		return false
	}
	g.has[k] = true
	g.adj[u] = append(g.adj[u], v)
	return true
}

// genD builds dataset D. Node c<k>_<i> has id k*sh.nodes+i. Duplicate draws
// are redrawn, so every cluster holds exactly sh.edges distinct facts.
func genD(seed int64, sh dShape) *graph {
	r := rand.New(rand.NewSource(seed))
	g := &graph{has: make(map[[2]int32]bool, sh.clusters*sh.edges), shape: sh}
	for k := 0; k < sh.clusters; k++ {
		for i := 0; i < sh.nodes; i++ {
			g.addNode(fmt.Sprintf("c%d_%d", k, i))
		}
	}
	for k := 0; k < sh.clusters; k++ {
		base := int32(k * sh.nodes)
		// Node 0 of cluster 0 anchors the subscription; an out-edge on every
		// cluster's node 0 keeps that view from ever being empty.
		g.addEdge(base, base+1+int32(r.Intn(sh.nodes-1)))
		for n := 1; n < sh.edges; {
			if g.addEdge(base+int32(r.Intn(sh.nodes)), base+int32(r.Intn(sh.nodes))) {
				n++
			}
		}
	}
	// The two path rules, one query (a program must define one), then the
	// facts in insertion order.
	var b strings.Builder
	b.WriteString(reachRules)
	b.WriteString("?- path(c0_0, Y).\n")
	for u, vs := range g.adj {
		for _, v := range vs {
			fmt.Fprintf(&b, "edge(%s, %s).\n", g.names[u], g.names[v])
		}
	}
	g.src = b.String()
	return g
}

func (g *graph) program() string { return g.src }
func (g *graph) anchor() op      { return g.query(opReach, 0) }
func (g *graph) oracle() oracle  { return &graphOracle{g: g} }

func (g *graph) read(r *rand.Rand, kind opKind) op {
	return g.query(kind, int32(r.Intn(g.shape.clusters*g.shape.nodes)))
}

func (g *graph) query(kind opKind, u int32) op {
	name := g.names[u]
	pred := "path"
	if kind == opPoint {
		pred = "edge"
	}
	return op{kind: kind, line: "?- " + pred + "(" + name + ", Y).", args: []string{name}, u: u}
}

func (g *graph) fact(u, v int32, fresh bool) op {
	a, b := g.names[u], g.names[v]
	return op{kind: opFact, line: "fact edge(" + a + ", " + b + ").",
		pred: "edge", args: []string{a, b}, u: u, v: v, fresh: fresh}
}

// freshFact hangs a new node off a node reachable from c0_0.
func (g *graph) freshFact(r *rand.Rand) op {
	from := g.walk.from(g, 0)
	u := from[r.Intn(len(from))]
	v := g.addNode(fmt.Sprintf("c0_x%d", g.fresh))
	g.fresh++
	return g.fact(u, v, true)
}

// crossFact adds an edge between two existing nodes of one random cluster:
// occasionally a duplicate, which the server must answer with "+ 0".
func (g *graph) crossFact(r *rand.Rand) op {
	base := int32(r.Intn(g.shape.clusters) * g.shape.nodes)
	return g.fact(base+int32(r.Intn(g.shape.nodes)), base+int32(r.Intn(g.shape.nodes)), false)
}

// bfs is one goroutine's breadth-first scratch over a graph. Marks are
// stamped per search, so nothing is cleared between searches.
type bfs struct {
	mark  []uint32
	epoch uint32
	queue []int32
}

// from returns the nodes at distance >= 1 from u (u itself only when it
// lies on a cycle), valid until the next search.
func (b *bfs) from(g *graph, u int32) []int32 {
	for len(b.mark) < len(g.names) {
		b.mark = append(b.mark, 0)
	}
	b.epoch++
	b.queue = append(b.queue[:0], u)
	for i := 0; i < len(b.queue); i++ {
		for _, v := range g.adj[b.queue[i]] {
			if b.mark[v] != b.epoch {
				b.mark[v] = b.epoch
				b.queue = append(b.queue, v)
			}
		}
	}
	// queue[0] is the start; a start on a cycle was queued a second time
	// when an edge reached it.
	return b.queue[1:]
}

type graphOracle struct {
	g *graph
	b bfs
}

func (o *graphOracle) expect(q op) (n int, h uint64) {
	nodes := o.g.adj[q.u]
	if q.kind == opReach {
		nodes = o.b.from(o.g, q.u)
	}
	for _, v := range nodes {
		h += o.g.hash[v]
	}
	return len(nodes), h
}

func (o *graphOracle) apply(f op) bool { return o.g.addEdge(f.u, f.v) }

// ---- dataset T ------------------------------------------------------------

// tree is dataset T and its own oracle: every sg query over a leaf answers
// with all leaves, so one (count, hash) pair covers them all. Connections
// share it; writes happen only while a single connection is running.
type tree struct {
	src    string
	leaves []string
	n      int
	hash   uint64
	fresh  int // fresh leaves issued by freshFact
}

func genT() *tree {
	t := &tree{}
	var b strings.Builder
	b.WriteString(synth.SameGenRules)
	for _, f := range synth.Tree(treeBranch, treeDepth) {
		b.WriteString(f.String())
		b.WriteString(".\n")
	}
	t.src = b.String()
	t.n = 1
	for d := 0; d < treeDepth; d++ {
		t.n *= treeBranch
	}
	for i := 0; i < t.n; i++ {
		name := fmt.Sprintf("c%d", i)
		t.leaves = append(t.leaves, name)
		t.hash += lineHash([]byte(name))
	}
	return t
}

func (t *tree) program() string { return t.src }
func (t *tree) anchor() op      { return t.query(0) }
func (t *tree) oracle() oracle  { return t }

func (t *tree) read(r *rand.Rand, _ opKind) op { return t.query(r.Intn(len(t.leaves))) }

func (t *tree) query(k int) op {
	return op{kind: opSG, line: "?- sg(" + t.leaves[k] + ", Y).", args: []string{t.leaves[k]}}
}

// freshFact hangs a new leaf under a random parent of leaves (workload.Tree
// names level d's nodes l<d>_<j>).
func (t *tree) freshFact(r *rand.Rand) op {
	child := fmt.Sprintf("cx%d", t.fresh)
	t.fresh++
	parent := fmt.Sprintf("l%d_%d", treeDepth-1, r.Intn(len(t.leaves)/treeBranch))
	return op{kind: opFact, line: "fact par(" + child + ", " + parent + ").",
		pred: "par", args: []string{child, parent}, fresh: true}
}

func (t *tree) expect(op) (int, uint64) { return t.n, t.hash }

// apply: freshFact never repeats a leaf, so every acknowledged fact is new.
func (t *tree) apply(f op) bool {
	t.n++
	t.hash += lineHash([]byte(f.args[0]))
	return true
}

// ---- request streams ------------------------------------------------------

// stream yields one connection's requests. A stream is a pure function of
// (seed, connection index, shape), never of the workload's name or backend:
// reach_mem and reach_disk get byte-identical streams from equal seeds.
type stream struct {
	r    *rand.Rand
	ds   dataset
	kind opKind

	// mixed_rw only.
	pool  []op
	zipf  *rand.Zipf
	count int
}

func newStream(seed int64, conn int, ds dataset, kind opKind) *stream {
	return &stream{r: rand.New(rand.NewSource(seed*7919 + int64(conn) + 1)), ds: ds, kind: kind}
}

// newMixedStream is connection A of mixed_rw: Zipf reads over a fixed pool
// of reach queries, and a write every mixedWriteGap operations.
func newMixedStream(seed int64, g *graph) *stream {
	s := newStream(seed, 0, g, opReach)
	s.pool = make([]op, mixedPool)
	for i := range s.pool {
		s.pool[i] = g.read(s.r, opReach)
	}
	s.zipf = rand.NewZipf(s.r, mixedZipfS, 1, mixedPool-1)
	return s
}

func (s *stream) next() op {
	switch {
	case s.kind == opFact:
		return s.ds.freshFact(s.r)
	case s.pool == nil:
		return s.ds.read(s.r, s.kind)
	}
	s.count++
	if s.count%mixedWriteGap != 0 {
		return s.pool[s.zipf.Uint64()]
	}
	// Every second write must move the subscribed view; the others land
	// anywhere in D.
	if (s.count/mixedWriteGap)%2 == 1 {
		return s.ds.freshFact(s.r)
	}
	return s.ds.(*graph).crossFact(s.r)
}
