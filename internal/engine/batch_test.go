package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bottomup"
	"repro/internal/edb"
	"repro/internal/msg"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/symtab"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Packaged delivery (footnote 2) is the engine's only mode: these tests pin
// its answers against semi-naive and its framing rules at the edges.

// TestPackagedAgrees re-runs the core correctness programs and checks
// answers against semi-naive.
func TestPackagedAgrees(t *testing.T) {
	programs := []string{
		p1data,
		`edge(a, b). edge(b, c). edge(c, d). edge(d, b).
		 path(X, Y) :- edge(X, Y).
		 path(X, Y) :- path(X, U), edge(U, Y).
		 goal(Y) :- path(a, Y).`,
		`par(c1, p1). par(c2, p1). par(p1, g1). par(p2, g1). par(c3, p2).
		 sg(X, Y) :- par(X, P), par(Y, P).
		 sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
		 goal(Y) :- sg(c1, Y).`,
		`e(a, b). e(b, c). e(c, d).
		 t(X, Y) :- e(X, Y).
		 t(X, Y) :- t(X, U), t(U, Y).
		 goal(Y) :- t(a, Y).`,
	}
	for _, src := range programs {
		checkAgainstSemiNaive(t, src, nil)
	}
}

// TestPackagedAgreesRandom cross-checks evaluation on random graphs.
func TestPackagedAgreesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		n := 4 + rng.Intn(8)
		src := ""
		for k := 0; k < 2*n; k++ {
			src += fmt.Sprintf("edge(n%d, n%d).\n", rng.Intn(n), rng.Intn(n))
		}
		src += fmt.Sprintf("edge(n0, n%d).\n", rng.Intn(n))
		src += `
			path(X, Y) :- edge(X, Y).
			path(X, Y) :- path(X, U), edge(U, Y).
			goal(Y) :- path(n0, Y).
		`
		res, _ := runQuery(t, src, nil)
		truth := bottomup.SemiNaive(parser.MustParse(src), edb.FromProgram(parser.MustParse(src)))
		if res.Answers.Len() != truth.Goal.Len() {
			t.Fatalf("trial %d: %d answers != %d\n%s", trial, res.Answers.Len(), truth.Goal.Len(), src)
		}
	}
}

// TestPackagingReducesMessages verifies the footnote's point: one packaged
// message replaces many individual requests. Under left-to-right
// information passing, each new b tuple joins every stored a tuple and
// requests |a| bindings from g in a single handling step.
func TestPackagingReducesMessages(t *testing.T) {
	src := ""
	for i := 1; i <= 15; i++ {
		src += fmt.Sprintf("a(x%d). b(y%d). g(x%d, y%d, z%d).\n", i, i, i, i, i)
	}
	src += `
		r(Z) :- a(X), b(Y), g(X, Y, Z).
		goal(Z) :- r(Z).
	`
	res, _ := runQuery(t, src, rgg.LeftToRightStrategy)
	if res.Answers.Len() != 15 {
		t.Fatalf("%d answers, want 15", res.Answers.Len())
	}
	// One binding per (a,b) combination reaches g (225), in about one frame
	// per handled batch of b tuples.
	if res.Stats.TupReqRows < 225 || res.Stats.TupReqs*4 >= res.Stats.TupReqRows {
		t.Errorf("packaging did not reduce tuple-request messages enough: %d frames for %d bindings",
			res.Stats.TupReqs, res.Stats.TupReqRows)
	}
	// End watermarks must still cover every binding: the run completed with
	// the right answers, so the accounting held.
	if res.Stats.Ends == 0 {
		t.Error("no end messages")
	}
}

// recNet records every message the engine sends, in send order.
type recNet struct {
	inner transport.Network
	mu    sync.Mutex
	sent  []msg.Message
}

func (n *recNet) Send(m msg.Message) {
	n.mu.Lock()
	n.sent = append(n.sent, m)
	n.mu.Unlock()
	n.inner.Send(m)
}

// newTestRunner binds a runner as Plan.runOn does for a fresh scratch — every
// node process hosted — but over a recording network, and hands it back so a
// test can reach the processes while the production loop (rt.run) steps them.
func newTestRunner(t *testing.T, src string, opts Options) (*runner, *recNet) {
	t.Helper()
	prog := parser.MustParse(src)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlan(g, edb.FromProgram(prog))
	local := transport.NewLocal(len(g.Nodes) + 1)
	net := &recNet{inner: local}
	rt, err := pl.bind(pl.siteScratch(net, local, nil, 0), opts, false)
	if err != nil {
		t.Fatal(err)
	}
	return rt, net
}

// runOver evaluates g on one site whose messages travel over net, a wrapper
// around local: RunSites with everything hosted here.
func runOver(g *rgg.Graph, db edb.Storage, net transport.Network, local *transport.Local, opts Options) (*Result, error) {
	return RunSites(g, db, net, local, make([]int, len(g.Nodes)+1), 0, opts)
}

// runRecorded evaluates prog over a recording network.
func runRecorded(t *testing.T, prog string, opts Options) (*rgg.Graph, *recNet, *relation.Relation) {
	t.Helper()
	p := parser.MustParse(prog)
	g, err := rgg.Build(p, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local := transport.NewLocal(len(g.Nodes) + 1)
	net := &recNet{inner: local}
	var res *Result
	guard(t, 30*time.Second, "recorded run", func() {
		res, err = runOver(g, edb.FromProgram(p), net, local, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, net, res.Answers
}

// TestFramingInvariants checks every data frame of a run with a wide
// wavefront (a dense random graph) and then a narrow one (a chain hanging off
// it): a lone row travels as a Tuple and never as a one-row batch, and a
// batch's payload is exactly Count rows of the receiver's width.
func TestFramingInvariants(t *testing.T) {
	facts := workload.Random("edge", 48, 300, rand.New(rand.NewSource(5)))
	src := workload.Program(workload.TCRules, facts).String()
	for i, from := 0, "n0"; i < 30; i++ {
		to := fmt.Sprintf("tail%d", i)
		src += fmt.Sprintf("edge(%s, %s).\n", from, to)
		from = to
	}
	g, net, answers := runRecorded(t, src, Options{})
	truth := bottomup.SemiNaive(parser.MustParse(src), edb.FromProgram(parser.MustParse(src)))
	if answers.Len() != truth.Goal.Len() {
		t.Fatalf("%d answers, want %d", answers.Len(), truth.Goal.Len())
	}
	width := func(m msg.Message) int {
		if m.To == len(g.Nodes) {
			return len(g.Nodes[g.Root].Atom.Args)
		}
		to := g.Nodes[m.To]
		if m.Kind == msg.TupReq {
			return len(dynamicPositions(to.Ad))
		}
		if to.Kind == rgg.Goal {
			return len(carriedPositions(to.Ad))
		}
		return len(carriedPositions(g.Nodes[m.From].Ad))
	}
	lone, batches := 0, 0
	for _, m := range net.sent {
		switch m.Kind {
		case msg.Tuple:
			if m.Count < 2 {
				lone++
			} else {
				batches++
			}
			if n := rowsIn(m); len(m.Vals) != n*width(m) {
				t.Fatalf("tuple framed wrongly (width %d): %v", width(m), m)
			}
		case msg.TupReq:
			if n := rowsIn(m); len(m.Vals) != n*width(m) {
				t.Fatalf("tuple request framed wrongly (width %d): %v", width(m), m)
			}
		}
	}
	if lone == 0 || batches == 0 {
		t.Errorf("want both lone rows and batches on a wide wavefront, got %d and %d", lone, batches)
	}
}

// TestZeroWidthRows drives propositional rows (no carried positions)
// through the buffers and a goal node: a batch of them is Count empty rows
// with no payload.
func TestZeroWidthRows(t *testing.T) {
	var b rowBuf
	for i := 0; i < 3; i++ {
		b.add(nil)
	}
	m := tupleMsg(7, &b)
	if m.Kind != msg.Tuple || m.Count != 3 || len(m.Vals) != 0 || b.count != 0 {
		t.Fatalf("zero-width batch = %v (buffer left with %d rows)", m, b.count)
	}
	b.add(nil)
	if m := tupleMsg(7, &b); m.Kind != msg.Tuple || rowsIn(m) != 1 {
		t.Fatalf("lone zero-width row = %v", m)
	}

	// End to end: q's argument is existential, so its leaf answers with
	// zero-width rows, and goal itself is propositional.
	src := `q(a). q(b). q(c). e(x).
		p :- q(W).
		goal :- p, e(V).`
	res, _ := runQuery(t, src, nil)
	if res.Answers.Len() != 1 {
		t.Fatalf("propositional goal has %d answers, want the empty tuple", res.Answers.Len())
	}
	rt, _ := newTestRunner(t, src, Options{})
	root := rt.procs[rt.g.Root]
	root.goal.customers[0].registered = true
	root.goal.handle(msg.Message{Kind: msg.Tuple, From: root.node.Children[0], To: root.id, Count: 3})
	if root.tally.Stored != 1 || root.tally.Dups != 2 || root.buffered != 1 {
		t.Errorf("3 empty rows: stored=%d dups=%d buffered=%d, want 1, 2, 1", root.tally.Stored, root.tally.Dups, root.buffered)
	}
}

// TestProtocolMessageForcesFlush pins the rule that keeps packaging
// protocol-transparent: a node holding buffered rows (its mailbox did not
// drain after the work that produced them) flushes them before it handles
// any termination-protocol message, so no End request, answer or nudge it
// then sends can overtake them.
func TestProtocolMessageForcesFlush(t *testing.T) {
	src := `edge(a, b). edge(b, c). edge(c, a). edge(c, d). edge(a, d). edge(d, e).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(Y) :- path(a, Y).`
	forced := 0
	for seed := int64(0); seed < 60; seed++ {
		// The seeded pick runs before every step: it first judges the step
		// that just finished — the profile's span ring (capacity one) names the
		// node and the message it handled, the recording network what it sent
		// — then notes what every node holds now. The driver holds nothing.
		var rt *runner
		var net *recNet
		rng := rand.New(rand.NewSource(seed))
		prof := trace.NewProfile()
		prof.RecordSpans(1)
		held, before, judged := []int(nil), 0, 0
		pick := func(n int) int {
			ps := prof.Snapshot()
			if total := ps.Dropped + len(ps.Spans); total > judged && ps.Spans[0].Node < len(held) {
				judged = total
				e := ps.Spans[0]
				if h := held[e.Node]; h > 0 && !isWork(msg.Kind(e.Kind)) {
					forced++
					rows := 0
					for _, out := range net.sent[before:] {
						if rows == h {
							break
						}
						if out.From != e.Node || (out.Kind != msg.TupReq && out.Kind != msg.Tuple) {
							t.Fatalf("seed %d: node %d sent %v while still holding %d buffered rows", seed, e.Node, out, h-rows)
						}
						rows += rowsIn(out)
					}
					if rows != h {
						t.Fatalf("seed %d: node %d flushed %d of %d buffered rows before handling %v", seed, e.Node, rows, h, msg.Kind(e.Kind))
					}
				}
			}
			held = held[:0]
			for _, p := range rt.procs {
				h := 0
				if p != nil { // a base subgoal joined in place has no process
					h = p.buffered
				}
				held = append(held, h)
			}
			before = len(net.sent)
			return rng.Intn(n)
		}
		rt, net = newTestRunner(t, src, Options{pick: pick, Profile: prof})
		if _, err := rt.run(nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if forced == 0 {
		t.Error("no schedule delivered a protocol message to a node holding buffered rows")
	}
}

// TestDeltaWindowBatches: a delta round whose EDB window holds several rows
// delivers them packaged, and yields exactly the new answers.
func TestDeltaWindowBatches(t *testing.T) {
	src := `edge(a, b).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(X, Y) :- path(X, Y).`
	prog := parser.MustParse(src)
	db := edb.FromProgram(prog)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc := NewPlan(g, db).Incremental(Options{})
	if rows, _ := incRound(t, inc); len(rows) == 0 {
		t.Fatal("first round found nothing")
	}
	for i := 0; i < 6; i++ {
		db.Add("edge", fmt.Sprintf("m%d", i), fmt.Sprintf("m%d", i+1))
	}
	rows, res := incRound(t, inc)
	if want := 6 * 7 / 2; len(rows) != want {
		t.Errorf("delta round yielded %d answers, want %d", len(rows), want)
	}
	if res.Stats.TupleRows <= res.Stats.Tuples {
		t.Errorf("a 6-row delta window travelled without a single multi-row Tuple: %v", res.Stats)
	}
}

// TestRecycledFramesNotAliased: a handled frame's buffer goes back to the
// site's row buffers, so what must never be recycled is pinned here. Rows a
// RunStream yield keeps without copying stay intact through a later pooled
// run, Options.Bind is left alone, and frames crossing between in-process
// sites over a delaying network leave the answers whole.
func TestRecycledFramesNotAliased(t *testing.T) {
	plan, ids := reachCluster(t, edb.New())
	for i := 0; i < 2; i++ { // fill the pooled scratch's free list
		if _, err := plan.Run(Options{Bind: ids[3:4]}); err != nil {
			t.Fatal(err)
		}
	}
	// Spare capacity behind the caller's binding shows any write into its
	// memory, not only one that changes the value.
	bind := append(make([]symtab.Sym, 0, 64), ids[7])
	bound := slices.Clone(bind[:cap(bind)])
	var kept []relation.Tuple
	if _, err := plan.RunStream(Options{Bind: bind}, func(row relation.Tuple) bool {
		kept = append(kept, row)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bind[:cap(bind)], bound) {
		t.Errorf("the run wrote into Options.Bind's memory")
	}
	render := func(rows []relation.Tuple) string {
		s := make([]string, len(rows))
		for i, r := range rows {
			s[i] = fmt.Sprint(r)
		}
		slices.Sort(s)
		return strings.Join(s, " ")
	}
	// The streamed run's Result holds no answers: a collecting run of the
	// same plan and binding is what the kept rows must equal.
	res, err := plan.Run(Options{Bind: ids[7:8]})
	if err != nil {
		t.Fatal(err)
	}
	want := render(slices.Collect(res.Answers.All()))
	if got := render(kept); len(kept) == 0 || got != want {
		t.Fatalf("kept %d rows, answers %d: the rows differ", len(kept), res.Answers.Len())
	}
	if _, err := plan.Run(Options{Bind: ids[11:12]}); err != nil {
		t.Fatal(err)
	}
	if got := render(kept); got != want {
		t.Errorf("a second pooled run rewrote the %d rows a yield kept", len(kept))
	}
	if !slices.Equal(bind[:cap(bind)], bound) {
		t.Errorf("a second pooled run wrote into the first run's Options.Bind")
	}

	facts := workload.Random("edge", 48, 300, rand.New(rand.NewSource(9)))
	src := workload.Program(workload.TCRules, facts).String()
	prog := parser.MustParse(src)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hosts := Partition(g, 2)
	delay := func(fn *transport.FaultNet, _ []int, _ *transport.Local) {
		for _, l := range [][2]int{{0, 1}, {1, 0}} {
			fn.AddLink(transport.LinkFault{From: l[0], To: l[1], Delay: 20 * time.Microsecond, Jitter: 200 * time.Microsecond})
		}
	}
	db := edb.FromProgram(prog)
	sites, err, _, _ := chaosSites(t, g, func(int) *edb.Database { return db }, hosts, delay, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderSet(sites.Answers, db), renderSetBottomup(t, src); got != want {
		t.Errorf("two delayed sites: %d answers differ from semi-naive", sites.Answers.Len())
	}
}
