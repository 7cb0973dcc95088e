package engine

import (
	"sync"

	"repro/internal/edb"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Plan is a compiled, reusable single-site evaluation: one rule/goal graph
// bound to one database, with EDB indexes warmed once at construction and
// the per-run scratch (node processes, their temporary relations, and their
// mailboxes) pooled between runs. Repeated Run/RunStream calls therefore
// skip graph-shaped allocation and index warming entirely — the
// compile-once/bind-many half of the prepared-query design: vary the
// runtime constants via Options.Bind (seeding the root's "d" positions)
// while the graph stays fixed.
//
// A Plan is safe for concurrent use: simultaneous runs draw distinct
// scratch sets from the pool (allocating fresh ones when it is empty), and
// the database is only read after the one-time warm. The database must not
// be mutated while runs are in flight, and Deadline/Cancel/PeerDown options
// behave exactly as in Run.
type Plan struct {
	g    *rgg.Graph
	db   edb.Storage
	pool sync.Pool // of *scratch
}

// scratch is one run's worth of reusable per-node state: the in-process
// network and the node processes (whose goal/rule temporaries keep their
// relation capacity across runs). partitions records the
// Options.Partitions the procs were built for — worker shard wiring is
// structural, so a scratch only serves runs with the same setting
// (System's plan cache keys plans by partition count, so in practice a
// Plan sees one value).
type scratch struct {
	local      *transport.Local
	procs      []*proc
	partitions int
}

// NewPlan compiles the graph/database pair into a reusable plan, warming
// the EDB indexes the graph's adornments will probe (done here once instead
// of per run).
func NewPlan(g *rgg.Graph, db edb.Storage) *Plan {
	db.WarmFor(edbIndexNeeds(g))
	return &Plan{g: g, db: db}
}

// Graph returns the compiled rule/goal graph (read-only).
func (pl *Plan) Graph() *rgg.Graph { return pl.g }

// Run evaluates the plan once. Equivalent to Run(pl.Graph(), db, opts) but
// without rebuilding per-node state.
func (pl *Plan) Run(opts Options) (*Result, error) {
	return pl.RunStream(opts, nil)
}

// RunStream is Run with answer streaming, mirroring the package-level
// RunStream contract (nil yield collects silently; yield returning false
// cancels early).
func (pl *Plan) RunStream(opts Options, yield func(relation.Tuple) bool) (*Result, error) {
	s, reused := pl.get(opts.Partitions)
	rt, err := newRunner(pl.g, pl.db, s.local, opts, nil, 0)
	if err != nil {
		pl.pool.Put(s)
		return nil, err
	}
	rt.local = s.local
	if reused {
		s.local.Boxes[rt.driver].Reset()
		for _, p := range s.procs {
			p.reset(rt)
		}
	} else {
		for id := range pl.g.Nodes {
			s.procs[id] = newProc(rt, id, s.local.Boxes[id])
		}
	}
	stop := rt.startWatch(opts)
	for _, p := range s.procs {
		rt.spawn(p)
	}
	answers, runErr := rt.driveStream(s.local.Boxes[rt.driver], yield)
	stop()
	s.local.Close() // unblocks any process still waiting after Shutdown races
	rt.wg.Wait()
	// Harvest the dropped-Put count before the scratch can be recycled:
	// Mailbox.Reset zeroes the counter, so each run observes only its own
	// drops.
	rt.stats.DroppedPuts(s.local.Dropped())
	pl.pool.Put(s)
	if runErr != nil {
		return nil, runErr
	}
	return &Result{Answers: answers, Stats: rt.stats.Snapshot()}, nil
}

// get draws a scratch set from the pool, reporting whether it is a recycled
// one (whose procs must be reset) or a fresh shell (whose procs the caller
// constructs against its runner). A pooled scratch built for a different
// partition count is discarded — its worker wiring would not match — and a
// fresh shell returned instead.
func (pl *Plan) get(partitions int) (s *scratch, reused bool) {
	if partitions < 2 {
		partitions = 0
	}
	if v := pl.pool.Get(); v != nil {
		if sc := v.(*scratch); sc.partitions == partitions {
			return sc, true
		}
	}
	n := len(pl.g.Nodes)
	return &scratch{local: transport.NewLocal(n + 1), procs: make([]*proc, n),
		partitions: partitions}, false
}

// ---- per-run reset --------------------------------------------------------
//
// The reset methods below return a node process to its just-constructed
// state while keeping every allocation whose size tracks the data, not the
// run: temporary relations keep row/index capacity, request bitsets and
// output-buffer size hints stay, and mailbox backing arrays survive. Only run-scoped wiring — the
// runner pointer and its profile shard — is rebound. They may only be
// called once the previous run's WaitGroup has drained (no goroutine still
// owns the state).

func (p *proc) reset(rt *runner) {
	p.rt = rt
	p.shard = nil
	if rt.prof != nil {
		if p.wk != nil {
			p.shard = rt.prof.WorkerShard(p.id, p.wk.idx, p.wk.ps.spec.n)
		} else {
			p.shard = rt.prof.Shard(p.id)
		}
	}
	for _, f := range p.feeds {
		f.sent.Store(0)
		f.acked, f.allEnd = 0, false
	}
	p.idleness, p.round, p.waitingFor = 0, 0, 0
	p.anyNeg, p.inRound, p.confirmed = false, false, false
	p.clearOutput()
	p.work = trace.Work{}
	p.box.Reset()
	switch {
	case p.part != nil:
		p.part.reset(rt)
	case p.goal != nil:
		p.goal.reset()
	default:
		p.rule.reset()
	}
}

// reset returns a partitioned node's control state and worker procs to
// their just-constructed state. The workers share p.feeds with the control
// proc, so their reset re-clears those counters — harmless, since reset
// runs strictly between evaluations.
func (ps *partState) reset(rt *runner) {
	for i := range ps.customers {
		ps.customers[i].reset()
	}
	ps.relReqReceived = false
	ps.workAtProbe = 0
	for _, w := range ps.workers {
		w.wk.work.Store(0)
		w.reset(rt)
	}
}

func (g *goalState) reset() {
	for i := range g.customers {
		g.customers[i].reset()
	}
	g.relReqForwarded = false
	g.reqs.Reset()
	g.answers.Reset()
	// isEDB wiring (consts, eqPos) is graph+db-scoped, not run-scoped: a Plan
	// binds exactly one database, so it stays. A leaf holds no rows — it
	// filters the one shared store — so rows the relation gained since the
	// last run are simply there; seenBase matters only to delta rounds, and
	// an Incremental's procs are never reset().
}

func (r *ruleState) reset() {
	r.hb.Reset()
	r.sentHeads.Reset()
	for _, s := range r.subs {
		s.rel.Reset()
		s.sentReqs.Reset()
	}
	r.relReqReceived = false
	r.parent.reset()
}
