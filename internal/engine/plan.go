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
// network, the hub listing its mailboxes for the run loop, and the node
// processes (whose temporaries keep their relation capacity across runs),
// built by the first run that gets as far as needing them. partitions is the
// Options.Partitions they are built for — worker shard wiring is structural,
// so a scratch only serves runs with the same setting (System's plan cache
// keys plans by partition count, so in practice a Plan sees one value).
type scratch struct {
	local      *transport.Local
	hub        *transport.Hub
	procs      []*proc
	built      bool
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

// RunStream is Run with answer streaming, as the package-level RunStream
// (nil yield collects silently; yield returning false cancels early). It runs
// to completion on the calling goroutine; at Partitions <= 1 it starts none.
func (pl *Plan) RunStream(opts Options, yield func(relation.Tuple) bool) (*Result, error) {
	s := pl.get(opts.Partitions)
	res, err := pl.runOn(s, opts, false, yield)
	if s.built {
		// A shell whose run failed before building its procs has nothing
		// worth keeping, and reset could not tell it from a recycled one.
		pl.pool.Put(s)
	}
	return res, err
}

// runOn evaluates once over scratch s, whose procs are built on first use
// and otherwise returned to their just-constructed state — or, for the
// delta round of an Incremental, to the state its next round starts from.
func (pl *Plan) runOn(s *scratch, opts Options, delta bool, yield func(relation.Tuple) bool) (*Result, error) {
	rt, err := newRunner(pl.g, pl.db, s.local, opts, nil, 0)
	if err != nil {
		return nil, err
	}
	rt.local, rt.hub, rt.procs, rt.delta = s.local, s.hub, s.procs, delta
	if !s.built {
		for id := range pl.g.Nodes {
			s.procs[id] = newProc(rt, id, s.local.Boxes[id])
		}
		s.built = true
	} else {
		s.hub.Reset()
		s.local.Boxes[rt.driver].Reset()
		for _, p := range s.procs {
			p.reset(rt)
		}
	}
	if delta {
		rt.stats.DeltaRound()
	}
	return rt.run(yield)
}

// get draws a scratch from the pool, or makes a fresh shell; one built for a
// different partition count is discarded — its worker wiring would not match.
func (pl *Plan) get(partitions int) *scratch {
	if v := pl.pool.Get(); v != nil {
		if s := v.(*scratch); s.partitions == max(partitions, 1) {
			return s
		}
	}
	return pl.newScratch(partitions)
}

func (pl *Plan) newScratch(partitions int) *scratch {
	n := len(pl.g.Nodes)
	s := &scratch{local: transport.NewLocal(n + 1), hub: transport.NewHub(),
		procs: make([]*proc, n), partitions: max(partitions, 1)}
	s.hub.Attach(s.local.Boxes...)
	return s
}

// ---- reset between evaluations -------------------------------------------
//
// reset prepares a node process for the next evaluation over its scratch:
// back to its just-constructed state for a pooled run, or — rt.delta, the
// next round of an Incremental — to the state that round starts from. Either
// way every allocation whose size tracks the data survives (relation
// row/index capacity, request bitsets, output-buffer size hints, mailbox
// backing arrays) and the run-scoped wiring — the runner pointer and its
// profile shard — is rebound. It runs strictly between evaluations: the
// previous loop has returned and its worker shards have exited.
//
// A delta round keeps everything the semi-naive re-evaluation relies on:
//
//   kept (cumulative / memo state)          reset (per-round liveness)
//   ------------------------------          --------------------------
//   feedState.sent / acked                  feedState.allEnd / drained
//   customer registered / asked / reqCount   customer reqEnd / allSent
//     / lastWatermark                         / deltaEnded
//   goal reqs / answers / seenBase          relReqForwarded
//   rule hb / sentHeads / subs[i].rel       relReqReceived
//     / sentReqs                            Fig 2 state, mailboxes,
//   worker work counters / workAtProbe        output buffers
//
// Keeping both sides of each watermark pair (sent/acked, reqCount/
// lastWatermark) cumulative is what lets the unmodified End accounting
// carry over: a delta round that sends k new requests down an edge raises
// sent by k and the child's eventual End{N} by the same k. Resetting
// allEnd/allSent/reqEnd re-arms the final End{All} chain, which the
// re-swept relation request re-triggers once the round settles. (A pooled
// run leaves seenBase alone too: only delta rounds read that watermark.)

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
		if !rt.delta {
			f.sent.Store(0)
			f.acked = 0
		}
		f.allEnd, f.drained = false, false
	}
	p.idleness, p.round, p.waitingFor = 0, 0, 0
	p.anyNeg, p.inRound, p.confirmed, p.probeWaits = false, false, false, false
	p.clearOutput()
	p.work = trace.Work{}
	p.box.Reset()
	switch {
	case p.part != nil:
		p.part.reset(rt)
	case p.goal != nil:
		p.goal.reset(rt.delta)
	default:
		p.rule.reset(rt.delta)
	}
}

// reset does the same for a partitioned node's control state and worker
// procs. The workers share p.feeds with the control proc, so their reset
// re-clears those counters — harmless between evaluations. workAtProbe and
// the completion counters are only ever compared with each other, so a delta
// round keeps both.
func (ps *partState) reset(rt *runner) {
	for i := range ps.customers {
		ps.customers[i].reset(rt.delta)
	}
	ps.relReqReceived = false
	if !rt.delta {
		ps.workAtProbe = 0
	}
	for _, w := range ps.workers {
		if !rt.delta {
			w.wk.work.Store(0)
		}
		w.reset(rt)
	}
}

func (g *goalState) reset(delta bool) {
	for i := range g.customers {
		g.customers[i].reset(delta)
	}
	g.relReqForwarded = false
	if !delta {
		g.reqs.Reset()
		g.answers.Reset()
	}
}

func (r *ruleState) reset(delta bool) {
	r.relReqReceived = false
	r.parent.reset(delta)
	if delta {
		return
	}
	r.hb.Reset()
	r.sentHeads.Reset()
	for _, s := range r.subs {
		s.rel.Reset()
		s.sentReqs.Reset()
	}
}
