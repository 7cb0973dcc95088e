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

// scratch is one site's worth of reusable per-node state: the network and
// the in-process mailboxes under it, the hub listing the hosted mailboxes for
// the run loop, and the hosted node processes (whose temporaries keep their
// relation capacity across runs), built by the first run that gets as far as
// needing them. hosts and site place the nodes for a multi-site run (see
// RunSites); a single-site scratch has nil hosts and sends over local.
type scratch struct {
	local *transport.Local
	net   transport.Network
	hosts []int
	site  int
	hub   *transport.Hub
	procs []*proc
	built bool
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
// to completion on the calling goroutine and starts none.
func (pl *Plan) RunStream(opts Options, yield func(relation.Tuple) bool) (*Result, error) {
	s := pl.get()
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
	rt, err := pl.bind(s, opts, delta)
	if err != nil {
		return nil, err
	}
	return rt.run(yield)
}

// bind makes the runner for one evaluation over scratch s and readies its
// procs for it. This is the one place node processes are constructed.
func (pl *Plan) bind(s *scratch, opts Options, delta bool) (*runner, error) {
	rt, err := newRunner(pl.g, pl.db, opts, s)
	if err != nil {
		return nil, err
	}
	rt.delta = delta
	if !s.built {
		for id := range pl.g.Nodes {
			if s.hosts == nil || s.hosts[id] == s.site {
				s.procs[id] = newProc(rt, id, s.local.Boxes[id])
			}
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
	return rt, nil
}

// get draws a scratch from the pool, or makes a fresh shell.
func (pl *Plan) get() *scratch {
	if v := pl.pool.Get(); v != nil {
		return v.(*scratch)
	}
	return pl.newScratch()
}

// newScratch makes a single-site shell: every node hosted, sending over
// in-process mailboxes.
func (pl *Plan) newScratch() *scratch {
	local := transport.NewLocal(len(pl.g.Nodes) + 1)
	return pl.siteScratch(local, local, nil, 0)
}

// siteScratch makes a shell for site's share of the plan under hosts (nil:
// every node), sending over net; local holds the mailboxes its hub attaches.
func (pl *Plan) siteScratch(net transport.Network, local *transport.Local, hosts []int, site int) *scratch {
	s := &scratch{local: local, net: net, hosts: hosts, site: site,
		hub: transport.NewHub(), procs: make([]*proc, len(pl.g.Nodes))}
	for id, b := range local.Boxes {
		if hosts == nil || hosts[id] == site {
			s.hub.Attach(b)
		}
	}
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
// profile shard — is rebound. It runs strictly between evaluations, after
// the previous loop has returned.
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
//                                             output buffers
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
		p.shard = rt.prof.Counters(p.id)
	}
	for _, f := range p.feeds {
		if !rt.delta {
			f.sent, f.acked = 0, 0
		}
		f.allEnd, f.drained = false, false
	}
	p.idleness, p.round, p.waitingFor = 0, 0, 0
	p.anyNeg, p.inRound, p.confirmed, p.probeWaits = false, false, false, false
	p.clearOutput()
	p.work = trace.Work{}
	p.box.Reset()
	if p.goal != nil {
		p.goal.reset(rt.delta)
	} else {
		p.rule.reset(rt.delta)
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
