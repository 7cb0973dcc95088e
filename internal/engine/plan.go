package engine

import (
	"sync"
	"sync/atomic"
	"unsafe"

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
	// idle keeps one scratch out of the pool: sync.Pool empties itself
	// within two garbage collections, so a plan run one request at a time
	// would rebuild its scratch after every other cycle — more often the
	// smaller the live heap, since cycles come sooner.
	idle atomic.Pointer[scratch]
}

// scratch is one site's worth of reusable per-node state: the network and
// the in-process mailboxes under it, the hub listing the hosted mailboxes for
// the run loop, and the hosted node processes (whose temporaries keep their
// relation capacity across runs), built by the first run that gets as far as
// needing them, with one tally per node id (the driver's last) that they
// count into and the free list of row buffers their output draws from. hosts
// and site place the nodes for a multi-site run (see RunSites); a
// single-site scratch has nil hosts and sends over local.
type scratch struct {
	local   *transport.Local
	net     transport.Network
	hosts   []int
	site    int
	hub     *transport.Hub
	procs   []*proc
	tallies []trace.Tally
	frames  frames
	built   bool
}

// NewPlan compiles the graph/database pair into a reusable plan, warming
// the EDB indexes its compiled selections and join steps will probe (done
// here once instead of per run; see edbIndexNeeds).
func NewPlan(g *rgg.Graph, db edb.Storage) *Plan {
	db.WarmFor(edbIndexNeeds(g, db))
	return &Plan{g: g, db: db}
}

// Graph returns the compiled rule/goal graph (read-only).
func (pl *Plan) Graph() *rgg.Graph { return pl.g }

// Run evaluates the plan once. Equivalent to Run(pl.Graph(), db, opts) but
// without rebuilding per-node state.
func (pl *Plan) Run(opts Options) (*Result, error) {
	return pl.RunStream(opts, nil)
}

// RunStream is Run with answer streaming, as the package-level RunStream:
// under a yield the Result's Answers is nil, a nil yield collects them, and
// yield returning false ends the run early. It runs to completion on the
// calling goroutine and starts none.
func (pl *Plan) RunStream(opts Options, yield func(relation.Tuple) bool) (*Result, error) {
	s := pl.get()
	res, err := pl.runOn(s, opts, false, false, yield)
	if s.built {
		// A shell whose run failed before building its procs has nothing
		// worth keeping, and reset could not tell it from a recycled one.
		pl.put(s)
	}
	return res, err
}

// runOn evaluates once over scratch s, whose procs are built on first use
// and otherwise returned to their just-constructed state — or, for the
// delta round of an Incremental, to the state its next round starts from.
// retain says the procs outlive the run (every round of an Incremental),
// delta that it is a delta round.
func (pl *Plan) runOn(s *scratch, opts Options, retain, delta bool, yield func(relation.Tuple) bool) (*Result, error) {
	rt, err := pl.bind(s, opts, delta)
	if err != nil {
		return nil, err
	}
	rt.retain = retain
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
	clear(s.tallies)
	if !s.built {
		for id := range pl.g.Nodes {
			if (s.hosts == nil || s.hosts[id] == s.site) && !inPlace(pl.g.Nodes[id]) {
				s.procs[id] = newProc(rt, id, s.local.Boxes[id])
			}
		}
		s.built = true
	} else {
		s.hub.Reset()
		s.local.Boxes[rt.driver].Reset()
		for _, p := range s.procs {
			if p != nil {
				p.reset(rt)
			}
		}
	}
	return rt, nil
}

// get draws the idle scratch or one from the pool, or makes a fresh shell.
func (pl *Plan) get() *scratch {
	if s := pl.idle.Swap(nil); s != nil {
		return s
	}
	if v := pl.pool.Get(); v != nil {
		return v.(*scratch)
	}
	return pl.newScratch()
}

// put hands a built scratch back: to the idle slot when it is empty, else
// to the pool.
func (pl *Plan) put(s *scratch) {
	if !pl.idle.CompareAndSwap(nil, s) {
		pl.pool.Put(s)
	}
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
	s := &scratch{local: local, net: net, hosts: hosts, site: site, hub: transport.NewHub(),
		procs: make([]*proc, len(pl.g.Nodes)), tallies: make([]trace.Tally, len(pl.g.Nodes)+1)}
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
// row/index capacity, request bitsets, output-buffer size hints, the free
// list of row buffers, mailbox backing arrays) and the run-scoped runner
// pointer is rebound (the tally is the scratch's, zeroed by bind). It runs strictly between evaluations,
// after the previous loop has returned.
//
// A delta round keeps everything the semi-naive re-evaluation relies on:
//
//   kept (cumulative / memo state)          reset (per-round liveness)
//   ------------------------------          --------------------------
//   feedState.sent / acked                  feedState.allEnd / drained
//   customer registered / asked / reqCount   customer reqEnd / allSent
//     / lastWatermark                         / deltaEnded
//   goal reqs / answers / sel.seen          relReqForwarded
//   rule hb / sentHeads / subs[i].rel       relReqReceived, sel.held
//     / sentReqs / sel.seen                 Fig 2 state, mailboxes,
//                                             output buffers
//
// Keeping both sides of each watermark pair (sent/acked, reqCount/
// lastWatermark) cumulative is what lets the unmodified End accounting
// carry over: a delta round that sends k new requests down an edge raises
// sent by k and the child's eventual End{N} by the same k. Resetting
// allEnd/allSent/reqEnd re-arms the final End{All} chain, which the
// re-swept relation request re-triggers once the round settles. A run that
// is not a delta round re-reads every sel.seen, so a scratch recycled from
// the pool (perhaps after another Incremental's delta rounds) starts its
// delta windows at its own first round.

func (p *proc) reset(rt *runner) {
	p.rt = rt
	for _, f := range p.feeds {
		if !rt.delta {
			f.sent, f.acked = 0, 0
		}
		f.allEnd, f.drained = false, false
	}
	p.idleness, p.round, p.waitingFor = 0, 0, 0
	p.anyNeg, p.inRound, p.confirmed, p.probeWaits = false, false, false, false
	p.clearOutput()
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
		if g.answers != nil {
			g.answers.Reset()
		}
		if g.sel != nil {
			g.sel.rewind(g.p.rt.db)
		}
	}
}

func (r *ruleState) reset(delta bool) {
	r.relReqReceived = false
	r.parent.reset(delta)
	for _, s := range r.subs {
		switch {
		case s.sel != nil && !delta:
			s.sel.rewind(r.p.rt.db)
			s.pending.Reset() // rows an aborted delta round left unjoined
		case s.sel != nil:
			s.sel.held = false // the base relation may have grown since
		case !delta:
			s.rel.Reset()
			if s.seen != nil {
				s.seen.Reset()
			}
		}
		if !delta {
			s.sentReqs.Reset()
		}
	}
	if !delta {
		r.hb.Reset()
		r.sentHeads.Reset()
	}
}

// retained estimates the heap the process keeps between rounds: its stored
// relations, its customers' asked sets, the row lists its probes reuse, its
// mailbox queue and its output buffers.
func (p *proc) retained() int {
	n := p.box.Bytes()
	for _, k := range p.kids {
		n += cap(k.buf.vals) * 4
	}
	for _, c := range p.custs {
		n += cap(c.buf.vals) * 4
	}
	if g := p.goal; g != nil {
		n += g.reqs.Bytes() + cap(g.rows)*tupleBytes
		if g.answers != nil {
			n += g.answers.Bytes()
		}
		if g.sel != nil {
			n += cap(g.sel.rows) * tupleBytes
		}
		for _, cs := range g.customers {
			n += cap(cs.asked) * 8
		}
		return n
	}
	r := p.rule
	n += r.hb.Bytes() + r.sentHeads.Bytes() + cap(r.parent.asked)*8
	for _, s := range r.subs {
		n += s.sentReqs.Bytes()
		if s.rel != nil {
			n += s.rel.Bytes()
		}
		if s.sel != nil {
			n += s.pending.Bytes() + cap(s.sel.rows)*tupleBytes
		}
	}
	for _, plans := range r.plans {
		for _, pl := range plans {
			for _, st := range pl.steps {
				n += cap(st.rows) * tupleBytes
			}
		}
	}
	return n
}

// tupleBytes is the size of a row view's slice header.
const tupleBytes = int(unsafe.Sizeof(relation.Tuple(nil)))
