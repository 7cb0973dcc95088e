// Hash-partitioned node processes: Options.Partitions > 1 splits every
// partitionable rule/goal node into P worker shards, each a goroutine (the
// only ones an evaluation starts) with
// a private mailbox, join state, and duplicate-elimination set for one hash
// slice of the node's partition key. Senders route Tuple/TupleBatch
// messages to the owning shard (msg.Message.Shard), so shards never share
// mutable state — the paper's "no shared memory" discipline holds *inside*
// a node exactly as it does between nodes.
//
// One control process per partitioned node (the ordinary proc) remains the
// node's protocol identity: it receives everything except shard-routed
// tuples, keeps the customer/watermark bookkeeping, runs the Fig 2
// machinery, and treats its P workers as one logical node. The aggregation
// is lock-free in the hot path:
//
//   - feedState.sent is atomic; workers count tuple requests at queue time,
//     before the request can possibly reach the child, so acked >= sent
//     remains a sound settlement test at the control process.
//   - Each worker mailbox carries a busy flag raised atomically with the
//     dequeue (Mailbox.GetWork) and cleared only after the worker flushed
//     its buffered output (Mailbox.ClearBusy). Quiet() therefore implies
//     "no queued work AND no invisible in-flight output" — the partitioned
//     half of the protocol's empty_queues() test.
//   - workerCtx.work counts completed messages; the Fig 2 probe resets
//     idleness when it moved, which substitutes for the control process
//     never seeing the data traffic itself. The counter is read after the
//     Quiet checks, so a completion observed via Quiet is never missed.
//
// See DESIGN.md, "Partitioned node processes", for the full soundness
// argument extending the watermark/termination proofs to sharded nodes.
package engine

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/transport"
)

// partSpec is the compile-time partition plan of one node: how many worker
// shards it runs and, per sending node, which columns of that sender's
// tuple rows form the partition key. It is a pure function of (graph,
// Partitions), so every site — and every remote sender — computes the same
// routing without coordination.
type partSpec struct {
	n      int  // worker shard count (>= 2)
	isRule bool // rule node (else plain IDB goal node)
	dWidth int  // goal nodes: width of one tuple-request binding
	key    map[int]srcKey
}

// srcKey describes one sender's rows: the positions (within the row) that
// carry the partition key, and the row width (for splitting batches).
type srcKey struct {
	pos   []int
	width int
}

// planPartitions builds the partition plan for every node, indexed by node
// id (the driver entry stays nil — the driver is never partitioned).
// Returns nil when no node is partitionable.
func planPartitions(g *rgg.Graph, p int) []*partSpec {
	specs := make([]*partSpec, len(g.Nodes)+1)
	any := false
	for id, n := range g.Nodes {
		var sp *partSpec
		switch n.Kind {
		case rgg.Rule:
			sp = rulePartSpec(n, p)
		case rgg.Goal:
			sp = goalPartSpec(n, p)
		}
		if sp != nil {
			specs[id] = sp
			any = true
		}
	}
	if !any {
		return nil
	}
	return specs
}

// rulePartSpec plans a rule node. The partition key is the set of rule
// variables carried by EVERY subgoal: two rows that can ever join on the
// key agree on it, so hashing each subgoal's stream by those columns sends
// all join partners for a key value to the same shard, and a complete slot
// assignment is enumerated by exactly one shard. Head bindings are
// replicated to all shards instead (they constrain, not partition). A rule
// whose subgoals share no variable is not partitionable and stays single.
func rulePartSpec(n *rgg.Node, p int) *partSpec {
	if n.Rule == nil || len(n.Rule.Body) == 0 {
		return nil
	}
	subVars := make([][]string, len(n.Rule.Body))
	for i, atom := range n.Rule.Body {
		seen := make(map[string]bool)
		for _, pos := range carriedPositions(n.SIP.SubAd[i]) {
			v := atom.Args[pos].Var
			if !seen[v] {
				seen[v] = true
				subVars[i] = append(subVars[i], v)
			}
		}
	}
	var key []string
	for _, v := range subVars[0] {
		inAll := true
		for _, vs := range subVars[1:] {
			found := false
			for _, w := range vs {
				if w == v {
					found = true
					break
				}
			}
			if !found {
				inAll = false
				break
			}
		}
		if inAll {
			key = append(key, v)
		}
	}
	if len(key) == 0 {
		return nil
	}
	sp := &partSpec{n: p, isRule: true, key: make(map[int]srcKey)}
	for i, atom := range n.Rule.Body {
		carried := carriedPositions(n.SIP.SubAd[i])
		pos := make([]int, len(key))
		for ki, v := range key {
			for k, cp := range carried {
				if atom.Args[cp].Var == v {
					pos[ki] = k
					break
				}
			}
		}
		for _, c := range bodyKids(n, i) {
			sp.key[c] = srcKey{pos: pos, width: len(carried)}
		}
	}
	return sp
}

// goalPartSpec plans a goal node: shards own hash slices of the answer
// relation, keyed by the "d" columns when the goal has any (a tuple request
// and every answer to it then land on the same shard) and by the whole
// carried row otherwise. Variant relays stay single — they only forward.
// EDB leaves partition exactly when access is bound (dPos non-empty): each
// worker answers the bindings that hash to it by probing the one shared
// store (see goalState.serviceEDB; ownsRow filters only delta windows and
// EDB shard leaves), so the P selections — and any simulated retrieval
// latency (Options.EDBDelay) — proceed concurrently. A free-access leaf
// has a single implicit request: nothing to split.
func goalPartSpec(n *rgg.Node, p int) *partSpec {
	if n.CycleTo != rgg.NoNode {
		return nil
	}
	if n.EDB {
		dPos := dynamicPositions(n.Ad)
		if len(dPos) == 0 {
			return nil
		}
		// No key map: a leaf has no children, so no tuple stream ever routes
		// toward it — only tuple requests, which partState.onTupReq splits.
		return &partSpec{n: p, dWidth: len(dPos), key: map[int]srcKey{}}
	}
	if len(n.Children) == 0 {
		return nil
	}
	carried := carriedPositions(n.Ad)
	if len(carried) == 0 {
		return nil
	}
	dPos := dynamicPositions(n.Ad)
	idx := make(map[int]int, len(carried))
	for i, pos := range carried {
		idx[pos] = i
	}
	var keyPos []int
	if len(dPos) > 0 {
		for _, pos := range dPos {
			keyPos = append(keyPos, idx[pos])
		}
	} else {
		for i := range carried {
			keyPos = append(keyPos, i)
		}
	}
	sp := &partSpec{n: p, dWidth: len(dPos), key: make(map[int]srcKey)}
	for _, c := range n.Children {
		sp.key[c] = srcKey{pos: keyPos, width: len(carried)}
	}
	return sp
}

// bodyKids returns the child node ids serving body atom i of a rule node:
// one goal node normally, N shard leaves for a partitioned EDB relation.
func bodyKids(n *rgg.Node, i int) []int {
	if n.BodyChildren != nil {
		return n.BodyChildren[i]
	}
	return n.Children[i : i+1]
}

// workerCtx marks a proc as worker shard idx of a partitioned node.
type workerCtx struct {
	ps   *partState
	idx  int
	work atomic.Int64 // messages completed (read by the control process)
}

// partState is the control process's side of a partitioned node: the
// worker procs, their mailboxes, and the completion bookkeeping the
// control process keeps on behalf of all shards (the shard-aggregator of
// the End-watermark accounting).
type partState struct {
	p       *proc
	spec    *partSpec
	workers []*proc
	wg      sync.WaitGroup

	// Watermark bookkeeping, mirroring ruleState/goalState's customer-side
	// fields (the worker copies of those fields are unused): customers[i]
	// is the view of p.custs[i]; a rule node has just its parent goal.
	customers      []customerState
	relReqReceived bool

	// split packages the bindings of one tuple request per owning worker
	// (goal nodes).
	split []rowBuf

	workAtProbe int64 // worker completions at the previous Fig 2 probe
}

func newPartState(p *proc, spec *partSpec) *partState {
	ps := &partState{p: p, spec: spec, customers: make([]customerState, len(p.custs)),
		split: make([]rowBuf, spec.n)}
	boxes := p.rt.local.Partition(p.id, spec.n)
	ps.workers = make([]*proc, spec.n)
	for i := range ps.workers {
		ps.workers[i] = newWorkerProc(p, boxes[i], i, ps)
	}
	return ps
}

// eachPart applies f to every partitioned node this site hosts.
func (rt *runner) eachPart(f func(*partState)) {
	for _, p := range rt.procs {
		if p != nil && p.part != nil {
			f(p.part)
		}
	}
}

// start spawns the worker goroutines; the run loop calls it on entry and
// stop on exit, so worker lifetime nests inside the evaluation.
func (ps *partState) start() {
	for _, w := range ps.workers {
		ps.wg.Add(1)
		go func() {
			defer ps.wg.Done()
			defer func() {
				if r := recover(); r != nil {
					w.rt.abort(msg.AbortPanic, fmt.Sprintf("node %d worker %d (%s): %v\n%s",
						w.id, w.wk.idx, w.node.Adorned(), r, debug.Stack()))
				}
			}()
			w.workerLoop()
		}()
	}
}

// stop closes the worker mailboxes and waits for the workers to exit.
func (ps *partState) stop() {
	for _, w := range ps.workers {
		w.box.Close()
	}
	ps.wg.Wait()
}

// quiet reports whether every worker mailbox is empty with no dequeued
// message still being processed (see Mailbox.Quiet).
func (ps *partState) quiet() bool {
	for _, w := range ps.workers {
		if !w.box.Quiet() {
			return false
		}
	}
	return true
}

// workNow sums the workers' completion counters. Callers that feed the
// idleness decision must read it AFTER quiet(): a completion whose
// ClearBusy was observed is then guaranteed to be counted.
func (ps *partState) workNow() int64 {
	var n int64
	for _, w := range ps.workers {
		n += w.wk.work.Load()
	}
	return n
}

// handle dispatches a control-mailbox message of a partitioned node: the
// watermark-relevant bookkeeping happens here, the data work in whichever
// shard owns the row.
func (ps *partState) handle(m msg.Message) {
	switch m.Kind {
	case msg.RelReq:
		ps.onRelReq(m)
	case msg.TupReq:
		ps.onTupReq(m)
	case msg.ReqEnd:
		ps.customers[ps.p.custPos(m.From)].reqEnd = true
	case msg.Tuple, msg.TupleBatch:
		// Normally routed straight to a worker mailbox by the sender; a
		// tuple reaches the control mailbox only when it raced a multi-site
		// setup (the shard boxes were not registered yet). Re-route it.
		ps.reroute(m)
	default:
		ps.p.internalf("unexpected %s at partitioned control", m.Kind)
	}
}

// onRelReq registers the customer (goal nodes), forwards the relation
// request downstream exactly once on behalf of all shards, and replicates
// it to every worker: rule workers open their head-binding state, goal
// workers register the customer and replay their slice of stored answers.
func (ps *partState) onRelReq(m msg.Message) {
	// A node with no "d" positions never receives tuple requests, so the
	// relation request doubles as the customer's implicit request-end (the
	// workers set their own copy; the control must too, or the final End
	// never fires).
	cs := &ps.customers[ps.p.custPos(m.From)]
	cs.registered = true
	if !hasDynamic(ps.p.node.Ad) {
		cs.reqEnd = true
	}
	if !ps.relReqReceived {
		ps.relReqReceived = true
		for _, c := range ps.p.node.Children {
			ps.p.send(msg.Message{Kind: msg.RelReq, To: c})
		}
	}
	for _, w := range ps.workers {
		w.box.Put(m)
	}
}

// onTupReq either replicates (rule nodes: a head binding constrains every
// shard's joins) or hash-routes (goal nodes: the owner shard holds exactly
// the answers matching the binding) the request, counting bindings for the
// watermark either way.
func (ps *partState) onTupReq(m msg.Message) {
	n := rowsIn(m)
	ps.customers[ps.p.custPos(m.From)].reqCount += n
	if ps.spec.isRule {
		for _, w := range ps.workers {
			w.box.Put(m)
		}
		return
	}
	w := ps.spec.dWidth
	if w == 0 {
		ps.p.internalf("tuple request at goal with no d positions")
	}
	for i := 0; i < n; i++ {
		// The binding is the d-projection of the rows it selects, in the
		// same column order the tuple router hashes, so request and
		// answers land on the same shard.
		b := m.Vals[i*w : (i+1)*w]
		ps.split[relation.HashTuple(b)%uint64(len(ps.split))].add(b)
	}
	for s, wk := range ps.workers {
		if b := &ps.split[s]; b.count > 0 {
			vals, count := b.take()
			wk.box.Put(msg.Message{Kind: msg.TupReq, From: m.From, To: ps.p.id,
				Vals: vals, Count: count, Shard: int32(s + 1)})
		}
	}
}

// reroute forwards a late tuple to its owner shard.
func (ps *partState) reroute(m msg.Message) {
	if m.Shard > 0 && int(m.Shard) <= len(ps.workers) {
		ps.workers[m.Shard-1].box.Put(m)
		return
	}
	sk, ok := ps.spec.key[m.From]
	if !ok {
		ps.p.internalf("tuple from unexpected sender %d", m.From)
	}
	for i, n, w := 0, rowsIn(m), sk.width; i < n; i++ {
		row := m.Vals[i*w : (i+1)*w]
		ps.split[relation.HashTupleAt(row, sk.pos)%uint64(len(ps.split))].add(row)
	}
	for s, wk := range ps.workers {
		if b := &ps.split[s]; b.count > 0 {
			out := tupleMsg(ps.p.id, s+1, b)
			out.From = m.From
			wk.box.Put(out)
		}
	}
}

// maybeEnd is the non-recursive completion check of a partitioned node:
// identical to ruleState/goalState.maybeEnd, but over the aggregated view —
// control mailbox empty, every worker Quiet (flushed), and every feeder
// settled under the atomically-merged request counts. The check order
// matters: feedersSettled reads the atomic counters only after the Quiet
// loads, so requests queued by a completed worker are always visible.
func (ps *partState) maybeEnd() {
	p := ps.p
	if ps.spec.isRule && !ps.relReqReceived {
		return
	}
	if p.box.Empty() && ps.quiet() && p.feedersSettled() {
		ps.confirmedEnd()
	}
}

// confirmedEnd advances the tree customer's watermark: from maybeEnd, or
// after a confirmed Fig 2 round (partitioned component leaders are always
// goal nodes).
func (ps *partState) confirmedEnd() {
	if cs := &ps.customers[0]; cs.registered {
		ps.p.emitEnd(ps.p.custs[0].id, cs)
	}
}

// newWorkerProc builds worker shard idx of a partitioned node: a proc that
// shares the control process's identity (id, node, feeds — the request
// counters are atomic) but owns a private mailbox, rule/goal state, and
// profile shard. Worker procs run workerLoop, never step: the protocol
// fields stay unused.
func newWorkerProc(ctl *proc, box *transport.Mailbox, idx int, ps *partState) *proc {
	rt := ctl.rt
	p := &proc{rt: rt, id: ctl.id, node: ctl.node, box: box, feeds: ctl.feeds,
		wk: &workerCtx{ps: ps, idx: idx}}
	if rt.prof != nil {
		p.shard = rt.prof.WorkerShard(ctl.id, idx, ps.spec.n)
	}
	p.wire()
	switch ctl.node.Kind {
	case rgg.Goal:
		p.goal = newGoalState(p)
	case rgg.Rule:
		p.rule = newRuleState(p)
	}
	return p
}

// workerLoop is the worker shard's process body, ended by stop closing its
// mailbox. The discipline mirrors proc.step's flush rules with one addition:
// the busy flag spans dequeue → flush, and the completion counter is bumped
// before ClearBusy, so the control process's Quiet/workNow observations never
// miss output (see the package comment at the top of this file).
func (p *proc) workerLoop() {
	wk := p.wk
	ctl := wk.ps.p.box
	observe := p.shard != nil || p.rt.events != nil
	for {
		m, ok := p.box.GetWork()
		if !ok {
			p.flushWork()
			return
		}
		var start time.Time
		if observe {
			start = time.Now()
		}
		if p.goal != nil {
			p.goal.handle(m)
		} else {
			p.rule.handle(m)
		}
		drained := p.box.Empty()
		if drained {
			p.flushAll()
			p.flushWork()
		}
		wk.work.Add(1)
		p.box.ClearBusy()
		if observe {
			p.observe(m, start)
		}
		if drained {
			// Local quiescence may complete the node's: wake the control
			// process so it re-evaluates ends / nudges its leader. The
			// self-addressed Nudge is engine-internal (not sent through the
			// network), mirroring Fig 2's liveness hint.
			ctl.Put(msg.Message{Kind: msg.Nudge, From: p.id, To: p.id})
		}
	}
}
