package engine

import (
	"fmt"

	"repro/internal/adorn"
	"repro/internal/msg"
	"repro/internal/rgg"
	"repro/internal/symtab"
	"repro/internal/trace"
	"repro/internal/transport"
)

// proc is one node process. It owns its mailbox and all mutable state; the
// only interaction with other processes is rt.send, and it runs only when
// the site's run loop hands it a message. The behavior dispatch
// is by node kind: goal nodes (including EDB leaves and variant nodes with
// cycle edges) live in goal.go, rule nodes in rule.go; the strong-component
// termination protocol below is shared.
type proc struct {
	rt   *runner
	id   int
	node *rgg.Node
	box  *transport.Mailbox

	// shard is this node's profile counter shard, nil unless
	// Options.Profile is set. flushWork adds the node's work tally to it
	// alongside the aggregate stats; rt.send attributes sent messages by
	// m.From.
	shard *trace.NodeShard

	// recursive is true when the node belongs to a nontrivial strong
	// component; such nodes run the Fig 2 protocol instead of sending
	// per-edge end messages on internal edges.
	recursive bool
	isLeader  bool
	leaderID  int
	// bfstChildren are the protocol children; bfstParent is the protocol
	// parent (valid for non-leader members).
	bfstChildren []int
	bfstParent   int

	// feeds tracks each cross-component child edge for the watermark
	// accounting.
	feeds []*feedState

	// Protocol state (§3.2, Fig 2).
	idleness   int
	probeWaits bool // an end request is held here until the node is locally quiet
	round      int  // current round number at this node
	waitingFor int  // outstanding child answers in the current round
	anyNeg     bool // some child answered negative this round
	inRound    bool // leader: a round is active
	confirmed  bool // leader: the last round confirmed quiescence

	// Kind-specific state.
	goal *goalState
	rule *ruleState

	// Packaged delivery (footnote 2), the only mode: kids buffers outgoing
	// tuple requests per child, custs outgoing tuples per customer. Both
	// are built once per proc and flushed at mailbox-drain boundaries and
	// before any termination-protocol message is handled, so completion
	// logic never observes a state with undelivered buffered traffic.
	// buffered counts the rows they hold.
	kids     []kidOut
	custs    []custOut
	buffered int

	// work tallies this process's data-path counters; flushWork adds them
	// to the shared stats (and the profile shard) once per mailbox drain.
	work trace.Work
}

// kidOut is the request stream to one child: node.Children in order, then
// the cycle edge's target on a variant node.
type kidOut struct {
	id   int
	feed *feedState // nil on an edge inside this node's strong component
	buf  rowBuf
}

// custOut is the answer stream to one customer: the tree parent (the driver
// for the root) first, then every variant node selecting from this one
// through a cycle edge.
type custOut struct {
	id  int
	buf rowBuf
}

// rowBuf accumulates concatenated same-width rows bound for one mailbox
// (d-bindings of a packaged tuple request, or carried rows of a tuple
// batch). A flush hands vals to the receiver, so each flush costs one
// allocation, sized by the flush before it.
type rowBuf struct {
	vals  []symtab.Sym
	count int
	hint  int
}

func (b *rowBuf) add(vals []symtab.Sym) {
	if b.vals == nil && b.hint > 0 {
		b.vals = make([]symtab.Sym, 0, b.hint)
	}
	b.vals = append(b.vals, vals...)
	b.count++
}

// take empties the buffer, returning what it held.
func (b *rowBuf) take() (vals []symtab.Sym, count int) {
	vals, count = b.vals, b.count
	b.hint = len(vals)
	b.drop()
	return vals, count
}

// drop discards the buffered rows, keeping the size hint.
func (b *rowBuf) drop() { b.vals, b.count = nil, 0 }

// feedState is the customer's view of one cross-component child: how many
// tuple requests were sent and how many the child has acknowledged as fully
// serviced. Children without "d" positions have one implicit request,
// completed by End{All}.
type feedState struct {
	child  int
	hasD   bool
	sent   int
	acked  int
	allEnd bool
	// drained marks that the child has sent at least one End this delta
	// round. Delta rounds push new base tuples upward without any request
	// carrying them, so the request watermark alone cannot tell "nothing
	// outstanding" from "the delta has not arrived yet": each node emits
	// one End per delta round once its own subtree has drained, and a
	// customer treats a feeder as settled only after seeing it (FIFO
	// delivery puts the End behind every delta tuple the child pushed).
	// Ignored outside delta rounds; cleared by reset.
	drained bool
}

func (f *feedState) settled() bool {
	if f.hasD {
		return f.acked >= f.sent
	}
	return f.allEnd
}

func newProc(rt *runner, id int, box *transport.Mailbox) *proc {
	n := rt.g.Nodes[id]
	p := &proc{rt: rt, id: id, node: n, box: box}
	if rt.prof != nil {
		p.shard = rt.prof.Counters(id)
	}
	p.recursive = rt.g.Recursive(id)
	if p.recursive {
		p.leaderID = rt.g.Leader[n.SCC]
		p.isLeader = p.leaderID == id
		p.bfstChildren = n.BFSTChildren
		if !p.isLeader {
			p.bfstParent = n.Parent
		} else {
			p.bfstParent = rgg.NoNode
		}
	}
	for _, c := range n.Children {
		if rt.g.Nodes[c].SCC != n.SCC {
			p.feeds = append(p.feeds, &feedState{child: c, hasD: hasDynamic(childAdornment(rt.g, c))})
		}
	}
	kids := n.Children
	if n.CycleTo != rgg.NoNode {
		kids = append(kids[:len(kids):len(kids)], n.CycleTo)
	}
	p.kids = make([]kidOut, len(kids))
	for i, c := range kids {
		p.kids[i] = kidOut{id: c, feed: p.feed(c)}
	}
	custs := []int{p.customerID()}
	for id, v := range rt.g.Nodes {
		if v.CycleTo == p.id {
			custs = append(custs, id)
		}
	}
	p.custs = make([]custOut, len(custs))
	for i, c := range custs {
		p.custs[i] = custOut{id: c}
	}
	switch n.Kind {
	case rgg.Goal:
		p.goal = newGoalState(p)
	case rgg.Rule:
		p.rule = newRuleState(p)
	}
	return p
}

// kidPos returns child c's position in p.kids.
func (p *proc) kidPos(c int) int {
	for k := range p.kids {
		if p.kids[k].id == c {
			return k
		}
	}
	p.internalf("node %d is not a child", c)
	return -1
}

// custPos returns customer c's position in p.custs.
func (p *proc) custPos(c int) int {
	for i := range p.custs {
		if p.custs[i].id == c {
			return i
		}
	}
	p.internalf("node %d is not a customer", c)
	return -1
}

// feed returns the watermark state of cross-component child c, nil for a
// child inside this node's strong component.
func (p *proc) feed(c int) *feedState {
	for _, f := range p.feeds {
		if f.child == c {
			return f
		}
	}
	return nil
}

// childAdornment returns the adornment governing requests to child c: a
// rule node inherits its parent goal's adornment; goal nodes carry their
// own.
func childAdornment(g *rgg.Graph, c int) adorn.Adornment {
	return g.Nodes[c].Ad
}

func hasDynamic(ad adorn.Adornment) bool {
	for _, c := range ad {
		if c == adorn.Dynamic {
			return true
		}
	}
	return false
}

// carriedPositions returns the argument positions whose values travel in
// tuple messages: every class except existential (§2.2).
func carriedPositions(ad adorn.Adornment) []int {
	var out []int
	for i, c := range ad {
		if c.Carried() && c != adorn.Const {
			out = append(out, i)
		}
	}
	return out
}

// dynamicPositions returns the positions of class "d".
func dynamicPositions(ad adorn.Adornment) []int {
	var out []int
	for i, c := range ad {
		if c == adorn.Dynamic {
			out = append(out, i)
		}
	}
	return out
}

// step is the process body for one dequeued message, called by the run loop
// for whichever process it picked: handle, flush batched output at
// mailbox-drain boundaries, then re-evaluate completion.
//
// The flush discipline is what keeps packaging protocol-transparent: buffered
// rows are flushed (a) before handling any termination-protocol message, so
// an idleness probe never observes a node holding undelivered traffic, and
// (b) whenever the mailbox drains, which always precedes after() — the only
// place End messages and protocol rounds originate. Hence every buffered
// tuple reaches the channel before any End that covers it (per-sender FIFO
// does the rest), and emptyQueues() is never evaluated with hidden output.
func (p *proc) step(m msg.Message) {
	if !isWork(m.Kind) {
		p.flushAll()
	}
	p.handle(m)
	if p.box.Empty() {
		p.flushAll()
		p.flushWork()
	}
	p.after(m)
}

// flushWork adds the process's private tally (p.work: every derived tuple,
// join probe and EDB scan lands on the node that did the work) to the
// aggregate stats and, when profiling, this node's shard.
func (p *proc) flushWork() {
	if p.work == (trace.Work{}) {
		return
	}
	p.rt.stats.AddWork(p.work)
	if p.shard != nil {
		p.shard.AddWork(p.work)
	}
	p.work = trace.Work{}
}

// queueTupReq buffers one tuple-request binding for child position k,
// maintaining the cross-component watermark accounting. The binding is
// copied, so callers may reuse vals.
func (p *proc) queueTupReq(k int, vals []symtab.Sym) {
	kid := &p.kids[k]
	if kid.feed != nil {
		kid.feed.sent++
	}
	kid.buf.add(vals)
	p.buffered++
}

// queueTuple buffers one derived tuple for customer position c. The row is
// copied, so callers may reuse vals.
func (p *proc) queueTuple(c int, vals []symtab.Sym) {
	p.custs[c].buf.add(vals)
	p.buffered++
}

// flushAll drains the output buffers onto the channel: one packaged tuple
// request per child with buffered bindings (footnote 2: "if packaged, the
// retrieval can be done in one scan"), then per customer mailbox a lone row
// as an ordinary Tuple, several as one TupleBatch.
func (p *proc) flushAll() {
	if p.buffered == 0 {
		return
	}
	p.buffered = 0
	for i := range p.kids {
		if kid := &p.kids[i]; kid.buf.count > 0 {
			vals, n := kid.buf.take()
			p.send(msg.Message{Kind: msg.TupReq, To: kid.id, Vals: vals, Count: n})
		}
	}
	for i := range p.custs {
		if cust := &p.custs[i]; cust.buf.count > 0 {
			p.send(tupleMsg(cust.id, &cust.buf))
		}
	}
}

// tupleMsg empties a row buffer into the message that carries it.
func tupleMsg(to int, b *rowBuf) msg.Message {
	vals, n := b.take()
	if n == 1 {
		return msg.Message{Kind: msg.Tuple, To: to, Vals: vals}
	}
	return msg.Message{Kind: msg.TupleBatch, To: to, Vals: vals, Count: n}
}

// clearOutput drops anything still buffered (the previous run ended early).
func (p *proc) clearOutput() {
	p.buffered = 0
	for i := range p.kids {
		p.kids[i].buf.drop()
	}
	for i := range p.custs {
		p.custs[i].buf.drop()
	}
}

// rowsIn is the number of rows a Tuple, TupleBatch or (possibly packaged)
// TupReq carries; row i of width w is m.Vals[i*w:(i+1)*w]. Zero-width rows
// are legal: a propositional batch is Count empty rows.
func rowsIn(m msg.Message) int {
	if m.Kind == msg.TupleBatch || m.Count > 1 {
		return m.Count
	}
	return 1
}

func (p *proc) handle(m msg.Message) {
	switch m.Kind {
	case msg.EndReq:
		p.onEndReq(m)
	case msg.EndNeg:
		p.onEndAnswer(m, false)
	case msg.EndConf:
		p.onEndAnswer(m, true)
	case msg.Nudge:
		// handled in after()
	case msg.End:
		p.onEnd(m)
	default:
		if p.goal != nil {
			p.goal.handle(m)
		} else {
			p.rule.handle(m)
		}
	}
}

// onEnd updates the watermark for a cross-component child.
func (p *proc) onEnd(m msg.Message) {
	f := p.feed(m.From)
	if f == nil {
		return // end from an internal edge; ignore (should not happen)
	}
	if m.N > f.acked {
		f.acked = m.N
	}
	if m.All {
		f.allEnd = true
	}
	f.drained = true
}

// feedersSettled reports whether every cross-component child has serviced
// everything sent to it — the "received end messages from all its feeders"
// half of empty_queues().
func (p *proc) feedersSettled() bool {
	delta := p.rt.delta
	for _, f := range p.feeds {
		if !f.settled() || (delta && !f.drained) {
			return false
		}
	}
	return true
}

// emptyQueues is the protocol predicate of Fig 2: the node has no pending
// work and its feeders have serviced all outstanding requests. (Buffered
// output is no concern here: it is flushed whenever the mailbox drains and
// before any protocol message is handled, see step.)
func (p *proc) emptyQueues() bool {
	return p.box.Empty() && p.feedersSettled()
}

// isWork classifies messages that constitute computation: anything except
// the termination-protocol traffic resets idleness (Fig 2's process_tuple
// does `idleness := 0`; we conservatively treat feeder end messages as work
// too).
func isWork(k msg.Kind) bool {
	switch k {
	case msg.EndReq, msg.EndNeg, msg.EndConf, msg.Nudge:
		return false
	}
	return true
}

// after runs the completion logic following every handled message: idleness
// bookkeeping, non-recursive end emission, nudges, and leader round starts.
func (p *proc) after(m msg.Message) {
	if p.recursive {
		if isWork(m.Kind) {
			p.idleness = 0
			if p.isLeader {
				p.confirmed = false
			}
		}
		if p.probeWaits {
			// A round is in progress and waiting for this node: no cue needed,
			// only the probe's turn once the node has gone quiet.
			if p.emptyQueues() {
				p.processEndReq()
			}
			return
		}
		if p.isLeader {
			if !p.inRound && p.emptyQueues() && !p.confirmed {
				p.startRound()
			}
		} else if isWork(m.Kind) && p.emptyQueues() {
			// Local quiescence may complete global quiescence: hint the
			// leader to (re)try a protocol round.
			p.send(msg.Message{Kind: msg.Nudge, To: p.leaderID})
		}
		return
	}
	// Non-recursive completion: emit watermark/final ends when settled.
	if p.goal != nil {
		p.goal.maybeEnd()
	} else {
		p.rule.maybeEnd()
	}
}

// ---- Fig 2: distributed termination of cycles -----------------------------

// startRound originates an end request (leader only): "idleness := 1;
// create-end-request; process-end-request".
func (p *proc) startRound() {
	p.rt.stats.Round()
	p.round++
	if p.shard != nil {
		p.shard.Round()
	}
	if p.rt.prof != nil {
		p.rt.prof.MarkRound(p.id, p.round, false)
	}
	p.inRound = true
	p.anyNeg = false
	p.idleness = 1
	p.processEndReq()
}

// onEndReq handles an end request arriving at a member from its BFST
// parent.
func (p *proc) onEndReq(m msg.Message) {
	p.round = m.Round
	p.processEndReq()
}

// processEndReq is Fig 2's process_end_request: bump or reset idleness,
// then forward the probe down the spanning tree, or answer immediately at a
// leaf.
//
// A probe waits at a node that is not locally quiet — mail queued behind it,
// feeders unsettled — until it is (see after). Delaying a probe is a message
// delay, which the protocol tolerates anywhere, while a negative answer given
// at once would only make the leader probe again, round after round.
func (p *proc) processEndReq() {
	if p.probeWaits = !p.emptyQueues(); p.probeWaits {
		return
	}
	p.idleness++
	p.waitingFor = len(p.bfstChildren)
	p.anyNeg = false
	if p.waitingFor > 0 {
		for _, c := range p.bfstChildren {
			p.send(msg.Message{Kind: msg.EndReq, To: c, Round: p.round})
		}
		return
	}
	p.answerRound()
}

// onEndAnswer handles a child's end negative / end confirmed.
func (p *proc) onEndAnswer(m msg.Message, confirmed bool) {
	if m.Round != p.round {
		return // stale answer from an abandoned round; cannot normally occur
	}
	if !confirmed {
		p.anyNeg = true
	}
	p.waitingFor--
	if p.waitingFor == 0 {
		p.answerRound()
	}
}

// answerRound concludes this node's part of the round once every child has
// answered: pass end confirmed up only if all children confirmed and this
// node has been idle for the whole period between the two most recent end
// requests (idleness ≥ 2); the leader either concludes the protocol or
// retries.
func (p *proc) answerRound() {
	ok := !p.anyNeg && p.idleness >= 2
	if !p.isLeader {
		kind := msg.EndNeg
		if ok {
			kind = msg.EndConf
		}
		p.send(msg.Message{Kind: kind, To: p.bfstParent, Round: p.round})
		return
	}
	p.inRound = false
	if ok {
		// "The BFST leader issues an end message if and only if all nodes
		// in the strong component are idle and end messages have been
		// received from all feeders of the strong component" (Thm 3.1).
		p.confirmed = true
		if p.rt.prof != nil {
			p.rt.prof.MarkRound(p.id, p.round, true)
		}
		p.goal.confirmedEnd()
		return
	}
	// Fig 2's process_end_negative: retry while locally quiet. The new probe
	// queues behind whatever the members still hold, so in-flight work lands
	// first; otherwise new work arrived and the normal after() path restarts.
	if p.emptyQueues() {
		p.startRound()
	}
}

// send stamps the sender and dispatches.
func (p *proc) send(m msg.Message) {
	m.From = p.id
	p.rt.send(m)
}

// customerID returns the node's customer for end purposes: its tree parent,
// or the driver for the root.
func (p *proc) customerID() int {
	if p.node.Parent == rgg.NoNode {
		return p.rt.driver
	}
	return p.node.Parent
}

func (p *proc) internalf(format string, args ...any) {
	panic(fmt.Sprintf("engine: node %d (%s): %s", p.id, p.node.Adorned(), fmt.Sprintf(format, args...)))
}
