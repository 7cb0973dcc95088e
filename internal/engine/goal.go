package engine

import (
	"time"

	"repro/internal/msg"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/symtab"
)

// goalState is the mutable state of a goal-node process. Three flavors
// share it, distinguished at construction: ordinary IDB goal nodes (union
// of rule children, per-customer answer streams), EDB leaves (selection
// against the base relation), and variant nodes (selection on an ancestor's
// relation through a cycle edge).
//
// Per §3.1, "goal nodes store their temporary relations, and only forward
// answer tuples that are genuinely new", and "a goal node with multiple
// out-edges needs to furnish answers in separate streams to each successor
// node" — different successors will have requested different subsets.
type goalState struct {
	p *proc

	dPos    []int // argument positions of class "d"
	carried []int // argument positions whose values travel in tuples
	dIdx    []int // index of each dPos within carried

	// customers[i] is the per-successor view of p.custs[i]; the tree
	// customer comes first.
	customers []customerState

	relReqForwarded bool
	// reqs holds the d-bindings already forwarded/serviced. A binding's
	// ordinal there names it in each customer's asked set.
	reqs    *relation.Relation
	answers *relation.Relation

	// Scratch, reused by every row: an answer's d-projection, the probe for
	// the stored answers under one d-binding, and probe results.
	dVals   relation.Tuple
	ansBind relation.Binding
	rows    []relation.Tuple

	// EDB leaves: retrieval processes in front of the one shared store. A
	// leaf holds no rows of its own, so a predicate with no facts at plan
	// time picks up rows as they arrive.
	isEDB  bool
	consts relation.Binding // constant positions, pre-interned
	eqPos  [][2]int         // argument positions repeating a variable: [later, first]
	// seenBase is the base-relation cardinality this leaf has absorbed:
	// ordinals [seenBase:] are the next delta window (Incremental rounds),
	// streamed from the store with ScanSince.
	seenBase int
	binding  relation.Binding // scratch: one selection against the base relation
	buf      relation.Tuple   // scratch: a base row projected to the carried positions

	// Variant nodes.
	cycleTo int
}

// customerState is the per-successor view: which tuple requests this
// customer has issued (so answers can be filtered into its stream), how
// many, whether it has promised to send no more, and — for the tree
// customer, the only one owed end messages — how far its End watermark has
// advanced. A rule node keeps one for its parent goal.
type customerState struct {
	registered bool
	asked      []uint64 // bitset over goalState.reqs ordinals
	reqCount   int
	reqEnd     bool
	// lastWatermark is the reqCount of the latest End; allSent latches the
	// final End{All}.
	lastWatermark int
	allSent       bool
	// deltaEnded latches this round's drain End (see feedState.drained).
	deltaEnded bool
}

// ask records that the customer requested binding ord and reports whether
// it had not before.
func (cs *customerState) ask(ord int) bool {
	w, bit := ord>>6, uint64(1)<<(ord&63)
	for len(cs.asked) <= w {
		cs.asked = append(cs.asked, 0)
	}
	first := cs.asked[w]&bit == 0
	cs.asked[w] |= bit
	return first
}

func (cs *customerState) has(ord int) bool {
	w := ord >> 6
	return w < len(cs.asked) && cs.asked[w]&(1<<(ord&63)) != 0
}

// reset returns the view to its just-constructed state, keeping the
// bitset's capacity — or, for a delta round, only re-arms the per-round
// liveness flags: registration, the request set and both sides of the
// watermark are cumulative across rounds.
func (cs *customerState) reset(delta bool) {
	if delta {
		cs.reqEnd, cs.allSent, cs.deltaEnded = false, false, false
		return
	}
	*cs = customerState{asked: cs.asked[:0]}
}

// emitEnd sends customer `to` an End when there is something to report:
// the watermark advanced, the final End{All} is due, or this delta round's
// drain End has not gone out yet.
func (p *proc) emitEnd(to int, cs *customerState) {
	final := cs.reqEnd && !cs.allSent
	drain := p.rt.delta && !cs.deltaEnded
	if cs.reqCount > cs.lastWatermark || final || drain {
		p.send(msg.Message{Kind: msg.End, To: to, N: cs.reqCount, All: cs.reqEnd})
		cs.lastWatermark = cs.reqCount
		cs.deltaEnded = true
		cs.allSent = cs.reqEnd
	}
}

func newGoalState(p *proc) *goalState {
	n := p.node
	g := &goalState{
		p:         p,
		dPos:      dynamicPositions(n.Ad),
		carried:   carriedPositions(n.Ad),
		customers: make([]customerState, len(p.custs)),
		cycleTo:   n.CycleTo,
		isEDB:     n.EDB,
	}
	g.reqs = relation.New(len(g.dPos))
	g.answers = relation.New(len(g.carried))
	g.dVals = make(relation.Tuple, len(g.dPos))
	g.ansBind = make(relation.Binding, len(g.carried))
	idx := make(map[int]int, len(g.carried))
	for i, pos := range g.carried {
		idx[pos] = i
	}
	for _, pos := range g.dPos {
		g.dIdx = append(g.dIdx, idx[pos])
	}
	if g.isEDB {
		g.seenBase = p.rt.db.Cardinality(n.Atom.Key())
		g.consts = make(relation.Binding, len(n.Atom.Args))
		g.binding = make(relation.Binding, len(n.Atom.Args))
		g.buf = make(relation.Tuple, len(g.carried))
		first := make(map[string]int) // variable → its first argument position
		for i, t := range n.Atom.Args {
			if !t.IsVar() {
				g.consts[i] = p.rt.db.Symbols().Intern(t.Const)
			} else if f, seen := first[t.Var]; seen {
				g.eqPos = append(g.eqPos, [2]int{i, f})
			} else {
				first[t.Var] = i
			}
		}
	}
	return g
}

func (g *goalState) handle(m msg.Message) {
	switch m.Kind {
	case msg.RelReq:
		g.onRelReq(g.p.custPos(m.From))
	case msg.TupReq:
		c := g.p.custPos(m.From)
		for i, n, w := 0, rowsIn(m), len(g.dPos); i < n; i++ {
			g.onTupReq(c, m.Vals[i*w:(i+1)*w])
		}
	case msg.Tuple, msg.TupleBatch:
		for i, n, w := 0, rowsIn(m), len(g.carried); i < n; i++ {
			g.onTuple(m.Vals[i*w : (i+1)*w])
		}
	case msg.ReqEnd:
		g.customers[g.p.custPos(m.From)].reqEnd = true
	default:
		g.p.internalf("unexpected %s", m.Kind)
	}
}

// onRelReq registers customer c and, on the first relation request,
// propagates the request tree-downward (or across the cycle edge). A node
// with no "d" positions has a single implicit request, so the relation
// request doubles as the request-end.
func (g *goalState) onRelReq(c int) {
	cs := &g.customers[c]
	fresh := !cs.registered
	cs.registered = true
	if len(g.dPos) == 0 {
		cs.reqEnd = true
		// A late-registering customer receives everything already stored.
		// This precedes any servicing below so the triggering customer is
		// not sent fresh answers twice (once here, once on arrival). On a
		// delta round the customer re-registers but already received the
		// store in earlier rounds, so the replay is skipped (fresh=false:
		// registrations survive a delta reset).
		if fresh {
			for _, t := range g.answers.Rows() {
				g.p.queueTuple(c, t)
			}
		}
	}
	if !g.relReqForwarded {
		g.relReqForwarded = true
		switch {
		case g.cycleTo != rgg.NoNode:
			g.p.send(msg.Message{Kind: msg.RelReq, To: g.cycleTo})
		case g.isEDB:
			if g.p.rt.delta {
				g.serviceEDBDelta()
			} else if len(g.dPos) == 0 {
				g.serviceEDB(nil)
			}
		default:
			for _, c := range g.p.node.Children {
				g.p.send(msg.Message{Kind: msg.RelReq, To: c})
			}
		}
	}
}

// onTupReq records customer c's binding, replays stored matching answers
// into its stream, and forwards the binding once to whoever computes this
// relation.
func (g *goalState) onTupReq(c int, vals []symtab.Sym) {
	cs := &g.customers[c]
	cs.reqCount++
	ord, fresh := g.reqs.Add(vals)
	first := cs.ask(ord)
	if !fresh {
		if first {
			// Another customer asked before this one: catch it up through
			// the answers' index over the "d" columns.
			clear(g.ansBind)
			for i, k := range g.dIdx {
				g.ansBind[k] = vals[i]
			}
			g.rows = g.answers.SelectInto(g.rows[:0], g.ansBind)
			for _, t := range g.rows {
				g.p.queueTuple(c, t)
			}
		}
		return
	}
	switch {
	case g.cycleTo != rgg.NoNode:
		g.p.queueTupReq(0, vals)
	case g.isEDB:
		g.serviceEDB(vals)
	default:
		for k := range g.p.kids {
			g.p.queueTupReq(k, vals)
		}
	}
}

// onTuple stores a (new) answer and fans it out to every customer whose
// request set covers it. Variant nodes are the paper's "trivial goal nodes
// ... exempt" from storing: they just relay the ancestor's stream.
func (g *goalState) onTuple(vals []symtab.Sym) {
	if g.cycleTo != rgg.NoNode {
		g.p.queueTuple(0, vals)
		return
	}
	if !g.answers.Insert(vals) {
		g.p.work.Dups++
		return
	}
	g.p.work.Stored++
	req := 0 // with no "d" positions every customer made the one implicit request
	if len(g.dPos) > 0 {
		// The d-position values of a carried tuple are the tuple request
		// that asked for it.
		for i, k := range g.dIdx {
			g.dVals[i] = vals[k]
		}
		if req = g.reqs.Ordinal(g.dVals); req < 0 {
			return
		}
	}
	for c := range g.customers {
		if cs := &g.customers[c]; cs.registered && (len(g.dPos) == 0 || cs.has(req)) {
			g.p.queueTuple(c, vals)
		}
	}
}

// serviceEDB answers one tuple request (or the implicit request when vals
// is nil) by selection against the base relation: constant positions and
// "d" bindings select, repeated variables filter, and the projection to the
// carried positions drops existential values.
func (g *goalState) serviceEDB(vals []symtab.Sym) {
	binding := g.binding
	copy(binding, g.consts)
	for i, pos := range g.dPos {
		if binding[pos] != symtab.NoSym && binding[pos] != vals[i] {
			return // repeated d-variable bound inconsistently: no matches
		}
		binding[pos] = vals[i]
	}
	g.p.work.EDBScans++
	if d := g.p.rt.edbDelay; d > 0 {
		time.Sleep(d) // simulated retrieval latency (see Options.EDBDelay)
	}
	n := g.p.node
	g.rows = g.p.rt.db.ScanInto(g.rows[:0], n.Atom.Key(), binding)
	g.p.work.EDBTuples += int64(len(g.rows))
	for _, row := range g.rows {
		g.emitBase(row)
	}
}

// emitBase delivers one selected base row: repeated variables filter, the
// projection drops existential values, and the answer store dedups (the
// projection may collapse rows that differ only existentially) before the
// row streams to the customer.
func (g *goalState) emitBase(row relation.Tuple) {
	for _, eq := range g.eqPos {
		if row[eq[0]] != row[eq[1]] {
			return
		}
	}
	for i, pos := range g.carried {
		g.buf[i] = row[pos]
	}
	g.onTuple(g.buf)
}

// serviceEDBDelta seeds one delta round at an EDB leaf: the base-relation
// rows appended since the previous round (the Δ window) are filtered and
// delivered exactly as serviceEDB would have, but without rescanning the
// rows every earlier round already absorbed.
//
// Free-access leaves (no "d" positions) deliver every surviving window row.
// Bound-access leaves deliver only rows whose d-projection was already
// requested (g.reqs): a row under a never-requested binding is not part
// of any answer yet — it waits in the relation and is found by the ordinary
// scan when its binding first arrives.
func (g *goalState) serviceEDBDelta() {
	n := g.p.node
	from := g.seenBase
	total := g.p.rt.db.Cardinality(n.Atom.Key())
	g.seenBase = total
	if from >= total {
		return
	}
	g.p.work.EDBScans++
	if d := g.p.rt.edbDelay; d > 0 {
		time.Sleep(d) // one simulated retrieval for the whole window
	}
	scanned, seeded := 0, 0
window:
	for row := range g.p.rt.db.ScanSince(n.Atom.Key(), from) {
		scanned++
		for i, sym := range g.consts {
			if sym != symtab.NoSym && row[i] != sym {
				continue window
			}
		}
		for _, eq := range g.eqPos {
			if row[eq[0]] != row[eq[1]] {
				continue window
			}
		}
		if len(g.dPos) > 0 {
			for i, pos := range g.dPos {
				g.dVals[i] = row[pos]
			}
			if !g.reqs.Contains(g.dVals) {
				continue
			}
		}
		seeded++
		for i, pos := range g.carried {
			g.buf[i] = row[pos]
		}
		g.onTuple(g.buf)
	}
	g.p.work.EDBTuples += int64(scanned)
	g.p.rt.stats.DeltaSeeded(int64(seeded))
}

// maybeEnd implements non-recursive completion: once every cross-component
// child has serviced everything forwarded to it, the watermark advances to
// the customer; once the customer has also promised no more requests, the
// final End{All} goes out. Recursive nodes never reach here (the Fig 2
// protocol governs them); see proc.after.
func (g *goalState) maybeEnd() {
	if !g.p.box.Empty() || !g.p.feedersSettled() {
		return
	}
	g.confirmedEnd()
}

// confirmedEnd is invoked on the component leader when a protocol round
// confirms quiescence: everything requested so far is complete, so the
// leader advances its customer's watermark (Theorem 3.1's "end message").
func (g *goalState) confirmedEnd() {
	if cs := &g.customers[0]; cs.registered {
		g.p.emitEnd(g.p.custs[0].id, cs)
	}
}
