package engine

import (
	"slices"
	"time"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/edb"
	"repro/internal/msg"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/symtab"
)

// goalState is the mutable state of a goal-node process. Three flavors
// share it, distinguished at construction: ordinary IDB goal nodes (union
// of rule children, per-customer answer streams), the EDB leaves that keep
// a process (selection against the base relation), and variant nodes
// (selection on an ancestor's relation through a cycle edge).
//
// Per §3.1, "goal nodes store their temporary relations, and only forward
// answer tuples that are genuinely new", and "a goal node with multiple
// out-edges needs to furnish answers in separate streams to each successor
// node" — different successors will have requested different subsets.
//
// Two kinds of EDB leaf keep a process; below a rule, a leaf with no
// existential position has none: its rule joins it in place (see inPlace).
// A leaf with an existential position stores its answers, to dedup what
// its projection collapses. A base query at the root passes its selected
// rows straight to the driver: the base relation is a set, a selection that
// carries every non-constant position is injective, different bindings
// select disjoint rows, and reqs refuses a binding twice, so no row can
// repeat. Its answers relation is nil. Variant nodes relay their
// ancestor's stream (the paper's "trivial goal nodes") without storing.
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
	answers *relation.Relation // nil on the root's EDB leaf

	// Scratch, reused by every row: an answer's d-projection, the probe for
	// the stored answers under one d-binding, and probe results.
	dVals   relation.Tuple
	ansBind relation.Binding
	rows    []relation.Tuple

	// EDB leaves: the selection, and a base row projected to the carried
	// positions.
	sel *baseSel
	buf relation.Tuple

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
	}
	g.reqs = relation.New(len(g.dPos))
	if !n.EDB || slices.Contains(n.Ad, adorn.Existential) {
		g.answers = relation.New(len(g.carried))
	}
	g.dVals = make(relation.Tuple, len(g.dPos))
	g.ansBind = make(relation.Binding, len(g.carried))
	idx := make(map[int]int, len(g.carried))
	for i, pos := range g.carried {
		idx[pos] = i
	}
	for _, pos := range g.dPos {
		g.dIdx = append(g.dIdx, idx[pos])
	}
	if n.EDB {
		g.sel = newBaseSel(n.Atom, n.Ad, p.rt.db)
		g.buf = make(relation.Tuple, len(g.carried))
	}
	return g
}

// inPlace reports whether goal node n is a base subgoal its rule joins in
// place, having no process: an EDB leaf below a rule whose selection never
// collapses two base rows into one answer (no existential position).
func inPlace(n *rgg.Node) bool {
	return n.EDB && n.Parent != rgg.NoNode && !slices.Contains(n.Ad, adorn.Existential)
}

// baseSel is an EDB leaf's selection against the one shared store (so a
// predicate with no facts at plan time picks up rows as they arrive):
// constant positions and "d" bindings select, repeated variables filter.
// Leaf processes and rules' in-place base subgoals read through one.
type baseSel struct {
	key    ast.PredKey
	consts relation.Binding // constant positions, pre-interned
	eqPos  [][2]int         // argument positions repeating a variable: [later, first]
	dPos   []int            // argument positions of class "d"
	seen   int              // cardinality absorbed: [seen:] is the next delta window
	// Scratch: one selection, a row's d-projection and the selected rows,
	// held while they are bind's (a rule's probe under it reuses them).
	bind  relation.Binding
	dVals relation.Tuple
	rows  []relation.Tuple
	held  bool
}

func newBaseSel(atom ast.Atom, ad adorn.Adornment, db edb.Storage) *baseSel {
	b := &baseSel{key: atom.Key(), consts: make(relation.Binding, len(atom.Args)), dPos: dynamicPositions(ad),
		seen: db.Cardinality(atom.Key()), bind: make(relation.Binding, len(atom.Args))}
	b.dVals = make(relation.Tuple, len(b.dPos))
	first := make(map[string]int) // variable → its first argument position
	for i, t := range atom.Args {
		if !t.IsVar() {
			b.consts[i] = db.Symbols().Intern(t.Const)
		} else if f, seen := first[t.Var]; seen {
			b.eqPos = append(b.eqPos, [2]int{i, f})
		} else {
			first[t.Var] = i
		}
	}
	return b
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
	case msg.Tuple:
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
		if fresh && g.answers != nil {
			for ord := range g.answers.Len() {
				g.p.queueTuple(c, g.answers.Row(ord))
			}
		}
	}
	if !g.relReqForwarded {
		g.relReqForwarded = true
		switch {
		case g.cycleTo != rgg.NoNode:
			g.p.send(msg.Message{Kind: msg.RelReq, To: g.cycleTo})
		case g.sel != nil:
			if g.p.rt.delta {
				g.sel.window(g.p, g.reqs, g.emit)
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
	case g.sel != nil:
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
		g.p.tally.Dups++
		return
	}
	g.p.tally.Stored++
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
// is nil) by selection against the base relation.
func (g *goalState) serviceEDB(vals []symtab.Sym) {
	for _, row := range g.sel.retrieve(g.p, vals) {
		g.emit(row)
	}
}

// emit delivers one selected base row, projected to the carried positions:
// straight to the driver from the root's leaf, else through the answer
// store, which dedups rows differing only existentially.
func (g *goalState) emit(row relation.Tuple) {
	for i, pos := range g.carried {
		g.buf[i] = row[pos]
	}
	if g.answers == nil {
		g.p.queueTuple(0, g.buf)
		return
	}
	g.onTuple(g.buf)
}

// retrieve selects the rows matching the constants and vals at the "d"
// positions (nil vals: the implicit request) whose repeated variables
// agree, and counts one EDB scan.
func (b *baseSel) retrieve(p *proc, vals []symtab.Sym) []relation.Tuple {
	copy(b.bind, b.consts)
	b.held = false
	for i, pos := range b.dPos {
		if b.bind[pos] != symtab.NoSym && b.bind[pos] != vals[i] {
			return nil // repeated d-variable bound inconsistently: no matches
		}
		b.bind[pos] = vals[i]
	}
	p.tally.EDBScans++
	if d := p.rt.edbDelay; d > 0 {
		time.Sleep(d) // simulated retrieval latency (see Options.EDBDelay)
	}
	b.rows, b.held = p.rt.db.ScanInto(b.rows[:0], b.key, b.bind), true
	p.tally.EDBTuples += int64(len(b.rows))
	if len(b.eqPos) > 0 {
		b.rows = slices.DeleteFunc(b.rows, func(row relation.Tuple) bool { return !b.match(row) })
	}
	return b.rows
}

// rewind readies the selection for a run that is not a delta round: no rows
// held, and the next delta window starts at the base relation's current end.
func (b *baseSel) rewind(db edb.Storage) {
	b.held = false
	b.seen = db.Cardinality(b.key)
}

// holds reports whether rows are the selection under binding bind.
func (b *baseSel) holds(bind relation.Binding) bool {
	return b.held && slices.Equal(b.bind, bind)
}

// match reports whether a row's repeated variables agree.
func (b *baseSel) match(row relation.Tuple) bool {
	for _, eq := range b.eqPos {
		if row[eq[0]] != row[eq[1]] {
			return false
		}
	}
	return true
}

// window seeds one delta round: the rows appended since the previous round
// (the Δ window) that the selection keeps, and whose d-projection is in
// reqs, go to keep. A row under a binding never requested joins no answer
// yet: the retrieval for that binding finds it when it first arrives.
func (b *baseSel) window(p *proc, reqs *relation.Relation, keep func(relation.Tuple)) {
	from, total := b.seen, p.rt.db.Cardinality(b.key)
	b.seen = total
	if from >= total {
		return
	}
	p.tally.EDBScans++
	if d := p.rt.edbDelay; d > 0 {
		time.Sleep(d) // one simulated retrieval for the whole window
	}
	scanned, seeded := 0, 0
	for row := range p.rt.db.ScanSince(b.key, from) {
		scanned++
		if !b.consts.Matches(row) || !b.match(row) {
			continue
		}
		for i, pos := range b.dPos {
			b.dVals[i] = row[pos]
		}
		if len(b.dPos) == 0 || reqs.Contains(b.dVals) {
			keep(row)
			seeded++
		}
	}
	p.tally.EDBTuples += int64(scanned)
	p.tally.DeltaSeeded += int64(seeded)
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
