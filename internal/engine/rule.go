package engine

import (
	"slices"
	"sync/atomic"

	"repro/internal/edb"
	"repro/internal/msg"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/symtab"
)

// ruleState is the mutable state of a rule-node process. Per §3.1, "it is
// appropriate for rule nodes to store their subgoals' temporary relations
// ... When a tuple arrives, provided it does not duplicate one already
// received, it is matched against the (partial) temporary relations of
// other subgoals to form new tuples via joins."
//
// The rule node also drives sideways information passing: whenever new
// bindings complete a prefix join up to subgoal j (in SIP order), the
// projection onto j's "d" variables is sent to j as tuple requests.
//
// A base subgoal without an existential position is joined in place
// (inPlace): no leaf process, no temporary relation. Steps over it probe the
// base relation, fixed for the run, on the slots already bound, so its rows
// are found when a derivation's other rows arrive.
//
// Storing is appropriate, not required: a subgoal whose rows no later probe
// can read keeps none (see subSource.transient).
//
// Internally a rule instance's variables map to dense slots; each source
// (the head-binding relation plus one per subgoal) lists which slots its
// columns populate, and derivations enumerate matching slot assignments by
// indexed backtracking join. Which sources a new row joins against, in
// what order, and which of their columns are probe keys is a pure function
// of (rule, SIP, source), so it is compiled once here into joinPlans; the
// row path only fills preallocated scratch.
type ruleState struct {
	p *proc

	// Head request interface: hb holds the distinct head d-variables, in
	// order; a tuple request is nHeadD values wide, hbFrom names the value
	// each hb column takes and hbChecks what the instantiated head demands
	// of the rest (constants introduced by unification, repeated variables).
	nHeadD   int
	hb       *relation.Relation
	hbSlots  []int
	hbFrom   []int
	hbChecks []valCheck

	// Head emission: the slot (or, at -1, the pre-interned constant) at
	// each carried head position, and the tuples already sent.
	headSlots  []int
	headConsts []symtab.Sym
	sentHeads  *relation.Relation

	subs []*subSource
	// plans[src+1] lists what a new row of source src sets off (index 0:
	// a new head binding): one sideways pass per later subgoal with "d"
	// arguments, in SIP order, then the head derivation.
	plans [][]joinPlan

	// Scratch, reused by every row: the slot assignment and the
	// head-binding and head-tuple rows (each joinStep owns its probe's).
	slots   []symtab.Sym
	hbRow   relation.Tuple
	headBuf relation.Tuple

	relReqReceived bool
	// parent counts the head bindings received and tracks the End watermark
	// owed to the parent goal.
	parent customerState
}

// subSource is one subgoal's stored temporary relation, whose columns are
// its carried argument positions, and their mapping to the rule's slots.
// Subgoal i is served by child i: proc.kids lists a rule node's children in
// body order.
type subSource struct {
	colSlots []int              // slot of each column
	eq       [][2]int           // columns repeating a variable: [later, first]
	rel      *relation.Relation // the answers received
	dSlots   []int              // slot providing each "d" argument's value
	dBuf     relation.Tuple     // scratch: one d-binding
	sentReqs *relation.Relation
	// sel is set on a base subgoal joined in place: rel is nil, colSlots has
	// a slot per argument (-1: a constant), pending holds the window rows a
	// delta round has not joined yet (seedWindows).
	sel     *baseSel
	pending *relation.Relation

	// covers: every request to this subgoal carries a head binding already
	// in hb, so a row of it implies its head binding and the plans it sets
	// off probe no hb. That holds when the head-binding slots are among its
	// "d" slots and, for a subgoal without "d" arguments (started by its
	// relation request, not by a binding), when the head has no "d"
	// position either: the empty binding is in hb before the request goes
	// out.
	//
	// transient: it covers and is the rule's only subgoal with a process.
	// Then nothing probes its rows in a run whose processes are not
	// retained: a new head binding differs from every earlier one on the
	// head-binding slots, where each stored row carries an earlier one's
	// values, and base subgoals joined in place set off plans only in delta
	// rounds. Such a run does not store its rows (see onSubTuple).
	covers, transient bool
	// seen holds a transient subgoal's rows under checkSubTuples, so a
	// repeat still shows when rel does not keep them.
	seen *relation.Relation
}

// valCheck is one equality an incoming row must satisfy before it is
// stored: vals[at] equals vals[other], or the constant sym when other < 0.
type valCheck struct {
	at, other int
	sym       symtab.Sym
}

func (c valCheck) ok(vals []symtab.Sym) bool {
	if c.other >= 0 {
		return vals[c.at] == vals[c.other]
	}
	return vals[c.at] == c.sym
}

// joinPlan extends a new row's slot assignment through steps, one source
// each; every complete extension derives a head tuple (req < 0) or
// requests subgoal req's "d" projection.
type joinPlan struct {
	steps []joinStep
	req   int
}

// joinStep probes a source on the columns whose slots are assigned by then
// (bound) and assigns the rest (fresh) from each matching row; a step with
// no fresh column is a membership test. The source is rel, or the base
// relation of sub: columns are then argument positions, and eq pairs
// positions repeating a fresh variable. bind and rows are the probe's
// scratch.
type joinStep struct {
	rel          *relation.Relation
	sub          *subSource
	bound, fresh []colSlot
	eq           [][2]int
	bind         relation.Binding
	rows         []relation.Tuple
}

type colSlot struct{ col, slot int }

// newRuleState compiles rule node n of g; the proc sets p.
func newRuleState(g *rgg.Graph, n *rgg.Node, db edb.Storage) *ruleState {
	r := &ruleState{}
	slotOf := make(map[string]int)
	slot := func(v string) int {
		s, ok := slotOf[v]
		if !ok {
			s = len(slotOf)
			slotOf[v] = s
		}
		return s
	}
	syms := db.Symbols()

	// Head "d" interface: the head-binding relation over the distinct head
	// d-variables, and the checks on everything else a binding carries.
	hbCol := make(map[string]int) // head d-variable → hb column
	for i, pos := range dynamicPositions(n.Ad) {
		t := n.Rule.Head.Args[pos]
		switch first, seen := hbCol[t.Var]; {
		case !t.IsVar():
			r.hbChecks = append(r.hbChecks, valCheck{at: i, other: -1, sym: syms.Intern(t.Const)})
		case seen:
			r.hbChecks = append(r.hbChecks, valCheck{at: i, other: r.hbFrom[first]})
		default:
			hbCol[t.Var] = len(r.hbFrom)
			r.hbFrom = append(r.hbFrom, i)
			r.hbSlots = append(r.hbSlots, slot(t.Var))
		}
		r.nHeadD++
	}
	r.hb = relation.New(len(r.hbFrom))
	r.hbRow = make(relation.Tuple, len(r.hbFrom))

	// Head emission: slots at carried positions (pre-interning constants).
	for _, pos := range carriedPositions(n.Ad) {
		if t := n.Rule.Head.Args[pos]; t.IsVar() {
			r.headSlots = append(r.headSlots, slot(t.Var))
			r.headConsts = append(r.headConsts, symtab.NoSym)
		} else {
			r.headSlots = append(r.headSlots, -1)
			r.headConsts = append(r.headConsts, syms.Intern(t.Const))
		}
	}
	r.sentHeads = relation.New(len(r.headSlots))
	r.headBuf = make(relation.Tuple, len(r.headSlots))

	// Subgoal sources, in body order.
	for i, atom := range n.Rule.Body {
		ad := n.SIP.SubAd[i]
		s := &subSource{}
		for _, pos := range dynamicPositions(ad) {
			s.dSlots = append(s.dSlots, slot(atom.Args[pos].Var))
		}
		s.dBuf = make(relation.Tuple, len(s.dSlots))
		s.sentReqs = relation.New(len(s.dSlots))
		r.subs = append(r.subs, s)
		if inPlace(g.Nodes[n.Children[i]]) {
			s.sel, s.pending = newBaseSel(atom, ad, db), relation.New(len(atom.Args))
			for _, t := range atom.Args {
				sl := -1
				if t.IsVar() {
					sl = slot(t.Var)
				}
				s.colSlots = append(s.colSlots, sl)
			}
			continue
		}
		first := make(map[int]int) // slot → its first column
		for k, pos := range carriedPositions(ad) {
			sl := slot(atom.Args[pos].Var) // carried positions always hold variables
			if f, seen := first[sl]; seen {
				s.eq = append(s.eq, [2]int{k, f})
			} else {
				first[sl] = k
			}
			s.colSlots = append(s.colSlots, sl)
		}
		s.rel = relation.New(len(s.colSlots))
	}

	procs := 0
	for _, s := range r.subs {
		if s.sel == nil {
			procs++
		}
	}
	for _, s := range r.subs {
		s.covers = s.sel == nil && (len(s.dSlots) > 0 || r.nHeadD == 0) &&
			!slices.ContainsFunc(r.hbSlots, func(sl int) bool { return !slices.Contains(s.dSlots, sl) })
		s.transient = s.covers && procs == 1
	}

	r.slots = make([]symtab.Sym, len(slotOf))
	r.plans = make([][]joinPlan, len(r.subs)+1)
	for src := headSource; src < len(r.subs); src++ {
		r.plans[src+1] = r.compile(n.SIP.Order, src)
	}
	return r
}

// headSource is the pseudo-index denoting the head-binding relation as a
// join source.
const headSource = -1

// compile builds the plans a new row of source src runs (see trigger). The
// sideways passes run first: a base step probing under a binding the same
// row has just requested then reuses the rows its retrieval read (holds).
func (r *ruleState) compile(order []int, src int) []joinPlan {
	// orderPos: body index → rank in the information passing order.
	orderPos := make([]int, len(r.subs))
	for rank, i := range order {
		orderPos[i] = rank
	}
	// before lists the sources joined ahead of rank: the head bindings (so
	// only requested derivations survive; a covering source's rows are
	// requested ones), then the earlier subgoals. plan picks the order in
	// which they are probed.
	before := func(rank int) []int {
		var out []int
		if src != headSource && !r.subs[src].covers {
			out = append(out, headSource)
		}
		for _, k := range order[:rank] {
			if k != src {
				out = append(out, k)
			}
		}
		return out
	}
	// (a) Sideways information passing: for each subgoal j with "d"
	// arguments strictly after src, project the prefix join onto j's d
	// variables and request the new bindings.
	var plans []joinPlan
	for rank, j := range order {
		if len(r.subs[j].dSlots) == 0 || j == src {
			continue
		}
		if src != headSource && orderPos[src] >= rank {
			continue
		}
		plans = append(plans, r.plan(src, before(rank), j))
	}
	// (b) Derive head tuples: join the new assignment against every other
	// source.
	return append(plans, r.plan(src, before(len(r.subs)), -1))
}

// source returns a join source's relation and the slots of its columns.
func (r *ruleState) source(i int) (*relation.Relation, []int) {
	if i == headSource {
		return r.hb, r.hbSlots
	}
	return r.subs[i].rel, r.subs[i].colSlots
}

// plan compiles the join of a new src row against the listed sources, in
// connectivity order: each step is the source left with the most columns
// already assigned (ties keep the listed order), so it probes on what the
// steps before it bound instead of scanning; a base subgoal waits for a
// bound column or its "d" arguments. The order is a control choice: the
// complete extensions, and so the derivations and requests, are the same
// in any order; only the probes made on the way differ.
func (r *ruleState) plan(src int, sources []int, req int) joinPlan {
	assigned := make([]bool, len(r.slots))
	_, own := r.source(src)
	for _, sl := range own {
		if sl >= 0 {
			assigned[sl] = true
		}
	}
	unbound := func(sl int) bool { return !assigned[sl] }
	left := slices.Clone(sources)
	pl := joinPlan{req: req}
	for len(left) > 0 {
		best, bestBound := 0, -1
		for k, i := range left {
			_, colSlots := r.source(i)
			n := 0
			for _, sl := range colSlots {
				if sl >= 0 && assigned[sl] {
					n++
				}
			}
			if n == 0 && i != headSource && r.subs[i].sel != nil && slices.ContainsFunc(r.subs[i].dSlots, unbound) {
				continue
			}
			if n > bestBound {
				best, bestBound = k, n
			}
		}
		i := left[best]
		left = slices.Delete(left, best, best+1)
		rel, colSlots := r.source(i)
		st := joinStep{rel: rel}
		if rel != nil {
			st.bind = make(relation.Binding, rel.Arity())
		} else {
			st.sub = r.subs[i]
			st.bind = slices.Clone(st.sub.sel.consts)
		}
		first := make(map[int]int) // fresh slot → its first column
		for col, sl := range colSlots {
			c, seen := first[sl]
			switch {
			case sl < 0:
			case seen:
				st.eq = append(st.eq, [2]int{col, c})
			case assigned[sl]:
				st.bound = append(st.bound, colSlot{col, sl})
			default:
				first[sl] = col
				st.fresh = append(st.fresh, colSlot{col, sl})
			}
		}
		for sl := range first {
			assigned[sl] = true
		}
		pl.steps = append(pl.steps, st)
	}
	return pl
}

func (r *ruleState) handle(m msg.Message) {
	switch m.Kind {
	case msg.RelReq:
		r.onRelReq()
	case msg.ReqEnd:
		r.parent.reqEnd = true
	case msg.TupReq:
		for i, n, w := 0, rowsIn(m), r.nHeadD; i < n; i++ {
			r.onHeadBinding(m.Vals[i*w : (i+1)*w])
		}
	case msg.Tuple:
		src := r.p.kidPos(m.From)
		for i, n, w := 0, rowsIn(m), len(r.subs[src].colSlots); i < n; i++ {
			r.onSubTuple(src, m.Vals[i*w:(i+1)*w])
		}
	default:
		r.p.internalf("unexpected %s", m.Kind)
	}
}

// onRelReq propagates the relation request to every subgoal with a process
// and the implicit request to base subgoals without "d" positions, and
// seeds a delta round's base windows. A head with no "d" positions has the
// single implicit binding (the empty one), which starts information passing
// immediately.
func (r *ruleState) onRelReq() {
	if r.relReqReceived {
		return
	}
	r.relReqReceived = true
	for k, c := range r.p.node.Children {
		switch s := r.subs[k]; {
		case s.sel == nil:
			r.p.send(msg.Message{Kind: msg.RelReq, To: c})
		case len(s.dSlots) == 0:
			r.requestSub(k) // the implicit request, new once per run
		}
	}
	if r.p.rt.delta {
		r.seedWindows()
	}
	if r.nHeadD == 0 {
		r.parent.reqEnd = true
		// Insert's report gates the trigger so a delta round (which retains
		// hb across rounds) does not re-enumerate every join from the
		// implicit empty binding: new joins are triggered by the delta
		// tuples themselves as they arrive.
		if r.hb.Insert(r.hbRow) {
			r.trigger(headSource, nil, nil)
		}
	}
}

// seedWindows joins a delta round's new base rows: each base subgoal's
// window runs the subgoal's plans as rows just received, one subgoal after
// another. A window row waits in pending until its turn, so a derivation
// using two windows' rows is found once, by the later window's plans.
func (r *ruleState) seedWindows() {
	for _, s := range r.subs {
		if s.sel != nil {
			s.sel.window(r.p, s.sentReqs, func(row relation.Tuple) { s.pending.Insert(row) })
			r.p.tally.TupleRows += int64(s.pending.Len())
		}
	}
	for j, s := range r.subs {
		if s.sel != nil {
			for ord := range s.pending.Len() {
				r.trigger(j, s.colSlots, s.pending.Row(ord))
			}
			s.pending.Reset()
		}
	}
}

// onHeadBinding validates a tuple request against the instantiated head —
// constants introduced by unification must match, repeated variables must
// agree — and, when new, triggers information passing from the head.
func (r *ruleState) onHeadBinding(vals []symtab.Sym) {
	r.parent.reqCount++
	for _, c := range r.hbChecks {
		if !c.ok(vals) {
			return // the rule's head rejects this binding
		}
	}
	for ci, i := range r.hbFrom {
		r.hbRow[ci] = vals[i]
	}
	if r.hb.Insert(r.hbRow) {
		r.trigger(headSource, r.hbSlots, r.hbRow)
	}
}

// onSubTuple folds a subgoal answer into its temporary relation and
// triggers derivations and downstream requests. The row is new: the child
// goal stores its answers and sends each one to a customer once, for a
// binding this rule asked for, in this round or an earlier one; so the
// temporary appends it without the membership probe (its dedup slots stay
// for the joins' Contains). A transient subgoal's row is stored only when
// the processes outlive the run, for the delta rounds that probe it.
func (r *ruleState) onSubTuple(src int, vals []symtab.Sym) {
	s := r.subs[src]
	for _, eq := range s.eq {
		if vals[eq[0]] != vals[eq[1]] {
			return // repeated variable mismatch: not a real match
		}
	}
	store := !s.transient || r.p.rt.retain
	if checkSubTuples.Load() && s.repeated(store, vals) {
		r.p.internalf("subgoal %d received %v twice", src, vals)
	}
	if store {
		s.rel.Append(vals)
	}
	r.trigger(src, s.colSlots, vals)
}

// checkSubTuples makes onSubTuple verify that no subgoal row arrives twice.
// Tests set it; it costs a probe per row.
var checkSubTuples atomic.Bool

// repeated reports whether the subgoal received vals before in this run,
// or in an earlier round of a retained one: rel holds what is stored, seen
// what is not.
func (s *subSource) repeated(stored bool, vals []symtab.Sym) bool {
	if stored {
		return s.rel.Contains(vals)
	}
	if s.seen == nil {
		s.seen = relation.New(s.rel.Arity())
	}
	return !s.seen.Insert(vals)
}

// trigger runs incremental information passing after source src gained the
// assignment (cols→vals): derive any now-complete head tuples, and extend
// prefix joins into tuple requests for later subgoals.
func (r *ruleState) trigger(src int, cols []int, vals relation.Tuple) {
	for i, c := range cols {
		if c >= 0 {
			r.slots[c] = vals[i]
		}
	}
	plans := r.plans[src+1]
	for i := range plans {
		r.extend(&plans[i], 0)
	}
}

// extend completes the slot assignment with one matching row from each
// remaining step of the plan, backtracking through the relations' hash
// indexes, and acts on every complete extension.
func (r *ruleState) extend(pl *joinPlan, depth int) {
	if depth == len(pl.steps) {
		if pl.req < 0 {
			r.emitHead()
		} else {
			r.requestSub(pl.req)
		}
		return
	}
	st := &pl.steps[depth]
	for _, cs := range st.bound {
		st.bind[cs.col] = r.slots[cs.slot]
	}
	var rows []relation.Tuple
	switch {
	case len(st.fresh) == 0:
		// Every column is bound: a membership test, which needs no index
		// over all of the relation's columns.
		t := relation.Tuple(st.bind)
		if st.sub == nil && st.rel.Contains(t) || st.sub != nil && edb.Contains(r.p.rt.db, st.sub.sel.key, t) && st.admits(t) {
			r.p.tally.Joins++
			r.extend(pl, depth+1)
		}
		return
	case st.sub == nil && len(st.bound) == 0:
		for ord := range st.rel.Len() {
			r.p.tally.Joins++
			r.bindFresh(st, st.rel.Row(ord))
			r.extend(pl, depth+1)
		}
		return
	case st.sub == nil:
		rows = st.rel.SelectInto(st.rows[:0], st.bind)
		st.rows = rows
	case st.sub.sel.holds(st.bind):
		rows = st.sub.sel.rows
	default:
		rows = r.p.rt.db.ScanInto(st.rows[:0], st.sub.sel.key, st.bind)
		st.rows = rows
	}
	for _, row := range rows {
		if st.sub != nil && !st.admits(row) {
			continue
		}
		r.p.tally.Joins++
		r.bindFresh(st, row)
		r.extend(pl, depth+1)
	}
}

// bindFresh assigns the step's fresh slots from a matching row.
func (r *ruleState) bindFresh(st *joinStep, row relation.Tuple) {
	for _, cs := range st.fresh {
		r.slots[cs.slot] = row[cs.col]
	}
}

// admits reports whether a base row probed in place joins: its repeated
// fresh variables agree, and it is no delta-window row waiting its turn.
func (st *joinStep) admits(row relation.Tuple) bool {
	for _, eq := range st.eq {
		if row[eq[0]] != row[eq[1]] {
			return false
		}
	}
	return st.sub.pending.Len() == 0 || !st.sub.pending.Contains(row)
}

// requestSub sends subgoal j one tuple request for the d-binding read from
// the slots, unless already sent. A base subgoal counts instead what its
// leaf did — the request, one EDB scan, the rows sent — so the tally keeps
// §3.1's logical counts; the rule's probes read the rows.
func (r *ruleState) requestSub(j int) {
	s := r.subs[j]
	for i, sl := range s.dSlots {
		s.dBuf[i] = r.slots[sl]
	}
	switch {
	case !s.sentReqs.Insert(s.dBuf):
	case s.sel == nil:
		r.p.queueTupReq(j, s.dBuf)
	default:
		if len(s.dSlots) > 0 {
			r.p.tally.TupReqRows++
		}
		r.p.tally.TupleRows += int64(len(s.sel.retrieve(r.p, s.dBuf)))
	}
}

// emitHead sends one derived head tuple to the parent goal node, unless
// already sent.
func (r *ruleState) emitHead() {
	for i, sl := range r.headSlots {
		if sl >= 0 {
			r.headBuf[i] = r.slots[sl]
		} else {
			r.headBuf[i] = r.headConsts[i]
		}
	}
	r.p.tally.Derived++
	if r.sentHeads.Insert(r.headBuf) {
		r.p.queueTuple(0, r.headBuf)
	}
}

// maybeEnd implements non-recursive completion for rule nodes: settled once
// every cross-component subgoal has serviced all forwarded requests. See
// goalState.maybeEnd for the mirror logic.
func (r *ruleState) maybeEnd() {
	if r.relReqReceived && r.p.box.Empty() && r.p.feedersSettled() {
		r.p.emitEnd(r.p.node.Parent, &r.parent)
	}
}
