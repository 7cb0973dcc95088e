package engine

import (
	"repro/internal/msg"
	"repro/internal/relation"
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
// Internally a rule instance's variables map to dense slots; each stored
// source (the head-binding relation plus one relation per subgoal) lists
// which slots its columns populate, and derivations enumerate matching
// slot assignments by indexed backtracking join. Which sources a new row
// joins against, in what order, and which of their columns are probe keys
// is a pure function of (rule, SIP, source), so it is compiled once here
// into joinPlans; the row path only fills preallocated scratch.
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
	// a new head binding): the head derivation, then one sideways pass per
	// later subgoal with "d" arguments.
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

// subSource is one subgoal's stored temporary relation plus the mappings
// between its carried argument positions, its distinct variables, and the
// rule's slots. Subgoal i is served by child i: proc.kids lists a rule
// node's children in body order.
type subSource struct {
	width    int        // carried argument positions: the width of an answer row
	colSlots []int      // slot of each distinct variable (column of rel)
	colFrom  []int      // the carried position supplying each column
	checks   []valCheck // carried positions repeating an earlier variable
	rel      *relation.Relation
	row      relation.Tuple // scratch: the answer projected to rel's columns
	dSlots   []int          // slot providing each "d" argument's value
	dBuf     relation.Tuple // scratch: one d-binding
	sentReqs *relation.Relation
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

// joinPlan extends a new row's slot assignment through steps, one stored
// source each; every complete extension derives a head tuple (req < 0) or
// requests subgoal req's "d" projection.
type joinPlan struct {
	steps []joinStep
	req   int
}

// joinStep probes rel on the columns whose slots are assigned by then
// (bound) and assigns the rest (fresh) from each matching row. bind and
// rows are the probe's scratch: the binding (only its bound columns are
// ever written) and the result buffer.
type joinStep struct {
	rel          *relation.Relation
	bound, fresh []colSlot
	bind         relation.Binding
	rows         []relation.Tuple
}

type colSlot struct{ col, slot int }

func newRuleState(p *proc) *ruleState {
	n := p.node
	r := &ruleState{p: p}
	slotOf := make(map[string]int)
	slot := func(v string) int {
		s, ok := slotOf[v]
		if !ok {
			s = len(slotOf)
			slotOf[v] = s
		}
		return s
	}
	syms := p.rt.db.Symbols()

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
		col := make(map[string]int) // variable → column of rel
		for k, pos := range carriedPositions(ad) {
			v := atom.Args[pos].Var // carried positions always hold variables
			if ci, seen := col[v]; seen {
				s.checks = append(s.checks, valCheck{at: k, other: s.colFrom[ci]})
			} else {
				col[v] = len(s.colFrom)
				s.colFrom = append(s.colFrom, k)
				s.colSlots = append(s.colSlots, slot(v))
			}
			s.width++
		}
		s.rel = relation.New(len(s.colFrom))
		s.row = make(relation.Tuple, len(s.colFrom))
		for _, pos := range dynamicPositions(ad) {
			s.dSlots = append(s.dSlots, slot(atom.Args[pos].Var))
		}
		s.dBuf = make(relation.Tuple, len(s.dSlots))
		s.sentReqs = relation.New(len(s.dSlots))
		r.subs = append(r.subs, s)
	}

	r.slots = make([]symtab.Sym, len(slotOf))
	r.plans = make([][]joinPlan, len(r.subs)+1)
	for src := headSource; src < len(r.subs); src++ {
		r.plans[src+1] = r.compile(src)
	}
	return r
}

// headSource is the pseudo-index denoting the head-binding relation as a
// join source.
const headSource = -1

// compile builds the plans a new row of source src runs (see trigger).
func (r *ruleState) compile(src int) []joinPlan {
	order := r.p.node.SIP.Order
	// orderPos: body index → rank in the information passing order.
	orderPos := make([]int, len(r.subs))
	for rank, i := range order {
		orderPos[i] = rank
	}
	// before lists the sources joined ahead of rank: the head bindings (so
	// only requested derivations survive), then the earlier subgoals.
	before := func(rank int) []int {
		var out []int
		if src != headSource {
			out = append(out, headSource)
		}
		for _, k := range order[:rank] {
			if k != src {
				out = append(out, k)
			}
		}
		return out
	}
	// (a) Derive head tuples: join the new assignment against every other
	// source.
	plans := []joinPlan{r.plan(src, before(len(r.subs)), -1)}
	// (b) Sideways information passing: for each subgoal j with "d"
	// arguments strictly after src, project the prefix join onto j's d
	// variables and request the new bindings.
	for rank, j := range order {
		if len(r.subs[j].dSlots) == 0 || j == src {
			continue
		}
		if src != headSource && orderPos[src] >= rank {
			continue
		}
		plans = append(plans, r.plan(src, before(rank), j))
	}
	return plans
}

// source returns a join source's relation and the slots of its columns.
func (r *ruleState) source(i int) (*relation.Relation, []int) {
	if i == headSource {
		return r.hb, r.hbSlots
	}
	return r.subs[i].rel, r.subs[i].colSlots
}

// plan compiles the join of a new src row against the listed sources.
func (r *ruleState) plan(src int, sources []int, req int) joinPlan {
	assigned := make([]bool, len(r.slots))
	_, own := r.source(src)
	for _, sl := range own {
		assigned[sl] = true
	}
	pl := joinPlan{req: req}
	for _, i := range sources {
		rel, colSlots := r.source(i)
		st := joinStep{rel: rel, bind: make(relation.Binding, rel.Arity())}
		for col, sl := range colSlots {
			if assigned[sl] {
				st.bound = append(st.bound, colSlot{col, sl})
			} else {
				st.fresh = append(st.fresh, colSlot{col, sl})
				assigned[sl] = true
			}
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
	case msg.Tuple, msg.TupleBatch:
		src := r.p.kidPos(m.From)
		for i, n, w := 0, rowsIn(m), r.subs[src].width; i < n; i++ {
			r.onSubTuple(src, m.Vals[i*w:(i+1)*w])
		}
	default:
		r.p.internalf("unexpected %s", m.Kind)
	}
}

// onRelReq propagates the relation request to every subgoal. A head with no
// "d" positions has the single implicit binding (the empty one), which
// starts information passing immediately.
func (r *ruleState) onRelReq() {
	if r.relReqReceived {
		return
	}
	r.relReqReceived = true
	for _, c := range r.p.node.Children {
		r.p.send(msg.Message{Kind: msg.RelReq, To: c})
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

// onSubTuple folds a subgoal answer into its temporary relation and, when
// new, triggers derivations and downstream requests.
func (r *ruleState) onSubTuple(src int, vals []symtab.Sym) {
	s := r.subs[src]
	for _, c := range s.checks {
		if !c.ok(vals) {
			return // repeated variable mismatch: not a real match
		}
	}
	for ci, k := range s.colFrom {
		s.row[ci] = vals[k]
	}
	if s.rel.Insert(s.row) {
		r.trigger(src, s.colSlots, s.row)
	} else {
		r.p.work.Dups++
	}
}

// trigger runs incremental information passing after source src gained the
// assignment (cols→vals): derive any now-complete head tuples, and extend
// prefix joins into tuple requests for later subgoals.
func (r *ruleState) trigger(src int, cols []int, vals relation.Tuple) {
	for i, c := range cols {
		r.slots[c] = vals[i]
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
	rows := st.rel.Rows()
	if len(st.bound) > 0 {
		for _, cs := range st.bound {
			st.bind[cs.col] = r.slots[cs.slot]
		}
		rows = st.rel.SelectInto(st.rows[:0], st.bind)
		st.rows = rows
	}
	r.p.work.Joins += int64(len(rows))
	for _, row := range rows {
		for _, cs := range st.fresh {
			r.slots[cs.slot] = row[cs.col]
		}
		r.extend(pl, depth+1)
	}
}

// requestSub sends subgoal j one tuple request for the d-binding read from
// the slots, unless already sent.
func (r *ruleState) requestSub(j int) {
	s := r.subs[j]
	for i, sl := range s.dSlots {
		s.dBuf[i] = r.slots[sl]
	}
	if s.sentReqs.Insert(s.dBuf) {
		r.p.queueTupReq(j, s.dBuf)
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
	r.p.work.Derived++
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
