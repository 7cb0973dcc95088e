// Package rgg builds information-passing rule/goal graphs (§2 of the
// paper): a top-down expansion of the query into goal nodes and rule nodes,
// with cycle edges back to ancestor goal nodes that are variants with
// matching argument classes (Definition 2.2). It also computes the strong
// components, each component's unique "BFST leader", and the breadth-first
// spanning tree the §3.2 termination protocol runs over.
//
// The graph depends only on the IDB — the EDB is never consulted during
// construction, and Theorem 2.1 guarantees termination for any finite
// function-free IDB with size independent of the EDB.
package rgg

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/costmodel"
	"repro/internal/edb"
	"repro/internal/unify"
)

// NodeKind distinguishes goal (predicate) nodes from rule nodes.
type NodeKind int

const (
	// Goal nodes compute the union of their rule children's relations, or
	// select from the EDB (leaf), or select from an ancestor's relation
	// (variant with a cycle edge).
	Goal NodeKind = iota
	// Rule nodes combine their subgoal relations using join, select, and
	// project, guided by a sideways information passing strategy.
	Rule
)

func (k NodeKind) String() string {
	if k == Goal {
		return "goal"
	}
	return "rule"
}

// NoNode is the nil node id.
const NoNode = -1

// Node is one vertex of the rule/goal graph.
type Node struct {
	ID   int
	Kind NodeKind

	// Atom is, for a goal node, the subgoal instance it was created for
	// (sharing variables with its parent rule); for a rule node, the
	// instantiated head — "exactly the same as the subgoal of its parent"
	// when the rule head is variable-only (§2.1).
	Atom ast.Atom
	// Ad adorns Atom's argument positions. For rule nodes it is the head
	// adornment inherited from the parent goal.
	Ad adorn.Adornment

	// EDB marks a goal leaf whose predicate belongs to the EDB.
	EDB bool
	// CycleTo is the ancestor goal node this variant leaf selects from, or
	// NoNode. The cycle edge is oriented ancestor → variant (the direction
	// answers flow).
	CycleTo int

	// Rule and SIP are set on rule nodes: the fresh-renamed, mgu-applied
	// rule instance and its information passing strategy.
	Rule *ast.Rule
	SIP  *adorn.SIP

	Parent   int
	Children []int // goal → rule nodes; rule → subgoal goal nodes in body order

	// SCC is the strong component id (dense, reverse topological from
	// Tarjan: feeders of a component always have smaller ids than... no
	// ordering is guaranteed; use Graph.SCCs).
	SCC int
	// BFSTChildren is the node's tree children within the same strong
	// component — the spanning tree of §3.2, which "coincides with the
	// depth first spanning tree" because the graph has no cross or forward
	// edges (footnote 3).
	BFSTChildren []int
}

// Adorned returns the node's atom with its adornment, in the paper's
// superscript notation.
func (n *Node) Adorned() adorn.AdornedAtom {
	return adorn.AdornedAtom{Atom: n.Atom, Ad: n.Ad}
}

// Graph is an information-passing rule/goal graph.
type Graph struct {
	Nodes []*Node
	Root  int
	// EDBPreds holds every predicate treated as extensional: those with
	// facts plus those that no rule defines.
	EDBPreds map[ast.PredKey]bool
	// SCCs lists each strong component's members; SCCs[i] is component i.
	SCCs [][]int
	// Leader[i] is component i's unique entry node — the only member whose
	// tree parent lies outside the component — designated "BFST leader".
	Leader []int
}

// Strategy chooses a sideways information passing strategy for a rule
// instance under a head adornment.
type Strategy func(ast.Rule, adorn.Adornment) *adorn.SIP

// GreedyStrategy is the paper's default (Definition 2.4).
func GreedyStrategy(r ast.Rule, headAd adorn.Adornment) *adorn.SIP {
	return adorn.Greedy(r, headAd)
}

// QualTreeStrategy uses the Theorem 4.1 qual-tree strategy for rules with
// the monotone flow property and falls back to greedy otherwise.
func QualTreeStrategy(r ast.Rule, headAd adorn.Adornment) *adorn.SIP {
	if s, ok := adorn.QualTreeSIP(r, headAd); ok {
		return s
	}
	return adorn.Greedy(r, headAd)
}

// LeftToRightStrategy evaluates subgoals in textual order, as Prolog does
// ("essentially, Prolog solves the subgoals in order, left to right",
// §2.2). It exists for ablation experiments.
func LeftToRightStrategy(r ast.Rule, headAd adorn.Adornment) *adorn.SIP {
	order := make([]int, len(r.Body))
	for i := range order {
		order[i] = i
	}
	return adorn.FromOrder(r, headAd, order)
}

// StatsStrategy orders each rule's subgoals using statistics on the actual
// EDB — §1.2 suggests exactly this: the basic messages "can be extended in
// order to pass optimization information, offering the possibility of
// taking advantage of statistics on the EDB". At each step the subgoal
// with the smallest estimated retrieval is evaluated next, where an EDB
// subgoal's estimate is its cardinality divided by the distinct count of
// every bound column (uniformity assumption), and an IDB subgoal falls
// back to a default size discounted per bound argument.
func StatsStrategy(db edb.Storage) Strategy {
	return func(r ast.Rule, headAd adorn.Adornment) *adorn.SIP {
		// Default size for IDB subgoals: the largest base relation (their
		// content derives from the EDB, so this is a safe pessimistic cap).
		defaultSize := 1.0
		for _, key := range db.Preds() {
			if n := float64(db.Cardinality(key)); n > defaultSize {
				defaultSize = n
			}
		}
		estimate := func(a ast.Atom, available map[string]bool) float64 {
			bound := make([]bool, len(a.Args))
			for i, t := range a.Args {
				bound[i] = !t.IsVar() || available[t.Var]
			}
			if db.Has(a.Key()) {
				est := float64(db.Cardinality(a.Key()))
				for i := range a.Args {
					if bound[i] {
						if d := db.Distinct(a.Key(), i); d > 1 {
							est /= float64(d)
						}
					}
				}
				return est
			}
			est := defaultSize
			for i := range a.Args {
				if bound[i] {
					est /= 10
				}
			}
			return est
		}
		available := make(map[string]bool)
		for i, t := range r.Head.Args {
			if headAd[i].Bound() && t.IsVar() {
				available[t.Var] = true
			}
		}
		n := len(r.Body)
		order := make([]int, 0, n)
		chosen := make([]bool, n)
		for len(order) < n {
			best, bestEst := -1, 0.0
			for i := 0; i < n; i++ {
				if chosen[i] {
					continue
				}
				if est := estimate(r.Body[i], available); best == -1 || est < bestEst {
					best, bestEst = i, est
				}
			}
			chosen[best] = true
			order = append(order, best)
			for _, v := range r.Body[best].Vars() {
				available[v] = true
			}
		}
		return adorn.FromOrder(r, headAd, order)
	}
}

// CostStrategy orders each rule's subgoals by exhaustive search under the
// §4.3 cost model: the minimum-estimated-cost order wins. It exists to
// test the §4.3 conjecture in vivo — for monotone-flow rules it should
// agree with GreedyStrategy — and as the "planner" end of the ablation
// spectrum. Factorial in the subgoal count; rules in practice are short.
func CostStrategy(m costmodel.Model) Strategy {
	return func(r ast.Rule, headAd adorn.Adornment) *adorn.SIP {
		order, _ := costmodel.BestOrder(r, headAd, m)
		return adorn.FromOrder(r, headAd, order)
	}
}

// TableStrategy orders each rule's subgoals by exhaustive search under a
// statistics-backed cost table (costmodel.BestOrderStats): real
// cardinalities and per-column distinct counts replace the §4.3 fixed
// constants. Unlike StatsStrategy's myopic smallest-next-retrieval rule,
// the full-order search also prices join growth, so it avoids e.g.
// cross-product-first traps where the locally cheapest subgoal shares no
// variables with the rest of the body. This is the "cost" candidate the
// auto planner scores against greedy/qualtree/leftright.
func TableStrategy(t *costmodel.Table) Strategy {
	return func(r ast.Rule, headAd adorn.Adornment) *adorn.SIP {
		order, _ := costmodel.BestOrderStats(r, headAd, t)
		return adorn.FromOrder(r, headAd, order)
	}
}

// GraphCostLog scores a compiled rule/goal graph under a statistics
// table: the log10 of the summed per-rule-node SIP cost estimates. Two
// graphs for the same query differ only in their rule nodes' orderings
// and adornments, so this is the quantity the auto planner minimizes when
// choosing between candidate strategies.
func GraphCostLog(g *Graph, t *costmodel.Table) float64 {
	total := math.Inf(-1)
	for _, n := range g.Nodes {
		if n.Kind != Rule || n.SIP == nil {
			continue
		}
		est := costmodel.EstimateSIPStats(n.SIP, t)
		total = addLog(total, est.CostLog)
	}
	return total
}

// addLog is log10(10^a + 10^b), duplicated from costmodel for the graph
// sum (the costmodel helper is unexported).
func addLog(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if math.IsInf(a, -1) {
		return b
	}
	return a + math.Log10(1+math.Pow(10, b-a))
}

// PlanFingerprint renders the graph's evaluation orders compactly: one
// segment per rule node with its body ordering. Two graphs with equal
// fingerprints evaluate identically, which is how drift re-optimization
// decides whether a fresh plan actually differs from the cached one.
func PlanFingerprint(g *Graph) string {
	var b strings.Builder
	for _, n := range g.Nodes {
		if n.Kind != Rule || n.SIP == nil {
			continue
		}
		fmt.Fprintf(&b, "%s%v;", n.Atom.Pred, n.SIP.Order)
	}
	return b.String()
}

// BasicStrategy disables sideways information passing entirely, yielding
// the §2.1 basic rule/goal graph: subgoals keep textual order and no
// argument is ever dynamically bound, so every intermediate relation is
// requested whole. It exists for ablation experiments — it quantifies what
// the "d" class buys.
func BasicStrategy(r ast.Rule, headAd adorn.Adornment) *adorn.SIP {
	s := LeftToRightStrategy(r, headAd)
	for _, ad := range s.SubAd {
		for i, c := range ad {
			if c == adorn.Dynamic {
				ad[i] = adorn.Free
			}
		}
	}
	s.Arcs = nil
	return s
}

// NamedStrategy is one entry of the strategy table. Make builds the
// strategy from what it may read: db for "stats", the statistics table t
// for "cost". Manual entries are selectable by name (mpq.WithStrategy,
// `-strategy`); Candidate entries are the ones the auto planner scores.
type NamedStrategy struct {
	Name              string
	Make              func(db edb.Storage, t *costmodel.Table) Strategy
	Manual, Candidate bool
}

// Strategies is the one table of strategy names, in the auto planner's
// scoring order: ties go to the earliest, so greedy, the paper's default,
// wins when the cost model cannot separate candidates.
var Strategies = []NamedStrategy{
	{"greedy", func(edb.Storage, *costmodel.Table) Strategy { return GreedyStrategy }, true, true},
	{"qualtree", func(edb.Storage, *costmodel.Table) Strategy { return QualTreeStrategy }, true, true},
	{"leftright", func(edb.Storage, *costmodel.Table) Strategy { return LeftToRightStrategy }, true, true},
	{"basic", func(edb.Storage, *costmodel.Table) Strategy { return BasicStrategy }, true, false},
	{"stats", func(db edb.Storage, _ *costmodel.Table) Strategy { return StatsStrategy(db) }, true, false},
	{"cost", func(_ edb.Storage, t *costmodel.Table) Strategy { return TableStrategy(t) }, false, true},
}

// StrategyNamed returns the manual strategy called name; an empty or
// unknown name selects greedy.
func StrategyNamed(name string) NamedStrategy {
	for _, s := range Strategies {
		if s.Manual && s.Name == name {
			return s
		}
	}
	return Strategies[0]
}

// Options configure graph construction.
type Options struct {
	// Strategy defaults to GreedyStrategy.
	Strategy Strategy
	// MaxNodes guards against pathological blowup (the graph is always
	// finite by Theorem 2.1, but can be large). Defaults to 100000.
	MaxNodes int
	// RootAd, when non-nil, adorns the root goal node instead of the
	// default all-free adornment. Prepared queries use it to mark the
	// entry goal's parameter positions as class "d": the graph is then
	// compiled once for the query *shape*, and each evaluation seeds the
	// parameters through the driver's initial tuple request (the paper's
	// own runtime binding channel) instead of baking constants in as "c"
	// positions. Only Dynamic and Free classes are meaningful at the root;
	// its length must equal the query arity.
	RootAd adorn.Adornment
}

type builder struct {
	prog    *ast.Program
	opts    Options
	g       *Graph
	renamer unify.Renamer
}

// Build constructs the information-passing rule/goal graph for the
// program's query. The program must validate (ast.Program.Validate with a
// required query).
func Build(prog *ast.Program, opts Options) (*Graph, error) {
	if opts.Strategy == nil {
		opts.Strategy = GreedyStrategy
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 100000
	}
	if err := prog.Validate(true); err != nil {
		return nil, err
	}

	queries := prog.QueryRules()
	arity := len(queries[0].Head.Args)
	for _, q := range queries {
		if len(q.Head.Args) != arity {
			return nil, fmt.Errorf("rgg: query rules disagree on %s arity: %d vs %d",
				ast.GoalPred, arity, len(q.Head.Args))
		}
	}

	b := &builder{prog: prog, opts: opts, g: &Graph{EDBPreds: make(map[ast.PredKey]bool)}}
	for _, k := range prog.EDBPreds() {
		b.g.EDBPreds[k] = true
	}
	// Predicates no rule defines are extensional too (possibly empty).
	idb := make(map[ast.PredKey]bool)
	for _, k := range prog.IDBPreds() {
		idb[k] = true
	}
	for _, r := range prog.Rules {
		for _, sg := range r.Body {
			if !idb[sg.Key()] {
				b.g.EDBPreds[sg.Key()] = true
			}
		}
	}

	// Root goal node: goal(V1,...,Vk) with every argument free, unless the
	// caller supplied a root adornment (prepared queries mark parameter
	// positions "d").
	rootAtom := ast.Atom{Pred: ast.GoalPred}
	for i := 0; i < arity; i++ {
		rootAtom.Args = append(rootAtom.Args, ast.V(fmt.Sprintf("_Q%d", i+1)))
	}
	var rootAd adorn.Adornment
	if opts.RootAd != nil {
		if len(opts.RootAd) != arity {
			return nil, fmt.Errorf("rgg: RootAd has %d classes, query arity is %d", len(opts.RootAd), arity)
		}
		for _, c := range opts.RootAd {
			if c != adorn.Free && c != adorn.Dynamic {
				return nil, fmt.Errorf("rgg: RootAd may only use classes d and f, got %q", string(c))
			}
		}
		rootAd = opts.RootAd.Clone()
	} else {
		rootAd = make(adorn.Adornment, arity)
		for i := range rootAd {
			rootAd[i] = adorn.Free
		}
	}
	root, err := b.expand(rootAtom, rootAd, NoNode)
	if err != nil {
		return nil, err
	}
	b.g.Root = root
	b.g.computeSCCs()
	if err := b.g.computeLeaders(); err != nil {
		return nil, err
	}
	return b.g, nil
}

func (b *builder) newNode(kind NodeKind, parent int) (*Node, error) {
	if len(b.g.Nodes) >= b.opts.MaxNodes {
		return nil, fmt.Errorf("rgg: graph exceeded %d nodes; the IDB's adornment space is too large", b.opts.MaxNodes)
	}
	n := &Node{ID: len(b.g.Nodes), Kind: kind, Parent: parent, CycleTo: NoNode}
	b.g.Nodes = append(b.g.Nodes, n)
	if parent != NoNode {
		b.g.Nodes[parent].Children = append(b.g.Nodes[parent].Children, n.ID)
	}
	return n, nil
}

// expand creates the goal node for atom/ad under parent and, unless it is
// an EDB leaf or a variant of an ancestor, expands it through every rule
// whose head unifies (§2.1).
func (b *builder) expand(atom ast.Atom, ad adorn.Adornment, parent int) (int, error) {
	n, err := b.newNode(Goal, parent)
	if err != nil {
		return NoNode, err
	}
	n.Atom = atom
	n.Ad = ad

	if b.g.EDBPreds[atom.Key()] {
		n.EDB = true
		return n.ID, nil
	}

	// Variant check against ancestor goal nodes on the tree path: the atom
	// must be a variant and "the arguments match on their classes as well"
	// (Definition 2.2).
	for p := parent; p != NoNode; p = b.g.Nodes[p].Parent {
		anc := b.g.Nodes[p]
		if anc.Kind != Goal {
			continue
		}
		if unify.Variant(atom, anc.Atom) && ad.Equal(anc.Ad) {
			n.CycleTo = anc.ID
			return n.ID, nil
		}
	}

	for _, rule := range b.prog.RulesFor(atom.Key()) {
		fresh, _ := b.renamer.FreshRule(rule)
		mgu, ok := unify.MGU(fresh.Head, atom)
		if !ok {
			continue
		}
		inst := mgu.ApplyRule(fresh)
		rn, err := b.newNode(Rule, n.ID)
		if err != nil {
			return NoNode, err
		}
		rn.Atom = inst.Head
		rn.Ad = ad
		instCopy := inst
		rn.Rule = &instCopy
		rn.SIP = b.opts.Strategy(inst, ad)
		for i := range inst.Body {
			if _, err := b.expand(inst.Body[i], rn.SIP.SubAd[i], rn.ID); err != nil {
				return NoNode, err
			}
		}
	}
	return n.ID, nil
}

// Succs returns the successors of node id in the answer-flow orientation:
// its tree parent plus, for goal nodes, any variant nodes it feeds through
// cycle edges.
func (g *Graph) Succs(id int) []int {
	var out []int
	if p := g.Nodes[id].Parent; p != NoNode {
		out = append(out, p)
	}
	for _, m := range g.Nodes {
		if m.CycleTo == id {
			out = append(out, m.ID)
		}
	}
	return out
}

// computeSCCs runs Tarjan's algorithm over the answer-flow orientation:
// tree edges child → parent and cycle edges ancestor → variant.
func (g *Graph) computeSCCs() {
	n := len(g.Nodes)
	succs := make([][]int, n)
	for id := range g.Nodes {
		succs[id] = g.Succs(id)
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var stack []int
	counter := 0
	// Iterative Tarjan to avoid deep recursion on long chains.
	type frame struct{ v, ci int }
	for start := range g.Nodes {
		if index[start] != -1 {
			continue
		}
		frames := []frame{{start, 0}}
		index[start], low[start] = counter, counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ci < len(succs[f.v]) {
				w := succs[f.v][f.ci]
				f.ci++
				if index[w] == -1 {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				id := len(g.SCCs)
				var members []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = id
					members = append(members, w)
					if w == v {
						break
					}
				}
				g.SCCs = append(g.SCCs, members)
			}
		}
	}
	for id, m := range g.Nodes {
		m.SCC = comp[id]
	}
}

// computeLeaders designates each nontrivial component's leader — its unique
// member whose tree parent is outside the component — and records each
// member's BFST children (tree children within the component).
func (g *Graph) computeLeaders() error {
	g.Leader = make([]int, len(g.SCCs))
	for i := range g.Leader {
		g.Leader[i] = NoNode
	}
	for _, n := range g.Nodes {
		inSCC := func(id int) bool { return id != NoNode && g.Nodes[id].SCC == n.SCC }
		if len(g.SCCs[n.SCC]) == 1 {
			g.Leader[n.SCC] = n.ID
			continue
		}
		if !inSCC(n.Parent) {
			if prev := g.Leader[n.SCC]; prev != NoNode && prev != n.ID {
				return fmt.Errorf("rgg: strong component %d has two entry nodes (%d and %d); graph is not tree+back-edge structured", n.SCC, prev, n.ID)
			}
			g.Leader[n.SCC] = n.ID
		}
		for _, c := range n.Children {
			if g.Nodes[c].SCC == n.SCC {
				n.BFSTChildren = append(n.BFSTChildren, c)
			}
		}
	}
	return nil
}

// Reduced is the condensation of the rule/goal graph: "the reduced graph
// is obtained by collapsing each strong component to a single node, and is
// acyclic" (§2.1). Arcs follow answer flow (feeder component → customer
// component); Topo lists components in evaluation order (feeders first),
// which is the order completion cascades at run time.
type Reduced struct {
	// Arcs[i] lists the components fed by component i, deduplicated.
	Arcs [][]int
	// Topo is a topological order of component ids, feeders before
	// customers.
	Topo []int
}

// Reduced computes the condensation.
func (g *Graph) Reduced() *Reduced {
	n := len(g.SCCs)
	r := &Reduced{Arcs: make([][]int, n)}
	seen := make([]map[int]bool, n)
	for i := range seen {
		seen[i] = make(map[int]bool)
	}
	for id, node := range g.Nodes {
		for _, s := range g.Succs(id) {
			from, to := node.SCC, g.Nodes[s].SCC
			if from != to && !seen[from][to] {
				seen[from][to] = true
				r.Arcs[from] = append(r.Arcs[from], to)
			}
		}
	}
	// Kahn topological sort on the acyclic condensation.
	indeg := make([]int, n)
	for _, outs := range r.Arcs {
		for _, to := range outs {
			indeg[to]++
		}
	}
	var queue []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		r.Topo = append(r.Topo, c)
		for _, to := range r.Arcs[c] {
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if len(r.Topo) != n {
		panic("rgg: condensation contains a cycle; SCC computation is broken")
	}
	return r
}

// Recursive reports whether node id belongs to a nontrivial strong
// component (one with more than one member).
func (g *Graph) Recursive(id int) bool {
	return len(g.SCCs[g.Nodes[id].SCC]) > 1
}

// Feeders returns node id's children outside its strong component — the
// nodes that feed it across component boundaries (Definition 2.1).
func (g *Graph) Feeders(id int) []int {
	n := g.Nodes[id]
	var out []int
	for _, c := range n.Children {
		if g.Nodes[c].SCC != n.SCC {
			out = append(out, c)
		}
	}
	return out
}

// GoalNodes returns the ids of all goal nodes in creation (DFS preorder)
// order.
func (g *Graph) GoalNodes() []int {
	var out []int
	for _, n := range g.Nodes {
		if n.Kind == Goal {
			out = append(out, n.ID)
		}
	}
	return out
}

// Text renders the graph as an indented tree, marking EDB leaves, cycle
// edges (as the paper's dashed lines), strong components, and each rule
// node's information passing strategy.
func (g *Graph) Text() string {
	var b strings.Builder
	var walk func(id int, depth int)
	walk = func(id int, depth int) {
		n := g.Nodes[id]
		b.WriteString(strings.Repeat("  ", depth))
		switch {
		case n.Kind == Rule:
			fmt.Fprintf(&b, "rule#%d %s  [sip: %s]", n.ID, n.Rule, n.SIP)
		case n.CycleTo != NoNode:
			fmt.Fprintf(&b, "goal#%d %s  --cycle--> goal#%d", n.ID, n.Adorned(), n.CycleTo)
		case n.EDB:
			fmt.Fprintf(&b, "goal#%d %s  [EDB]", n.ID, n.Adorned())
		default:
			fmt.Fprintf(&b, "goal#%d %s", n.ID, n.Adorned())
		}
		if g.Recursive(id) {
			fmt.Fprintf(&b, "  (scc %d", n.SCC)
			if g.Leader[n.SCC] == id {
				b.WriteString(", leader")
			}
			b.WriteString(")")
		}
		b.WriteString("\n")
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(g.Root, 0)
	return b.String()
}

// DOT renders the graph in Graphviz dot syntax: solid arcs for tree edges
// (oriented child → parent, the direction answers flow) and dashed arcs for
// cycle edges, as in the paper's Figure 1.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph rulegoal {\n  rankdir=BT;\n")
	for _, n := range g.Nodes {
		label := ""
		shape := "ellipse"
		switch {
		case n.Kind == Rule:
			label = n.Rule.String()
			shape = "box"
		default:
			label = n.Adorned().String()
			if n.EDB {
				shape = "doubleoctagon"
			}
		}
		fmt.Fprintf(&b, "  n%d [label=%q, shape=%s];\n", n.ID, label, shape)
	}
	for _, n := range g.Nodes {
		if n.Parent != NoNode {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", n.ID, n.Parent)
		}
		if n.CycleTo != NoNode {
			fmt.Fprintf(&b, "  n%d -> n%d [style=dashed];\n", n.CycleTo, n.ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
