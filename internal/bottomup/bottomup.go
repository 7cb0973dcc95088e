// Package bottomup provides the reference evaluators the paper positions
// the message-passing framework against:
//
//   - Naive: the least-fixpoint operator of [VEK76, AU79] — re-derive
//     everything from the full model each pass until nothing is new.
//   - SemiNaive: the standard delta-driven refinement, used as the ground
//     truth oracle in tests and as the bottom-up baseline in benchmarks.
//   - BruteForce: §1.1's construction — enumerate all ground instances of
//     the IDB over the constants of the system and reason forward; its
//     running time is O(n^(t+O(1))) for n constants and ≤ t variables per
//     rule, which experiment E7 measures.
//
// All three compute the full minimum model (no "d"-restriction), so the
// goal relation they produce is the correct answer for any query, and the
// total model size quantifies how much work the message engine's sideways
// information passing avoids (experiment E9).
package bottomup

import (
	"repro/internal/ast"
	"repro/internal/edb"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// Counts reports evaluation effort.
type Counts struct {
	Iterations int   // fixpoint passes
	Derived    int64 // derivations attempted (successful body matches)
	ModelSize  int64 // total IDB tuples in the minimum model (goal included)
	Joins      int64 // candidate tuples examined while matching bodies
}

// Work is the scalar effort summary used for estimated-vs-observed cost
// reporting: candidate tuples examined plus derivations made. It is
// deterministic for a given program, database, and rewrite.
func (c Counts) Work() int64 { return c.Joins + c.Derived }

// Result is a completed bottom-up evaluation.
type Result struct {
	// Goal holds the goal relation of the minimum model.
	Goal *relation.Relation
	// IDB maps every IDB predicate to its computed relation.
	IDB map[ast.PredKey]*relation.Relation
	Counts
}

// state carries one evaluation's context.
type state struct {
	prog   *ast.Program
	db     *edb.Database
	idb    map[ast.PredKey]*relation.Relation
	base   map[ast.PredKey]*relation.Relation // materialized EDB views
	counts Counts
}

func newState(prog *ast.Program, db *edb.Database) *state {
	s := &state{prog: prog, db: db,
		idb:  make(map[ast.PredKey]*relation.Relation),
		base: make(map[ast.PredKey]*relation.Relation)}
	for _, k := range prog.IDBPreds() {
		s.idb[k] = relation.New(k.Arity)
	}
	return s
}

// rel resolves an atom's current relation: IDB if defined by rules, else
// the base relation, materialized from the store once per evaluation (both
// backends hand back their live relation, so this is zero-copy).
func (s *state) rel(key ast.PredKey) *relation.Relation {
	if r, ok := s.idb[key]; ok {
		return r
	}
	r, ok := s.base[key]
	if !ok {
		r = edb.Materialize(s.db, key)
		s.base[key] = r
	}
	return r
}

func (s *state) result() *Result {
	for _, r := range s.idb {
		s.counts.ModelSize += int64(r.Len())
	}
	goal := relation.New(goalArity(s.prog))
	if g, ok := s.idb[ast.PredKey{Name: ast.GoalPred, Arity: goalArity(s.prog)}]; ok {
		goal.Union(g)
	}
	return &Result{Goal: goal, IDB: s.idb, Counts: s.counts}
}

func goalArity(prog *ast.Program) int {
	for _, r := range prog.Rules {
		if r.Head.Pred == ast.GoalPred {
			return len(r.Head.Args)
		}
	}
	return 0
}

// Naive evaluates the program to its minimum model by iterating the
// immediate-consequence operator over the full relations until fixpoint.
func Naive(prog *ast.Program, db *edb.Database) *Result {
	s := newState(prog, db)
	for changed := true; changed; {
		changed = false
		s.counts.Iterations++
		for _, rule := range prog.Rules {
			head := s.idb[rule.Head.Key()]
			s.matchBody(rule, 0, make(map[string]symtab.Sym), func(env map[string]symtab.Sym) {
				s.counts.Derived++
				if head.Insert(instantiate(rule.Head, env, s.db.Syms)) {
					changed = true
				}
			})
		}
	}
	return s.result()
}

// SemiNaive evaluates the program with delta iteration: each pass matches
// every rule once per IDB body atom, with that atom restricted to the
// previous pass's new tuples.
func SemiNaive(prog *ast.Program, db *edb.Database) *Result {
	s := newState(prog, db)
	delta := make(map[ast.PredKey]*relation.Relation, len(s.idb))

	// Pass 0: rules whose bodies touch no IDB predicate seed the deltas.
	s.counts.Iterations++
	for key := range s.idb {
		delta[key] = relation.New(key.Arity)
	}
	for _, rule := range prog.Rules {
		if countIDB(s, rule) > 0 {
			continue
		}
		head := s.idb[rule.Head.Key()]
		s.matchBody(rule, 0, make(map[string]symtab.Sym), func(env map[string]symtab.Sym) {
			s.counts.Derived++
			t := instantiate(rule.Head, env, s.db.Syms)
			if head.Insert(t) {
				delta[rule.Head.Key()].Insert(t)
			}
		})
	}

	for {
		next := make(map[ast.PredKey]*relation.Relation, len(s.idb))
		for key := range s.idb {
			next[key] = relation.New(key.Arity)
		}
		any := false
		s.counts.Iterations++
		for _, rule := range prog.Rules {
			head := s.idb[rule.Head.Key()]
			for di, b := range rule.Body {
				d, ok := delta[b.Key()]
				if !ok || d.Len() == 0 {
					continue
				}
				s.matchBodyDelta(rule, di, d, func(env map[string]symtab.Sym) {
					s.counts.Derived++
					t := instantiate(rule.Head, env, s.db.Syms)
					if head.Insert(t) {
						next[rule.Head.Key()].Insert(t)
						any = true
					}
				})
			}
		}
		if !any {
			break
		}
		delta = next
	}
	return s.result()
}

// matchBody extends env over the body atoms from position i on, yielding
// every satisfying assignment.
func (s *state) matchBody(rule ast.Rule, i int, env map[string]symtab.Sym, yield func(map[string]symtab.Sym)) {
	if i == len(rule.Body) {
		yield(env)
		return
	}
	s.matchAtom(rule.Body[i], s.rel(rule.Body[i].Key()), env, func() {
		s.matchBody(rule, i+1, env, yield)
	})
}

// matchBodyDelta is matchBody with body atom di restricted to the delta
// relation (the semi-naive rewriting ΔR ⋈ full others).
func (s *state) matchBodyDelta(rule ast.Rule, di int, delta *relation.Relation, yield func(map[string]symtab.Sym)) {
	var rec func(i int, env map[string]symtab.Sym)
	env := make(map[string]symtab.Sym)
	rec = func(i int, env map[string]symtab.Sym) {
		if i == len(rule.Body) {
			yield(env)
			return
		}
		rel := s.rel(rule.Body[i].Key())
		if i == di {
			rel = delta
		}
		s.matchAtom(rule.Body[i], rel, env, func() {
			rec(i+1, env)
		})
	}
	rec(0, env)
}

// matchAtom unifies the atom against rel under env, extending env for each
// matching tuple, invoking k, and undoing the extension.
func (s *state) matchAtom(a ast.Atom, rel *relation.Relation, env map[string]symtab.Sym, k func()) {
	binding := make(relation.Binding, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar() {
			if v, ok := env[t.Var]; ok {
				binding[i] = v
			}
		} else {
			sym, ok := s.db.Syms.Lookup(t.Const)
			if !ok {
				return // constant absent from the whole system: no match
			}
			binding[i] = sym
		}
	}
	rows := rel.Select(binding)
	s.counts.Joins += int64(len(rows))
	for _, row := range rows {
		var set []string
		ok := true
		for i, t := range a.Args {
			if !t.IsVar() {
				continue
			}
			if v, bound := env[t.Var]; bound {
				if v != row[i] {
					ok = false
					break
				}
			} else {
				env[t.Var] = row[i]
				set = append(set, t.Var)
			}
		}
		if ok {
			k()
		}
		for _, v := range set {
			delete(env, v)
		}
	}
}

func instantiate(head ast.Atom, env map[string]symtab.Sym, syms *symtab.Table) relation.Tuple {
	t := make(relation.Tuple, len(head.Args))
	for i, a := range head.Args {
		if a.IsVar() {
			t[i] = env[a.Var]
		} else {
			t[i] = syms.Intern(a.Const)
		}
	}
	return t
}

func countIDB(s *state, rule ast.Rule) int {
	n := 0
	for _, b := range rule.Body {
		if _, ok := s.idb[b.Key()]; ok {
			n++
		}
	}
	return n
}

// BruteForce implements §1.1's enumeration: every pass substitutes every
// combination of the system's constants for each rule's variables and adds
// the head instance whenever all body instances are already derived. It is
// exponential in the number of variables per rule and exists to reproduce
// experiment E7; keep inputs tiny.
func BruteForce(prog *ast.Program, db *edb.Database) *Result {
	s := newState(prog, db)
	consts := db.Constants()
	for changed := true; changed; {
		changed = false
		s.counts.Iterations++
		for _, rule := range prog.Rules {
			vars := rule.Vars()
			env := make(map[string]symtab.Sym, len(vars))
			var rec func(i int)
			rec = func(i int) {
				if i == len(vars) {
					for _, b := range rule.Body {
						s.counts.Joins++
						if !s.rel(b.Key()).Contains(instantiate(b, env, s.db.Syms)) {
							return
						}
					}
					s.counts.Derived++
					if s.idb[rule.Head.Key()].Insert(instantiate(rule.Head, env, s.db.Syms)) {
						changed = true
					}
				} else {
					for _, c := range consts {
						env[vars[i]] = c
						rec(i + 1)
					}
				}
			}
			rec(0)
		}
	}
	return s.result()
}
