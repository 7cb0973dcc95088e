// Package magic implements generalized magic-sets rewriting as an
// extension experiment (DESIGN.md E10): the same sideways information
// passing that drives the message engine's "d" restriction, compiled into
// extra rules and evaluated bottom-up. The paper predates the magic-sets
// papers by months; the technique is the natural bottom-up counterpart of
// its tuple-request machinery, so comparing the two quantifies how much of
// the engine's restriction is attributable to information passing itself.
//
// The transform follows the classic recipe: for every reachable adorned
// predicate p^a, a magic predicate magic(p^a) holds the bindings for p's
// bound arguments; every rule for p gets magic(p^a) prepended as a guard;
// and for each IDB subgoal q at position k of a rule (in SIP order), a
// magic rule derives magic(q^a') from the rule's guard plus the subgoals
// preceding q.
package magic

import (
	"fmt"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/bottomup"
	"repro/internal/edb"
)

// Rewritten is the product of the transform.
type Rewritten struct {
	// Program contains the adorned and magic rules plus the seed facts.
	Program *ast.Program
	// AdornedPreds counts distinct (predicate, adornment) pairs reached.
	AdornedPreds int
	// MagicRules counts the generated binding-passing rules.
	MagicRules int
}

// adornedName mangles an adorned predicate name. "@" cannot appear in
// parsed identifiers, so mangled names never collide with user predicates.
func adornedName(pred string, ad adorn.Adornment) string {
	return pred + "@" + bindingString(ad)
}

func magicName(pred string, ad adorn.Adornment) string {
	return "magic@" + pred + "@" + bindingString(ad)
}

// bindingString reduces the four classes to the classic b/f alphabet:
// magic sets only distinguish bound from free.
func bindingString(ad adorn.Adornment) string {
	out := make([]byte, len(ad))
	for i, c := range ad {
		if c.Bound() {
			out[i] = 'b'
		} else {
			out[i] = 'f'
		}
	}
	return string(out)
}

// boundArgs extracts the atom's arguments at bound positions.
func boundArgs(a ast.Atom, ad adorn.Adornment) []ast.Term {
	var out []ast.Term
	for i, c := range ad {
		if c.Bound() {
			out = append(out, a.Args[i])
		}
	}
	return out
}

// canonicalAd reduces an adornment to bound/free classes so that e.g. "cf"
// and "df" share one adorned predicate.
func canonicalAd(ad adorn.Adornment) adorn.Adornment {
	out := make(adorn.Adornment, len(ad))
	for i, c := range ad {
		if c.Bound() {
			out[i] = adorn.Dynamic
		} else {
			out[i] = adorn.Free
		}
	}
	return out
}

type key struct {
	pred ast.PredKey
	ad   string
}

// Rewrite transforms the program for its query under the given strategy
// (nil means greedy, matching the engine's default).
func Rewrite(prog *ast.Program, strategy func(ast.Rule, adorn.Adornment) *adorn.SIP) (*Rewritten, error) {
	if err := prog.Validate(true); err != nil {
		return nil, err
	}
	if strategy == nil {
		strategy = adorn.Greedy
	}
	idb := make(map[ast.PredKey]bool)
	for _, k := range prog.IDBPreds() {
		idb[k] = true
	}

	out := &ast.Program{Facts: append([]ast.Atom(nil), prog.Facts...)}
	rw := &Rewritten{Program: out}

	done := make(map[key]bool)
	var queue []struct {
		pred ast.PredKey
		ad   adorn.Adornment
	}
	enqueue := func(pred ast.PredKey, ad adorn.Adornment) {
		ad = canonicalAd(ad)
		k := key{pred, bindingString(ad)}
		if done[k] {
			return
		}
		done[k] = true
		queue = append(queue, struct {
			pred ast.PredKey
			ad   adorn.Adornment
		}{pred, ad})
		rw.AdornedPreds++
	}

	// Seed: the goal predicate, all free, with a propositional magic seed.
	goalRules := prog.QueryRules()
	goalKey := goalRules[0].Head.Key()
	goalAd := make(adorn.Adornment, goalKey.Arity)
	for i := range goalAd {
		goalAd[i] = adorn.Free
	}
	enqueue(goalKey, goalAd)
	out.Facts = append(out.Facts, ast.Atom{Pred: magicName(ast.GoalPred, goalAd)})

	for len(queue) > 0 {
		item := queue[0]
		queue = queue[1:]
		rules := prog.RulesFor(item.pred)
		for _, rule := range rules {
			sip := strategy(rule, item.ad)
			guard := ast.Atom{Pred: magicName(item.pred.Name, item.ad), Args: boundArgs(rule.Head, item.ad)}

			// Adorned rule: head renamed, guard prepended (the guard is the
			// reachability trigger that keeps unreachable adorned
			// predicates empty), body in SIP order with IDB subgoals
			// renamed to their adorned versions.
			newRule := ast.Rule{
				Head: ast.Atom{Pred: adornedName(item.pred.Name, item.ad), Args: rule.Head.Args},
				Body: []ast.Atom{guard},
			}
			for _, i := range sip.Order {
				b := rule.Body[i]
				ad := canonicalAd(sip.SubAd[i])
				if !idb[b.Key()] {
					newRule.Body = append(newRule.Body, b)
					continue
				}
				enqueue(b.Key(), ad)
				// Magic rule: magic(q^a)(bound) :- guard, S1, …, Sk-1 —
				// the bindings the prefix join supplies sideways.
				mr := ast.Rule{Head: ast.Atom{Pred: magicName(b.Pred, ad), Args: boundArgs(b, ad)}}
				mr.Body = append(mr.Body, newRule.Body...)
				out.Rules = append(out.Rules, mr)
				rw.MagicRules++
				newRule.Body = append(newRule.Body, ast.Atom{Pred: adornedName(b.Pred, ad), Args: b.Args})
			}
			out.Rules = append(out.Rules, newRule)
		}
	}

	// The rewritten query: goal(V1..Vk) :- goal@ff…(V1..Vk), so the
	// standard evaluators find the goal predicate untouched.
	wrapper := ast.Rule{Head: ast.Atom{Pred: ast.GoalPred}}
	body := ast.Atom{Pred: adornedName(ast.GoalPred, goalAd)}
	for i := 0; i < goalKey.Arity; i++ {
		v := ast.V(fmt.Sprintf("_W%d", i+1))
		wrapper.Head.Args = append(wrapper.Head.Args, v)
		body.Args = append(body.Args, v)
	}
	wrapper.Body = []ast.Atom{body}
	out.Rules = append(out.Rules, wrapper)
	return rw, nil
}

// Evaluate rewrites the program under the default (greedy) strategy and
// evaluates it semi-naively. The returned database is built from the
// rewritten program (it contains the magic seed facts) and owns the symbol
// table the result's tuples use.
func Evaluate(prog *ast.Program) (*bottomup.Result, *Rewritten, *edb.Database, error) {
	return EvaluateWith(prog, nil, nil)
}

// EvaluateWith is Evaluate over the facts of base as well as the program's
// own (base may be nil), with an explicit sideways-information-passing
// strategy driving the rewrite's adornments (nil means greedy). The
// rewrite's database is private, so base's rows are copied into it, one
// evaluation at a time. The answer set is strategy-independent; the magic
// predicates — and hence the work — are not. No rule may define a
// predicate that base has facts for.
func EvaluateWith(prog *ast.Program, base *edb.Database, strategy func(ast.Rule, adorn.Adornment) *adorn.SIP) (*bottomup.Result, *Rewritten, *edb.Database, error) {
	if base != nil {
		if err := prog.ValidateRules(base.Has, true); err != nil {
			return nil, nil, nil, err
		}
	}
	rw, err := Rewrite(prog, strategy)
	if err != nil {
		return nil, nil, nil, err
	}
	db := edb.New()
	if base != nil {
		for _, key := range base.Preds() {
			args := make([]string, key.Arity)
			for row := range base.Scan(key, nil) {
				for i, sym := range row {
					args[i] = base.Syms.String(sym)
				}
				db.Add(key.Name, args...)
			}
		}
	}
	for _, f := range rw.Program.Facts {
		db.AddFact(f)
	}
	res := bottomup.SemiNaive(rw.Program, db)
	return res, rw, db, nil
}

// String summarizes the rewrite.
func (rw *Rewritten) String() string {
	return fmt.Sprintf("magic: %d adorned predicates, %d magic rules, %d total rules",
		rw.AdornedPreds, rw.MagicRules, len(rw.Program.Rules))
}
