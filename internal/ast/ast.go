// Package ast defines the abstract syntax of function-free Horn clause
// programs: terms, atoms, rules, and programs.
//
// Following the paper's problem statement (§1), a system consists of an
// extensional database (EDB) of ground atomic facts, a permanent intensional
// database (PIDB) of rules whose heads never use EDB predicates, and a query
// whose rules define the distinguished predicate "goal".
package ast

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
)

// GoalPred is the distinguished query predicate of §1: query rules have
// heads with this name, and it may not appear in any rule body of the PIDB.
const GoalPred = "goal"

// Term is a constant or a variable. Exactly one of Var and Const is
// meaningful: a Term with non-empty Var is a variable; otherwise it is the
// constant named by Const. (Datalog has no function symbols, so terms are
// flat.)
type Term struct {
	Var   string // variable name, e.g. "X"; empty for constants
	Const string // constant text, e.g. "a" or "42"; empty for variables
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(text string) Term { return Term{Const: text} }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term in source syntax. Constants that do not lex as
// bare identifiers or integers are single-quoted (with \' and \\ escapes),
// so rendered programs always re-parse to themselves.
func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	if bareConstant(t.Const) {
		return t.Const
	}
	var b strings.Builder
	b.WriteByte('\'')
	for _, r := range t.Const {
		if r == '\'' || r == '\\' {
			b.WriteByte('\\')
		}
		b.WriteRune(r)
	}
	b.WriteByte('\'')
	return b.String()
}

// bareConstant reports whether text lexes as a lowercase-initial identifier
// or an integer, i.e. needs no quoting.
func bareConstant(text string) bool {
	if text == "" {
		return false
	}
	runes := []rune(text)
	if unicode.IsDigit(runes[0]) || (runes[0] == '-' && len(runes) > 1) {
		for _, r := range runes[1:] {
			if !unicode.IsDigit(r) {
				return false
			}
		}
		return runes[0] != '-' || len(runes) > 1
	}
	if !unicode.IsLower(runes[0]) {
		return false
	}
	for _, r := range runes[1:] {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
			return false
		}
	}
	return true
}

// Atom is a predicate applied to terms, e.g. p(X, a).
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom constructs an atom.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// Key returns the predicate identity (name/arity) of the atom.
func (a Atom) Key() PredKey { return PredKey{Name: a.Pred, Arity: len(a.Args)} }

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Vars returns the distinct variables of the atom in first-occurrence order.
func (a Atom) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range a.Args {
		if t.IsVar() && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// String renders the atom in source syntax.
func (a Atom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// Equal reports structural equality of atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// PredKey identifies a predicate by name and arity.
type PredKey struct {
	Name  string
	Arity int
}

// String renders the key as name/arity.
func (k PredKey) String() string { return fmt.Sprintf("%s/%d", k.Name, k.Arity) }

// Rule is a Horn clause: Head :- Body. The positive literal is the head and
// the negative literals are its subgoals (§1). An empty body is permitted by
// the grammar but such clauses are normally facts and belong in the EDB when
// ground.
type Rule struct {
	Head Atom
	Body []Atom
}

// String renders the rule in source syntax.
func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, a := range r.Body {
		parts[i] = a.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Vars returns the distinct variables of the rule in head-then-body,
// first-occurrence order.
func (r Rule) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(a Atom) {
		for _, t := range a.Args {
			if t.IsVar() && !seen[t.Var] {
				seen[t.Var] = true
				out = append(out, t.Var)
			}
		}
	}
	add(r.Head)
	for _, b := range r.Body {
		add(b)
	}
	return out
}

// IsRangeRestricted reports whether every head variable also appears in the
// body. Range restriction ("safety") guarantees finite answers and is
// required of every IDB rule.
func (r Rule) IsRangeRestricted() bool {
	body := make(map[string]bool)
	for _, b := range r.Body {
		for _, t := range b.Args {
			if t.IsVar() {
				body[t.Var] = true
			}
		}
	}
	for _, t := range r.Head.Args {
		if t.IsVar() && !body[t.Var] {
			return false
		}
	}
	return true
}

// Program is a parsed system: EDB facts, PIDB rules, and query rules.
// Query rules are the rules whose head predicate is GoalPred. A program
// loaded into a store (mpq.Load) holds its rules only: the facts live in
// the store.
type Program struct {
	Facts []Atom // ground atoms: the EDB
	Rules []Rule // PIDB rules plus query rules
}

// EDBPreds returns the predicate keys that appear in facts, sorted.
func (p *Program) EDBPreds() []PredKey {
	set := make(map[PredKey]bool)
	for _, f := range p.Facts {
		set[f.Key()] = true
	}
	return sortedKeys(set)
}

// IDBPreds returns the predicate keys that appear as rule heads, sorted.
func (p *Program) IDBPreds() []PredKey {
	set := make(map[PredKey]bool)
	for _, r := range p.Rules {
		set[r.Head.Key()] = true
	}
	return sortedKeys(set)
}

// RulesFor returns the rules whose head matches key, in program order.
func (p *Program) RulesFor(key PredKey) []Rule {
	var out []Rule
	for _, r := range p.Rules {
		if r.Head.Key() == key {
			out = append(out, r)
		}
	}
	return out
}

// QueryRules returns the rules defining the distinguished goal predicate.
func (p *Program) QueryRules() []Rule {
	var out []Rule
	for _, r := range p.Rules {
		if r.Head.Pred == GoalPred {
			out = append(out, r)
		}
	}
	return out
}

// Validate checks the well-formedness conditions of §1: facts are ground;
// rules are range restricted; EDB predicates never occur positively (as rule
// heads); the goal predicate never occurs negatively (in a body); and at
// least one query rule exists when requireQuery is set.
func (p *Program) Validate(requireQuery bool) error {
	edb := make(map[PredKey]bool)
	for _, f := range p.Facts {
		if !f.IsGround() {
			return fmt.Errorf("ast: fact %s is not ground", f)
		}
		edb[f.Key()] = true
	}
	return p.ValidateRules(func(k PredKey) bool { return edb[k] }, requireQuery)
}

// ValidateRules checks Validate's conditions on the rules alone, with isEDB
// naming the predicates that have facts — for callers that keep the facts
// somewhere other than p.Facts (a loaded system keeps them only in its
// store).
func (p *Program) ValidateRules(isEDB func(PredKey) bool, requireQuery bool) error {
	sawQuery := false
	for _, r := range p.Rules {
		if isEDB(r.Head.Key()) {
			return fmt.Errorf("ast: rule %s has EDB predicate %s in its head", r, r.Head.Key())
		}
		if !r.IsRangeRestricted() {
			return fmt.Errorf("ast: rule %s is not range restricted", r)
		}
		if r.Head.Pred == GoalPred {
			sawQuery = true
		}
		for _, b := range r.Body {
			if b.Pred == GoalPred {
				return fmt.Errorf("ast: rule %s uses the distinguished predicate %q in its body", r, GoalPred)
			}
		}
		if len(r.Body) == 0 {
			return fmt.Errorf("ast: rule %s has an empty body; ground facts belong in the EDB", r)
		}
	}
	if requireQuery && !sawQuery {
		return fmt.Errorf("ast: program has no query rule (head predicate %q)", GoalPred)
	}
	return nil
}

// String renders the whole program in source syntax, facts first.
func (p *Program) String() string {
	var b strings.Builder
	for _, f := range p.Facts {
		b.WriteString(f.String())
		b.WriteString(".\n")
	}
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	return b.String()
}

func sortedKeys(set map[PredKey]bool) []PredKey {
	out := make([]PredKey, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}
