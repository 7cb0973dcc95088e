package bottomup

import (
	"strings"
	"testing"

	"repro/internal/edb"
	"repro/internal/parser"
)

func explainer(t *testing.T, src string) *Explainer {
	t.Helper()
	prog := parser.MustParse(src)
	if err := prog.Validate(true); err != nil {
		t.Fatal(err)
	}
	return NewExplainer(prog, edb.FromProgram(prog))
}

const chain = `
	edge(a, b). edge(b, c). edge(c, d).
	path(X, Y) :- edge(X, Y).
	path(X, Y) :- path(X, U), edge(U, Y).
	goal(Y) :- path(a, Y).
`

func TestExplainEDBFact(t *testing.T) {
	e := explainer(t, chain)
	p, ok := e.Explain("edge", "a", "b")
	if !ok || !p.EDB {
		t.Fatalf("Explain(edge(a,b)) = %v, %v", p, ok)
	}
	if p.Size() != 0 {
		t.Errorf("EDB leaf has size %d", p.Size())
	}
}

func TestExplainDerived(t *testing.T) {
	e := explainer(t, chain)
	p, ok := e.Explain("path", "a", "d")
	if !ok {
		t.Fatal("path(a,d) not provable")
	}
	out := p.String()
	// The proof must bottom out in EDB facts and use the recursive rule.
	for _, want := range []string{"path(a, d)", "[EDB fact]", ":- "} {
		if !strings.Contains(out, want) {
			t.Errorf("proof missing %q:\n%s", want, out)
		}
	}
	// path(a,d) needs at least 3 derivation steps (one per edge hop).
	if p.Size() < 3 {
		t.Errorf("proof size %d, want ≥ 3:\n%s", p.Size(), out)
	}
	verifyProof(t, e, p)
}

// verifyProof checks the proof's internal consistency: every non-leaf's
// rule head equals its atom, body atoms match sub-proofs, and leaves are
// really EDB facts.
func verifyProof(t *testing.T, e *Explainer, p *Proof) {
	t.Helper()
	if p.EDB {
		return
	}
	if !p.Rule.Head.Equal(p.Atom) {
		t.Errorf("proof node %s headed by rule for %s", p.Atom, p.Rule.Head)
	}
	if len(p.Body) != len(p.Rule.Body) {
		t.Fatalf("proof for %s has %d sub-proofs for %d body atoms", p.Atom, len(p.Body), len(p.Rule.Body))
	}
	for i, sub := range p.Body {
		if !sub.Atom.Equal(p.Rule.Body[i]) {
			t.Errorf("sub-proof %d proves %s, rule needs %s", i, sub.Atom, p.Rule.Body[i])
		}
		verifyProof(t, e, sub)
	}
}

func TestExplainGoal(t *testing.T) {
	e := explainer(t, chain)
	p, ok := e.Explain("goal", "c")
	if !ok {
		t.Fatal("goal(c) not provable")
	}
	verifyProof(t, e, p)
}

func TestExplainAbsentFact(t *testing.T) {
	e := explainer(t, chain)
	if _, ok := e.Explain("path", "d", "a"); ok {
		t.Error("proved a false fact")
	}
	if _, ok := e.Explain("path", "a", "unknown_const"); ok {
		t.Error("proved a fact over an unknown constant")
	}
	if _, ok := e.Explain("nosuchpred", "a"); ok {
		t.Error("proved a fact of an unknown predicate")
	}
}

func TestExplainNonlinear(t *testing.T) {
	e := explainer(t, `
		edge(a, b). edge(b, c). edge(c, d).
		t(X, Y) :- edge(X, Y).
		t(X, Y) :- t(X, U), t(U, Y).
		goal(Y) :- t(a, Y).
	`)
	p, ok := e.Explain("t", "a", "d")
	if !ok {
		t.Fatal("t(a,d) not provable")
	}
	verifyProof(t, e, p)
	// Nonlinear witness: some node must have two t sub-proofs.
	found := false
	var walk func(*Proof)
	walk = func(p *Proof) {
		if !p.EDB {
			tcount := 0
			for _, b := range p.Rule.Body {
				if b.Pred == "t" {
					tcount++
				}
			}
			if tcount == 2 {
				found = true
			}
			for _, sub := range p.Body {
				walk(sub)
			}
		}
	}
	walk(p)
	if !found {
		t.Errorf("no nonlinear rule application in proof:\n%s", p)
	}
}

func TestExplainMutualRecursion(t *testing.T) {
	e := explainer(t, `
		e(a, b). e(b, c). e(c, d).
		odd(X, Y) :- e(X, Y).
		odd(X, Y) :- even(X, U), e(U, Y).
		even(X, Y) :- odd(X, U), e(U, Y).
		goal(Y) :- even(a, Y).
	`)
	p, ok := e.Explain("odd", "a", "d")
	if !ok {
		t.Fatal("odd(a,d) not provable")
	}
	verifyProof(t, e, p)
	if !strings.Contains(p.String(), "even(") {
		t.Errorf("mutually recursive proof lacks even step:\n%s", p)
	}
}

func TestExplainerResultMatchesSemiNaive(t *testing.T) {
	prog := parser.MustParse(chain)
	e := NewExplainer(prog, edb.FromProgram(prog))
	sn := SemiNaive(parser.MustParse(chain), edb.FromProgram(parser.MustParse(chain)))
	if e.Result().Goal.Len() != sn.Goal.Len() {
		t.Errorf("explainer goal %d != semi-naive %d", e.Result().Goal.Len(), sn.Goal.Len())
	}
}

// TestExplainAllModelTuples proves every tuple of the minimum model: each
// must have a finite, consistent proof (acyclicity of first-wins witness
// recording).
func TestExplainAllModelTuples(t *testing.T) {
	e := explainer(t, `
		edge(a, b). edge(b, c). edge(c, a). edge(c, d).
		t(X, Y) :- edge(X, Y).
		t(X, Y) :- t(X, U), t(U, Y).
		goal(Y) :- t(a, Y).
	`)
	for key, rel := range e.Result().IDB {
		for row := range rel.All() {
			args := make([]string, len(row))
			for i, s := range row {
				args[i] = e.db.Syms.String(s)
			}
			p, ok := e.Explain(key.Name, args...)
			if !ok {
				t.Fatalf("model tuple %s(%v) unprovable", key.Name, args)
			}
			verifyProof(t, e, p)
			if p.Size() > 10000 {
				t.Fatalf("suspiciously large proof for %s(%v)", key.Name, args)
			}
		}
	}
}
