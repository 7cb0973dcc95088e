package parser

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"unsafe"

	"repro/internal/ast"
)

// Parse parses Datalog source text into a program. Ground clauses with no
// body become EDB facts; everything else becomes a rule. `?- body.` is sugar
// for `goal(V1, ..., Vk) :- body.` where V1..Vk are the distinct variables
// of the body in first-occurrence order.
//
// Parse performs only syntactic checks; use (*ast.Program).Validate for the
// semantic well-formedness conditions of §1. A fact's constants are
// substrings of src.
func Parse(src string) (*ast.Program, error) {
	var c collector
	prog, err := ParseInto(src, c.fact)
	if err != nil {
		return nil, err
	}
	prog.Facts = c.facts
	return prog, nil
}

// ParseInto parses src like Parse but hands each ground fact to fact, in
// source order, instead of building it as an atom: the returned program
// holds the rules only, and none of its strings refer into src. args is
// reused from fact to fact and its strings are substrings of src, so fact
// must copy whatever it keeps. An error from fact stops the parse and is
// returned unchanged.
func ParseInto(src string, fact func(pred string, args []string) error) (*ast.Program, error) {
	p := &parser{lex: newLexer(src), fact: fact}
	if err := p.step(); err != nil {
		return nil, err
	}
	prog := &ast.Program{}
	for p.tok.kind != tokEOF {
		if err := p.clause(prog); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// collector is Parse's fact sink: it builds each fact as an atom. The atom
// slice doubles as it grows, and arguments are cut from shared chunks of
// terms, so a large program costs a few hundred allocations, not one per
// fact.
type collector struct {
	facts []ast.Atom
	terms []ast.Term // the current chunk: each atom's Args is a capped slice of it
}

func (c *collector) fact(pred string, args []string) error {
	a := ast.Atom{Pred: pred}
	if n := len(args); n > 0 {
		if cap(c.terms)-len(c.terms) < n {
			c.terms = make([]ast.Term, 0, max(n, min(2*cap(c.terms), 4096)))
		}
		off := len(c.terms)
		for _, s := range args {
			c.terms = append(c.terms, ast.C(s))
		}
		a.Args = c.terms[off : off+n : off+n]
	}
	if len(c.facts) == cap(c.facts) {
		c.facts = slices.Grow(c.facts, max(len(c.facts), 1))
	}
	c.facts = append(c.facts, a)
	return nil
}

// ParseFile reads and parses the named file.
func ParseFile(path string) (*ast.Program, error) {
	var c collector
	prog, err := ParseFileInto(path, c.fact)
	if err != nil {
		return nil, err
	}
	prog.Facts = c.facts
	return prog, nil
}

// ParseFileInto reads the named file and parses it with ParseInto. The
// text is parsed where it was read, without a copy into a string.
func ParseFileInto(path string, fact func(pred string, args []string) error) (*ast.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("parser: %w", err)
	}
	prog, err := ParseInto(unsafe.String(unsafe.SliceData(data), len(data)), fact)
	if err != nil {
		return nil, fmt.Errorf("parser: %s: %w", path, err)
	}
	return prog, nil
}

// MustParse parses src and panics on error. It is intended for tests,
// examples, and embedded programs known to be well formed.
func MustParse(src string) *ast.Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	lex  *lexer
	tok  token
	fact func(pred string, args []string) error

	// pred and args hold the atom scanAtom read last, as substrings of the
	// source; strs is the argument slice handed to fact. All three are
	// reused from atom to atom.
	pred string
	args []ast.Term
	strs []string
}

func (p *parser) step() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if p.tok.kind != kind {
		return token{}, &Error{
			Line: p.tok.line, Col: p.tok.col,
			Msg: fmt.Sprintf("expected %s, found %s %q", kind, p.tok.kind, p.tok.text),
		}
	}
	t := p.tok
	return t, p.step()
}

// clause parses one fact, rule, or query: a fact goes to the fact sink, a
// rule or query is appended to prog.
func (p *parser) clause(prog *ast.Program) error {
	if p.tok.kind == tokQuery {
		if err := p.step(); err != nil {
			return err
		}
		body, err := p.body()
		if err != nil {
			return err
		}
		if _, err := p.expect(tokPeriod); err != nil {
			return err
		}
		head := ast.Atom{Pred: ast.GoalPred}
		seen := make(map[string]bool)
		for _, a := range body {
			for _, t := range a.Args {
				if t.IsVar() && !seen[t.Var] {
					seen[t.Var] = true
					head.Args = append(head.Args, t)
				}
			}
		}
		prog.Rules = append(prog.Rules, ast.Rule{Head: head, Body: body})
		return nil
	}

	if err := p.scanAtom(); err != nil {
		return err
	}
	switch p.tok.kind {
	case tokPeriod:
		if err := p.step(); err != nil {
			return err
		}
		p.strs = p.strs[:0]
		for _, t := range p.args {
			if t.IsVar() {
				return &Error{Line: p.tok.line, Col: p.tok.col,
					Msg: fmt.Sprintf("fact %s contains variables; only ground facts are allowed", p.scanned())}
			}
			p.strs = append(p.strs, t.Const)
		}
		return p.fact(p.pred, p.strs)
	case tokImplies:
		head := p.scanned()
		if err := p.step(); err != nil {
			return err
		}
		body, err := p.body()
		if err != nil {
			return err
		}
		if _, err := p.expect(tokPeriod); err != nil {
			return err
		}
		prog.Rules = append(prog.Rules, ast.Rule{Head: head, Body: body})
		return nil
	default:
		return &Error{Line: p.tok.line, Col: p.tok.col,
			Msg: fmt.Sprintf("expected '.' or ':-' after %s, found %q", p.scanned(), p.tok.text)}
	}
}

func (p *parser) body() ([]ast.Atom, error) {
	var out []ast.Atom
	for {
		if err := p.scanAtom(); err != nil {
			return nil, err
		}
		out = append(out, p.scanned())
		if p.tok.kind != tokComma {
			return out, nil
		}
		if err := p.step(); err != nil {
			return nil, err
		}
	}
}

// scanAtom reads one atom into p.pred and p.args.
func (p *parser) scanAtom() error {
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if name.quoted {
		return &Error{Line: name.line, Col: name.col,
			Msg: "a quoted constant cannot be a predicate name"}
	}
	p.pred, p.args = name.text, p.args[:0]
	if p.tok.kind != tokLParen {
		return nil // propositional atom
	}
	if err := p.step(); err != nil {
		return err
	}
	if p.tok.kind == tokRParen {
		return &Error{Line: p.tok.line, Col: p.tok.col, Msg: "empty argument list; omit the parentheses instead"}
	}
	for {
		t, err := p.term()
		if err != nil {
			return err
		}
		p.args = append(p.args, t)
		if p.tok.kind == tokComma {
			if err := p.step(); err != nil {
				return err
			}
			continue
		}
		_, err = p.expect(tokRParen)
		return err
	}
}

// scanned returns the atom scanAtom read last as an ast.Atom that owns its
// strings, so a rule does not keep the source text alive.
func (p *parser) scanned() ast.Atom {
	a := ast.Atom{Pred: strings.Clone(p.pred)}
	if len(p.args) > 0 {
		a.Args = make([]ast.Term, len(p.args))
		for i, t := range p.args {
			a.Args[i] = ast.Term{Var: strings.Clone(t.Var), Const: strings.Clone(t.Const)}
		}
	}
	return a
}

func (p *parser) term() (ast.Term, error) {
	switch p.tok.kind {
	case tokVar:
		t := ast.V(p.tok.text)
		return t, p.step()
	case tokIdent, tokNumber:
		t := ast.C(p.tok.text)
		return t, p.step()
	default:
		return ast.Term{}, &Error{Line: p.tok.line, Col: p.tok.col,
			Msg: fmt.Sprintf("expected a term, found %s %q", p.tok.kind, p.tok.text)}
	}
}
