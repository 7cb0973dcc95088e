package parser

import (
	"strings"
	"testing"

	"repro/internal/ast"
)

func TestParseFactsAndRules(t *testing.T) {
	prog, err := Parse(`
		% the paper's program P1
		r(a, b).
		r(b, c).
		q(b, b).
		goal(Z) :- p(a, Z).
		p(X, Y) :- p(X, U), q(U, V), p(V, Y).
		p(X, Y) :- r(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Facts) != 3 {
		t.Errorf("facts = %d, want 3", len(prog.Facts))
	}
	if len(prog.Rules) != 3 {
		t.Errorf("rules = %d, want 3", len(prog.Rules))
	}
	if err := prog.Validate(true); err != nil {
		t.Errorf("Validate: %v", err)
	}
	rec := prog.Rules[1]
	if rec.Head.String() != "p(X, Y)" || len(rec.Body) != 3 {
		t.Errorf("recursive rule parsed as %s", rec)
	}
}

func TestParseArrowSyntax(t *testing.T) {
	prog, err := Parse(`p(X, Y) <- r(X, Y). goal(Z) <- p(a, Z). r(a,b).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 2 || len(prog.Facts) != 1 {
		t.Errorf("rules=%d facts=%d", len(prog.Rules), len(prog.Facts))
	}
}

func TestParseQuerySugar(t *testing.T) {
	prog, err := Parse(`r(a,b). ?- r(X, Y), r(Y, X).`)
	if err != nil {
		t.Fatal(err)
	}
	qs := prog.QueryRules()
	if len(qs) != 1 {
		t.Fatalf("query rules = %d", len(qs))
	}
	head := qs[0].Head
	if head.Pred != ast.GoalPred || len(head.Args) != 2 {
		t.Errorf("sugar head = %s, want goal(X, Y)", head)
	}
	if head.Args[0] != ast.V("X") || head.Args[1] != ast.V("Y") {
		t.Errorf("sugar head args = %v", head.Args)
	}
}

func TestParseGroundQuery(t *testing.T) {
	prog, err := Parse(`r(a,b). ?- r(a, b).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.QueryRules()[0].Head.Args) != 0 {
		t.Error("ground query should produce a 0-ary goal")
	}
}

func TestParseConstantsKinds(t *testing.T) {
	prog, err := Parse(`f(a, 42, -7, 'Hello World', "two words", x_1).`)
	if err != nil {
		t.Fatal(err)
	}
	got := prog.Facts[0]
	want := []string{"a", "42", "-7", "Hello World", "two words", "x_1"}
	for i, w := range want {
		if got.Args[i] != ast.C(w) {
			t.Errorf("arg %d = %v, want constant %q", i, got.Args[i], w)
		}
	}
}

// TestParseUnicode pins what the byte lexer must keep from the rune lexer:
// non-ASCII letters and digits lex as identifiers and numbers, an invalid
// UTF-8 byte inside quotes reads as U+FFFD, and an escape takes the next
// character literally.
func TestParseUnicode(t *testing.T) {
	prog, err := Parse("é(ü_1, 日本, ٣٤, -٣, 'a\xffb', 'x\\'y', \"\\\\\").\nÜber(x).")
	if err == nil {
		t.Fatalf("upper-case predicate accepted: %v", prog)
	}
	prog, err = Parse("é(ü_1, 日本, ٣٤, -٣, 'a\xffb', 'x\\'y', \"\\\\\").")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ü_1", "日本", "٣٤", "-٣", "a\uFFFDb", "x'y", "\\"}
	got := prog.Facts[0]
	if got.Pred != "é" || len(got.Args) != len(want) {
		t.Fatalf("parsed %v", got)
	}
	for i, w := range want {
		if got.Args[i] != ast.C(w) {
			t.Errorf("arg %d = %q, want %q", i, got.Args[i].Const, w)
		}
	}
}

func TestParseVariables(t *testing.T) {
	prog, err := Parse(`p(X, Y) :- q(X, _underscore, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	b := prog.Rules[0].Body[0]
	if !b.Args[1].IsVar() || b.Args[1].Var != "_underscore" {
		t.Errorf("underscore-initial token should be a variable, got %v", b.Args[1])
	}
}

func TestParsePropositional(t *testing.T) {
	prog, err := Parse(`raining. goal :- raining.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Facts) != 1 || prog.Facts[0].Pred != "raining" || len(prog.Facts[0].Args) != 0 {
		t.Errorf("propositional fact = %v", prog.Facts)
	}
}

func TestParseComments(t *testing.T) {
	prog, err := Parse(`
		% line comment
		r(a, b). % trailing
		/* block
		   comment r(x,y). */
		r(b, c).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Facts) != 2 {
		t.Errorf("facts = %d, want 2 (comments leaked)", len(prog.Facts))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`p(X).`, "variables"},
		{`p(a`, "expected"},
		{`p(a))`, "expected"},
		{`p().`, "empty argument list"},
		{`p(a) :- .`, "identifier"},
		{`p(a, :-).`, "term"},
		{`p(a,b)`, "expected"},
		{`:- p(a).`, "identifier"},
		{`p(a. b).`, "expected"},
		{`'unterminated`, "unterminated"},
		{"p('a\\\nb').", "line 1, column 3: unterminated quoted constant"},
		{"p('\\\n').", "line 1, column 3: unterminated quoted constant"},
		{"p('a\\", "line 1, column 3: unterminated quoted constant"},
		{`/* unterminated`, "unterminated block"},
		{`p ? q.`, "'-'"},
		{`$bad.`, "unexpected character"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded", tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error %q does not contain %q", tc.src, err, tc.want)
		}
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Parse("r(a, b).\nr(a, $).\n")
	if err == nil {
		t.Fatal("expected error")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if perr.Line != 2 {
		t.Errorf("error line = %d, want 2", perr.Line)
	}
}

func TestRoundTrip(t *testing.T) {
	src := `r(a, b).
p(X, Y) :- r(X, Y).
p(X, Y) :- p(X, U), r(U, Y).
goal(Z) :- p(a, Z).
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(prog.String())
	if err != nil {
		t.Fatalf("reparse of String(): %v", err)
	}
	if again.String() != prog.String() {
		t.Errorf("round trip changed program:\n%s\nvs\n%s", prog, again)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on bad input")
		}
	}()
	MustParse(`broken(`)
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile("/nonexistent/path.dl"); err == nil {
		t.Error("ParseFile of missing file succeeded")
	}
}
