package parser

import (
	"reflect"
	"testing"

	"repro/internal/ast"
)

// FuzzParse asserts the parser never panics, that anything it accepts
// round-trips — the rendered program parses again to an identical
// rendering — and that ParseInto streams exactly Parse's facts, in order,
// beside exactly its rules.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"p(a).",
		"p(X, Y) :- q(X, Z), r(Z, Y).",
		"?- p(a, Y).",
		"goal :- wet, cold.",
		"% comment\np(a). /* block */ q(b).",
		"p('quoted atom', \"two words\", -42, _V).",
		"p(X,Y)<-q(Y,X).",
		"p((", ":-", "?-.", "p(a,).", "'unterminated",
		"p('a\\\nb').", "p('\\\n').", // an escaped newline does not continue a constant
		"é(ü, 日本, ٣٤, 'a\xffb').\r\n\tq(X) :- é(X, Y, Z, W).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		var streamed []ast.Atom
		rules, ierr := ParseInto(src, func(pred string, args []string) error {
			a := ast.Atom{Pred: pred}
			for _, s := range args {
				a.Args = append(a.Args, ast.C(s))
			}
			streamed = append(streamed, a)
			return nil
		})
		if (err == nil) != (ierr == nil) || err != nil && err.Error() != ierr.Error() {
			t.Fatalf("Parse error %v, ParseInto error %v", err, ierr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(streamed, prog.Facts) || !reflect.DeepEqual(rules.Rules, prog.Rules) || len(rules.Facts) != 0 {
			t.Fatalf("ParseInto streamed %v beside %v; Parse built %v", streamed, rules, prog)
		}
		rendered := prog.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted program failed to re-parse: %v\noriginal: %q\nrendered: %q", err, src, rendered)
		}
		if again.String() != rendered {
			t.Fatalf("round trip unstable:\n%q\nvs\n%q", rendered, again.String())
		}
	})
}
