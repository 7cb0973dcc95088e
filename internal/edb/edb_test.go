package edb

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/symtab"
)

func TestAddAndSelect(t *testing.T) {
	db := New()
	if !db.Add("r", "a", "b") {
		t.Error("first Add reported duplicate")
	}
	if db.Add("r", "a", "b") {
		t.Error("duplicate Add reported new")
	}
	db.Add("r", "a", "c")
	key := ast.PredKey{Name: "r", Arity: 2}
	if n := db.Cardinality(key); n != 2 {
		t.Fatalf("r has %d tuples", n)
	}
	a, _ := db.Syms.Lookup("a")
	got := 0
	for range db.Scan(key, relation.Binding{a, symtab.NoSym}) {
		got++
	}
	if got != 2 {
		t.Errorf("Scan(a,_) = %d rows", got)
	}
}

func TestFromProgram(t *testing.T) {
	prog := parser.MustParse(`r(a,b). r(b,c). q(b,b). goal(Z) :- p(a,Z). p(X,Y) :- r(X,Y).`)
	db := FromProgram(prog)
	if db.Facts() != 3 {
		t.Errorf("Facts = %d, want 3", db.Facts())
	}
	preds := db.Preds()
	if len(preds) != 2 || preds[0].Name != "q" || preds[1].Name != "r" {
		t.Errorf("Preds = %v", preds)
	}
	if !db.Has(ast.PredKey{Name: "r", Arity: 2}) {
		t.Error("Has(r/2) = false")
	}
	if db.Has(ast.PredKey{Name: "p", Arity: 2}) {
		t.Error("Has(p/2) = true; IDB predicate leaked into EDB")
	}
}

func TestMissingRelationIsEmpty(t *testing.T) {
	db := New()
	rel := Materialize(db, ast.PredKey{Name: "nothing", Arity: 3})
	if rel.Len() != 0 || rel.Arity() != 3 {
		t.Errorf("missing relation: len=%d arity=%d", rel.Len(), rel.Arity())
	}
	if db.Has(ast.PredKey{Name: "nothing", Arity: 3}) {
		t.Error("Materialize of a missing predicate created it")
	}
}

func TestSameNameDifferentArity(t *testing.T) {
	db := New()
	db.Add("r", "a")
	db.Add("r", "a", "b")
	if db.Cardinality(ast.PredKey{Name: "r", Arity: 1}) != 1 {
		t.Error("r/1 wrong")
	}
	if db.Cardinality(ast.PredKey{Name: "r", Arity: 2}) != 1 {
		t.Error("r/2 wrong")
	}
}

func TestAddFactPanicsOnVariable(t *testing.T) {
	db := New()
	defer func() {
		if recover() == nil {
			t.Error("AddFact with variable did not panic")
		}
	}()
	db.AddFact(ast.NewAtom("r", ast.V("X")))
}

func TestConstants(t *testing.T) {
	db := New()
	db.Add("r", "a", "b")
	db.Add("r", "b", "c")
	if n := len(db.Constants()); n != 3 {
		t.Errorf("Constants = %d, want 3", n)
	}
}

func TestLoadRows(t *testing.T) {
	db := New()
	added, err := db.LoadRows("edge", strings.NewReader(`
# comment line
a,b
b , c

a,b
`))
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Errorf("added = %d, want 2 (dup and blank skipped)", added)
	}
	if n := db.Cardinality(ast.PredKey{Name: "edge", Arity: 2}); n != 2 {
		t.Errorf("relation has %d tuples", n)
	}
	c, ok := db.Syms.Lookup("c")
	if !ok {
		t.Fatal("whitespace not trimmed: constant c missing")
	}
	_ = c
	if got := db.Preds(); len(got) != 1 || got[0] != (ast.PredKey{Name: "edge", Arity: 2}) {
		t.Errorf("loaded predicates %v, want [edge/2]", got)
	}
}

func TestLoadRowsTabs(t *testing.T) {
	db := New()
	added, err := db.LoadRows("r", strings.NewReader("a\tb\tc\nx\ty\tz\n"))
	if err != nil || added != 2 {
		t.Fatalf("added=%d err=%v", added, err)
	}
	if db.Cardinality(ast.PredKey{Name: "r", Arity: 3}) != 2 {
		t.Error("tab-separated rows not loaded as arity 3")
	}
}

func TestLoadRowsArityMismatch(t *testing.T) {
	db := New()
	_, err := db.LoadRows("r", strings.NewReader("a,b\nc\n"))
	if err == nil || !strings.Contains(err.Error(), "columns") {
		t.Errorf("arity mismatch not reported: %v", err)
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "facts.csv")
	if err := os.WriteFile(path, []byte("a,b\nb,c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := New()
	added, err := db.LoadFile("edge", path)
	if err != nil || added != 2 {
		t.Fatalf("added=%d err=%v", added, err)
	}
	if _, err := db.LoadFile("edge", filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestWarmFor(t *testing.T) {
	db := New()
	db.Add("r", "a", "b")
	db.Add("empty0") // propositional: zero columns, nothing to index
	db.WarmFor(nil)  // must not panic and must allow concurrent reads after
	key := ast.PredKey{Name: "r", Arity: 2}
	a, _ := db.Syms.Lookup("a")
	done := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func() {
			for j := 0; j < 100; j++ {
				for range db.Scan(key, relation.Binding{a, symtab.NoSym}) {
				}
			}
			done <- true
		}()
	}
	<-done
	<-done
}

// TestWarmForIdempotent is the regression test for composite warming:
// warming the same needs twice must not rebuild any index.
func TestWarmForIdempotent(t *testing.T) {
	db := New()
	db.Add("g", "a", "b", "c")
	db.Add("g", "a", "d", "e")
	db.Add("lone", "x")
	needs := []IndexNeed{
		{Key: ast.PredKey{Name: "g", Arity: 3}, Cols: []int{0, 1}},
		{Key: ast.PredKey{Name: "g", Arity: 3}, Cols: []int{0, 1}}, // duplicate need
		{Key: ast.PredKey{Name: "absent", Arity: 2}, Cols: []int{0, 1}},
	}
	db.WarmFor(needs)
	g := Materialize(db, ast.PredKey{Name: "g", Arity: 3})
	builds := g.IndexBuilds()
	if builds != 4 { // three single-column + one composite
		t.Errorf("after first warm: %d index builds, want 4", builds)
	}
	db.WarmFor(needs) // warm again: everything already built
	if g.IndexBuilds() != builds {
		t.Errorf("second warm rebuilt indexes: %d builds, want %d", g.IndexBuilds(), builds)
	}
	// The composite must actually serve selections that bind its columns.
	a, _ := db.Syms.Lookup("a")
	b, _ := db.Syms.Lookup("b")
	if rows := g.Select(relation.Binding{a, b, symtab.NoSym}); len(rows) != 1 {
		t.Errorf("composite-index selection returned %d rows, want 1", len(rows))
	}
	if g.IndexBuilds() != builds {
		t.Errorf("selection after warm built an index: %d, want %d", g.IndexBuilds(), builds)
	}
}

func TestChangesSince(t *testing.T) {
	db := New()
	db.Add("e", "a", "b")
	db.Add("e", "a", "b") // duplicate: no mutation, no change record
	v1 := db.Version()
	if v1 != 1 {
		t.Fatalf("Version after one distinct insert = %d, want 1", v1)
	}
	db.Add("e", "b", "c")
	db.Add("f", "x")
	ch := db.ChangesSince(v1)
	if len(ch) != 2 {
		t.Fatalf("ChangesSince(%d) returned %d changes, want 2", v1, len(ch))
	}
	if ch[0].Seq != 2 || ch[0].Key != (ast.PredKey{Name: "e", Arity: 2}) {
		t.Errorf("change 0 = %+v, want Seq 2 on e/2", ch[0])
	}
	if ch[1].Seq != 3 || ch[1].Key != (ast.PredKey{Name: "f", Arity: 1}) {
		t.Errorf("change 1 = %+v, want Seq 3 on f/1", ch[1])
	}
	b, _ := db.Syms.Lookup("b")
	if ch[0].Row[0] != b {
		t.Errorf("change 0 row = %v, want first column %v (b)", ch[0].Row, b)
	}
	if got := db.ChangesSince(db.Version()); got != nil {
		t.Errorf("ChangesSince(current) = %v, want nil", got)
	}
	// Seq of every change equals the version its mutation produced.
	for _, c := range db.ChangesSince(0) {
		if c.Seq == 0 || c.Seq > db.Version() {
			t.Errorf("change %+v has Seq outside (0, %d]", c, db.Version())
		}
	}
}
