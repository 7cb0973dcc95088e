package mpq

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

const tcProgram = `
	edge(a, b). edge(b, c). edge(c, d). edge(x, y).
	path(X, Y) :- edge(X, Y).
	path(X, Y) :- path(X, U), edge(U, Y).
	goal(Y) :- path(a, Y).
`

func TestLoadAndEvalDefault(t *testing.T) {
	sys, err := Load(tcProgram)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Eval()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"b"}, {"c"}, {"d"}}
	if !reflect.DeepEqual(ans.Tuples, want) {
		t.Errorf("Tuples = %v, want %v", ans.Tuples, want)
	}
	if ans.Engine != MessagePassing {
		t.Errorf("Engine = %v", ans.Engine)
	}
	if ans.Stats.Messages() == 0 {
		t.Error("no messages recorded")
	}
}

func TestAllEnginesAgree(t *testing.T) {
	engines := []Engine{MessagePassing, SemiNaive, Naive, MagicSets, BruteForce}
	var baseline [][]string
	for _, e := range engines {
		sys := MustLoad(tcProgram)
		ans, err := sys.Eval(WithEngine(e))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if baseline == nil {
			baseline = ans.Tuples
			continue
		}
		if !reflect.DeepEqual(ans.Tuples, baseline) {
			t.Errorf("%v answers %v != %v", e, ans.Tuples, baseline)
		}
	}
}

func TestStrategies(t *testing.T) {
	for _, s := range []string{"greedy", "qualtree", "leftright"} {
		sys := MustLoad(tcProgram)
		ans, err := sys.Eval(WithStrategy(s))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(ans.Tuples) != 3 {
			t.Errorf("%s: %d answers", s, len(ans.Tuples))
		}
	}
}

func TestAddFact(t *testing.T) {
	sys := MustLoad(tcProgram)
	if !sys.AddFact("edge", "d", "e1") {
		t.Error("AddFact reported duplicate for new fact")
	}
	if sys.AddFact("edge", "d", "e1") {
		t.Error("AddFact reported new for duplicate")
	}
	ans, err := sys.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Has("e1") {
		t.Errorf("added fact not reachable: %v", ans.Tuples)
	}
}

func TestLoadData(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.csv")
	if err := os.WriteFile(path, []byte("d,e1\ne1,f1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sys := MustLoad(tcProgram)
	n, err := sys.LoadData("edge", path)
	if err != nil || n != 2 {
		t.Fatalf("LoadData = %d, %v", n, err)
	}
	// Every engine must see the loaded facts (in particular MagicSets,
	// which rebuilds its database from the program).
	for _, e := range []Engine{MessagePassing, SemiNaive, MagicSets} {
		ans, err := sys.Eval(WithEngine(e))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if !ans.Has("f1") {
			t.Errorf("%v: loaded fact unreachable: %v", e, ans.Tuples)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		`edge(a, b).`,                       // no query
		`edge(X, b). goal(Y) :- edge(a,Y).`, // nonground fact
		`p(X) :- q(`,                        // syntax
	}
	for _, src := range cases {
		if _, err := Load(src); err == nil {
			t.Errorf("Load(%q) succeeded", src)
		}
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prog.dl")
	if err := os.WriteFile(path, []byte(tcProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Eval()
	if err != nil || len(ans.Tuples) != 3 {
		t.Errorf("LoadFile eval: %v, %v", ans, err)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.dl")); err == nil {
		t.Error("LoadFile of missing file succeeded")
	}
}

func TestGraphInspection(t *testing.T) {
	sys := MustLoad(tcProgram)
	g, err := sys.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) == 0 || g.Text() == "" || g.DOT() == "" {
		t.Error("graph inspection empty")
	}
}

func TestWithStats(t *testing.T) {
	var st trace.Stats
	sys := MustLoad(tcProgram)
	if _, err := sys.Eval(WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Eval(WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	two := st.Snapshot()
	if two.Messages() == 0 {
		t.Error("accumulator empty")
	}
}

func TestParseEngine(t *testing.T) {
	for _, e := range []Engine{MessagePassing, SemiNaive, Naive, MagicSets, BruteForce} {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	if _, err := ParseEngine("nope"); err == nil {
		t.Error("ParseEngine accepted junk")
	}
	if Engine(99).String() == "" {
		t.Error("unknown engine String empty")
	}
}

func TestExplain(t *testing.T) {
	sys := MustLoad(tcProgram)
	p, ok := sys.Explain("path", "a", "d")
	if !ok {
		t.Fatal("path(a,d) not provable")
	}
	s := p.String()
	if !strings.Contains(s, "path(a, d)") || !strings.Contains(s, "[EDB fact]") {
		t.Errorf("proof malformed:\n%s", s)
	}
	if _, ok := sys.Explain("path", "d", "a"); ok {
		t.Error("proved a false fact")
	}
	if _, ok := sys.Explain("edge", "a", "b"); !ok {
		t.Error("EDB fact not explainable")
	}
}

// TestEvalStream: streaming a System's answers through Answers yields
// exactly the answer set Eval returns.
func TestEvalStream(t *testing.T) {
	sys := MustLoad(tcProgram)
	var got [][]string
	for tup, err := range sys.Answers() {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tup)
	}
	ans, err := sys.Eval()
	if err != nil {
		t.Fatal(err)
	}
	want := ans.Tuples
	sortTuples(got)
	sortTuples(want)
	if len(got) != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("Answers streamed %v, Eval returned %v", got, want)
	}
}

// TestAnswersEarlyStop: breaking out of the range loop after the first
// answer stops the evaluation promptly and cleanly, with no error yielded.
func TestAnswersEarlyStop(t *testing.T) {
	// A large chain; stop after the first answer.
	src := ""
	for i := 0; i < 200; i++ {
		src += "edge(n" + fmt.Sprint(i) + ", n" + fmt.Sprint(i+1) + ").\n"
	}
	src += `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(Y) :- path(n0, Y).
	`
	sys := MustLoad(src)
	st := &trace.Stats{}
	count := 0
	for _, err := range sys.Answers(WithStats(st)) {
		if err != nil {
			t.Fatal(err)
		}
		count++
		break
	}
	if count != 1 {
		t.Errorf("loop body ran %d times, want 1", count)
	}
	if stored := st.Snapshot().Stored; stored >= 200 {
		t.Errorf("stopping did not end the engine early: %d tuples stored", stored)
	}
}

func TestAnswersRejectsOtherEngines(t *testing.T) {
	sys := MustLoad(tcProgram)
	for _, err := range sys.Answers(WithEngine(SemiNaive)) {
		if err == nil {
			t.Error("Answers yielded a row from a bottom-up engine")
		}
		return
	}
	t.Error("Answers yielded nothing for a bottom-up engine, want an error")
}

func TestConcurrentEval(t *testing.T) {
	sys := MustLoad(tcProgram)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ans, err := sys.Eval()
			if err != nil {
				errs <- err
				return
			}
			if len(ans.Tuples) != 3 {
				errs <- fmt.Errorf("got %d answers", len(ans.Tuples))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestHas(t *testing.T) {
	a := &Answer{Tuples: [][]string{{"x", "y"}, {"z"}}}
	if !a.Has("x", "y") || !a.Has("z") || a.Has("x") || a.Has("y", "x") {
		t.Error("Has wrong")
	}
}

func TestMustLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLoad did not panic")
		}
	}()
	MustLoad("broken(")
}

func ExampleSystem_Eval() {
	sys := MustLoad(`
		edge(a, b). edge(b, c).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(Y) :- path(a, Y).
	`)
	ans, _ := sys.Eval()
	for _, t := range ans.Tuples {
		fmt.Println(t[0])
	}
	// Output:
	// b
	// c
}
