package mpq

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/edb"
	"repro/internal/parser"
)

// storedFacts renders every row of the store as a ground atom, predicates
// in Preds order and rows in insertion order.
func storedFacts(db *edb.Database) []ast.Atom {
	var out []ast.Atom
	for _, key := range db.Preds() {
		for row := range db.Scan(key, nil) {
			a := ast.Atom{Pred: key.Name}
			for _, sym := range row {
				a.Args = append(a.Args, ast.C(db.Syms.String(sym)))
			}
			out = append(out, a)
		}
	}
	return out
}

// loadErrorCases are malformed programs and the exact error Load reported
// for each before the lexer worked over bytes: positions count runes across
// non-ASCII text, tabs, CRLF line ends and block comments, and the rule
// checks report the first offending rule in program order.
var loadErrorCases = []struct{ src, want string }{
	{"é(a).\np(a, $).", "parse error at line 2, column 6: unexpected character '$'"},
	{"p(\"日本語\", X).\n", "parse error at line 2, column 1: fact p('日本語', X) contains variables; only ground facts are allowed"},
	{"\tp(a,\tb)\n\tq(c).", "parse error at line 2, column 2: expected '.' or ':-' after p(a, b), found \"q\""},
	{"p(a).\r\nq(b) :- .\r\n", "parse error at line 2, column 9: expected identifier, found '.' \".\""},
	{"/* comment é\n ü */ p(a) :- q(X), $.", "parse error at line 2, column 21: unexpected character '$'"},
	{"p(a). % comment ñ\nq(b, .", "parse error at line 2, column 6: expected a term, found '.' \".\""},
	{"p(a).\n/* unterminated é", "parse error at line 2, column 1: unterminated block comment"},
	{"ü(a). 'abc", "parse error at line 1, column 7: unterminated quoted constant"},
	{"p(a).\n  ñ ? q.", "parse error at line 2, column 5: expected '-' after '?'"},
	{"p(a\xff).", "parse error at line 1, column 4: unexpected character '�'"},
	{"Ünder(a).", "parse error at line 1, column 1: expected identifier, found variable \"Ünder\""},
	{"r(X) :- p(X) é.", "parse error at line 1, column 14: expected '.', found identifier \"é\""},
	{"p(ü, 'x\ty').\r\n\tq(X) :- p(X, Y), r(Y)\r\n", "parse error at line 3, column 1: expected '.', found end of input \"\""},
	{"e(a). ?- e(X). f(X, 'a\\", "parse error at line 1, column 21: unterminated quoted constant"},
	{"edge(a, b).\nedge(b, c).\npath(X, Y) :- edge(X, Y).\n?- path(a, Y).\nedge(c, d", "parse error at line 5, column 10: expected ')', found end of input \"\""},
	{"edge(a, b).\nedge(X, Y) :- edge(Y, X).\n?- edge(a, Y).", "ast: rule edge(X, Y) :- edge(Y, X). has EDB predicate edge/2 in its head"},
	{"edge(X, Y) :- e(X, Y).\n?- edge(a, Y).\nedge(a, b).", "ast: rule edge(X, Y) :- e(X, Y). has EDB predicate edge/2 in its head"},
	{"p(a).\n?- p(X).\np(b) :- p(a).", "ast: rule p(b) :- p(a). has EDB predicate p/1 in its head"},
	{"edge(a, b).\nq(X, W) :- edge(X, Y).\nedge(X, Y) :- edge(Y, X).\n?- q(a, W).", "ast: rule q(X, W) :- edge(X, Y). is not range restricted"},
	{"e(a).\ngoal(X) :- goal(X), e(X).", "ast: rule goal(X) :- goal(X), e(X). uses the distinguished predicate \"goal\" in its body"},
	{"e(a).\n", "ast: program has no query rule (head predicate \"goal\")"},
}

// TestLoadErrorsUnchanged pins Load's, LoadFile's and OpenSystem's error
// texts to the table above, byte for byte.
func TestLoadErrorsUnchanged(t *testing.T) {
	for i, tc := range loadErrorCases {
		dir := t.TempDir()
		if _, err := Load(tc.src); err == nil || err.Error() != tc.want {
			t.Errorf("Load(%q) = %v, want %q", tc.src, err, tc.want)
		}
		if _, err := OpenSystem(filepath.Join(dir, "store"), tc.src); err == nil || err.Error() != tc.want {
			t.Errorf("OpenSystem(%q) = %v, want %q", tc.src, err, tc.want)
		}
		path := filepath.Join(dir, fmt.Sprintf("p%d.dl", i))
		if err := os.WriteFile(path, []byte(tc.src), 0o644); err != nil {
			t.Fatal(err)
		}
		want := tc.want
		if strings.HasPrefix(want, "parse error") {
			want = "parser: " + path + ": " + want
		}
		if _, err := LoadFile(path); err == nil || err.Error() != want {
			t.Errorf("LoadFile(%q) = %v, want %q", tc.src, err, want)
		}
	}
	missing := filepath.Join(t.TempDir(), "missing.dl")
	if _, err := LoadFile(missing); err == nil || err.Error() != "parser: open "+missing+": no such file or directory" {
		t.Errorf("LoadFile(missing) = %v", err)
	}
}

// TestLoadAllOrNothing: a program that fails to load — a syntax error on
// its last line, or a rule defining a fact predicate — writes nothing to
// the store it was given, persistent or not: a reopened disk store keeps
// its version and facts, and no symbol of the failed program reaches its
// symbol log.
func TestLoadAllOrNothing(t *testing.T) {
	const good = persistProgram
	bad := map[string]string{
		"syntax error on the last line": good + "edge(new1, new2).\nedge(new3, new4",
		"rule head is a fact predicate": good + "edge(new1, new2).\nedge(X, Y) :- path(Y, X).\n",
	}
	for name, src := range bad {
		t.Run(name, func(t *testing.T) {
			mem := edb.NewMemory()
			if _, err := Load(src, WithStorage(mem)); err == nil {
				t.Fatal("Load accepted the program")
			}
			if v, n := mem.Version(), len(mem.Preds()); v != 0 || n != 0 {
				t.Errorf("memory store after a failed Load: version %d, %d predicates; want empty", v, n)
			}

			dir := filepath.Join(t.TempDir(), "store")
			sys, err := OpenSystem(dir, good)
			if err != nil {
				t.Fatal(err)
			}
			version, facts := sys.EDBVersion(), sys.DB.Facts()
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			symsLog := filepath.Join(dir, "syms.log")
			before, err := os.ReadFile(symsLog)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := OpenSystem(dir, src); err == nil {
				t.Fatal("OpenSystem accepted the program")
			}
			after, err := os.ReadFile(symsLog)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(before) {
				t.Errorf("failed OpenSystem persisted symbols: syms.log %d -> %d bytes", len(before), len(after))
			}
			re, err := OpenSystem(dir, good)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.EDBVersion() != version || re.DB.Facts() != facts {
				t.Errorf("reopened store: version %d, %d facts; want %d, %d",
					re.EDBVersion(), re.DB.Facts(), version, facts)
			}
			if _, ok := re.DB.Syms.Lookup("new1"); ok {
				t.Error("a symbol of the failed program survived the reopen")
			}
		})
	}
}

// TestRuntimeFactOnRulePredicate: a fact added at runtime to a predicate
// that a rule defines makes the program invalid for every engine that
// validates — the check reads the store, since the program holds no facts.
func TestRuntimeFactOnRulePredicate(t *testing.T) {
	sys := MustLoad(persistProgram)
	sys.AddFact("path", "x", "y")
	const want = "ast: rule path(X, Y) :- edge(X, Y). has EDB predicate path/2 in its head"
	if _, err := sys.Prepare("?- path(a, Y)."); err == nil || err.Error() != want {
		t.Errorf("Prepare: %v, want %q", err, want)
	}
	if _, err := sys.Eval(); err == nil || err.Error() != want {
		t.Errorf("Eval: %v, want %q", err, want)
	}
	if _, err := magicSets(sys, "greedy"); err == nil || err.Error() != want {
		t.Errorf("magic sets: %v, want %q", err, want)
	}
}

// TestLoadKeepsFactsInStoreOnly: a loaded System's Program holds its rules,
// and its facts are the store's rows, in program order.
func TestLoadKeepsFactsInStoreOnly(t *testing.T) {
	prog := parser.MustParse(persistProgram)
	sys := MustLoad(persistProgram)
	if len(sys.Program.Facts) != 0 {
		t.Errorf("System.Program keeps %d facts", len(sys.Program.Facts))
	}
	if !reflect.DeepEqual(sys.Program.Rules, prog.Rules) {
		t.Errorf("rules %v, want %v", sys.Program.Rules, prog.Rules)
	}
	if got := storedFacts(sys.DB); !reflect.DeepEqual(got, prog.Facts) {
		t.Errorf("stored facts %v, want %v", got, prog.Facts)
	}
}

// budgetProgram is transitive closure over n edge facts: n/4 nodes of out-
// degree 4.
func budgetProgram(n int) string {
	var b strings.Builder
	b.WriteString("path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, U), edge(U, Y).\n?- path(n0, Y).\n")
	k := n / 4
	for i := 0; i < n; i++ {
		src := i % k
		fmt.Fprintf(&b, "edge(n%d, n%d).\n", src, (src+1+(i/k)*997)%k)
	}
	return b.String()
}

// TestLoadBudget is the cold-start guard: LoadFile of a 100k-fact program
// streams the facts into the store without an AST, a retained fact list or
// a per-row change record. Measured before that (facts built as atoms, kept
// in Program.Facts, logged as 56-byte changes), per fact:
//
//	          allocs  bytes allocated  live heap after GC
//	memory     6.00        1038              271
//	disk       7.25         587              167
//
// The budgets are at most one allocation per fact and at most half of each
// bytes-allocated figure. The live-heap budgets are the figures measured once
// relation rows moved into ordinal-addressed chunks and the disk store's
// mapped extents became those chunks (54 bytes on memory, 35 on disk; 80 and
// 76 before, when every row also had a 24-byte view), plus a tenth. The
// allocation half is skipped under -race, whose instrumentation allocates on
// its own account.
func TestLoadBudget(t *testing.T) {
	const n = 100000
	path := filepath.Join(t.TempDir(), "tc.dl")
	if err := os.WriteFile(path, []byte(budgetProgram(n)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []struct {
		name         string
		open         func() edb.Storage
		bytes, live  float64 // budgets, per fact
		allocsBudget float64
	}{
		{"memory", func() edb.Storage { return edb.NewMemory() }, 1038 / 2, 59, 1},
		{"disk", func() edb.Storage {
			ds, err := edb.OpenDisk(filepath.Join(t.TempDir(), "store"))
			if err != nil {
				t.Fatal(err)
			}
			return ds
		}, 587 / 2, 39, 1},
	} {
		st := backend.open()
		var before, loaded, live runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sys, err := LoadFile(path, WithStorage(st))
		runtime.ReadMemStats(&loaded)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&live)
		if got := sys.DB.Facts(); got != n {
			t.Fatalf("%s: loaded %d facts, want %d", backend.name, got, n)
		}
		allocs := float64(loaded.Mallocs-before.Mallocs) / n
		bytes := float64(loaded.TotalAlloc-before.TotalAlloc) / n
		heap := (float64(live.HeapAlloc) - float64(before.HeapAlloc)) / n
		runtime.KeepAlive(sys)
		sys.Close()
		t.Logf("%s: per fact %.2f allocs, %.0f bytes allocated, %.0f bytes live", backend.name, allocs, bytes, heap)
		if heap > backend.live {
			t.Errorf("%s: %.0f live bytes per fact, budget %.0f", backend.name, heap, backend.live)
		}
		if raceEnabled {
			continue
		}
		if allocs > backend.allocsBudget {
			t.Errorf("%s: %.2f allocations per fact, budget %.0f", backend.name, allocs, backend.allocsBudget)
		}
		if bytes > backend.bytes {
			t.Errorf("%s: %.0f bytes allocated per fact, budget %.0f", backend.name, bytes, backend.bytes)
		}
	}
}

// TestPrepareCostIndependentOfEDB: a plan-cache miss compiles the rules
// and warms indexes, and never walks the facts. Prepare of the same query
// on a 10-fact and a 100k-fact system allocates the same and takes
// comparable time. (When the prepared program carried every fact, the
// allocation counts were already equal — 207 each — but the 100k-fact
// Prepare took 12.7 ms against 57 µs, validating every fact twice.)
func TestPrepareCostIndependentOfEDB(t *testing.T) {
	const query = "?- path(n0, Y)."
	measure := func(n int) (allocs float64, best time.Duration) {
		sys := MustLoad(budgetProgram(n))
		defer sys.Close()
		if _, err := sys.Prepare(query); err != nil { // warms the indexes
			t.Fatal(err)
		}
		// The least of several measurements: under -race, sync.Pool drops a
		// random share of what is put back (one Prepare allocates 208 to 225
		// times there, against a steady 208 without the detector), and
		// AllocsPerRun reads the process-wide malloc count. Both only ever
		// add allocations.
		allocs = math.Inf(1)
		for range 10 {
			allocs = min(allocs, testing.AllocsPerRun(10, func() {
				if _, err := sys.Prepare(query); err != nil {
					t.Fatal(err)
				}
			}))
		}
		best = time.Hour
		for i := 0; i < 10; i++ {
			start := time.Now()
			if _, err := sys.Prepare(query); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return allocs, best
	}
	smallAllocs, smallTime := measure(12)
	bigAllocs, bigTime := measure(100000)
	t.Logf("Prepare: %.0f allocs, %v on 12 facts; %.0f allocs, %v on 100k facts", smallAllocs, smallTime, bigAllocs, bigTime)
	if d := bigAllocs - smallAllocs; d < -2 || d > 2 {
		t.Errorf("Prepare allocates %.0f on 100k facts, %.0f on 12", bigAllocs, smallAllocs)
	}
	if bigTime > 4*smallTime+time.Millisecond {
		t.Errorf("Prepare takes %v on 100k facts, %v on 12: it scales with the EDB", bigTime, smallTime)
	}
}

// FuzzLoad: whatever Parse and Validate accept, Load accepts, with the
// store holding exactly the rows edb.FromProgram builds from the parsed
// facts and the Program holding exactly the parsed rules; whatever they
// reject, Load rejects with the same error.
func FuzzLoad(f *testing.F) {
	for _, s := range []string{
		persistProgram,
		"p(a). q(a, 'two words', \"x\\\"y\", -3, ٣٤). ?- p(X), q(X, A, B, C, D).",
		"raining. wet :- raining. goal :- wet.",
		"e(a, b). e(a, b). e(b, 'a'). goal(X) :- e(X, Y), e(Y, X).",
		"é(ü, 日本). goal(X) :- é(X, Y).",
		"p('a\xffb'). goal(X) :- p(X).",
		"e(a). e(X) :- e(X).\n?- e(a).",
		"p('a\\\nb'). ?- p(X).",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, perr := parser.Parse(src)
		if perr == nil {
			perr = prog.Validate(true)
		}
		sys, err := Load(src)
		if perr != nil {
			if err == nil || err.Error() != perr.Error() {
				t.Fatalf("Load(%q) = %v, Parse+Validate: %v", src, err, perr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Load(%q) rejected what Parse+Validate accept: %v", src, err)
		}
		defer sys.Close()
		want := edb.FromProgram(prog)
		defer want.Close()
		if got, exp := storedFacts(sys.DB), storedFacts(want); !reflect.DeepEqual(got, exp) {
			t.Fatalf("Load(%q) stored %v, FromProgram %v", src, got, exp)
		}
		if !reflect.DeepEqual(sys.Program.Rules, prog.Rules) || len(sys.Program.Facts) != 0 {
			t.Fatalf("Load(%q) program %v, want the rules of %v", src, sys.Program, prog)
		}
	})
}
