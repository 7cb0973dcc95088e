package serve

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/ast"
	"repro/internal/bottomup"
	"repro/internal/edb"
	"repro/internal/parser"
)

// ask serves one query in process and returns its rows, in reply order,
// and the result-cache outcome.
func ask(t *testing.T, srv *Server, src string) ([]string, string) {
	t.Helper()
	var rows []string
	_, outcome, err := srv.run(context.Background(), DefaultTenant, src, func(tuple []string) {
		rows = append(rows, strings.Join(tuple, "\t"))
	})
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return rows, outcome
}

// reach is the oracle: path(k, Y)'s answers under bottomup.SemiNaive over
// the program's rules and db, sorted.
func reach(prog *ast.Program, db *edb.Database, k string) []string {
	out := []string{}
	for row := range bottomup.SemiNaive(prog, db).IDB[ast.PredKey{Name: "path", Arity: 2}].All() {
		if db.Syms.String(row[0]) == k {
			out = append(out, db.Syms.String(row[1]))
		}
	}
	slices.Sort(out)
	return out
}

// sorted returns a sorted copy.
func sorted(rows []string) []string {
	out := append([]string{}, rows...)
	slices.Sort(out)
	return out
}

// TestResultCacheLiveViews locks the live-view contract: facts land between
// hits, and every hit equals the oracle at that point — a same-version hit
// replays the cold reply byte for byte, a brought-forward hit is the cold
// reply followed by each round's new rows; a fact on a predicate the plan
// does not read runs no round; and a view whose rows pass maxCachedRows is
// closed, not retained.
func TestResultCacheLiveViews(t *testing.T) {
	srv := New(mpq.MustLoad(testProgram), Config{})
	sys := srv.sys
	check := func(k, want string) []string {
		t.Helper()
		rows, outcome := ask(t, srv, "?- path("+k+", Y).")
		if outcome != want {
			t.Errorf("path(%s, Y): cache=%s, want %s", k, outcome, want)
		}
		if got, want := sorted(rows), reach(sys.Program, sys.DB, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("path(%s, Y) = %v, oracle %v", k, got, want)
		}
		return rows
	}

	cold := check("a", "miss")
	if hit := check("a", "hit"); !reflect.DeepEqual(hit, cold) {
		t.Errorf("same-version hit %v, cold reply %v", hit, cold)
	}
	check("x", "miss")
	sys.AddFact("edge", "d", "e")
	fwd := check("a", "forward")
	if !reflect.DeepEqual(fwd, append(cold, "e")) {
		t.Errorf("brought-forward hit %v, want the cold reply %v then [e]", fwd, cold)
	}
	check("a", "hit")
	sys.AddFact("edge", "e", "f")
	sys.AddFact("edge", "y", "z")
	check("x", "forward")
	check("a", "forward")

	rounds := srv.Stats().Snapshot().DeltaRounds
	sys.AddFact("unrelated", "u")
	check("a", "hit")
	check("x", "hit")
	sn := srv.Stats().Snapshot()
	if sn.DeltaRounds != rounds {
		t.Errorf("a fact on an unread predicate ran %d delta rounds", sn.DeltaRounds-rounds)
	}
	if sn.ResultHits != 4 || sn.ResultForwards != 3 || sn.ResultMisses != 2 {
		t.Errorf("hits/forwards/misses = %d/%d/%d, want 4/3/2", sn.ResultHits, sn.ResultForwards, sn.ResultMisses)
	}
	if sn.ResultViews != 2 || sn.ResultViewBytes <= 0 {
		t.Errorf("gauges: %d views retaining %d bytes, want 2 views and their bytes", sn.ResultViews, sn.ResultViewBytes)
	}

	// One fact brings more than maxCachedRows new answers: the forward hit
	// serves them all, then the view is closed, and the next read misses.
	var b strings.Builder
	b.WriteString(testProgram)
	for i := range maxCachedRows + 1 {
		fmt.Fprintf(&b, "edge(hub, h%d).\n", i)
	}
	srv = New(mpq.MustLoad(b.String()), Config{})
	sys = srv.sys
	check("d", "miss")
	sys.AddFact("edge", "d", "hub")
	if rows := check("d", "forward"); len(rows) <= maxCachedRows {
		t.Fatalf("the forward round brought %d rows, want more than %d", len(rows), maxCachedRows)
	}
	if sn := srv.Stats().Snapshot(); sn.ResultViews != 0 || sn.ResultViewBytes != 0 {
		t.Errorf("after passing maxCachedRows: %d views retaining %d bytes, want none", sn.ResultViews, sn.ResultViewBytes)
	}
	check("d", "miss")
}

// TestResultCacheAdmission: once the cache is full, a key displaces the
// least recently used view only after it has been read more often.
func TestResultCacheAdmission(t *testing.T) {
	srv := New(mpq.MustLoad(testProgram), Config{ResultCacheSize: 2})
	for _, step := range []struct{ k, want string }{
		{"a", "miss"}, {"b", "miss"}, // room: both get views
		{"c", "miss"}, {"c", "miss"}, // c's first read ties a's; its second displaces a
		{"c", "hit"}, {"b", "hit"},
		{"a", "miss"}, {"a", "miss"}, // a displaces nothing until it out-reads c
		{"a", "miss"}, {"a", "hit"},
	} {
		if _, got := ask(t, srv, "?- path("+step.k+", Y)."); got != step.want {
			t.Fatalf("path(%s, Y): cache=%s, want %s", step.k, got, step.want)
		}
	}
}

// TestResultCacheConcurrentViews runs four clients over overlapping keys
// while a writer adds facts through the fact directive, under a byte budget
// small enough to force evictions. Every reply must lie between the oracle's
// answer sets at the versions where the request started and ended, and the
// whole run must finish (lock order: evalMu's read side before a view's
// lock, one view lock at a time).
func TestResultCacheConcurrentViews(t *testing.T) {
	const ring = 12
	var b strings.Builder
	for i := range ring {
		fmt.Fprintf(&b, "edge(n%d, n%d).\n", i, (i+1)%ring)
	}
	b.WriteString("path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, U), edge(U, Y).\n")
	b.WriteString("goal(Y) :- path(n0, Y).\n")
	src := b.String()
	srv := New(mpq.MustLoad(src), Config{})
	ask(t, srv, "?- path(n0, Y).")
	srv.cache.budget = 4 * srv.cache.bytes // a few views: they grow as the facts land

	// The writer's facts, in order: each is new, so version v0+i has the
	// first i of them.
	var facts []string
	for i := range 40 {
		switch i % 4 {
		case 0:
			facts = append(facts, fmt.Sprintf("unrelated(u%d).", i))
		default:
			facts = append(facts, fmt.Sprintf("edge(n%d, m%d).", (i*5)%ring, i), fmt.Sprintf("edge(m%d, m%d).", i, i+1))
		}
	}
	v0 := srv.sys.EDBVersion()
	oracle := func(version uint64, k string) []string {
		var p strings.Builder
		p.WriteString(src)
		for _, f := range facts[:version-v0] {
			p.WriteString(f + "\n")
		}
		prog := parser.MustParse(p.String())
		return reach(prog, edb.FromProgram(prog), k)
	}

	type reply struct {
		k        string
		from, to uint64
		rows     []string
	}
	var (
		mu      sync.Mutex
		replies []reply
	)
	guard(t, 60*time.Second, "clients beside the writer", func() {
		var wg sync.WaitGroup
		for c := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 150 {
					k := fmt.Sprintf("n%d", (c+i*(c+1))%6)
					from := srv.sys.EDBVersion()
					var rows []string
					_, _, err := srv.run(context.Background(), DefaultTenant, "?- path("+k+", Y).", func(tuple []string) {
						rows = append(rows, tuple[0])
					})
					to := srv.sys.EDBVersion()
					if err != nil {
						t.Errorf("path(%s, Y): %v", k, err)
						return
					}
					mu.Lock()
					replies = append(replies, reply{k, from, to, rows})
					mu.Unlock()
				}
			}()
		}
		for _, f := range facts {
			srv.serveFact(f, io.Discard)
			time.Sleep(500 * time.Microsecond)
		}
		wg.Wait()
	})
	if v := srv.sys.EDBVersion(); v != v0+uint64(len(facts)) {
		t.Fatalf("EDB version %d after %d new facts from %d", v, len(facts), v0)
	}

	type at struct {
		v uint64
		k string
	}
	sets := make(map[at]map[string]bool)
	set := func(v uint64, k string) map[string]bool {
		if s, ok := sets[at{v, k}]; ok {
			return s
		}
		s := make(map[string]bool)
		for _, y := range oracle(v, k) {
			s[y] = true
		}
		sets[at{v, k}] = s
		return s
	}
	for _, r := range replies {
		lo, hi := set(r.from, r.k), set(r.to, r.k)
		got := make(map[string]bool)
		for _, y := range r.rows {
			if got[y] {
				t.Fatalf("path(%s, Y) between versions %d and %d: %s twice", r.k, r.from, r.to, y)
			}
			got[y] = true
			if !hi[y] {
				t.Fatalf("path(%s, Y) between versions %d and %d: %s is not an answer at %d", r.k, r.from, r.to, y, r.to)
			}
		}
		for y := range lo {
			if !got[y] {
				t.Fatalf("path(%s, Y) between versions %d and %d: %s missing, an answer at %d", r.k, r.from, r.to, y, r.from)
			}
		}
	}
	if sn := srv.Stats().Snapshot(); sn.ResultForwards == 0 || sn.ResultHits == 0 {
		t.Errorf("hits=%d forwards=%d: the run never replayed or brought a view forward", sn.ResultHits, sn.ResultForwards)
	}
}
