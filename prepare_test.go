package mpq

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/trace"
)

// prepBase is the rule set the prepared-query tests share: a transitive
// closure over a graph with a genuine cycle (c -> a), so recursion and the
// termination protocol are both exercised.
const prepBase = `
	edge(a, b). edge(b, c). edge(c, a). edge(c, d). edge(x, y).
	path(X, Y) :- edge(X, Y).
	path(X, Y) :- path(X, U), edge(U, Y).
	goal(Y) :- path(a, Y).
`

// freshAnswers evaluates query against prepBase's rules the expensive way:
// a brand-new System whose program ends in the query, one rgg.Build per
// call. This is the oracle the prepared path must match byte for byte.
func freshAnswers(t *testing.T, query string, opts ...Option) [][]string {
	t.Helper()
	src := strings.Replace(prepBase, "goal(Y) :- path(a, Y).", query, 1)
	if !strings.Contains(src, query) {
		t.Fatalf("query %q not spliced", query)
	}
	ans, err := MustLoad(src).Eval(opts...)
	if err != nil {
		t.Fatalf("fresh %q: %v", query, err)
	}
	return ans.Tuples
}

func TestPreparedMatchesFresh(t *testing.T) {
	for _, strat := range []string{"greedy", "qualtree", "leftright"} {
		t.Run(strat, func(t *testing.T) {
			sys := MustLoad(prepBase)
			pq, err := sys.Prepare("?- path(a, Y).", WithStrategy(strat))
			if err != nil {
				t.Fatal(err)
			}
			if pq.NumParams() != 1 {
				t.Fatalf("NumParams = %d, want 1", pq.NumParams())
			}
			// No args: the query text's own constant.
			ans, err := pq.Eval(nil)
			if err != nil {
				t.Fatal(err)
			}
			want := freshAnswers(t, "goal(Y) :- path(a, Y).", WithStrategy(strat))
			if !reflect.DeepEqual(ans.Tuples, want) {
				t.Errorf("prepared(a) = %v, want %v", ans.Tuples, want)
			}
			// Rebind every constant in the domain and compare against a
			// fresh build each time. Includes x (answers {y}) and d (no
			// answers) — shapes of the result set the pooled scratch must
			// not leak between.
			for _, c := range []string{"b", "c", "x", "d", "a"} {
				got, err := pq.Eval(nil, c)
				if err != nil {
					t.Fatalf("Eval(%s): %v", c, err)
				}
				want := freshAnswers(t, fmt.Sprintf("goal(Y) :- path(%s, Y).", c), WithStrategy(strat))
				if !reflect.DeepEqual(got.Tuples, want) {
					t.Errorf("prepared(%s) = %v, want %v", c, got.Tuples, want)
				}
			}
		})
	}
}

func TestPreparedMultiParamAndGround(t *testing.T) {
	sys := MustLoad(prepBase)
	// Two constants -> two parameters, bound in occurrence order.
	pq, err := sys.Prepare("?- edge(a, U), edge(U, V), path(c, V).")
	if err != nil {
		t.Fatal(err)
	}
	if pq.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", pq.NumParams())
	}
	got, err := pq.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := freshAnswers(t, "goal(U, V) :- edge(a, U), edge(U, V), path(c, V).")
	if !reflect.DeepEqual(got.Tuples, want) {
		t.Errorf("two-param = %v, want %v", got.Tuples, want)
	}

	// Fully ground query: zero output columns; one empty tuple means yes.
	ground, err := sys.Prepare("?- path(a, d).")
	if err != nil {
		t.Fatal(err)
	}
	yes, err := ground.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(yes.Tuples) != 1 || len(yes.Tuples[0]) != 0 {
		t.Errorf("ground true query = %v, want one empty tuple", yes.Tuples)
	}
	no, err := ground.Eval(nil, "x", "d") // x does not reach d
	if err != nil {
		t.Fatal(err)
	}
	if len(no.Tuples) != 0 {
		t.Errorf("ground false query = %v, want none", no.Tuples)
	}
}

func TestPreparedArgErrors(t *testing.T) {
	sys := MustLoad(prepBase)
	pq, err := sys.Prepare("?- path(a, Y).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Eval(nil, "a", "b"); err == nil {
		t.Error("arity-mismatched args accepted")
	}
	if _, err := sys.Prepare("?- path(a, Y).", WithEngine(SemiNaive)); err == nil {
		t.Error("Prepare accepted a bottom-up engine")
	}
	if _, err := sys.Prepare("goal(a) :- path(a, Y)."); err == nil {
		t.Error("constant head argument accepted")
	}
	if _, err := sys.Prepare("?- path(a, Y). ?- path(b, Y)."); err == nil {
		t.Error("two queries accepted")
	}
}

func TestPreparedAnswersIterator(t *testing.T) {
	sys := MustLoad(prepBase)
	pq, err := sys.Prepare("?- path(a, Y).")
	if err != nil {
		t.Fatal(err)
	}
	var got [][]string
	for tup, err := range pq.Answers(nil, "x") {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tup)
	}
	sortTuples(got)
	want := freshAnswers(t, "goal(Y) :- path(x, Y).")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Answers(x) = %v, want %v", got, want)
	}
	// Early break stops the run without an error yield.
	n := 0
	for _, err := range pq.Answers(nil) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		break
	}
	if n != 1 {
		t.Errorf("break yielded %d tuples", n)
	}
}

func TestPreparedConcurrent(t *testing.T) {
	sys := MustLoad(prepBase)
	pq, err := sys.Prepare("?- path(a, Y).")
	if err != nil {
		t.Fatal(err)
	}
	consts := []string{"a", "b", "c", "d", "x"}
	wants := make(map[string][][]string, len(consts))
	for _, c := range consts {
		wants[c] = freshAnswers(t, fmt.Sprintf("goal(Y) :- path(%s, Y).", c))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		for _, c := range consts {
			wg.Add(1)
			go func(c string) {
				defer wg.Done()
				ans, err := pq.Eval(context.Background(), c)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(ans.Tuples, wants[c]) {
					errs <- fmt.Errorf("concurrent prepared(%s) = %v, want %v", c, ans.Tuples, wants[c])
				}
			}(c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestQueryPlanCache(t *testing.T) {
	sys := MustLoad(prepBase)
	st := &trace.Stats{}
	a1, err := sys.Query(nil, "?- path(a, Y).", WithStats(st))
	if err != nil {
		t.Fatal(err)
	}
	if want := freshAnswers(t, "goal(Y) :- path(a, Y)."); !reflect.DeepEqual(a1.Tuples, want) {
		t.Errorf("Query(a) = %v, want %v", a1.Tuples, want)
	}
	if a1.Stats.PlanMisses != 1 || a1.Stats.PlanHits != 0 {
		t.Errorf("first query: hits=%d misses=%d", a1.Stats.PlanHits, a1.Stats.PlanMisses)
	}
	// Same shape, different constant: must hit (proving zero rebuilds).
	a2, err := sys.Query(nil, "?- path(x, Y).", WithStats(st))
	if err != nil {
		t.Fatal(err)
	}
	if want := freshAnswers(t, "goal(Y) :- path(x, Y)."); !reflect.DeepEqual(a2.Tuples, want) {
		t.Errorf("Query(x) = %v, want %v", a2.Tuples, want)
	}
	if a2.Stats.PlanHits != 1 {
		t.Errorf("same-shape query missed: hits=%d misses=%d", a2.Stats.PlanHits, a2.Stats.PlanMisses)
	}
	// Different shape: a fresh miss.
	if _, err := sys.Query(nil, "?- edge(a, Y).", WithStats(st)); err != nil {
		t.Fatal(err)
	}
	// A different strategy keys separately even for an identical shape.
	if _, err := sys.Query(nil, "?- path(a, Y).", WithStats(st), WithStrategy("leftright")); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.PlanHits != 1 || snap.PlanMisses != 3 {
		t.Errorf("accumulated hits=%d misses=%d, want 1/3", snap.PlanHits, snap.PlanMisses)
	}
	if n := sys.plans.Len(); n != 3 {
		t.Errorf("cache holds %d plans, want 3", n)
	}
}

// TestQueryProfile: Query fills a WithProfile profile on a plan-cache miss
// and on a hit alike; Prepare ignores the option, so the plan's own
// evaluations leave it empty.
func TestQueryProfile(t *testing.T) {
	handled := func(p *trace.Profile) (n int64) {
		for _, node := range p.Snapshot().Nodes {
			n += node.Handled
		}
		return n
	}
	sys := MustLoad(prepBase)
	var first int64
	for _, round := range []string{"miss", "hit"} {
		p := trace.NewProfile()
		ans, err := sys.Query(nil, "?- path(a, Y).", WithProfile(p))
		if err != nil {
			t.Fatal(err)
		}
		if ans.Reused != (round == "hit") {
			t.Fatalf("%s: Reused = %v", round, ans.Reused)
		}
		if p.Size() == 0 || handled(p) == 0 {
			t.Fatalf("%s: Query left the profile empty (%d shards)", round, p.Size())
		}
		if first == 0 {
			first = handled(p)
		} else if got := handled(p); got != first {
			t.Errorf("hit profile handled %d messages, miss %d", got, first)
		}
	}

	ignored := trace.NewProfile()
	pq, err := sys.Prepare("?- path(a, Y).", WithProfile(ignored))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Eval(nil); err != nil {
		t.Fatal(err)
	}
	if ignored.Size() != 0 {
		t.Errorf("Prepare kept WithProfile: %d shards filled", ignored.Size())
	}
}

func TestQueryContextCancellation(t *testing.T) {
	sys := MustLoad(prepBase)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sys.Query(ctx, "?- path(a, Y).")
	if err == nil {
		t.Fatal("cancelled query succeeded")
	}
	if !errors.Is(err, engine.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Errorf("error %v missing a sentinel", err)
	}

	pq, err := sys.Prepare("?- path(a, Y).")
	if err != nil {
		t.Fatal(err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	time.Sleep(time.Millisecond)
	_, err = pq.Eval(dctx)
	if err == nil {
		t.Fatal("expired prepared eval succeeded")
	}
	if !errors.Is(err, engine.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v missing a deadline sentinel", err)
	}
}

// TestEvalContextOption covers the context-first satellites on the classic
// path: WithContext cancellation and deadlines map onto both error
// taxonomies.
func TestEvalContextOption(t *testing.T) {
	sys := MustLoad(prepBase)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Eval(WithContext(ctx)); err == nil {
		t.Error("cancelled context: Eval succeeded")
	} else if !errors.Is(err, context.Canceled) || !errors.Is(err, engine.ErrCancelled) {
		t.Errorf("WithContext error %v missing a sentinel", err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	if _, err := sys.Eval(WithContext(ctx)); err == nil {
		t.Error("expired context: Eval succeeded")
	} else if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, engine.ErrDeadline) {
		t.Errorf("expired WithContext error %v missing a sentinel", err)
	}
}

// TestAnswersIterator covers the System-level iterator satellite.
func TestAnswersIterator(t *testing.T) {
	sys := MustLoad(tcProgram)
	var got [][]string
	for tup, err := range sys.Answers() {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tup)
	}
	sortTuples(got)
	want := [][]string{{"b"}, {"c"}, {"d"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Answers = %v, want %v", got, want)
	}
}

// TestAddFactDuringWarming races AddFact against concurrent evaluations'
// index warming; run under -race this is the regression test for AddFact
// taking the System lock.
func TestAddFactDuringWarming(t *testing.T) {
	sys := MustLoad(prepBase)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sys.AddFact("edge", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
		}
	}()
	for i := 0; i < 20; i++ {
		g, err := sys.Graph()
		if err != nil {
			t.Fatal(err)
		}
		sys.ensureWarmFor(g)
	}
	close(stop)
	wg.Wait()
}

// TestPreparedSlicedLeafSeesNewFacts: a pooled plan must see facts added
// after it was built. Leaves once held private slices of the base relations,
// carved out at plan time, and served a frozen snapshot unless the slices
// were refreshed; they now read the one shared store. The cyclic answers
// below need the two post-Prepare edges to join with each other inside the
// recursion, which is exactly what a stale leaf loses first.
func TestPreparedSlicedLeafSeesNewFacts(t *testing.T) {
	s := MustLoad(`
		edge(n0, n1).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(X, Y) :- path(X, Y).
	`)
	pq, err := s.Prepare(`?- path(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if ans, err := pq.Eval(nil); err != nil || len(ans.Tuples) != 1 {
		t.Fatalf("before mutation: %v, %v (want 1 tuple)", ans, err)
	}
	s.AddFact("edge", "n7", "n5")
	s.AddFact("edge", "n6", "n1")
	s.AddFact("edge", "n5", "n7")
	want := freshTCAnswers(t, s)
	for i := 0; i < 3; i++ {
		ans, err := pq.Eval(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ans.Tuples, want) {
			t.Fatalf("run %d after mutation: %v, want %v", i, ans.Tuples, want)
		}
	}
}

// freshTCAnswers evaluates the system's current facts with a brand-new
// unpartitioned System — the oracle for the mutated-plan tests.
func freshTCAnswers(t *testing.T, s *System) [][]string {
	t.Helper()
	src := `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(X, Y) :- path(X, Y).
	`
	f := MustLoad(src + "edge(n0, n1).")
	for _, a := range storedFacts(s.DB) {
		args := make([]string, len(a.Args))
		for i, arg := range a.Args {
			args[i] = arg.Const
		}
		f.AddFact(a.Pred, args...)
	}
	ans, err := f.Eval()
	if err != nil {
		t.Fatal(err)
	}
	return ans.Tuples
}
