package mpq

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// autoCorpus holds the equivalence-test programs: one non-recursive join,
// one recursive closure, one with a cartesian trap — shapes where the
// candidate strategies genuinely order subgoals differently.
var autoCorpus = []struct {
	name string
	src  string
}{
	{"join", `
		r(a, b). r(a, c). r(b, d). r(c, d).
		s(a). s(b).
		goal(Y) :- r(X, Y), s(X).
	`},
	{"closure", `
		edge(a, b). edge(b, c). edge(c, d). edge(d, e). edge(b, e).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		?- path(a, Y).
	`},
	{"threeway", `
		p(a, b). p(b, c). p(a, c).
		q(b, x). q(c, y). q(c, z).
		t(x). t(y).
		goal(A, C) :- p(A, B), q(B, C), t(C).
	`},
}

// TestAutoMatchesManualStrategies is the adaptive-planning correctness
// property: strategy=auto produces byte-identical answers to every manual
// strategy on every corpus program. Plans may differ; answers may not. The
// partitions=N axis pins the compatibility contract of the deprecated
// WithPartitions: at N=4 every answer is the N=1 answer, in the same order,
// and Stats.Workers stays 0.
func TestAutoMatchesManualStrategies(t *testing.T) {
	manual := []string{"greedy", "qualtree", "leftright", "basic", "stats"}
	for _, prog := range autoCorpus {
		unsharded := ""
		for _, parts := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/partitions=%d", prog.name, parts), func(t *testing.T) {
				st := &trace.Stats{}
				auto, err := MustLoad(prog.src).Eval(WithStrategy("auto"), WithPartitions(parts), WithStats(st))
				if err != nil {
					t.Fatalf("auto: %v", err)
				}
				want := fmt.Sprint(auto.Tuples)
				if parts == 1 {
					unsharded = want
				} else if want != unsharded {
					t.Errorf("partitions=%d answers %s, partitions=1 answers %s", parts, want, unsharded)
				}
				if w := st.Snapshot().Workers; w != 0 {
					t.Errorf("partitions=%d reports %d workers, want 0", parts, w)
				}
				for _, s := range manual {
					ans, err := MustLoad(prog.src).Eval(WithStrategy(s), WithPartitions(parts))
					if err != nil {
						t.Fatalf("%s: %v", s, err)
					}
					if got := fmt.Sprint(ans.Tuples); got != want {
						t.Errorf("strategy %s answers %s, auto answers %s", s, got, want)
					}
				}
			})
		}
	}
}

// TestAutoChoiceRecorded checks the decision trail: a prepared auto plan
// exposes its winning candidate, the full scoreboard, and the statistics
// epoch it planned against, and its cache key embeds both.
func TestAutoChoiceRecorded(t *testing.T) {
	sys := MustLoad(autoCorpus[0].src)
	st := &trace.Stats{}
	pq, err := sys.Prepare("?- r(X, Y), s(X).", WithStrategy("auto"), WithStats(st))
	if err != nil {
		t.Fatal(err)
	}
	c := pq.Choice()
	if c == nil {
		t.Fatal("auto plan has no recorded choice")
	}
	if c.Fallback != nil {
		t.Fatalf("unexpected fallback: %v", c.Fallback)
	}
	if len(c.Candidates) != 4 {
		t.Fatalf("scored %d candidates, want 4: %v", len(c.Candidates), c.Candidates)
	}
	if c.Strategy != pq.ChosenStrategy() {
		t.Errorf("ChosenStrategy %q != choice %q", pq.ChosenStrategy(), c.Strategy)
	}
	if want := fmt.Sprintf("auto:%s@%d", c.Strategy, c.StatsEpoch); !strings.Contains(pq.CacheKey(), want) {
		t.Errorf("CacheKey %q does not embed %q", pq.CacheKey(), want)
	}
	snap := st.Snapshot()
	total := snap.StrategyAutoGreedy + snap.StrategyAutoQualtree + snap.StrategyAutoLeftright + snap.StrategyAutoCost
	if total != 1 {
		t.Errorf("auto decision counters sum to %d, want 1", total)
	}
	if snap.StatsRefreshes != 1 {
		t.Errorf("StatsRefreshes = %d, want 1", snap.StatsRefreshes)
	}
	if !strings.Contains(pq.ExplainPlan(), "candidates:") {
		t.Errorf("ExplainPlan lacks candidate scoreboard:\n%s", pq.ExplainPlan())
	}
}

// TestAutoFallbackNoStats: with an empty EDB the planner cannot cost
// anything; it must fall back to greedy and record a typed sentinel rather
// than fail or guess silently.
func TestAutoFallbackNoStats(t *testing.T) {
	sys := MustLoad(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		?- path(a, Y).
	`)
	pq, err := sys.Prepare("?- path(a, Y).", WithStrategy("auto"))
	if err != nil {
		t.Fatal(err)
	}
	c := pq.Choice()
	if c == nil || c.Fallback == nil {
		t.Fatalf("want recorded fallback, got %+v", c)
	}
	if !errors.Is(c.Fallback, ErrNoStats) {
		t.Errorf("fallback %v is not ErrNoStats", c.Fallback)
	}
	if c.Strategy != "greedy" {
		t.Errorf("fallback strategy %q, want greedy", c.Strategy)
	}
	if ans, err := pq.Eval(nil); err != nil || len(ans.Tuples) != 0 {
		t.Errorf("empty-EDB eval: %v answers, err %v", ans, err)
	}
}

// reoptTrap is a program whose best ordering flips with the data: while r
// and s are both tiny every candidate ties (greedy wins as the earliest);
// once r is bulk-loaded with many rows over few distinct keys, the
// stats-backed ordering (s first, then r with its key bound) is decisively
// cheaper, so the winning candidate — and the plan — changes.
const reoptTrap = `
	r(k0, v0).
	s(k0).
	goal(Y) :- r(X, Y), s(X).
`

// TestAutoReoptOnDrift: a cached auto plan must be re-optimized after the
// EDB drifts past the threshold, observably (PlanReopts counter, changed
// CacheKey) and correctly (answers match a fresh evaluation).
func TestAutoReoptOnDrift(t *testing.T) {
	sys := MustLoad(reoptTrap)
	st := &trace.Stats{}
	opts := []Option{WithStrategy("auto"), WithStats(st)}
	ans, err := sys.Query(nil, "?- r(X, Y), s(X).", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Tuples) != 1 {
		t.Fatalf("initial answers %v", ans.Tuples)
	}
	pq0, _, _, err := sys.QueryPrepared("?- r(X, Y), s(X).", opts...)
	if err != nil {
		t.Fatal(err)
	}
	key0 := pq0.CacheKey()

	// Shift the distribution: r becomes large with heavy key skew.
	for i := 0; i < 2000; i++ {
		sys.AddFact("r", fmt.Sprintf("k%d", i%5), fmt.Sprintf("v%d", i))
	}
	sys.AddFact("s", "k3")

	ans2, err := sys.Query(nil, "?- r(X, Y), s(X).", opts...)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := MustLoadSystemCopy(sys).Query(nil, "?- r(X, Y), s(X).", WithStrategy("greedy"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(ans2.Tuples), fmt.Sprint(fresh.Tuples); got != want {
		t.Errorf("post-drift answers %s, want %s", got, want)
	}
	snap := st.Snapshot()
	if snap.PlanReopts < 1 {
		t.Errorf("PlanReopts = %d, want >= 1", snap.PlanReopts)
	}
	pq1, _, reused, err := sys.QueryPrepared("?- r(X, Y), s(X).", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Error("re-optimized plan was not served from the cache")
	}
	if pq1.CacheKey() == key0 {
		t.Errorf("CacheKey unchanged across re-optimization: %q", key0)
	}
}

// TestAutoReoptDisabled: a negative threshold must pin the cached plan no
// matter how far the statistics drift.
func TestAutoReoptDisabled(t *testing.T) {
	sys := MustLoad(reoptTrap)
	st := &trace.Stats{}
	opts := []Option{WithStrategy("auto"), WithStats(st), WithReoptThreshold(-1)}
	if _, err := sys.Query(nil, "?- r(X, Y), s(X).", opts...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		sys.AddFact("r", fmt.Sprintf("k%d", i%5), fmt.Sprintf("v%d", i))
	}
	if _, err := sys.Query(nil, "?- r(X, Y), s(X).", opts...); err != nil {
		t.Fatal(err)
	}
	if snap := st.Snapshot(); snap.PlanReopts != 0 {
		t.Errorf("PlanReopts = %d with re-opt disabled", snap.PlanReopts)
	}
}

// MustLoadSystemCopy rebuilds a fresh System over the same program text
// (facts included), for answer-equivalence checks after mutation.
func MustLoadSystemCopy(s *System) *System {
	var b strings.Builder
	for _, f := range s.Program.Facts {
		fmt.Fprintf(&b, "%s.\n", f)
	}
	for _, r := range s.Program.Rules {
		fmt.Fprintf(&b, "%s\n", r) // Rule.String includes the period
	}
	return MustLoad(b.String())
}

// TestAutoPlanningRace interleaves AddFact (statistics updates) with
// concurrent auto planning and evaluation. Evaluations must not overlap
// mutation (the System contract), so — like the serving layer — reads go
// through the read side of an RWMutex and AddFact through the write side;
// planning itself (statistics snapshots, candidate builds, drift checks)
// is internally locked and runs with no external synchronization. Run
// under -race this pins the planner's concurrency story.
func TestAutoPlanningRace(t *testing.T) {
	sys := MustLoad(reoptTrap)
	st := &trace.Stats{}
	opts := []Option{WithStrategy("auto"), WithStats(st)}
	var evalMu sync.RWMutex
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			evalMu.Lock()
			sys.AddFact("r", fmt.Sprintf("k%d", i%7), fmt.Sprintf("w%d", i))
			evalMu.Unlock()
		}
		close(stop)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pq, args, _, err := sys.QueryPrepared("?- r(X, Y), s(X).", opts...)
				if err != nil {
					t.Errorf("QueryPrepared: %v", err)
					return
				}
				evalMu.RLock()
				_, err = pq.Eval(nil, args...)
				evalMu.RUnlock()
				if err != nil {
					t.Errorf("Eval: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
