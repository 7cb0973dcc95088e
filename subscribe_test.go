package mpq

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// subNext calls sub.Next with a hang guard: subscriptions block forever by
// design, so a test that expects rows must not wait on a broken wake-up.
func subNext(t *testing.T, sub *Subscription) [][]string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rows, err := sub.Next(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	return rows
}

func TestSubscriptionDeliversOnlyNewAnswers(t *testing.T) {
	s := MustLoad(`
		edge(a, b). edge(b, c).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(Y) :- path(a, Y).
	`)
	pq, err := s.Prepare(`?- path(a, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := pq.Subscription()
	if err != nil {
		t.Fatal(err)
	}
	got := subNext(t, sub)
	want, err := pq.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Tuples) {
		t.Fatalf("initial round = %v, want %v", got, want.Tuples)
	}

	s.AddFact("edge", "c", "d")
	delta := subNext(t, sub)
	if !reflect.DeepEqual(delta, [][]string{{"d"}}) {
		t.Fatalf("delta round = %v, want [[d]]", delta)
	}

	// A mutation on a predicate the plan never reads must not produce a
	// round; the next relevant fact's delta comes through alone.
	s.AddFact("unrelated", "z")
	s.AddFact("edge", "d", "e")
	delta = subNext(t, sub)
	if !reflect.DeepEqual(delta, [][]string{{"e"}}) {
		t.Fatalf("delta round = %v, want [[e]]", delta)
	}
}

func TestSubscriptionParameterized(t *testing.T) {
	s := MustLoad(`
		edge(a, b). edge(b, c). edge(x, y).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(Y) :- path(a, Y).
	`)
	pq, err := s.Prepare(`?- path(a, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := pq.Subscription("x")
	if err != nil {
		t.Fatal(err)
	}
	if got := subNext(t, sub); !reflect.DeepEqual(got, [][]string{{"y"}}) {
		t.Fatalf("initial round = %v, want [[y]]", got)
	}
	s.AddFact("edge", "y", "z")
	if got := subNext(t, sub); !reflect.DeepEqual(got, [][]string{{"z"}}) {
		t.Fatalf("delta round = %v, want [[z]]", got)
	}
}

// TestSubscriptionProperty drives random insertion sequences and checks,
// for every strategy with P subscriptions to one prepared query (pP), that
// each one's accumulated output is byte-identical to a from-scratch
// evaluation of the grown database after every delta, with no tuple
// delivered twice.
func TestSubscriptionProperty(t *testing.T) {
	for _, strat := range []string{"greedy", "leftright"} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p%d", strat, par), func(t *testing.T) {
				rng := rand.New(rand.NewSource(11))
				s := MustLoad(`
					edge(n0, n1).
					path(X, Y) :- edge(X, Y).
					path(X, Y) :- path(X, U), edge(U, Y).
					goal(X, Y) :- path(X, Y).
				`)
				pq, err := s.Prepare(`?- path(X, Y).`, WithStrategy(strat))
				if err != nil {
					t.Fatal(err)
				}
				subs := make([]*Subscription, par)
				delivered := make([]map[string]bool, par)
				for i := range subs {
					if subs[i], err = pq.Subscription(); err != nil {
						t.Fatal(err)
					}
					delivered[i] = make(map[string]bool)
				}
				accum := func(i int) {
					for _, r := range subNext(t, subs[i]) {
						k := fmt.Sprint(r)
						if delivered[i][k] {
							t.Errorf("subscription %d: tuple %v delivered twice", i, r)
						}
						delivered[i][k] = true
					}
				}
				for i := range subs {
					accum(i)
				}
				for round := 0; round < 6; round++ {
					grew := false
					for k := rng.Intn(3) + 1; k > 0; k-- {
						a := fmt.Sprintf("n%d", rng.Intn(8))
						b := fmt.Sprintf("n%d", rng.Intn(8))
						grew = s.AddFact("edge", a, b) || grew
					}
					if !grew {
						continue
					}
					fresh, err := pq.Eval(nil)
					if err != nil {
						t.Fatal(err)
					}
					for i := range subs {
						// The delta may be empty (edge between already
						// connected nodes): only wait when answers changed.
						if len(fresh.Tuples) > len(delivered[i]) {
							accum(i)
						}
						if len(delivered[i]) != len(fresh.Tuples) {
							t.Fatalf("round %d: subscription %d delivered %d tuples, fresh eval has %d",
								round, i, len(delivered[i]), len(fresh.Tuples))
						}
						for _, r := range fresh.Tuples {
							if !delivered[i][fmt.Sprint(r)] {
								t.Errorf("round %d: subscription %d never delivered fresh tuple %v", round, i, r)
							}
						}
					}
				}
			})
		}
	}
}

func TestSubscribeIterator(t *testing.T) {
	s := MustLoad(`
		edge(a, b).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(Y) :- path(a, Y).
	`)
	pq, err := s.Prepare(`?- path(a, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type ev struct {
		row []string
		err error
	}
	events := make(chan ev)
	go func() {
		for row, err := range pq.Subscribe(ctx) {
			events <- ev{row, err}
		}
		close(events)
	}()
	expect := func(want string) {
		t.Helper()
		select {
		case e := <-events:
			if e.err != nil {
				t.Fatalf("subscribe error: %v", e.err)
			}
			if len(e.row) != 1 || e.row[0] != want {
				t.Fatalf("subscribe yielded %v, want [%s]", e.row, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out waiting for %s", want)
		}
	}
	expect("b")
	s.AddFact("edge", "b", "c")
	expect("c")
	s.AddFact("edge", "c", "d")
	expect("d")
	cancel()
	select {
	case e, ok := <-events:
		if ok && e.err == nil {
			t.Fatalf("after cancel, got row %v, want terminal error", e.row)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for terminal error")
	}
}

// TestAddFactWakeOrdering pins the satellite fix: AddFact publishes the
// version bump BEFORE waking subscribers, so a subscriber woken by a
// mutation always observes EDBVersion >= the version that mutation
// produced (a wake-before-bump would let it go back to sleep and miss the
// change). Run with -race: the writer goroutine hammers AddFact while the
// subscription drains deltas.
func TestAddFactWakeOrdering(t *testing.T) {
	s := MustLoad(`
		edge(n0, n1).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(Y) :- path(n0, Y).
	`)
	pq, err := s.Prepare(`?- path(n0, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := pq.Subscription()
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(map[string]bool)
	for _, r := range subNext(t, sub) {
		delivered[r[0]] = true
	}
	const n = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < n; i++ {
			s.AddFact("edge", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
			if i%5 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// Every vertex n1..nN becomes reachable; if any wake-up were lost the
	// subscription would block with answers still undelivered.
	for len(delivered) < n {
		for _, r := range subNext(t, sub) {
			if delivered[r[0]] {
				t.Errorf("tuple %v delivered twice", r)
			}
			delivered[r[0]] = true
		}
	}
	wg.Wait()
	if len(delivered) != n {
		t.Fatalf("delivered %d answers, want %d", len(delivered), n)
	}
}
