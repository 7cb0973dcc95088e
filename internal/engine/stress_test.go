package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/bottomup"
	"repro/internal/edb"
	"repro/internal/msg"
	"repro/internal/parser"
	"repro/internal/rgg"
	"repro/internal/transport"
)

// jitterNet delays each send by a random amount before enqueueing. The
// sender blocks through the delay, so per-sender order and the atomicity of
// mailbox enqueue are preserved — the two properties the termination
// protocol's soundness argument needs — while the global interleaving is
// adversarially shuffled.
type jitterNet struct {
	local *transport.Local
	mu    sync.Mutex
	rng   *rand.Rand
	maxNs int64
}

func (j *jitterNet) Send(m msg.Message) {
	j.mu.Lock()
	d := time.Duration(j.rng.Int63n(j.maxNs))
	j.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	j.local.Send(m)
}

// runJittered evaluates with randomized message delays.
func runJittered(t *testing.T, src string, seed int64, maxDelay time.Duration) *Result {
	t.Helper()
	prog := parser.MustParse(src)
	db := edb.FromProgram(prog)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local := transport.NewLocal(len(g.Nodes) + 1)
	net := &jitterNet{local: local, rng: rand.New(rand.NewSource(seed)), maxNs: int64(maxDelay)}
	type out struct {
		res *Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := runOver(g, db, net, local, Options{})
		ch <- out{res, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.res
	case <-time.After(60 * time.Second):
		t.Fatalf("jittered engine hung (seed %d) on:\n%s", seed, src)
		return nil
	}
}

// TestProtocolUnderJitter runs recursive queries under adversarial message
// scheduling: the Fig 2 protocol must neither end early (wrong answers) nor
// hang, whatever the interleaving.
func TestProtocolUnderJitter(t *testing.T) {
	if testing.Short() {
		t.Skip("jitter stress skipped in -short mode")
	}
	programs := []string{
		p1data,
		`e(a, b). e(b, c). e(c, a). e(c, d).
		 odd(X, Y) :- e(X, Y).
		 odd(X, Y) :- even(X, U), e(U, Y).
		 even(X, Y) :- odd(X, U), e(U, Y).
		 goal(Y) :- even(a, Y).`,
		`edge(a, b). edge(b, c). edge(c, a). edge(c, d). edge(d, e0).
		 t(X, Y) :- edge(X, Y).
		 t(X, Y) :- t(X, U), t(U, Y).
		 goal(Y) :- t(a, Y).`,
	}
	for pi, src := range programs {
		truth := bottomup.SemiNaive(parser.MustParse(src), edb.FromProgram(parser.MustParse(src)))
		for seed := int64(0); seed < 6; seed++ {
			res := runJittered(t, src, seed, 300*time.Microsecond)
			if res.Answers.Len() != truth.Goal.Len() {
				t.Fatalf("program %d seed %d: %d answers, want %d (premature end?)",
					pi, seed, res.Answers.Len(), truth.Goal.Len())
			}
		}
	}
}

// TestRandomMultiRulePrograms differentially checks randomly generated
// programs with several mutually recursive IDB predicates against the
// semi-naive oracle.
func TestRandomMultiRulePrograms(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 6
	}
	rng := rand.New(rand.NewSource(2024))
	preds := []string{"p", "q", "s"}
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(6)
		var src string
		for k := 0; k < 2*n; k++ {
			src += fmt.Sprintf("e(n%d, n%d).\n", rng.Intn(n), rng.Intn(n))
		}
		src += fmt.Sprintf("e(n0, n%d).\n", rng.Intn(n))
		// Base rules ground every predicate in the EDB.
		for _, p := range preds {
			src += fmt.Sprintf("%s(X, Y) :- e(X, Y).\n", p)
		}
		// Random recursive rules: head and two body predicates drawn from
		// the pool, chained or crossed.
		for r := 0; r < 2+rng.Intn(3); r++ {
			h := preds[rng.Intn(len(preds))]
			b1 := preds[rng.Intn(len(preds))]
			b2 := preds[rng.Intn(len(preds))]
			switch rng.Intn(3) {
			case 0: // chain
				src += fmt.Sprintf("%s(X, Y) :- %s(X, U), %s(U, Y).\n", h, b1, b2)
			case 1: // same-generation style
				src += fmt.Sprintf("%s(X, Y) :- e(X, XP), %s(XP, YP), e(Y, YP).\n", h, b1)
			case 2: // left recursion with EDB tail
				src += fmt.Sprintf("%s(X, Y) :- %s(X, U), e(U, Y).\n", h, b1)
			}
		}
		src += fmt.Sprintf("goal(Y) :- %s(n0, Y).\n", preds[rng.Intn(len(preds))])

		res, db := runQuery(t, src, nil)
		truth := bottomup.SemiNaive(parser.MustParse(src), edb.FromProgram(parser.MustParse(src)))
		got := renderSet(res.Answers, db)
		want := renderSetBottomup(t, src)
		if got != want {
			t.Fatalf("trial %d: engine %s != oracle %s\nprogram:\n%s", trial, got, want, src)
		}
		_ = truth
	}
}

// TestEngineRepeatable: the engine is nondeterministic in scheduling but
// must be deterministic in its answer set.
func TestEngineRepeatable(t *testing.T) {
	var first string
	for i := 0; i < 10; i++ {
		res, db := runQuery(t, p1data, nil)
		s := renderSet(res.Answers, db)
		if i == 0 {
			first = s
		} else if s != first {
			t.Fatalf("run %d produced %s, first run produced %s", i, s, first)
		}
	}
}

// TestEngineManyParallel runs several evaluations concurrently to flush out
// cross-run interference (there must be none: each Run owns its state).
func TestEngineManyParallel(t *testing.T) {
	prog := parser.MustParse(p1data)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := bottomup.SemiNaive(prog, edb.FromProgram(prog))
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			db := edb.FromProgram(parser.MustParse(p1data))
			res, err := Run(g, db, Options{})
			if err != nil {
				errs <- err
				return
			}
			if res.Answers.Len() != truth.Goal.Len() {
				errs <- fmt.Errorf("got %d answers, want %d", res.Answers.Len(), truth.Goal.Len())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
