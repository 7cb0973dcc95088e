package workload

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/adorn"
	"repro/internal/bottomup"
)

func TestChain(t *testing.T) {
	facts := Chain("edge", 5)
	if len(facts) != 4 {
		t.Fatalf("chain(5) = %d facts", len(facts))
	}
	prog := Program(TCRules, facts)
	res := bottomup.SemiNaive(prog, DB(prog))
	if res.Goal.Len() != 4 {
		t.Errorf("reachable from n0 on a 5-chain: %d, want 4", res.Goal.Len())
	}
}

func TestCycle(t *testing.T) {
	prog := Program(TCRules, Cycle("edge", 6))
	res := bottomup.SemiNaive(prog, DB(prog))
	if res.Goal.Len() != 6 {
		t.Errorf("reachable on a 6-cycle: %d, want 6 (incl. n0 itself)", res.Goal.Len())
	}
}

func TestGrid(t *testing.T) {
	w, h := 3, 4
	facts := Grid("edge", w, h)
	// Edges: right w-1 per row * h? right edges: (w-1)*h; down: w*(h-1).
	want := (w-1)*h + w*(h-1)
	if len(facts) != want {
		t.Fatalf("grid(3,4) = %d edges, want %d", len(facts), want)
	}
	prog := Program(TCRules, facts)
	res := bottomup.SemiNaive(prog, DB(prog))
	if res.Goal.Len() != w*h-1 {
		t.Errorf("reachable from corner: %d, want %d", res.Goal.Len(), w*h-1)
	}
}

func TestRandomProductive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	facts := Random("edge", 10, 30, rng)
	prog := Program(TCRules, facts)
	res := bottomup.SemiNaive(prog, DB(prog))
	if res.Goal.Len() == 0 {
		t.Error("random graph query unproductive despite guaranteed n0 edge")
	}
}

func TestComponents(t *testing.T) {
	prog := Program(TCRules, Components("edge", 4, 6))
	res := bottomup.SemiNaive(prog, DB(prog))
	if res.Goal.Len() != 5 {
		t.Errorf("reachable = %d, want 5 (one chain only)", res.Goal.Len())
	}
	// Model contains all components' paths.
	if res.ModelSize <= int64(res.Goal.Len()) {
		t.Errorf("model %d should exceed one chain's reachability", res.ModelSize)
	}
}

func TestTree(t *testing.T) {
	facts := Tree(2, 3)
	// Complete binary tree of depth 3: 2+4+8 = 14 par facts.
	if len(facts) != 14 {
		t.Fatalf("tree(2,3) = %d facts, want 14", len(facts))
	}
	prog := Program(SameGenRules, facts)
	res := bottomup.SemiNaive(prog, DB(prog))
	// All 8 leaves are in c0's generation (including itself).
	if res.Goal.Len() != 8 {
		t.Errorf("same generation of c0: %d, want 8", res.Goal.Len())
	}
}

func TestP1Data(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	prog := Program(P1Rules, P1Data(12, 0.8, rng))
	res := bottomup.SemiNaive(prog, DB(prog))
	if res.Goal.Len() == 0 {
		t.Error("P1 workload unproductive")
	}
}

// TestMonotoneProgramsShape verifies E8's preconditions: the R2 program's
// rule has monotone flow, R3's does not, and both evaluate to nonempty,
// equal-per-shape answers under semi-naive.
func TestMonotoneProgramsShape(t *testing.T) {
	r2, r3 := MonotonePrograms(6, 3)
	ad := adorn.Adornment{adorn.Dynamic, adorn.Free}
	if !adorn.MonotoneFlow(r2.Rules[0], ad) {
		t.Error("R2-shaped rule lacks monotone flow")
	}
	if adorn.MonotoneFlow(r3.Rules[0], ad) {
		t.Error("R3-shaped rule has monotone flow")
	}
	res2 := bottomup.SemiNaive(r2, DB(r2))
	if res2.Goal.Len() == 0 {
		t.Error("R2 workload unproductive")
	}
	// R3's final result must be small relative to its pairwise joins: at
	// minimum, strictly fewer answers than R2's.
	res3 := bottomup.SemiNaive(r3, DB(r3))
	if res3.Goal.Len() >= res2.Goal.Len() {
		t.Errorf("R3 answers %d ≥ R2 answers %d; W mismatch not effective",
			res3.Goal.Len(), res2.Goal.Len())
	}
}

func TestMonotonePairwiseConsistency(t *testing.T) {
	// Every W value in b must occur in c and vice versa (no dangling
	// tuples pairwise on the join attribute W).
	_, r3 := MonotonePrograms(5, 4)
	wb, wc := map[string]bool{}, map[string]bool{}
	for _, f := range r3.Facts {
		switch f.Pred {
		case "b":
			wb[f.Args[1].Const] = true
		case "c":
			wc[f.Args[1].Const] = true
		}
	}
	for w := range wb {
		if !wc[w] {
			t.Errorf("W value %s in b but not c", w)
		}
	}
	for w := range wc {
		if !wb[w] {
			t.Errorf("W value %s in c but not b", w)
		}
	}
}

func TestDescribe(t *testing.T) {
	s := Describe(Chain("edge", 4))
	if !strings.Contains(s, "edge=3") {
		t.Errorf("Describe = %q", s)
	}
}

func TestProgramPanicsOnBadTemplate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Program accepted a bad template")
		}
	}()
	Program("not valid datalog(", nil)
}

func TestRandomProgramValidAndSeeded(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := RandomProgram(rand.New(rand.NewSource(seed)))
		b := RandomProgram(rand.New(rand.NewSource(seed)))
		if a.String() != b.String() {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		if err := a.Validate(true); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, a)
		}
	}
}
