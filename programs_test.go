package mpq

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bottomup"
	"repro/internal/edb"
	"repro/internal/magic"
	"repro/internal/rgg"
	"repro/internal/workload"
)

// evaluators are every way the tests evaluate a system's query: the
// message-passing evaluator, collected by Eval and streamed by Answers,
// and the §1.1 baselines, called directly as oracles. Each returns the
// goal tuples sorted like Answer.Tuples.
var evaluators = []struct {
	name string
	eval func(*System) ([][]string, error)
}{
	{"message-passing", func(sys *System) ([][]string, error) {
		ans, err := sys.Eval()
		if err != nil {
			return nil, err
		}
		return ans.Tuples, nil
	}},
	{"answers", func(sys *System) ([][]string, error) {
		out := [][]string{}
		for t, err := range sys.Answers() {
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
		sortTuples(out)
		return out, nil
	}},
	{"semi-naive", oracle(bottomup.SemiNaive)},
	{"naive", oracle(bottomup.Naive)},
	{"magic-sets", func(sys *System) ([][]string, error) { return magicSets(sys, "greedy") }},
	{"brute-force", oracle(bottomup.BruteForce)},
}

// oracle renders a bottom-up baseline's goal relation like Answer.Tuples.
func oracle(eval func(*ast.Program, *edb.Database) *bottomup.Result) func(*System) ([][]string, error) {
	return func(sys *System) ([][]string, error) {
		return sys.renderAll(eval(sys.Program, sys.DB).Goal), nil
	}
}

// magicSets evaluates the magic-sets rewrite, with the named strategy's
// SIPs, and renders its goal relation like Answer.Tuples.
func magicSets(sys *System, strategy string) ([][]string, error) {
	res, _, db, err := magic.EvaluateWith(sys.Program, sys.DB, rgg.StrategyNamed(strategy).Make(sys.DB, nil))
	if err != nil {
		return nil, err
	}
	return (&System{DB: db}).renderAll(res.Goal), nil
}

// TestProgramCorpus runs every program in testdata/programs through every
// evaluator and checks the answers against the expectation embedded in the
// file's header:
//
//	% expect: b c d          → exactly these tuples ("a,b" = binary tuple,
//	                           "yes" = the empty tuple, blank = no answers)
//	% expect-count: 40       → exactly this many tuples
func TestProgramCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "programs", "*.dl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus programs found: %v", err)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			wantSet, wantCount := parseExpect(t, string(src))
			for _, e := range evaluators {
				sys, err := Load(string(src))
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				var tuples [][]string
				done := make(chan error, 1)
				go func() {
					var err error
					tuples, err = e.eval(sys)
					done <- err
				}()
				if err := <-done; err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				if wantCount >= 0 {
					if len(tuples) != wantCount {
						t.Errorf("%s: %d answers, want %d", e.name, len(tuples), wantCount)
					}
					continue
				}
				got := renderTuples(tuples)
				if got != wantSet {
					t.Errorf("%s: answers %q, want %q", e.name, got, wantSet)
				}
			}
		})
	}
}

// checkDeliveryMatrix evaluates src with the message-passing engine at every
// strategy (auto included) × storage backend and requires each answer set to
// be byte-identical to semi-naive bottom-up evaluation. The engine has one
// delivery path — packaged, buffered per destination — so this matrix is
// what stands behind it.
func checkDeliveryMatrix(t *testing.T, src string) {
	t.Helper()
	truth, err := oracle(bottomup.SemiNaive)(MustLoad(src))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(truth)
	for _, store := range []string{"memory", "disk"} {
		sys := MustLoad(src)
		if store == "disk" {
			sys = diskSystem(t, src)
		}
		for _, strat := range []string{"greedy", "qualtree", "leftright", "basic", "stats", "auto"} {
			ans, err := sys.Eval(WithStrategy(strat))
			if err != nil {
				t.Fatalf("%s/%s: %v\n%s", store, strat, err, src)
			}
			if got := fmt.Sprint(ans.Tuples); got != want {
				t.Fatalf("%s/%s: answers %s, want %s\n%s", store, strat, got, want, src)
			}
		}
	}
}

// TestDeliveryMatrixCorpus runs the matrix over the program corpus.
func TestDeliveryMatrixCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "programs", "*.dl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus programs found: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			checkDeliveryMatrix(t, string(src))
		})
	}
}

// TestDeliveryMatrixRandom runs it over random positive programs: constants
// and repeated variables in heads and bodies, mutual and nonlinear
// recursion, bound and free goals.
func TestDeliveryMatrixRandom(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < seeds; seed++ {
		checkDeliveryMatrix(t, workload.RandomProgram(rand.New(rand.NewSource(seed))).String())
	}
}

// parseExpect extracts the expectation header. wantCount is -1 when an
// explicit tuple set is given instead.
func parseExpect(t *testing.T, src string) (string, int) {
	t.Helper()
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "% expect-count:"); ok {
			n, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				t.Fatalf("bad expect-count: %q", line)
			}
			return "", n
		}
		if rest, ok := strings.CutPrefix(line, "% expect:"); ok {
			fields := strings.Fields(rest)
			tuples := make([][]string, 0, len(fields))
			for _, f := range fields {
				if f == "yes" {
					tuples = append(tuples, []string{})
				} else {
					tuples = append(tuples, strings.Split(f, ","))
				}
			}
			return renderTuples(tuples), -1
		}
	}
	t.Fatal("program has no % expect header")
	return "", -1
}

func renderTuples(tuples [][]string) string {
	rows := make([]string, 0, len(tuples))
	for _, t := range tuples {
		if len(t) == 0 {
			rows = append(rows, "yes")
		} else {
			rows = append(rows, strings.Join(t, ","))
		}
	}
	// Sort for set comparison.
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			if rows[j] < rows[i] {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	return fmt.Sprint(rows)
}
