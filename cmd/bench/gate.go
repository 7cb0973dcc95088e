// The release gate: `bench -gate` re-measures the headline ratios of the
// committed BENCH_4/6/8/9 records on the current tree and exits nonzero if
// any falls past its noise floor. Every gated metric is a ratio (speedup,
// p99 inflation) rather than an absolute time, so the gate is
// portable across machines: a uniformly slower host moves numerator and
// denominator together. Floors are max(absolute floor, 0.5x the committed
// baseline ratio) — 50% headroom, far outside the ±10% cross-session
// drift the BENCH_* records have historically shown (see EXPERIMENTS.md).
//
// MPQ_GATE_HANDICAP=<duration> is the gate's self-test: it injects that
// latency into each prepared-path evaluation, simulating a build whose
// serving path regressed, and the gate must then fail.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repro"
)

// gateHandicap reads MPQ_GATE_HANDICAP, the per-evaluation latency
// injected into the prepared-path measurement for gate self-tests.
func gateHandicap() time.Duration {
	v := os.Getenv("MPQ_GATE_HANDICAP")
	if v == "" {
		return 0
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		fmt.Fprintf(os.Stderr, "bench: bad MPQ_GATE_HANDICAP %q: %v\n", v, err)
		os.Exit(2)
	}
	return d
}

// gateLoad reads a committed BENCH_*.json baseline from the working
// directory (scripts/check.sh runs the gate from the repo root).
func gateLoad(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(buf, v)
}

type gateCheck struct {
	name     string
	measured string
	bound    string
	baseline string
	ok       bool
}

// runGate returns the process exit code: 0 when every check passes.
func runGate() int {
	handicap := gateHandicap()
	fmt.Println("== release gate ==")
	if handicap > 0 {
		fmt.Printf("MPQ_GATE_HANDICAP=%v: injecting per-evaluation latency (self-test: the gate must fail)\n\n", handicap)
	}

	var checks []gateCheck
	add := func(name, measured, bound, baseline string, ok bool) {
		checks = append(checks, gateCheck{name, measured, bound, baseline, ok})
	}

	// Baselines. A missing or unreadable record is itself a gate failure:
	// the gate exists to compare against the committed numbers.
	var b4 struct {
		SpeedupX float64 `json:"prepared_speedup_x"`
	}
	var b6 struct {
		Serving a8Result `json:"serving"`
	}
	var b8 struct {
		Adaptive a10Result `json:"adaptive"`
	}
	var b9 struct {
		Storage a11Result `json:"storage"`
	}
	for _, b := range []struct {
		path string
		v    any
	}{{"BENCH_4.json", &b4}, {"BENCH_6.json", &b6}, {"BENCH_8.json", &b8}, {"BENCH_9.json", &b9}} {
		if err := gateLoad(b.path, b.v); err != nil {
			add("baseline "+b.path, "unreadable", "committed", "-", false)
		}
	}

	bench := func(f func() error) float64 {
		best := 0.0
		for r := 0; r < 2; r++ {
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := f(); err != nil {
						b.Fatal(err)
					}
				}
			})
			if ns := float64(res.T.Nanoseconds()) / float64(res.N); r == 0 || ns < best {
				best = ns
			}
		}
		return best
	}

	// Check 1 — prepared-query speedup (BENCH_4's headline): the same
	// point query evaluated fresh (graph rebuilt per call) versus through
	// the prepared plan. The handicap lands here: it models a per-query
	// regression in the serving path.
	fmt.Println("measuring prepared-query speedup (BENCH_4 baseline)...")
	sys := mpq.MustLoad(a6ChainSource(64, 56))
	pq, err := sys.Prepare("?- path(n56, Y).")
	if err != nil {
		panic(err)
	}
	check8 := func(tuples, want int, err error) error {
		if err != nil {
			return err
		}
		if tuples != want {
			return fmt.Errorf("got %d answers, want %d", tuples, want)
		}
		return nil
	}
	freshNs := bench(func() error {
		ans, err := sys.Eval()
		if err != nil {
			return err
		}
		return check8(len(ans.Tuples), 8, nil)
	})
	prepNs := bench(func() error {
		if handicap > 0 {
			time.Sleep(handicap)
		}
		ans, err := pq.Eval(nil, "n56")
		if err != nil {
			return err
		}
		return check8(len(ans.Tuples), 8, nil)
	})
	speedup := freshNs / prepNs
	floor := 1.10
	if f := 0.5 * b4.SpeedupX; f > floor {
		floor = f
	}
	add("prepared_speedup_x", fmt.Sprintf("%.2f", speedup), fmt.Sprintf(">= %.2f", floor),
		fmt.Sprintf("%.2f", b4.SpeedupX), speedup >= floor)

	// Checks 2-5 — the A8 serving acceptance criteria, re-measured quick:
	// fairness under flood, fail-fast typed shedding, cache byte identity.
	fmt.Println("measuring multi-tenant serving behaviour (BENCH_6 baseline)...")
	r := a8Measure(true)
	for _, e := range r.BErrors {
		fmt.Printf("tenant B failure: %s\n", e)
	}
	add("tenant_b_p99_ratio_x", fmt.Sprintf("%.2f", r.P99RatioX), "<= 2.00",
		fmt.Sprintf("%.2f", b6.Serving.P99RatioX), r.P99RatioX <= 2.0 && len(r.BErrors) == 0)
	add("shed_p99_ms", fmt.Sprintf("%.3f", r.ShedP99Ms), "< 10.000",
		fmt.Sprintf("%.3f", b6.Serving.ShedP99Ms), r.FloodShed > 0 && r.ShedP99Ms < 10)
	add("shed_typed_overloaded", fmt.Sprintf("%v", r.ShedTyped), "== true",
		fmt.Sprintf("%v", b6.Serving.ShedTyped), r.ShedTyped)
	add("result_cache_identical", fmt.Sprintf("%v", r.CacheIdentical), "== true",
		fmt.Sprintf("%v", b6.Serving.CacheIdentical), r.CacheIdentical)

	// Checks 6-8 — the A10 adaptive-planning acceptance criteria, quick.
	// Rows processed is deterministic (no wall clock involved), so the
	// auto-within-noise bound stays tight rather than halved.
	fmt.Println("measuring adaptive planning (BENCH_8 baseline)...")
	r10 := a10Measure(true)
	add("auto_vs_best_fixed_x", fmt.Sprintf("%.2f", r10.AutoWorstCaseX), "<= 1.10",
		fmt.Sprintf("%.2f", b8.Adaptive.AutoWorstCaseX),
		r10.AutoWorstCaseX <= 1.10 && r10.ByteIdentical)
	add("worst_vs_best_fixed_x", fmt.Sprintf("%.1f", r10.MaxWorstVsBestX), ">= 2.0",
		fmt.Sprintf("%.1f", b8.Adaptive.MaxWorstVsBestX), r10.MaxWorstVsBestX >= 2)
	add("drift_plan_reopts", fmt.Sprintf("%d", r10.PlanReopts), ">= 1",
		fmt.Sprintf("%d", b8.Adaptive.PlanReopts),
		r10.PlanReopts >= 1 && r10.ReoptChangedPlan)

	// Checks 9-10 — the A11 persistent-storage headline: the disk-backed
	// store reads rows in place through the segment mapping, so its point
	// scans must stay within 2x of the in-memory store's — and, there being
	// no cache to warm, its first pass after a reopen within 3x of the
	// memory store's own first pass (one unrepeated measurement, hence the
	// looser bound). Both are ratios, so the bounds hold across machines.
	// The committed BENCH_9.json predates the mapping (it measured the
	// tuple LRU) and has no first-pass figure for memory.
	fmt.Println("measuring disk-store point scans against memory (BENCH_9 baseline)...")
	r11 := a11Measure(true)
	add("disk_point_vs_memory_x", fmt.Sprintf("%.2f", r11.HotVsMemoryX), "<= 2.00",
		fmt.Sprintf("%.2f", b9.Storage.HotVsMemoryX),
		r11.HotVsMemoryX <= 2.0 && r11.ByteIdentical)
	add("disk_first_point_vs_memory_x", fmt.Sprintf("%.2f", r11.FirstVsMemoryX), "<= 3.00",
		"-", r11.FirstVsMemoryX <= 3.0)

	fmt.Println()
	row("check", "measured", "bound", "baseline", "result")
	row("---", "---", "---", "---", "---")
	failed := 0
	for _, c := range checks {
		verdict := "PASS"
		if !c.ok {
			verdict = "FAIL"
			failed++
		}
		row(c.name, c.measured, c.bound, c.baseline, verdict)
	}
	fmt.Println()
	if failed > 0 {
		fmt.Printf("gate: FAIL (%d of %d checks)\n", failed, len(checks))
		return 1
	}
	fmt.Printf("gate: PASS (%d checks)\n", len(checks))
	return 0
}
