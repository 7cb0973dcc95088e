// Command benchmark is the repository's one wire-to-storage benchmark: it
// builds the real mpqd, drives it over the line protocol from this one
// process with closed-loop connections, checks every reply against an
// oracle it owns, and reports end-to-end metrics (tracing off) and
// per-layer metrics (a separate traced run) for five named workloads.
// README.md is the guide; BENCHMARK.json at the repository root names every
// workload and metric and is the vocabulary this program prints in.
//
//	go run -C benchmark . -seed 1 -out results.json    every workload, both runs
//	go run -C benchmark . -workload reach_mem -seed 1 -seconds 10 -trace 0
//	go run -C benchmark . -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// manifest is BENCHMARK.json.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// why is the manifest's reason for a workload.
func (mf *manifest) why(name string) string {
	for _, w := range mf.Workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}

func readManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &mf, nil
}

// measured is one reported value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named attaches the manifest's units to measured values, and refuses a
// value that is missing or not a number: the manifest is the contract.
func named(defs []metricDef, values map[string]float64) (map[string]measured, error) {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (value %v)", d.Name, v)
		}
		out[d.Name] = measured{v, d.Unit}
	}
	return out, nil
}

func (r *e2e) values() map[string]float64 {
	return map[string]float64{
		"latency_p50_ms":   r.P50,
		"latency_p95_ms":   r.P95,
		"throughput_ops_s": r.Throughput,
		"setup_s":          r.SetupS,
		"peak_rss_mb":      r.PeakRSSMB,
	}
}

func main() {
	name := flag.String("workload", "", "run this one workload and print one JSON result line last (default: all five, both runs)")
	seed := flag.Int64("seed", 1, "the only source of randomness: dataset, request streams, write schedule")
	seconds := flag.Float64("seconds", 0, "length of the timed phase (0 = 20 for the full set, BENCHMARK.json's run_seconds otherwise)")
	traced := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced run")
	out := flag.String("out", "", "also write the full set's results to this JSON file")
	selfcheck := flag.Bool("selfcheck", false, "run the end-to-end set twice and compare the two against each metric's bound")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *out, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, out string, selfcheck bool) error {
	ws, err := newWorkspace()
	if err != nil {
		return err
	}
	defer ws.close()
	mf, err := readManifest(ws.root)
	if err != nil {
		return err
	}
	switch {
	case selfcheck:
		return selfCheck(ws, mf, seed, orDefault(seconds, float64(mf.RunSeconds)))
	case name == "":
		return fullSet(ws, mf, seed, orDefault(seconds, 20), out)
	}
	wl, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	return single(ws, mf, wl, seed, defaultSizing(orDefault(seconds, float64(mf.RunSeconds))), traced)
}

func orDefault(v, def float64) float64 {
	if v > 0 {
		return v
	}
	return def
}

// single is the driver's entry: one workload, one run, one JSON line last.
func single(ws *workspace, mf *manifest, wl workload, seed int64, sz sizing, traced bool) error {
	var res struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}
	if traced {
		lr, err := runLayers(ws, wl, seed, sz)
		if err != nil {
			return err
		}
		if res.Metrics, err = named(mf.PerLayer, lr.m); err != nil {
			return err
		}
		res.Attempted, res.Failed = lr.attempted, lr.failed
	} else {
		r, err := runEndToEnd(ws, wl, seed, sz)
		if err != nil {
			return err
		}
		if res.Metrics, err = named(mf.EndToEnd, r.values()); err != nil {
			return err
		}
		res.Attempted, res.Failed = r.Attempted, r.Failed
	}
	res.Correct = res.Failed == 0
	return json.NewEncoder(os.Stdout).Encode(res)
}

// ---- the full set ---------------------------------------------------------

type workloadReport struct {
	EndToEnd *e2e               `json:"end_to_end"`
	Layers   map[string]float64 `json:"per_layer"`
	// Share is each layer's share of latency_p50_ms; see shares.
	Share map[string]float64 `json:"share_of_latency_p50"`
}

// fullSet runs every workload untraced and then traced, and prints every
// metric by name with its unit.
func fullSet(ws *workspace, mf *manifest, seed int64, seconds float64, out string) error {
	report := struct {
		Machine   machine                    `json:"machine"`
		Seed      int64                      `json:"seed"`
		Seconds   float64                    `json:"seconds"`
		Workloads map[string]*workloadReport `json:"workloads"`
	}{machineInfo(ws.root), seed, seconds, map[string]*workloadReport{}}
	mc := report.Machine
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d %s revision=%s clients=%d, no simulated delay\n",
		mc.NumCPU, mc.GOMAXPROCS, mc.GoVersion, mc.Revision, mc.Clients)
	sz := defaultSizing(seconds)
	for _, wl := range embeddedFirst() {
		r, err := runEndToEnd(ws, wl, seed, sz)
		if err != nil {
			return err
		}
		lr, err := runLayers(ws, wl, seed, sz)
		if err != nil {
			return err
		}
		wr := &workloadReport{EndToEnd: r, Layers: lr.m, Share: shares(wl, r, lr.m)}
		report.Workloads[wl.name] = wr

		fmt.Printf("\n%s: %s\n", wl.name, mf.why(wl.name))
		fmt.Printf("  end to end, tracing off: %d connection(s), %.0f s timed after %.0f s warm-up, %d latency samples, %d of %d operations failed\n",
			wl.connections(), sz.timed.Seconds(), sz.warmup.Seconds(), r.Samples, r.Failed, r.Attempted)
		vals := r.values()
		for _, d := range mf.EndToEnd {
			fmt.Printf("    %-28s %12.4f %s\n", d.Name, vals[d.Name], d.Unit)
		}
		fmt.Printf("    %-28s %12.4f ms (p%g: the highest percentile with ten samples beyond it)\n", "latency_tail_ms", r.Tail, r.TailP)
		fmt.Printf("    %-28s %12.6f\n", "failed_share", float64(r.Failed)/float64(max(r.Attempted, 1)))
		fmt.Printf("  per layer, traced run: %d of %d checks failed\n", lr.failed, lr.attempted)
		for _, d := range mf.PerLayer {
			fmt.Printf("    %-34s %14.4f %s\n", d.Name, lr.m[d.Name], d.Unit)
		}
		fmt.Printf("  share of latency_p50_ms, measured:")
		for _, layer := range shareLayers {
			fmt.Printf(" %s=%.1f%%", layer, 100*wr.Share[layer])
		}
		fmt.Printf("\n  inside engine, modelled as count x unit cost (CPU on all cores):")
		for _, layer := range modelLayers {
			fmt.Printf(" %s=%.1f%%", layer, 100*wr.Share[layer])
		}
		fmt.Println()
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// embeddedFirst orders the workloads for a process that runs them all: the
// in-process workload's peak_rss_mb is this process's own high-water mark,
// which the other workloads' datasets would raise.
func embeddedFirst() []workload {
	order := append([]workload(nil), workloads...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].embed && !order[j].embed })
	return order
}

// shareLayers are the measured shares, which add up to the whole latency;
// modelLayers are estimates of what happens inside the engine's share.
var (
	shareLayers = []string{"serve", "parser", "mpq", "engine"}
	modelLayers = []string{"transport", "relation", "edb"}
)

// shares splits a workload's latency_p50_ms across the layers, as
// fractions of it. serve, parser, mpq and engine are measured, by
// difference between nested spans: engine is all of engine.Plan.Run, mpq
// what PreparedQuery.Eval and the plan lookup add around it, serve what
// the wire adds around those. What happens inside Plan.Run cannot be seen
// from outside the program yet, so transport, relation and edb are
// modelled: the daemon's count per evaluation times the unit cost measured
// by calling that layer directly. The modelled parts are CPU time on all
// cores, so together they can exceed engine's wall-clock share.
func shares(wl workload, r *e2e, m map[string]float64) map[string]float64 {
	total := r.P50 // ms
	parse := m["parser.query_parse_us"] / 1e3
	lookup := max(0, m["mpq.plan_lookup_us"]/1e3-parse) // QueryPrepared parses the line again
	run := m["engine.plan_run_p50_ms"]
	render := max(0, m["mpq.eval_p50_ms"]-run)
	point := m["edb.mem_scan_point_ns"]
	if wl.disk {
		point = m["edb.disk_scan_point_hot_ns"]
	}
	stored := m["engine.derived_per_eval"] * m["engine.dedup_useful_ratio"]
	out := map[string]float64{
		"parser":    parse,
		"mpq":       lookup + render,
		"engine":    run,
		"serve":     max(0, total-parse-lookup-render-run),
		"transport": m["engine.messages_per_eval"] * m["transport.mailbox_put_get_ns"] / 1e6,
		"relation": (stored*m["relation.insert_ns"] + m["engine.dup_per_eval"]*m["relation.dup_insert_ns"] +
			m["engine.join_probes_per_eval"]*m["relation.probe_ns"]) / 1e6,
		"edb": m["edb.scans_per_eval"] * point / 1e6,
	}
	if wl.embed {
		// No wire: the in-process call is the whole latency, and the part of
		// it the traced run did not see is not serve's.
		out["serve"] = 0
	}
	for k := range out {
		out[k] /= total
	}
	return out
}

// ---- selfcheck ------------------------------------------------------------

const selfcheckRuns = 5

// quartiles are the cut points of Python's statistics.quantiles(xs, n=4),
// which is how the driver reads a spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// selfCheck runs the end-to-end set twice on this tree, selfcheckRuns
// seeds per workload and set, and holds the two sets against the
// manifest's bounds the way the driver will: the second median may not be
// worse than the first by more than the bound. A metric whose own spread
// exceeds its bound is reported as unresolved, never as unchanged.
func selfCheck(ws *workspace, mf *manifest, seed int64, seconds float64) error {
	sz := defaultSizing(seconds)
	bad := 0
	for _, wl := range embeddedFirst() {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < selfcheckRuns; i++ {
				r, err := runEndToEnd(ws, wl, seed+int64(set*selfcheckRuns+i), sz)
				if err != nil {
					return err
				}
				if r.Failed > 0 {
					bad++
				}
				for k, v := range r.values() {
					sets[set][k] = append(sets[set][k], v)
				}
			}
		}
		fmt.Printf("%s\n", wl.name)
		for _, d := range mf.EndToEnd {
			_, a, _ := quartiles(sets[0][d.Name])
			q1, b, q3 := quartiles(sets[1][d.Name])
			worse := b/a - 1
			if d.Better == "higher" {
				worse = a/b - 1
			}
			spread := (q3 - q1) / b
			verdict := "unchanged"
			switch {
			case worse > d.Bound:
				verdict = "DIFFERS"
				bad++
			case spread > d.Bound && d.Name != "setup_s":
				verdict = "unresolved: spread exceeds bound"
			}
			fmt.Printf("  %-18s %12.4f %12.4f %-5s ratio %.3f  spread %.1f%%  bound %.0f%%  %s\n",
				d.Name, a, b, d.Unit, b/a, 100*spread, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric pairs differ by more than their bound, or runs had failed operations", bad)
	}
	return nil
}
