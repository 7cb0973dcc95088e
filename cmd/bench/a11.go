package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/ast"
	"repro/internal/edb"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// a11Result is the BENCH_9.json payload: the storage-backend comparison.
// Full scans are reported in microseconds for the whole relation; point
// scans in nanoseconds per query (averaged over the probe set).
type a11Result struct {
	Rows         int `json:"rows"`
	PointQueries int `json:"point_queries"`

	MemFullScanUs   float64 `json:"memory_full_scan_us"`
	DiskColdScanUs  float64 `json:"disk_cold_full_scan_us"`
	DiskWarmScanUs  float64 `json:"disk_warm_full_scan_us"`
	MemPointNs      float64 `json:"memory_point_scan_ns"`
	MemFirstPointNs float64 `json:"memory_first_point_scan_ns"`
	DiskColdPointNs float64 `json:"disk_cold_point_scan_ns"`
	DiskHotPointNs  float64 `json:"disk_hot_point_scan_ns"`

	HotVsMemoryX   float64 `json:"hot_point_vs_memory_x"`
	FirstVsMemoryX float64 `json:"first_point_vs_memory_x"`

	ByteIdentical bool `json:"scan_byte_identical"`
}

// a11Checks are the acceptance criteria: a disk point scan stays within a
// constant factor of a memory one, repeated pass against repeated pass and
// first pass against first pass. Rows are read in place through the segment
// mapping, so there is no cache to warm: the first pass after a reopen pays
// what a first pass over the memory store pays (cold processor caches), and
// its bound is looser only because it is one unrepeated measurement.
func (r a11Result) a11Checks() map[string]bool {
	return map[string]bool{
		"hot_point_scan_within_2x_of_memory":   r.HotVsMemoryX <= 2.0,
		"first_point_scan_within_3x_of_memory": r.FirstVsMemoryX <= 3.0,
		"memory_disk_byte_identical":           r.ByteIdentical,
	}
}

// a11Median times f nine times and returns the median, in nanoseconds. A
// quick point pass is ~100 us, so with fewer repeats one collection or
// preemption lands in the median.
func a11Median(f func()) float64 {
	var times []time.Duration
	for i := 0; i < 9; i++ {
		start := time.Now()
		f()
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return float64(times[len(times)/2].Nanoseconds())
}

// a11Seed inserts the workload into a store: a binary relation where every
// key owns exactly fanout rows, so one point probe touches a constant
// number of tuples on either backend.
func a11Seed(st edb.Storage, rows, fanout int) {
	syms := st.Symbols()
	key := ast.PredKey{Name: "edge", Arity: 2}
	for i := 0; i < rows; i++ {
		st.Insert(key, relation.Tuple{
			syms.Intern(fmt.Sprintf("k%d", i/fanout)),
			syms.Intern(fmt.Sprintf("v%d", i)),
		})
	}
}

// a11Probes interns the probe bindings once, outside the timed region.
func a11Probes(st edb.Storage, keys, queries int) []relation.Binding {
	syms := st.Symbols()
	probes := make([]relation.Binding, queries)
	for q := 0; q < queries; q++ {
		k := (q * 7919) % keys // deterministic spread over the keyspace
		probes[q] = relation.Binding{syms.Intern(fmt.Sprintf("k%d", k)), symtab.NoSym}
	}
	return probes
}

// a11PointPass runs every probe as a bound Scan and returns the number of
// rows yielded (sanity-checked by the caller).
func a11PointPass(st edb.Storage, key ast.PredKey, probes []relation.Binding) int {
	n := 0
	for _, b := range probes {
		for range st.Scan(key, b) {
			n++
		}
	}
	return n
}

// a11Measure builds identical datasets on the in-memory and disk backends,
// reopens the disk store so nothing of it is resident in the process, and
// measures full-scan and point-scan latency on both sides of the Storage
// interface.
func a11Measure(quick bool) a11Result {
	rows := 200000
	queries := 2000
	if quick {
		rows, queries = 40000, 500
	}
	const fanout = 4
	keys := rows / fanout
	r := a11Result{Rows: rows, PointQueries: queries}
	key := ast.PredKey{Name: "edge", Arity: 2}

	mem := edb.NewMemory()
	a11Seed(mem, rows, fanout)
	mem.WarmFor(nil)

	dir, err := os.MkdirTemp("", "mpq-a11-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	first, err := edb.OpenDisk(dir)
	if err != nil {
		panic(err)
	}
	a11Seed(first, rows, fanout)
	if err := first.Close(); err != nil {
		panic(err)
	}

	// Reopen: recovery from the segment files alone. The cold full scan is
	// the first read the recovered store serves.
	disk, err := edb.OpenDisk(dir)
	if err != nil {
		panic(err)
	}
	defer disk.Close()
	count := func(st edb.Storage) int {
		n := 0
		for range st.Scan(key, nil) {
			n++
		}
		return n
	}
	coldStart := time.Now()
	if n := count(disk); n != rows {
		panic(fmt.Sprintf("A11: disk cold scan %d rows, want %d", n, rows))
	}
	r.DiskColdScanUs = float64(time.Since(coldStart).Nanoseconds()) / 1e3
	r.DiskWarmScanUs = a11Median(func() { count(disk) }) / 1e3
	r.MemFullScanUs = a11Median(func() { count(mem) }) / 1e3

	// Byte identity: the two backends must hold exactly the same rows, as
	// rendered strings (symbol ids may differ between stores).
	render := func(st edb.Storage) []string {
		syms := st.Symbols()
		var out []string
		for row := range st.Scan(key, nil) {
			out = append(out, syms.String(row[0])+"\t"+syms.String(row[1]))
		}
		sort.Strings(out)
		return out
	}
	mr, dr := render(mem), render(disk)
	r.ByteIdentical = len(mr) == len(dr)
	for i := range mr {
		if !r.ByteIdentical || mr[i] != dr[i] {
			r.ByteIdentical = false
			break
		}
	}

	// Point scans. WarmFor pre-builds the column indexes on both backends
	// so the timed region measures row retrieval, not index construction.
	// The disk cold pass is the first to probe the reopened store; the hot
	// passes repeat it.
	disk.WarmFor(nil)
	probes := a11Probes(mem, keys, queries)
	diskProbes := a11Probes(disk, keys, queries)
	want := queries * fanout
	coldStart = time.Now()
	if got := a11PointPass(mem, key, probes); got != want {
		panic(fmt.Sprintf("A11: memory point pass %d rows, want %d", got, want))
	}
	r.MemFirstPointNs = float64(time.Since(coldStart).Nanoseconds()) / float64(queries)
	r.MemPointNs = a11Median(func() { a11PointPass(mem, key, probes) }) / float64(queries)

	coldStart = time.Now()
	if got := a11PointPass(disk, key, diskProbes); got != want {
		panic(fmt.Sprintf("A11: disk point pass %d rows, want %d", got, want))
	}
	r.DiskColdPointNs = float64(time.Since(coldStart).Nanoseconds()) / float64(queries)
	r.DiskHotPointNs = a11Median(func() { a11PointPass(disk, key, diskProbes) }) / float64(queries)

	if r.MemPointNs > 0 {
		r.HotVsMemoryX = r.DiskHotPointNs / r.MemPointNs
	}
	if r.MemFirstPointNs > 0 {
		r.FirstVsMemoryX = r.DiskColdPointNs / r.MemFirstPointNs
	}
	return r
}

// a11Storage is experiment A11: the persistent-EDB cost model. It compares
// the in-memory and disk-backed Storage implementations on full scans and
// point scans, first touch after a reopen and repeated. With -json the
// measurements are written out in BENCH_9.json's shape (the committed
// BENCH_9.json is the historical record of the tuple-LRU store).
func a11Storage(quick bool) {
	header("A11", "persistent EDB: memory vs disk-backed storage",
		"a disk-backed segment store makes mpqd restartable; reading rows in place through the segment mapping must keep its point-scan latency within the same regime as the in-memory store")

	r := a11Measure(quick)

	row("metric", "memory first", "memory", "disk cold", "disk hot/warm")
	row("---", "---", "---", "---", "---")
	row("full scan (us)", "-", fmt.Sprintf("%.0f", r.MemFullScanUs),
		fmt.Sprintf("%.0f", r.DiskColdScanUs), fmt.Sprintf("%.0f", r.DiskWarmScanUs))
	row("point scan (ns/query)", fmt.Sprintf("%.0f", r.MemFirstPointNs), fmt.Sprintf("%.0f", r.MemPointNs),
		fmt.Sprintf("%.0f", r.DiskColdPointNs), fmt.Sprintf("%.0f", r.DiskHotPointNs))
	fmt.Println()
	fmt.Printf("rows %d, point queries %d; disk point scan %.2fx of memory repeated, %.2fx first pass against first pass\n",
		r.Rows, r.PointQueries, r.HotVsMemoryX, r.FirstVsMemoryX)

	checks := r.a11Checks()
	names := make([]string, 0, len(checks))
	for name := range checks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println()
	for _, name := range names {
		verdict := "PASS"
		if !checks[name] {
			verdict = "FAIL"
		}
		fmt.Printf("check %-42s %s\n", name, verdict)
	}

	if jsonOut != "" {
		record := struct {
			Record      string          `json:"record"`
			Description string          `json:"description"`
			Machine     map[string]any  `json:"machine"`
			Storage     a11Result       `json:"storage"`
			Checks      map[string]bool `json:"checks"`
			Commentary  string          `json:"commentary"`
		}{
			Record: "BENCH_9",
			Description: "Persistent EDB storage comparison: the same workload (a binary " +
				"relation, every key owning exactly 4 rows) measured through the Storage " +
				"interface on the in-memory reference store and on the disk-backed segment " +
				"store reopened cold from its files. Rows are read in place through a " +
				"shared read-only mapping of the segment: full scans walk it in order, " +
				"point scans probe the column index and view the rows it names. Reproduce " +
				"with `go run ./cmd/bench -e A11 -json <file>`. Both within-k-of-memory " +
				"checks are re-measured quick in `bench -gate`.",
			Machine: machineInfo(),
			Storage: r,
			Checks:  checks,
			Commentary: "The contract the engine relies on is that a warmed disk store is " +
				"interchangeable with the in-memory one: point scans within 2x, identical " +
				"rows. Cold numbers are honest about what a restart costs — the first " +
				"touch of a mapped page is a fault (and on a genuinely cold OS page " +
				"cache would pay real IO on top) — but nothing in the process has to " +
				"warm: the store keeps no row cache, so the first pass and the repeats " +
				"take the same path.",
		}
		buf, err := json.MarshalIndent(record, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(jsonOut, append(buf, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("\nwrote %s\n", jsonOut)
	}
}
