package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/ast"
	"repro/internal/edb"
	"repro/internal/engine"
	"repro/internal/msg"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/symtab"
	"repro/internal/trace"
	"repro/internal/transport"
)

// The traced run. Tracing lives in the benchmark, not in the program: a
// span is recorded around each call this file makes into a layer's public
// functions, driven by the same generated requests as the end-to-end run,
// and the daemon's own /metrics counters are read before and after. Spans
// inside the program are a later change; until then the engine's inner
// layers (transport, relation, edb) are measured by calling them directly
// and by the per-evaluation counts the daemon already exports.

// span is one timed call, or N back-to-back calls when a single call is too
// short for the clock.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the span that caused this one, -1 for none
	Req    int    `json:"req"`    // spans of one request share it
	N      int    `json:"n"`      // calls covered
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, N: 1})
	id := len(t.spans) - 1
	t.spans[id].Start = int64(time.Since(t.origin))
	return id
}

func (t *tracer) end(id, n int) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].End, t.spans[id].N = now, n
	t.mu.Unlock()
}

// time records one span around f, which makes n calls.
func (t *tracer) time(name string, parent, req, n int, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id, n)
}

// perCall returns the nanoseconds per call of every span named name.
func (t *tracer) perCall(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(s.N))
		}
	}
	return out
}

// p50 is the median nanoseconds per call over the spans named name.
func (t *tracer) p50(name string) float64 { return median(t.perCall(name)) }

// write fills in self times (a span's duration minus the part its children
// cover) and stores the spans as JSON.
func (t *tracer) write(path string) error {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Results of measured calls land here so the compiler cannot drop the calls.
var (
	sinkProg   *ast.Program
	sinkGraph  *rgg.Graph
	sinkResult *engine.Result
	sinkTuples []relation.Tuple
	sinkMsg    msg.Message
	sinkBool   bool
	sinkInt    int
)

// layerRun is one traced run of one workload.
type layerRun struct {
	ws   *workspace
	wl   workload
	seed int64
	sz   sizing
	tr   *tracer
	m    map[string]float64 // per-layer metric name -> value

	attempted, failed int
	firstFail         string
}

// note counts one check; msg says what was wrong, "" for nothing.
func (lr *layerRun) note(msg string) {
	lr.attempted++
	if msg != "" {
		lr.failed++
		if lr.firstFail == "" {
			lr.firstFail = msg
		}
	}
}

// noteCount checks an answer count the engine returned against the oracle's.
func (lr *layerRun) noteCount(what string, got, want int) {
	msg := ""
	if got != want {
		msg = fmt.Sprintf("%s: %d answers, oracle has %d", what, got, want)
	}
	lr.note(msg)
}

// partitions is the worker-shard count the workload evaluates with: the
// daemon's default (one per CPU) on the wire, one for sg_embed.
func (wl workload) partitions() int {
	if wl.embed {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// runLayers produces every per-layer metric for one workload.
func runLayers(ws *workspace, wl workload, seed int64, sz sizing) (*layerRun, error) {
	lr := &layerRun{ws: ws, wl: wl, seed: seed, sz: sz, tr: newTracer(), m: map[string]float64{}}
	for _, stage := range []func() error{lr.inProcess, lr.wire, lr.micro} {
		if err := stage(); err != nil {
			return nil, fmt.Errorf("%s traced: %w", wl.name, err)
		}
	}
	if err := lr.tr.write(filepath.Join(ws.root, buildDir, "trace-"+wl.name+".json")); err != nil {
		return nil, err
	}
	if lr.failed > 0 {
		fmt.Fprintf(os.Stderr, "%s traced: %d of %d checks failed, first: %s\n", wl.name, lr.failed, lr.attempted, lr.firstFail)
	}
	return lr, nil
}

// reads pre-generates the workload's first n read requests, so measured
// loops contain no generator work.
func (lr *layerRun) reads(ds dataset, n int) []op {
	s := lr.wl.stream(lr.seed, 0, ds)
	var ops []op
	for len(ops) < n {
		if o := s.next(); o.kind != opFact {
			ops = append(ops, o)
		}
	}
	return ops
}

// ---- stage 1: the layers above the engine, in this process ----------------

func (lr *layerRun) inProcess() error {
	tr, m := lr.tr, lr.m
	ds := lr.wl.dataset(lr.seed, lr.sz.data)
	orc := ds.oracle()
	src := ds.program()
	ctx := context.Background()
	var err error

	for i := 0; i < 3 && err == nil; i++ {
		tr.time("parser.Parse/program", -1, 0, 1, func() { sinkProg, err = parser.Parse(src) })
	}
	if err != nil {
		return err
	}
	m["parser.program_parse_ms"] = tr.p50("parser.Parse/program") / 1e6

	var sys *mpq.System
	if lr.wl.disk {
		var dir string
		if dir, err = lr.ws.freshDir("inproc.store"); err != nil {
			return err
		}
		tr.time("mpq.OpenSystem", -1, 0, 1, func() { sys, err = mpq.OpenSystem(dir, src) })
	} else {
		tr.time("mpq.Load", -1, 0, 1, func() { sys, err = mpq.Load(src) })
	}
	if err != nil {
		return err
	}
	defer sys.Close()

	for i := 0; i < 5 && err == nil; i++ {
		tr.time("rgg.Build", -1, 0, 1, func() { sinkGraph, err = rgg.Build(sys.Program, rgg.Options{}) })
	}
	if err != nil {
		return err
	}
	m["rgg.build_us"] = tr.p50("rgg.Build") / 1e3
	m["rgg.nodes"] = float64(len(sinkGraph.Nodes))

	// The workload's own partition count, and the other end of the
	// P=1 / P=nproc comparison.
	own, alt := lr.wl.partitions(), 1
	if lr.wl.embed {
		alt = runtime.GOMAXPROCS(0)
	}
	ops := lr.reads(ds, 4096)
	var pqAlt *mpq.PreparedQuery
	for i := 0; i < 5 && err == nil; i++ {
		tr.time("mpq.System.Prepare", -1, 0, 1, func() { pqAlt, err = sys.Prepare(ops[0].line, mpq.WithPartitions(alt)) })
	}
	if err != nil {
		return err
	}
	m["mpq.prepare_miss_us"] = tr.p50("mpq.System.Prepare") / 1e3

	// One request = parse its line, resolve it through the plan cache,
	// evaluate it: what serve does per line, minus admission and framing.
	ownOpt := mpq.WithPartitions(own)
	var pq *mpq.PreparedQuery
	for i, end := 0, time.Now().Add(lr.sz.timed/5); time.Now().Before(end); i++ {
		o := ops[i%len(ops)]
		req := i + 1
		root := tr.begin("request", -1, req)
		tr.time("parser.Parse", root, req, 1, func() { sinkProg, err = parser.Parse(o.line) })
		if err != nil {
			return err
		}
		var args []string
		var reused bool
		id := tr.begin("mpq.System.QueryPrepared", root, req)
		pq, args, reused, err = sys.QueryPrepared(o.line, ownOpt)
		tr.end(id, 1)
		if err != nil {
			return err
		}
		if !reused {
			tr.spans[id].Name += "/miss"
		}
		var ans *mpq.Answer
		tr.time("mpq.PreparedQuery.Eval", root, req, 1, func() { ans, err = pq.Eval(ctx, args...) })
		tr.end(root, 1)
		if err != nil {
			return err
		}
		lr.note(check(o, answerReply(ans), nil, orc))
	}
	// The same requests at the other partition count, in a loop of their
	// own: alternating two plans on one goroutine makes each miss its
	// scratch pool, which is not what either setting costs in service.
	for i, end := 0, time.Now().Add(lr.sz.timed/10); time.Now().Before(end); i++ {
		o := ops[i%len(ops)]
		var ans *mpq.Answer
		tr.time("mpq.PreparedQuery.Eval/alt", -1, i+1, 1, func() { ans, err = pqAlt.Eval(ctx, o.args...) })
		if err != nil {
			return err
		}
		lr.note(check(o, answerReply(ans), nil, orc))
	}
	m["parser.query_parse_us"] = tr.p50("parser.Parse") / 1e3
	m["mpq.plan_lookup_us"] = tr.p50("mpq.System.QueryPrepared") / 1e3
	m["mpq.eval_p50_ms"] = tr.p50("mpq.PreparedQuery.Eval") / 1e6
	p1, pn := tr.p50("mpq.PreparedQuery.Eval/alt"), tr.p50("mpq.PreparedQuery.Eval")
	if lr.wl.embed {
		p1, pn = pn, p1
	}
	m["engine.p1_over_pn_ratio"] = p1 / pn

	return lr.engineLayer(sys, pq, ds, ops)
}

// engineLayer calls the engine directly on the plan's prebuilt graph: plain
// runs, runs with a profile armed, allocation per run, and delta rounds.
func (lr *layerRun) engineLayer(sys *mpq.System, pq *mpq.PreparedQuery, ds dataset, ops []op) error {
	tr, m := lr.tr, lr.m
	orc := ds.oracle()
	syms := sys.DB.Symbols()
	opts := func(o op) engine.Options {
		return engine.Options{Partitions: lr.wl.partitions(), Bind: []symtab.Sym{syms.Intern(o.args[0])}}
	}
	var plan *engine.Plan
	tr.time("engine.NewPlan", -1, 0, 1, func() { plan = engine.NewPlan(pq.Graph(), sys.DB) })

	run := func(name string, i int, o op, eo engine.Options) error {
		var err error
		tr.time(name, -1, i+1, 1, func() { sinkResult, err = plan.Run(eo) })
		if err != nil {
			return err
		}
		n, _ := orc.expect(o)
		lr.noteCount(name+" "+o.line, sinkResult.Answers.Len(), n)
		return nil
	}

	// Allocation per run, over a fixed number of runs with nothing else in
	// the loop.
	const allocRuns = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		var err error
		if sinkResult, err = plan.Run(opts(ops[i%len(ops)])); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	m["engine.allocs_per_eval"] = float64(after.Mallocs-before.Mallocs) / allocRuns
	m["engine.bytes_per_eval"] = float64(after.TotalAlloc-before.TotalAlloc) / allocRuns

	// Plain and profiled runs alternate so drift hits both alike.
	for i, end := 0, time.Now().Add(lr.sz.timed*3/20); time.Now().Before(end); i++ {
		o := ops[i%len(ops)]
		if err := run("engine.Plan.Run", i, o, opts(o)); err != nil {
			return err
		}
		armed := opts(o)
		armed.Profile = trace.NewProfile()
		if err := run("engine.Plan.Run/profile", i, o, armed); err != nil {
			return err
		}
	}
	m["engine.plan_run_p50_ms"] = tr.p50("engine.Plan.Run") / 1e6
	m["trace.profile_overhead_ratio"] = tr.p50("engine.Plan.Run/profile") / tr.p50("engine.Plan.Run")

	// Delta rounds: a retained evaluation of the anchor query, re-driven
	// after each inserted fact. Every fact adds exactly one answer.
	anchor := ds.anchor()
	pqAnchor, err := sys.Prepare(anchor.line, mpq.WithPartitions(lr.wl.partitions()))
	if err != nil {
		return err
	}
	inc := engine.NewPlan(pqAnchor.Graph(), sys.DB).Incremental(opts(anchor))
	res, err := inc.Round(nil, nil)
	if err != nil {
		return err
	}
	n, _ := orc.expect(anchor)
	lr.noteCount("full round of "+anchor.line, res.Answers.Len(), n)
	r := rand.New(rand.NewSource(lr.seed))
	for i := 0; i < 32; i++ {
		f := ds.freshFact(r)
		sys.AddFact(f.pred, f.args...)
		orc.apply(f)
		tr.time("engine.Incremental.Round", -1, i+1, 1, func() { res, err = inc.Round(nil, nil) })
		if err != nil {
			return err
		}
		lr.noteCount("delta round after "+f.line, res.Answers.Len(), 1)
	}
	m["engine.incremental_round_us"] = tr.p50("engine.Incremental.Round") / 1e3
	return nil
}

// ---- stage 2: the wire, against a daemon with and without -metrics --------

// wireObserver is what a traced wire run collects beyond the end-to-end
// report: client-side spans, and the daemon's counters before and after.
type wireObserver struct {
	tr            *tracer
	before, after map[string]float64
}

func (lr *layerRun) wire() error {
	m := lr.m
	// sg_embed has no daemon of its own; its serve rows come from a side
	// daemon over T that the end-to-end run never starts, and say what the
	// wire would add.
	wl := lr.wl
	if wl.embed {
		wl.embed, wl.flags = false, noResultCache
	}
	sz := lr.sz
	sz.warmup, sz.timed, sz.setups = lr.sz.warmup/2, lr.sz.timed/4, 1

	// Same requests twice: a plain daemon with no spans recorded, then a
	// daemon with -metrics and a span per request.
	plain := &e2e{Seed: lr.seed}
	if err := plain.runWire(lr.ws, wl, wl.dataset(lr.seed, sz.data), sz, nil); err != nil {
		return err
	}
	obs := &wireObserver{tr: lr.tr}
	traced := &e2e{Seed: lr.seed}
	if err := traced.runWire(lr.ws, wl, wl.dataset(lr.seed, sz.data), sz, obs); err != nil {
		return err
	}
	for _, r := range []*e2e{plain, traced} {
		lr.attempted += r.Attempted
		lr.failed += r.Failed
		if lr.firstFail == "" {
			lr.firstFail = r.FirstFail
		}
	}

	d := func(series string) float64 { return obs.after[series] - obs.before[series] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	evals := d("mpq_serve_eval_seconds_count")
	msgs := 0.0
	for _, kind := range []string{"relation_request", "tuple_request", "tuple", "tuple_batch", "end", "request_end"} {
		msgs += d(`mpq_messages_total{kind="` + kind + `"}`)
	}
	planHit, planMiss := d(`mpq_plan_cache_total{result="hit"}`), d(`mpq_plan_cache_total{result="miss"}`)
	resHit, resMiss := d(`mpq_serve_result_cache_total{result="hit"}`), d(`mpq_serve_result_cache_total{result="miss"}`)

	m["mpq.plan_hit_ratio"] = ratio(planHit, planHit+planMiss)
	m["serve.wire_overhead_us"] = (traced.P50 - m["mpq.eval_p50_ms"]) * 1e3
	m["serve.queue_wait_mean_us"] = ratio(d("mpq_serve_queue_wait_seconds_sum"), d("mpq_serve_queue_wait_seconds_count")) * 1e6
	m["serve.eval_mean_ms"] = ratio(d("mpq_serve_eval_seconds_sum"), evals) * 1e3
	m["serve.result_hit_ratio"] = ratio(resHit, resHit+resMiss)
	m["serve.shed_total"] = d("mpq_serve_shed_total")
	m["serve.wire_p99_ms"] = traced.P99
	m["serve.fact_p50_us"] = traced.FactP50 * 1e3
	m["serve.delta_frame_p50_ms"] = traced.DeltaP50
	m["engine.messages_per_eval"] = ratio(msgs, evals)
	m["engine.protocol_msgs_per_eval"] = ratio(d("mpq_protocol_messages_total"), evals)
	m["engine.protocol_rounds_per_eval"] = ratio(d("mpq_protocol_rounds_total"), evals)
	m["engine.rows_per_eval"] = ratio(d(`mpq_rows_total{dir="delivered"}`)+d(`mpq_rows_total{dir="requested"}`), evals)
	m["engine.join_probes_per_eval"] = ratio(d("mpq_join_probes_total"), evals)
	m["engine.derived_per_eval"] = ratio(d("mpq_tuples_derived_total"), evals)
	m["engine.dup_per_eval"] = ratio(d("mpq_tuples_duplicate_total"), evals)
	m["engine.dedup_useful_ratio"] = ratio(d("mpq_tuples_stored_total"), d("mpq_tuples_derived_total"))
	m["edb.scans_per_eval"] = ratio(d("mpq_edb_scans_total"), evals)
	m["edb.tuples_per_eval"] = ratio(d("mpq_edb_tuples_total"), evals)
	m["trace.bench_overhead_ratio"] = ratio(traced.P50, plain.P50)
	return nil
}

// ---- stage 3: the layers under the engine, called directly ----------------

const (
	microMsgs   = 200_000 // messages per mailbox measurement
	microProbes = 100_000 // point lookups per scan measurement
	hotKeys     = 1_000   // distinct keys of the hot pass: well inside the tuple LRU
)

func (lr *layerRun) micro() error {
	lr.microTransport()
	// Rows for relation and edb are always D's, whatever the workload, so
	// these numbers compare across workloads.
	g := genD(lr.seed, lr.sz.data)
	lr.microRelation(g)
	return lr.microEDB(g)
}

func (lr *layerRun) microTransport() {
	tr, m := lr.tr, lr.m
	x := msg.Message{Kind: msg.Tuple, To: 0, Vals: []symtab.Sym{1, 2}}
	// producers goroutines put microMsgs messages in total; this goroutine
	// gets them all.
	pump := func(name string, producers int) {
		box := transport.NewMailbox()
		per := microMsgs / producers
		tr.time(name, -1, 0, per*producers, func() {
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						box.Put(x)
					}
				}()
			}
			for i := 0; i < per*producers; i++ {
				sinkMsg, sinkBool = box.Get()
			}
			wg.Wait()
		})
	}
	for i := 0; i < 3; i++ {
		pump("transport.Mailbox.Put+Get", 1)
		pump("transport.Mailbox.Put+Get/contended", runtime.GOMAXPROCS(0))
		local := transport.NewLocal(1)
		tr.time("transport.Local.Send", -1, 0, microMsgs, func() {
			for i := 0; i < microMsgs; i++ {
				local.Send(x)
			}
		})
	}
	m["transport.mailbox_put_get_ns"] = tr.p50("transport.Mailbox.Put+Get")
	m["transport.mailbox_contended_ns"] = tr.p50("transport.Mailbox.Put+Get/contended")
	m["transport.local_send_ns"] = tr.p50("transport.Local.Send")
}

// rows renders g's edges as tuples, node i becoming symbol ids[i].
func (g *graph) rows(ids []symtab.Sym) []relation.Tuple {
	var out []relation.Tuple
	for u, vs := range g.adj {
		for _, v := range vs {
			out = append(out, relation.Tuple{ids[u], ids[v]})
		}
	}
	return out
}

// microRelation measures relation at the size the engine uses it: a node's
// temporary relation holds about one cluster's worth of tuples per
// evaluation and is hot in cache, unlike a base relation (which edb.mem_*
// measures). One relation per cluster of D, so the median is over many.
func (lr *layerRun) microRelation(g *graph) {
	tr, m := lr.tr, lr.m
	ids := make([]symtab.Sym, len(g.names))
	for i := range ids {
		ids[i] = symtab.Sym(i + 1)
	}
	r := rand.New(rand.NewSource(lr.seed))
	all := g.rows(ids) // grouped by source node, so cluster k's rows are one run of shape.edges
	nodes, edges := g.shape.nodes, g.shape.edges
	var mallocs uint64
	var before, after runtime.MemStats
	for k := 0; k < g.shape.clusters; k++ {
		rows := all[k*edges : (k+1)*edges]
		rel := relation.New(2)
		insertAll := func(name string) {
			tr.time(name, -1, k+1, len(rows), func() {
				for _, t := range rows {
					sinkBool = rel.Insert(t)
				}
			})
		}
		runtime.ReadMemStats(&before)
		insertAll("relation.Insert")
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		insertAll("relation.Insert/dup")
		sinkTuples = rel.Select(relation.Binding{rows[0][0], symtab.NoSym}) // builds the index
		tr.time("relation.Select", -1, k+1, len(rows), func() {
			for range rows {
				sinkTuples = rel.Select(relation.Binding{ids[k*nodes+r.Intn(nodes)], symtab.NoSym})
			}
		})
	}
	m["relation.insert_allocs"] = float64(mallocs) / float64(len(all))
	m["relation.insert_ns"] = tr.p50("relation.Insert")
	m["relation.dup_insert_ns"] = tr.p50("relation.Insert/dup")
	m["relation.probe_ns"] = tr.p50("relation.Select")
}

// cacheStats is the disk store's tuple-LRU counter pair. It is asked for
// through an interface so the benchmark still builds if a later change
// removes the cache; the hit ratio then reads 0.
type cacheStats interface {
	CacheStats() (hits, misses uint64)
}

// edbProbe measures one Storage backend over D's rows.
type edbProbe struct {
	tr  *tracer
	st  edb.Storage
	ids []symtab.Sym // node -> symbol in st's table
	r   *rand.Rand
}

var edgeKey = ast.PredKey{Name: "edge", Arity: 2}

func newEDBProbe(tr *tracer, st edb.Storage, g *graph, seed int64) *edbProbe {
	p := &edbProbe{tr: tr, st: st, ids: make([]symtab.Sym, len(g.names)), r: rand.New(rand.NewSource(seed))}
	for i, n := range g.names {
		p.ids[i] = st.Symbols().Intern(n)
	}
	return p
}

func (p *edbProbe) insert(name string, rows []relation.Tuple) {
	p.tr.time(name, -1, 0, len(rows), func() {
		for _, t := range rows {
			sinkBool = p.st.Insert(edgeKey, t)
		}
	})
}

// point scans n keys drawn uniformly from the first `among` nodes.
func (p *edbProbe) point(name string, n, among int) {
	p.tr.time(name, -1, 0, n, func() {
		for i := 0; i < n; i++ {
			for t := range p.st.Scan(edgeKey, relation.Binding{p.ids[p.r.Intn(among)], symtab.NoSym}) {
				sinkInt += len(t)
			}
		}
	})
}

func (p *edbProbe) full(name string) {
	for i := 0; i < 3; i++ {
		p.tr.time(name, -1, 0, 1, func() {
			for t := range p.st.Scan(edgeKey, nil) {
				sinkInt += len(t)
			}
		})
	}
}

func (lr *layerRun) microEDB(g *graph) error {
	tr, m := lr.tr, lr.m
	all, hot := len(g.names), min(hotKeys, len(g.names))

	mem := newEDBProbe(tr, edb.NewMemory(), g, lr.seed)
	mem.insert("edb.Storage.Insert/mem", g.rows(mem.ids))
	mem.point("edb.Storage.Scan/warm-up", 1, all) // builds the index outside the measurement
	mem.full("edb.Storage.Scan/mem-full")
	mem.point("edb.Storage.Scan/mem-point", microProbes, all)
	m["edb.mem_insert_ns"] = tr.p50("edb.Storage.Insert/mem")
	m["edb.mem_scan_full_us"] = tr.p50("edb.Storage.Scan/mem-full") / 1e3
	m["edb.mem_scan_point_ns"] = tr.p50("edb.Storage.Scan/mem-point")

	dir, err := lr.ws.freshDir("micro.store")
	if err != nil {
		return err
	}
	store, err := edb.OpenDisk(dir)
	if err != nil {
		return err
	}
	disk := newEDBProbe(tr, store, g, lr.seed)
	disk.insert("edb.Storage.Insert/disk", g.rows(disk.ids))
	// Reopen the full store a few times: OpenDisk replays the logs and
	// rebuilds the dedup sets and statistics. Symbol ids survive a reopen.
	for i := 0; i < 3; i++ {
		if err := store.Close(); err != nil {
			return err
		}
		tr.time("edb.OpenDisk", -1, 0, 1, func() { store, err = edb.OpenDisk(dir) })
		if err != nil {
			return err
		}
	}
	defer store.Close()
	disk.st = store
	disk.point("edb.Storage.Scan/warm-up", 1, all)
	disk.full("edb.Storage.Scan/disk-full")
	// Cold: keys uniform over all of D, which is three times the LRU, so
	// most rows are fetched from the segment file (through the OS page
	// cache: this is the store's own cost, not a device's).
	cs, hasCache := disk.st.(cacheStats)
	var h0, m0, h1, m1 uint64
	if hasCache {
		h0, m0 = cs.CacheStats()
	}
	disk.point("edb.Storage.Scan/disk-point-cold", microProbes/2, all)
	if hasCache {
		h1, m1 = cs.CacheStats()
	}
	// Hot: a key set well inside the LRU, touched once before measuring.
	disk.point("edb.Storage.Scan/warm-up", 4*hot, hot)
	disk.point("edb.Storage.Scan/disk-point-hot", microProbes, hot)
	m["edb.disk_insert_ns"] = tr.p50("edb.Storage.Insert/disk")
	m["edb.disk_open_ms"] = tr.p50("edb.OpenDisk") / 1e6
	m["edb.disk_scan_full_us"] = tr.p50("edb.Storage.Scan/disk-full") / 1e3
	m["edb.disk_scan_point_cold_ns"] = tr.p50("edb.Storage.Scan/disk-point-cold")
	m["edb.disk_scan_point_hot_ns"] = tr.p50("edb.Storage.Scan/disk-point-hot")
	m["edb.disk_cache_hit_ratio"] = 0
	if lookups := float64(h1 - h0 + m1 - m0); lookups > 0 {
		m["edb.disk_cache_hit_ratio"] = float64(h1-h0) / lookups
	}

	// Stored bytes per byte of user data, user data being the constants'
	// text as the facts spell it (two names per row).
	var stored, user int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			stored += info.Size()
		}
	}
	for u, vs := range g.adj {
		for _, v := range vs {
			user += int64(len(g.names[u]) + len(g.names[v]))
		}
	}
	m["edb.disk_bytes_per_user_byte"] = float64(stored) / float64(user)
	return nil
}
