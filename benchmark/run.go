package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
)

// workload is one named traffic mix. BENCHMARK.json lists the same names,
// each with the reason the workload exists.
type workload struct {
	name  string
	kind  opKind   // shape of the reads
	flags []string // mpqd flags beyond -program and -serve
	disk  bool     // -store DIR, restarted cold
	mixed bool     // writes beside reads, plus a subscriber
	embed bool     // in-process over dataset T, no daemon
}

var noResultCache = []string{"-result-cache", "-1"}

var workloads = []workload{
	{name: "point_mem", kind: opPoint, flags: noResultCache},
	{name: "reach_mem", kind: opReach, flags: noResultCache},
	{name: "reach_disk", kind: opReach, flags: noResultCache, disk: true},
	{name: "mixed_rw", kind: opReach, mixed: true},
	{name: "sg_embed", kind: opSG, embed: true},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// dataset generates the workload's database: T for sg_embed, D otherwise.
func (wl workload) dataset(seed int64, sh dShape) dataset {
	if wl.kind == opSG {
		return genT()
	}
	return genD(seed, sh)
}

// stream returns connection conn's request stream.
func (wl workload) stream(seed int64, conn int, ds dataset) *stream {
	if wl.mixed {
		return newMixedStream(seed, ds.(*graph))
	}
	return newStream(seed, conn, ds, wl.kind)
}

// connections is how many closed-loop request connections the workload
// opens. mixed_rw has one writer-reader; its second connection subscribes.
func (wl workload) connections() int {
	if wl.mixed || wl.embed {
		return 1
	}
	return clients()
}

// sizing scales a run: how long it measures and how much data it loads.
// Tests shrink both; every real run uses defaultSizing.
type sizing struct {
	warmup, timed time.Duration
	data          dShape
	setups        int // set-ups per run; setup_s is their median
}

func defaultSizing(seconds float64) sizing {
	timed := time.Duration(seconds * float64(time.Second))
	return sizing{warmup: min(timed/5, 3*time.Second), timed: timed, data: fullD, setups: 5}
}

// ---- statistics -----------------------------------------------------------

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// supportedTail is the highest percentile of n samples that still has ten
// samples beyond it; a tail read from fewer is noise.
func supportedTail(n int) float64 {
	tail := 500
	for _, perMille := range []int{900, 950, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			tail = perMille
		}
	}
	return float64(tail) / 10
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// ---- closed loop ----------------------------------------------------------

// target is a system under test that answers one request at a time: a wire
// connection, or a prepared query in this process.
type target interface {
	do(o op) (reply, error)
}

// embedTarget answers through the public in-process API.
type embedTarget struct {
	sys *mpq.System
	pq  *mpq.PreparedQuery
}

func (e embedTarget) do(o op) (reply, error) {
	if o.kind == opFact {
		rp := reply{term: '+', version: e.sys.EDBVersion()}
		if e.sys.AddFact(o.pred, o.args...) {
			rp.n = 1
		}
		return rp, nil
	}
	ans, err := e.pq.Eval(context.Background(), o.args...)
	if err != nil {
		return reply{}, err
	}
	return answerReply(ans), nil
}

// answerReply folds an in-process answer the way readReply folds T lines.
func answerReply(ans *mpq.Answer) reply {
	rp := reply{term: '.', n: len(ans.Tuples), tuples: len(ans.Tuples)}
	for _, t := range ans.Tuples {
		rp.hash += lineHash([]byte(strings.Join(t, "\t")))
	}
	return rp
}

// check compares a reply with the oracle and returns what is wrong with it,
// or "". An acknowledged fact is applied to the oracle here, so later
// expectations include it.
func check(o op, rp reply, err error, orc oracle) string {
	if err != nil {
		return err.Error()
	}
	if rp.term == 'E' {
		return "server error: " + rp.err
	}
	if o.kind == opFact {
		if rp.term != '+' {
			return fmt.Sprintf("fact answered with %q", rp.term)
		}
		if fresh := orc.apply(o); fresh != (rp.n == 1) {
			return fmt.Sprintf("fact %s: server said new=%d, oracle says new=%v", o.line, rp.n, fresh)
		}
		return ""
	}
	n, h := orc.expect(o)
	switch {
	case rp.term != '.':
		return fmt.Sprintf("query answered with %q", rp.term)
	case rp.n != rp.tuples:
		return fmt.Sprintf("%s: terminal line counts %d tuples, %d arrived", o.line, rp.n, rp.tuples)
	case rp.tuples != n:
		return fmt.Sprintf("%s: %d answers, oracle has %d", o.line, rp.tuples, n)
	case rp.hash != h:
		return fmt.Sprintf("%s: %d answers with hash %x, oracle has %x", o.line, n, rp.hash, h)
	}
	return ""
}

// mark is one acknowledged fact that must move the subscribed view.
type mark struct {
	sent    time.Time
	version uint64
}

// sample is one correct operation of the timed phase.
type sample struct {
	at   time.Duration // when it was sent, since the end of warm-up
	took time.Duration
	fact bool
}

func (sm sample) ms() float64 { return float64(sm.took) / float64(time.Millisecond) }

// tally is one connection's outcome.
type tally struct {
	samples   []sample
	marks     []mark
	attempted int // both phases: a wrong warm-up reply is still a failure
	failed    int
	firstFail string
}

// latencies lists the timed phase's latencies, queries and facts alike.
func (t *tally) latencies() []float64 {
	out := make([]float64, len(t.samples))
	for i, sm := range t.samples {
		out[i] = sm.ms()
	}
	return out
}

func (t *tally) fail(msg string) {
	t.failed++
	if t.firstFail == "" {
		t.firstFail = msg
	}
}

// closedLoop sends the stream's requests one after another, each only when
// the previous reply is complete and checked, until end. Latencies are kept
// from warmEnd on. A transport error ends the loop: the connection is gone.
// A non-nil tracer gets one span per request.
func closedLoop(tg target, s *stream, orc oracle, warmEnd, end time.Time, tr *tracer) *tally {
	t := &tally{}
	for {
		o := s.next()
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		id := -1
		if tr != nil {
			id = tr.begin("wire.request", -1, t.attempted+1)
		}
		rp, err := tg.do(o)
		d := time.Since(t0)
		if tr != nil {
			tr.end(id, 1)
		}
		t.attempted++
		if msg := check(o, rp, err, orc); msg != "" {
			t.fail(msg)
			if err != nil {
				break
			}
			continue
		}
		if o.fresh {
			t.marks = append(t.marks, mark{sent: t0, version: rp.version})
		}
		if at := t0.Sub(warmEnd); at >= 0 {
			t.samples = append(t.samples, sample{at, d, o.kind == opFact})
		}
	}
	return t
}

// ---- subscription ---------------------------------------------------------

type frame struct {
	version uint64
	at      time.Time
}

// subscriber is connection B of mixed_rw: it holds a live view of the
// anchor query, timestamps each "~" frame, and folds every tuple it is
// sent so the final view can be checked against the oracle.
type subscriber struct {
	c *client

	mu     sync.Mutex
	frames []frame
	tuples int
	hash   uint64
	err    error
	done   chan struct{}
}

func subscribe(addr string, q op) (*subscriber, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	s := &subscriber{c: c, done: make(chan struct{})}
	if err := c.send("subscribe " + q.line); err != nil {
		c.close()
		return nil, err
	}
	if err := s.readFrame(); err != nil { // the initial answer set
		c.close()
		return nil, err
	}
	c.conn.SetDeadline(time.Time{}) // deltas arrive whenever a fact lands
	go func() {
		defer close(s.done)
		for s.readFrame() == nil {
		}
	}()
	return s, nil
}

func (s *subscriber) readFrame() error {
	rp, err := readReply(s.c.r)
	at := time.Now()
	if err == nil && rp.term != '~' {
		err = fmt.Errorf("subscription answered with %q %s", rp.term, rp.err)
	}
	if err == nil && rp.n != rp.tuples {
		err = fmt.Errorf("frame counts %d tuples, %d arrived", rp.n, rp.tuples)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.err = err
		return err
	}
	s.frames = append(s.frames, frame{rp.version, at})
	s.tuples += rp.tuples
	s.hash += rp.hash
	return nil
}

// frameAt returns the arrival time of the first frame covering version v,
// waiting up to a second for it.
func (s *subscriber) frameAt(v uint64) (time.Time, error) {
	deadline := time.Now().Add(time.Second)
	for {
		s.mu.Lock()
		i := sort.Search(len(s.frames), func(i int) bool { return s.frames[i].version >= v })
		if i < len(s.frames) {
			at := s.frames[i].at
			s.mu.Unlock()
			return at, nil
		}
		err := s.err
		s.mu.Unlock()
		if err != nil {
			return time.Time{}, err
		}
		if time.Now().After(deadline) {
			return time.Time{}, errors.New("none within a second")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the connection and waits for the reader to end. Stopping
// twice is harmless.
func (s *subscriber) stop() {
	s.c.close()
	<-s.done
}

// finish ends the subscription and checks the accumulated view: the initial
// set plus every delta must be exactly the anchor query's answer now.
func (s *subscriber) finish(q op, orc oracle) string {
	s.stop()
	n, h := orc.expect(q)
	if s.tuples != n || s.hash != h {
		return fmt.Sprintf("subscribed view holds %d tuples (hash %x), oracle has %d (%x)", s.tuples, s.hash, n, h)
	}
	return ""
}

// deltaLatencies pairs each marked fact with the first frame that covers
// its version: the time from sending the fact on one connection to seeing
// its consequence on the other.
func (s *subscriber) deltaLatencies(marks []mark, t *tally) []float64 {
	var out []float64
	for _, m := range marks {
		t.attempted++
		at, err := s.frameAt(m.version)
		if err != nil {
			t.fail(fmt.Sprintf("no delta frame for version %d: %v", m.version, err))
			continue
		}
		out = append(out, float64(at.Sub(m.sent))/float64(time.Millisecond))
	}
	return out
}

// ---- end-to-end runs ------------------------------------------------------

// e2e is what one untraced run of one workload reports.
type e2e struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	P50        float64 `json:"latency_p50_ms"`
	P95        float64 `json:"latency_p95_ms"`
	TailP      float64 `json:"latency_tail_percentile"` // highest percentile with ten samples beyond it
	Tail       float64 `json:"latency_tail_ms"`
	P99        float64 `json:"latency_p99_ms"` // informational: over the whole timed phase, whatever the sample count
	Throughput float64 `json:"throughput_ops_s"`
	SetupS     float64 `json:"setup_s"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	FactP50    float64 `json:"fact_p50_ms,omitempty"`  // mixed_rw
	DeltaP50   float64 `json:"delta_p50_ms,omitempty"` // mixed_rw
	Samples    int     `json:"samples"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	FirstFail  string  `json:"first_failure,omitempty"`
}

// windows is how many equal slices of the timed phase a run is read in.
const windows = 10

// fold merges per-connection tallies into the report. Latency percentiles
// and throughput are each taken per window of the timed phase and the
// median window is reported: a burst of slowness from outside the program
// (a neighbour on the host, a collection in the generator) that covers
// fewer than half the windows then leaves the report alone. A latency
// belongs to the window its request was sent in; an operation counts
// towards each window's throughput by the share of its time spent there.
func (r *e2e) fold(tallies []*tally, timed time.Duration) {
	var lat, facts []float64
	perWindow := make([][]float64, windows)
	ops := make([]float64, windows)
	width := timed / windows
	for _, t := range tallies {
		r.Attempted += t.attempted
		r.Failed += t.failed
		if r.FirstFail == "" {
			r.FirstFail = t.firstFail
		}
		for _, sm := range t.samples {
			first := min(int(sm.at/width), windows-1)
			for w, end := first, sm.at+sm.took; w < windows && time.Duration(w)*width < end; w++ {
				inside := min(end, time.Duration(w+1)*width) - max(sm.at, time.Duration(w)*width)
				ops[w] += float64(inside) / float64(max(sm.took, 1))
			}
			if sm.fact {
				facts = append(facts, sm.ms())
				continue
			}
			lat = append(lat, sm.ms())
			perWindow[first] = append(perWindow[first], sm.ms())
		}
	}
	var p50s, p95s []float64
	for _, w := range perWindow {
		if len(w) > 0 {
			sort.Float64s(w)
			p50s, p95s = append(p50s, percentile(w, 50)), append(p95s, percentile(w, 95))
		}
	}
	for i := range ops {
		ops[i] /= width.Seconds()
	}
	r.P50, r.P95, r.Throughput = median(p50s), median(p95s), median(ops)
	sort.Float64s(lat)
	r.Samples = len(lat)
	r.TailP = supportedTail(len(lat))
	r.Tail, r.P99 = percentile(lat, r.TailP), percentile(lat, 99)
	if len(facts) > 0 {
		r.FactP50 = median(facts)
	}
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(ws *workspace, wl workload, seed int64, sz sizing) (*e2e, error) {
	r := &e2e{Workload: wl.name, Seed: seed}
	ds := wl.dataset(seed, sz.data)
	var err error
	if wl.embed {
		err = r.runEmbedded(wl, ds, sz)
	} else {
		err = r.runWire(ws, wl, ds, sz, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	if r.Failed > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d of %d operations failed, first: %s\n", wl.name, r.Failed, r.Attempted, r.FirstFail)
	}
	return r, nil
}

// setUp brings the workload's daemon up sz.setups times, each from exec to
// the first correct answer, and leaves the last one running. For the disk
// workload the store is built once beforehand and the daemon stopped with
// SIGTERM, so every timed start is a cold restart that replays recovery.
func (ws *workspace) setUp(wl workload, ds dataset, sz sizing, traced bool) (*daemon, []float64, error) {
	prog, err := ws.writeProgram(wl.name+".dl", ds.program())
	if err != nil {
		return nil, nil, err
	}
	flags := wl.flags
	if wl.disk {
		store, err := ws.freshDir(wl.name + ".store")
		if err != nil {
			return nil, nil, err
		}
		flags = append(append([]string(nil), flags...), "-store", store)
		d, err := ws.startDaemon(prog, false, flags)
		if err != nil {
			return nil, nil, fmt.Errorf("building the store: %w", err)
		}
		// Wait for an answer before stopping: mpqd listens a moment before it
		// installs its SIGTERM handler, and only a served query proves the
		// handler (which syncs the store) is in place.
		msg := firstAnswer(d.addr, ds)
		if err := d.stop(); err != nil {
			return nil, nil, fmt.Errorf("building the store: %w", err)
		}
		if msg != "" {
			return nil, nil, fmt.Errorf("building the store: first answer wrong: %s", msg)
		}
	}
	var d *daemon
	var times []float64
	for i := 0; i < sz.setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		if d, err = ws.startDaemon(prog, traced, flags); err != nil {
			return nil, nil, err
		}
		if msg := firstAnswer(d.addr, ds); msg != "" {
			d.stop()
			return nil, nil, fmt.Errorf("first answer wrong: %s", msg)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return d, times, nil
}

// firstAnswer asks the anchor query once; a correct reply is readiness.
func firstAnswer(addr string, ds dataset) string {
	c, err := dial(addr)
	if err != nil {
		return err.Error()
	}
	defer c.close()
	q := ds.anchor()
	rp, err := c.do(q)
	return check(q, rp, err, ds.oracle())
}

// runWire drives the workload over the line protocol against a real mpqd
// child and fills r. With an observer the daemon also exports /metrics,
// whose counters are read around the run, and every request gets a span.
func (r *e2e) runWire(ws *workspace, wl workload, ds dataset, sz sizing, obs *wireObserver) error {
	d, setups, err := ws.setUp(wl, ds, sz, obs != nil)
	if err != nil {
		return err
	}
	r.SetupS = median(setups)
	tallies, err := driveWire(d, wl, ds, sz, r, obs)
	if err == nil {
		r.PeakRSSMB, err = d.peakRSSMB()
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	r.fold(tallies, sz.timed)
	return nil
}

// driveWire opens the workload's connections against d and runs warm-up
// plus the timed phase. Deltas are timed on a subscription: mixed_rw's own
// during the run, or for an observer a short burst of facts afterwards.
func driveWire(d *daemon, wl workload, ds dataset, sz sizing, r *e2e, obs *wireObserver) ([]*tally, error) {
	var tr *tracer
	if obs != nil {
		tr = obs.tr
	}
	conns := make([]*client, wl.connections())
	for i := range conns {
		c, err := dial(d.addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		conns[i] = c
	}
	var sub *subscriber
	if wl.mixed || obs != nil {
		var err error
		if sub, err = subscribe(d.addr, ds.anchor()); err != nil {
			return nil, err
		}
		defer sub.stop()
	}
	warmEnd := time.Now().Add(sz.warmup)
	end := warmEnd.Add(sz.timed)
	tallies := make([]*tally, len(conns))
	var wg sync.WaitGroup
	var scrapeErr error
	if obs != nil {
		// The counters' starting point is the end of warm-up, so plan misses
		// and first-use set-up inside the daemon stay out of the ratios.
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(warmEnd))
			obs.before, scrapeErr = d.scrape()
		}()
	}
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[i] = closedLoop(c, wl.stream(r.Seed, i, ds), ds.oracle(), warmEnd, end, tr)
		}()
	}
	wg.Wait()
	if scrapeErr != nil {
		return nil, scrapeErr
	}
	if sub != nil {
		t := tallies[0]
		if !wl.mixed {
			// The burst's facts are not the workload's operations: keep
			// their tally apart from the latencies, but count its checks.
			now := time.Now()
			burst := closedLoop(conns[0], newStream(r.Seed, 0, ds, opFact), ds.oracle(), now, now.Add(sz.timed/10), nil)
			t.attempted, t.failed = t.attempted+burst.attempted, t.failed+burst.failed
			if t.firstFail == "" {
				t.firstFail = burst.firstFail
			}
			t.marks = burst.marks
			r.FactP50 = median(burst.latencies())
		}
		if deltas := sub.deltaLatencies(t.marks, t); len(deltas) > 0 {
			r.DeltaP50 = median(deltas)
		}
		t.attempted++
		if msg := sub.finish(ds.anchor(), ds.oracle()); msg != "" {
			t.fail(msg)
		}
	}
	if obs != nil {
		var err error
		if obs.after, err = d.scrape(); err != nil {
			return nil, err
		}
	}
	return tallies, nil
}

// embedOpts is sg_embed's evaluation setting: the paper's plain sequential
// path, one goroutine per node and no worker shards.
var embedOpts = []mpq.Option{mpq.WithPartitions(1)}

// runEmbedded measures sg_embed: PreparedQuery.Eval in this process, one
// goroutine, memory backend. Set-up is Load to the first correct answer.
func (r *e2e) runEmbedded(wl workload, ds dataset, sz sizing) error {
	var tg embedTarget
	var setups []float64
	// In-process set-up is milliseconds, so take more of them than a daemon
	// start affords.
	for i := 0; i < 3*sz.setups; i++ {
		t0 := time.Now()
		sys, err := mpq.Load(ds.program())
		if err != nil {
			return err
		}
		q := ds.anchor()
		pq, err := sys.Prepare(q.line, embedOpts...)
		if err != nil {
			return err
		}
		tg = embedTarget{sys, pq}
		rp, err := tg.do(q)
		if msg := check(q, rp, err, ds.oracle()); msg != "" {
			return fmt.Errorf("first answer wrong: %s", msg)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.SetupS = median(setups)
	warmEnd := time.Now().Add(sz.warmup)
	t := closedLoop(tg, wl.stream(r.Seed, 0, ds), ds.oracle(), warmEnd, warmEnd.Add(sz.timed), nil)
	r.fold([]*tally{t}, sz.timed)
	var err error
	r.PeakRSSMB, err = vmHWM(os.Getpid())
	return err
}
