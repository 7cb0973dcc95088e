// Package serve is mpqd's long-lived single-site serving mode: a Server
// owns one loaded System and answers many queries over its lifetime,
// amortizing compilation through the System's plan cache (every query goes
// through QueryPrepared, so repeated query shapes reuse their rule/goal
// graph and pooled engine scratch — see doc/PROTOCOL.md, "Plan reuse").
//
// Queries arrive over a newline-delimited TCP protocol and over POST
// /query on the diagnostics mux. Admission is multi-tenant and fair:
// MaxConcurrent queries evaluate at once, each tenant holds at most Quota
// of those slots, and excess requests wait in a bounded per-tenant queue
// drained by deficit-round-robin (see admitter). When a tenant's queue is
// full, or the estimated wait already exceeds the request's deadline, the
// request is shed immediately with the typed ErrOverloaded — overload
// degrades into fast rejections, never unbounded latency. In front of
// admission sits a result cache of live views (see resultCache), keyed by
// (plan, constants): each view is an mpq.Subscription over the key's
// retained evaluation plus the rows its rounds rendered, and a hit
// occupies no admission slot. A hit at the EDB version the rows cover
// replays them, byte-identical to the cold reply that filled the view. A
// hit at a newer version first brings the view forward by one delta round
// (Subscription.Poll): its reply is the same set as a fresh evaluation at
// the version it reached, in the cold reply's order followed by each
// round's new rows.
//
// # Line protocol
//
// The client sends one query per line, in the program's own syntax:
//
//	?- path(a, Y).
//
// A line "tenant NAME" switches the connection's admission tenant (no
// response; connections start as the default tenant). The server streams
// the response for each query, in order:
//
//	T <v1>\t<v2>...    one line per answer tuple, in derivation order (a
//	                   brought-forward cache hit: the cold reply's order,
//	                   then each round's new rows); a bare "T" is the
//	                   empty tuple of a ground query
//	. <n> plan=hit|miss  terminal: n answers; was the plan reused?
//	E <message>          terminal instead of ".": the query failed
//
// A line "fact <atom>." adds one ground fact to the EDB — the wire form
// of System.AddFact, and what makes subscriptions (below) drivable by
// remote writers. The reply is one line:
//
//   - <a> v=<version>    a=1: the fact was new (EDB now at <version>);
//     a=0: duplicate, nothing changed
//     E <message>          the atom was malformed or not ground
//
// Mutations exclude evaluations: a fact waits for in-flight query
// evaluations to finish and conversely, so no evaluation ever observes a
// half-applied change (delta rounds already serialize with mutations on
// the System's mutation lock).
//
// Queries on one connection run sequentially; concurrency comes from
// concurrent connections. The line "quit" (or EOF) closes the connection.
//
// # Subscriptions
//
// A line "subscribe <query>" dedicates the connection to a live view of
// that query (see doc/SUBSCRIPTIONS.md): the server streams the current
// answer set as T lines, then holds the connection open and streams each
// delta — the answers made newly derivable by AddFact/LoadData mutations —
// as further T lines. Every round ends with a frame line
//
//	~ <n> v=<version>   n tuples in this round; EDB version it covers
//
// so a client knows when the initial set (and each later delta) is
// complete. The first frame is sent even when the initial answer set is
// empty; later frames are only sent for rounds that derived something.
// The initial round passes fair admission like any query; delta rounds
// bypass it — they are serialized per System by the mutation lock and
// touch only the delta. A subscription ends with an E line when the query
// is invalid, the evaluation fails, or the server shuts down
// ("E shutting down"); the client ends it by sending "quit" or closing
// the connection. Version bumps reach subscribers only after the fact is
// visible, and every cache hit compares its view's version with the
// current one, so a subscriber reacting to a frame never sees a stale
// cached answer set.
package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/parser"
	"repro/internal/trace"
)

// Config adjusts a Server. The zero value serves with defaults.
type Config struct {
	// Strategy is the information-passing strategy compiled into every
	// plan ("" = greedy). It keys the plan cache alongside query shape.
	Strategy string
	// EDBDelay charges every EDB-leaf retrieval a simulated latency (see
	// mpq.WithEDBDelay) — the E12/A7 methodology for modelling disk or
	// remote-store access. The A8 bench uses it to keep serving
	// measurements latency-bound; production servers leave it zero.
	EDBDelay time.Duration
	// ReoptThreshold is the statistics-drift fraction past which cached
	// "auto" plans are re-optimized (see mpq.WithReoptThreshold): 0 uses
	// mpq.DefaultReoptThreshold, negative disables drift re-optimization.
	// Only meaningful with Strategy "auto".
	ReoptThreshold float64
	// MaxConcurrent is the admission limit: how many queries may evaluate
	// simultaneously (<=0 means DefaultMaxConcurrent, i.e. GOMAXPROCS).
	// Excess queries wait in bounded per-tenant queues.
	MaxConcurrent int
	// Quota caps one tenant's share of MaxConcurrent (<=0 means no
	// per-tenant cap below MaxConcurrent itself).
	Quota int
	// QueueDepth bounds each tenant's admission queue (<=0 means
	// DefaultQueueDepth). Requests arriving past the bound are shed with
	// ErrOverloaded.
	QueueDepth int
	// TenantWeights sets deficit-round-robin weights for named tenants;
	// unlisted tenants weigh 1. A weight-2 tenant drains twice as fast
	// under contention.
	TenantWeights map[string]int
	// ResultCacheSize bounds the result cache's live views: 0 means
	// DefaultResultCacheSize, negative disables the cache entirely. A
	// retained-byte budget (viewBudget) bounds them as well.
	ResultCacheSize int
	// SLOObjective, when positive, classifies each request against this
	// end-to-end latency objective, feeding the mpq_slo_requests_total
	// counters and the mpq_slo_burn_rate gauge.
	SLOObjective time.Duration
	// SLOTarget is the objective's good-fraction target (0 means 0.99).
	SLOTarget float64
	// SLOWindow is the burn-rate sliding window (0 means one minute).
	SLOWindow time.Duration
	// Timeout bounds each query's queueing plus evaluation time
	// (0 = unbounded).
	Timeout time.Duration
	// Stats receives every evaluation's counters, the plan-cache and
	// result-cache outcomes, shed counts, and the serving latency
	// histograms — point the diagnostics mux's /metrics at it.
	// Nil allocates a private accumulator.
	Stats *trace.Stats
	// Logf, when set, receives one line per served query.
	Logf func(format string, args ...any)
}

// DefaultMaxConcurrent is the admission limit when Config leaves
// MaxConcurrent unset: one evaluation per available CPU, since an evaluation
// runs on the one goroutine that admitted it.
func DefaultMaxConcurrent() int { return runtime.GOMAXPROCS(0) }

// DefaultQueueDepth bounds each tenant's admission queue when Config
// leaves QueueDepth unset.
const DefaultQueueDepth = 64

// DefaultResultCacheSize is the result-cache view bound when Config
// leaves ResultCacheSize at zero.
const DefaultResultCacheSize = 1024

// DefaultTenant is the admission tenant for requests that name none.
const DefaultTenant = "default"

// Server serves queries against one System. Create with New; it is ready
// immediately and safe for concurrent use.
type Server struct {
	sys   *mpq.System
	cfg   Config
	adm   *admitter
	cache *resultCache // nil when disabled
	slo   *sloTracker  // nil when no objective configured

	closed   chan struct{}   // closed when Shutdown/Close begins
	stop     context.Context // cancelled to abort in-flight evaluations
	stopEval context.CancelFunc
	once     sync.Once
	wg       sync.WaitGroup // live connections

	// evalMu excludes wire mutations ("fact" lines) from in-flight
	// evaluations: AddFact is documented as unsafe against a running
	// evaluation, so evaluations and result-cache rounds hold the read
	// side while the fact directive takes the write side. A request takes
	// it before any result-cache view's lock (see resultCache).
	// Subscription rounds do not participate — they already serialize
	// with mutations on the System's own mutation lock.
	evalMu sync.RWMutex

	mu        sync.Mutex
	draining  bool
	inflight  sync.WaitGroup // queries past beginQuery (guarded by mu+draining)
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
}

// New wraps sys in a Server with cfg's policies.
func New(sys *mpq.System, cfg Config) *Server {
	if cfg.Stats == nil {
		cfg.Stats = &trace.Stats{}
	}
	s := &Server{
		sys:       sys,
		cfg:       cfg,
		adm:       newAdmitter(cfg.MaxConcurrent, cfg.Quota, cfg.QueueDepth, cfg.TenantWeights),
		closed:    make(chan struct{}),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	s.stop, s.stopEval = context.WithCancel(context.Background())
	if cfg.ResultCacheSize >= 0 {
		size := cfg.ResultCacheSize
		if size == 0 {
			size = DefaultResultCacheSize
		}
		s.cache = newResultCache(size, cfg.Stats)
	}
	s.slo = newSLO(cfg.SLOObjective, cfg.SLOTarget, cfg.SLOWindow, cfg.Stats)
	return s
}

// Stats returns the accumulator every query's counters feed (the one to
// expose on /metrics).
func (s *Server) Stats() *trace.Stats { return s.cfg.Stats }

// Serve accepts connections on ln until Close (returning nil) or a fatal
// accept error. Each connection gets its own goroutine; Serve may be
// called on several listeners concurrently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return err
			}
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// beginQuery registers one in-flight query unless the server is
// draining. Every true return must be paired with endQuery.
func (s *Server) beginQuery() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) endQuery() { s.inflight.Done() }

// Shutdown gracefully stops the server: stop accepting, fail queued
// admissions with ErrShuttingDown, let in-flight queries drain until ctx
// ends, then abort the stragglers (their evaluations fail with
// mpq.ErrCancelled) and close every connection. It returns ctx.Err() if
// the drain deadline forced aborts, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.once.Do(func() { close(s.closed) })
	s.mu.Lock()
	s.draining = true
	for ln := range s.listeners {
		ln.Close()
	}
	clear(s.listeners)
	s.mu.Unlock()
	s.adm.close()

	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.stopEval() // abort in-flight evaluations
		<-done
		err = ctx.Err()
	}
	s.stopEval()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	clear(s.conns)
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Close stops the server immediately: like Shutdown with an expired
// drain deadline, aborting any in-flight evaluations.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
	return nil
}

// handle runs one connection's query loop.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	tenant := DefaultTenant
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch line {
		case "":
			continue
		case "quit":
			return
		}
		if name, ok := strings.CutPrefix(line, "tenant "); ok {
			tenant = strings.TrimSpace(name)
			if tenant == "" {
				tenant = DefaultTenant
			}
			continue
		}
		if src, ok := strings.CutPrefix(line, "subscribe "); ok {
			s.serveSubscribe(tenant, strings.TrimSpace(src), sc, w)
			return
		}
		if src, ok := strings.CutPrefix(line, "fact "); ok {
			if !s.beginQuery() {
				fmt.Fprintf(w, "E %s\n", ErrShuttingDown)
				w.Flush()
				return
			}
			s.serveFact(strings.TrimSpace(src), w)
			ferr := w.Flush()
			s.endQuery()
			if ferr != nil {
				return
			}
			continue
		}
		if !s.beginQuery() {
			fmt.Fprintf(w, "E %s\n", ErrShuttingDown)
			w.Flush()
			return
		}
		s.serveLine(tenant, line, w)
		ferr := w.Flush()
		s.endQuery()
		if ferr != nil {
			return
		}
		select {
		case <-s.closed:
			return
		default:
		}
	}
}

// writeTuple appends one answer line — "T", then the columns tab-separated —
// to a reply: the connection's bufio.Writer or the HTTP handler's buffer.
// Answers are most of a reply's bytes, so no formatting machinery.
func writeTuple(w io.StringWriter, tuple []string) {
	w.WriteString("T") // a write error sticks to the bufio.Writer and surfaces at its Flush
	sep := " "
	for _, col := range tuple {
		w.WriteString(sep)
		w.WriteString(col)
		sep = "\t"
	}
	w.WriteString("\n")
}

// serveLine evaluates one protocol line and writes its full response.
func (s *Server) serveLine(tenant, src string, w *bufio.Writer) {
	n := 0
	reused, _, err := s.run(context.Background(), tenant, src, func(tuple []string) {
		writeTuple(w, tuple)
		n++
	})
	if err != nil {
		fmt.Fprintf(w, "E %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		return
	}
	fmt.Fprintf(w, ". %d plan=%s\n", n, planWord(reused))
}

// serveFact applies one "fact <atom>." line: parse the ground atom, add
// it to the System under the write side of evalMu (no evaluation may be
// mid-flight), and report whether it was new plus the EDB version it
// produced. The version bump inside AddFact lands before any subscriber
// wakes, so the "+" reply's version is already visible to every
// result-cache hit.
func (s *Server) serveFact(src string, w io.Writer) {
	prog, err := parser.Parse(src)
	if err != nil {
		fmt.Fprintf(w, "E %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		return
	}
	if len(prog.Facts) != 1 || len(prog.Rules) > 0 {
		fmt.Fprintf(w, "E fact wants exactly one ground atom, e.g. fact edge(a, b).\n")
		return
	}
	a := prog.Facts[0]
	args := make([]string, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar() {
			fmt.Fprintf(w, "E fact must be ground: %s has variable %s\n", a, t.Var)
			return
		}
		args[i] = t.Const
	}
	s.evalMu.Lock()
	added := s.sys.AddFact(a.Pred, args...)
	s.evalMu.Unlock()
	n := 0
	if added {
		n = 1
	}
	fmt.Fprintf(w, "+ %d v=%d\n", n, s.sys.EDBVersion())
}

func planWord(reused bool) string {
	if reused {
		return "hit"
	}
	return "miss"
}

// queryOpts translates the server's evaluation policy into per-query
// options (shared by one-shot queries and subscriptions).
func (s *Server) queryOpts() []mpq.Option {
	opts := []mpq.Option{mpq.WithStrategy(s.cfg.Strategy), mpq.WithStats(s.cfg.Stats)}
	if s.cfg.ReoptThreshold != 0 {
		opts = append(opts, mpq.WithReoptThreshold(s.cfg.ReoptThreshold))
	}
	if s.cfg.EDBDelay > 0 {
		opts = append(opts, mpq.WithEDBDelay(s.cfg.EDBDelay))
	}
	return opts
}

// serveSubscribe dedicates the connection to a live subscription on src:
// the initial answer set, then one burst of T lines per delta round, each
// closed by a "~ <n> v=<version>" frame (grammar in the package doc).
//
// The initial round is the expensive one — a full evaluation — so it
// holds an admission slot like any query. Delta rounds do not: they run
// under the System's mutation lock (at most one round per System at a
// time, overlapping no mutation) and process only the delta, so routing
// them through the admitter would hold a slot across an unbounded wait
// for the next mutation and starve query traffic.
//
// The subscription ends when the evaluation fails, the server shuts down
// (terminal "E shutting down"), or the client sends "quit" / closes the
// connection — a reader goroutine watches for those while this goroutine
// blocks in Next.
func (s *Server) serveSubscribe(tenant, src string, sc *bufio.Scanner, w *bufio.Writer) {
	fail := func(err error) {
		fmt.Fprintf(w, "E %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		w.Flush()
	}
	pq, args, _, err := s.sys.QueryPrepared(src, s.queryOpts()...)
	if err != nil {
		fail(err)
		return
	}
	sub, err := pq.Subscription(args...)
	if err != nil {
		fail(err)
		return
	}
	ctx, cancel := context.WithCancel(s.stop)
	defer cancel()
	go func() {
		// The subscribe loop below never reads the connection, so watch it
		// here: "quit" or EOF (client gone) cancels the blocked Next.
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) == "quit" {
				break
			}
		}
		cancel()
	}()
	if s.cfg.Logf != nil {
		s.cfg.Logf("subscribe %q tenant=%s", src, tenant)
	}
	for first := true; ; first = false {
		if first {
			if aerr := s.adm.acquire(ctx, tenant); aerr != nil {
				fail(aerr)
				return
			}
		}
		t0 := time.Now()
		rows, nerr := sub.Next(ctx)
		if first {
			s.adm.release(tenant, time.Since(t0))
		}
		if nerr != nil {
			select {
			case <-s.stop.Done():
				fail(ErrShuttingDown)
			case <-ctx.Done():
				// Client quit or vanished: nothing left to tell it.
			default:
				fail(nerr)
			}
			return
		}
		for _, tuple := range rows {
			writeTuple(w, tuple)
		}
		fmt.Fprintf(w, "~ %d v=%d\n", len(rows), sub.Version())
		if w.Flush() != nil {
			return
		}
	}
}

// run serves one query under the server's full policy stack: plan-cache
// resolution, result-cache lookup (a hit replays a live view's answers,
// brought forward first when the EDB moved, and touches neither admission
// nor a full evaluation), fair admission with shedding, then an evaluation:
// the first round of a new view when the key is admitted to the cache, a
// pooled streamed run otherwise. cache names the result-cache outcome
// ("hit", "forward" or "miss"; "" when the cache is off).
func (s *Server) run(ctx context.Context, tenant, src string, emit func(tuple []string)) (reused bool, cache string, err error) {
	t0 := time.Now()
	stats := s.cfg.Stats
	pq, args, reused, err := s.sys.QueryPrepared(src, s.queryOpts()...)
	if err != nil {
		return false, "", err
	}

	var key string
	if s.cache != nil {
		key = resultKey(pq, args)
		if v := s.cache.lookup(key); v != nil {
			if rows, outcome, ok := s.replay(ctx, v); ok {
				if outcome == "forward" {
					stats.ResultForward()
				} else {
					stats.ResultHit()
				}
				for _, t := range rows {
					emit(t)
				}
				e2e := time.Since(t0)
				stats.ObserveEndToEnd(e2e)
				s.slo.observe(e2e, false)
				if s.cfg.Logf != nil {
					s.cfg.Logf("query %q tenant=%s: %d answers, cache=%s, %v",
						src, tenant, len(rows), outcome, e2e.Round(time.Microsecond))
				}
				return reused, outcome, nil
			}
		}
		stats.ResultMiss()
		cache = "miss"
	}

	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	// Merge the server's hard-stop signal into the request context so a
	// drain deadline aborts the evaluation with mpq.ErrCancelled.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(s.stop, cancel)()

	if aerr := s.adm.acquire(ctx, tenant); aerr != nil {
		stats.Shed()
		e2e := time.Since(t0)
		stats.ObserveEndToEnd(e2e)
		s.slo.observe(e2e, true)
		return reused, cache, aerr
	}
	stats.ObserveQueueWait(time.Since(t0))
	evalStart := time.Now()
	defer func() {
		eval := time.Since(evalStart)
		stats.ObserveEval(eval)
		s.adm.release(tenant, eval)
		e2e := time.Since(t0)
		stats.ObserveEndToEnd(e2e)
		s.slo.observe(e2e, err != nil)
	}()

	// Hold the read side of evalMu for the whole evaluation so a concurrent
	// "fact" mutation cannot land mid-run (the write side waits for every
	// in-flight evaluation).
	n := 0
	s.evalMu.RLock()
	var rows [][]string
	filled := false
	if s.cache != nil {
		v, victims := s.cache.admit(key, pq, args)
		closeViews(victims)
		if v != nil {
			rows, filled, err = s.fill(ctx, v)
		}
	}
	if !filled && err == nil {
		for tuple, terr := range pq.Answers(ctx, args...) {
			if terr != nil {
				err = terr
				break
			}
			emit(tuple)
			n++
		}
	}
	s.evalMu.RUnlock()
	if err != nil {
		return reused, cache, err
	}
	for _, t := range rows {
		emit(t)
	}
	n += len(rows)
	if s.cfg.Logf != nil {
		s.cfg.Logf("query %q tenant=%s: %d answers, plan=%s %s, %v",
			src, tenant, n, planWord(reused), pq.PlanSummary(), time.Since(t0).Round(time.Microsecond))
	}
	return reused, cache, nil
}

// replay returns a live view's rows for a hit, first bringing the view
// forward by one delta round (Subscription.Poll) when the EDB moved past
// the version its rows cover: outcome "forward" when a round ran, "hit"
// otherwise. ok is false when the view is closed, not yet filled, or its
// round failed (the view is then closed): the request takes the miss path.
func (s *Server) replay(ctx context.Context, v *view) (rows [][]string, outcome string, ok bool) {
	s.evalMu.RLock()
	defer s.evalMu.RUnlock()
	v.mu.Lock()
	if v.sub == nil || v.rows == nil {
		v.mu.Unlock()
		return nil, "", false
	}
	if v.version == s.sys.EDBVersion() {
		rows = v.rows
		v.mu.Unlock()
		return rows, "hit", true
	}
	fresh, err := v.sub.Poll(ctx)
	if err != nil {
		s.cache.remove(v)
		v.close()
		v.mu.Unlock()
		return nil, "", false
	}
	v.version = v.sub.Version()
	if fresh == nil { // only predicates the plan does not read changed
		rows = v.rows
		v.mu.Unlock()
		return rows, "hit", true
	}
	v.rows = append(v.rows, fresh...)
	rows = v.rows
	release(v, s.cache.settle(v))
	return rows, "forward", true
}

// fill runs a new view's first round and returns its rows, the cold reply.
// filled is false when the view was evicted before the round could start:
// the request then evaluates on the pooled path. A failed round closes
// the view. The caller holds evalMu's read side.
func (s *Server) fill(ctx context.Context, v *view) (rows [][]string, filled bool, err error) {
	v.mu.Lock()
	if v.sub == nil {
		v.mu.Unlock()
		return nil, false, nil
	}
	rows, err = v.sub.Poll(ctx)
	if err != nil {
		s.cache.remove(v)
		v.close()
		v.mu.Unlock()
		return nil, true, err
	}
	rows = compact(rows)
	v.rows, v.version = rows, v.sub.Version()
	release(v, s.cache.settle(v))
	return rows, true, nil
}

// Handler serves the same queries over HTTP for the diagnostics mux:
// POST /query with the query text as the body, the admission tenant in
// the X-Mpq-Tenant header (default tenant when absent). The response is
// text/plain in the line-protocol framing (T/. lines, buffered — answer
// sets are finite), with the plan outcome duplicated in the X-Mpq-Plan
// header and the result-cache outcome (hit, forward or miss) in
// X-Mpq-Cache when the cache is enabled; errors map to 400 (bad query), 503 (shed with ErrOverloaded
// or shutting down).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a query, e.g. ?- path(a, Y).", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		src := strings.TrimSpace(string(body))
		if src == "" {
			http.Error(w, "empty query", http.StatusBadRequest)
			return
		}
		tenant := strings.TrimSpace(r.Header.Get("X-Mpq-Tenant"))
		if tenant == "" {
			tenant = DefaultTenant
		}
		if !s.beginQuery() {
			http.Error(w, ErrShuttingDown.Error(), http.StatusServiceUnavailable)
			return
		}
		defer s.endQuery()
		// Buffer the response so pre-stream errors can still set a status.
		var buf strings.Builder
		n := 0
		reused, cache, err := s.run(r.Context(), tenant, src, func(tuple []string) {
			writeTuple(&buf, tuple)
			n++
		})
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrShuttingDown) {
				code = http.StatusServiceUnavailable
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Mpq-Plan", planWord(reused))
		if cache != "" {
			w.Header().Set("X-Mpq-Cache", cache)
		}
		io.WriteString(w, buf.String())
		fmt.Fprintf(w, ". %d plan=%s\n", n, planWord(reused))
	})
}
