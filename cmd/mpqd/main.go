// Command mpqd is a site daemon for genuinely distributed query
// evaluation: several mpqd processes — on one machine or many — each host a
// partition of the rule/goal graph and cooperate purely by TCP messages, as
// §1 of the paper envisions ("shared memory is not required, making this
// approach suitable for distributed systems").
//
// Every site is started with the same program file and the same ordered
// address list; graph construction and partitioning are deterministic, so
// all sites agree on who hosts what. Site 0 drives the query and prints the
// answers; the other sites exit once the computation shuts down.
//
//	mpqd -program q.dl -site 0 -addrs :7701,:7702,:7703 &
//	mpqd -program q.dl -site 1 -addrs :7701,:7702,:7703 &
//	mpqd -program q.dl -site 2 -addrs :7701,:7702,:7703
//
// Recursive strong components are always co-located (see engine.Partition).
//
// With -serve ADDR, mpqd instead runs as a long-lived single-site query
// server: it loads the program once and answers `?- body.` queries sent
// over a newline-delimited protocol (see internal/serve and
// doc/PROTOCOL.md), reusing compiled plans across queries through the plan
// cache. Admission is multi-tenant (clients name their tenant with a
// "tenant NAME" line or the X-Mpq-Tenant header): -max-concurrent
// evaluations run at once, -tenant-quota caps any one tenant's share,
// excess requests wait in bounded per-tenant queues drained fairly, and
// requests past -queue-depth are shed immediately with a typed overload
// error. A result cache in front of evaluation keeps live views of
// repeated (query, constants) pairs, at most -result-cache of them: a hit
// at an unchanged EDB replays the cold reply byte for byte, and a hit
// after new facts first brings its view forward by one delta round,
// replying with the same set a fresh evaluation gives, in the cold reply's
// order followed by each round's new rows. SIGINT
// or SIGTERM drains gracefully: stop accepting, finish in-flight queries
// for up to -drain-timeout, then abort the stragglers. The diagnostics
// mux also accepts queries on POST /query. A "subscribe <query>" line
// turns its connection into a live view: the current answers stream out,
// then each delta as facts are added, re-evaluated incrementally through
// the retained plan (see doc/SUBSCRIPTIONS.md). `mpq -connect ADDR` is
// the matching client (`-subscribe` for live views):
//
//	mpqd -program rules.dl -serve :7700 -max-concurrent 8 &
//	mpq -connect :7700 '?- path(a, Y).'
//	mpq -connect :7700 -subscribe '?- path(a, Y).'
//
// Observability (see doc/OBSERVABILITY.md): -metrics ADDR serves live
// Prometheus counters on /metrics — engine message/row/round counters plus
// the transport failure counters (heartbeats, peer downs, dropped sends) —
// and Go runtime profiling under /debug/pprof/. -profile prints a
// per-node report for this site's partition when the query finishes.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/trace/export"
	"repro/internal/transport"
)

func main() {
	programPath := flag.String("program", "", "Datalog program file (identical on every site)")
	site := flag.Int("site", 0, "this site's index into -addrs")
	addrList := flag.String("addrs", "", "comma-separated listen addresses, one per site, in site order")
	strategy := flag.String("strategy", "greedy", "information passing strategy (greedy, qualtree, leftright, basic, stats, auto)")
	reoptThreshold := flag.Float64("reopt-threshold", 0, "-serve with -strategy auto: statistics-drift fraction that re-optimizes cached plans (0 = default, negative disables)")
	stats := flag.Bool("stats", false, "print execution statistics (driver site)")
	dialTimeout := flag.Duration("dial-timeout", 10*time.Second, "window for the first connection to a peer site (sites start in any order) before declaring it down; a broken connection is never re-dialed")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "liveness heartbeat interval per peer connection (must be positive)")
	deadline := flag.Duration("deadline", 0, "abort the query after this wall-clock time (0 = no deadline)")
	chaos := flag.String("chaos", "", "fault-injection spec: 'delay:FROM-TO:D[:JITTER];cut:FROM-TO:N;crash:SITE:N' ('*' = any site)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for deterministic chaos jitter")
	metricsAddr := flag.String("metrics", "", "serve Prometheus /metrics and /debug/pprof/ on this address (e.g. :9090)")
	profile := flag.Bool("profile", false, "print a per-node profile report for this site's partition after the query")
	profileTop := flag.Int("profile-top", 5, "how many nodes each -profile top-K table shows")
	serveAddr := flag.String("serve", "", "single-site serving mode: accept queries on this address over the line protocol (see doc/PROTOCOL.md) instead of evaluating once")
	maxConcurrent := flag.Int("max-concurrent", 0, "-serve: how many queries evaluate at once (0 = GOMAXPROCS; excess queries queue per tenant)")
	tenantQuota := flag.Int("tenant-quota", 0, "-serve: cap one tenant's share of -max-concurrent (0 = no per-tenant cap)")
	queueDepth := flag.Int("queue-depth", 0, "-serve: bound each tenant's admission queue (0 = default; beyond it requests are shed)")
	resultCache := flag.Int("result-cache", 0, "-serve: result-cache views at most (0 = default, negative disables)")
	sloObjective := flag.Duration("slo", 0, "-serve: end-to-end latency objective feeding the SLO burn-rate gauge (0 = off)")
	sloTarget := flag.Float64("slo-target", 0.99, "-serve: fraction of requests that should meet -slo")
	sloWindow := flag.Duration("slo-window", time.Minute, "-serve: sliding window for the burn-rate gauge")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "-serve: how long SIGINT/SIGTERM lets in-flight queries finish before aborting them")
	store := flag.String("store", "", "-serve: persistent EDB directory (created on first run; facts, statistics epoch, and EDB version survive restarts)")
	flag.Parse()
	if *heartbeat <= 0 {
		fmt.Fprintln(os.Stderr, "mpqd: -heartbeat must be positive (heartbeats are how a site notices a silent peer)")
		usage()
	}

	if *serveAddr != "" {
		runServe(*serveAddr, *programPath, *metricsAddr, *store, *drainTimeout, serve.Config{
			Strategy:        *strategy,
			ReoptThreshold:  *reoptThreshold,
			MaxConcurrent:   *maxConcurrent,
			Quota:           *tenantQuota,
			QueueDepth:      *queueDepth,
			ResultCacheSize: *resultCache,
			SLOObjective:    *sloObjective,
			SLOTarget:       *sloTarget,
			SLOWindow:       *sloWindow,
			Timeout:         *deadline,
		})
		return
	}

	addrs := strings.Split(*addrList, ",")
	if *programPath == "" || len(addrs) < 2 || *site < 0 || *site >= len(addrs) {
		usage()
	}

	sys, err := mpq.LoadFile(*programPath)
	if err != nil {
		fatal(err)
	}
	g, err := sys.Graph(mpq.WithStrategy(*strategy))
	if err != nil {
		fatal(err)
	}
	hosts := engine.Partition(g, len(addrs))

	st := &trace.Stats{}
	if *metricsAddr != "" {
		mux := export.DiagnosticsMux(st.Snapshot)
		srv := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			fmt.Fprintf(os.Stderr, "mpqd: site %d diagnostics on http://%s/metrics\n", *site, *metricsAddr)
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "mpqd: metrics server: %v\n", err)
			}
		}()
	}
	cfg := transport.Config{
		DialTimeout:       *dialTimeout,
		HeartbeatInterval: *heartbeat,
		Stats:             st,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "mpqd: "+format+"\n", args...)
		},
	}

	local := transport.NewLocal(len(g.Nodes) + 1)
	tcp, err := transport.NewTCPConfig(*site, addrs, hosts, local, cfg)
	if err != nil {
		fatal(err)
	}
	defer tcp.Close()
	fmt.Fprintf(os.Stderr, "mpqd: site %d listening on %s, hosting %d of %d nodes\n",
		*site, tcp.Addr(), count(hosts[:len(g.Nodes)], *site), len(g.Nodes))

	// Merge transport failure events (and, under -chaos, injected crashes)
	// into one channel for the engine's run loop.
	down := make(chan transport.PeerDown, len(addrs)+1)
	forward := func(ch <-chan transport.PeerDown) {
		go func() {
			for pd := range ch {
				select {
				case down <- pd:
				default:
				}
			}
		}()
	}
	forward(tcp.Down())

	var net transport.Network = tcp
	if *chaos != "" {
		links, crashes, err := transport.ParseChaos(*chaos)
		if err != nil {
			fatal(err)
		}
		fn := transport.NewFaultNet(tcp, hosts, *chaosSeed)
		fn.Stats = st
		for _, l := range links {
			fn.AddLink(l)
		}
		for _, c := range crashes {
			fn.AddCrash(c)
		}
		// Crashing our own site means this daemon's processes die too.
		fn.OnCrash(*site, func() { local.Close() })
		forward(fn.Down())
		defer fn.Close()
		net = fn
	}

	// SIGINT/SIGTERM cancel the evaluation (it aborts with ErrCancelled)
	// instead of killing the process mid-protocol.
	sig, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	opts := engine.Options{Stats: st, Deadline: *deadline, PeerDown: down, Cancel: sig.Done()}
	var prof *trace.Profile
	if *profile {
		prof = trace.NewProfile()
		opts.Profile = prof
	}
	res, err := engine.RunSites(g, sys.DB, net, local, hosts, *site, opts)
	if err != nil {
		fatal(err)
	}
	if prof != nil {
		fmt.Fprintf(os.Stderr, "\nsite %d partition:\n", *site)
		if err := export.WriteReport(os.Stderr, prof.Snapshot(), *profileTop); err != nil {
			fatal(err)
		}
	}
	if res == nil {
		fmt.Fprintf(os.Stderr, "mpqd: site %d done\n", *site)
		return
	}
	if res.Answers.Len() == 0 {
		fmt.Println("no")
	}
	for _, row := range res.Answers.Sorted() {
		parts := make([]string, len(row))
		for i, sym := range row {
			parts[i] = sys.DB.Syms.String(sym)
		}
		if len(parts) == 0 {
			fmt.Println("yes")
		} else {
			fmt.Println(strings.Join(parts, "\t"))
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "%s\n", res.Stats)
	}
}

// usage prints the two invocation forms and exits 2.
func usage() {
	fmt.Fprintln(os.Stderr, "usage: mpqd -program q.dl -site N -addrs a0,a1,... (N < number of addresses)")
	fmt.Fprintln(os.Stderr, "   or: mpqd -program q.dl -serve ADDR [-max-concurrent N] [-deadline D] [-metrics ADDR]")
	os.Exit(2)
}

// runServe is the long-lived single-site mode: load the program once,
// answer queries over the line protocol until SIGINT/SIGTERM, reusing
// compiled plans across queries and connections. The diagnostics mux
// additionally gains POST /query. On a signal the server drains: new
// work is rejected, in-flight queries get drainTimeout to finish, then
// the rest are aborted with mpq.ErrCancelled.
func runServe(addr, programPath, metricsAddr, storeDir string, drainTimeout time.Duration, cfg serve.Config) {
	if programPath == "" {
		fmt.Fprintln(os.Stderr, "usage: mpqd -program q.dl -serve ADDR [-store DIR] [-max-concurrent N] [-deadline D] [-metrics ADDR]")
		os.Exit(2)
	}
	// The handler goes in before the store is opened and the port is bound:
	// a SIGTERM from the moment the port accepts (a supervisor's health check
	// passing, then an immediate stop) must drain and Sync, not kill.
	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var sys *mpq.System
	var err error
	if storeDir != "" {
		// Persistent EDB: recover facts, the statistics epoch, and the EDB
		// version from the store; the program's own facts are
		// replayed only when the program changed since the last clean
		// shutdown (see mpq.OpenSystem).
		var src []byte
		if src, err = os.ReadFile(programPath); err == nil {
			sys, err = mpq.OpenSystem(storeDir, string(src))
		}
		if err == nil {
			defer sys.Close()
			rc := sys.Recovery()
			program := "skipped (unchanged)"
			if rc.Replayed {
				program = "replayed"
			}
			fmt.Fprintf(os.Stderr, "mpqd: persistent EDB %s recovered at version %d (%d facts): program %s, open %v, load %v\n",
				storeDir, sys.EDBVersion(), sys.DB.Facts(), program,
				rc.Open.Round(time.Microsecond), rc.Load.Round(time.Microsecond))
		}
	} else {
		sys, err = mpq.LoadFile(programPath)
	}
	if err != nil {
		fatal(err)
	}
	qlog := &queryLog{w: bufio.NewWriterSize(os.Stderr, 64<<10)}
	defer qlog.flush()
	cfg.Logf = qlog.logf
	srv := serve.New(sys, cfg)
	var metricsSrv *http.Server
	if metricsAddr != "" {
		mux := export.DiagnosticsMux(srv.Stats().Snapshot)
		mux.Handle("/query", srv.Handler())
		metricsSrv = &http.Server{Addr: metricsAddr, Handler: mux}
		go func() {
			fmt.Fprintf(os.Stderr, "mpqd: diagnostics on http://%s/metrics, queries on POST /query\n", metricsAddr)
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "mpqd: metrics server: %v\n", err)
			}
		}()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "mpqd: serving %s on %s\n", programPath, ln.Addr())
	select {
	case err := <-done:
		if err != nil {
			qlog.flush()
			fatal(err)
		}
	case <-sig.Done():
		qlog.flush()
		fmt.Fprintf(os.Stderr, "mpqd: signal received, draining for up to %v\n", drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := srv.Shutdown(ctx)
		qlog.flush()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpqd: drain deadline hit, in-flight queries aborted\n")
		} else {
			fmt.Fprintf(os.Stderr, "mpqd: drained cleanly\n")
		}
		if metricsSrv != nil {
			sctx, scancel := context.WithTimeout(context.Background(), time.Second)
			metricsSrv.Shutdown(sctx)
			scancel()
		}
	}
}

// logFlushEvery is how long a served query's log line may wait in the
// buffer before it reaches stderr.
const logFlushEvery = 100 * time.Millisecond

// queryLog is the serve mode's per-query log: lines collect in one buffered
// writer, which a timer flushes logFlushEvery after the first line it holds
// (sooner only when the buffer fills), and runServe flushes on drain and
// exit. A served query so costs no write(2) of its own. Startup and fatal
// messages bypass it.
type queryLog struct {
	mu      sync.Mutex
	w       *bufio.Writer
	pending bool // a flush is scheduled
}

func (l *queryLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "mpqd: "+format+"\n", args...)
	if !l.pending {
		l.pending = true
		time.AfterFunc(logFlushEvery, l.flush)
	}
}

func (l *queryLog) flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Flush()
	l.pending = false
}

func count(hosts []int, site int) int {
	n := 0
	for _, h := range hosts {
		if h == site {
			n++
		}
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpqd:", err)
	os.Exit(1)
}
