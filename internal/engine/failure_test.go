package engine

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/edb"
	"repro/internal/msg"
	"repro/internal/parser"
	"repro/internal/rgg"
	"repro/internal/transport"
	"repro/internal/workload"
)

// slowWorkload returns a recursive query big enough that, with a small
// EDBDelay, the evaluation reliably runs for hundreds of milliseconds —
// long enough for deadlines, cancels, and kills to land mid-flight.
func slowWorkload(t *testing.T) (*rgg.Graph, *edb.Database) {
	t.Helper()
	prog := workload.Program(workload.TCRules, workload.Chain("edge", 60))
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, workload.DB(prog)
}

// guard fails the test if fn does not return within the limit — the one
// outcome this PR exists to rule out is an indefinite hang.
func guard(t *testing.T, limit time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatal(what + " hung")
	}
}

func TestDeadlineAbortsRun(t *testing.T) {
	g, db := slowWorkload(t)
	guard(t, 30*time.Second, "deadline abort", func() {
		res, err := Run(g, db, Options{EDBDelay: 2 * time.Millisecond, Deadline: 25 * time.Millisecond})
		if !errors.Is(err, ErrDeadline) {
			t.Errorf("err = %v, want ErrDeadline", err)
		}
		if res != nil {
			t.Error("aborted run returned a result")
		}
	})
}

func TestDeadlineLeavesFastQueriesAlone(t *testing.T) {
	g, db := slowWorkload(t)
	guard(t, 30*time.Second, "deadlined run", func() {
		res, err := Run(g, db, Options{Deadline: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if res.Answers.Len() == 0 {
			t.Error("no answers")
		}
	})
}

func TestCancelAbortsRun(t *testing.T) {
	g, db := slowWorkload(t)
	cancel := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(cancel)
	}()
	guard(t, 30*time.Second, "cancel abort", func() {
		_, err := Run(g, db, Options{EDBDelay: 2 * time.Millisecond, Cancel: cancel})
		if !errors.Is(err, ErrCancelled) {
			t.Errorf("err = %v, want ErrCancelled", err)
		}
	})
}

// panicNet panics on the first Tuple send, then behaves normally — it
// simulates a bug inside one node process's handler.
type panicNet struct {
	inner transport.Network
	once  sync.Once
}

func (p *panicNet) Send(m msg.Message) {
	if m.Kind == msg.Tuple || m.Kind == msg.TupleBatch {
		armed := false
		p.once.Do(func() { armed = true })
		if armed {
			panic("injected node failure")
		}
	}
	p.inner.Send(m)
}

func TestNodePanicAborts(t *testing.T) {
	prog := parser.MustParse(p1data)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := edb.FromProgram(prog)
	local := transport.NewLocal(len(g.Nodes) + 1)
	guard(t, 30*time.Second, "panic abort", func() {
		_, runErr := runOver(g, db, &panicNet{inner: local}, local, Options{})
		if !errors.Is(runErr, ErrNodePanic) {
			t.Errorf("err = %v, want ErrNodePanic", runErr)
		}
		if runErr != nil && !strings.Contains(runErr.Error(), "injected node failure") {
			t.Errorf("panic note lost: %v", runErr)
		}
	})
}

// TestWorkerPanicAborts: a node that panics at another site, on that site's
// own goroutine, while the driver's loop is parked waiting for mail, must
// reach the driver as a typed abort and end both sites.
func TestWorkerPanicAborts(t *testing.T) {
	prog := parser.MustParse(p1data)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hosts := sitePlacement(g, 2)
	local := transport.NewLocal(len(g.Nodes) + 1)
	guard(t, 30*time.Second, "remote panic", func() {
		// Site 1 hosts EDB leaves, whose first Tuple send panics.
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for site, net := range []transport.Network{local, &panicNet{inner: local}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[site] = RunSites(g, edb.FromProgram(prog), net, local, hosts, site, Options{})
			}()
		}
		wg.Wait()
		for site, err := range errs {
			if !errors.Is(err, ErrNodePanic) {
				t.Errorf("site %d: err = %v, want ErrNodePanic", site, err)
			}
		}
		if !strings.Contains(errs[0].Error(), "injected node failure") {
			t.Errorf("driver lost the panic note: %v", errs[0])
		}
	})
}

// chaosSites runs the graph across the in-process sites of hosts (separate
// RunSites calls sharing one mailbox set, each over its own database from
// mkDB) wired through a single FaultNet, and returns the driver's
// result/error. Every site gets the deadline as a
// backstop and the FaultNet's failure-detector channel, exactly as real
// mpqd processes would.
func chaosSites(t *testing.T, g *rgg.Graph, mkDB func(site int) *edb.Database, hosts []int,
	configure func(fn *transport.FaultNet, hosts []int, locals *transport.Local),
	opts Options) (*Result, error, []error, int64) {
	t.Helper()
	sites := slices.Max(hosts) + 1
	local := transport.NewLocal(len(g.Nodes) + 1)
	fn := transport.NewFaultNet(local, hosts, 1)
	defer fn.Close()
	if configure != nil {
		configure(fn, hosts, local)
	}
	opts.PeerDown = fn.Down()

	var wg sync.WaitGroup
	results := make([]*Result, sites)
	errs := make([]error, sites)
	for i := 0; i < sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunSites(g, mkDB(i), fn, local, hosts, i, opts)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("chaos evaluation hung")
	}
	return results[0], errs[0], errs, fn.Stats.Snapshot().FaultDrops
}

// typedAbort reports whether err is one of the engine's typed failures —
// the only acceptable alternative to a byte-identical answer set.
func typedAbort(err error) bool {
	for _, want := range []error{ErrSiteDown, ErrDeadline, ErrCancelled, ErrNodePanic, ErrAborted} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// TestChaosSoak runs recursive workloads (the benchmark's E7/E11 shapes:
// transitive closure on a grid, and the paper's doubly recursive P1) across
// three sites under seeded fault schedules. The contract under every
// schedule: the driver either produces exactly the failure-free answers or
// returns a typed abort — it never hangs and never returns wrong answers
// silently. Cut schedules are permanent (no heal): the End watermark always
// travels the same link, after the tuples it covers, so losing tuples
// without losing their End is impossible and silent wrong answers cannot
// occur (see doc/PROTOCOL.md, "Failure model").
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	type scenario struct {
		name      string
		configure func(fn *transport.FaultNet, hosts []int, local *transport.Local)
		// strict means no abort is acceptable: the schedule loses no
		// messages, so answers must match exactly.
		strict bool
		// wantFaults requires the schedule to have actually dropped
		// messages — guarding against thresholds the workload never reaches
		// (a fault schedule that never fires tests nothing).
		wantFaults bool
	}
	// crashSite closes every mailbox the site hosts, exactly as if the OS
	// process died.
	crashSite := func(fn *transport.FaultNet, hosts []int, local *transport.Local, site, afterSends int) {
		fn.OnCrash(site, func() {
			for id, h := range hosts {
				if h == site {
					local.Boxes[id].Close()
				}
			}
		})
		fn.AddCrash(transport.SiteCrash{Site: site, AfterSends: afterSends})
	}
	scenarios := []scenario{
		{name: "clean", strict: true},
		{name: "delay-all", strict: true,
			configure: func(fn *transport.FaultNet, hosts []int, local *transport.Local) {
				fn.AddLink(transport.LinkFault{From: transport.AnySite, To: transport.AnySite,
					Delay: 100 * time.Microsecond, Jitter: 400 * time.Microsecond})
			}},
		{name: "cut-permanent", wantFaults: true,
			configure: func(fn *transport.FaultNet, hosts []int, local *transport.Local) {
				// The two busiest cross-site links: requests outbound from
				// the driver's site, answers inbound to it. Thresholds are
				// tiny because sideways information passing keeps cross-site
				// traffic to a handful of messages on these workloads.
				fn.AddLink(transport.LinkFault{From: 0, To: 1, CutAfter: 3})
				fn.AddLink(transport.LinkFault{From: 1, To: 0, CutAfter: 2})
			}},
		{name: "crash-site", wantFaults: true,
			configure: func(fn *transport.FaultNet, hosts []int, local *transport.Local) {
				crashSite(fn, hosts, local, 2, 2)
			}},
		{name: "delay-plus-crash", wantFaults: true,
			configure: func(fn *transport.FaultNet, hosts []int, local *transport.Local) {
				fn.AddLink(transport.LinkFault{From: transport.AnySite, To: transport.AnySite,
					Delay: 50 * time.Microsecond, Jitter: 200 * time.Microsecond})
				crashSite(fn, hosts, local, 1, 15)
			}},
	}

	for _, wl := range []struct {
		name string
		prog func() *ast.Program // deterministic: every call builds the identical program
	}{
		{"tc-grid", func() *ast.Program {
			return workload.Program(workload.TCRules, workload.Grid("edge", 6, 6))
		}},
		{"p1-random", func() *ast.Program {
			return workload.Program(workload.P1Rules, workload.P1Data(40, 0.08, rand.New(rand.NewSource(11))))
		}},
	} {
		wl := wl
		g, err := rgg.Build(wl.prog(), rgg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Each site loads its own DB copy, exactly as real mpqd sites would.
		mkDB := func() *edb.Database { return workload.DB(wl.prog()) }
		baselineRes, err := Run(g, mkDB(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		baseline := renderSet(baselineRes.Answers, mkDB())

		for _, sc := range scenarios {
			sc := sc
			t.Run(wl.name+"/"+sc.name, func(t *testing.T) {
				res, derr, errs, faultDrops := chaosSites(t, g, func(int) *edb.Database { return mkDB() }, Partition(g, 3), sc.configure,
					Options{Deadline: 4 * time.Second})
				for i, e := range errs[1:] {
					if e != nil && !typedAbort(e) {
						t.Errorf("site %d returned untyped error: %v", i+1, e)
					}
				}
				switch {
				case derr == nil:
					if got := renderSet(res.Answers, mkDB()); got != baseline {
						t.Errorf("answers diverged under %s:\n got %s\nwant %s", sc.name, got, baseline)
					}
				case typedAbort(derr):
					if sc.strict {
						t.Errorf("lossless schedule aborted: %v", derr)
					}
				default:
					t.Errorf("untyped driver error: %v", derr)
				}
				if sc.wantFaults && faultDrops == 0 {
					t.Errorf("fault schedule never fired (0 drops): thresholds too high for this workload")
				}
				t.Logf("driver err=%v faultDrops=%d", derr, faultDrops)
			})
		}
	}
}

// TestDriverMailboxCloseAborts: mailboxes that close mid-query (the site
// torn down under the driver, e.g. an injected crash racing the transport's
// PeerDown event) must surface as a typed error, never as a silently partial
// answer set returned with a nil error.
func TestDriverMailboxCloseAborts(t *testing.T) {
	g, db := slowWorkload(t)
	guard(t, 30*time.Second, "driver mailbox close", func() {
		local := transport.NewLocal(len(g.Nodes) + 1)
		go func() {
			time.Sleep(10 * time.Millisecond)
			local.Close()
		}()
		res, err := runOver(g, db, local, local, Options{EDBDelay: 2 * time.Millisecond})
		if !errors.Is(err, ErrSiteDown) {
			t.Errorf("err = %v, want ErrSiteDown", err)
		}
		if res != nil {
			t.Error("partial answers returned as success after the mailbox closed")
		}
	})
}

// TestClosedPeerDownChannelIsNotAnEvent: a PeerDown channel that is closed
// without ever delivering an event must neither abort the evaluation nor
// stop the loop from watching its other sources — a later Cancel still has
// to abort it.
func TestClosedPeerDownChannelIsNotAnEvent(t *testing.T) {
	g, db := slowWorkload(t)
	pd := make(chan transport.PeerDown)
	close(pd) // closed immediately, no event ever sent
	cancel := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(cancel)
	}()
	guard(t, 30*time.Second, "cancel after closed PeerDown", func() {
		_, err := Run(g, db, Options{EDBDelay: 2 * time.Millisecond, PeerDown: pd, Cancel: cancel})
		if !errors.Is(err, ErrCancelled) {
			t.Errorf("err = %v, want ErrCancelled (the closed PeerDown channel taken for an event?)", err)
		}
	})
}
