package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/edb"
	"repro/internal/engine"
	"repro/internal/transport"
)

// guard fails the test if fn does not return within d — the "no hangs"
// assertion every overload and shutdown test needs.
func guard(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s hung (> %v)", what, d)
	}
}

// TestAdmitterSheds locks the typed shedding contract: a full tenant
// queue rejects with ErrOverloaded immediately, a deadline expiring while
// queued rejects with ErrOverloaded, and close fails queued waiters with
// ErrShuttingDown. All three must satisfy errors.Is.
func TestAdmitterSheds(t *testing.T) {
	a := newAdmitter(1, 1, 2, nil)
	if err := a.acquire(context.Background(), "hog"); err != nil {
		t.Fatal(err)
	}

	// Fill tenant A's queue (depth 2) with waiters that never get a slot.
	var wg sync.WaitGroup
	errsA := make([]error, 2)
	ctxA, cancelA := context.WithCancel(context.Background())
	for i := range errsA {
		wg.Add(1)
		go func(i int) { defer wg.Done(); errsA[i] = a.acquire(ctxA, "A") }(i)
	}
	// Wait for both to be queued.
	for {
		a.mu.Lock()
		n := a.queued
		a.mu.Unlock()
		if n == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	err := a.acquire(context.Background(), "A")
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("queue-full err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("queue-full shed took %v, want immediate", d)
	}

	// Deadline expiry while queued is also a typed overload.
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer dcancel()
	// The queue is full, so this one is shed up front; drain one slot of
	// the queue first by cancelling the queued waiters.
	cancelA()
	wg.Wait()
	for _, e := range errsA {
		if !errors.Is(e, ErrOverloaded) {
			t.Errorf("cancelled-while-queued err = %v, want ErrOverloaded", e)
		}
	}
	guard(t, 5*time.Second, "deadline-queued acquire", func() {
		err = a.acquire(dctx, "A")
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("deadline-queued err = %v, want ErrOverloaded", err)
	}

	// close fails queued waiters and future acquires with ErrShuttingDown.
	var qerr error
	wg.Add(1)
	go func() { defer wg.Done(); qerr = a.acquire(context.Background(), "B") }()
	for {
		a.mu.Lock()
		n := a.queued
		a.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	a.close()
	wg.Wait()
	if !errors.Is(qerr, ErrShuttingDown) {
		t.Errorf("queued-at-close err = %v, want ErrShuttingDown", qerr)
	}
	if err := a.acquire(context.Background(), "B"); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("acquire-after-close err = %v, want ErrShuttingDown", err)
	}
}

// TestAdmitterFairness locks the DRR property: with ten of tenant A's
// requests queued ahead of one of tenant B's, B is admitted within the
// first few dispatches instead of waiting out A's whole backlog.
func TestAdmitterFairness(t *testing.T) {
	a := newAdmitter(1, 1, 32, nil)
	if err := a.acquire(context.Background(), "hog"); err != nil {
		t.Fatal(err)
	}

	type admission struct {
		tenant string
		order  int
	}
	var mu sync.Mutex
	var order []admission
	var wg sync.WaitGroup
	seq := 0
	enqueue := func(tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.acquire(context.Background(), tenant); err != nil {
				t.Errorf("acquire(%s): %v", tenant, err)
				return
			}
			mu.Lock()
			order = append(order, admission{tenant, seq})
			seq++
			mu.Unlock()
			a.release(tenant, time.Millisecond)
		}()
		// Queue in a deterministic order.
		for {
			a.mu.Lock()
			tq := a.tenants[tenant]
			n := 0
			if tq != nil {
				n = len(tq.q)
			}
			a.mu.Unlock()
			if n > 0 || func() bool { mu.Lock(); defer mu.Unlock(); return len(order) > 0 }() {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 10; i++ {
		enqueue("A")
	}
	enqueue("B")

	// Releasing the hog's slot starts the DRR cascade: each release
	// dispatches the next waiter.
	a.release("hog", time.Millisecond)
	guard(t, 10*time.Second, "fairness drain", wg.Wait)

	pos := -1
	for _, ad := range order {
		if ad.tenant == "B" {
			pos = ad.order
		}
	}
	if pos < 0 || pos > 3 {
		t.Errorf("tenant B admitted at position %d of %d; DRR should interleave it near the front (order: %v)", pos, len(order), order)
	}
}

// TestResultCacheIdentity locks the tentpole cache contract over the wire:
// the response bytes of a result-cache hit are identical to the cold
// evaluation that populated the entry (same tuples, same order), and a
// cache-disabled server agrees on the answer set.
func TestResultCacheIdentity(t *testing.T) {
	srv, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)

	raw := func(src string) []string {
		t.Helper()
		fmt.Fprintf(conn, "%s\n", src)
		var lines []string
		for sc.Scan() {
			lines = append(lines, sc.Text())
			if strings.HasPrefix(sc.Text(), ". ") || strings.HasPrefix(sc.Text(), "E ") {
				return lines
			}
		}
		t.Fatalf("connection closed mid-response: %v", sc.Err())
		return nil
	}

	cold := raw("?- path(a, Y).") // populates the entry
	hit := raw("?- path(a, Y).")  // replays it
	// The tuple block must match byte for byte; the terminator differs
	// only in the plan word (miss vs hit), which is diagnostics.
	if !reflect.DeepEqual(cold[:len(cold)-1], hit[:len(hit)-1]) {
		t.Errorf("cache hit tuples diverge from the cold evaluation:\ncold: %q\nhit:  %q", cold, hit)
	}
	if got := srv.Stats().Snapshot(); got.ResultHits != 1 || got.ResultMisses != 1 {
		t.Errorf("result cache stats hits=%d misses=%d, want 1/1", got.ResultHits, got.ResultMisses)
	}

	// A cache-disabled server produces the same answer set.
	_, addr2 := startServer(t, Config{ResultCacheSize: -1})
	conn2, err := net.Dial("tcp", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	sc2 := bufio.NewScanner(conn2)
	tuples, _, err := query(t, conn2, sc2, "?- path(a, Y).")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(tuples)
	var hitTuples []string
	for _, l := range hit[:len(hit)-1] {
		hitTuples = append(hitTuples, strings.TrimPrefix(l, "T "))
	}
	sort.Strings(hitTuples)
	if !reflect.DeepEqual(tuples, hitTuples) {
		t.Errorf("cache on/off answer sets differ: on=%v off=%v", hitTuples, tuples)
	}
}

// TestResultCacheInvalidation locks the live-view keying: a new fact does
// not turn the entry cold; the next read is a hit that one delta round
// brought forward, and it sees the new data.
func TestResultCacheInvalidation(t *testing.T) {
	srv, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)

	tuples, _, err := query(t, conn, sc, "?- path(x, Y).")
	if err != nil || !reflect.DeepEqual(tuples, []string{"y"}) {
		t.Fatalf("before AddFact: %v, %v", tuples, err)
	}
	if _, _, err := query(t, conn, sc, "?- path(x, Y)."); err != nil {
		t.Fatal(err)
	}
	if sn := srv.Stats().Snapshot(); sn.ResultHits != 1 {
		t.Fatalf("warmup produced %d result hits, want 1", sn.ResultHits)
	}

	v0 := srv.sys.EDBVersion()
	srv.sys.AddFact("edge", "y", "z")
	if v1 := srv.sys.EDBVersion(); v1 <= v0 {
		t.Fatalf("EDBVersion did not advance: %d -> %d", v0, v1)
	}
	tuples, _, err = query(t, conn, sc, "?- path(x, Y).")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tuples, []string{"y", "z"}) {
		t.Errorf("after AddFact: %v, want [y z] (the cold reply, then the round's new row)", tuples)
	}
	sn := srv.Stats().Snapshot()
	if sn.ResultHits != 1 || sn.ResultForwards != 1 || sn.ResultMisses != 1 {
		t.Errorf("stats after the fact: hits=%d forwards=%d misses=%d, want 1/1/1", sn.ResultHits, sn.ResultForwards, sn.ResultMisses)
	}
}

// chain returns a linear-chain program of n edges with transitive
// closure rules — long derivation chains make evaluations slow enough to
// be caught mid-flight by shutdown tests.
func chainProgram(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "edge(n%d, n%d).\n", i, i+1)
	}
	b.WriteString("path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, U), edge(U, Y).\n")
	b.WriteString("goal(Y) :- path(n0, Y).\n")
	return b.String()
}

// TestShutdownDrain locks the graceful-shutdown contract: with nothing in
// flight Shutdown returns nil promptly; with a long evaluation in flight
// and an expired drain deadline, the evaluation is aborted with the
// engine's typed cancellation and Shutdown reports the deadline.
func TestShutdownDrain(t *testing.T) {
	// Clean drain.
	srv, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	if _, _, err := query(t, conn, sc, "?- path(a, Y)."); err != nil {
		t.Fatal(err)
	}
	guard(t, 10*time.Second, "clean drain", func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("clean drain returned %v", err)
		}
	})
	if _, err := net.Dial("tcp", addr); err == nil {
		// The listener is closed; a successful dial means something else
		// now owns the port, which Close()d listeners make impossible.
		t.Error("dial succeeded after Shutdown")
	}

	// Forced abort: a long chain evaluation is in flight when the drain
	// deadline is already expired.
	srv2 := New(mpq.MustLoad(chainProgram(30000)), Config{ResultCacheSize: -1})
	started := make(chan struct{})
	var once sync.Once
	runErr := make(chan error, 1)
	go func() {
		_, _, err := srv2.run(context.Background(), DefaultTenant, "?- path(n0, Y).",
			func([]string) { once.Do(func() { close(started) }) })
		runErr <- err
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("evaluation never produced a tuple")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	guard(t, 30*time.Second, "forced shutdown", func() {
		if err := srv2.Shutdown(ctx); err == nil {
			// No error is fine only if the eval won the race and finished.
		}
	})
	select {
	case err := <-runErr:
		if err != nil && !errors.Is(err, engine.ErrCancelled) {
			t.Errorf("aborted evaluation err = %v, want engine.ErrCancelled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("aborted evaluation never returned")
	}
}

// TestServeOverloadChaosSoak is the robustness acceptance soak (run under
// -race): tenant A floods a tiny-capacity server while tenant B paces
// queries, and a FaultNet-chaos multi-site evaluation churns in the same
// process. The contract: the server never hangs, shed requests fail with
// the typed overload error (in-process) and an "overloaded" E line (on
// the wire), and every one of tenant B's queries still completes
// correctly.
func TestServeOverloadChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	srv, addr := startServer(t, Config{
		MaxConcurrent:   2,
		Quota:           1,
		QueueDepth:      2,
		ResultCacheSize: -1, // floods must evaluate, not replay
		Timeout:         10 * time.Second,
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var typedSheds, wireSheds, floodOK atomic.Int64

	// In-process flooders: typed-error assertions.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := srv.run(context.Background(), "flood", "?- path(a, Y).", func([]string) {})
				switch {
				case err == nil:
					floodOK.Add(1)
				case errors.Is(err, ErrOverloaded):
					typedSheds.Add(1)
				case errors.Is(err, ErrShuttingDown):
					return
				default:
					t.Errorf("flood got untyped error: %v", err)
					return
				}
			}
		}()
	}
	// Wire flooders: shed requests must come back as E lines, fast.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("flood dial: %v", err)
				return
			}
			defer conn.Close()
			fmt.Fprintf(conn, "tenant flood\n")
			sc := bufio.NewScanner(conn)
			for {
				select {
				case <-stop:
					return
				default:
				}
				fmt.Fprintf(conn, "?- path(b, Y).\n")
				ok := false
				for sc.Scan() {
					line := sc.Text()
					if strings.HasPrefix(line, "E ") {
						if strings.Contains(line, "overloaded") {
							wireSheds.Add(1)
						}
						ok = true
						break
					}
					if strings.HasPrefix(line, ". ") {
						floodOK.Add(1)
						ok = true
						break
					}
				}
				if !ok {
					return // connection closed (shutdown)
				}
			}
		}()
	}

	// Tenant B: paced queries; every one must complete correctly.
	bErrs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			bErrs <- err
			return
		}
		defer conn.Close()
		fmt.Fprintf(conn, "tenant B\n")
		sc := bufio.NewScanner(conn)
		for i := 0; i < 30; i++ {
			tuples, _, err := query(t, conn, sc, "?- path(x, Y).")
			if err != nil {
				bErrs <- fmt.Errorf("tenant B query %d: %w", i, err)
				return
			}
			if !reflect.DeepEqual(tuples, []string{"y"}) {
				bErrs <- fmt.Errorf("tenant B query %d: got %v", i, tuples)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// FaultNet chaos churning in the same process: 3-site evaluations of
	// the same program under message delay plus a permanent link cut. Each
	// run must produce the exact answers or a typed engine abort.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			sys := mpq.MustLoad(testProgram)
			g, err := sys.Graph()
			if err != nil {
				t.Errorf("chaos graph: %v", err)
				return
			}
			hosts := engine.Partition(g, 3)
			local := transport.NewLocal(len(g.Nodes) + 1)
			fn := transport.NewFaultNet(local, hosts, int64(round+1))
			fn.AddLink(transport.LinkFault{From: transport.AnySite, To: transport.AnySite,
				Delay: 200 * time.Microsecond, Jitter: 300 * time.Microsecond})
			if round%2 == 1 {
				fn.AddLink(transport.LinkFault{From: 1, To: 2, CutAfter: 10})
			}
			var siteWG sync.WaitGroup
			results := make([]*engine.Result, 3)
			errs := make([]error, 3)
			dbs := make([]*edb.Database, 3)
			for i := range dbs {
				dbs[i] = mpq.MustLoad(testProgram).DB
			}
			for i := 0; i < 3; i++ {
				siteWG.Add(1)
				go func(i int) {
					defer siteWG.Done()
					results[i], errs[i] = engine.RunSites(g, dbs[i], fn, local, hosts, i,
						engine.Options{PeerDown: fn.Down(), Deadline: 30 * time.Second})
				}(i)
			}
			siteWG.Wait()
			fn.Close()
			if errs[0] != nil {
				if !typedChaosAbort(errs[0]) {
					t.Errorf("chaos round %d: untyped abort %v", round, errs[0])
					return
				}
				continue
			}
			var got []string
			for _, row := range results[0].Answers.Sorted() {
				got = append(got, dbs[0].Syms.String(row[0]))
			}
			if !reflect.DeepEqual(got, wants["a"]) {
				t.Errorf("chaos round %d: answers %v, want %v", round, got, wants["a"])
				return
			}
		}
	}()

	// Let the soak run, then stop everything; the guard is the no-hang
	// assertion.
	select {
	case err := <-bErrs:
		t.Fatal(err)
	case <-time.After(2 * time.Second):
	}
	close(stop)
	guard(t, 60*time.Second, "soak shutdown", wg.Wait)

	if typedSheds.Load() == 0 && wireSheds.Load() == 0 {
		t.Errorf("flood produced no sheds (typed=%d wire=%d ok=%d); overload never happened",
			typedSheds.Load(), wireSheds.Load(), floodOK.Load())
	}
	if sn := srv.Stats().Snapshot(); sn.Shed == 0 {
		t.Error("stats recorded no sheds")
	}
	t.Logf("soak: typedSheds=%d wireSheds=%d floodOK=%d", typedSheds.Load(), wireSheds.Load(), floodOK.Load())
}

// typedChaosAbort mirrors the engine's typed-failure taxonomy.
func typedChaosAbort(err error) bool {
	for _, want := range []error{engine.ErrSiteDown, engine.ErrDeadline, engine.ErrCancelled,
		engine.ErrNodePanic, engine.ErrAborted} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}
