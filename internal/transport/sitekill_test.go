package transport_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/rgg"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestTCPSiteKillReturnsErrSiteDown kills a non-driver site's process
// mid-query — sockets closed without a Bye, node processes stopped — and
// requires the driver to return ErrSiteDown sooner than DialTimeout: the
// broken link declares the site down at once, with no re-dial window run.
func TestTCPSiteKillReturnsErrSiteDown(t *testing.T) {
	const sites = 3
	prog := workload.Program(workload.TCRules, workload.Chain("edge", 300))
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hosts := engine.Partition(g, sites)

	cfg := transport.Config{
		DialTimeout:       2 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
	}
	addrs := make([]string, sites)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	locals := make([]*transport.Local, sites)
	nets := make([]*transport.TCP, sites)
	for i := 0; i < sites; i++ {
		c := cfg
		c.Stats = &trace.Stats{}
		locals[i] = transport.NewLocal(len(g.Nodes) + 1)
		n, err := transport.NewTCPConfig(i, addrs, hosts, locals[i], c)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = n.Addr()
		nets[i] = n
	}
	defer func() {
		for _, n := range nets {
			n.Close()
		}
	}()

	// Pick a victim: any non-driver site hosting at least one node.
	victim := -1
	for _, h := range hosts[:len(g.Nodes)] {
		if h != 0 {
			victim = h
			break
		}
	}
	if victim == -1 {
		t.Fatal("partition left all non-driver sites empty")
	}

	var wg sync.WaitGroup
	errs := make([]error, sites)
	for i := 0; i < sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// EDBDelay stretches the query into the hundreds of
			// milliseconds so the kill lands mid-flight. Deadline is a
			// backstop only — the test asserts the kill is detected as
			// ErrSiteDown, far sooner.
			opts := engine.Options{
				EDBDelay: 5 * time.Millisecond,
				Deadline: 60 * time.Second,
				PeerDown: nets[i].Down(),
			}
			siteDB := workload.DB(workload.Program(workload.TCRules, workload.Chain("edge", 300)))
			_, errs[i] = engine.RunSites(g, siteDB, nets[i], locals[i], hosts, i, opts)
		}(i)
	}

	// Let the query get going, then kill the victim the way an OS would:
	// sockets die without a Bye, its node processes stop.
	time.Sleep(100 * time.Millisecond)
	killed := time.Now()
	nets[victim].Kill()
	locals[victim].Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("driver did not return after a site was killed")
	}
	elapsed := time.Since(killed)

	if !errors.Is(errs[0], engine.ErrSiteDown) {
		t.Fatalf("driver returned %v, want ErrSiteDown", errs[0])
	}
	if elapsed >= cfg.DialTimeout {
		t.Errorf("ErrSiteDown took %v after the kill, want under the %v dial window", elapsed, cfg.DialTimeout)
	}
	t.Logf("driver aborted with %v %v after the kill", errs[0], elapsed)
}
