package transport

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// shortConfig returns failure-handling parameters scaled for tests: tight
// heartbeats and a sub-second dial window so failure paths run in
// milliseconds instead of the production 10s defaults.
func shortConfig(st *trace.Stats) Config {
	return Config{
		DialTimeout:       400 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		BaseBackoff:       5 * time.Millisecond,
		MaxBackoff:        50 * time.Millisecond,
		Stats:             st,
	}
}

// TestTCPHeartbeatsFlow checks that an established, otherwise idle
// connection carries liveness traffic in both directions and that no
// false PeerDown is declared while both ends are healthy.
func TestTCPHeartbeatsFlow(t *testing.T) {
	hosts := []int{0, 1}
	stA, stB := &trace.Stats{}, &trace.Stats{}
	localB := NewLocal(2)
	siteB, err := NewTCPConfig(1, []string{"", "127.0.0.1:0"}, hosts, localB, shortConfig(stB))
	if err != nil {
		t.Fatal(err)
	}
	defer siteB.Close()
	localA := NewLocal(2)
	siteA, err := NewTCPConfig(0, []string{"127.0.0.1:0", siteB.Addr()}, hosts, localA, shortConfig(stA))
	if err != nil {
		t.Fatal(err)
	}
	defer siteA.Close()

	siteA.Send(msg.Message{To: 1, N: 1}) // establish the connection
	if m, ok := localB.Boxes[1].Get(); !ok || m.N != 1 {
		t.Fatal("first send not delivered")
	}
	time.Sleep(150 * time.Millisecond) // ~7 heartbeat intervals, idle

	if hb := stA.Snapshot().Heartbeats; hb == 0 {
		t.Error("no heartbeats sent by the dialer over an idle connection")
	}
	select {
	case pd := <-siteA.Down():
		t.Errorf("false PeerDown for a healthy peer: %+v", pd)
	default:
	}
	// The connection still works after all that liveness traffic.
	siteA.Send(msg.Message{To: 1, N: 2})
	if m, ok := localB.Boxes[1].Get(); !ok || m.N != 2 {
		t.Fatal("send after heartbeats not delivered")
	}
}

// TestTCPKilledPeerEmitsPeerDown is the transport half of the kill-a-site
// acceptance criterion: when an established peer dies, the survivor's
// heartbeats fail, the reconnect window runs out, and a PeerDown event is
// emitted within the configured timeout.
func TestTCPKilledPeerEmitsPeerDown(t *testing.T) {
	hosts := []int{0, 1}
	st := &trace.Stats{}
	localB := NewLocal(2)
	siteB, err := NewTCPConfig(1, []string{"", "127.0.0.1:0"}, hosts, localB, shortConfig(&trace.Stats{}))
	if err != nil {
		t.Fatal(err)
	}
	localA := NewLocal(2)
	siteA, err := NewTCPConfig(0, []string{"127.0.0.1:0", siteB.Addr()}, hosts, localA, shortConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	defer siteA.Close()

	siteA.Send(msg.Message{To: 1, N: 1})
	if _, ok := localB.Boxes[1].Get(); !ok {
		t.Fatal("first send not delivered")
	}
	start := time.Now()
	siteB.Close() // kill the peer

	// Budget: heartbeat timeout (4×20ms) + dial window (400ms) + slack.
	select {
	case pd := <-siteA.Down():
		if pd.Site != 1 {
			t.Errorf("PeerDown for site %d, want 1", pd.Site)
		}
		if pd.Err == nil {
			t.Error("PeerDown carries no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no PeerDown within 5s of killing the peer")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("detection took %v, want well under the 3s budget", elapsed)
	}
	// Subsequent sends drop fast (failure cache) and are counted.
	for i := 0; i < 20; i++ {
		siteA.Send(msg.Message{To: 1, N: i})
	}
	if st.Snapshot().DroppedSends == 0 {
		t.Error("sends to a declared-down peer were not counted as dropped")
	}
}

// TestTCPReconnectAfterRestart checks the other side of failure handling:
// a peer that comes back inside the dial window is reconnected to (with
// backoff) and traffic resumes, with the reconnect counted.
func TestTCPReconnectAfterRestart(t *testing.T) {
	hosts := []int{0, 1}
	st := &trace.Stats{}
	localB := NewLocal(2)
	cfgB := shortConfig(&trace.Stats{})
	siteB, err := NewTCPConfig(1, []string{"", "127.0.0.1:0"}, hosts, localB, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	addrB := siteB.Addr()

	cfgA := shortConfig(st)
	cfgA.DialTimeout = 3 * time.Second // survive B's restart gap
	localA := NewLocal(2)
	siteA, err := NewTCPConfig(0, []string{"127.0.0.1:0", addrB}, hosts, localA, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer siteA.Close()

	siteA.Send(msg.Message{To: 1, N: 1})
	if _, ok := localB.Boxes[1].Get(); !ok {
		t.Fatal("first send not delivered")
	}

	// Restart B on the same address.
	siteB.Close()
	time.Sleep(100 * time.Millisecond)
	localB2 := NewLocal(2)
	siteB2, err := NewTCPConfig(1, []string{"", addrB}, hosts, localB2, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer siteB2.Close()

	// Keep sending; once the redial lands, messages flow to the new B.
	deadline := time.After(10 * time.Second)
	for i := 0; ; i++ {
		siteA.Send(msg.Message{To: 1, N: 100 + i})
		if !localB2.Boxes[1].Empty() {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no message reached the restarted peer")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if st.Snapshot().Reconnects == 0 {
		t.Error("reconnect to a restarted peer was not counted")
	}
}

func TestFaultNetDelayPreservesFIFO(t *testing.T) {
	hosts := []int{0, 1}
	local := NewLocal(2)
	fn := NewFaultNet(local, hosts, 42)
	defer fn.Close()
	fn.AddLink(LinkFault{From: 0, To: 1, Delay: 200 * time.Microsecond, Jitter: 500 * time.Microsecond})

	const n = 200
	for i := 0; i < n; i++ {
		fn.Send(msg.Message{From: 0, To: 1, N: i})
	}
	for i := 0; i < n; i++ {
		m, ok := local.Boxes[1].Get()
		if !ok {
			t.Fatal("mailbox closed early")
		}
		if m.N != i {
			t.Fatalf("delayed link reordered: got %d want %d", m.N, i)
		}
	}
}

func TestFaultNetCutDropsAfterThreshold(t *testing.T) {
	hosts := []int{0, 1}
	st := &trace.Stats{}
	local := NewLocal(2)
	fn := NewFaultNet(local, hosts, 1)
	defer fn.Close()
	fn.Stats = st
	fn.AddLink(LinkFault{From: 0, To: 1, CutAfter: 10})

	for i := 0; i < 50; i++ {
		fn.Send(msg.Message{From: 0, To: 1, N: i})
	}
	if got := local.Boxes[1].Len(); got != 10 {
		t.Errorf("delivered %d messages across a cut-after-10 link, want 10", got)
	}
	if drops := st.Snapshot().FaultDrops; drops != 40 {
		t.Errorf("FaultDrops = %d, want 40", drops)
	}
}

func TestFaultNetCutHeals(t *testing.T) {
	hosts := []int{0, 1}
	local := NewLocal(2)
	fn := NewFaultNet(local, hosts, 1)
	defer fn.Close()
	fn.AddLink(LinkFault{From: 0, To: 1, CutAfter: 5, HealAfter: 30 * time.Millisecond})

	for i := 0; i < 10; i++ {
		fn.Send(msg.Message{From: 0, To: 1, N: i})
	}
	before := local.Boxes[1].Len()
	if before != 5 {
		t.Fatalf("delivered %d before heal, want 5", before)
	}
	time.Sleep(50 * time.Millisecond)
	fn.Send(msg.Message{From: 0, To: 1, N: 99})
	if got := local.Boxes[1].Len(); got != 6 {
		t.Errorf("healed link did not deliver: %d messages, want 6", got)
	}
}

func TestFaultNetCrash(t *testing.T) {
	hosts := []int{0, 0, 1} // nodes 0,1 on site 0; node 2 on site 1
	local := NewLocal(3)
	fn := NewFaultNet(local, hosts, 7)
	defer fn.Close()
	crashed := make(chan struct{})
	fn.OnCrash(1, func() { close(crashed) })
	fn.AddCrash(SiteCrash{Site: 1, AfterSends: 2})

	// Site 1's first two sends succeed; the third triggers the crash.
	fn.Send(msg.Message{From: 2, To: 0, N: 1})
	fn.Send(msg.Message{From: 2, To: 0, N: 2})
	fn.Send(msg.Message{From: 2, To: 0, N: 3})
	if got := local.Boxes[0].Len(); got != 2 {
		t.Errorf("delivered %d sends from the crashing site, want 2", got)
	}
	select {
	case <-crashed:
	case <-time.After(2 * time.Second):
		t.Fatal("OnCrash callback did not run")
	}
	select {
	case pd := <-fn.Down():
		if pd.Site != 1 {
			t.Errorf("PeerDown for site %d, want 1", pd.Site)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no PeerDown event for the crashed site")
	}
	// Traffic to the dead site is dropped too.
	fn.Send(msg.Message{From: 0, To: 2, N: 4})
	if !local.Boxes[2].Empty() {
		t.Error("message delivered to a crashed site")
	}
}

func TestParseChaos(t *testing.T) {
	links, crashes, err := ParseChaos("delay:0-1:5ms:2ms; cut:1-2:100:1s; crash:2:500; delay:*-0:1ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 3 || len(crashes) != 1 {
		t.Fatalf("parsed %d links, %d crashes", len(links), len(crashes))
	}
	if l := links[0]; l.From != 0 || l.To != 1 || l.Delay != 5*time.Millisecond || l.Jitter != 2*time.Millisecond {
		t.Errorf("delay rule parsed as %+v", l)
	}
	if l := links[1]; l.From != 1 || l.To != 2 || l.CutAfter != 100 || l.HealAfter != time.Second {
		t.Errorf("cut rule parsed as %+v", l)
	}
	if l := links[2]; l.From != AnySite || l.To != 0 || l.Delay != time.Millisecond {
		t.Errorf("wildcard delay rule parsed as %+v", l)
	}
	if c := crashes[0]; c.Site != 2 || c.AfterSends != 500 {
		t.Errorf("crash rule parsed as %+v", c)
	}
	for _, bad := range []string{"delay", "delay:0:5ms", "cut:0-1:x", "crash:*:1", "boom:0-1:2"} {
		if _, _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) accepted", bad)
		}
	}
	if l, c, err := ParseChaos(" "); err != nil || len(l) != 0 || len(c) != 0 {
		t.Errorf("blank spec: links=%v crashes=%v err=%v, want all empty", l, c, err)
	}
}

// TestTCPReconnectReplaysUnacked severs the established connection out
// from under the sender mid-burst — discarding whatever the receiver's
// kernel had buffered but not yet delivered — and checks that the
// reconnect replays the unacknowledged suffix: every frame arrives exactly
// once, in order. This is the FIFO-prefix guarantee doc/PROTOCOL.md §6.3
// relies on; before the replay machinery, frames whose writes had
// "succeeded" into the kernel were silently lost while later frames
// (including a covering End watermark) flowed over the new connection.
func TestTCPReconnectReplaysUnacked(t *testing.T) {
	hosts := []int{0, 1}
	st := &trace.Stats{}
	cfgB := shortConfig(&trace.Stats{})
	cfgB.DialTimeout = 5 * time.Second
	localB := NewLocal(2)
	siteB, err := NewTCPConfig(1, []string{"", "127.0.0.1:0"}, hosts, localB, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer siteB.Close()
	cfgA := shortConfig(st)
	cfgA.DialTimeout = 5 * time.Second
	localA := NewLocal(2)
	siteA, err := NewTCPConfig(0, []string{"127.0.0.1:0", siteB.Addr()}, hosts, localA, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer siteA.Close()

	const n = 300
	for i := 1; i <= n; i++ {
		siteA.Send(msg.Message{Kind: msg.Tuple, From: 0, To: 1, N: i})
		if i == 100 {
			// Abruptly close every accepted connection at B: unread bytes
			// die with them, so frames A already wrote successfully are
			// gone unless the reconnect replays them. Wait for B's accept
			// first: severing nothing would test nothing.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				siteB.mu.Lock()
				n := len(siteB.accepted)
				for c := range siteB.accepted {
					c.Close()
				}
				siteB.mu.Unlock()
				if n > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("site B never accepted A's connection")
				}
			}
		}
	}
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= n; i++ {
			m, ok := localB.Boxes[1].Get()
			if !ok {
				done <- fmt.Errorf("mailbox closed at frame %d", i)
				return
			}
			if m.N != i {
				done <- fmt.Errorf("frame %d arrived where %d was expected (lost or duplicated)", m.N, i)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream never completed after the severed connection (frames lost, not replayed)")
	}
	if !localB.Boxes[1].Empty() {
		t.Error("extra frames delivered after the full stream (replay duplicates not dropped)")
	}
	if sn := st.Snapshot(); sn.Replays == 0 {
		t.Errorf("no replay recorded despite a severed connection: %+v", sn)
	}
}

// TestTCPLargeFrameSurvivesHeartbeatTimeout streams a frame whose transfer
// time exceeds HeartbeatTimeout and checks the receiver's sliding read
// deadline keeps the connection alive while bytes are arriving: only
// silence, not frame size, may kill a connection.
//
// The slow link is a throttling proxy between the sites rather than
// shrunken kernel socket buffers: tiny buffers stall the TCP persist
// timer for 200ms+ at unpredictable points (gaps a byte-activity detector
// rightly treats as silence), while the proxy paces the stream at a
// steady ~1.6MB/s — inter-chunk gaps of ~10ms, two orders of magnitude
// under the 150ms timeout, with the whole ~1.3MB frame taking several
// times longer than the timeout. The old per-frame absolute deadline
// fails this test; the sliding deadline passes it.
// TestSlidingConnDeadlines covers the same contract at the unit level.
func TestTCPLargeFrameSurvivesHeartbeatTimeout(t *testing.T) {
	hosts := []int{0, 1}
	st := &trace.Stats{}
	cfg := Config{
		DialTimeout:       5 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  150 * time.Millisecond,
		BaseBackoff:       5 * time.Millisecond,
		MaxBackoff:        50 * time.Millisecond,
		Stats:             st,
	}
	localB := NewLocal(2)
	siteB, err := NewTCPConfig(1, []string{"", "127.0.0.1:0"}, hosts, localB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer siteB.Close()

	// The proxy throttles only the A→B direction (the payload stream); B's
	// heartbeat echoes flow back unthrottled.
	proxy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	go func() {
		for {
			c, err := proxy.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				up, err := net.Dial("tcp", siteB.Addr())
				if err != nil {
					return
				}
				defer up.Close()
				go io.Copy(c, up) // B→A, unthrottled
				buf := make([]byte, 16<<10)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := up.Write(buf[:n]); werr != nil {
							return
						}
						time.Sleep(10 * time.Millisecond)
					}
					if err != nil {
						return
					}
				}
			}(c)
		}
	}()

	localA := NewLocal(2)
	siteA, err := NewTCPConfig(0, []string{"127.0.0.1:0", proxy.Addr().String()}, hosts, localA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer siteA.Close()

	// A batch big enough that its gob frame takes several HeartbeatTimeouts
	// to trickle through the proxy.
	const rows, width = 20000, 8
	vals := make([]symtab.Sym, rows*width)
	for i := range vals {
		vals[i] = symtab.Sym(i)
	}
	siteA.Send(msg.Message{Kind: msg.Tuple, From: 0, To: 1, N: 1}) // establish
	if _, ok := localB.Boxes[1].Get(); !ok {
		t.Fatal("first send not delivered")
	}

	start := time.Now()
	siteA.Send(msg.Message{Kind: msg.TupleBatch, From: 0, To: 1, Vals: vals, Count: rows, N: 2})
	done := make(chan msg.Message, 1)
	go func() {
		m, _ := localB.Boxes[1].Get()
		done <- m
	}()
	select {
	case m := <-done:
		if m.Count != rows || len(m.Vals) != rows*width {
			t.Fatalf("batch arrived corrupted: rows=%d vals=%d", m.Count, len(m.Vals))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("large frame never delivered")
	}
	// The point of the test only holds if the transfer actually outlived
	// the heartbeat timeout; with default buffers on loopback it might
	// not, so surface that as a skip rather than a false pass.
	if time.Since(start) < cfg.HeartbeatTimeout {
		t.Skipf("transfer finished in %v, under the %v timeout; cannot exercise the sliding deadline", time.Since(start), cfg.HeartbeatTimeout)
	}
	if sn := st.Snapshot(); sn.Reconnects > 0 {
		t.Errorf("healthy connection was torn down mid-frame: %+v", sn)
	}
}

// TestSlidingConnDeadlines pins the slidingConn contract deterministically
// (no kernel flow control involved, via net.Pipe): a stream whose total
// duration far exceeds the timeout survives as long as every inter-chunk
// gap stays under it, and genuine silence longer than the timeout errors.
// This is the unit-level regression for the mid-frame teardown bug — the
// old code armed one absolute deadline per gob frame, which fails the
// first phase below.
func TestSlidingConnDeadlines(t *testing.T) {
	const timeout = 150 * time.Millisecond
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rc := &slidingConn{Conn: b, timeout: timeout, writeTimeout: time.Second}

	// Phase 1: trickle 20 chunks 30ms apart — 600ms total, 4× the timeout,
	// every gap well under it. The sliding deadline must never fire.
	const chunks, chunkLen = 20, 1024
	errCh := make(chan error, 1)
	go func() {
		buf := make([]byte, chunkLen)
		for i := 0; i < chunks; i++ {
			time.Sleep(30 * time.Millisecond)
			if _, err := a.Write(buf); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	got := 0
	buf := make([]byte, 4096)
	for got < chunks*chunkLen {
		n, err := rc.Read(buf)
		got += n
		if err != nil {
			t.Fatalf("sliding read failed after %d/%d bytes of a healthy trickle: %v", got, chunks*chunkLen, err)
		}
	}
	if err := <-errCh; err != nil {
		t.Fatalf("writer failed: %v", err)
	}

	// Phase 2: silence. With nothing arriving the deadline must fire as a
	// timeout within roughly one timeout period.
	start := time.Now()
	if _, err := rc.Read(buf); err == nil {
		t.Fatal("read of a silent connection returned without error")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("silent connection returned %v, want a timeout", err)
	}
	if since := time.Since(start); since < timeout/2 || since > 5*timeout {
		t.Errorf("silence detected after %v, want about %v", since, timeout)
	}
}
