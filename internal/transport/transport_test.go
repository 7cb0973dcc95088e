package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/symtab"
)

func TestMailboxFIFO(t *testing.T) {
	mb := NewMailbox()
	for i := 0; i < 100; i++ {
		mb.Put(msg.Message{Kind: msg.Tuple, N: i})
	}
	for i := 0; i < 100; i++ {
		m, ok := mb.Get()
		if !ok || m.N != i {
			t.Fatalf("Get %d: ok=%v N=%d", i, ok, m.N)
		}
	}
	if !mb.Empty() {
		t.Error("mailbox not empty after drain")
	}
}

func TestMailboxPerSenderFIFO(t *testing.T) {
	mb := NewMailbox()
	const senders, each = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				mb.Put(msg.Message{From: s, N: i})
			}
		}(s)
	}
	go func() { wg.Wait(); mb.Close() }()
	last := make([]int, senders)
	for i := range last {
		last[i] = -1
	}
	count := 0
	for {
		m, ok := mb.Get()
		if !ok {
			break
		}
		count++
		if m.N != last[m.From]+1 {
			t.Fatalf("sender %d out of order: got %d after %d", m.From, m.N, last[m.From])
		}
		last[m.From] = m.N
	}
	if count != senders*each {
		t.Fatalf("received %d messages, want %d", count, senders*each)
	}
}

func TestMailboxBlocksUntilPut(t *testing.T) {
	mb := NewMailbox()
	done := make(chan msg.Message)
	go func() {
		m, _ := mb.Get()
		done <- m
	}()
	mb.Put(msg.Message{N: 7})
	if m := <-done; m.N != 7 {
		t.Fatalf("got N=%d", m.N)
	}
}

func TestMailboxCloseDropsLatePuts(t *testing.T) {
	mb := NewMailbox()
	mb.Close()
	mb.Put(msg.Message{N: 1})
	if _, ok := mb.Get(); ok {
		t.Error("Get returned a message put after Close")
	}
}

func TestMailboxCompaction(t *testing.T) {
	mb := NewMailbox()
	// Interleave puts and gets so head advances without ever draining.
	mb.Put(msg.Message{})
	for i := 0; i < 10000; i++ {
		mb.Put(msg.Message{N: i})
		if _, ok := mb.Get(); !ok {
			t.Fatal("unexpected close")
		}
	}
	if mb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", mb.Len())
	}
}

func TestLocalRouting(t *testing.T) {
	l := NewLocal(3)
	l.Send(msg.Message{To: 2, N: 9})
	if !l.Boxes[0].Empty() || !l.Boxes[1].Empty() {
		t.Error("message leaked to wrong mailbox")
	}
	m, ok := l.Boxes[2].Get()
	if !ok || m.N != 9 {
		t.Error("message not delivered")
	}
}

// TestTCPRoundTrip spins up two sites and pushes messages both ways,
// checking delivery, payload integrity, and per-link ordering.
func TestTCPRoundTrip(t *testing.T) {
	hosts := []int{0, 0, 1, 1} // nodes 0,1 on site 0; nodes 2,3 on site 1
	localA := NewLocal(4)
	localB := NewLocal(4)
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	siteA, err := NewTCP(0, addrs, hosts, localA)
	if err != nil {
		t.Fatal(err)
	}
	defer siteA.Close()
	addrs[0] = siteA.Addr()
	siteB, err := NewTCP(1, addrs, hosts, localB)
	if err != nil {
		t.Fatal(err)
	}
	defer siteB.Close()
	addrs[1] = siteB.Addr()
	// Rebuild A's view of B's address: dial happens lazily via addrs copy,
	// so construct sender sites after addresses are final.
	siteA.Close()
	localA = NewLocal(4)
	siteA, err = NewTCP(0, []string{"127.0.0.1:0", siteB.Addr()}, hosts, localA)
	if err != nil {
		t.Fatal(err)
	}
	defer siteA.Close()

	const n = 500
	for i := 0; i < n; i++ {
		siteA.Send(msg.Message{Kind: msg.Tuple, From: 0, To: 2, N: i,
			Vals: []symtab.Sym{symtab.Sym(i), symtab.Sym(i + 1)}})
	}
	for i := 0; i < n; i++ {
		m, ok := localB.Boxes[2].Get()
		if !ok {
			t.Fatal("mailbox closed early")
		}
		if m.N != i {
			t.Fatalf("out of order: got %d want %d", m.N, i)
		}
		if len(m.Vals) != 2 || m.Vals[0] != symtab.Sym(i) || m.Vals[1] != symtab.Sym(i+1) {
			t.Fatalf("payload corrupted: %v", m.Vals)
		}
	}
	// Local short-circuit on site B.
	siteB.Send(msg.Message{Kind: msg.End, From: 2, To: 3, N: 77})
	if m, ok := localB.Boxes[3].Get(); !ok || m.N != 77 {
		t.Error("local short-circuit failed")
	}
}

func TestTCPManySenders(t *testing.T) {
	hosts := make([]int, 10)
	for i := 5; i < 10; i++ {
		hosts[i] = 1
	}
	localB := NewLocal(10)
	siteB, err := NewTCP(1, []string{"", "127.0.0.1:0"}, hosts, localB)
	if err != nil {
		t.Fatal(err)
	}
	defer siteB.Close()
	localA := NewLocal(10)
	siteA, err := NewTCP(0, []string{"127.0.0.1:0", siteB.Addr()}, hosts, localA)
	if err != nil {
		t.Fatal(err)
	}
	defer siteA.Close()

	const senders, each = 5, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				siteA.Send(msg.Message{From: s, To: 5 + s%5, N: i})
			}
		}(s)
	}
	wg.Wait()
	got := 0
	last := map[int]int{}
	for got < senders*each {
		for b := 5; b < 10; b++ {
			for !localB.Boxes[b].Empty() {
				m, _ := localB.Boxes[b].Get()
				if prev, ok := last[m.From]; ok && m.N != prev+1 {
					t.Fatalf("sender %d out of order over TCP: %d after %d", m.From, m.N, prev)
				}
				last[m.From] = m.N
				got++
			}
		}
	}
}

func TestTCPSendAfterCloseDropped(t *testing.T) {
	hosts := []int{0, 1}
	local := NewLocal(2)
	site, err := NewTCP(0, []string{"127.0.0.1:0", "127.0.0.1:1"}, hosts, local)
	if err != nil {
		t.Fatal(err)
	}
	site.Close()
	site.Send(msg.Message{To: 1}) // must not panic or block
}

func TestLocalClose(t *testing.T) {
	l := NewLocal(2)
	l.Close()
	l.Send(msg.Message{To: 0}) // dropped, no panic
	if _, ok := l.Boxes[0].Get(); ok {
		t.Error("closed mailbox yielded a message")
	}
}

func TestTCPDialFailure(t *testing.T) {
	// Peer address never listens: Send must give up (after the bounded
	// retry window) without panicking, dropping the message.
	local := NewLocal(2)
	site, err := NewTCP(0, []string{"127.0.0.1:0", "127.0.0.1:1"}, []int{0, 1}, local)
	if err != nil {
		t.Fatal(err)
	}
	// Close first so the dial loop aborts immediately via closedCh instead
	// of retrying for the full deadline.
	go func() { site.Close() }()
	site.Send(msg.Message{To: 1})
}

func TestTCPPeerConnectionLoss(t *testing.T) {
	// Short dial window (Config) so the failure path runs in milliseconds
	// rather than the production 10s default.
	cfg := Config{DialTimeout: 300 * time.Millisecond, HeartbeatInterval: 20 * time.Millisecond}
	hosts := []int{0, 1}
	localB := NewLocal(2)
	siteB, err := NewTCPConfig(1, []string{"", "127.0.0.1:0"}, hosts, localB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	localA := NewLocal(2)
	siteA, err := NewTCPConfig(0, []string{"127.0.0.1:0", siteB.Addr()}, hosts, localA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer siteA.Close()
	siteA.Send(msg.Message{To: 1, N: 1})
	if m, ok := localB.Boxes[1].Get(); !ok || m.N != 1 {
		t.Fatal("first send not delivered")
	}
	// Kill B; subsequent sends from A must not panic: the broken link
	// declares B down and later sends drop fast.
	siteB.Kill()
	done := make(chan bool)
	go func() {
		for i := 0; i < 50; i++ {
			siteA.Send(msg.Message{To: 1, N: 2})
		}
		done <- true
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("sends to a dead peer did not complete (no failure caching?)")
	}
}

func TestTCPAddr(t *testing.T) {
	local := NewLocal(1)
	site, err := NewTCP(0, []string{"127.0.0.1:0"}, []int{0}, local)
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	if site.Addr() == "" || site.Addr() == "127.0.0.1:0" {
		t.Errorf("Addr = %q", site.Addr())
	}
	_ = fmt.Sprint(site.Addr())
}

// TestTCPTupleBatchSingleFrame checks a multi-row Tuple crosses the wire as
// one message (one gob frame), payload intact, ordered with surrounding
// traffic.
func TestTCPTupleBatchSingleFrame(t *testing.T) {
	hosts := []int{0, 1}
	localA, localB := NewLocal(2), NewLocal(2)
	siteB, err := NewTCP(1, []string{"127.0.0.1:0", "127.0.0.1:0"}, hosts, localB)
	if err != nil {
		t.Fatal(err)
	}
	defer siteB.Close()
	siteA, err := NewTCP(0, []string{"127.0.0.1:0", siteB.Addr()}, hosts, localA)
	if err != nil {
		t.Fatal(err)
	}
	defer siteA.Close()

	const rows, width = 100, 3
	vals := make([]symtab.Sym, 0, rows*width)
	for i := 0; i < rows*width; i++ {
		vals = append(vals, symtab.Sym(i+1))
	}
	siteA.Send(msg.Message{Kind: msg.Tuple, From: 0, To: 1, Vals: vals[:width]})
	siteA.Send(msg.Message{Kind: msg.Tuple, From: 0, To: 1, Vals: vals, Count: rows})
	siteA.Send(msg.Message{Kind: msg.End, From: 0, To: 1, N: 1})

	first, ok := localB.Boxes[1].Get()
	if !ok || first.Kind != msg.Tuple {
		t.Fatalf("first message = %v", first)
	}
	batch, ok := localB.Boxes[1].Get()
	if !ok || batch.Kind != msg.Tuple {
		t.Fatalf("second message = %v, want one multi-row Tuple", batch)
	}
	if batch.Count != rows || len(batch.Vals) != rows*width {
		t.Fatalf("batch carried %d rows / %d vals, want %d / %d", batch.Count, len(batch.Vals), rows, rows*width)
	}
	for i, v := range batch.Vals {
		if v != symtab.Sym(i+1) {
			t.Fatalf("batch payload corrupted at %d: %v", i, v)
		}
	}
	if end, ok := localB.Boxes[1].Get(); !ok || end.Kind != msg.End {
		t.Fatalf("third message = %v, want the End after the batch", end)
	}
}
