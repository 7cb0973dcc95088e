package trace

import (
	"sync"
	"testing"
	"time"
)

// TestProfileConcurrentShards hammers every shard from its own goroutine —
// the engine's access pattern — and checks the snapshot totals. Run under
// -race this also proves the shard hooks need no locks.
func TestProfileConcurrentShards(t *testing.T) {
	const nodes, perNode = 8, 1000
	p := NewProfile()
	p.Init(nodes)
	var wg sync.WaitGroup
	for id := 0; id < nodes; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sh := p.Counters(id)
			for i := 0; i < perNode; i++ {
				sh.Msg()
				sh.RowsOut(2)
				sh.ReqRows(1)
				sh.ProtocolMsg()
				sh.AddWork(Work{Derived: 1, Stored: 1, Dups: 1, Joins: 3, EDBScans: 1, EDBTuples: 4})
				sh.Handled(time.Duration(i)*time.Microsecond, time.Microsecond)
			}
		}(id)
	}
	wg.Wait()

	sn := p.Snapshot()
	if len(sn.Nodes) != nodes {
		t.Fatalf("snapshot has %d nodes, want %d", len(sn.Nodes), nodes)
	}
	var msgs, rows, joins, handled, busy int64
	for _, n := range sn.Nodes {
		if n.Msgs != perNode || n.Protocol != perNode || n.Derived != perNode ||
			n.Stored != perNode || n.Dups != perNode || n.EDBScans != perNode {
			t.Errorf("node %d per-unit counters off: %+v", n.ID, n)
		}
		if n.RowsOut != 2*perNode || n.ReqRows != perNode || n.Joins != 3*perNode || n.EDBRows != 4*perNode {
			t.Errorf("node %d row counters off: %+v", n.ID, n)
		}
		if !n.Active() {
			t.Errorf("node %d not active after %d handles", n.ID, perNode)
		}
		msgs += n.Msgs
		rows += n.RowsOut
		joins += n.Joins
		handled += n.Handled
		busy += int64(n.Busy)
	}
	if msgs != nodes*perNode || rows != 2*nodes*perNode || joins != 3*nodes*perNode {
		t.Errorf("totals msgs=%d rows=%d joins=%d", msgs, rows, joins)
	}
	if handled != nodes*perNode {
		t.Errorf("handled=%d want %d", handled, nodes*perNode)
	}
	if busy != int64(nodes*perNode)*int64(time.Microsecond) {
		t.Errorf("busy=%d", busy)
	}
}

// TestProfileActivityWindow checks the first/last encoding, in particular
// that a message handled at exactly t=0 still registers as activity.
func TestProfileActivityWindow(t *testing.T) {
	p := NewProfile()
	p.Init(2)
	sh := p.Counters(0)
	sh.Handled(0, 5*time.Microsecond)
	sh.Handled(10*time.Microsecond, 2*time.Microsecond)
	sh.Handled(3*time.Microsecond, time.Microsecond) // out of order: must not shrink the window

	sn := p.Snapshot()
	n := sn.Nodes[0]
	if n.First != 0 {
		t.Errorf("First = %v, want 0", n.First)
	}
	if n.Last != 12*time.Microsecond {
		t.Errorf("Last = %v, want 12µs", n.Last)
	}
	if !n.Active() {
		t.Error("node with handles reported inactive")
	}
	if idle := sn.Nodes[1]; idle.Active() || idle.First != 0 || idle.Last != 0 {
		t.Errorf("untouched node looks active: %+v", idle)
	}
}

// TestProfileRoundsAndSites covers the mutexed timeline and the per-site
// aggregation.
func TestProfileRoundsAndSites(t *testing.T) {
	p := NewProfile()
	p.Init(4)
	p.SetMeta(0, NodeMeta{Label: "a", Kind: "goal", Site: 0})
	p.SetMeta(1, NodeMeta{Label: "b", Kind: "rule", Site: 1})
	p.SetMeta(2, NodeMeta{Label: "c", Kind: "goal", Site: 1})
	p.SetMeta(3, NodeMeta{Label: "driver", Kind: "driver", Site: 0})
	p.Counters(1).Msg()
	p.Counters(2).Msg()
	p.MarkRound(1, 1, false)
	p.MarkRound(1, 2, true)

	sn := p.Snapshot()
	if len(sn.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(sn.Rounds))
	}
	if sn.Rounds[0].Round != 1 || sn.Rounds[0].Confirmed || !sn.Rounds[1].Confirmed {
		t.Errorf("timeline wrong: %+v", sn.Rounds)
	}
	sites := sn.Sites()
	if len(sites) != 2 || sites[0].Site != 0 || sites[1].Site != 1 {
		t.Fatalf("sites = %+v", sites)
	}
	if sites[0].Nodes != 2 || sites[1].Nodes != 2 {
		t.Errorf("site node counts: %+v", sites)
	}
	if sites[0].Msgs != 0 || sites[1].Msgs != 2 || sites[1].ActiveNodes != 2 {
		t.Errorf("site aggregates: %+v", sites)
	}
}

// TestProfileInitResets verifies a Profile can be reused across
// evaluations, the lifecycle the engine's Init call establishes.
func TestProfileInitResets(t *testing.T) {
	p := NewProfile()
	p.Init(2)
	p.Counters(0).Msg()
	p.MarkRound(0, 1, false)
	p.Init(3)
	sn := p.Snapshot()
	if len(sn.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(sn.Nodes))
	}
	if sn.Nodes[0].Msgs != 0 || len(sn.Rounds) != 0 {
		t.Errorf("Init did not reset: %+v rounds=%d", sn.Nodes[0], len(sn.Rounds))
	}
}

// TestSpanRing checks the bounded span ring: under capacity everything is
// retained; over capacity the oldest spans drop and the retained ones come
// back oldest-first. Init empties the ring but keeps it armed; an unarmed
// profile keeps no spans at all.
func TestSpanRing(t *testing.T) {
	p := NewProfile()
	p.Init(1)
	p.Handled(Span{Node: 0})
	if sn := p.Snapshot(); sn.Spans != nil || sn.Dropped != 0 || sn.Nodes[0].Handled != 1 {
		t.Fatalf("unarmed ring: %d spans, %d dropped, %d handled", len(sn.Spans), sn.Dropped, sn.Nodes[0].Handled)
	}
	p.RecordSpans(4)
	for i := 0; i < 3; i++ {
		p.Handled(Span{Rows: i})
	}
	sn := p.Snapshot()
	if sn.Dropped != 0 || len(sn.Spans) != 3 {
		t.Fatalf("under capacity: %d spans, %d dropped", len(sn.Spans), sn.Dropped)
	}
	for i := 3; i < 10; i++ {
		p.Handled(Span{Rows: i})
	}
	sn = p.Snapshot()
	if len(sn.Spans) != 4 || sn.Dropped != 6 {
		t.Fatalf("over capacity: %d spans, %d dropped", len(sn.Spans), sn.Dropped)
	}
	for i, s := range sn.Spans {
		if s.Rows != 6+i {
			t.Errorf("span %d has rows %d, want %d (oldest-first rotation)", i, s.Rows, 6+i)
		}
	}
	if h := sn.Nodes[0].Handled; h != 11 {
		t.Errorf("shard handled %d, want 11 (every span counts in the shard)", h)
	}
	p.Init(1)
	p.Handled(Span{Rows: 42})
	if sn = p.Snapshot(); len(sn.Spans) != 1 || sn.Dropped != 0 || sn.Spans[0].Rows != 42 {
		t.Errorf("after Init: spans %+v, dropped %d", sn.Spans, sn.Dropped)
	}
}

// TestSpanRingConcurrent exercises the ring from several writers under
// -race; the invariant is just that nothing is lost below capacity.
func TestSpanRingConcurrent(t *testing.T) {
	const writers, per = 4, 100
	p := NewProfile()
	p.RecordSpans(writers * per)
	p.Init(writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.Handled(Span{Node: w, Rows: i})
			}
		}(w)
	}
	wg.Wait()
	sn := p.Snapshot()
	if len(sn.Spans) != writers*per || sn.Dropped != 0 {
		t.Fatalf("got %d spans, %d dropped", len(sn.Spans), sn.Dropped)
	}
	if len(sn.Nodes) != writers {
		t.Fatalf("meta size %d", len(sn.Nodes))
	}
	perNode := map[int]int{}
	for _, s := range sn.Spans {
		perNode[s.Node]++
	}
	for w := 0; w < writers; w++ {
		if perNode[w] != per || sn.Nodes[w].Handled != per {
			t.Errorf("writer %d recorded %d spans and %d handles, want %d", w, perNode[w], sn.Nodes[w].Handled, per)
		}
	}
}
