package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestCountersAndSnapshot(t *testing.T) {
	var s Stats
	s.RelReq()
	s.TupReq()
	s.TupReq()
	s.TupleMsg()
	s.EndMsg()
	s.ReqEndMsg()
	s.ProtocolMsg()
	s.Round()
	s.AddWork(Work{Derived: 1, Stored: 1, Dups: 1, Joins: 5, EDBScans: 1, EDBTuples: 7})
	sn := s.Snapshot()
	if sn.RelReqs != 1 || sn.TupReqs != 2 || sn.Tuples != 1 || sn.Ends != 1 || sn.ReqEnds != 1 {
		t.Errorf("basic counters wrong: %+v", sn)
	}
	if sn.Messages() != 6 {
		t.Errorf("Messages = %d, want 6", sn.Messages())
	}
	if sn.Protocol != 1 || sn.Rounds != 1 || sn.Derived != 1 || sn.Stored != 1 || sn.Dups != 1 {
		t.Errorf("derived counters wrong: %+v", sn)
	}
	if sn.Joins != 5 || sn.EDBScans != 1 || sn.EDBTuples != 7 {
		t.Errorf("join/EDB counters wrong: %+v", sn)
	}
}

func TestConcurrentIncrements(t *testing.T) {
	var s Stats
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.TupleMsg()
				s.AddWork(Work{Joins: 2})
			}
		}()
	}
	wg.Wait()
	sn := s.Snapshot()
	if sn.Tuples != workers*each {
		t.Errorf("Tuples = %d, want %d", sn.Tuples, workers*each)
	}
	if sn.Joins != 2*workers*each {
		t.Errorf("Joins = %d", sn.Joins)
	}
}

func TestSnapshotString(t *testing.T) {
	var s Stats
	s.RelReq()
	s.Round()
	out := s.Snapshot().String()
	for _, w := range []string{"msgs=1", "relreq=1", "rounds=1", "joins=0"} {
		if !strings.Contains(out, w) {
			t.Errorf("String %q missing %q", out, w)
		}
	}
}
