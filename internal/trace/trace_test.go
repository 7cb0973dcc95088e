package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestCountersAndSnapshot(t *testing.T) {
	var s Stats
	s.Add(Tally{RelReqs: 1, TupReqs: 1, Tuples: 1, Ends: 1, Protocol: 1, Rounds: 1})
	s.Add(Tally{TupReqs: 1, ReqEnds: 1, Derived: 1, Stored: 1, Dups: 1, Joins: 5, EDBScans: 1, EDBTuples: 7})
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
				s.Add(Tally{Tuples: 1, Joins: 2})
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
	s.Add(Tally{RelReqs: 1, Rounds: 1, Tuples: 2, TupleRows: 5})
	out := s.Snapshot().String()
	for _, w := range []string{"msgs=3", "relreq=1", "tuple=2/5rows", "rounds=1", "joins=0"} {
		if !strings.Contains(out, w) {
			t.Errorf("String %q missing %q", out, w)
		}
	}
}
