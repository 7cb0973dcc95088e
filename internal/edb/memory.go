package edb

import (
	"iter"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// memStore is the in-memory Storage: one relation.Relation per predicate.
// It is the original edb.Database layout behind the Storage seam, and the
// behavioral reference the disk store's conformance suite compares against.
//
// mu guards the relation map and the relation internals (index
// construction mutates a relation), so a lone writer may overlap readers:
// a scan collects its row views under RLock and hands them out outside it —
// row storage is an append-only arena, so captured views stay valid while
// an insert lands.
type memStore struct {
	syms *symtab.Table
	mu   sync.RWMutex
	rels map[ast.PredKey]*relation.Relation

	// version counts successful mutations; the bump comes last in insert
	// so a reader observing it finds the change in the log.
	version atomic.Uint64
	// chMu guards the change log and statistics (Stats snapshots are safe
	// against a concurrent bulk load).
	chMu    sync.Mutex
	changes []Change
	stats   map[ast.PredKey]*relStats
}

// NewMemory returns an empty in-memory store with a fresh symbol table.
func NewMemory() Storage { return newMemStore() }

func newMemStore() *memStore {
	return &memStore{syms: symtab.New(), rels: make(map[ast.PredKey]*relation.Relation)}
}

func (ms *memStore) Symbols() *symtab.Table { return ms.syms }

func (ms *memStore) rel(key ast.PredKey) *relation.Relation {
	r, ok := ms.rels[key]
	if !ok {
		r = relation.New(key.Arity)
		ms.rels[key] = r
	}
	return r
}

func (ms *memStore) Insert(key ast.PredKey, t relation.Tuple) bool {
	ms.mu.Lock()
	r := ms.rel(key)
	added := r.Insert(t)
	var row relation.Tuple
	if added {
		row = r.Rows()[r.Len()-1] // the store-owned copy
	}
	ms.mu.Unlock()
	if !added {
		return false
	}
	ms.record(key, row)
	return true
}

// record logs one successful insert, maintains the incremental statistics,
// and bumps the version (last, so the change is visible first).
func (ms *memStore) record(key ast.PredKey, t relation.Tuple) {
	ms.chMu.Lock()
	v := ms.version.Load() + 1
	ms.changes = append(ms.changes, Change{Seq: v, Key: key, Row: t})
	ms.noteInsert(key, t)
	ms.chMu.Unlock()
	ms.version.Add(1)
}

// noteInsert maintains the incremental statistics for one successful
// insert. Called from record under chMu.
func (ms *memStore) noteInsert(key ast.PredKey, t relation.Tuple) {
	if ms.stats == nil {
		ms.stats = make(map[ast.PredKey]*relStats)
	}
	rs, ok := ms.stats[key]
	if !ok {
		rs = &relStats{cols: make([]colSketch, key.Arity)}
		ms.stats[key] = rs
	}
	rs.note(t)
}

func (ms *memStore) ScanInto(dst []relation.Tuple, key ast.PredKey, b relation.Binding) []relation.Tuple {
	ms.mu.RLock()
	r, ok := ms.rels[key]
	if !ok {
		ms.mu.RUnlock()
		return dst
	}
	out, indexed := r.TrySelectInto(dst, b)
	ms.mu.RUnlock()
	if !indexed {
		// The composite index the probe needs is missing: take the write
		// lock for the one-time build (WarmFor makes this path cold).
		ms.mu.Lock()
		out = r.SelectInto(dst, b)
		ms.mu.Unlock()
	}
	return out
}

func (ms *memStore) Scan(key ast.PredKey, b relation.Binding) iter.Seq[relation.Tuple] {
	return scanSeq(ms, key, b)
}

func (ms *memStore) ScanSince(key ast.PredKey, from int) iter.Seq[relation.Tuple] {
	return func(yield func(relation.Tuple) bool) {
		ms.mu.RLock()
		var rows []relation.Tuple
		if r, ok := ms.rels[key]; ok {
			if all := r.Rows(); from < len(all) {
				rows = all[from:]
			}
		}
		ms.mu.RUnlock()
		for _, t := range rows {
			if !yield(t) {
				return
			}
		}
	}
}

func (ms *memStore) Has(key ast.PredKey) bool {
	ms.mu.RLock()
	_, ok := ms.rels[key]
	ms.mu.RUnlock()
	return ok
}

func (ms *memStore) Preds() []ast.PredKey {
	ms.mu.RLock()
	out := make([]ast.PredKey, 0, len(ms.rels))
	for k := range ms.rels {
		out = append(out, k)
	}
	ms.mu.RUnlock()
	sortPreds(out)
	return out
}

func (ms *memStore) Cardinality(key ast.PredKey) int {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	if r, ok := ms.rels[key]; ok {
		return r.Len()
	}
	return 0
}

func (ms *memStore) Distinct(key ast.PredKey, col int) int {
	ms.mu.Lock() // Relation.Distinct may build the column index
	defer ms.mu.Unlock()
	if r, ok := ms.rels[key]; ok && col < r.Arity() {
		return r.Distinct(col)
	}
	return 0
}

func (ms *memStore) Stats() Stats {
	ms.chMu.Lock()
	defer ms.chMu.Unlock()
	return snapshotStats(ms.version.Load(), ms.stats)
}

func (ms *memStore) Version() uint64 { return ms.version.Load() }

func (ms *memStore) ChangesSince(v uint64) []Change {
	ms.chMu.Lock()
	defer ms.chMu.Unlock()
	if v >= uint64(len(ms.changes)) {
		return nil
	}
	out := make([]Change, len(ms.changes)-int(v))
	copy(out, ms.changes[v:])
	return out
}

func (ms *memStore) WarmFor(needs []IndexNeed) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for _, r := range ms.rels {
		for c := 0; c < r.Arity(); c++ {
			r.BuildIndex(c)
		}
	}
	for _, n := range needs {
		if r, ok := ms.rels[n.Key]; ok && len(n.Cols) > 0 {
			r.BuildIndexOn(n.Cols...)
		}
	}
}

func (ms *memStore) Close() error { return nil }

// liveRelation is Materialize's zero-copy fast path. An unknown predicate
// yields a fresh empty relation of the right arity (not entered in the
// map: Has stays false).
func (ms *memStore) liveRelation(key ast.PredKey) *relation.Relation {
	ms.mu.RLock()
	r, ok := ms.rels[key]
	ms.mu.RUnlock()
	if ok {
		return r
	}
	return relation.New(key.Arity)
}

// contains is Contains's O(1) fast path through the relation's dedup set.
func (ms *memStore) contains(key ast.PredKey, t relation.Tuple) bool {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	r, ok := ms.rels[key]
	return ok && r.Contains(t)
}

// sortPreds orders predicate keys by name then arity, the Preds() contract.
func sortPreds(out []ast.PredKey) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Arity < out[j].Arity
	})
}
