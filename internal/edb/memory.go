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
// mu guards the relations, the change log and the statistics (index
// construction mutates a relation), so a lone writer may overlap readers:
// a scan collects its row views under RLock and hands them out outside it —
// row storage is an append-only arena, so captured views stay valid while
// an insert lands.
type memStore struct {
	syms  *symtab.Table
	mu    sync.RWMutex
	rels  map[ast.PredKey]*memRel
	preds []*memRel // by id: first-insert order
	// changes logs every successful insert as the disk journal does, one
	// 8-byte (predicate id, ordinal) record each, in commit order; record
	// i produced version i+1.
	changes []changeRec

	// version counts successful mutations; the bump comes last in Insert
	// so a reader observing it finds the change in the log.
	version atomic.Uint64
}

// memRel is one predicate's relation and its incremental statistics.
type memRel struct {
	key   ast.PredKey
	id    uint32
	rel   *relation.Relation
	stats relStats
}

// changeRec is one change-log record: row ordinal ord of predicate pred.
type changeRec struct{ pred, ord uint32 }

// NewMemory returns an empty in-memory store with a fresh symbol table.
func NewMemory() Storage { return newMemStore() }

func newMemStore() *memStore {
	return &memStore{syms: symtab.New(), rels: make(map[ast.PredKey]*memRel)}
}

func (ms *memStore) Symbols() *symtab.Table { return ms.syms }

// relation returns key's relation, nil when the predicate has no facts.
// Caller holds mu.
func (ms *memStore) relation(key ast.PredKey) *relation.Relation {
	if mr, ok := ms.rels[key]; ok {
		return mr.rel
	}
	return nil
}

func (ms *memStore) Insert(key ast.PredKey, t relation.Tuple) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	mr, ok := ms.rels[key]
	if !ok {
		mr = &memRel{key: key, id: uint32(len(ms.preds)), rel: relation.New(key.Arity),
			stats: relStats{cols: make([]colSketch, key.Arity)}}
		ms.rels[key] = mr
		ms.preds = append(ms.preds, mr)
	}
	ord, added := mr.rel.Add(t)
	if !added {
		return false
	}
	ms.changes = append(ms.changes, changeRec{pred: mr.id, ord: uint32(ord)})
	mr.stats.note(t)
	ms.version.Add(1)
	return true
}

func (ms *memStore) ScanInto(dst []relation.Tuple, key ast.PredKey, b relation.Binding) []relation.Tuple {
	ms.mu.RLock()
	r := ms.relation(key)
	if r == nil {
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
		if r := ms.relation(key); r != nil {
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
	out := make([]ast.PredKey, 0, len(ms.preds))
	for _, mr := range ms.preds {
		out = append(out, mr.key)
	}
	ms.mu.RUnlock()
	sortPreds(out)
	return out
}

func (ms *memStore) Cardinality(key ast.PredKey) int {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	if r := ms.relation(key); r != nil {
		return r.Len()
	}
	return 0
}

// Distinct reads the key count of the column's index, under the read lock
// once the index is built (rgg.Build asks on every plan-cache miss).
func (ms *memStore) Distinct(key ast.PredKey, col int) int {
	ms.mu.RLock()
	r := ms.relation(key)
	if r == nil || col < 0 || col >= r.Arity() {
		ms.mu.RUnlock()
		return 0
	}
	n, ok := r.TryDistinct(col)
	ms.mu.RUnlock()
	if ok {
		return n
	}
	ms.mu.Lock() // the one-time build of the column index
	defer ms.mu.Unlock()
	return r.Distinct(col)
}

func (ms *memStore) Stats() Stats {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	live := make(map[ast.PredKey]*relStats, len(ms.preds))
	for _, mr := range ms.preds {
		live[mr.key] = &mr.stats
	}
	return snapshotStats(ms.version.Load(), live)
}

func (ms *memStore) Version() uint64 { return ms.version.Load() }

// ChangesSince resolves the log records past v to row views in the
// relation arenas.
func (ms *memStore) ChangesSince(v uint64) []Change {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	if v >= uint64(len(ms.changes)) {
		return nil
	}
	out := make([]Change, 0, uint64(len(ms.changes))-v)
	for i, rec := range ms.changes[v:] {
		mr := ms.preds[rec.pred]
		out = append(out, Change{Seq: v + uint64(i) + 1, Key: mr.key, Row: mr.rel.Rows()[rec.ord]})
	}
	return out
}

func (ms *memStore) WarmFor(needs []IndexNeed) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for _, mr := range ms.preds {
		for c := 0; c < mr.rel.Arity(); c++ {
			mr.rel.BuildIndex(c)
		}
	}
	for _, n := range needs {
		if r := ms.relation(n.Key); r != nil && len(n.Cols) > 0 {
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
	r := ms.relation(key)
	ms.mu.RUnlock()
	if r != nil {
		return r
	}
	return relation.New(key.Arity)
}

// contains is Contains's O(1) fast path through the relation's dedup set.
func (ms *memStore) contains(key ast.PredKey, t relation.Tuple) bool {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	r := ms.relation(key)
	return r != nil && r.Contains(t)
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
