package edb

import (
	"repro/internal/ast"
	"repro/internal/relation"
)

// memStore is the in-memory Storage: the shared core, with each committed
// row copied into its relation's chunks. It is the behavioral reference the
// disk store's conformance suite compares against.
type memStore struct {
	core
	// changes logs every successful insert as the disk journal does, one
	// 8-byte (predicate id, ordinal) record each, in commit order; record
	// i produced version i+1.
	changes []changeRec
}

// changeRec is one change-log record: row ordinal ord of predicate pred.
type changeRec struct{ pred, ord uint32 }

// NewMemory returns an empty in-memory store with a fresh symbol table.
func NewMemory() Storage {
	ms := &memStore{}
	ms.init()
	return ms
}

func (ms *memStore) Insert(key ast.PredKey, t relation.Tuple) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	p := ms.byKey[key]
	if p == nil {
		p = ms.register(key)
	}
	ord, added := p.rel.Add(t)
	if !added {
		return false
	}
	ms.changes = append(ms.changes, changeRec{pred: p.id, ord: uint32(ord)})
	ms.committed(p, t)
	return true
}

// ChangesSince resolves the log records past v to row views in the
// relations' chunks.
func (ms *memStore) ChangesSince(v uint64) []Change {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	if v >= uint64(len(ms.changes)) {
		return nil
	}
	out := make([]Change, 0, uint64(len(ms.changes))-v)
	for i, rec := range ms.changes[v:] {
		p := ms.preds[rec.pred]
		out = append(out, Change{Seq: v + uint64(i) + 1, Key: p.key, Row: p.rel.Row(int(rec.ord))})
	}
	return out
}

func (ms *memStore) Close() error { return nil }
