// The Storage interface is the EDB seam of §3: the paper's retrieval
// processes treat the extensional database as an opaque service answering
// relation and tuple requests by shipping tuples, so nothing in the
// message-passing model requires base relations to be RAM-resident. Every
// consumer above this package — the engine's EDB leaves, rgg's statistics
// strategy, the cost model, subscriptions — speaks only Storage, and two
// implementations ship: the in-memory store (New) and the disk-backed
// segment store (OpenDisk). See doc/STORAGE.md for the full contract.
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

// Storage is a pluggable store of ground facts: named base relations
// sharing one symbol table, a monotone change journal, and incrementally
// maintained statistics. Implementations must be safe for concurrent
// readers, and for a concurrent writer against readers (Insert may overlap
// Scan); writers are serialized by the caller (mpq.System holds its
// mutation lock).
//
// Rows are tuples of symbols interned in Symbols(); Insert callers intern
// first. Scans yield tuples in insertion order — the property the engine's
// delta windows rely on — and the yielded tuples are read-only views of
// store-owned memory (relation chunks, mapped segments): never mutate one,
// but retaining one is fine — it stays valid until Close.
type Storage interface {
	// Symbols returns the store's symbol table. All rows are expressed in
	// it; persistent stores restore it on reopen so symbol ids are stable.
	Symbols() *symtab.Table

	// Insert adds one interned row and reports whether it was new. A
	// successful insert appends to the change journal, updates the
	// statistics, and bumps Version — in that order, so a reader observing
	// the new version finds the change. Inserting a duplicate has no
	// observable effect (no version bump).
	Insert(key ast.PredKey, t relation.Tuple) bool

	// ScanInto appends the rows of key matching the partial binding (NoSym
	// entries are unconstrained; a nil binding matches everything) to dst,
	// in insertion order, and returns the extended slice. It is the one
	// probe path of a backend — an EDB leaf calls it once per tuple request
	// with a reused buffer, so a bound probe over a warmed index allocates
	// nothing and makes no system call. An unknown predicate appends nothing.
	ScanInto(dst []relation.Tuple, key ast.PredKey, b relation.Binding) []relation.Tuple

	// Scan streams what ScanInto would append.
	Scan(key ast.PredKey, b relation.Binding) iter.Seq[relation.Tuple]

	// ScanSince streams the rows of key with insertion ordinal >= from —
	// the delta window between two Cardinality observations.
	ScanSince(key ast.PredKey, from int) iter.Seq[relation.Tuple]

	// Has reports whether key holds at least one row. A predicate with no
	// row is unknown to every read, even one a disk store still has
	// registered after recovery dropped its rows.
	Has(key ast.PredKey) bool

	// Preds returns the predicate keys with at least one fact, sorted.
	Preds() []ast.PredKey

	// Cardinality returns the exact row count of key (0 when unknown).
	Cardinality(key ast.PredKey) int

	// Distinct returns the exact number of distinct values in column col
	// of key. It may build an index, so call it during planning, not
	// evaluation. (Stats returns cheap sketched estimates instead.)
	Distinct(key ast.PredKey, col int) int

	// Stats snapshots the store's statistics (exact cardinalities plus
	// sketched per-column distinct counts) stamped with the Version they
	// were read at. Safe against a concurrent Insert.
	Stats() Stats

	// Version counts successful mutations; it is the statistics epoch and
	// the result-cache invalidation key. Persistent stores restore it on
	// reopen.
	Version() uint64

	// ChangesSince returns the mutations with Seq > v, oldest first — the
	// journal tail subscriptions use to decide whether a version bump
	// touched any predicate their query reads.
	ChangesSince(v uint64) []Change

	// WarmFor pre-builds every single-column index plus the named
	// composite indexes, so later concurrent Scans never build one lazily.
	// Needs for unknown predicates are ignored; warming twice is a no-op.
	WarmFor(needs []IndexNeed)

	// Close releases the store's resources (files, caches). The in-memory
	// store's Close is a no-op. Using a store after Close is undefined.
	Close() error

	// base returns the core shared by both backends (so only this package
	// implements Storage); Materialize and Contains read through it.
	base() *core
}

// core is what both backends share: the predicate catalog with one
// relation.Relation and one relStats per predicate, the version, and the
// lock guarding them. It implements every read of Storage once; a backend
// adds Insert, ChangesSince and Close, and decides where a committed row's
// bytes live: the relation's own chunks, or mapped segment extents that the
// relation takes as its chunks.
//
// mu guards the catalog, the relations and the statistics (index
// construction mutates a relation), so a lone writer may overlap readers:
// a scan collects its row views, or copies the relation's Rows, under RLock
// and reads them outside it — a committed row never moves, so captured
// views stay valid while an insert lands.
type core struct {
	syms  *symtab.Table
	mu    sync.RWMutex
	byKey map[ast.PredKey]*pred
	preds []*pred // by id: registration order
	// version counts successful mutations; the bump comes last in an
	// insert, so a reader observing it finds the change logged.
	version atomic.Uint64
}

// pred is one predicate's relation and its incremental statistics. A
// predicate is registered before its first row commits, and a disk store
// recovers registrations whose rows were lost, so it may hold no row; the
// reads treat such a predicate as unknown.
type pred struct {
	key   ast.PredKey
	id    uint32
	rel   *relation.Relation
	stats relStats
}

func (c *core) init() {
	c.syms = symtab.New()
	c.byKey = make(map[ast.PredKey]*pred)
}

// register adds key to the catalog under the next id. Caller holds mu.
func (c *core) register(key ast.PredKey) *pred {
	p := &pred{key: key, id: uint32(len(c.preds)), rel: relation.New(key.Arity),
		stats: relStats{cols: make([]colSketch, key.Arity)}}
	c.byKey[key] = p
	c.preds = append(c.preds, p)
	return p
}

// committed folds a committed row into the statistics and bumps the
// version: the last step of every successful insert. Caller holds mu.
func (c *core) committed(p *pred, row relation.Tuple) {
	p.stats.note(row)
	c.version.Add(1)
}

// live returns key's relation when it holds a row, else nil. Caller holds
// mu.
func (c *core) live(key ast.PredKey) *relation.Relation {
	if p := c.byKey[key]; p != nil && p.rel.Len() > 0 {
		return p.rel
	}
	return nil
}

func (c *core) Symbols() *symtab.Table { return c.syms }

func (c *core) ScanInto(dst []relation.Tuple, key ast.PredKey, b relation.Binding) []relation.Tuple {
	c.mu.RLock()
	r := c.live(key)
	if r == nil {
		c.mu.RUnlock()
		return dst
	}
	out, indexed := r.TrySelectInto(dst, b)
	c.mu.RUnlock()
	if !indexed {
		// The composite index the probe needs is missing: take the write
		// lock for the one-time build (WarmFor makes this path cold).
		c.mu.Lock()
		out = r.SelectInto(dst, b)
		c.mu.Unlock()
	}
	return out
}

// Scan is one ScanInto for a bound scan; a scan of everything is the delta
// window from ordinal 0, which streams without collecting the rows first.
func (c *core) Scan(key ast.PredKey, b relation.Binding) iter.Seq[relation.Tuple] {
	if !b.Constrains() {
		return c.ScanSince(key, 0)
	}
	return func(yield func(relation.Tuple) bool) {
		for _, t := range c.ScanInto(nil, key, b) {
			if !yield(t) {
				return
			}
		}
	}
}

func (c *core) ScanSince(key ast.PredKey, from int) iter.Seq[relation.Tuple] {
	return func(yield func(relation.Tuple) bool) {
		// The copy of the relation's Rows reads the committed rows outside
		// the lock: they never move, and an insert only adds past them.
		c.mu.RLock()
		var rows relation.Rows
		if r := c.live(key); r != nil {
			rows = r.Rows
		}
		c.mu.RUnlock()
		for i := max(from, 0); i < rows.Len(); i++ {
			if !yield(rows.Row(i)) {
				return
			}
		}
	}
}

func (c *core) Has(key ast.PredKey) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.live(key) != nil
}

func (c *core) Preds() []ast.PredKey {
	c.mu.RLock()
	out := make([]ast.PredKey, 0, len(c.preds))
	for _, p := range c.preds {
		if p.rel.Len() > 0 {
			out = append(out, p.key)
		}
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

func (c *core) Cardinality(key ast.PredKey) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if r := c.live(key); r != nil {
		return r.Len()
	}
	return 0
}

// Distinct reads the key count of the column's index, under the read lock
// once the index is built (rgg.Build asks on every plan-cache miss).
func (c *core) Distinct(key ast.PredKey, col int) int {
	c.mu.RLock()
	r := c.live(key)
	if r == nil || col < 0 || col >= r.Arity() {
		c.mu.RUnlock()
		return 0
	}
	n, ok := r.TryDistinct(col)
	c.mu.RUnlock()
	if ok {
		return n
	}
	c.mu.Lock() // the one-time build of the column index
	defer c.mu.Unlock()
	return r.Distinct(col)
}

func (c *core) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	live := make(map[ast.PredKey]*relStats, len(c.preds))
	for _, p := range c.preds {
		if p.rel.Len() > 0 {
			live[p.key] = &p.stats
		}
	}
	return snapshotStats(c.version.Load(), live)
}

func (c *core) Version() uint64 { return c.version.Load() }

func (c *core) WarmFor(needs []IndexNeed) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.preds {
		for col := range p.key.Arity {
			p.rel.BuildIndexOn(col)
		}
	}
	for _, n := range needs {
		if p := c.byKey[n.Key]; p != nil && len(n.Cols) > 0 {
			p.rel.BuildIndexOn(n.Cols...)
		}
	}
}

func (c *core) base() *core { return c }

// Materialize returns key's rows as the store's own relation: zero copies
// on either backend, so treat it as read-only, and do not use a disk
// store's after Close. An unknown predicate yields an empty relation of
// the key's arity.
func Materialize(st Storage, key ast.PredKey) *relation.Relation {
	c := st.base()
	c.mu.RLock()
	p := c.byKey[key]
	c.mu.RUnlock()
	if p != nil {
		return p.rel
	}
	return relation.New(key.Arity)
}

// Contains reports whether the store holds exactly the tuple t for key, in
// O(1) through the relation's dedup set.
func Contains(st Storage, key ast.PredKey, t relation.Tuple) bool {
	return st.base().contains(key, t)
}

func (c *core) contains(key ast.PredKey, t relation.Tuple) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p := c.byKey[key]
	return p != nil && p.rel.Contains(t)
}
