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
// store-owned memory (relation arenas, mapped segments): never mutate one,
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

	// Has reports whether any facts were ever loaded for key.
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
}

// scanSeq is every backend's Scan: a bound scan is one ScanInto, and a scan
// of everything is the delta window from ordinal 0, which streams without
// collecting the relation first.
func scanSeq(st Storage, key ast.PredKey, b relation.Binding) iter.Seq[relation.Tuple] {
	if !b.Constrains() {
		return st.ScanSince(key, 0)
	}
	return func(yield func(relation.Tuple) bool) {
		for _, t := range st.ScanInto(nil, key, b) {
			if !yield(t) {
				return
			}
		}
	}
}

// liveRelation is the internal fast path for Materialize: stores that hold
// their rows as a *relation.Relation expose it directly instead of copying.
type liveRelation interface {
	liveRelation(key ast.PredKey) *relation.Relation
}

// pointProber is the internal fast path for Contains: stores with a dedup
// set answer membership without an index probe or scan.
type pointProber interface {
	contains(key ast.PredKey, t relation.Tuple) bool
}

// Materialize returns key's rows as a relation. For the in-memory store
// this is the live base relation itself (zero copies — treat it as
// read-only); other stores materialize a fresh relation from a full scan,
// so callers that consult a relation repeatedly should materialize once
// and reuse it. An unknown predicate yields an empty relation of the
// key's arity.
func Materialize(st Storage, key ast.PredKey) *relation.Relation {
	if db, ok := st.(*Database); ok {
		st = db.store
	}
	if lv, ok := st.(liveRelation); ok {
		return lv.liveRelation(key)
	}
	r := relation.New(key.Arity)
	for t := range st.Scan(key, nil) {
		r.Insert(t)
	}
	return r
}

// Contains reports whether the store holds exactly the tuple t for key.
// Stores with a membership structure answer in O(1); the generic fallback
// is a fully-bound Scan.
func Contains(st Storage, key ast.PredKey, t relation.Tuple) bool {
	if db, ok := st.(*Database); ok {
		st = db.store
	}
	if pp, ok := st.(pointProber); ok {
		return pp.contains(key, t)
	}
	if key.Arity != len(t) {
		return false
	}
	for range st.Scan(key, relation.Binding(t)) {
		return true
	}
	return false
}
