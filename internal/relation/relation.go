// Package relation is the relational-algebra substrate: set-semantics
// relations over interned symbols, with hash indexes and the operators the
// paper's node processes need — selection, projection, join, semijoin, and
// union (§2.2: "rule nodes combine their subgoal relations using join,
// select, and project; predicate nodes compute the union of the relations
// computed by their children").
//
// The substrate is allocation-free on its hot paths: membership is an
// open-addressed hash set over an FNV-1a hash of the symbol columns (no
// per-tuple string key is ever materialized), row storage is a chunked
// flat arena of symbols (inserts do not allocate a slice header plus a
// clone per tuple), and joins probe composite (multi-column) hash indexes
// so a k-column equijoin costs one hash lookup per probe tuple instead of
// a single-column probe followed by an equality scan.
package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/symtab"
)

// Tuple is a fixed-arity row of interned constants.
type Tuple []symtab.Sym

// Key encodes the tuple as a string usable as a map key. Symbols are 32-bit,
// so four bytes per column give a collision-free encoding. The relation
// internals no longer use it (they hash columns directly); it remains for
// callers that need tuples as keys of ordinary Go maps.
func (t Tuple) Key() string {
	b := make([]byte, 4*len(t))
	for i, s := range t {
		b[4*i] = byte(s)
		b[4*i+1] = byte(s >> 8)
		b[4*i+2] = byte(s >> 16)
		b[4*i+3] = byte(s >> 24)
	}
	return string(b)
}

// Equal reports column-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple's symbols through the table.
func (t Tuple) String(tab *symtab.Table) string {
	parts := make([]string, len(t))
	for i, s := range t {
		parts[i] = tab.String(s)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// FNV-1a over the 4 bytes of each 32-bit symbol.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds one symbol into an FNV-1a hash, byte by byte.
func fnvMix(h uint64, v uint32) uint64 {
	h = (h ^ uint64(v&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>8&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>16&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>24)) * fnvPrime64
	return h
}

// hashSyms hashes a row of symbols without materializing a key.
func hashSyms(vals []symtab.Sym) uint64 {
	h := uint64(fnvOffset64)
	for _, s := range vals {
		h = fnvMix(h, uint32(s))
	}
	return h
}

// hashSymsAt hashes the values at the given positions of a row, in the
// given order — the key of a column index.
func hashSymsAt(vals []symtab.Sym, pos []int) uint64 {
	h := uint64(fnvOffset64)
	for _, p := range pos {
		h = fnvMix(h, uint32(vals[p]))
	}
	return h
}

// maxIndexCols caps the width of a composite index key. Equalities beyond
// the cap are verified per candidate row (they still never trigger a scan
// of non-candidates).
const maxIndexCols = 8

// colsKey packs an index's column list (each < 255) into the key that
// identifies it, without allocating.
func colsKey(cols []int) uint64 {
	k := uint64(0)
	for _, c := range cols {
		k = k<<8 | uint64(c+1)
	}
	return k
}

// index is a hash index over a fixed column list. Every distinct value of
// the indexed columns owns one bucket of an open-addressed table, and the
// rows holding that value are chained through next in insertion order, so
// adding a row — under a new key or an old one — allocates nothing beyond
// the amortized growth of the two flat slices, and Reset keeps both. The
// bucket count is the exact distinct count of the column list. The index
// does not hold the rows: its methods take the relation's rows, by ordinal.
type index struct {
	key     uint64 // colsKey(cols)
	cols    []int
	buckets []bucket // power-of-two size, under 3/4 occupancy
	next    []int32  // next[ord]: ordinal+1 of the following row with the same key, 0 at the end
	keys    int      // occupied buckets
}

// bucket is one key's chain: ordinal+1 of its first and last row (head 0
// marks an empty bucket) and its length.
type bucket struct{ head, tail, n int32 }

// newIndex indexes rows on cols (at most maxIndexCols of them).
func newIndex(cols []int, rows []Tuple) *index {
	ix := &index{key: colsKey(cols), cols: append([]int(nil), cols...),
		buckets: make([]bucket, 16), next: make([]int32, 0, len(rows))}
	for ord, row := range rows {
		ix.add(rows, row, int32(ord))
	}
	return ix
}

// find returns the bucket for the given values of the indexed columns (in
// index-column order): the key's own bucket, or the empty one where it
// would go (head == 0). A chain is walked from head (ordinal+1 of its
// first row) through next[ref-1] until 0.
func (ix *index) find(rows []Tuple, vals []symtab.Sym) *bucket {
	mask := uint64(len(ix.buckets) - 1)
probe:
	for i := hashSyms(vals) & mask; ; i = (i + 1) & mask {
		b := &ix.buckets[i]
		if b.head == 0 {
			return b
		}
		row := rows[b.head-1]
		for k, c := range ix.cols {
			if row[c] != vals[k] {
				continue probe
			}
		}
		return b
	}
}

// add appends row ord (the next ordinal: rows are indexed in order) to its
// key's chain; rows[ord] is row.
func (ix *index) add(rows []Tuple, row Tuple, ord int32) {
	if (ix.keys+1)*4 > len(ix.buckets)*3 {
		ix.grow(rows)
	}
	var buf [maxIndexCols]symtab.Sym
	vals := buf[:len(ix.cols)]
	for k, c := range ix.cols {
		vals[k] = row[c]
	}
	ix.next = append(ix.next, 0)
	b := ix.find(rows, vals)
	if b.head == 0 {
		b.head = ord + 1
		ix.keys++
	} else {
		ix.next[b.tail-1] = ord + 1
	}
	b.tail = ord + 1
	b.n++
}

// grow doubles the bucket table. Keys are distinct, so re-placing a bucket
// needs its hash but no comparisons.
func (ix *index) grow(rows []Tuple) {
	old := ix.buckets
	ix.buckets = make([]bucket, 2*len(old))
	mask := uint64(len(ix.buckets) - 1)
	for _, b := range old {
		if b.head == 0 {
			continue
		}
		i := hashSymsAt(rows[b.head-1], ix.cols) & mask
		for ix.buckets[i].head != 0 {
			i = (i + 1) & mask
		}
		ix.buckets[i] = b
	}
}

func (ix *index) reset() {
	clear(ix.buckets)
	ix.next = ix.next[:0]
	ix.keys = 0
}

// Relation is a mutable set of same-arity tuples. Insertion order is
// preserved for deterministic iteration; membership is O(1) and
// allocation-free. Hash indexes — single-column or composite — are built
// lazily and maintained incrementally on insert.
//
// A Relation is not safe for concurrent mutation; in the engine each node
// process owns its relations exclusively, exactly as the paper's
// no-shared-memory regime prescribes. Because index construction is lazy
// and mutates the relation, code that reads one relation from several
// goroutines must warm every index it will probe first (see
// edb.Storage.WarmFor).
type Relation struct {
	arity   int
	rows    []Tuple  // row views, in insertion order: into arena chunks, or AppendView's
	hashes  []uint64 // hashes[i] = hashSyms(rows[i])
	chunk   []symtab.Sym
	slots   []int32  // open-addressed dedup set: row ordinal+1; 0 = empty
	indexes []*index // a handful at most: a scan beats hashing the key
}

// New returns an empty relation of the given arity. Arity zero is legal and
// models propositional (boolean) predicates: the empty tuple is its only
// possible member.
func New(arity int) *Relation {
	if arity < 0 {
		panic(fmt.Sprintf("relation: negative arity %d", arity))
	}
	return &Relation{arity: arity}
}

// FromTuples builds a relation of the given arity from tuples, discarding
// duplicates.
func FromTuples(arity int, tuples []Tuple) *Relation {
	r := New(arity)
	for _, t := range tuples {
		r.Insert(t)
	}
	return r
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of distinct tuples.
func (r *Relation) Len() int { return len(r.rows) }

// lookup returns the ordinal of the row equal to t (whose hash is h), or
// -1. It never allocates.
func (r *Relation) lookup(h uint64, t Tuple) int {
	if len(r.slots) == 0 {
		return -1
	}
	mask := uint64(len(r.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := r.slots[i]
		if s == 0 {
			return -1
		}
		ord := int(s - 1)
		if r.hashes[ord] == h && r.rows[ord].Equal(t) {
			return ord
		}
	}
}

// place writes a row reference (ordinal+1) into the first free slot of its
// probe sequence. The table must have free space.
func (r *Relation) place(h uint64, ref int32) {
	mask := uint64(len(r.slots) - 1)
	i := h & mask
	for r.slots[i] != 0 {
		i = (i + 1) & mask
	}
	r.slots[i] = ref
}

// reserve keeps the open-addressed table under 3/4 occupancy for need
// rows, rebuilding from the stored hashes when it grows.
func (r *Relation) reserve(need int) {
	if len(r.slots) > 0 && need*4 <= len(r.slots)*3 {
		return
	}
	size := 16
	for size*3 < need*4 {
		size *= 2
	}
	r.slots = make([]int32, size)
	for ord, h := range r.hashes {
		r.place(h, int32(ord+1))
	}
}

// arena appends the tuple's symbols to the current chunk and returns a
// stable view of them. Full chunks are never reallocated (row views keep
// them alive), so views stay valid as the relation grows.
func (r *Relation) arena(t Tuple) Tuple {
	if r.arity == 0 {
		return Tuple{}
	}
	if len(r.chunk)+r.arity > cap(r.chunk) {
		per := 64
		for per < len(r.rows) && per < 16384 {
			per *= 2
		}
		r.chunk = make([]symtab.Sym, 0, per*r.arity)
	}
	off := len(r.chunk)
	r.chunk = append(r.chunk, t...)
	return r.chunk[off:len(r.chunk):len(r.chunk)]
}

// Insert adds the tuple and reports whether it was new. The relation keeps
// its own copy of the tuple. Inserting a duplicate performs no allocation.
func (r *Relation) Insert(t Tuple) bool {
	_, isNew := r.Add(t)
	return isNew
}

// Add is Insert that also returns the tuple's ordinal: its position in
// Rows(), whether it was just appended or already present. Ordinals are
// dense and stable until Reset, so callers can key side tables (bitsets,
// per-row lists) by them instead of by a materialized tuple key.
func (r *Relation) Add(t Tuple) (ord int, isNew bool) {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation: inserting arity-%d tuple into arity-%d relation", len(t), r.arity))
	}
	h := hashSyms(t)
	if ord := r.lookup(h, t); ord >= 0 {
		return ord, false
	}
	return r.push(h, r.arena(t)), true
}

// Append adds t, which must not be a member, and returns its ordinal: Insert
// without the membership probe, for a caller that knows t is new. The
// relation keeps its own copy, and t becomes visible to Contains and the
// indexes as after Insert.
func (r *Relation) Append(t Tuple) int {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation: appending arity-%d tuple to arity-%d relation", len(t), r.arity))
	}
	return r.push(hashSyms(t), r.arena(t))
}

// AppendView appends t, which must not be a member, without copying it: the
// relation keeps the caller's view, whose memory must stay valid and
// unchanged for the relation's lifetime. It returns t's ordinal. A store
// whose rows live elsewhere (the disk store's mapped segments) gets the
// relation's dedup set and indexes over them this way.
func (r *Relation) AppendView(t Tuple) int {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation: appending arity-%d tuple to arity-%d relation", len(t), r.arity))
	}
	if len(r.rows) == cap(r.rows) {
		// Double: append's gentler growth for large slices would allocate
		// five times the final size of the views over a long load.
		n := max(len(r.rows), 16)
		r.rows, r.hashes = slices.Grow(r.rows, n), slices.Grow(r.hashes, n)
	}
	return r.push(hashSyms(t), t)
}

// Grow presizes the relation for n more rows, so that many inserts neither
// rehash the dedup set nor copy the row list.
func (r *Relation) Grow(n int) {
	r.rows = slices.Grow(r.rows, n)
	r.hashes = slices.Grow(r.hashes, n)
	r.reserve(len(r.rows) + n)
}

// push appends a new row (its view and hash) to the rows, the dedup set and
// every index, returning its ordinal.
func (r *Relation) push(h uint64, row Tuple) int {
	r.reserve(len(r.rows) + 1)
	ord := len(r.rows)
	r.rows = append(r.rows, row)
	r.hashes = append(r.hashes, h)
	r.place(h, int32(ord+1))
	for _, ix := range r.indexes {
		ix.add(r.rows, row, int32(ord))
	}
	return ord
}

// Ordinal returns the position of t in Rows(), or -1 when t is not a
// member. It never allocates.
func (r *Relation) Ordinal(t Tuple) int {
	if len(t) != r.arity {
		return -1
	}
	return r.lookup(hashSyms(t), t)
}

// Reset empties the relation while keeping its allocations: the row and
// hash slices, the open-addressed dedup table, the current arena chunk,
// and every built index (bucket table and row chains; cleared, then
// maintained incrementally by later inserts) all retain their capacity. Repeated evaluations on one prepared
// plan reset their temporary relations instead of reallocating them.
func (r *Relation) Reset() {
	if need := len(r.rows) * r.arity; need > cap(r.chunk) {
		// The rows spilled over several arena chunks: keep one that holds
		// them all, so a refill of the same size allocates nothing.
		r.chunk = make([]symtab.Sym, 0, need)
	}
	r.rows = r.rows[:0]
	r.hashes = r.hashes[:0]
	r.chunk = r.chunk[:0]
	clear(r.slots)
	for _, ix := range r.indexes {
		ix.reset()
	}
}

// Bytes estimates the memory the relation holds: its row views and hashes,
// its arena, its dedup table and its indexes.
func (r *Relation) Bytes() int {
	n := cap(r.rows)*24 + cap(r.hashes)*8 + max(len(r.rows)*r.arity, cap(r.chunk))*4 + cap(r.slots)*4
	for _, ix := range r.indexes {
		n += len(ix.buckets)*12 + cap(ix.next)*4
	}
	return n
}

// Contains reports membership. It never allocates.
func (r *Relation) Contains(t Tuple) bool { return r.Ordinal(t) >= 0 }

// Rows returns the stored tuples in insertion order. The slice and its
// tuples are owned by the relation; callers must not mutate them.
func (r *Relation) Rows() []Tuple { return r.rows }

// findIndex returns the built index over the columns with the given
// colsKey, or nil.
func (r *Relation) findIndex(key uint64) *index {
	for _, ix := range r.indexes {
		if ix.key == key {
			return ix
		}
	}
	return nil
}

// indexOn returns (building if needed) the hash index over cols, capped at
// maxIndexCols columns.
func (r *Relation) indexOn(cols []int) *index {
	if len(cols) > maxIndexCols {
		cols = cols[:maxIndexCols]
	}
	if ix := r.findIndex(colsKey(cols)); ix != nil {
		return ix
	}
	ix := newIndex(cols, r.rows)
	r.indexes = append(r.indexes, ix)
	return ix
}

// Distinct reports the number of distinct values in column col, building
// the column's hash index if needed (so concurrent readers should call this
// during planning, not evaluation).
func (r *Relation) Distinct(col int) int {
	if r.Len() == 0 {
		return 0
	}
	return r.indexOn([]int{col}).keys
}

// TryDistinct is Distinct as a pure read: when column col has no index yet
// it reports false and leaves r alone.
func (r *Relation) TryDistinct(col int) (int, bool) {
	if r.Len() == 0 {
		return 0, true
	}
	if ix := r.findIndex(colsKey([]int{col})); ix != nil {
		return ix.keys, true
	}
	return 0, false
}

// BuildIndex forces construction of the hash index on column col. Indexes
// are otherwise built lazily on first use, which mutates the relation; code
// that will read a relation from several goroutines warms its indexes first.
func (r *Relation) BuildIndex(col int) {
	if col < 0 || col >= r.arity {
		panic(fmt.Sprintf("relation: BuildIndex column %d out of range for arity %d", col, r.arity))
	}
	r.indexOn([]int{col})
}

// BuildIndexOn forces construction of the composite hash index over cols
// (in the given order, capped at maxIndexCols). Building an index that
// already exists is a no-op.
func (r *Relation) BuildIndexOn(cols ...int) {
	if len(cols) == 0 {
		return
	}
	for _, c := range cols {
		if c < 0 || c >= r.arity {
			panic(fmt.Sprintf("relation: BuildIndexOn column %d out of range for arity %d", c, r.arity))
		}
	}
	r.indexOn(cols)
}

// IndexBuilds reports how many index constructions this relation has
// performed (rebuilding an existing index never happens; the count exists
// so tests can assert that).
func (r *Relation) IndexBuilds() int { return len(r.indexes) }

// Binding is a partial assignment of values to columns; NoSym entries are
// unconstrained. It is the relational form of a tuple request: "each tuple
// request message specifies one binding for all of the 'd' arguments" (§3.1).
type Binding []symtab.Sym

// Matches reports whether the tuple agrees with every bound column.
func (b Binding) Matches(t Tuple) bool {
	for i, v := range b {
		if v != symtab.NoSym && t[i] != v {
			return false
		}
	}
	return true
}

// Constrains reports whether any column is bound. A nil binding (the
// storage layer's "scan everything") constrains nothing.
func (b Binding) Constrains() bool {
	for _, v := range b {
		if v != symtab.NoSym {
			return true
		}
	}
	return false
}

// probe finds the chain of rows matching b's bound columns in the composite
// index over exactly that column set. all reports a binding with no bound
// column: every row matches and no index is involved. Otherwise ix is the
// index, built on first use when build is set; without build a missing index
// leaves ix nil and the relation untouched (a pure read). A nil binding
// binds nothing. exact reports that the index key covers every bound
// column; past maxIndexCols of them, candidates still need Matches.
func (r *Relation) probe(b Binding, build bool) (ix *index, bk *bucket, exact, all bool) {
	if b != nil && len(b) != r.arity {
		panic(fmt.Sprintf("relation: select binding arity %d on arity-%d relation", len(b), r.arity))
	}
	var cols [maxIndexCols]int
	var vals [maxIndexCols]symtab.Sym
	n, exact := 0, true
	for i, v := range b {
		if v == symtab.NoSym {
			continue
		}
		if n == maxIndexCols {
			exact = false
			break
		}
		cols[n], vals[n] = i, v
		n++
	}
	switch {
	case n == 0:
		return nil, nil, exact, true
	case build:
		ix = r.indexOn(cols[:n])
	default:
		if ix = r.findIndex(colsKey(cols[:n])); ix == nil {
			return nil, nil, exact, false
		}
	}
	return ix, ix.find(r.rows, vals[:n]), exact, false
}

// Select returns the tuples matching the binding, probing the composite
// index over all bound columns (so a k-column binding is one hash lookup,
// not an index probe plus a filter scan). The returned tuples are owned by
// r. Note the index over the bound-column set is built on first use; see
// the concurrency note on Relation.
func (r *Relation) Select(b Binding) []Tuple {
	ix, bk, exact, all := r.probe(b, true)
	if all {
		return r.rows
	}
	return ix.chain(nil, r.rows, bk, b, exact)
}

// SelectInto is Select appending to dst, for callers that probe per row and
// keep a scratch buffer: it allocates only when dst must grow.
func (r *Relation) SelectInto(dst []Tuple, b Binding) []Tuple {
	ix, bk, exact, all := r.probe(b, true)
	if all {
		return append(dst, r.rows...)
	}
	return ix.chain(dst, r.rows, bk, b, exact)
}

// TrySelectInto is SelectInto as a pure read: when the composite index over
// b's bound columns is not built yet it reports false and leaves r alone.
// Stores shared between goroutines probe with it under their read lock and
// fall back to SelectInto under the write lock.
func (r *Relation) TrySelectInto(dst []Tuple, b Binding) ([]Tuple, bool) {
	ix, bk, exact, all := r.probe(b, false)
	switch {
	case all:
		return append(dst, r.rows...), true
	case ix == nil:
		return dst, false
	}
	return ix.chain(dst, r.rows, bk, b, exact), true
}

// chain appends the bucket's rows, in insertion order, growing dst at most
// once. The index key covers every bound column unless there are more than
// maxIndexCols (!exact).
func (ix *index) chain(dst, rows []Tuple, bk *bucket, b Binding, exact bool) []Tuple {
	dst = slices.Grow(dst, int(bk.n))
	for ref := bk.head; ref != 0; ref = ix.next[ref-1] {
		if row := rows[ref-1]; exact || b.Matches(row) {
			dst = append(dst, row)
		}
	}
	return dst
}

// Project returns a new relation containing each row restricted to cols, in
// order, with duplicates removed. Column repetition is allowed.
func (r *Relation) Project(cols []int) *Relation {
	out := New(len(cols))
	buf := make(Tuple, len(cols))
	for _, row := range r.rows {
		for i, c := range cols {
			buf[i] = row[c]
		}
		out.Insert(buf)
	}
	return out
}

// Union inserts all tuples of s into r and reports how many were new.
func (r *Relation) Union(s *Relation) int {
	if s.arity != r.arity {
		panic(fmt.Sprintf("relation: union of arity %d with arity %d", r.arity, s.arity))
	}
	added := 0
	for _, t := range s.rows {
		if r.Insert(t) {
			added++
		}
	}
	return added
}

// EqPair names one equality constraint of a join: left column L must equal
// right column R.
type EqPair struct{ L, R int }

// eqAll verifies every join equality between a (left) and b (right). Probes
// through a composite index still verify: the index key is a hash, and
// pairs beyond maxIndexCols are not part of the key at all.
func eqAll(a, b Tuple, on []EqPair) bool {
	for _, p := range on {
		if a[p.L] != b[p.R] {
			return false
		}
	}
	return true
}

// Join computes the equijoin of r and s on the given column pairs. The
// result schema is r's columns followed by s's columns. With no pairs it is
// the cross product.
//
// Build-side heuristic: the smaller operand is hash-indexed on its full
// join-column list and each tuple of the larger operand probes it once —
// indexing the smaller side costs less to build and keeps the per-probe
// candidate lists short, and streaming the larger side touches every tuple
// exactly once either way.
func Join(r, s *Relation, on []EqPair) *Relation {
	out := New(r.arity + s.arity)
	if r.Len() == 0 || s.Len() == 0 {
		return out
	}
	buf := make(Tuple, r.arity+s.arity)
	emit := func(a, b Tuple) {
		copy(buf, a)
		copy(buf[r.arity:], b)
		out.Insert(buf)
	}
	if len(on) == 0 {
		for _, a := range r.rows {
			for _, b := range s.rows {
				emit(a, b)
			}
		}
		return out
	}
	n := len(on)
	if n > maxIndexCols {
		n = maxIndexCols
	}
	var colsBuf [maxIndexCols]int
	var valsBuf [maxIndexCols]symtab.Sym
	if r.Len() < s.Len() {
		// r is smaller: index r on the left columns, stream s through it.
		for i := 0; i < n; i++ {
			colsBuf[i] = on[i].L
		}
		ix := r.indexOn(colsBuf[:n])
		for _, b := range s.rows {
			for i := 0; i < n; i++ {
				valsBuf[i] = b[on[i].R]
			}
			for ref := ix.find(r.rows, valsBuf[:n]).head; ref != 0; ref = ix.next[ref-1] {
				if a := r.rows[ref-1]; eqAll(a, b, on) {
					emit(a, b)
				}
			}
		}
		return out
	}
	// s is smaller (or equal): index s on the right columns, stream r.
	for i := 0; i < n; i++ {
		colsBuf[i] = on[i].R
	}
	ix := s.indexOn(colsBuf[:n])
	for _, a := range r.rows {
		for i := 0; i < n; i++ {
			valsBuf[i] = a[on[i].L]
		}
		for ref := ix.find(s.rows, valsBuf[:n]).head; ref != 0; ref = ix.next[ref-1] {
			if b := s.rows[ref-1]; eqAll(a, b, on) {
				emit(a, b)
			}
		}
	}
	return out
}

// SemiJoin returns the tuples of r that join with at least one tuple of s
// on the given pairs. This is the operation a class "d" argument performs:
// it "functions as a semi-join operand" restricting the computed part of an
// intermediate relation (§1.2). Every tuple of r must be considered, so s
// is always the indexed side: one composite probe per tuple of r.
func SemiJoin(r, s *Relation, on []EqPair) *Relation {
	out := New(r.arity)
	if len(on) == 0 {
		if s.Len() > 0 {
			out.Union(r)
		}
		return out
	}
	if r.Len() == 0 || s.Len() == 0 {
		return out
	}
	n := len(on)
	if n > maxIndexCols {
		n = maxIndexCols
	}
	var colsBuf [maxIndexCols]int
	var valsBuf [maxIndexCols]symtab.Sym
	for i := 0; i < n; i++ {
		colsBuf[i] = on[i].R
	}
	ix := s.indexOn(colsBuf[:n])
	for _, a := range r.rows {
		for i := 0; i < n; i++ {
			valsBuf[i] = a[on[i].L]
		}
		for ref := ix.find(s.rows, valsBuf[:n]).head; ref != 0; ref = ix.next[ref-1] {
			if eqAll(a, s.rows[ref-1], on) {
				out.Insert(a)
				break
			}
		}
	}
	return out
}

// Difference returns the tuples of r not present in s.
func Difference(r, s *Relation) *Relation {
	if s.arity != r.arity {
		panic(fmt.Sprintf("relation: difference of arity %d with arity %d", r.arity, s.arity))
	}
	out := New(r.arity)
	for _, t := range r.rows {
		if !s.Contains(t) {
			out.Insert(t)
		}
	}
	return out
}

// Equal reports whether r and s contain exactly the same tuples.
func Equal(r, s *Relation) bool {
	if r.arity != s.arity || r.Len() != s.Len() {
		return false
	}
	for _, t := range r.rows {
		if !s.Contains(t) {
			return false
		}
	}
	return true
}

// Sorted returns the tuples in lexicographic symbol-id order, for
// deterministic output.
func (r *Relation) Sorted() []Tuple {
	out := make([]Tuple, len(r.rows))
	copy(out, r.rows)
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// String renders the relation's tuples, sorted, through the table.
func (r *Relation) String(tab *symtab.Table) string {
	rows := r.Sorted()
	parts := make([]string, len(rows))
	for i, t := range rows {
		parts[i] = t.String(tab)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
