// Package relation is the relational-algebra substrate: set-semantics
// relations over interned symbols, with hash indexes and the operators the
// paper's node processes need — selection, projection, join, semijoin, and
// union (§2.2: "rule nodes combine their subgoal relations using join,
// select, and project; predicate nodes compute the union of the relations
// computed by their children").
//
// The substrate is allocation-free on its hot paths: membership is an
// open-addressed hash set over an FNV-1a hash of the symbol columns (no
// per-tuple string key is ever materialized); rows lie in flat chunks of
// symbols that never move, and row i is addressed by its ordinal alone —
// no per-row slice header, and an insert copies the row into place — which
// is also how a store's mapped extents serve as a relation's chunks
// (MapExtent); and joins probe composite (multi-column) hash indexes so a
// k-column equijoin costs one hash lookup per probe tuple instead of a
// single-column probe followed by an equality scan.
package relation

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/symtab"
)

// Tuple is a fixed-arity row of interned constants.
type Tuple []symtab.Sym

// Key encodes the tuple as a string usable as a map key: its symbols'
// bytes, four per column, so the encoding is collision-free. The relation
// internals do not use it (they hash columns directly); it is for callers
// that need tuples as keys of ordinary Go maps.
func (t Tuple) Key() string {
	return string(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(t))), 4*len(t)))
}

// Equal reports column-wise equality.
func (t Tuple) Equal(u Tuple) bool { return slices.Equal(t, u) }

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

// Row storage. A relation's rows lie in chunks that never move and are
// addressed by ordinal alone: chunks 0 and 1 hold 64 rows each, every later
// one of the first ExtentRows rows twice its predecessor, and past those
// every chunk holds ExtentRows. A small relation so pays for 64 rows, and a
// chunk never straddles a multiple of ExtentRows, which is what lets the disk
// store hand its mapped extents in as chunks (MapExtent).
const (
	firstShift  = 6
	ExtentShift = 18
	ExtentRows  = 1 << ExtentShift             // rows per store extent
	firstChunks = ExtentShift - firstShift + 1 // chunks of the first extent
)

// chunkOf returns the chunk holding row ord and the row's place in it.
func chunkOf(ord int) (c, off int) {
	if ord >= ExtentRows {
		return firstChunks - 1 + ord>>ExtentShift, ord & (ExtentRows - 1)
	}
	top := bits.Len(uint(ord) | (1<<firstShift - 1))
	return top - firstShift, ord - 1<<(top-1)&^(1<<firstShift-1)
}

// chunkStart returns the ordinal of chunk c's first row.
func chunkStart(c int) int {
	if c < firstChunks {
		return 1 << (c + firstShift - 1) &^ (1<<firstShift - 1)
	}
	return (c - firstChunks + 1) << ExtentShift
}

// Rows addresses a relation's rows by ordinal: row i is Row(i), a view of
// its chunk. A Rows value copied from a relation (its embedded Rows) reads
// the rows it covers without the relation, for as long as the relation is
// not Reset: chunks never move, and a later insert only adds rows past Len.
// A store shares its relations between goroutines this way: the copy is
// taken under its lock and read outside it.
type Rows struct {
	chunks [][]symtab.Sym
	arity  int
	n      int
}

// Arity returns the number of columns.
func (rs *Rows) Arity() int { return rs.arity }

// Len returns the number of rows.
func (rs *Rows) Len() int { return rs.n }

// Row returns row i (0 <= i < Len) as a read-only view of its chunk, valid
// until the relation is Reset. Its capacity ends with the row, so an append
// to it copies.
func (rs *Rows) Row(i int) Tuple {
	c, off := chunkOf(i)
	off *= rs.arity
	return rs.chunks[c][off : off+rs.arity : off+rs.arity]
}

// All iterates over the rows present when it is called, in order.
func (rs *Rows) All() iter.Seq[Tuple] {
	v := *rs
	return func(yield func(Tuple) bool) {
		for i := range v.n {
			if !yield(v.Row(i)) {
				return
			}
		}
	}
}

// index is a hash index over a fixed column list. Every distinct value of
// the indexed columns owns one bucket of an open-addressed table, and the
// rows holding that value are chained through next in insertion order, so
// adding a row — under a new key or an old one — allocates nothing beyond
// the amortized growth of the two flat slices, and Reset keeps both. The
// bucket count is the exact distinct count of the column list. The index
// does not hold the rows: its methods read the relation's, by ordinal.
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

// newIndex indexes r's rows on cols (at most maxIndexCols of them).
func newIndex(cols []int, r *Relation) *index {
	ix := &index{key: colsKey(cols), cols: append([]int(nil), cols...),
		buckets: make([]bucket, 16), next: make([]int32, 0, r.n)}
	for ord := range r.n {
		ix.add(r, r.Row(ord), int32(ord))
	}
	return ix
}

// find returns the bucket for the given values of the indexed columns (in
// index-column order): the key's own bucket, or the empty one where it
// would go (head == 0). A chain is walked from head (ordinal+1 of its
// first row) through next[ref-1] until 0.
func (ix *index) find(r *Relation, vals []symtab.Sym) *bucket {
	mask := uint64(len(ix.buckets) - 1)
probe:
	for i := hashSyms(vals) & mask; ; i = (i + 1) & mask {
		b := &ix.buckets[i]
		if b.head == 0 {
			return b
		}
		row := r.Row(int(b.head - 1))
		for k, c := range ix.cols {
			if row[c] != vals[k] {
				continue probe
			}
		}
		return b
	}
}

// add appends row ord (the next ordinal: rows are indexed in order) to its
// key's chain; r.Row(ord) is row.
func (ix *index) add(r *Relation, row Tuple, ord int32) {
	if (ix.keys+1)*4 > len(ix.buckets)*3 {
		ix.grow(r)
	}
	var buf [maxIndexCols]symtab.Sym
	vals := buf[:len(ix.cols)]
	for k, c := range ix.cols {
		vals[k] = row[c]
	}
	ix.next = append(ix.next, 0)
	b := ix.find(r, vals)
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
func (ix *index) grow(r *Relation) {
	old := ix.buckets
	ix.buckets = make([]bucket, 2*len(old))
	mask := uint64(len(ix.buckets) - 1)
	for _, b := range old {
		if b.head == 0 {
			continue
		}
		i := hashSymsAt(r.Row(int(b.head-1)), ix.cols) & mask
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
	Rows
	mapped  bool     // the chunks are a store's mapped extents (MapExtent)
	hashes  []uint64 // hashes[i] = hashSyms(Row(i))
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
	return &Relation{Rows: Rows{arity: arity}}
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
		if r.hashes[ord] == h && r.Row(ord).Equal(t) {
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

// next returns the place of the next row, Row(Len()), allocating its chunk
// on the first row that lands in it; Reset keeps every chunk.
func (r *Relation) next() Tuple {
	c, _ := chunkOf(r.n)
	if c == len(r.chunks) {
		if r.mapped {
			panic("relation: row past the mapped extents")
		}
		r.chunks = append(r.chunks, make([]symtab.Sym, (chunkStart(c+1)-chunkStart(c))*r.arity))
	}
	return r.Row(r.n)
}

// Insert adds the tuple and reports whether it was new. The relation keeps
// its own copy of the tuple. Inserting a duplicate performs no allocation.
func (r *Relation) Insert(t Tuple) bool {
	_, isNew := r.Add(t)
	return isNew
}

// Add is Insert that also returns the tuple's ordinal: its position in the
// rows, whether it was just appended or already present. Ordinals are
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
	return r.push(h, t), true
}

// Append adds t, which must not be a member, and returns its ordinal: Insert
// without the membership probe, for a caller that knows t is new. The
// relation keeps its own copy, and t becomes visible to Contains and the
// indexes as after Insert.
func (r *Relation) Append(t Tuple) int {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation: appending arity-%d tuple to arity-%d relation", len(t), r.arity))
	}
	return r.push(hashSyms(t), t)
}

// push copies the new row t into its place and adds it to the dedup set
// and every index, returning its ordinal.
func (r *Relation) push(h uint64, t Tuple) int {
	if r.mapped {
		panic("relation: copying a row into mapped extents")
	}
	copy(r.next(), t)
	return r.commit(h)
}

// commit makes the row at ordinal Len() (already in place, with hash h) a
// member: the dedup set and every index gain it.
func (r *Relation) commit(h uint64) int {
	r.reserve(r.n + 1)
	ord := r.n
	r.n++
	r.hashes = append(r.hashes, h)
	r.place(h, int32(ord+1))
	if len(r.indexes) > 0 {
		row := r.Row(ord)
		for _, ix := range r.indexes {
			ix.add(r, row, int32(ord))
		}
	}
	return ord
}

// MapExtent gives the relation the memory of its next extent of rows —
// rows [e×ExtentRows, (e+1)×ExtentRows) for the e-th call — as its chunks,
// where a store that keeps its rows elsewhere (the disk store's read-only
// segment mappings) writes them. The memory must hold arity×ExtentRows
// symbols, stay valid and change only past the rows appended. Such a
// relation takes rows through AppendMapped alone; call MapExtent before
// the first row and whenever Len reaches a multiple of ExtentRows.
func (r *Relation) MapExtent(ext []symtab.Sym) {
	if !r.mapped && len(r.chunks) > 0 || len(ext) < ExtentRows*r.arity {
		panic("relation: MapExtent on a relation with heap rows, or a short extent")
	}
	r.mapped = true
	if len(r.chunks) > 0 {
		r.chunks = append(r.chunks, ext[:ExtentRows*r.arity:ExtentRows*r.arity])
		return
	}
	for c := range firstChunks {
		lo, hi := chunkStart(c)*r.arity, chunkStart(c+1)*r.arity
		r.chunks = append(r.chunks, ext[lo:hi:hi])
	}
}

// AppendMapped appends the row already lying at ordinal Len() of the mapped
// extents, which must not be a member, and returns its ordinal. On an
// arity-0 relation it appends the empty tuple.
func (r *Relation) AppendMapped() int {
	return r.commit(hashSyms(r.next()))
}

// Grow presizes the relation for n more rows, so that many inserts neither
// rehash the dedup set nor copy the hash list.
func (r *Relation) Grow(n int) {
	r.hashes = slices.Grow(r.hashes, n)
	r.reserve(r.n + n)
}

// Ordinal returns the ordinal of t, or -1 when t is not a member. It never
// allocates.
func (r *Relation) Ordinal(t Tuple) int {
	if len(t) != r.arity {
		return -1
	}
	return r.lookup(hashSyms(t), t)
}

// Reset empties the relation while keeping its allocations: every chunk,
// the hash list, the open-addressed dedup table, and every built index
// (bucket table and row chains; cleared, then maintained incrementally by
// later inserts) all retain their capacity, so a refill of the same size
// allocates nothing. Repeated evaluations on one prepared plan reset their
// temporary relations instead of reallocating them.
func (r *Relation) Reset() {
	r.n = 0
	r.hashes = r.hashes[:0]
	clear(r.slots)
	for _, ix := range r.indexes {
		ix.reset()
	}
}

// Bytes estimates the heap the relation holds: the relation and its chunk
// table, its chunks (a mapped relation's lie outside the heap), hashes and
// dedup table, and its indexes.
func (r *Relation) Bytes() int {
	n := int(unsafe.Sizeof(*r)) + cap(r.chunks)*int(unsafe.Sizeof(r.chunks[0:1][0])) +
		cap(r.hashes)*8 + cap(r.slots)*4 + cap(r.indexes)*8
	if !r.mapped {
		for _, c := range r.chunks {
			n += cap(c) * 4
		}
	}
	for _, ix := range r.indexes {
		n += int(unsafe.Sizeof(*ix)) + cap(ix.cols)*8 + len(ix.buckets)*12 + cap(ix.next)*4
	}
	return n
}

// Contains reports membership. It never allocates.
func (r *Relation) Contains(t Tuple) bool { return r.Ordinal(t) >= 0 }

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
	ix := newIndex(cols, r)
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

// BuildIndexOn forces construction of the composite hash index over cols
// (in the given order, capped at maxIndexCols). Indexes are otherwise built
// lazily on first use, which mutates the relation; code that will read a
// relation from several goroutines warms its indexes first. Building an
// index that already exists is a no-op.
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

// Select returns the tuples matching the binding, probing the composite
// index over all bound columns (so a k-column binding is one hash lookup,
// not an index probe plus a filter scan). A nil binding binds nothing. The
// returned tuples are owned by r. Note the index over the bound-column set
// is built on first use; see the concurrency note on Relation.
func (r *Relation) Select(b Binding) []Tuple { return r.SelectInto(nil, b) }

// SelectInto is Select appending to dst, for callers that probe per row and
// keep a scratch buffer: it allocates only when dst must grow.
func (r *Relation) SelectInto(dst []Tuple, b Binding) []Tuple {
	dst, _ = r.selectInto(dst, b, true)
	return dst
}

// TrySelectInto is SelectInto as a pure read: when the composite index over
// b's bound columns is not built yet it reports false and leaves r alone.
// Stores shared between goroutines probe with it under their read lock and
// fall back to SelectInto under the write lock.
func (r *Relation) TrySelectInto(dst []Tuple, b Binding) ([]Tuple, bool) {
	return r.selectInto(dst, b, false)
}

// selectInto appends the rows matching b, in insertion order, growing dst
// at most once: every row when b binds no column, else the chain of the
// composite index over the bound columns — built on first use when build
// is set, and otherwise, when missing, reported by false with r untouched.
// Bound columns past maxIndexCols are not part of the index key, so the
// chain's rows are then checked with Matches.
func (r *Relation) selectInto(dst []Tuple, b Binding, build bool) ([]Tuple, bool) {
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
	var ix *index
	switch {
	case n == 0:
		dst = slices.Grow(dst, r.n)
		for i := range r.n {
			dst = append(dst, r.Row(i))
		}
		return dst, true
	case build:
		ix = r.indexOn(cols[:n])
	default:
		if ix = r.findIndex(colsKey(cols[:n])); ix == nil {
			return dst, false
		}
	}
	bk := ix.find(r, vals[:n])
	dst = slices.Grow(dst, int(bk.n))
	for ref := bk.head; ref != 0; ref = ix.next[ref-1] {
		if row := r.Row(int(ref - 1)); exact || b.Matches(row) {
			dst = append(dst, row)
		}
	}
	return dst, true
}

// Project returns a new relation containing each row restricted to cols, in
// order, with duplicates removed. Column repetition is allowed.
func (r *Relation) Project(cols []int) *Relation {
	out := New(len(cols))
	buf := make(Tuple, len(cols))
	for ord := range r.n {
		row := r.Row(ord)
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
	for ord := range s.n {
		if r.Insert(s.Row(ord)) {
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
		for i := range r.n {
			for j := range s.n {
				emit(r.Row(i), s.Row(j))
			}
		}
		return out
	}
	if r.Len() < s.Len() {
		// r is smaller: index r on the left columns, stream s through it.
		flip := make([]EqPair, len(on))
		for i, p := range on {
			flip[i] = EqPair{L: p.R, R: p.L}
		}
		probeEach(s, r, flip, func(b, a Tuple) bool { emit(a, b); return true })
	} else {
		probeEach(r, s, on, func(a, b Tuple) bool { emit(a, b); return true })
	}
	return out
}

// probeEach streams r through s's composite index over the right columns
// of on: for each row a of r, in order, fn gets a and every row b of s, in
// s's order, that agrees with a on every pair. fn returns false to move on
// to r's next row.
func probeEach(r, s *Relation, on []EqPair, fn func(a, b Tuple) bool) {
	n := min(len(on), maxIndexCols)
	var cols [maxIndexCols]int
	var vals [maxIndexCols]symtab.Sym
	for i := range n {
		cols[i] = on[i].R
	}
	ix := s.indexOn(cols[:n])
	for j := range r.n {
		a := r.Row(j)
		for i := range n {
			vals[i] = a[on[i].L]
		}
		for ref := ix.find(s, vals[:n]).head; ref != 0; ref = ix.next[ref-1] {
			if b := s.Row(int(ref - 1)); eqAll(a, b, on) && !fn(a, b) {
				break
			}
		}
	}
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
	if r.Len() > 0 && s.Len() > 0 {
		probeEach(r, s, on, func(a, _ Tuple) bool { out.Insert(a); return false })
	}
	return out
}

// Difference returns the tuples of r not present in s.
func Difference(r, s *Relation) *Relation {
	if s.arity != r.arity {
		panic(fmt.Sprintf("relation: difference of arity %d with arity %d", r.arity, s.arity))
	}
	out := New(r.arity)
	for ord := range r.n {
		if t := r.Row(ord); !s.Contains(t) {
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
	for ord := range r.n {
		if t := r.Row(ord); !s.Contains(t) {
			return false
		}
	}
	return true
}

// Sorted returns the tuples in lexicographic symbol-id order, for
// deterministic output.
func (r *Relation) Sorted() []Tuple {
	out := r.Select(nil)
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
