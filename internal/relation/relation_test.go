package relation

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/symtab"
)

func tup(vals ...symtab.Sym) Tuple { return Tuple(vals) }

func TestInsertDedup(t *testing.T) {
	r := New(2)
	if !r.Insert(tup(1, 2)) {
		t.Error("first insert reported duplicate")
	}
	if r.Insert(tup(1, 2)) {
		t.Error("duplicate insert reported new")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
	if !r.Contains(tup(1, 2)) || r.Contains(tup(2, 1)) {
		t.Error("Contains wrong")
	}
}

func TestInsertCopies(t *testing.T) {
	r := New(2)
	buf := tup(1, 2)
	r.Insert(buf)
	buf[0] = 99
	if !r.Contains(tup(1, 2)) {
		t.Error("relation retained caller's buffer instead of copying")
	}
}

// TestMapExtentKeepsRows: a relation given mapped extents reads its rows
// where they lie rather than copying them, across the geometric chunks of
// the first extent and into the next, and each row joins the dedup set and
// every index like an inserted one, whether the relation was presized by
// Grow or not.
func TestMapExtentKeepsRows(t *testing.T) {
	const n = ExtentRows + 100
	backing := make([]symtab.Sym, 2*2*ExtentRows)
	for i := range n {
		backing[2*i], backing[2*i+1] = symtab.Sym(i%7+1), symtab.Sym(i+1)
	}
	for _, presize := range []bool{false, true} {
		r := New(2)
		r.MapExtent(backing[:2*ExtentRows])
		r.BuildIndexOn(0)
		if presize {
			r.Grow(n)
		}
		for i := range n {
			if i == ExtentRows {
				r.MapExtent(backing[2*ExtentRows:])
			}
			if ord := r.AppendMapped(); ord != i {
				t.Fatalf("AppendMapped ordinal %d, want %d", ord, i)
			}
		}
		if !r.Contains(tup(2, 2)) || r.Contains(tup(2, 3)) || r.Len() != n {
			t.Errorf("mapped rows missing from the dedup set: len %d", r.Len())
		}
		if got := r.Select(Binding{1, symtab.NoSym}); len(got) != (n+6)/7 {
			t.Errorf("index over mapped rows selects %d rows, want %d", len(got), (n+6)/7)
		}
		for _, i := range []int{0, 63, 64, 127, 128, 1000, ExtentRows - 1, ExtentRows, n - 1} {
			if &r.Row(i)[0] != &backing[2*i] {
				t.Errorf("row %d is not read where it lies", i)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Insert copied a row into mapped extents")
				}
			}()
			r.Insert(tup(99, 99))
		}()
	}
}

// TestChunkGeometry: ordinals map onto chunks without gaps or overlaps, no
// chunk straddles an extent boundary, and chunkStart inverts chunkOf.
func TestChunkGeometry(t *testing.T) {
	prev := -1
	for _, ord := range []int{0, 1, 63, 64, 65, 127, 128, 255, 256, 1 << 17, ExtentRows - 1, ExtentRows, ExtentRows + 1, 3*ExtentRows - 1, 3 * ExtentRows} {
		c, off := chunkOf(ord)
		if chunkStart(c)+off != ord || off >= chunkStart(c+1)-chunkStart(c) {
			t.Errorf("ordinal %d: chunk %d offset %d, chunk starts at %d and holds %d", ord, c, off, chunkStart(c), chunkStart(c+1)-chunkStart(c))
		}
		if c < prev {
			t.Errorf("ordinal %d: chunk %d after chunk %d", ord, c, prev)
		}
		prev = c
		if ord >= ExtentRows && off != ord%ExtentRows {
			t.Errorf("ordinal %d: offset %d straddles an extent", ord, off)
		}
	}
	if chunkStart(firstChunks) != ExtentRows || chunkStart(1) != 1<<firstShift {
		t.Errorf("first extent spans %d rows in %d chunks", chunkStart(firstChunks), firstChunks)
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// Symbols that collide byte-wise under naive encodings.
	pairs := [][2]Tuple{
		{tup(1, 0), tup(0, 1)},
		{tup(256), tup(1)},
		{tup(0x01020304), tup(0x04030201)},
	}
	for _, p := range pairs {
		if p[0].Key() == p[1].Key() {
			t.Errorf("Key collision between %v and %v", p[0], p[1])
		}
	}
}

func TestZeroArity(t *testing.T) {
	r := New(0)
	if r.Len() != 0 {
		t.Error("empty 0-ary relation has members")
	}
	if !r.Insert(Tuple{}) {
		t.Error("inserting empty tuple failed")
	}
	if r.Insert(Tuple{}) {
		t.Error("empty tuple inserted twice")
	}
	if !r.Contains(Tuple{}) {
		t.Error("Contains(empty) = false")
	}
}

func TestSelect(t *testing.T) {
	r := FromTuples(3, []Tuple{{1, 2, 3}, {1, 5, 3}, {2, 2, 3}, {1, 2, 9}})
	got := r.Select(Binding{1, symtab.NoSym, 3})
	if len(got) != 2 {
		t.Fatalf("Select returned %d rows, want 2", len(got))
	}
	for _, row := range got {
		if row[0] != 1 || row[2] != 3 {
			t.Errorf("Select returned non-matching row %v", row)
		}
	}
	if all := r.Select(Binding{0, 0, 0}); len(all) != 4 {
		t.Errorf("unbound Select returned %d rows, want 4", len(all))
	}
	if none := r.Select(Binding{9, 0, 0}); len(none) != 0 {
		t.Errorf("Select on absent value returned %d rows", len(none))
	}
}

func TestSelectAfterInsert(t *testing.T) {
	// Index maintenance: build index, then insert more rows.
	r := New(2)
	r.Insert(tup(1, 1))
	if n := len(r.Select(Binding{1, 0})); n != 1 {
		t.Fatalf("initial select = %d", n)
	}
	r.Insert(tup(1, 2))
	if n := len(r.Select(Binding{1, 0})); n != 2 {
		t.Fatalf("select after insert = %d rows, want 2 (index stale)", n)
	}
}

func TestProject(t *testing.T) {
	r := FromTuples(3, []Tuple{{1, 2, 3}, {1, 2, 4}, {5, 2, 3}})
	p := r.Project([]int{0, 1})
	if p.Len() != 2 {
		t.Errorf("projection has %d tuples, want 2 (dedup)", p.Len())
	}
	if !p.Contains(tup(1, 2)) || !p.Contains(tup(5, 2)) {
		t.Error("projection missing tuples")
	}
	rep := r.Project([]int{2, 2})
	if !rep.Contains(tup(3, 3)) {
		t.Error("repeated-column projection wrong")
	}
}

func TestUnion(t *testing.T) {
	r := FromTuples(1, []Tuple{{1}, {2}})
	s := FromTuples(1, []Tuple{{2}, {3}})
	if added := r.Union(s); added != 1 {
		t.Errorf("Union added %d, want 1", added)
	}
	if r.Len() != 3 {
		t.Errorf("after union Len = %d", r.Len())
	}
}

func TestJoin(t *testing.T) {
	r := FromTuples(2, []Tuple{{1, 2}, {3, 4}})
	s := FromTuples(2, []Tuple{{2, 9}, {2, 8}, {4, 7}, {5, 6}})
	j := Join(r, s, []EqPair{{L: 1, R: 0}})
	if j.Arity() != 4 {
		t.Fatalf("join arity = %d", j.Arity())
	}
	want := []Tuple{{1, 2, 2, 9}, {1, 2, 2, 8}, {3, 4, 4, 7}}
	if j.Len() != len(want) {
		t.Fatalf("join has %d tuples, want %d: %v", j.Len(), len(want), slices.Collect(j.All()))
	}
	for _, w := range want {
		if !j.Contains(w) {
			t.Errorf("join missing %v", w)
		}
	}
}

func TestJoinMultiPair(t *testing.T) {
	r := FromTuples(2, []Tuple{{1, 2}, {1, 3}})
	s := FromTuples(2, []Tuple{{1, 2}, {1, 9}})
	j := Join(r, s, []EqPair{{0, 0}, {1, 1}})
	if j.Len() != 1 || !j.Contains(tup(1, 2, 1, 2)) {
		t.Errorf("multi-pair join = %v", slices.Collect(j.All()))
	}
}

func TestCrossProduct(t *testing.T) {
	r := FromTuples(1, []Tuple{{1}, {2}})
	s := FromTuples(1, []Tuple{{3}, {4}})
	j := Join(r, s, nil)
	if j.Len() != 4 {
		t.Errorf("cross product = %d tuples, want 4", j.Len())
	}
}

func TestJoinEmpty(t *testing.T) {
	r := FromTuples(1, []Tuple{{1}})
	if Join(r, New(1), []EqPair{{0, 0}}).Len() != 0 {
		t.Error("join with empty right not empty")
	}
	if Join(New(1), r, []EqPair{{0, 0}}).Len() != 0 {
		t.Error("join with empty left not empty")
	}
}

func TestSemiJoin(t *testing.T) {
	r := FromTuples(2, []Tuple{{1, 2}, {3, 4}, {5, 6}})
	s := FromTuples(1, []Tuple{{2}, {6}})
	sj := SemiJoin(r, s, []EqPair{{L: 1, R: 0}})
	if sj.Len() != 2 || !sj.Contains(tup(1, 2)) || !sj.Contains(tup(5, 6)) {
		t.Errorf("semijoin = %v", slices.Collect(sj.All()))
	}
	// No pairs: keeps everything iff s nonempty.
	if SemiJoin(r, New(1), nil).Len() != 0 {
		t.Error("semijoin with empty s and no pairs should be empty")
	}
	if SemiJoin(r, s, nil).Len() != 3 {
		t.Error("semijoin with nonempty s and no pairs should keep all")
	}
}

func TestDifference(t *testing.T) {
	r := FromTuples(1, []Tuple{{1}, {2}, {3}})
	s := FromTuples(1, []Tuple{{2}})
	d := Difference(r, s)
	if d.Len() != 2 || d.Contains(tup(2)) {
		t.Errorf("difference = %v", slices.Collect(d.All()))
	}
}

func TestEqual(t *testing.T) {
	r := FromTuples(2, []Tuple{{1, 2}, {3, 4}})
	s := FromTuples(2, []Tuple{{3, 4}, {1, 2}})
	if !Equal(r, s) {
		t.Error("order-insensitive Equal failed")
	}
	s.Insert(tup(9, 9))
	if Equal(r, s) {
		t.Error("Equal ignores extra tuple")
	}
}

func TestSortedDeterministic(t *testing.T) {
	r := FromTuples(2, []Tuple{{3, 1}, {1, 2}, {1, 1}})
	got := r.Sorted()
	want := []Tuple{{1, 1}, {1, 2}, {3, 1}}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
}

func TestString(t *testing.T) {
	tab := symtab.New()
	a, b := tab.Intern("a"), tab.Intern("b")
	r := FromTuples(2, []Tuple{{a, b}})
	if got := r.String(tab); got != "{(a, b)}" {
		t.Errorf("String = %q", got)
	}
}

func TestArityPanics(t *testing.T) {
	r := New(2)
	for name, f := range map[string]func(){
		"insert":     func() { r.Insert(tup(1)) },
		"select":     func() { r.Select(Binding{1}) },
		"union":      func() { r.Union(New(3)) },
		"difference": func() { Difference(r, New(1)) },
		"negative":   func() { New(-1) },
		"index":      func() { r.BuildIndexOn(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with wrong arity did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestQuickJoinMatchesNestedLoop cross-checks the indexed hash join against
// a naive nested-loop join on random inputs.
func TestQuickJoinMatchesNestedLoop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, s := New(2), New(2)
		for i := 0; i < 20; i++ {
			r.Insert(tup(symtab.Sym(1+rng.Intn(4)), symtab.Sym(1+rng.Intn(4))))
			s.Insert(tup(symtab.Sym(1+rng.Intn(4)), symtab.Sym(1+rng.Intn(4))))
		}
		on := []EqPair{{L: 1, R: 0}}
		fast := Join(r, s, on)
		slow := New(4)
		for a := range r.All() {
			for b := range s.All() {
				if a[1] == b[0] {
					slow.Insert(tup(a[0], a[1], b[0], b[1]))
				}
			}
		}
		return Equal(fast, slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickSemiJoinIsProjectionOfJoin checks r ⋉ s == π_r(r ⋈ s).
func TestQuickSemiJoinIsProjectionOfJoin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, s := New(2), New(2)
		for i := 0; i < 25; i++ {
			r.Insert(tup(symtab.Sym(1+rng.Intn(5)), symtab.Sym(1+rng.Intn(5))))
			s.Insert(tup(symtab.Sym(1+rng.Intn(5)), symtab.Sym(1+rng.Intn(5))))
		}
		on := []EqPair{{L: 0, R: 1}}
		sj := SemiJoin(r, s, on)
		pj := Join(r, s, on).Project([]int{0, 1})
		return Equal(sj, pj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickSelectMatchesScan checks indexed selection against a full scan.
func TestQuickSelectMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New(3)
		for i := 0; i < 30; i++ {
			r.Insert(tup(symtab.Sym(1+rng.Intn(3)), symtab.Sym(1+rng.Intn(3)), symtab.Sym(1+rng.Intn(3))))
		}
		b := Binding{symtab.Sym(1 + rng.Intn(3)), 0, symtab.Sym(1 + rng.Intn(3))}
		fast := r.Select(b)
		count := 0
		for row := range r.All() {
			if b.Matches(row) {
				count++
			}
		}
		if len(fast) != count {
			return false
		}
		for _, row := range fast {
			if !b.Matches(row) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCompositeIndexMaintenance builds single and composite indexes up
// front, keeps inserting, and checks probes see every new row.
func TestCompositeIndexMaintenance(t *testing.T) {
	r := New(3)
	r.Insert(tup(1, 2, 3))
	r.BuildIndexOn(0)
	r.BuildIndexOn(0, 2)
	builds := r.IndexBuilds()
	for i := symtab.Sym(1); i <= 50; i++ {
		r.Insert(tup(1, i, 3))
		r.Insert(tup(2, i, 4))
	}
	if n := len(r.Select(Binding{1, symtab.NoSym, symtab.NoSym})); n != 50 {
		t.Errorf("single-column probe after inserts: %d rows, want 50", n)
	}
	if n := len(r.Select(Binding{1, symtab.NoSym, 3})); n != 50 {
		t.Errorf("composite probe after inserts: %d rows, want 50", n)
	}
	if n := len(r.Select(Binding{2, symtab.NoSym, 4})); n != 50 {
		t.Errorf("composite probe on second group: %d rows, want 50", n)
	}
	if r.IndexBuilds() != builds {
		t.Errorf("probing rebuilt indexes: %d builds, want %d", r.IndexBuilds(), builds)
	}
	r.BuildIndexOn(0, 2) // already exists: must be a no-op
	if r.IndexBuilds() != builds {
		t.Error("BuildIndexOn of an existing index rebuilt it")
	}
}

// TestZeroArityIndexEdgeCases checks the arity-0 relation tolerates the
// index entry points that are meaningful for it.
func TestZeroArityIndexEdgeCases(t *testing.T) {
	r := New(0)
	r.BuildIndexOn() // no columns: nothing to build
	if r.IndexBuilds() != 0 {
		t.Error("BuildIndexOn() built an index on arity 0")
	}
	r.Insert(Tuple{})
	if got := r.Select(Binding{}); len(got) != 1 {
		t.Errorf("arity-0 Select = %d rows, want 1", len(got))
	}
	if !r.Contains(Tuple{}) {
		t.Error("arity-0 Contains failed after insert")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BuildIndexOn(0) on arity-0 relation did not panic")
			}
		}()
		r.BuildIndexOn(0)
	}()
}

// TestDuplicateInsertZeroAllocs pins the tentpole claim: inserting a
// duplicate tuple allocates nothing.
func TestDuplicateInsertZeroAllocs(t *testing.T) {
	r := New(3)
	for i := symtab.Sym(1); i <= 100; i++ {
		r.Insert(tup(i, i+1, i+2))
	}
	probe := tup(7, 8, 9)
	allocs := testing.AllocsPerRun(1000, func() {
		if r.Insert(probe) {
			t.Fatal("duplicate insert reported new")
		}
	})
	if allocs != 0 {
		t.Errorf("duplicate Insert allocates %.1f times per op, want 0", allocs)
	}
	if contAllocs := testing.AllocsPerRun(1000, func() { r.Contains(probe) }); contAllocs != 0 {
		t.Errorf("Contains allocates %.1f times per op, want 0", contAllocs)
	}
}

// TestIndexedInsertZeroAllocsAfterReset: once a relation and its indexes
// have held a working set, Reset keeps all of it — dedup table, arena, index
// buckets and row chains — so refilling (every row a new index key, the case
// that used to allocate a slice per key) and probing into a scratch buffer
// allocate nothing.
func TestIndexedInsertZeroAllocsAfterReset(t *testing.T) {
	const n = 2000
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = tup(symtab.Sym(i+1), symtab.Sym(i%97+1), symtab.Sym(n-i))
	}
	r := New(3)
	r.BuildIndexOn(0)
	r.BuildIndexOn(1, 2)
	fill := func() {
		r.Reset()
		for _, row := range rows {
			r.Insert(row)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Errorf("refilling %d indexed rows after Reset allocates %.0f times, want 0", n, allocs)
	}
	if d := r.Distinct(0); d != n {
		t.Errorf("Distinct(0) = %d after refill, want %d", d, n)
	}
	buf := make([]Tuple, 0, n)
	probe := Binding{symtab.NoSym, 5, symtab.NoSym}
	if allocs := testing.AllocsPerRun(100, func() { buf = r.SelectInto(buf[:0], probe) }); allocs != 0 {
		t.Errorf("SelectInto allocates %.1f times per probe, want 0", allocs)
	}
	if want := r.Select(probe); len(buf) != len(want) || len(buf) == 0 {
		t.Errorf("SelectInto found %d rows, Select %d", len(buf), len(want))
	}
}

// TestJoinProbeSideSelection pins the build-side heuristic: the smaller
// relation gets the index, so joining a tiny relation against a large one
// builds no index on the large side.
func TestJoinProbeSideSelection(t *testing.T) {
	small, large := New(2), New(2)
	for i := symtab.Sym(1); i <= 3; i++ {
		small.Insert(tup(i, i))
	}
	for i := symtab.Sym(1); i <= 200; i++ {
		large.Insert(tup(i, i%5+1))
	}
	j := Join(large, small, []EqPair{{L: 1, R: 0}})
	if large.IndexBuilds() != 0 {
		t.Errorf("join indexed the larger side (%d builds)", large.IndexBuilds())
	}
	if small.IndexBuilds() != 1 {
		t.Errorf("join did not index the smaller side (%d builds)", small.IndexBuilds())
	}
	// Cross-check against nested loop.
	slow := New(4)
	for a := range large.All() {
		for b := range small.All() {
			if a[1] == b[0] {
				slow.Insert(tup(a[0], a[1], b[0], b[1]))
			}
		}
	}
	if !Equal(j, slow) {
		t.Errorf("swapped-build join wrong: %d rows, want %d", j.Len(), slow.Len())
	}
}

// TestQuickJoinTwoPairsMatchesNestedLoop covers the composite-index path of
// Join (two equality pairs, one probe) against a naive nested loop.
func TestQuickJoinTwoPairsMatchesNestedLoop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, s := New(3), New(3)
		for i := 0; i < 25; i++ {
			r.Insert(tup(symtab.Sym(1+rng.Intn(3)), symtab.Sym(1+rng.Intn(3)), symtab.Sym(1+rng.Intn(3))))
			s.Insert(tup(symtab.Sym(1+rng.Intn(3)), symtab.Sym(1+rng.Intn(3)), symtab.Sym(1+rng.Intn(3))))
		}
		on := []EqPair{{L: 0, R: 1}, {L: 2, R: 2}}
		fast := Join(r, s, on)
		slow := New(6)
		for a := range r.All() {
			for b := range s.All() {
				if a[0] == b[1] && a[2] == b[2] {
					slow.Insert(tup(a[0], a[1], a[2], b[0], b[1], b[2]))
				}
			}
		}
		return Equal(fast, slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
