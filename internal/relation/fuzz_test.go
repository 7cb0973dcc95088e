package relation

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/symtab"
)

// relModel is the reference FuzzRelation checks a Relation against: the
// rows in insertion order, a map from row key to ordinal, and the column
// sets that have an index (Reset keeps indexes, so the set survives it).
type relModel struct {
	arity   int
	rows    []Tuple
	ords    map[string]int
	indexed map[uint64]bool
}

func (m *relModel) add(t Tuple) (int, bool) {
	if ord, ok := m.ords[t.Key()]; ok {
		return ord, false
	}
	m.ords[t.Key()] = len(m.rows)
	m.rows = append(m.rows, t.Clone())
	return len(m.rows) - 1, true
}

func (m *relModel) ordinal(t Tuple) int {
	if ord, ok := m.ords[t.Key()]; ok {
		return ord
	}
	return -1
}

// selectRows is Select by scanning, in insertion order.
func (m *relModel) selectRows(b Binding) []Tuple {
	var out []Tuple
	for _, t := range m.rows {
		if b.Matches(t) {
			out = append(out, t)
		}
	}
	return out
}

// fuzzInput hands out the fuzzer's bytes; past the end it yields zeros.
type fuzzInput struct {
	b []byte
	i int
}

func (in *fuzzInput) next() byte {
	if in.i >= len(in.b) {
		return 0
	}
	in.i++
	return in.b[in.i-1]
}

func (in *fuzzInput) done() bool { return in.i >= len(in.b) }

// FuzzRelation drives a Relation and a map-based model with the same
// operations — Add, Append, Contains, Ordinal, Row, SelectInto,
// TrySelectInto, BuildIndexOn, Reset, Grow — on arities 0 to 3, and fails
// on the first read where they differ. A bulk fill appends runs of rows, so
// inputs cross chunk boundaries and refill chunks a Reset kept. Seed corpus:
// testdata/fuzz/FuzzRelation.
func FuzzRelation(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 0, 1, 2, 2, 1, 2, 4, 0, 5, 1, 1})
	f.Add([]byte{3, 10, 40, 7, 3, 1, 5, 6, 2, 9, 8, 10, 90, 5, 5, 3, 4, 200})
	f.Add([]byte{0, 0, 2, 1, 4, 0, 8, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{b: data}
		arity := int(in.next() % 4)
		r := New(arity)
		m := &relModel{arity: arity, ords: map[string]int{}, indexed: map[uint64]bool{}}
		tuple := func() Tuple {
			tu := make(Tuple, arity)
			for i := range tu {
				tu[i] = symtab.Sym(in.next()%32 + 1)
			}
			return tu
		}
		// binding binds the columns of a mask byte, to a member's values or
		// to fresh ones; cols lists the bound columns.
		binding := func() (Binding, []int) {
			mask, from := in.next(), int(in.next())
			b := make(Binding, arity)
			var cols []int
			for c := range b {
				if mask>>c&1 == 0 {
					continue
				}
				cols = append(cols, c)
				if len(m.rows) > 0 && mask&0x80 == 0 {
					b[c] = m.rows[from%len(m.rows)][c]
				} else {
					b[c] = symtab.Sym(in.next()%32 + 1)
				}
			}
			return b, cols
		}
		var dst []Tuple
		for step := 0; !in.done(); step++ {
			op := in.next() % 10
			what := fmt.Sprintf("step %d op %d (arity %d, %d rows)", step, op, arity, len(m.rows))
			switch op {
			case 0: // Add
				tu := tuple()
				ord, isNew := r.Add(tu)
				wantOrd, wantNew := m.add(tu)
				if ord != wantOrd || isNew != wantNew {
					t.Fatalf("%s: Add(%v) = %d, %v; want %d, %v", what, tu, ord, isNew, wantOrd, wantNew)
				}
			case 1: // Append, of non-members only
				if tu := tuple(); m.ordinal(tu) < 0 {
					wantOrd, _ := m.add(tu)
					if ord := r.Append(tu); ord != wantOrd {
						t.Fatalf("%s: Append(%v) = %d, want %d", what, tu, ord, wantOrd)
					}
				}
			case 2: // Contains and Ordinal
				tu := tuple()
				if got, want := r.Ordinal(tu), m.ordinal(tu); got != want || r.Contains(tu) != (want >= 0) {
					t.Fatalf("%s: Ordinal(%v) = %d, want %d", what, tu, got, want)
				}
			case 3: // Row
				if len(m.rows) > 0 {
					i := int(in.next()) * 7 % len(m.rows)
					if got := r.Row(i); !got.Equal(m.rows[i]) || len(got) != cap(got) {
						t.Fatalf("%s: Row(%d) = %v (cap %d), want %v", what, i, got, cap(got), m.rows[i])
					}
				}
			case 4: // SelectInto
				b, cols := binding()
				dst = r.SelectInto(dst[:0], b)
				if len(cols) > 0 {
					m.indexed[colsKey(cols)] = true
				}
				if want := m.selectRows(b); !slices.EqualFunc(dst, want, Tuple.Equal) {
					t.Fatalf("%s: SelectInto(%v) = %v, want %v", what, b, dst, want)
				}
			case 5: // TrySelectInto
				b, cols := binding()
				got, ok := r.TrySelectInto(dst[:0], b)
				if want := len(cols) == 0 || m.indexed[colsKey(cols)]; ok != want {
					t.Fatalf("%s: TrySelectInto(%v) ok = %v, want %v", what, b, ok, want)
				}
				if want := m.selectRows(b); ok && !slices.EqualFunc(got, want, Tuple.Equal) {
					t.Fatalf("%s: TrySelectInto(%v) = %v, want %v", what, b, got, want)
				}
			case 6: // BuildIndexOn
				if _, cols := binding(); len(cols) > 0 {
					r.BuildIndexOn(cols...)
					m.indexed[colsKey(cols)] = true
				}
			case 7: // Reset
				r.Reset()
				m.rows, m.ords = m.rows[:0], map[string]int{}
			case 8: // Grow
				r.Grow(int(in.next()))
			case 9: // bulk fill: a run of Adds crossing chunk boundaries
				n, seed := int(in.next())*4, symtab.Sym(in.next())
				tu := make(Tuple, arity)
				for i := range n {
					for c := range tu {
						tu[c] = symtab.Sym(i>>(2*c)) + seed + 1
					}
					ord, isNew := r.Add(tu)
					if wantOrd, wantNew := m.add(tu); ord != wantOrd || isNew != wantNew {
						t.Fatalf("%s: fill row %d Add(%v) = %d, %v; want %d, %v", what, i, tu, ord, isNew, wantOrd, wantNew)
					}
				}
			}
			if r.Len() != len(m.rows) {
				t.Fatalf("%s: Len = %d, want %d", what, r.Len(), len(m.rows))
			}
		}
		for i, want := range m.rows {
			if got := r.Row(i); !got.Equal(want) || !r.Contains(want) || r.Ordinal(want) != i {
				t.Fatalf("end: row %d = %v, want %v", i, got, want)
			}
		}
		if got := slices.Collect(r.All()); !slices.EqualFunc(got, m.rows, Tuple.Equal) {
			t.Fatalf("end: All = %v, want %v", got, m.rows)
		}
	})
}
