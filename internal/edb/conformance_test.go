package edb

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// backends enumerates every Storage implementation; the conformance tests
// below run identically against each, with the in-memory store as the
// behavioral reference.
func backends(t *testing.T) map[string]func() Storage {
	t.Helper()
	return map[string]func() Storage{
		"memory": NewMemory,
		"disk": func() Storage {
			st, err := OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			return st
		},
	}
}

// seedStore fills a store with a deterministic workload: a dense ternary
// relation, a sparse binary one, a propositional fact, and some duplicate
// inserts sprinkled in.
func seedStore(st Storage) {
	syms := st.Symbols()
	tern := ast.PredKey{Name: "t", Arity: 3}
	bin := ast.PredKey{Name: "e", Arity: 2}
	for i := 0; i < 40; i++ {
		a := syms.Intern(fmt.Sprintf("a%d", i%7))
		b := syms.Intern(fmt.Sprintf("b%d", i%5))
		c := syms.Intern(fmt.Sprintf("c%d", i))
		st.Insert(tern, relation.Tuple{a, b, c})
		st.Insert(tern, relation.Tuple{a, b, c}) // duplicate: must be a no-op
		if i%3 == 0 {
			st.Insert(bin, relation.Tuple{a, b})
		}
	}
	st.Insert(ast.PredKey{Name: "flag", Arity: 0}, relation.Tuple{})
}

func collect(st Storage, key ast.PredKey, b relation.Binding) []relation.Tuple {
	var out []relation.Tuple
	for row := range st.Scan(key, b) {
		out = append(out, append(relation.Tuple(nil), row...))
	}
	return out
}

// TestConformanceScanEquivalence checks, for every backend, that a bound
// Scan returns exactly the full-scan rows surviving the binding filter —
// for single-column, composite, and fully-bound bindings — and that the
// full scan is in insertion order.
func TestConformanceScanEquivalence(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			st := mk()
			seedStore(st)
			tern := ast.PredKey{Name: "t", Arity: 3}
			all := collect(st, tern, nil)
			if len(all) != 40 {
				t.Fatalf("full scan = %d rows, want 40", len(all))
			}
			syms := st.Symbols()
			c5, _ := syms.Lookup("c5")
			if all[5][2] != c5 {
				t.Errorf("full scan not in insertion order: row 5 = %v", all[5])
			}
			a1, _ := syms.Lookup("a1")
			b1, _ := syms.Lookup("b1")
			bindings := []relation.Binding{
				{a1, symtab.NoSym, symtab.NoSym},
				{symtab.NoSym, b1, symtab.NoSym},
				{a1, b1, symtab.NoSym},
				{a1, b1, c5},
				{symtab.NoSym, symtab.NoSym, syms.Intern("absent")},
			}
			for _, b := range bindings {
				want := 0
				for _, row := range all {
					if b.Matches(row) {
						want++
					}
				}
				got := collect(st, tern, b)
				if len(got) != want {
					t.Errorf("Scan(%v) = %d rows, want %d", b, len(got), want)
				}
				for _, row := range got {
					if !b.Matches(row) {
						t.Errorf("Scan(%v) yielded non-matching row %v", b, row)
					}
				}
			}
			// Propositional predicate: one empty tuple, under nil and
			// zero-length bindings alike.
			flag := ast.PredKey{Name: "flag", Arity: 0}
			if n := len(collect(st, flag, nil)); n != 1 {
				t.Errorf("flag/0 scan = %d rows, want 1", n)
			}
		})
	}
}

// TestConformanceScanSince checks the delta-window contract: ScanSince(k, n)
// yields exactly the rows with insertion ordinal >= n, in order.
func TestConformanceScanSince(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			st := mk()
			seedStore(st)
			tern := ast.PredKey{Name: "t", Arity: 3}
			all := collect(st, tern, nil)
			for _, from := range []int{0, 1, 17, len(all), len(all) + 5} {
				var got []relation.Tuple
				for row := range st.ScanSince(tern, from) {
					got = append(got, append(relation.Tuple(nil), row...))
				}
				want := 0
				if from < len(all) {
					want = len(all) - from
				}
				if len(got) != want {
					t.Fatalf("ScanSince(%d) = %d rows, want %d", from, len(got), want)
				}
				for i, row := range got {
					if !row.Equal(all[from+i]) {
						t.Errorf("ScanSince(%d) row %d = %v, want %v", from, i, row, all[from+i])
					}
				}
			}
			if rows := collect(st, ast.PredKey{Name: "nope", Arity: 2}, nil); rows != nil {
				t.Errorf("scan of unknown predicate yielded %v", rows)
			}
		})
	}
}

// TestConformanceVersionAndChanges checks that the version counts exactly
// the successful inserts, that duplicates do not advance it, and that
// ChangesSince replays the tail with correct sequence numbers, keys, and
// rows.
func TestConformanceVersionAndChanges(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			st := mk()
			syms := st.Symbols()
			e := ast.PredKey{Name: "e", Arity: 2}
			x, y, z := syms.Intern("x"), syms.Intern("y"), syms.Intern("z")
			if !st.Insert(e, relation.Tuple{x, y}) {
				t.Fatal("first insert reported duplicate")
			}
			if st.Insert(e, relation.Tuple{x, y}) {
				t.Fatal("duplicate insert reported new")
			}
			if v := st.Version(); v != 1 {
				t.Fatalf("version = %d, want 1", v)
			}
			st.Insert(e, relation.Tuple{y, z})
			st.Insert(ast.PredKey{Name: "f", Arity: 1}, relation.Tuple{z})
			ch := st.ChangesSince(1)
			if len(ch) != 2 {
				t.Fatalf("ChangesSince(1) = %d changes, want 2", len(ch))
			}
			if ch[0].Seq != 2 || ch[0].Key != e || !ch[0].Row.Equal(relation.Tuple{y, z}) {
				t.Errorf("change 0 = %+v", ch[0])
			}
			if ch[1].Seq != 3 || ch[1].Key != (ast.PredKey{Name: "f", Arity: 1}) {
				t.Errorf("change 1 = %+v", ch[1])
			}
			if got := st.ChangesSince(st.Version()); got != nil {
				t.Errorf("ChangesSince(current) = %v, want nil", got)
			}
		})
	}
}

// TestConformanceCardinalityAndStats checks the planner-facing surface:
// Has, Preds ordering, Cardinality, exact Distinct, and the Stats snapshot
// epoch matching Version.
func TestConformanceCardinalityAndStats(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			st := mk()
			seedStore(st)
			tern := ast.PredKey{Name: "t", Arity: 3}
			if n := st.Cardinality(tern); n != 40 {
				t.Errorf("Cardinality(t/3) = %d, want 40", n)
			}
			if st.Cardinality(ast.PredKey{Name: "nope", Arity: 1}) != 0 {
				t.Error("Cardinality of unknown predicate nonzero")
			}
			if !st.Has(tern) || st.Has(ast.PredKey{Name: "nope", Arity: 1}) {
				t.Error("Has wrong")
			}
			preds := st.Preds()
			if len(preds) != 3 || preds[0].Name != "e" || preds[1].Name != "flag" || preds[2].Name != "t" {
				t.Errorf("Preds = %v", preds)
			}
			// Exact distinct counts: col 0 cycles through 7 values, col 1
			// through 5, col 2 is unique per row.
			for col, want := range map[int]int{0: 7, 1: 5, 2: 40} {
				if d := st.Distinct(tern, col); d != want {
					t.Errorf("Distinct(t/3, %d) = %d, want %d", col, d, want)
				}
			}
			stats := st.Stats()
			if stats.Epoch != st.Version() {
				t.Errorf("stats epoch = %d, version = %d", stats.Epoch, st.Version())
			}
			if rs, ok := stats.Rels[tern]; !ok || rs.Rows != 40 {
				t.Errorf("stats for t/3 = %+v", rs)
			}
		})
	}
}

// TestConformanceConcurrentInsertScan overlaps one writer with several
// scanning readers — the System contract for subscriptions feeding while
// queries run. Run under -race; the invariant checked is that every scan
// sees a prefix-consistent row count and no torn tuples.
func TestConformanceConcurrentInsertScan(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			st := mk()
			st.WarmFor(nil)
			key := ast.PredKey{Name: "e", Arity: 2}
			syms := st.Symbols()
			const n = 300
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					st.Insert(key, relation.Tuple{
						syms.Intern(fmt.Sprintf("s%d", i%10)),
						syms.Intern(fmt.Sprintf("d%d", i)),
					})
				}
			}()
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					probe := syms.Intern(fmt.Sprintf("s%d", r))
					for i := 0; i < 50; i++ {
						seen := 0
						for row := range st.Scan(key, nil) {
							if len(row) != 2 {
								t.Errorf("torn row %v", row)
							}
							seen++
						}
						if seen > n {
							t.Errorf("scan saw %d rows, cap %d", seen, n)
						}
						for row := range st.Scan(key, relation.Binding{probe, symtab.NoSym}) {
							if row[0] != probe {
								t.Errorf("bound scan yielded %v", row)
							}
						}
						_ = st.Version()
						_ = st.ChangesSince(0)
					}
				}(r)
			}
			wg.Wait()
			if got := st.Cardinality(key); got != n {
				t.Errorf("final cardinality %d, want %d", got, n)
			}
		})
	}
}

// TestConformanceContainsMaterialize checks the two cross-backend helpers.
func TestConformanceContainsMaterialize(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			st := mk()
			seedStore(st)
			key := ast.PredKey{Name: "t", Arity: 3}
			all := collect(st, key, nil)
			if !Contains(st, key, all[13]) {
				t.Error("Contains missed a stored row")
			}
			absent := append(relation.Tuple(nil), all[0]...)
			absent[2] = st.Symbols().Intern("nowhere")
			if Contains(st, key, absent) {
				t.Error("Contains reported an absent row")
			}
			r := Materialize(st, key)
			if r.Len() != len(all) || r.Arity() != 3 {
				t.Fatalf("Materialize: len=%d arity=%d", r.Len(), r.Arity())
			}
			for _, row := range all {
				if !r.Contains(row) {
					t.Errorf("materialized relation missing %v", row)
				}
			}
		})
	}
}

// TestConformanceConcurrentDistinct: Distinct takes only the read lock
// once the column index is built, so planning (rgg.Build asks Distinct for
// every bound column) overlaps scans. Run under -race, against a writer.
func TestConformanceConcurrentDistinct(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			st := mk()
			seedStore(st)
			key := ast.PredKey{Name: "t", Arity: 3}
			syms := st.Symbols()
			want := st.Distinct(key, 0) // builds the column index
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 100 {
					st.Insert(ast.PredKey{Name: "e", Arity: 2}, relation.Tuple{syms.Intern("x"), syms.Intern(fmt.Sprintf("w%d", i))})
				}
			}()
			probe := syms.Intern("a3")
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var buf []relation.Tuple
					for range 200 {
						if got := st.Distinct(key, 0); got != want {
							t.Errorf("Distinct = %d, want %d", got, want)
						}
						st.Distinct(key, 2)
						buf = st.ScanInto(buf[:0], key, relation.Binding{probe, symtab.NoSym, symtab.NoSym})
						for _, row := range buf {
							if row[0] != probe {
								t.Errorf("bound scan yielded %v", row)
							}
						}
					}
				}()
			}
			wg.Wait()
			if got := st.Distinct(key, 2); got != 40 {
				t.Errorf("Distinct over column 2 = %d, want 40", got)
			}
		})
	}
}
