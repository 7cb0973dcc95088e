package edb

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// FuzzLoadRows asserts bulk loading never panics, loads only same-arity
// facts, and counts exactly the rows it stored.
func FuzzLoadRows(f *testing.F) {
	f.Add("a,b\nc,d\n")
	f.Add("x\ty\tz\n")
	f.Add("# comment\n\n a , b \n")
	f.Add("one\ntwo,three\n")
	f.Add(",\n")
	f.Fuzz(func(t *testing.T, data string) {
		db := New()
		added, err := db.LoadRows("p", strings.NewReader(data))
		if err != nil {
			return
		}
		if preds := db.Preds(); len(preds) > 1 {
			t.Fatalf("mixed arity slipped through: %v", preds)
		}
		if added != db.Facts() {
			t.Fatalf("LoadRows counted %d new rows, store holds %d", added, db.Facts())
		}
	})
}

// fuzzUniverse is every constant a FuzzStoreConformance row may hold: few
// enough that inserts collide often.
var fuzzUniverse = []string{"a", "b", "c", "d"}

// FuzzStoreConformance drives a memory and a disk store through the same
// inserts — duplicates included, over at most three predicates of arity
// 0–3 — with the disk store reopened between them, after a Close or as
// after a kill, and checks after every step that the two agree on every
// read. The first byte picks the predicates' arities; each later byte is
// an operation: 0xf0 and up closes and reopens the disk store, 0xe0 and up
// reopens it without closing the old handle first, and anything else
// inserts into predicate op%3 the row spelled by the next arity bytes.
func FuzzStoreConformance(f *testing.F) {
	f.Add([]byte{0x24, 0, 1, 1, 0, 1, 1, 0xf0, 2, 0, 0, 0, 0xe0, 1, 2, 3})
	f.Add([]byte{0x3f, 0, 1, 2, 3, 2, 3, 2, 1, 0xe1, 0, 1, 2, 3, 0xf1, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var keys [3]ast.PredKey
		for i, name := range []string{"p", "q", "p"} {
			keys[i] = ast.PredKey{Name: name, Arity: int(data[0]>>(2*i)) & 3}
		}
		rng := rand.New(rand.NewPCG(uint64(len(data)), uint64(data[0])))
		data = data[1:]
		mem := NewMemory()
		ids := make([]symtab.Sym, len(fuzzUniverse))
		for i, s := range fuzzUniverse {
			ids[i] = mem.Symbols().Intern(s)
		}
		dir := t.TempDir()
		open := func() *DiskStore {
			st, err := OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			// A reopened store holds the symbols its rows use, or none:
			// interning the universe again gives it the memory store's ids.
			for i, s := range fuzzUniverse {
				if id := st.Symbols().Intern(s); id != ids[i] {
					t.Fatalf("symbol %q has id %d on disk, %d in memory", s, id, ids[i])
				}
			}
			return st
		}
		disk := open()
		defer func() { disk.Close() }()
		for step := 0; len(data) > 0 && step < 64; step++ {
			op := data[0]
			data = data[1:]
			switch {
			case op >= 0xf0:
				if err := disk.Close(); err != nil {
					t.Fatal(err)
				}
				disk = open()
			case op >= 0xe0:
				// The old handle never syncs before the new one opens; its
				// Close afterwards only releases it.
				old := disk
				disk = open()
				old.Close()
			default:
				key := keys[op%3]
				if len(data) < key.Arity {
					return
				}
				row := make(relation.Tuple, key.Arity)
				for i := range row {
					row[i] = ids[int(data[i])%len(ids)]
				}
				data = data[key.Arity:]
				if m, d := mem.Insert(key, row), disk.Insert(key, row); m != d {
					t.Fatalf("step %d: Insert(%v, %v) new = %v in memory, %v on disk", step, key, row, m, d)
				}
			}
			conform(t, mem, disk, keys[:], ids, rng)
		}
	})
}

// conform checks that two stores given the same inserts answer every read
// alike; rng draws the bindings, windows and tuples probed.
func conform(t *testing.T, mem, disk Storage, keys []ast.PredKey, ids []symtab.Sym, rng *rand.Rand) {
	t.Helper()
	v := mem.Version()
	if d := disk.Version(); d != v {
		t.Fatalf("Version: memory %d, disk %d", v, d)
	}
	if m, d := mem.Preds(), disk.Preds(); !reflect.DeepEqual(m, d) {
		t.Fatalf("Preds: memory %v, disk %v", m, d)
	}
	ms, ds := mem.Stats(), disk.Stats()
	if ms.Epoch != v || ds.Epoch != v || ms.Rows != ds.Rows || len(ms.Rels) != len(ds.Rels) {
		t.Fatalf("Stats: memory %+v, disk %+v at version %d", ms, ds, v)
	}
	for key, rs := range ms.Rels {
		if ds.Rels[key].Rows != rs.Rows {
			t.Fatalf("Stats %v: memory %d rows, disk %d", key, rs.Rows, ds.Rels[key].Rows)
		}
	}
	since := uint64(rng.IntN(int(v) + 1))
	mc, dc := mem.ChangesSince(since), disk.ChangesSince(since)
	if len(mc) != len(dc) {
		t.Fatalf("ChangesSince(%d): memory %d changes, disk %d", since, len(mc), len(dc))
	}
	for i := range mc {
		if mc[i].Seq != dc[i].Seq || mc[i].Key != dc[i].Key || !mc[i].Row.Equal(dc[i].Row) {
			t.Fatalf("ChangesSince(%d)[%d]: memory %+v, disk %+v", since, i, mc[i], dc[i])
		}
	}
	pick := func() symtab.Sym { return ids[rng.IntN(len(ids))] }
	for _, key := range keys {
		if m, d := mem.Has(key), disk.Has(key); m != d {
			t.Fatalf("Has(%v): memory %v, disk %v", key, m, d)
		}
		n := mem.Cardinality(key)
		if d := disk.Cardinality(key); d != n {
			t.Fatalf("Cardinality(%v): memory %d, disk %d", key, n, d)
		}
		from := rng.IntN(n + 2)
		sameRows(t, fmt.Sprintf("ScanSince(%v, %d)", key, from), slices.Collect(mem.ScanSince(key, from)), slices.Collect(disk.ScanSince(key, from)))
		for range 3 {
			var b relation.Binding // nil binds nothing
			if rng.IntN(4) > 0 {
				b = make(relation.Binding, key.Arity)
				for i := range b {
					if rng.IntN(2) == 0 {
						b[i] = pick()
					}
				}
			}
			sameRows(t, fmt.Sprintf("ScanInto(%v, %v)", key, b), mem.ScanInto(nil, key, b), disk.ScanInto(nil, key, b))
		}
		for col := range key.Arity {
			if m, d := mem.Distinct(key, col), disk.Distinct(key, col); m != d {
				t.Fatalf("Distinct(%v, %d): memory %d, disk %d", key, col, m, d)
			}
		}
		probe := make(relation.Tuple, key.Arity)
		for i := range probe {
			probe[i] = pick()
		}
		if m, d := Contains(mem, key, probe), Contains(disk, key, probe); m != d {
			t.Fatalf("Contains(%v, %v): memory %v, disk %v", key, probe, m, d)
		}
		mr, dr := Materialize(mem, key), Materialize(disk, key)
		if mr.Arity() != key.Arity || dr.Arity() != key.Arity {
			t.Fatalf("Materialize(%v): arity %d in memory, %d on disk", key, mr.Arity(), dr.Arity())
		}
		sameRows(t, fmt.Sprintf("Materialize(%v)", key), slices.Collect(mr.All()), slices.Collect(dr.All()))
	}
}

func sameRows(t *testing.T, what string, mem, disk []relation.Tuple) {
	t.Helper()
	if !slices.EqualFunc(mem, disk, relation.Tuple.Equal) {
		t.Fatalf("%s: memory %v, disk %v", what, mem, disk)
	}
}
