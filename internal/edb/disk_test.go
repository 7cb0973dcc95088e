package edb

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// TestDiskReopen is the core durability test: everything a restarted
// server needs — facts, symbol renderings, version (the statistics epoch
// and result-cache key), change log, statistics — must come back from a
// cleanly closed store.
func TestDiskReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(st)
	tern := ast.PredKey{Name: "t", Arity: 3}
	before := collect(st, tern, nil)
	wantVersion := st.Version()
	wantChanges := st.ChangesSince(0)
	for i := range wantChanges {
		wantChanges[i].Row = wantChanges[i].Row.Clone() // views die with Close
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	re, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if v := re.Version(); v != wantVersion {
		t.Fatalf("version after reopen = %d, want %d", v, wantVersion)
	}
	after := collect(re, tern, nil)
	if len(after) != len(before) {
		t.Fatalf("reopen: %d rows, want %d", len(after), len(before))
	}
	for i := range before {
		// Same ordinals AND same symbol ids: the syms.log replay pins the
		// interning order.
		if !after[i].Equal(before[i]) {
			t.Fatalf("row %d = %v, want %v", i, after[i], before[i])
		}
		if got, want := after[i].String(re.Symbols()), before[i].String(st.Symbols()); got != want {
			t.Fatalf("row %d renders %q, want %q", i, got, want)
		}
	}
	reChanges := re.ChangesSince(0)
	if len(reChanges) != len(wantChanges) {
		t.Fatalf("change log: %d entries, want %d", len(reChanges), len(wantChanges))
	}
	for i := range wantChanges {
		if reChanges[i].Seq != wantChanges[i].Seq || reChanges[i].Key != wantChanges[i].Key ||
			!reChanges[i].Row.Equal(wantChanges[i].Row) {
			t.Fatalf("change %d = %+v, want %+v", i, reChanges[i], wantChanges[i])
		}
	}
	stats := re.Stats()
	if stats.Epoch != wantVersion || stats.Rels[tern].Rows != 40 {
		t.Errorf("stats after reopen: epoch %d rows %d", stats.Epoch, stats.Rels[tern].Rows)
	}
	// A duplicate of a recovered row must still be detected — and must not
	// advance the version (the property OpenSystem's program replay relies
	// on).
	if re.Insert(tern, before[0]) {
		t.Error("recovered row re-inserted as new")
	}
	if re.Version() != wantVersion {
		t.Error("duplicate insert advanced the version after reopen")
	}
	// And genuinely new facts append cleanly after recovery.
	syms := re.Symbols()
	if !re.Insert(tern, relation.Tuple{syms.Intern("new"), syms.Intern("new"), syms.Intern("new")}) {
		t.Error("fresh insert after reopen rejected")
	}
	if re.Version() != wantVersion+1 {
		t.Error("fresh insert did not advance version by one")
	}
}

// TestDiskReopenWithoutClose models a killed process: the first handle is
// never closed (no final sync), yet a second open of the same directory
// sees every committed row — the append-through-page-cache write path
// keeps the files complete at all times with respect to process death.
func TestDiskReopenWithoutClose(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(st)
	want := st.Version()
	// No Close: simulate SIGKILL by just abandoning the handle.
	re, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Version() != want {
		t.Fatalf("version = %d, want %d", re.Version(), want)
	}
	if n := re.Cardinality(ast.PredKey{Name: "t", Arity: 3}); n != 40 {
		t.Fatalf("cardinality after kill-reopen = %d, want 40", n)
	}
}

// corrupt appends or truncates a store file, simulating a crash mid-write.
func corrupt(t *testing.T, path string, truncateBy int, garbage []byte) {
	t.Helper()
	if truncateBy > 0 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-int64(truncateBy)); err != nil {
			t.Fatal(err)
		}
	}
	if len(garbage) > 0 {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o666)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(garbage); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}

// TestDiskTornJournal crashes "between the segment write and the journal
// write": the segment holds an orphan row the journal never committed.
// Reopen must drop the orphan and leave a store identical to one that
// never attempted the insert.
func TestDiskTornJournal(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	syms := st.Symbols()
	e := ast.PredKey{Name: "e", Arity: 2}
	for i := 0; i < 5; i++ {
		st.Insert(e, relation.Tuple{syms.Intern("a"), syms.Intern(strings.Repeat("b", i+1))})
	}
	st.Close()

	// Orphan segment row (8 bytes of row data, no journal record) plus a
	// torn journal tail (3 bytes of a half-written record).
	corrupt(t, filepath.Join(dir, "seg-0.dat"), 0, []byte{9, 9, 9, 9, 9, 9, 9, 9})
	corrupt(t, filepath.Join(dir, "journal.log"), 0, []byte{0, 0, 0})

	re, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Version() != 5 || re.Cardinality(e) != 5 {
		t.Fatalf("after torn tail: version %d cardinality %d, want 5/5", re.Version(), re.Cardinality(e))
	}
	// The truncated store accepts new inserts and stays consistent across
	// one more reopen.
	if !re.Insert(e, relation.Tuple{syms.Intern("x"), syms.Intern("y")}) {
		t.Fatal("insert after recovery failed")
	}
	re.Close()
	re2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Version() != 6 || re2.Cardinality(e) != 6 {
		t.Errorf("after recovery insert: version %d cardinality %d, want 6/6", re2.Version(), re2.Cardinality(e))
	}
}

// TestDiskTornSymsAndPreds truncates the symbol log and predicate table
// mid-entry; reopen must cut the torn tails (and any journal records that
// depended on them) rather than fail or misparse.
func TestDiskTornSymsAndPreds(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	syms := st.Symbols()
	st.Insert(ast.PredKey{Name: "e", Arity: 2}, relation.Tuple{syms.Intern("aa"), syms.Intern("bb")})
	st.Close()

	corrupt(t, filepath.Join(dir, "syms.log"), 0, []byte{40}) // length byte, no payload
	corrupt(t, filepath.Join(dir, "preds.tab"), 0, []byte{7, 'z'})

	re, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Version() != 1 || re.Cardinality(ast.PredKey{Name: "e", Arity: 2}) != 1 {
		t.Fatalf("after torn logs: version %d, want 1", re.Version())
	}

	// Now tear preds.tab so deeply that journal records reference a dropped
	// predicate: those records (and the segment rows behind them) must be
	// discarded together.
	re.Close()
	if err := os.Truncate(filepath.Join(dir, "preds.tab"), 0); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Version() != 0 || re2.Has(ast.PredKey{Name: "e", Arity: 2}) {
		t.Errorf("journal records for dropped predicate survived: version %d", re2.Version())
	}
}

// TestDiskEmptyPredicateUnlisted tears off the only journal record of a
// predicate whose preds.tab entry survived. Like the memory store, the
// reopened store must not list a predicate with no row — the statistics
// strategy would price it as an empty base relation — yet a later insert
// must reuse its id and segment rather than register it twice.
func TestDiskEmptyPredicateUnlisted(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	syms := st.Symbols()
	e, f := ast.PredKey{Name: "e", Arity: 2}, ast.PredKey{Name: "f", Arity: 1}
	st.Insert(e, relation.Tuple{syms.Intern("a"), syms.Intern("b")})
	st.Insert(f, relation.Tuple{syms.Intern("c")})
	st.Close()
	if err := os.Truncate(filepath.Join(dir, "journal.log"), journalRecSize); err != nil {
		t.Fatal(err)
	}
	predsTab, err := os.Stat(filepath.Join(dir, "preds.tab"))
	if err != nil {
		t.Fatal(err)
	}

	re, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Has(f) || re.Cardinality(f) != 0 {
		t.Errorf("Has(f) = %v with %d rows, want false", re.Has(f), re.Cardinality(f))
	}
	if got := re.Preds(); !reflect.DeepEqual(got, []ast.PredKey{e}) {
		t.Errorf("Preds = %v, want [e/2]", got)
	}
	if _, ok := re.Stats().Rels[f]; ok {
		t.Error("Stats lists f with no row")
	}
	if !re.Insert(f, relation.Tuple{re.Symbols().Intern("c")}) || !re.Has(f) {
		t.Fatal("insert into the recovered empty predicate failed")
	}
	if id := re.byKey[f].id; id != 1 {
		t.Errorf("f re-registered as id %d, want its old id 1", id)
	}
	re.Close()
	if fi, err := os.Stat(filepath.Join(dir, "preds.tab")); err != nil || fi.Size() != predsTab.Size() {
		t.Errorf("preds.tab grew on the reinsert: %v", err)
	}

	re2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := re2.Preds(); !reflect.DeepEqual(got, []ast.PredKey{e, f}) || re2.Version() != 2 {
		t.Errorf("after reinsert and reopen: Preds = %v version %d, want [e/2 f/1] at 2", got, re2.Version())
	}
}

// TestDiskManifestGuard rejects a directory claiming another format.
func TestDiskManifestGuard(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte("something else\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(dir); err == nil || !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("foreign manifest accepted: %v", err)
	}
}

// wideKey names a relation of the given arity for the mapped-segment tests.
func wideKey(arity int) ast.PredKey {
	return ast.PredKey{Name: fmt.Sprintf("w%d", arity), Arity: arity}
}

// wideRow is row i of a wide relation: distinct in every arity (i is spread
// over the columns base-1000, so symbols stay few and rows stay many), and
// column 0 repeats every 1000 rows so bound probes have something to find.
func wideRow(ids []symtab.Sym, arity, i int) relation.Tuple {
	t := make(relation.Tuple, arity)
	for c := range t {
		t[c] = ids[i%1000]
		i /= 1000
	}
	return t
}

// TestDiskViewsSurviveGrowth pins the "retained tuples stay valid" half of
// the Storage contract on mapped segments: views handed out by Scan,
// ScanInto and ChangesSince read the same after the relation grew by 300k
// rows — past an extent boundary, so new mappings were made beside theirs.
func TestDiskViewsSurviveGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("inserts 300k rows per arity")
	}
	for arity := 1; arity <= 3; arity++ {
		t.Run(fmt.Sprint("arity", arity), func(t *testing.T) {
			st, err := OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			// Arity 1 has only as many distinct rows as symbols.
			ids := make([]symtab.Sym, 1000)
			if arity == 1 {
				ids = make([]symtab.Sym, relation.ExtentRows+50_000)
			}
			for i := range ids {
				ids[i] = st.Symbols().Intern(fmt.Sprint("s", i))
			}
			row := func(i int) relation.Tuple {
				if arity == 1 {
					return relation.Tuple{ids[i]}
				}
				return wideRow(ids, arity, i)
			}
			key := wideKey(arity)
			const early = 5000
			for i := 0; i < early; i++ {
				st.Insert(key, row(i))
			}
			probe := make(relation.Binding, arity)
			probe[0] = ids[7]
			var views []relation.Tuple
			for v := range st.Scan(key, nil) {
				views = append(views, v)
			}
			views = st.ScanInto(views, key, probe)
			for _, ch := range st.ChangesSince(uint64(early - 100)) {
				views = append(views, ch.Row)
			}
			want := make([]relation.Tuple, len(views))
			for i, v := range views {
				want[i] = v.Clone()
			}
			grown := early + 300_000
			if arity == 1 {
				grown = len(ids)
			}
			for i := early; i < grown; i++ {
				if !st.Insert(key, row(i)) {
					t.Fatalf("row %d rejected as a duplicate", i)
				}
			}
			if grown <= relation.ExtentRows {
				t.Fatalf("%d rows do not cross the %d-row extent boundary", grown, relation.ExtentRows)
			}
			for i, v := range views {
				if !v.Equal(want[i]) {
					t.Fatalf("view %d changed: %v, was %v", i, v, want[i])
				}
			}
			// The last rows live in the second extent: read them back.
			got := st.ScanInto(nil, key, relation.Binding(row(grown-1)))
			if len(got) != 1 || !got[0].Equal(row(grown-1)) {
				t.Fatalf("row %d reads back as %v", grown-1, got)
			}
		})
	}
}

// TestDiskWriterCrossesExtent overlaps a lone writer, appending across an
// extent boundary, with four readers that keep probing and scanning the
// tail: every row a reader sees is whole and is the row written at that
// ordinal, in the old extent and in the one mapped under their feet. Run
// under -race.
func TestDiskWriterCrossesExtent(t *testing.T) {
	if testing.Short() {
		t.Skip("fills most of an extent first")
	}
	st, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ids := make([]symtab.Sym, 1000)
	for i := range ids {
		ids[i] = st.Symbols().Intern(fmt.Sprint("s", i))
	}
	key := wideKey(2)
	const start, end = relation.ExtentRows - 2000, relation.ExtentRows + 2000
	for i := 0; i < start; i++ {
		st.Insert(key, wideRow(ids, 2, i))
	}
	st.WarmFor(nil)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			probe := relation.Binding{ids[r], symtab.NoSym}
			var buf []relation.Tuple
			for {
				select {
				case <-done:
					return
				default:
				}
				ord := start - 100
				for row := range st.ScanSince(key, ord) {
					if !row.Equal(wideRow(ids, 2, ord)) {
						t.Errorf("row %d reads %v", ord, row)
						return
					}
					ord++
				}
				n := st.Cardinality(key)
				buf = st.ScanInto(buf[:0], key, probe)
				for _, row := range buf {
					if row[0] != ids[r] {
						t.Errorf("probe for %v yielded %v", ids[r], row)
						return
					}
				}
				if want := n/1000 - 1; len(buf) < want {
					t.Errorf("probe found %d rows, want at least %d", len(buf), want)
					return
				}
			}
		}(r)
	}
	for i := start; i < end; i++ {
		st.Insert(key, wideRow(ids, 2, i))
	}
	close(done)
	wg.Wait()
	if n := st.Cardinality(key); n != end {
		t.Errorf("cardinality %d, want %d", n, end)
	}
}

// TestDiskCloseUnmapsAndReopens checks that Close leaves no mapping behind
// and that a reopened store maps the same rows.
func TestDiskCloseUnmapsAndReopens(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(st)
	tern, bin := ast.PredKey{Name: "t", Arity: 3}, ast.PredKey{Name: "e", Arity: 2}
	a0, _ := st.Symbols().Lookup("a0")
	scans := func(st Storage) [][]relation.Tuple {
		return [][]relation.Tuple{collect(st, tern, nil), collect(st, bin, nil),
			collect(st, tern, relation.Binding{a0, symtab.NoSym, symtab.NoSym})}
	}
	before := scans(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for id, seg := range st.segs {
		if seg.extents != nil {
			t.Errorf("%s still mapped after Close", st.preds[id].key.Name)
		}
	}
	re, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i, after := range scans(re) {
		if len(after) != len(before[i]) {
			t.Fatalf("scan %d: %d rows after reopen, want %d", i, len(after), len(before[i]))
		}
		for j := range after {
			if !after[j].Equal(before[i][j]) {
				t.Fatalf("scan %d row %d = %v, want %v", i, j, after[j], before[i][j])
			}
		}
	}
}

// TestDiskSegmentEdges covers the segment shapes with no or odd mappings: a
// relation with no rows, a propositional one (width 0: nothing to map), and
// one exactly an extent long, before and after a reopen.
func TestDiskSegmentEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a whole extent")
	}
	dir := t.TempDir()
	st, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	syms := st.Symbols()
	flag, full, empty := ast.PredKey{Name: "flag", Arity: 0}, wideKey(2), ast.PredKey{Name: "none", Arity: 2}
	ids := make([]symtab.Sym, 1000)
	for i := range ids {
		ids[i] = syms.Intern(fmt.Sprint("s", i))
	}
	if !st.Insert(flag, relation.Tuple{}) || st.Insert(flag, relation.Tuple{}) {
		t.Fatal("propositional fact: want new once, then a duplicate")
	}
	for i := 0; i < relation.ExtentRows; i++ {
		st.Insert(full, wideRow(ids, 2, i))
	}
	check := func(st *DiskStore) {
		t.Helper()
		if rows := collect(st, flag, nil); len(rows) != 1 || len(rows[0]) != 0 {
			t.Errorf("propositional scan = %v", rows)
		}
		if rows := st.ScanInto(nil, flag, relation.Binding{}); len(rows) != 1 {
			t.Errorf("propositional ScanInto = %v", rows)
		}
		if seg := st.segs[st.byKey[flag].id]; len(seg.extents) != 0 {
			t.Errorf("propositional relation mapped %d extents", len(seg.extents))
		}
		if rows := collect(st, empty, nil); rows != nil {
			t.Errorf("unknown relation yields %v", rows)
		}
		if rows := st.ScanInto(nil, empty, relation.Binding{ids[0], symtab.NoSym}); rows != nil {
			t.Errorf("unknown relation probe yields %v", rows)
		}
		p := st.byKey[full]
		if n, seg := p.rel.Len(), st.segs[p.id]; n != relation.ExtentRows || len(seg.extents) != 1 {
			t.Fatalf("full relation: %d rows in %d extents, want %d in 1", n, len(seg.extents), relation.ExtentRows)
		}
		last := wideRow(ids, 2, relation.ExtentRows-1)
		if got := st.ScanInto(nil, full, relation.Binding(last)); len(got) != 1 || !got[0].Equal(last) {
			t.Errorf("last row of the extent reads back as %v", got)
		}
		n := 0
		for range st.ScanSince(full, relation.ExtentRows-10) {
			n++
		}
		if n != 10 {
			t.Errorf("tail window of the extent: %d rows, want 10", n)
		}
	}
	check(st)
	// One row more opens the second extent.
	st.Insert(full, wideRow(ids, 2, relation.ExtentRows))
	if seg := st.segs[st.byKey[full].id]; len(seg.extents) != 2 {
		t.Errorf("row %d did not map a second extent (%d mapped)", relation.ExtentRows, len(seg.extents))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Cut the extra row off again, as a crash between the segment write and
	// the journal write would: the reopened relation is exactly one extent.
	if err := os.Truncate(filepath.Join(dir, "journal.log"), int64(st.Version()-1)*journalRecSize); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re)
}

// TestDiskRemoveOnClose pins the MPQ_STORE=disk temp-store contract.
func TestDiskRemoveOnClose(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "scratch")
	st, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.removeOnClose = true
	st.Insert(ast.PredKey{Name: "e", Arity: 1}, relation.Tuple{st.Symbols().Intern("x")})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("store directory survived Close: %v", err)
	}
}

// TestLoadRowsAtomic pins the all-or-nothing bulk-load contract: a parse
// error anywhere in the input leaves the database completely untouched —
// no partial facts, no version bump, no change-log entries. (Regression:
// LoadRows used to insert rows up to the first bad line.)
func TestLoadRowsAtomic(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			db := FromStorage(mk())
			db.Add("edge", "seed", "row")
			v := db.Version()
			_, err := db.LoadRows("edge", strings.NewReader("a,b\nc,d\nragged\ne,f\n"))
			if err == nil {
				t.Fatal("ragged input accepted")
			}
			if db.Version() != v {
				t.Errorf("failed load advanced version %d -> %d", v, db.Version())
			}
			if n := db.Cardinality(ast.PredKey{Name: "edge", Arity: 2}); n != 1 {
				t.Errorf("failed load left %d rows, want the 1 seed row", n)
			}
			if ch := db.ChangesSince(v); ch != nil {
				t.Errorf("failed load logged changes %v", ch)
			}
			// The same rows minus the bad line load cleanly afterwards.
			added, err := db.LoadRows("edge", strings.NewReader("a,b\nc,d\ne,f\n"))
			if err != nil || added != 3 {
				t.Fatalf("clean load after failure: added=%d err=%v", added, err)
			}
		})
	}
}

// TestDiskProgramRecord: a program record reaches the disk only with the
// sync that makes its rows durable, survives a clean reopen whole, and is
// ignored — never half-trusted — once the journal no longer reaches its
// version, the journal was torn, or its bytes are damaged.
func TestDiskProgramRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(st)
	rec := &ProgramRecord{Hash: [32]byte{1, 2, 3}, Version: st.Version(),
		Facts: []ast.PredKey{{Name: "t", Arity: 3}, {Name: "flag"}}, Rules: "goal(X) :- t(X, Y, Z).\n"}
	if err := st.SetProgram(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, programRecFile)); !os.IsNotExist(err) {
		t.Fatalf("record on disk before any sync: %v", err)
	}
	if _, ok := st.Program(); ok {
		t.Fatal("pending record reported before it was written")
	}
	st.Close()

	reopen := func() *DiskStore {
		t.Helper()
		re, err := OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		return re
	}
	re := reopen()
	got, ok := re.Program()
	if !ok || !reflect.DeepEqual(got, rec) {
		t.Fatalf("reopened record = %+v, %v; want %+v", got, ok, rec)
	}
	re.Close()
	good, err := os.ReadFile(filepath.Join(dir, programRecFile))
	if err != nil {
		t.Fatal(err)
	}

	for name, damage := range map[string]func(){
		"truncated record": func() { os.WriteFile(filepath.Join(dir, programRecFile), good[:len(good)-1], 0o666) },
		"flipped byte": func() {
			b := append([]byte(nil), good...)
			b[len(programRecMagic)+40] ^= 1
			os.WriteFile(filepath.Join(dir, programRecFile), b, 0o666)
		},
		"journal below version": func() { corrupt(t, filepath.Join(dir, "journal.log"), journalRecSize, nil) },
		"torn journal":          func() { corrupt(t, filepath.Join(dir, "journal.log"), 0, []byte{0, 0, 0}) },
	} {
		t.Run(name, func(t *testing.T) {
			// Start each case from the good store: rebuild it, record and all.
			os.RemoveAll(dir)
			st, err := OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			seedStore(st)
			st.SetProgram(rec)
			st.Close()
			damage()
			re := reopen()
			defer re.Close()
			if got, ok := re.Program(); ok {
				t.Fatalf("damaged store trusted its record %+v", got)
			}
		})
	}
}

// TestDecodeProgramRejectsDamage: every strict prefix and every single-bit
// flip of a record decodes to nothing.
func TestDecodeProgramRejectsDamage(t *testing.T) {
	good := (&ProgramRecord{Version: 7, Facts: []ast.PredKey{{Name: "e", Arity: 2}},
		Rules: "goal(Y) :- e(a, Y).\n"}).encode()
	if rec := decodeProgram(good); rec == nil || rec.Version != 7 || rec.Rules != "goal(Y) :- e(a, Y).\n" {
		t.Fatalf("good record decoded to %+v", rec)
	}
	for n := range len(good) {
		if rec := decodeProgram(good[:n]); rec != nil {
			t.Fatalf("%d-byte prefix decoded to %+v", n, rec)
		}
	}
	for i := range len(good) * 8 {
		b := append([]byte(nil), good...)
		b[i/8] ^= 1 << (i % 8)
		if rec := decodeProgram(b); rec != nil {
			t.Fatalf("flip of bit %d decoded to %+v", i, rec)
		}
	}
}
