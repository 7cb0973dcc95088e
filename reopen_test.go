package mpq

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/edb"
)

// reopenView is everything a reopen must reproduce whether or not the
// store's program record let it skip the program's facts: the error, the
// rules, the version, every stored row in store order, and the answers.
type reopenView struct {
	Err     string
	Rules   string
	Version uint64
	Rows    []string
	Answers [][]string
}

func observe(t *testing.T, sys *System, err error) reopenView {
	t.Helper()
	if err != nil {
		return reopenView{Err: err.Error()}
	}
	v := reopenView{Rules: sys.Program.String(), Version: sys.EDBVersion()}
	for _, key := range sys.DB.Preds() {
		for row := range sys.DB.ScanSince(key, 0) {
			v.Rows = append(v.Rows, fmt.Sprintf("%s%v", key.Name, row.String(sys.DB.Syms)))
		}
	}
	ans, err := sys.Eval()
	if err != nil {
		t.Fatalf("eval after reopen: %v", err)
	}
	v.Answers = ans.Tuples
	return v
}

// copyStore copies a closed store directory, leaving the program record
// out when withRecord is false.
func copyStore(t testing.TB, from string, withRecord bool) string {
	t.Helper()
	to := filepath.Join(t.TempDir(), "store")
	if err := os.MkdirAll(to, 0o777); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !withRecord && e.Name() == "program.rec" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// reopen opens source over dir and, over a copy of dir taken first without
// its program record, the same way with a full load. The two must agree in
// every observable; it returns the view and whether dir's open replayed.
func reopen(t *testing.T, dir, source string) (reopenView, bool) {
	t.Helper()
	plain := copyStore(t, dir, false)
	sys, err := OpenSystem(dir, source)
	got := observe(t, sys, err)
	replayed := err == nil && sys.Recovery().Replayed
	if err == nil {
		sys.Close()
	}
	ref, err := OpenSystem(plain, source)
	want := observe(t, ref, err)
	if err == nil {
		if !ref.Recovery().Replayed {
			t.Fatal("an open without a program record skipped the replay")
		}
		ref.Close()
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen differs from a record-less open:\n got  %+v\n want %+v", got, want)
	}
	return got, replayed
}

// openClose loads source over a fresh store and closes it, leaving the
// store and its program record on disk.
func openClose(t testing.TB, source string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	sys, err := OpenSystem(dir, source)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Recovery().Replayed {
		t.Fatal("the first open of a store skipped the replay")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestReopenSkipsUnchangedProgram: reopening an unchanged program costs
// what the store holds, not what the program text holds. Beyond the store's
// own recovery (edb.OpenDisk, measured on the same directory), OpenSystem
// allocates the same on 10 facts as on 100k: no fact is lexed, interned or
// inserted. With the replay, the 100k-fact reopen allocated megabytes more.
func TestReopenSkipsUnchangedProgram(t *testing.T) {
	excess := func(n int) (allocs, bytes int64) {
		src := budgetProgram(n)
		dir := openClose(t, src)
		var m0, m1, m2, m3 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		st, err := edb.OpenDisk(dir)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
		runtime.GC()
		runtime.ReadMemStats(&m2)
		sys, err := OpenSystem(dir, src)
		runtime.ReadMemStats(&m3)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if sys.Recovery().Replayed {
			t.Fatalf("%d facts: unchanged program replayed", n)
		}
		allocs = int64(m3.Mallocs-m2.Mallocs) - int64(m1.Mallocs-m0.Mallocs)
		bytes = int64(m3.TotalAlloc-m2.TotalAlloc) - int64(m1.TotalAlloc-m0.TotalAlloc)
		return allocs, bytes
	}
	smallAllocs, smallBytes := excess(12)
	bigAllocs, bigBytes := excess(100000)
	t.Logf("OpenSystem beyond OpenDisk: %d allocs, %d B on 12 facts; %d allocs, %d B on 100k facts",
		smallAllocs, smallBytes, bigAllocs, bigBytes)
	if d := bigBytes - smallBytes; d > 16<<10 || d < -16<<10 {
		t.Errorf("reopen allocates %d B on 100k facts, %d B on 12: it reads the facts", bigBytes, smallBytes)
	}
	if raceEnabled {
		return
	}
	if d := bigAllocs - smallAllocs; d > 20 || d < -20 {
		t.Errorf("reopen allocates %d times on 100k facts, %d on 12", bigAllocs, smallAllocs)
	}
}

// TestReopenReplaysChangedProgram: one fact added to the source is a
// changed program — replayed, the new fact inserted (version +1) — and the
// next reopen of the changed program skips again.
func TestReopenReplaysChangedProgram(t *testing.T) {
	dir := openClose(t, persistProgram)
	first, replayed := reopen(t, dir, persistProgram)
	if replayed {
		t.Fatal("unchanged program replayed")
	}
	changed := persistProgram + "edge(f, g).\n"
	v, replayed := reopen(t, dir, changed)
	if !replayed {
		t.Fatal("changed program skipped")
	}
	if v.Version != first.Version+1 || !slicesHave(v.Answers, "g") {
		t.Fatalf("changed program: version %d (was %d), answers %v", v.Version, first.Version, v.Answers)
	}
	if again, replayed := reopen(t, dir, changed); replayed || !reflect.DeepEqual(again, v) {
		t.Fatalf("second reopen of the changed program: replayed %v, %+v", replayed, again)
	}
}

// TestReopenReplaysTruncatedJournal: a journal cut below the version the
// record vouches for has lost program facts; the reopen replays them.
func TestReopenReplaysTruncatedJournal(t *testing.T) {
	dir := openClose(t, persistProgram)
	full, _ := reopen(t, dir, persistProgram)
	journal := filepath.Join(dir, "journal.log")
	fi, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(journal, fi.Size()-2*8); err != nil { // two 8-byte records
		t.Fatal(err)
	}
	v, replayed := reopen(t, dir, persistProgram)
	if !replayed {
		t.Fatal("reopen over a truncated journal skipped the replay")
	}
	if !reflect.DeepEqual(v, full) {
		t.Fatalf("after replaying the lost facts: %+v, want %+v", v, full)
	}
}

// TestReopenBadRecord: a truncated, garbage or empty record is no record.
func TestReopenBadRecord(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"garbage":   func(b []byte) []byte { return []byte(strings.Repeat("mpq-program v1\n", 9)) },
		"empty":     func([]byte) []byte { return nil },
		"rules":     func(b []byte) []byte { return []byte(strings.Replace(string(b), "edge", "edgy", 1)) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := openClose(t, persistProgram)
			rec := filepath.Join(dir, "program.rec")
			b, err := os.ReadFile(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(rec, damage(b), 0o666); err != nil {
				t.Fatal(err)
			}
			if _, replayed := reopen(t, dir, persistProgram); !replayed {
				t.Fatal("damaged record trusted")
			}
			if _, replayed := reopen(t, dir, persistProgram); replayed {
				t.Fatal("the replay did not rewrite the record")
			}
		})
	}
}

// TestReopenKeepsRuntimeFacts: facts added at runtime after a skipped
// reopen survive the next skipped reopen.
func TestReopenKeepsRuntimeFacts(t *testing.T) {
	dir := openClose(t, persistProgram)
	sys, err := OpenSystem(dir, persistProgram)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Recovery().Replayed {
		t.Fatal("unchanged program replayed")
	}
	sys.AddFact("edge", "f", "g")
	version := sys.EDBVersion()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	v, replayed := reopen(t, dir, persistProgram)
	if replayed || v.Version != version || !slicesHave(v.Answers, "g") {
		t.Fatalf("after a runtime fact: replayed %v, version %d (want %d), answers %v",
			replayed, v.Version, version, v.Answers)
	}
}

// TestReopenInvalidProgram: a program that fails to load fails the same
// way over a store with a record of another program, and leaves the store
// loadable.
func TestReopenInvalidProgram(t *testing.T) {
	dir := openClose(t, persistProgram)
	v, _ := reopen(t, dir, "edge(a, b). edge(X, Y) :- edge(Y, X). goal(X) :- edge(X, Y).")
	if v.Err == "" {
		t.Fatal("rule defining a fact predicate accepted")
	}
	if _, replayed := reopen(t, dir, persistProgram); !replayed {
		t.Fatal("a failed load left the old record in place")
	}
}

func slicesHave(rows [][]string, want ...string) bool {
	for _, r := range rows {
		if reflect.DeepEqual(r, want) {
			return true
		}
	}
	return false
}

// FuzzReopen writes arbitrary bytes over the program record of a store and
// checks that OpenSystem ends up exactly where a record-less open does:
// the same rules, store rows, version and answers, or the same error. The
// seeds include the store's own record and damaged copies of it.
func FuzzReopen(f *testing.F) {
	dir := openClose(f, persistProgram)
	sys, err := OpenSystem(dir, persistProgram) // a runtime fact past the record
	if err != nil {
		f.Fatal(err)
	}
	sys.AddFact("edge", "f", "g")
	sys.Close()
	good, err := os.ReadFile(filepath.Join(dir, "program.rec"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-4])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, rec []byte) {
		d := copyStore(t, dir, false)
		if err := os.WriteFile(filepath.Join(d, "program.rec"), rec, 0o666); err != nil {
			t.Fatal(err)
		}
		reopen(t, d, persistProgram)
	})
}
