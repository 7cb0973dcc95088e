// Package edb implements the extensional database of §1: a store of ground
// atomic facts viewed as a conventional relational database. EDB leaf nodes
// of the rule/goal graph service tuple requests by selection against these
// relations; during graph construction the EDB is never consulted (§2.1),
// which this package's read-only interface makes easy to respect.
//
// Storage is the pluggable seam: the in-memory store (New) and the
// disk-backed segment store (OpenDisk) both implement it, and Database is
// the loading/convenience layer shared by every backend.
package edb

import (
	"bufio"
	"fmt"
	"io"
	"iter"
	"os"
	"runtime"
	"strings"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// Database is the loading and convenience layer over a Storage backend: it
// parses facts, interns their constants, and delegates every read to the
// store. It implements Storage itself (by delegation), so any API that
// takes a Storage accepts a *Database directly.
//
// Loading is not safe for concurrent use with other loading; once loaded,
// concurrent reads are safe provided every index the readers will probe
// has been warmed (see WarmFor, which the engine calls before starting node
// processes). A lone writer may overlap readers —
// the backends synchronize internally — but callers wanting a consistent
// read serialize mutation themselves (mpq.System holds its mutation lock).
type Database struct {
	// Syms is the store's symbol table (== Symbols()), exported for the
	// many call sites that render or intern constants.
	Syms  *symtab.Table
	store Storage
}

// Change records one successful mutation: the row inserted and the
// database version it produced (Version() == Seq immediately after).
type Change struct {
	Seq uint64
	Key ast.PredKey
	// Row is the interned tuple, owned by the database: read-only.
	Row relation.Tuple
}

// New returns an empty database. The backend is the in-memory store
// unless the MPQ_STORE environment variable names another ("disk" backs
// every New database with a disk store in a fresh temporary directory —
// the CI knob that runs the whole engine suite against the disk backend).
func New() *Database {
	if os.Getenv("MPQ_STORE") == "disk" {
		return FromStorage(newTempDiskStore())
	}
	return FromStorage(newMemStore())
}

// newTempDiskStore opens a disk store in a fresh temporary directory for
// MPQ_STORE=disk runs. The store removes its directory on Close, and a
// finalizer does the same for leaked stores so long test runs do not exhaust
// file descriptors — but it leaves the segments mapped: a row view does not
// keep its store reachable, so it may still be read after the store is
// collected. Failure panics: a store-backend CI run must never silently
// fall back to memory.
func newTempDiskStore() Storage {
	dir, err := os.MkdirTemp("", "mpq-edb-")
	if err != nil {
		panic(fmt.Sprintf("edb: MPQ_STORE=disk: %v", err))
	}
	ds, err := OpenDisk(dir)
	if err != nil {
		panic(fmt.Sprintf("edb: MPQ_STORE=disk: %v", err))
	}
	ds.removeOnClose = true
	runtime.SetFinalizer(ds, func(s *DiskStore) {
		s.closeFiles()
		os.RemoveAll(s.dir)
	})
	return ds
}

// FromStorage wraps an existing store (e.g. a reopened disk store) in the
// loading layer.
func FromStorage(st Storage) *Database {
	return &Database{Syms: st.Symbols(), store: st}
}

// FromProgram loads every fact of the program into a new database.
func FromProgram(p *ast.Program) *Database {
	db := New()
	for _, f := range p.Facts {
		db.AddFact(f)
	}
	return db
}

// Store returns the underlying Storage backend.
func (db *Database) Store() Storage { return db.store }

// Close releases the backend's resources. Harmless for the in-memory
// store; required for disk stores (it syncs and closes the segment files).
func (db *Database) Close() error { return db.store.Close() }

// AddFact inserts one ground atom and reports whether it was new.
// It panics if the atom is not ground; callers validate programs first.
func (db *Database) AddFact(a ast.Atom) bool {
	t := make(relation.Tuple, len(a.Args))
	for i, arg := range a.Args {
		if arg.IsVar() {
			panic(fmt.Sprintf("edb: fact %s is not ground", a))
		}
		t[i] = db.Syms.Intern(arg.Const)
	}
	return db.store.Insert(a.Key(), t)
}

// Add inserts the fact pred(args...) given as raw strings and reports
// whether it was new. It is the convenient bulk-loading entry point for
// generators and examples.
func (db *Database) Add(pred string, args ...string) bool {
	t := make(relation.Tuple, len(args))
	for i, s := range args {
		t[i] = db.Syms.Intern(s)
	}
	return db.store.Insert(ast.PredKey{Name: pred, Arity: len(args)}, t)
}

// ---- Storage delegation ---------------------------------------------------

// Symbols returns the symbol table (same as the Syms field).
func (db *Database) Symbols() *symtab.Table { return db.Syms }

// Insert adds one pre-interned row; see Storage.Insert.
func (db *Database) Insert(key ast.PredKey, t relation.Tuple) bool {
	return db.store.Insert(key, t)
}

// ScanInto appends key's rows matching the partial binding to dst; see
// Storage.ScanInto.
func (db *Database) ScanInto(dst []relation.Tuple, key ast.PredKey, b relation.Binding) []relation.Tuple {
	return db.store.ScanInto(dst, key, b)
}

// Scan streams key's rows matching the partial binding; see Storage.Scan.
func (db *Database) Scan(key ast.PredKey, b relation.Binding) iter.Seq[relation.Tuple] {
	return db.store.Scan(key, b)
}

// ScanSince streams key's rows with insertion ordinal >= from.
func (db *Database) ScanSince(key ast.PredKey, from int) iter.Seq[relation.Tuple] {
	return db.store.ScanSince(key, from)
}

// ChangesSince returns a copy of the changes with Seq > v, oldest first.
// Passing the value of a previous Version() call yields exactly the
// mutations that happened after it.
func (db *Database) ChangesSince(v uint64) []Change { return db.store.ChangesSince(v) }

// Version returns a counter that increases on every successful mutation.
// Two reads returning the same value bracket a window with no new facts,
// which is what result caches key on to stay fresh.
func (db *Database) Version() uint64 { return db.store.Version() }

// Has reports whether the database contains any facts for key.
func (db *Database) Has(key ast.PredKey) bool { return db.store.Has(key) }

// Preds returns the predicate keys with at least one fact, sorted.
func (db *Database) Preds() []ast.PredKey { return db.store.Preds() }

// Cardinality returns key's exact row count.
func (db *Database) Cardinality(key ast.PredKey) int { return db.store.Cardinality(key) }

// Distinct returns the exact distinct-value count of key's column col. It
// may build an index: planning-time only.
func (db *Database) Distinct(key ast.PredKey, col int) int { return db.store.Distinct(key, col) }

// Stats snapshots the database's statistics; see Storage.Stats.
func (db *Database) Stats() Stats { return db.store.Stats() }

// WarmFor pre-builds every single-column index plus the named composite
// indexes; see Storage.WarmFor.
func (db *Database) WarmFor(needs []IndexNeed) { db.store.WarmFor(needs) }

// ---- loading --------------------------------------------------------------

// Facts returns the total number of stored facts.
func (db *Database) Facts() int {
	n := 0
	for _, key := range db.store.Preds() {
		n += db.store.Cardinality(key)
	}
	return n
}

// Constants returns every symbol interned in the database, i.e. the active
// domain plus any constants interned by rule loading. The §1.1 brute-force
// evaluator instantiates rule variables over this set.
func (db *Database) Constants() []symtab.Sym {
	return db.Syms.All()
}

// LoadRows bulk-loads delimited rows into the predicate's relation: one
// fact per line, columns split on tabs or commas, blank lines and lines
// starting with '#' skipped. Every row must have the same arity. Loading
// is all-or-nothing: the whole input is parsed and validated before the
// first insert, so a parse error (ragged row, oversized line, read
// failure) leaves the database untouched. It returns the facts that were
// new, so callers keeping an ast.Program in sync can append them.
func (db *Database) LoadRows(pred string, r io.Reader) ([]ast.Atom, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var rows [][]string
	arity, lineNo := -1, 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var cols []string
		if strings.ContainsRune(line, '\t') {
			cols = strings.Split(line, "\t")
		} else {
			cols = strings.Split(line, ",")
		}
		for i := range cols {
			cols[i] = strings.TrimSpace(cols[i])
		}
		if arity == -1 {
			arity = len(cols)
		} else if len(cols) != arity {
			return nil, fmt.Errorf("edb: %s line %d: %d columns, want %d", pred, lineNo, len(cols), arity)
		}
		rows = append(rows, cols)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("edb: reading %s: %w", pred, err)
	}
	var added []ast.Atom
	for _, cols := range rows {
		if db.Add(pred, cols...) {
			a := ast.Atom{Pred: pred}
			for _, c := range cols {
				a.Args = append(a.Args, ast.C(c))
			}
			added = append(added, a)
		}
	}
	return added, nil
}

// LoadFile is LoadRows over the named file.
func (db *Database) LoadFile(pred, path string) ([]ast.Atom, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("edb: %w", err)
	}
	defer f.Close()
	return db.LoadRows(pred, f)
}

// IndexNeed names one composite index a query will probe on a base
// relation: the columns a selection binds together.
type IndexNeed struct {
	Key  ast.PredKey
	Cols []int
}
