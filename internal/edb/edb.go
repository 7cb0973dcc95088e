// Package edb implements the extensional database of §1: a store of ground
// atomic facts viewed as a conventional relational database. EDB leaf nodes
// of the rule/goal graph service tuple requests by selection against these
// relations; during graph construction the EDB is never consulted (§2.1),
// which this package's read-only interface makes easy to respect.
//
// Storage is the pluggable seam: the in-memory store (NewMemory) and the
// disk-backed segment store (OpenDisk) both implement it, and Database
// adds loading to either.
package edb

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// Database is a Storage backend plus loading: it parses facts and interns
// their constants. It embeds the store, so it is a Storage itself and any
// API that takes a Storage accepts a *Database directly.
//
// Loading is not safe for concurrent use with other loading; once loaded,
// concurrent reads are safe provided every index the readers will probe
// has been warmed (see WarmFor, which the engine calls before starting node
// processes). A lone writer may overlap readers —
// the backends synchronize internally — but callers wanting a consistent
// read serialize mutation themselves (mpq.System holds its mutation lock).
type Database struct {
	Storage
	// Syms is the store's symbol table (== Symbols()), exported for the
	// many call sites that render or intern constants.
	Syms *symtab.Table
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
	return FromStorage(NewMemory())
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
	return &Database{Storage: st, Syms: st.Symbols()}
}

// FromProgram loads every fact of the program into a new database.
func FromProgram(p *ast.Program) *Database {
	db := New()
	for _, f := range p.Facts {
		db.AddFact(f)
	}
	return db
}

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
	return db.Insert(a.Key(), t)
}

// Add inserts the fact pred(args...) given as raw strings and reports
// whether it was new. It is the convenient bulk-loading entry point for
// generators and examples.
func (db *Database) Add(pred string, args ...string) bool {
	t := make(relation.Tuple, len(args))
	for i, s := range args {
		t[i] = db.Syms.Intern(s)
	}
	return db.Insert(ast.PredKey{Name: pred, Arity: len(args)}, t)
}

// Facts returns the total number of stored facts.
func (db *Database) Facts() int {
	n := 0
	for _, key := range db.Preds() {
		n += db.Cardinality(key)
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
// failure) leaves the database untouched. It returns how many rows were
// new.
func (db *Database) LoadRows(pred string, r io.Reader) (int, error) {
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
			return 0, fmt.Errorf("edb: %s line %d: %d columns, want %d", pred, lineNo, len(cols), arity)
		}
		rows = append(rows, cols)
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("edb: reading %s: %w", pred, err)
	}
	added := 0
	for _, cols := range rows {
		if db.Add(pred, cols...) {
			added++
		}
	}
	return added, nil
}

// LoadFile is LoadRows over the named file.
func (db *Database) LoadFile(pred, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("edb: %w", err)
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
