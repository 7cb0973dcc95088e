// Package symtab provides string interning for Datalog constants.
//
// Every constant that appears in the extensional database or in a rule is
// interned once into a dense 32-bit id. Tuples throughout the system carry
// these ids rather than strings, which makes tuple hashing, comparison, and
// message encoding cheap. A Table is safe for concurrent use; the engine's
// node processes intern and resolve symbols concurrently.
package symtab

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Sym is an interned constant. The zero value is NoSym, which is never a
// valid constant; valid symbols start at 1.
type Sym int32

// NoSym is the zero Sym. It is used as a sentinel ("no value") in partial
// bindings and never names a constant.
const NoSym Sym = 0

// Table interns strings to Syms and resolves Syms back to strings.
// The zero value is not usable; call New.
//
// String takes no lock: the texts live in an append-only array published
// through an atomic pointer, and an atomic count says how much of it is
// written. Intern writes under the mutex, past the count, and advances the
// count afterwards; when the array is full it publishes a longer copy
// first. A reader that loads the count before the array therefore always
// finds every text the count covers.
type Table struct {
	mu   sync.RWMutex
	ids  map[string]Sym           // guarded by mu
	strs atomic.Pointer[[]string] // (*strs)[s-1] is the text of Sym s
	n    atomic.Int32             // how many symbols strs holds
}

// New returns an empty symbol table.
func New() *Table {
	t := &Table{ids: make(map[string]Sym)}
	t.strs.Store(new([]string))
	return t
}

// Intern returns the Sym for text, creating it if necessary. A new symbol
// keeps a copy of text, so interning a substring never keeps the string it
// was cut from alive; finding an existing symbol allocates nothing.
func (t *Table) Intern(text string) Sym {
	t.mu.RLock()
	s, ok := t.ids[text]
	t.mu.RUnlock()
	if ok {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.ids[text]; ok {
		return s
	}
	text = strings.Clone(text)
	strs, n := *t.strs.Load(), int(t.n.Load())
	if n == len(strs) {
		grown := make([]string, max(2*n, 64))
		copy(grown, strs)
		t.strs.Store(&grown)
		strs = grown
	}
	strs[n] = text
	s = Sym(n + 1)
	t.n.Store(int32(s))
	t.ids[text] = s
	return s
}

// Lookup returns the Sym for text if it has been interned.
func (t *Table) Lookup(text string) (Sym, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s, ok := t.ids[text]
	return s, ok
}

// String resolves a Sym to its text without taking a lock. It panics on
// NoSym or an id that was never issued by this table, since that always
// indicates a programming error rather than bad input.
func (t *Table) String(s Sym) string {
	n := t.n.Load()
	if s <= 0 || int32(s) > n {
		panic(fmt.Sprintf("symtab: invalid Sym %d (table has %d symbols)", s, n))
	}
	return (*t.strs.Load())[s-1]
}

// Len reports how many distinct symbols have been interned.
func (t *Table) Len() int {
	return int(t.n.Load())
}

// All returns the interned symbols in interning order. The result is a
// fresh slice owned by the caller.
func (t *Table) All() []Sym {
	out := make([]Sym, t.n.Load())
	for i := range out {
		out[i] = Sym(i + 1)
	}
	return out
}
