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
)

// Sym is an interned constant. The zero value is NoSym, which is never a
// valid constant; valid symbols start at 1.
type Sym int32

// NoSym is the zero Sym. It is used as a sentinel ("no value") in partial
// bindings and never names a constant.
const NoSym Sym = 0

// Table interns strings to Syms and resolves Syms back to strings.
// The zero value is not usable; call New.
type Table struct {
	mu   sync.RWMutex
	ids  map[string]Sym
	strs []string // strs[s-1] is the text of Sym s
}

// New returns an empty symbol table.
func New() *Table {
	return &Table{ids: make(map[string]Sym)}
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
	t.strs = append(t.strs, text)
	s = Sym(len(t.strs))
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

// String resolves a Sym to its text. It panics on NoSym or an id that was
// never issued by this table, since that always indicates a programming
// error rather than bad input.
func (t *Table) String(s Sym) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if s <= 0 || int(s) > len(t.strs) {
		panic(fmt.Sprintf("symtab: invalid Sym %d (table has %d symbols)", s, len(t.strs)))
	}
	return t.strs[s-1]
}

// Len reports how many distinct symbols have been interned.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.strs)
}

// All returns the interned symbols in interning order. The result is a
// fresh slice owned by the caller.
func (t *Table) All() []Sym {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Sym, len(t.strs))
	for i := range t.strs {
		out[i] = Sym(i + 1)
	}
	return out
}
