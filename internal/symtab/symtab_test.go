package symtab

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestInternReturnsSameSym(t *testing.T) {
	tab := New()
	a := tab.Intern("a")
	b := tab.Intern("b")
	if a == b {
		t.Fatalf("distinct strings got same Sym %d", a)
	}
	if got := tab.Intern("a"); got != a {
		t.Fatalf("re-intern of %q: got %d, want %d", "a", got, a)
	}
}

func TestInternStartsAtOne(t *testing.T) {
	tab := New()
	if s := tab.Intern("first"); s != 1 {
		t.Fatalf("first Sym = %d, want 1", s)
	}
	if NoSym != 0 {
		t.Fatalf("NoSym = %d, want 0", NoSym)
	}
}

func TestStringRoundTrip(t *testing.T) {
	tab := New()
	words := []string{"a", "b", "", "hello world", "42", "δatalog"}
	syms := make([]Sym, len(words))
	for i, w := range words {
		syms[i] = tab.Intern(w)
	}
	for i, w := range words {
		if got := tab.String(syms[i]); got != w {
			t.Errorf("String(%d) = %q, want %q", syms[i], got, w)
		}
	}
	if tab.Len() != len(words) {
		t.Errorf("Len = %d, want %d", tab.Len(), len(words))
	}
}

func TestLookup(t *testing.T) {
	tab := New()
	tab.Intern("x")
	if _, ok := tab.Lookup("x"); !ok {
		t.Error("Lookup of interned string failed")
	}
	if _, ok := tab.Lookup("y"); ok {
		t.Error("Lookup of never-interned string succeeded")
	}
}

func TestStringPanicsOnInvalid(t *testing.T) {
	tab := New()
	tab.Intern("a")
	for _, bad := range []Sym{NoSym, 2, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("String(%d) did not panic", bad)
				}
			}()
			tab.String(bad)
		}()
	}
}

func TestAll(t *testing.T) {
	tab := New()
	tab.Intern("a")
	tab.Intern("b")
	all := tab.All()
	if len(all) != 2 || all[0] != 1 || all[1] != 2 {
		t.Fatalf("All() = %v, want [1 2]", all)
	}
}

func TestConcurrentIntern(t *testing.T) {
	tab := New()
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	results := make([][]Sym, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = make([]Sym, perWorker)
			for i := 0; i < perWorker; i++ {
				results[w][i] = tab.Intern(fmt.Sprintf("sym%d", i))
			}
		}(w)
	}
	wg.Wait()
	if tab.Len() != perWorker {
		t.Fatalf("Len = %d, want %d (duplicate interning under concurrency)", tab.Len(), perWorker)
	}
	for w := 1; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d got Sym %d for sym%d, worker 0 got %d", w, results[w][i], i, results[0][i])
			}
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	tab := New()
	f := func(s string) bool {
		return tab.String(tab.Intern(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestConcurrentInternString resolves symbols while other goroutines intern
// new ones, so the lock-free String reads the array as Intern grows it (run
// under -race): every resolved text must be the one interned.
func TestConcurrentInternString(t *testing.T) {
	tab := New()
	const writers, readers, perWriter = 2, 4, 2000
	var wg sync.WaitGroup
	syms := make(chan Sym, 256)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				syms <- tab.Intern(fmt.Sprintf("w%d_%d", w, i))
			}
		}(w)
	}
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for s := range syms {
				// Every symbol issued so far resolves, also those that other
				// writers interned after s.
				for _, q := range []Sym{s, Sym(tab.Len()), 1} {
					if tab.String(q) == "" {
						t.Errorf("String(%d) is empty", q)
					}
				}
				if id, ok := tab.Lookup(tab.String(s)); !ok || id != s {
					t.Errorf("String(%d) = %q, which interns as %d", s, tab.String(s), id)
				}
			}
		}()
	}
	wg.Wait()
	close(syms)
	rg.Wait()
	if got, want := tab.Len(), writers*perWriter; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}
