package kb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"driftclean/internal/memo"
)

// TestSymbolsInternLookup: IDs are dense in interning order, stable
// across re-interning, and every name reads back with its memo.String
// hash — across chunk boundaries and the folds of the overflow map into
// the immutable one.
func TestSymbolsInternLookup(t *testing.T) {
	tab := NewSymbols()
	const n = 5000
	for i := range n {
		if s := tab.Intern(fmt.Sprintf("name%d", i)); s != Sym(i) {
			t.Fatalf("Intern(name%d) = %d, want %d", i, s, i)
		}
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	for i := range n {
		name := fmt.Sprintf("name%d", i)
		if s := tab.Intern(name); s != Sym(i) {
			t.Fatalf("re-Intern(%s) = %d, want %d", name, s, i)
		}
		if s, ok := tab.Lookup(name); !ok || s != Sym(i) {
			t.Fatalf("Lookup(%s) = %d, %v", name, s, ok)
		}
		if tab.Name(Sym(i)) != name || tab.Hash(Sym(i)) != memo.String(name) {
			t.Fatalf("ID %d reads back as %q / %x", i, tab.Name(Sym(i)), tab.Hash(Sym(i)))
		}
	}
	if _, ok := tab.Lookup("never interned"); ok {
		t.Fatal("Lookup found a name never interned")
	}
}

// TestSymbolsConcurrentInternAndRead: one writer interns new names —
// growing the chunk directory and folding the overflow map — while
// readers resolve every ID published so far in both directions. Under
// -race it proves the ID → name path needs no lock.
func TestSymbolsConcurrentInternAndRead(t *testing.T) {
	tab := NewSymbols()
	const n = 6000
	var done atomic.Bool
	var bad atomic.Int64
	var wg sync.WaitGroup
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				for i := r; i < tab.Len(); i += 97 {
					name := fmt.Sprintf("name%d", i)
					if tab.Name(Sym(i)) != name {
						bad.Add(1)
					}
					if s, ok := tab.Lookup(name); !ok || s != Sym(i) {
						bad.Add(1)
					}
				}
			}
		}()
	}
	for i := range n {
		tab.Intern(fmt.Sprintf("name%d", i))
	}
	done.Store(true)
	wg.Wait()
	if bad.Load() > 0 {
		t.Fatalf("readers saw %d wrong resolutions", bad.Load())
	}
}
