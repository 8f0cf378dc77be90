package kb

import (
	"maps"
	"sync"
	"sync/atomic"

	"driftclean/internal/memo"
)

// Sym is the ID of a name interned in a Symbols table. IDs are dense,
// assigned in interning order from 0, and never reused, so a Sym means
// the same name for the table's whole life.
type Sym uint32

// symbol is one table entry: the name and its memo.String hash,
// computed once when the name is interned.
type symbol struct {
	name string
	hash uint64
}

// chunkBits sizes the fixed chunks the ID → name array grows by. A
// chunk is never moved or reallocated once created, which is what lets
// readers index it without a lock.
const chunkBits = 10

type chunk [1 << chunkBits]symbol

// Symbols is an append-only table of names ↔ Sym IDs. Concepts and
// instances share one ID space: a Sym names a string, whatever role it
// plays in a pair.
//
// A table supports writers serialized by its own mutex and any number
// of concurrent readers. The ID → name path (Name, Hash) takes no lock:
// entries live in fixed chunks that are written once, before their ID
// is handed out, and the chunk directory is replaced, never edited. So
// a reader of a sealed KB may resolve its IDs while the next checkpoint
// interns new names into the same table. The name → ID path (Lookup)
// reads an immutable map without a lock; names interned since that map
// was last rebuilt sit in a small mutex-guarded overflow map, which is
// folded into a fresh immutable map once it outgrows a quarter of it, so
// interning stays amortized O(1).
type Symbols struct {
	chunks atomic.Pointer[[]*chunk]
	n      atomic.Uint32
	frozen atomic.Pointer[map[string]Sym]

	mu     sync.Mutex
	recent map[string]Sym // guarded by mu
}

// NewSymbols returns an empty table.
func NewSymbols() *Symbols {
	t := &Symbols{recent: make(map[string]Sym)}
	dir := []*chunk{}
	t.chunks.Store(&dir)
	frozen := map[string]Sym{}
	t.frozen.Store(&frozen)
	return t
}

// Len returns the number of names interned so far.
func (t *Symbols) Len() int { return int(t.n.Load()) }

// entry returns the table entry of s, which must have been interned.
func (t *Symbols) entry(s Sym) *symbol {
	return &(*t.chunks.Load())[s>>chunkBits][s&(1<<chunkBits-1)]
}

// Name returns the name s was interned from.
func (t *Symbols) Name(s Sym) string { return t.entry(s).name }

// Hash returns memo.String(t.Name(s)), computed once at interning.
func (t *Symbols) Hash(s Sym) uint64 { return t.entry(s).hash }

// Lookup returns the ID of name, or ok=false when the table has never
// interned it.
func (t *Symbols) Lookup(name string) (Sym, bool) {
	if s, ok := (*t.frozen.Load())[name]; ok {
		return s, true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.recent[name]; ok {
		return s, true
	}
	// The overflow may have been folded in since the first read.
	s, ok := (*t.frozen.Load())[name]
	return s, ok
}

// Intern returns the ID of name, assigning the next free ID when the
// table has not seen it.
func (t *Symbols) Intern(name string) Sym {
	if s, ok := (*t.frozen.Load())[name]; ok {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.recent[name]; ok {
		return s
	}
	frozen := *t.frozen.Load()
	if s, ok := frozen[name]; ok {
		return s
	}
	s := Sym(t.n.Load())
	dir := *t.chunks.Load()
	if int(s>>chunkBits) == len(dir) {
		grown := append(dir[:len(dir):len(dir)], new(chunk))
		t.chunks.Store(&grown)
		dir = grown
	}
	dir[s>>chunkBits][s&(1<<chunkBits-1)] = symbol{name, memo.String(name)}
	t.n.Store(uint32(s) + 1)
	t.recent[name] = s
	if len(t.recent) > 64+len(frozen)/4 {
		m := make(map[string]Sym, len(frozen)+len(t.recent))
		maps.Copy(m, frozen)
		maps.Copy(m, t.recent)
		t.frozen.Store(&m)
		clear(t.recent)
	}
	return s
}
