// Package memo is the content-addressed result memo behind the
// pipeline's exact-reuse caches: learning tasks, random walks and
// manifold matrices. A key names a computation's complete input (a
// concept plus a signature of everything its result depends on, or a
// pointer that certifies it), so a hit is the result a recomputation
// would produce, whichever earlier state stored it.
//
// The memo keeps two generations. An entry lives while it is used:
// every hit copies it into the current generation, and Rotate drops
// whatever the previous generation still holds. Rotating once per unit
// of work — one committed ingest checkpoint — bounds the memo to the
// entries the last two units stored or used, whatever their number of
// internal rounds.
package memo

import "sync"

// Memo is a mutex-guarded two-generation map from K to V, safe for
// concurrent use. The zero value is an empty memo ready to use; a Memo
// must not be copied after first use.
type Memo[K comparable, V any] struct {
	mu           sync.Mutex
	cur, prev    map[K]V
	hits, misses int
}

// Get returns the value stored under key in the current or the previous
// generation, and counts a hit or a miss. A hit found in the previous
// generation is copied into the current one, so it survives the next
// Rotate.
func (m *Memo[K, V]) Get(key K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.cur[key]; ok {
		m.hits++
		return v, true
	}
	if v, ok := m.prev[key]; ok {
		m.hits++
		m.putLocked(key, v)
		return v, true
	}
	m.misses++
	var zero V
	return zero, false
}

// Put stores value under key in the current generation.
func (m *Memo[K, V]) Put(key K, value V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putLocked(key, value)
}

func (m *Memo[K, V]) putLocked(key K, value V) {
	if m.cur == nil {
		m.cur = make(map[K]V)
	}
	m.cur[key] = value
}

// Rotate ends a generation: entries of the previous generation that no
// Get promoted since the last Rotate are dropped, and the current
// generation becomes the previous one.
func (m *Memo[K, V]) Rotate() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prev, m.cur = m.cur, nil
}

// Stats reports how many Gets hit and missed since the memo was created.
func (m *Memo[K, V]) Stats() (hits, misses int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}
