package memo

import (
	"sync"
	"testing"
)

func mustGet(t *testing.T, m *Memo[string, int], key string, want int) {
	t.Helper()
	got, ok := m.Get(key)
	if !ok || got != want {
		t.Fatalf("Get(%q) = (%d, %v), want (%d, true)", key, got, ok, want)
	}
}

func mustMiss(t *testing.T, m *Memo[string, int], key string) {
	t.Helper()
	if got, ok := m.Get(key); ok {
		t.Fatalf("Get(%q) = %d, want a miss", key, got)
	}
}

func TestZeroValueMissesThenHits(t *testing.T) {
	var m Memo[string, int]
	mustMiss(t, &m, "a")
	m.Put("a", 1)
	mustGet(t, &m, "a", 1)
	m.Put("a", 2)
	mustGet(t, &m, "a", 2)
	if hits, misses := m.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("Stats = (%d, %d), want (2, 1)", hits, misses)
	}
}

// TestPrevHitIsPromoted: a hit in the previous generation is copied into
// the current one, so it outlives the Rotate that drops its old
// generation.
func TestPrevHitIsPromoted(t *testing.T) {
	var m Memo[string, int]
	m.Put("a", 1)
	m.Rotate()
	mustGet(t, &m, "a", 1) // found in prev, promoted
	m.Rotate()
	mustGet(t, &m, "a", 1) // survived: prev is the promoted copy
	if hits, misses := m.Stats(); hits != 2 || misses != 0 {
		t.Fatalf("Stats = (%d, %d), want (2, 0)", hits, misses)
	}
}

// TestUnusedEntryEvictedAfterTwoGenerations: an entry no Get touches
// survives one Rotate and is dropped by the second, while a neighbour
// used in between stays.
func TestUnusedEntryEvictedAfterTwoGenerations(t *testing.T) {
	var m Memo[string, int]
	m.Put("idle", 1)
	m.Put("used", 2)
	m.Rotate()
	mustGet(t, &m, "used", 2)
	m.Rotate()
	mustMiss(t, &m, "idle")
	mustGet(t, &m, "used", 2)
}

// TestPutOverridesPrev: a value stored in the current generation shadows
// the previous generation's value for the same key.
func TestPutOverridesPrev(t *testing.T) {
	var m Memo[string, int]
	m.Put("a", 1)
	m.Rotate()
	m.Put("a", 2)
	mustGet(t, &m, "a", 2)
	m.Rotate()
	m.Rotate()
	mustMiss(t, &m, "a")
}

// TestConcurrentGetPut hammers one memo from several goroutines with
// overlapping keys and rotations; run under -race it checks the locking,
// and every hit must return the value stored under its key.
func TestConcurrentGetPut(t *testing.T) {
	const workers, ops, keys = 8, 2000, 16
	var m Memo[int, int]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (i*7 + w) % keys
				if v, ok := m.Get(k); ok && v != k*k {
					t.Errorf("Get(%d) = %d, want %d", k, v, k*k)
					return
				}
				m.Put(k, k*k)
				if w == 0 && i%100 == 0 {
					m.Rotate()
				}
			}
		}(w)
	}
	wg.Wait()
	if hits, misses := m.Stats(); hits+misses != workers*ops {
		t.Fatalf("hits %d + misses %d != %d Gets", hits, misses, workers*ops)
	}
}
