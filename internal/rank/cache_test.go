package rank

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// countingCache wraps a Cache's walk with an invocation counter.
func countingCache() (*Cache, *atomic.Int64) {
	c := NewCache(DefaultConfig())
	var n atomic.Int64
	c.SetWalk(func(g *Graph, cfg Config) Scores {
		n.Add(1)
		return RandomWalk(g, cfg)
	})
	return c, &n
}

func TestCacheComputesOncePerConcept(t *testing.T) {
	k := chainKB()
	c, n := countingCache()
	first := c.Scores(k, "animal")
	second := c.Scores(k, "animal")
	if n.Load() != 1 {
		t.Fatalf("walk ran %d times for repeated lookups, want 1", n.Load())
	}
	if len(first) == 0 || len(second) != len(first) {
		t.Fatalf("cached scores differ: %v vs %v", first, second)
	}
}

func TestCacheSingleFlightUnderConcurrency(t *testing.T) {
	k := chainKB()
	c, n := countingCache()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Scores(k, "animal")
		}()
	}
	wg.Wait()
	if n.Load() != 1 {
		t.Fatalf("concurrent lookups ran %d walks, want 1 (single-flight)", n.Load())
	}
}

func TestCacheInvalidateDropsOnlyTouchedConcepts(t *testing.T) {
	k := chainKB()
	k.AddExtraction(10, "food", nil, []string{"pork", "milk"}, nil, 1)
	c, n := countingCache()
	c.Scores(k, "animal")
	c.Scores(k, "food")

	rb := k.RollbackExtractions([]int{1}) // pork under animal (cascades to milk)
	if got := rb.TouchedConcepts(); len(got) != 1 || got[0] != "animal" {
		t.Fatalf("TouchedConcepts = %v, want [animal]", got)
	}
	c.Invalidate(k, rb.TouchedConcepts()...)

	c.Scores(k, "food") // untouched: must stay warm
	if n.Load() != 2 {
		t.Fatalf("food re-walked after unrelated invalidation (walks=%d)", n.Load())
	}
	after := c.Scores(k, "animal") // touched: must recompute
	if n.Load() != 3 {
		t.Fatalf("animal not re-walked after invalidation (walks=%d)", n.Load())
	}
	if _, ok := after["pork"]; ok {
		t.Fatal("recomputed scores still contain rolled-back instance")
	}
}

func TestCacheResetsOnUntrackedMutation(t *testing.T) {
	k := chainKB()
	c, n := countingCache()
	c.Scores(k, "animal")
	// Mutate without telling the cache: next lookup must detect the
	// version bump and recompute rather than serve stale scores.
	k.RollbackExtractions([]int{2}) // milk under animal
	s := c.Scores(k, "animal")
	if n.Load() != 2 {
		t.Fatalf("stale scores served after untracked mutation (walks=%d)", n.Load())
	}
	if _, ok := s["milk"]; ok {
		t.Fatal("scores contain instance rolled back before the lookup")
	}
}

func TestCacheResetsOnDifferentKB(t *testing.T) {
	c, n := countingCache()
	c.Scores(chainKB(), "animal")
	c.Scores(chainKB(), "animal")
	if n.Load() != 2 {
		t.Fatalf("cache served scores across distinct KBs (walks=%d)", n.Load())
	}
}

func TestCacheLeaderPanicReelects(t *testing.T) {
	k := chainKB()
	c := NewCache(DefaultConfig())
	var calls atomic.Int64
	c.SetWalk(func(g *Graph, cfg Config) Scores {
		if calls.Add(1) == 1 {
			panic("injected")
		}
		return RandomWalk(g, cfg)
	})
	func() {
		defer func() { recover() }()
		c.Scores(k, "animal")
	}()
	if s := c.Scores(k, "animal"); len(s) == 0 {
		t.Fatal("no scores after leader panic; entry should have been cleared")
	}
	if calls.Load() != 2 {
		t.Fatalf("walk calls = %d, want 2 (panicked leader + retry)", calls.Load())
	}
}

// TestDigestCacheReusesAcrossKBs: a digest cache serves a concept's
// walk to a distinct KB holding the same records, walks again once the
// concept's records change, and forgets a walk no lookup used for two
// generations.
func TestDigestCacheReusesAcrossKBs(t *testing.T) {
	c := NewDigestCache(DefaultConfig())
	var n atomic.Int64
	c.SetWalk(func(g *Graph, cfg Config) Scores {
		n.Add(1)
		return RandomWalk(g, cfg)
	})
	first := c.Scores(chainKB(), "animal")
	k := chainKB()
	if again := c.Scores(k, "animal"); n.Load() != 1 || !reflect.DeepEqual(again, first) {
		t.Fatalf("equal records on a distinct KB: walks=%d, scores %v vs %v", n.Load(), again, first)
	}
	k.RollbackExtractions([]int{2}) // milk under animal
	if s := c.Scores(k, "animal"); n.Load() != 2 {
		t.Fatalf("changed records served from the digest memo (walks=%d)", n.Load())
	} else if _, ok := s["milk"]; ok {
		t.Fatal("scores contain an instance rolled back before the lookup")
	}
	if hits, misses := c.DigestStats(); hits != 1 || misses != 2 {
		t.Fatalf("DigestStats = (%d, %d), want (1, 2)", hits, misses)
	}
	c.Rotate()
	c.Rotate()
	c.Scores(chainKB(), "animal")
	if n.Load() != 3 {
		t.Fatalf("walk unused for two generations was still served (walks=%d)", n.Load())
	}
}
