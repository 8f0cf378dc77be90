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

// TestCacheConcurrentScoresAgree: concurrent lookups of one concept,
// which may each run the walk, all return the scores a direct walk
// returns (run it under -race).
func TestCacheConcurrentScoresAgree(t *testing.T) {
	k := chainKB()
	c := NewCache(DefaultConfig())
	want := RandomWalk(BuildGraph(k, "animal"), DefaultConfig())
	got := make([]Scores, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.Scores(k, "animal")
		}()
	}
	wg.Wait()
	for i, s := range got {
		if !reflect.DeepEqual(s, want) {
			t.Fatalf("lookup %d returned %v, want %v", i, s, want)
		}
	}
}

// TestCacheRewalksOnlyRolledBackConcept: a rollback changes the digest
// of the concept it touched and of no other, so only that concept is
// walked again, and its new scores are a direct walk of the rolled-back
// KB.
func TestCacheRewalksOnlyRolledBackConcept(t *testing.T) {
	k := chainKB()
	k.AddExtraction(10, "food", nil, []string{"pork", "milk"}, nil, 1)
	c, n := countingCache()
	c.Scores(k, "animal")
	c.Scores(k, "food")

	k.RollbackExtractions([]int{1}) // pork under animal (cascades to milk)

	c.Scores(k, "food") // untouched: must stay warm
	if n.Load() != 2 {
		t.Fatalf("food re-walked after a rollback under animal (walks=%d)", n.Load())
	}
	after := c.Scores(k, "animal") // rolled back: must recompute
	if n.Load() != 3 {
		t.Fatalf("animal not re-walked after its rollback (walks=%d)", n.Load())
	}
	if want := RandomWalk(BuildGraph(k, "animal"), DefaultConfig()); !reflect.DeepEqual(after, want) {
		t.Fatalf("scores after rollback = %v, want a direct walk's %v", after, want)
	}
	if _, ok := after["pork"]; ok {
		t.Fatal("recomputed scores still contain rolled-back instance")
	}
}

// TestCachePanickingWalkStoresNothing: a walk that panics leaves no
// entry behind, so the next lookup walks again and gets real scores.
func TestCachePanickingWalkStoresNothing(t *testing.T) {
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
		t.Fatal("no scores after a panicking walk")
	}
	if calls.Load() != 2 {
		t.Fatalf("walk calls = %d, want 2 (panicked walk + retry)", calls.Load())
	}
}

// TestDigestCacheReusesAcrossKBs: a cache serves a concept's
// walk to a distinct KB holding the same records, walks again once the
// concept's records change, and forgets a walk no lookup used for two
// generations.
func TestDigestCacheReusesAcrossKBs(t *testing.T) {
	c := NewCache(DefaultConfig())
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
