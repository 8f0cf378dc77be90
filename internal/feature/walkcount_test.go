package feature

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"driftclean/internal/mutex"
	"driftclean/internal/rank"
)

// TestScoresSingleWalkUnderConcurrency is the regression test for the
// duplicated-work race: concurrent feature reads used to each run their
// own random walk when they missed the score cache at the same time.
// An extractor asks its cache once per concept while concurrent first
// readers wait, so N goroutines hammering M concepts must trigger
// exactly M walks.
func TestScoresSingleWalkUnderConcurrency(t *testing.T) {
	k := scenarioKB()
	mx := mutex.Analyze(k, mutex.Config{ExclusiveThreshold: 0.3, SimilarThreshold: 0.9, MinCoreSize: 3})
	concepts := []string{"animal", "food"}

	for trial := 0; trial < 20; trial++ {
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			cache := rank.NewCache(rank.DefaultConfig())
			var walks atomic.Int64
			cache.SetWalk(func(g *rank.Graph, cfg rank.Config) rank.Scores {
				walks.Add(1)
				return rank.RandomWalk(g, cfg)
			})
			x := NewExtractorWithCache(k, mx, cache, instanceLists(k))

			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 16; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					c := concepts[i%len(concepts)]
					for _, e := range k.Instances(c) {
						x.F3(c, e)
						x.F4(c, k.SubInstances(c, e))
					}
				}(i)
			}
			close(start)
			wg.Wait()
			if got := walks.Load(); got != int64(len(concepts)) {
				t.Fatalf("ran %d walks for %d concepts under concurrency, want one walk per concept",
					got, len(concepts))
			}
		})
	}
}

// TestClassFreqSingleBuildUnderConcurrency pins the same single-flight
// guarantee for the class frequency distributions.
func TestClassFreqSingleBuildUnderConcurrency(t *testing.T) {
	k := scenarioKB()
	mx := mutex.Analyze(k, mutex.Config{ExclusiveThreshold: 0.3, SimilarThreshold: 0.9, MinCoreSize: 3})
	x := NewExtractor(k, mx)

	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]float64, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = x.F1("animal", k.SubInstances("animal", "dog"))
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("concurrent F1 reads disagree: %v vs %v", results[i], results[0])
		}
	}
	x.mu.Lock()
	entries := len(x.byConcept)
	x.mu.Unlock()
	if entries != 1 {
		t.Fatalf("byConcept has %d entries after hammering one concept, want 1", entries)
	}
}
