package snapshot

import (
	"reflect"
	"sync"
	"testing"
)

// TestDriftIndexConcurrentBuildOnce: many goroutines racing the first
// drift queries of a fresh snapshot build its index exactly once and all
// read the same rows.
func TestDriftIndexConcurrentBuildOnce(t *testing.T) {
	s := Freeze(gridKB(9, 6))
	parts := s.Partition(3, modOwner(3))
	const readers = 16
	type answer struct{ fleet, concept, shard []DriftRow }
	answers := make([]answer, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			answers[g] = answer{
				fleet:   s.FleetDriftRanking(1 << 30),
				concept: s.DriftRanking("concept3", 4),
				shard:   parts[g%len(parts)].FleetDriftRanking(5),
			}
		}(g)
	}
	close(start)
	wg.Wait()

	if s.drift.builds != 1 {
		t.Fatalf("full view built its drift index %d times, want 1", s.drift.builds)
	}
	for i, p := range parts {
		if p.drift.builds != 1 {
			t.Fatalf("shard %d built its drift index %d times, want 1", i, p.drift.builds)
		}
	}
	for g, a := range answers {
		if !reflect.DeepEqual(a.fleet, answers[0].fleet) || !reflect.DeepEqual(a.concept, answers[0].concept) {
			t.Fatalf("reader %d saw a different ranking", g)
		}
		if &a.fleet[0] != &answers[0].fleet[0] {
			t.Fatalf("reader %d got a private copy of the fleet ranking, want the shared index", g)
		}
		if want := parts[g%len(parts)].FleetDriftRanking(5); !reflect.DeepEqual(a.shard, want) {
			t.Fatalf("reader %d shard ranking %v, want %v", g, a.shard, want)
		}
	}
	if got := len(answers[0].fleet); got != s.NumPairs() {
		t.Fatalf("fleet ranking has %d rows, want one per pair (%d)", got, s.NumPairs())
	}
}
