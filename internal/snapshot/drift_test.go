package snapshot

import (
	"reflect"
	"strconv"
	"sync"
	"testing"

	"driftclean/internal/kb"
)

// gridKB builds a KB with nc concepts of ni instances each, a trigger
// chain per concept, plus one rolled-back extraction so inactive state
// is exercised.
func gridKB(nc, ni int) *kb.KB {
	k := kb.New()
	sid := 0
	for c := 0; c < nc; c++ {
		concept := "concept" + strconv.Itoa(c)
		k.AddExtraction(sid, concept, []string{concept}, []string{"e0"}, nil, 1)
		sid++
		for i := 1; i < ni; i++ {
			k.AddExtraction(sid, concept, []string{concept},
				[]string{"e" + strconv.Itoa(i)}, []string{"e" + strconv.Itoa(i-1)}, i+1)
			sid++
		}
	}
	id := k.AddExtraction(sid, "concept0", nil, []string{"ghost"}, []string{"e0"}, 2)
	k.RollbackExtractions([]int{id})
	return k
}

// TestDriftIndexConcurrentBuildOnce: many goroutines racing the first
// drift queries of a fresh snapshot build its index exactly once and all
// read the same rows.
func TestDriftIndexConcurrentBuildOnce(t *testing.T) {
	s := Freeze(gridKB(9, 6))
	const readers = 16
	type answer struct{ all, concept []DriftRow }
	answers := make([]answer, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			answers[g] = answer{
				all:     s.FleetDriftRanking(1 << 30),
				concept: s.DriftRanking("concept3", 4),
			}
		}(g)
	}
	close(start)
	wg.Wait()

	if s.drift.builds != 1 {
		t.Fatalf("snapshot built its drift index %d times, want 1", s.drift.builds)
	}
	for g, a := range answers {
		if !reflect.DeepEqual(a.all, answers[0].all) || !reflect.DeepEqual(a.concept, answers[0].concept) {
			t.Fatalf("reader %d saw a different ranking", g)
		}
		if &a.all[0] != &answers[0].all[0] {
			t.Fatalf("reader %d got a private copy of the KB-wide ranking, want the shared index", g)
		}
	}
	if got := len(answers[0].all); got != s.NumPairs() {
		t.Fatalf("KB-wide ranking has %d rows, want one per pair (%d)", got, s.NumPairs())
	}
}
