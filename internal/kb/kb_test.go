package kb

import (
	"reflect"
	"testing"
)

func TestAddExtractionBasics(t *testing.T) {
	k := New()
	id := k.AddExtraction(1, "animal", []string{"animal"}, []string{"dog", "cat"}, nil, 1)
	if id != 0 {
		t.Fatalf("first extraction ID = %d, want 0", id)
	}
	if !k.Has("animal", "dog") || !k.Has("animal", "cat") {
		t.Fatal("pairs not recorded")
	}
	if k.Count("animal", "dog") != 1 {
		t.Errorf("count = %d, want 1", k.Count("animal", "dog"))
	}
	if k.Has("animal", "pig") {
		t.Error("unknown pair reported present")
	}
	if k.NumPairs() != 2 {
		t.Errorf("NumPairs = %d, want 2", k.NumPairs())
	}
}

func TestCountsAccumulateAcrossSentences(t *testing.T) {
	k := New()
	k.AddExtraction(1, "animal", nil, []string{"dog"}, nil, 1)
	k.AddExtraction(2, "animal", nil, []string{"dog", "cat"}, nil, 1)
	if k.Count("animal", "dog") != 2 {
		t.Errorf("count = %d, want 2", k.Count("animal", "dog"))
	}
}

func TestInstancesAtIteration(t *testing.T) {
	k := New()
	k.AddExtraction(1, "animal", nil, []string{"dog"}, nil, 1)
	k.AddExtraction(2, "animal", nil, []string{"lion"}, []string{"dog"}, 2)
	got := k.InstancesAtIteration("animal", 1)
	if !reflect.DeepEqual(got, []string{"dog"}) {
		t.Errorf("E(animal,1) = %v, want [dog]", got)
	}
	got = k.InstancesAtIteration("animal", 2)
	if !reflect.DeepEqual(got, []string{"dog", "lion"}) {
		t.Errorf("E(animal,2) = %v", got)
	}
}

func TestSubInstances(t *testing.T) {
	k := New()
	k.AddExtraction(1, "animal", nil, []string{"chicken"}, nil, 1)
	// chicken triggers pork, beef (the paper's S3).
	k.AddExtraction(2, "animal", []string{"food", "animal"}, []string{"pork", "beef", "chicken"}, []string{"chicken"}, 2)
	// chicken also triggers duck.
	k.AddExtraction(3, "animal", nil, []string{"duck", "chicken"}, []string{"chicken"}, 3)
	got := k.SubInstances("animal", "chicken")
	want := []string{"beef", "duck", "pork"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sub(chicken) = %v, want %v", got, want)
	}
	if subs := k.SubInstances("animal", "pork"); len(subs) != 0 {
		t.Errorf("sub(pork) = %v, want empty", subs)
	}
}

func TestSubInstancesExcludeCoTriggers(t *testing.T) {
	k := New()
	k.AddExtraction(1, "animal", nil, []string{"dog", "cat"}, nil, 1)
	k.AddExtraction(2, "animal", nil, []string{"dog", "cat", "lion"}, []string{"dog", "cat"}, 2)
	got := k.SubInstances("animal", "dog")
	if !reflect.DeepEqual(got, []string{"lion"}) {
		t.Errorf("sub(dog) = %v, want [lion] (cat is a co-trigger, not a sub)", got)
	}
}

func TestRemovePairsSimple(t *testing.T) {
	k := New()
	k.AddExtraction(1, "country", nil, []string{"france", "new_york"}, nil, 1)
	res := k.RemovePairs([]Pair{{"country", "new_york"}})
	if k.Has("country", "new_york") {
		t.Error("removed pair still present")
	}
	if !k.Has("country", "france") {
		t.Error("unrelated pair was removed")
	}
	if len(res.PairsRemoved) != 1 {
		t.Errorf("PairsRemoved = %v", res.PairsRemoved)
	}
}

func TestRemovePairsCascade(t *testing.T) {
	k := New()
	// chicken is core; chicken triggers pork and beef; pork triggers milk.
	k.AddExtraction(1, "animal", nil, []string{"chicken"}, nil, 1)
	k.AddExtraction(2, "animal", nil, []string{"pork", "beef"}, []string{"chicken"}, 2)
	k.AddExtraction(3, "animal", nil, []string{"milk"}, []string{"pork"}, 3)
	res := k.RemovePairs([]Pair{{"animal", "chicken"}})
	for _, e := range []string{"chicken", "pork", "beef", "milk"} {
		if k.Has("animal", e) {
			t.Errorf("%s survived the cascade", e)
		}
	}
	if res.ExtractionsRolled != 2 {
		t.Errorf("ExtractionsRolled = %d, want 2", res.ExtractionsRolled)
	}
	if res.CascadeDepth < 2 {
		t.Errorf("CascadeDepth = %d, want >= 2", res.CascadeDepth)
	}
}

func TestCascadeStopsAtSurvivingSupport(t *testing.T) {
	k := New()
	// pork is supported by chicken-triggered AND duck-triggered extractions.
	k.AddExtraction(1, "animal", nil, []string{"chicken"}, nil, 1)
	k.AddExtraction(2, "animal", nil, []string{"duck"}, nil, 1)
	k.AddExtraction(3, "animal", nil, []string{"pork"}, []string{"chicken"}, 2)
	k.AddExtraction(4, "animal", nil, []string{"pork"}, []string{"duck"}, 2)
	k.RemovePairs([]Pair{{"animal", "chicken"}})
	if !k.Has("animal", "pork") {
		t.Error("pork should survive: its duck-triggered support is intact")
	}
	if k.Count("animal", "pork") != 1 {
		t.Errorf("pork count = %d, want 1", k.Count("animal", "pork"))
	}
}

func TestExtractionWithLiveTriggerSurvives(t *testing.T) {
	k := New()
	k.AddExtraction(1, "animal", nil, []string{"chicken"}, nil, 1)
	k.AddExtraction(2, "animal", nil, []string{"duck"}, nil, 1)
	// One extraction with two triggers: survives while either is alive.
	k.AddExtraction(3, "animal", nil, []string{"pork"}, []string{"chicken", "duck"}, 2)
	k.RemovePairs([]Pair{{"animal", "chicken"}})
	if !k.Has("animal", "pork") {
		t.Error("pork should survive: duck trigger is alive")
	}
	k.RemovePairs([]Pair{{"animal", "duck"}})
	if k.Has("animal", "pork") {
		t.Error("pork should cascade once both triggers are gone")
	}
}

func TestRollbackExtractionsDirect(t *testing.T) {
	k := New()
	k.AddExtraction(1, "animal", nil, []string{"chicken"}, nil, 1)
	exID := k.AddExtraction(2, "animal", nil, []string{"pork", "beef"}, []string{"chicken"}, 2)
	k.AddExtraction(3, "animal", nil, []string{"milk"}, []string{"pork"}, 3)
	res := k.RollbackExtractions([]int{exID})
	if k.Has("animal", "pork") || k.Has("animal", "beef") || k.Has("animal", "milk") {
		t.Error("rollback did not cascade through pork")
	}
	if !k.Has("animal", "chicken") {
		t.Error("the trigger itself must survive a sentence-level rollback")
	}
	if res.ExtractionsRolled != 2 {
		t.Errorf("ExtractionsRolled = %d, want 2", res.ExtractionsRolled)
	}
}

func TestRollbackIdempotent(t *testing.T) {
	k := New()
	id := k.AddExtraction(1, "animal", nil, []string{"dog"}, nil, 1)
	k.RollbackExtractions([]int{id})
	res := k.RollbackExtractions([]int{id})
	if res.ExtractionsRolled != 0 {
		t.Error("double rollback must be a no-op")
	}
	res2 := k.RemovePairs([]Pair{{"animal", "dog"}})
	if len(res2.PairsRemoved) != 0 {
		t.Error("removing an already-zero pair must be a no-op")
	}
}

func TestRemovedPairExcludedFromListings(t *testing.T) {
	k := New()
	k.AddExtraction(1, "animal", nil, []string{"dog", "cat"}, nil, 1)
	k.RemovePairs([]Pair{{"animal", "cat"}})
	if got := k.Instances("animal"); !reflect.DeepEqual(got, []string{"dog"}) {
		t.Errorf("Instances = %v, want [dog]", got)
	}
	if got := k.InstancesAtIteration("animal", 1); !reflect.DeepEqual(got, []string{"dog"}) {
		t.Errorf("InstancesAtIteration = %v, want [dog]", got)
	}
	pairs := k.Pairs()
	if len(pairs) != 1 || pairs[0] != (Pair{"animal", "dog"}) {
		t.Errorf("Pairs = %v", pairs)
	}
}

func TestConceptsListing(t *testing.T) {
	k := New()
	k.AddExtraction(1, "animal", nil, []string{"dog"}, nil, 1)
	k.AddExtraction(2, "food", nil, []string{"beef"}, nil, 1)
	if got := k.Concepts(); !reflect.DeepEqual(got, []string{"animal", "food"}) {
		t.Errorf("Concepts = %v", got)
	}
	k.RemovePairs([]Pair{{"food", "beef"}})
	if got := k.Concepts(); !reflect.DeepEqual(got, []string{"animal"}) {
		t.Errorf("Concepts after removal = %v", got)
	}
}

func TestStats(t *testing.T) {
	k := New()
	k.AddExtraction(1, "animal", nil, []string{"dog", "cat"}, nil, 1)
	k.AddExtraction(2, "animal", nil, []string{"dog"}, nil, 1)
	s := k.Stats()
	if s.DistinctPairs != 2 || s.TotalCount != 3 || s.Concepts != 1 || s.ActiveExtractions != 2 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestTriggeredExtractions(t *testing.T) {
	k := New()
	k.AddExtraction(1, "animal", nil, []string{"chicken"}, nil, 1)
	ex := k.AddExtraction(2, "animal", nil, []string{"pork"}, []string{"chicken"}, 2)
	got := k.TriggeredExtractions("animal", "chicken")
	if !reflect.DeepEqual(got, []int{ex}) {
		t.Errorf("TriggeredExtractions = %v, want [%d]", got, ex)
	}
}

func TestPairString(t *testing.T) {
	p := Pair{"animal", "dog"}
	if got := p.String(); got != "(dog isA animal)" {
		t.Errorf("String = %q", got)
	}
}

func TestSubInstancesIgnoreInactive(t *testing.T) {
	k := New()
	k.AddExtraction(1, "animal", nil, []string{"chicken"}, nil, 1)
	exID := k.AddExtraction(2, "animal", nil, []string{"pork"}, []string{"chicken"}, 2)
	k.RollbackExtractions([]int{exID})
	if subs := k.SubInstances("animal", "chicken"); len(subs) != 0 {
		t.Errorf("sub(chicken) after rollback = %v, want empty", subs)
	}
}

func TestRemovePairsNoCascade(t *testing.T) {
	k := New()
	k.AddExtraction(1, "animal", nil, []string{"chicken"}, nil, 1)
	k.AddExtraction(2, "animal", nil, []string{"pork"}, []string{"chicken"}, 2)
	res := k.RemovePairsNoCascade([]Pair{{"animal", "chicken"}})
	if k.Has("animal", "chicken") {
		t.Error("target pair must be removed")
	}
	if !k.Has("animal", "pork") {
		t.Error("no-cascade removal must not roll back triggered pairs")
	}
	if res.ExtractionsRolled != 0 {
		t.Errorf("ExtractionsRolled = %d, want 0", res.ExtractionsRolled)
	}
}

// TestTriggerWithoutPairRecord: an extraction may name a trigger its
// concept does not hold. That pair is no pair — not listed, counted,
// exported or digested — but its triggered extractions are kept, and
// once an extraction supports it, it is an ordinary pair first seen at
// that extraction's iteration, on the KB and on every reload.
func TestTriggerWithoutPairRecord(t *testing.T) {
	k := New()
	k.AddExtraction(1, "animal", nil, []string{"dog"}, nil, 1)
	ex := k.AddExtraction(2, "animal", nil, []string{"cat"}, []string{"ghost"}, 2)
	if k.Has("animal", "ghost") || k.Info("animal", "ghost") != nil || k.NumPairs() != 2 {
		t.Fatalf("a trigger-only pair must not be a pair: Has=%v NumPairs=%d", k.Has("animal", "ghost"), k.NumPairs())
	}
	if got := k.TriggeredExtractions("animal", "ghost"); !reflect.DeepEqual(got, []int{ex}) {
		t.Fatalf("TriggeredExtractions(animal, ghost) = %v, want [%d]", got, ex)
	}
	if _, pairs := k.Export(); len(pairs) != 2 {
		t.Fatalf("Export lists %d pairs, want 2", len(pairs))
	}
	if got, want := k.recomputeDigests(), k.Digests(); !reflect.DeepEqual(got, want) {
		t.Fatalf("digests %v, recomputed %v", want, got)
	}

	k.AddExtraction(3, "animal", nil, []string{"ghost"}, nil, 3)
	info := k.Info("animal", "ghost")
	if info == nil || info.Count != 1 || info.FirstIter != 3 || !reflect.DeepEqual(info.Extractions, []int{2}) {
		t.Fatalf("supported ghost = %+v, want count 1, first iteration 3, extraction 2", info)
	}
	if got := k.ConceptsOfInstance("ghost"); !reflect.DeepEqual(got, []string{"animal"}) {
		t.Fatalf("ConceptsOfInstance(ghost) = %v", got)
	}
	if got, want := k.recomputeDigests(), k.Digests(); !reflect.DeepEqual(got, want) {
		t.Fatalf("digests %v, recomputed %v", want, got)
	}
	re := roundTripQuick(k)
	if !reflect.DeepEqual(re.Pairs(), k.Pairs()) || !reflect.DeepEqual(re.TriggeredExtractions("animal", "ghost"), []int{ex}) ||
		!reflect.DeepEqual(re.Digests(), k.Digests()) {
		t.Fatal("a gob round trip changed the pairs, trigger lists or digests")
	}
}
