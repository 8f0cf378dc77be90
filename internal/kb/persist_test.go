package kb

import (
	"reflect"
	"strings"
	"testing"
)

func populated() *KB {
	k := New()
	k.AddExtraction(0, "animal", nil, []string{"chicken", "dog"}, nil, 1)
	k.AddExtraction(1, "food", nil, []string{"beef", "pork"}, nil, 1)
	k.AddExtraction(2, "animal", []string{"food", "animal"}, []string{"pork", "beef", "chicken"}, []string{"chicken"}, 2)
	k.AddExtraction(3, "animal", nil, []string{"milk"}, []string{"pork"}, 3)
	// One rolled-back extraction so inactive state is exercised.
	id := k.AddExtraction(4, "animal", nil, []string{"cheese"}, []string{"beef"}, 3)
	k.RollbackExtractions([]int{id})
	return k
}

// roundTrip rebuilds k from its exported state, the path every
// snapshot load takes (binsnap's View.ToKB ends in Build).
func roundTrip(t *testing.T, k *KB) *KB {
	t.Helper()
	got, err := Build(k.Export())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestPersistRoundTripState(t *testing.T) {
	orig := populated()
	got := roundTrip(t, orig)
	if !reflect.DeepEqual(got.Stats(), orig.Stats()) {
		t.Fatalf("stats differ: %+v vs %+v", got.Stats(), orig.Stats())
	}
	if !reflect.DeepEqual(got.Pairs(), orig.Pairs()) {
		t.Fatalf("pairs differ")
	}
	for _, c := range orig.Concepts() {
		if !reflect.DeepEqual(got.Instances(c), orig.Instances(c)) {
			t.Fatalf("instances of %q differ", c)
		}
		for _, e := range orig.Instances(c) {
			if got.Count(c, e) != orig.Count(c, e) {
				t.Fatalf("count(%s,%s) differs", c, e)
			}
			if !reflect.DeepEqual(got.SubInstances(c, e), orig.SubInstances(c, e)) {
				t.Fatalf("sub(%s,%s) differs", c, e)
			}
		}
	}
}

func TestPersistPreservesIterations(t *testing.T) {
	got := roundTrip(t, populated())
	if !reflect.DeepEqual(got.InstancesAtIteration("animal", 1), []string{"chicken", "dog"}) {
		t.Errorf("E(animal,1) = %v", got.InstancesAtIteration("animal", 1))
	}
}

func TestPersistPreservesInactive(t *testing.T) {
	got := roundTrip(t, populated())
	if got.Extraction(4).Active {
		t.Error("rolled-back extraction resurfaced active")
	}
	if got.Has("animal", "cheese") {
		t.Error("rolled-back pair resurfaced")
	}
}

func TestPersistRollbackBehaviorEquivalent(t *testing.T) {
	orig := populated()
	got := roundTrip(t, orig)
	r1 := orig.RemovePairs([]Pair{{"animal", "chicken"}})
	r2 := got.RemovePairs([]Pair{{"animal", "chicken"}})
	if !reflect.DeepEqual(r1.PairsRemoved, r2.PairsRemoved) {
		t.Fatalf("cascade differs after reload: %v vs %v", r1.PairsRemoved, r2.PairsRemoved)
	}
	if !reflect.DeepEqual(orig.Pairs(), got.Pairs()) {
		t.Fatal("post-cascade state differs")
	}
}

func TestPersistEmptyKB(t *testing.T) {
	got := roundTrip(t, New())
	if got.NumPairs() != 0 || got.NumExtractions() != 0 {
		t.Error("empty KB round trip not empty")
	}
}

// TestReadRejectsCorruptSnapshots: exported states with out-of-range
// extraction indices, duplicate pairs or negative counts must be
// rejected by Build with a descriptive error — never loaded
// "successfully" to panic later at query time.
func TestReadRejectsCorruptSnapshots(t *testing.T) {
	ex := func(id int, concept string, instances []string) Extraction {
		return Extraction{ID: id, Concept: concept, Instances: instances, Iteration: 1, Active: true}
	}
	cases := []struct {
		name    string
		exts    []Extraction
		pairs   []PairState
		wantErr string
	}{
		{
			name: "extraction index beyond extraction count",
			exts: []Extraction{ex(0, "animal", []string{"dog"})},
			pairs: []PairState{
				{Concept: "animal", Instance: "dog", Count: 1, FirstIter: 1, Extractions: []int{0, 7}},
			},
			wantErr: "references extraction 7",
		},
		{
			name: "negative extraction index",
			exts: []Extraction{ex(0, "animal", []string{"dog"})},
			pairs: []PairState{
				{Concept: "animal", Instance: "dog", Count: 1, FirstIter: 1, Extractions: []int{-1}},
			},
			wantErr: "references extraction -1",
		},
		{
			name: "pair with no extractions referencing one",
			pairs: []PairState{
				{Concept: "animal", Instance: "dog", Count: 1, FirstIter: 1, Extractions: []int{0}},
			},
			wantErr: "holds 0 extractions",
		},
		{
			name: "duplicate pair",
			exts: []Extraction{ex(0, "animal", []string{"dog"})},
			pairs: []PairState{
				{Concept: "animal", Instance: "dog", Count: 1, FirstIter: 1, Extractions: []int{0}},
				{Concept: "animal", Instance: "dog", Count: 2, FirstIter: 1, Extractions: []int{0}},
			},
			wantErr: "twice",
		},
		{
			name: "negative count",
			exts: []Extraction{ex(0, "animal", []string{"dog"})},
			pairs: []PairState{
				{Concept: "animal", Instance: "dog", Count: -3, FirstIter: 1, Extractions: []int{0}},
			},
			wantErr: "negative count",
		},
		{
			name:    "extraction ID mismatch",
			exts:    []Extraction{ex(4, "animal", []string{"dog"})},
			wantErr: "has ID 4",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Build(tc.exts, tc.pairs)
			if err == nil {
				t.Fatal("corrupt state loaded without error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestReadAcceptsValidEdgeCases: the validation must not over-reject —
// inactive extractions and zero-count (rolled back) pairs are legal
// states that Export produces.
func TestReadAcceptsValidEdgeCases(t *testing.T) {
	k := populated()
	k.RemovePairs([]Pair{{"animal", "milk"}})
	if got := roundTrip(t, k); got.NumPairs() != k.NumPairs() {
		t.Fatalf("pairs = %d, want %d", got.NumPairs(), k.NumPairs())
	}
}
