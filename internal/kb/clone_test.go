package kb

import (
	"reflect"
	"strings"
	"testing"
)

// buildCloneFixture assembles a small KB with a two-hop trigger chain:
// core extraction of dog/cat under animal, dog triggers wolf, wolf
// triggers dingo, plus an unrelated concept.
func buildCloneFixture() *KB {
	k := New()
	k.AddExtraction(0, "animal", []string{"animal"}, []string{"dog", "cat"}, nil, 1)
	k.AddExtraction(1, "animal", []string{"animal", "tool"}, []string{"dog", "wolf"}, []string{"dog"}, 2)
	k.AddExtraction(2, "animal", []string{"animal"}, []string{"wolf", "dingo"}, []string{"wolf"}, 3)
	k.AddExtraction(3, "tool", []string{"tool"}, []string{"hammer"}, nil, 1)
	return k
}

func TestCloneEqualState(t *testing.T) {
	orig := buildCloneFixture()
	clone := orig.Clone()

	if !reflect.DeepEqual(orig.Stats(), clone.Stats()) {
		t.Errorf("clone stats %+v != original %+v", clone.Stats(), orig.Stats())
	}
	if !reflect.DeepEqual(orig.Pairs(), clone.Pairs()) {
		t.Errorf("clone pairs differ: %v vs %v", clone.Pairs(), orig.Pairs())
	}
	for _, c := range orig.Concepts() {
		for _, e := range orig.Instances(c) {
			if got, want := clone.Count(c, e), orig.Count(c, e); got != want {
				t.Errorf("clone count(%s,%s) = %d, want %d", c, e, got, want)
			}
			if !reflect.DeepEqual(clone.SubInstances(c, e), orig.SubInstances(c, e)) {
				t.Errorf("clone subs(%s,%s) differ", c, e)
			}
		}
	}
}

func TestCloneIsolatedFromMutation(t *testing.T) {
	orig := buildCloneFixture()
	clone := orig.Clone()
	beforePairs := clone.NumPairs()
	beforeSubs := clone.SubInstances("animal", "dog")

	// Mutate the original: cascade-remove dog, which rolls back wolf and
	// dingo too; then add a brand-new extraction.
	orig.RemovePairs([]Pair{{Concept: "animal", Instance: "dog"}})
	orig.AddExtraction(9, "animal", []string{"animal"}, []string{"ferret"}, nil, 4)

	if clone.NumPairs() != beforePairs {
		t.Errorf("mutating original changed clone pair count: %d -> %d", beforePairs, clone.NumPairs())
	}
	if !clone.Has("animal", "dog") || !clone.Has("animal", "dingo") {
		t.Error("cascade on original leaked into clone")
	}
	if clone.Has("animal", "ferret") {
		t.Error("extraction added to original appeared in clone")
	}
	if !reflect.DeepEqual(clone.SubInstances("animal", "dog"), beforeSubs) {
		t.Error("clone sub-instances changed after original mutation")
	}

	// And the reverse: mutating the clone leaves the original intact.
	clone.RemovePairs([]Pair{{Concept: "tool", Instance: "hammer"}})
	if !orig.Has("tool", "hammer") {
		t.Error("removing from clone leaked into original")
	}
}

func TestCloneExplainMatchesOriginal(t *testing.T) {
	orig := buildCloneFixture()
	clone := orig.Clone()
	wantEx, wantOK := orig.Explain("animal", "dingo", 0)
	gotEx, gotOK := clone.Explain("animal", "dingo", 0)
	if wantOK != gotOK || !reflect.DeepEqual(wantEx, gotEx) {
		t.Errorf("clone explanation differs:\n got %+v (%v)\nwant %+v (%v)", gotEx, gotOK, wantEx, wantOK)
	}
}

// TestCloneSharesHolderListsCopyOnWrite: a clone answers the
// original's instance → concepts lists, a transition on either KB
// changes only its own answers, and a list returned before the mutation
// never changes.
func TestCloneSharesHolderListsCopyOnWrite(t *testing.T) {
	orig := buildCloneFixture()
	orig.AddExtraction(4, "tool", []string{"tool"}, []string{"dog"}, nil, 1)
	clone := orig.Clone()
	held := orig.ConceptsOfInstance("dog")
	want := []string{"animal", "tool"}
	if !reflect.DeepEqual(held, want) {
		t.Fatalf("ConceptsOfInstance(dog) = %q, want %q", held, want)
	}

	clone.RemovePairs([]Pair{{Concept: "animal", Instance: "dog"}})
	if got := clone.ConceptsOfInstance("dog"); !reflect.DeepEqual(got, []string{"tool"}) {
		t.Errorf("clone ConceptsOfInstance(dog) after removal = %q, want [tool]", got)
	}
	orig.AddExtraction(5, "bird", []string{"bird"}, []string{"dog"}, nil, 1)
	if got := orig.ConceptsOfInstance("dog"); !reflect.DeepEqual(got, []string{"animal", "bird", "tool"}) {
		t.Errorf("original ConceptsOfInstance(dog) after adding bird = %q", got)
	}
	if !reflect.DeepEqual(held, want) {
		t.Errorf("a list returned before the mutations changed to %q", held)
	}
	if got := clone.ConceptsOfInstance("hammer"); !reflect.DeepEqual(got, []string{"tool"}) {
		t.Errorf("clone ConceptsOfInstance(hammer) = %q, want [tool]", got)
	}
	clone.RemovePairs([]Pair{{Concept: "tool", Instance: "hammer"}})
	if got := clone.ConceptsOfInstance("hammer"); got != nil {
		t.Errorf("ConceptsOfInstance of an instance no concept holds = %q, want nil", got)
	}
}

// TestSealedKBRejectsMutation: every mutator panics on a sealed KB and
// leaves it unchanged, reads keep working, and a Clone of it is
// unsealed and mutable.
func TestSealedKBRejectsMutation(t *testing.T) {
	k := buildCloneFixture()
	k.Seal()
	stats, digests, pairs := k.Stats(), conceptDigests(k), k.Pairs()
	dog := []Pair{{Concept: "animal", Instance: "dog"}}
	for name, mutate := range map[string]func(){
		"AddExtraction":        func() { k.AddExtraction(9, "animal", nil, []string{"ferret"}, nil, 1) },
		"RemovePairs":          func() { k.RemovePairs(dog) },
		"RemovePairsNoCascade": func() { k.RemovePairsNoCascade(dog) },
		"RollbackExtractions":  func() { k.RollbackExtractions([]int{0}) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, name) || !strings.Contains(msg, "sealed") {
					t.Errorf("%s on a sealed KB: recovered %q, want a panic naming it and the seal", name, msg)
				}
			}()
			mutate()
		}()
	}
	if k.Stats() != stats || !reflect.DeepEqual(conceptDigests(k), digests) || !reflect.DeepEqual(k.Pairs(), pairs) {
		t.Errorf("rejected mutations changed the sealed KB: %+v %v, was %+v %v", k.Stats(), conceptDigests(k), stats, digests)
	}
	if !k.Has("animal", "dog") || len(k.Instances("animal")) != 4 {
		t.Error("reads of a sealed KB changed")
	}

	c := k.Clone()
	if c.sealed {
		t.Fatal("Clone of a sealed KB is sealed")
	}
	c.AddExtraction(9, "animal", nil, []string{"ferret"}, nil, 1)
	c.RemovePairs(dog)
	if !c.Has("animal", "ferret") || c.Has("animal", "dog") || !k.Has("animal", "dog") || k.Has("animal", "ferret") {
		t.Error("mutating the clone of a sealed KB went wrong or leaked into it")
	}
}

// conceptDigests maps every concept of k to its ConceptDigest.
func conceptDigests(k *KB) map[string]uint64 {
	out := map[string]uint64{}
	for _, c := range k.Concepts() {
		out[c] = k.ConceptDigest(c)
	}
	return out
}
