package kb

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// checkSubIndex is the SubIndex differential: for every concept the KB
// has ever held and every active instance e, SubIndex(c)[e] equals
// SubInstances(c, e), an absent key standing for the empty list, and the
// index has no key beyond those instances.
func checkSubIndex(k *KB) error {
	concepts := make([]string, 0)
	for s, st := range k.state {
		if st.cHead != 0 {
			concepts = append(concepts, k.Name(Sym(s)))
		}
	}
	sort.Strings(concepts)
	for _, c := range concepts {
		idx := k.SubIndex(c)
		keys := 0
		for _, e := range k.Instances(c) {
			want := k.SubInstances(c, e)
			got, ok := idx[e]
			switch {
			case len(want) == 0 && ok:
				return fmt.Errorf("SubIndex(%s) has key %s with %v, SubInstances is empty", c, e, got)
			case len(want) > 0 && !reflect.DeepEqual(got, want):
				return fmt.Errorf("SubIndex(%s)[%s] = %v, SubInstances = %v", c, e, got, want)
			}
			if ok {
				keys++
			}
		}
		if keys != len(idx) {
			return fmt.Errorf("SubIndex(%s) has %d keys, only %d active triggering instances", c, len(idx), keys)
		}
	}
	return nil
}

// TestSubIndexMatchesSubInstances runs the differential after every kind
// of mutation that changes sub(e): a cascading removal, a direct
// extraction rollback, a no-cascade removal that leaves an active
// extraction with a dead trigger, and the re-support of pairs whose
// count had reached 0.
func TestSubIndexMatchesSubInstances(t *testing.T) {
	k := New()
	k.AddExtraction(1, "animal", nil, []string{"chicken", "dog", "cat"}, nil, 1)
	k.AddExtraction(2, "food", nil, []string{"pork", "beef", "chicken"}, nil, 1)
	k.AddExtraction(3, "animal", nil, []string{"pork", "beef", "chicken"}, []string{"chicken"}, 2)
	k.AddExtraction(4, "animal", nil, []string{"ham", "bacon"}, []string{"pork"}, 3)
	k.AddExtraction(5, "animal", nil, []string{"cat", "wolf", "dog"}, []string{"dog"}, 2)
	coTriggered := k.AddExtraction(6, "animal", nil, []string{"lion", "tiger", "cat", "dog"}, []string{"cat", "dog"}, 2)
	k.AddExtraction(7, "food", nil, []string{"milk", "pork"}, []string{"pork"}, 2)

	steps := []struct {
		name   string
		mutate func()
		check  func() error
	}{
		{"initial", func() {}, func() error {
			if got := k.SubIndex("animal")["dog"]; !reflect.DeepEqual(got, []string{"cat", "lion", "tiger", "wolf"}) {
				return fmt.Errorf("sub(dog) = %v", got)
			}
			return nil
		}},
		{"RemovePairs cascade", func() { k.RemovePairs([]Pair{{"animal", "chicken"}}) }, func() error {
			if k.Has("animal", "ham") {
				return fmt.Errorf("cascade did not reach ham")
			}
			return nil
		}},
		{"RollbackExtractions", func() { k.RollbackExtractions([]int{coTriggered}) }, nil},
		{"RemovePairsNoCascade dead trigger", func() { k.RemovePairsNoCascade([]Pair{{"animal", "dog"}}) }, func() error {
			if k.Has("animal", "dog") || !k.Has("animal", "wolf") {
				return fmt.Errorf("no-cascade removal: dog %v, wolf %v", k.Has("animal", "dog"), k.Has("animal", "wolf"))
			}
			if _, ok := k.SubIndex("animal")["dog"]; ok {
				return fmt.Errorf("removed dog is still indexed")
			}
			return nil
		}},
		{"re-support zeroed pairs", func() {
			k.AddExtraction(8, "animal", nil, []string{"dog"}, nil, 4)
			k.AddExtraction(9, "animal", nil, []string{"sausage", "pork"}, []string{"pork"}, 4)
		}, func() error {
			idx := k.SubIndex("animal")
			if got := idx["dog"]; !reflect.DeepEqual(got, []string{"cat", "wolf"}) {
				return fmt.Errorf("re-supported sub(dog) = %v, want its surviving extraction's [cat wolf]", got)
			}
			if got := idx["pork"]; !reflect.DeepEqual(got, []string{"sausage"}) {
				return fmt.Errorf("re-supported sub(pork) = %v, want [sausage]", got)
			}
			return nil
		}},
	}
	for _, st := range steps {
		st.mutate()
		if err := checkSubIndex(k); err != nil {
			t.Fatalf("after %s: %v", st.name, err)
		}
		if st.check != nil {
			if err := st.check(); err != nil {
				t.Fatalf("after %s: %v", st.name, err)
			}
		}
	}
}
