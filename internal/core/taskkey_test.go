package core

import (
	"testing"

	"driftclean/internal/kb"
	"driftclean/internal/learn"
)

// exclusiveHolderKB hand-builds a two-concept KB in which "chicken" is
// a weak, late instance of "animal" and a count-5 instance of the
// exclusive concept "food" — in food's core (first seen at iteration 1)
// when chickenCore is set, first seen at iteration 2 otherwise.
// Everything animal's records say is the same either way.
func exclusiveHolderKB(chickenCore bool) *kb.KB {
	k := kb.New()
	sid := 0
	add := func(concept string, candidates, instances, triggers []string, iter int) {
		k.AddExtraction(sid, concept, candidates, instances, triggers, iter)
		sid++
	}
	for _, c := range []struct {
		concept string
		core    []string
	}{
		{"animal", []string{"a1", "a2", "a3", "a4", "a5", "a6"}},
		{"food", []string{"f1", "f2", "f3", "f4", "f5", "f6"}},
	} {
		for _, e := range c.core {
			for range 4 {
				add(c.concept, []string{c.concept}, []string{e}, nil, 1)
			}
		}
	}
	both := []string{"animal", "food"}
	add("animal", both, []string{"a1", "chicken"}, []string{"a1"}, 2)
	add("animal", both, []string{"a1", "a7"}, []string{"a1"}, 2)
	add("animal", both, []string{"a2", "a8"}, []string{"a2"}, 2)
	add("animal", both, []string{"a2", "a9"}, []string{"a2"}, 2)
	for range 5 {
		if chickenCore {
			add("food", []string{"food"}, []string{"chicken"}, nil, 1)
		} else {
			add("food", both, []string{"f1", "chicken"}, []string{"f1"}, 2)
		}
	}
	return k
}

func taskOf(a *Analysis, concept string) *learn.Task {
	for i, c := range a.Concepts {
		if c == concept {
			return a.Tasks[i]
		}
	}
	return nil
}

// TestTaskKeyCoversExclusiveHolderCore: an exclusive holder's in-core
// bit is an input of a concept's task even when the concept's own
// records and the holder's count are equal. Rule 2 labels chicken an
// Accidental DP of animal only while chicken is evidenced correct for
// food, which takes food's core; so one long-lived System that analyzed
// the chicken-in-food's-core KB first must still give animal, on the
// other KB, the task a fresh System builds there — not the one its task
// index holds for equal animal records.
func TestTaskKeyCoversExclusiveHolderCore(t *testing.T) {
	inCore, late := exclusiveHolderKB(true), exclusiveHolderKB(false)
	if inCore.ConceptDigest("animal") != late.ConceptDigest("animal") {
		t.Fatal("premise: animal's records must be equal in the two KBs")
	}
	if inCore.Count("food", "chicken") != late.Count("food", "chicken") {
		t.Fatal("premise: Count(food, chicken) must be equal in the two KBs")
	}
	cfg := DefaultConfig().propagate()
	wantInCore, err := (&System{Cfg: cfg}).Analyze(inCore)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&System{Cfg: cfg}).Analyze(late)
	if err != nil {
		t.Fatal(err)
	}
	a, b := taskOf(wantInCore, "animal"), taskOf(want, "animal")
	if a == nil || b == nil {
		t.Fatal("premise: animal must have a task on both KBs")
	}
	if taskDiff([]*learn.Task{a}, []*learn.Task{b}) == "" {
		t.Fatal("premise: food's core bit for chicken must change animal's task")
	}

	sys := &System{Cfg: cfg}
	if _, err := sys.Analyze(inCore); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Analyze(late)
	if err != nil {
		t.Fatal(err)
	}
	if diff := taskDiff(got.Tasks, want.Tasks); diff != "" {
		t.Fatalf("long-lived system's tasks differ from a fresh analysis: %s", diff)
	}
}
