package core

import (
	"math"
	"testing"

	"driftclean/internal/eval"
	"driftclean/internal/kb"
)

// TestReportMemosKeyOnEveryDigest: System.KBPrecision and
// System.Cleaning equal the direct oracle computation when the same
// concept comes back with a different before list and digest, and when
// the KB after cleaning changes under an unchanged before list, so
// neither memo may drop a digest from its key.
func TestReportMemosKeyOnEveryDigest(t *testing.T) {
	base := testSystem(t)
	s := &System{Oracle: base.Oracle, KB: base.KB}
	var concept string
	for _, c := range base.KB.Concepts() {
		if len(base.KB.Instances(c)) >= 3 {
			concept = c
			break
		}
	}
	if concept == "" {
		t.Fatal("premise: no concept with three instances")
	}
	before := base.KB.Instances(concept)
	digest := base.KB.ConceptDigest(concept)
	whole := &CleanResult{
		BeforeInstances: map[string][]string{concept: before},
		BeforeDigests:   map[string]uint64{concept: digest},
	}
	part := &CleanResult{
		BeforeInstances: map[string][]string{concept: before[1:]},
		BeforeDigests:   map[string]uint64{concept: digest + 1},
	}
	check := func(what string, cr *CleanResult) {
		t.Helper()
		want := eval.MergeCleaning([]eval.CleaningMetrics{s.Oracle.Cleaning(concept, cr.BeforeInstances[concept], s.KB)})
		if got := s.Cleaning(cr); got != want {
			t.Fatalf("%s: Cleaning = %+v, direct %+v", what, got, want)
		}
		got, want2 := s.KBPrecision(s.KB), s.Oracle.KBPrecision(s.KB, nil)
		if math.Float64bits(got) != math.Float64bits(want2) {
			t.Fatalf("%s: KBPrecision = %v, direct %v", what, got, want2)
		}
	}
	check("whole before list", whole)
	check("shorter before list", part)
	after := base.KB.Clone()
	after.RemovePairs([]kb.Pair{{Concept: concept, Instance: before[0]}})
	if after.ConceptDigest(concept) == digest {
		t.Fatal("premise: removing a pair must change the concept's digest")
	}
	s.KB = after
	check("cleaned KB", whole)
}
