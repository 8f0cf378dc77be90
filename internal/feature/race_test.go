package feature

import (
	"fmt"
	"math"
	"testing"

	"driftclean/internal/mutex"
)

// TestWarmRaceHammer reads features through one shared, cold extractor
// from many parallel subtests — whole matrices first, through one sub(e)
// index shared by every subtest, then per instance — so the caches are
// warmed lazily by whichever Matrix call reaches a concept first, as an
// analysis pass's task builds warm them. Under `go test -race` this is
// the regression gate for the single-flight score and class-frequency
// fills racing each other and their readers, and for the read-only
// index; the features read concurrently must be bit-identical to a
// serially computed reference.
func TestWarmRaceHammer(t *testing.T) {
	k := scenarioKB()
	mx := mutex.Analyze(k, mutex.Config{ExclusiveThreshold: 0.3, SimilarThreshold: 0.9, MinCoreSize: 3})
	shared := NewExtractor(k, mx)
	serial := NewExtractor(k, mx)
	concepts := []string{"animal", "food"}

	index := map[string]map[string][]string{}
	type refKey struct{ concept, instance string }
	ref := map[refKey][]float64{}
	for _, c := range concepts {
		index[c] = k.SubIndex(c)
		for _, e := range k.Instances(c) {
			ref[refKey{c, e}] = serial.Vector(c, e, k.SubInstances(c, e))
		}
	}
	same := func(t *testing.T, c, e string, got []float64) {
		t.Helper()
		want := ref[refKey{c, e}]
		for fi := range want {
			if math.Float64bits(got[fi]) != math.Float64bits(want[fi]) {
				t.Fatalf("feature f%d of (%s,%s) = %v under concurrency, want %v",
					fi+1, c, e, got[fi], want[fi])
			}
		}
	}

	for i := 0; i < 8; i++ {
		t.Run(fmt.Sprintf("warm-%d", i), func(t *testing.T) {
			t.Parallel()
			for _, c := range concepts {
				names := k.Instances(c)
				for i, row := range shared.Matrix(c, names, index[c]) {
					same(t, c, names[i], row)
				}
				for _, e := range names {
					same(t, c, e, shared.Vector(c, e, index[c][e]))
				}
			}
		})
	}
}
