package feature

import (
	"math"
	"reflect"
	"testing"

	"driftclean/internal/corpus"
	"driftclean/internal/extract"
	"driftclean/internal/kb"
	"driftclean/internal/mutex"
	"driftclean/internal/sparsevec"
	"driftclean/internal/world"
)

// pipelineKB extracts a small drifted KB from the synthetic pipeline:
// enough concepts, triggers and cross-listed instances to exercise every
// feature, small enough for the race detector.
func pipelineKB(t testing.TB) *kb.KB {
	t.Helper()
	wcfg := world.DefaultConfig()
	wcfg.NumDomains = 2
	wcfg.InstancesPerConceptMin = 30
	wcfg.InstancesPerConceptMax = 60
	w := world.New(wcfg)
	ccfg := corpus.DefaultConfig()
	ccfg.NumSentences = 6000
	return extract.Run(corpus.Generate(w, ccfg), extract.DefaultConfig()).KB
}

// TestMatrixMatchesVectorBits pins the shared-index path to the
// per-instance one: every Matrix row, read through one kb.SubIndex,
// equals Vector over kb.SubInstances on a fresh extractor, bit for bit,
// and its f1 — which reads the cached class norm — equals
// sparsevec.Cosine with both norms recomputed.
func TestMatrixMatchesVectorBits(t *testing.T) {
	for name, k := range map[string]*kb.KB{"scenario": scenarioKB(), "pipeline": pipelineKB(t)} {
		t.Run(name, func(t *testing.T) {
			mx := mutex.Analyze(k, mutex.DefaultConfig())
			indexed := NewExtractor(k, mx)
			single := NewExtractor(k, mx)
			rows := 0
			for _, c := range k.Concepts() {
				names := k.Instances(c)
				class := sparsevec.New()
				for _, e := range names {
					class.Inc(e, float64(k.Count(c, e)))
				}
				m := indexed.Matrix(c, names, k.SubIndex(c))
				for i, e := range names {
					subs := k.SubInstances(c, e)
					f1 := 0.0
					if len(subs) > 0 {
						subFreq := sparsevec.New()
						for _, s := range subs {
							subFreq.Inc(s, float64(k.Count(c, s)))
						}
						f1 = sparsevec.Cosine(subFreq, class)
					}
					if math.Float64bits(m[i][0]) != math.Float64bits(f1) {
						t.Fatalf("f1 of (%s,%s): Matrix %v, sparsevec.Cosine %v", c, e, m[i][0], f1)
					}
					want := single.Vector(c, e, subs)
					for f := range want {
						if math.Float64bits(m[i][f]) != math.Float64bits(want[f]) {
							t.Fatalf("f%d of (%s,%s): Matrix %v, Vector %v", f+1, c, e, m[i][f], want[f])
						}
					}
					rows++
				}
			}
			if rows == 0 {
				t.Fatal("no instances compared")
			}
		})
	}
}

// TestConceptsOfMatchesPairs checks the per-instance concept lists the
// extractor reads from the KB's maintained index against one sorted
// scan of kb.Pairs().
func TestConceptsOfMatchesPairs(t *testing.T) {
	for name, k := range map[string]*kb.KB{"scenario": scenarioKB(), "pipeline": pipelineKB(t)} {
		t.Run(name, func(t *testing.T) {
			want := map[string][]string{}
			for _, p := range k.Pairs() {
				want[p.Instance] = append(want[p.Instance], p.Concept)
			}
			x := NewExtractor(k, mutex.Analyze(k, mutex.DefaultConfig()))
			for e, concepts := range want {
				if got := x.ConceptsOf(e); !reflect.DeepEqual(got, concepts) {
					t.Fatalf("ConceptsOf(%q) = %q, the Pairs() construction gives %q", e, got, concepts)
				}
			}
			if got := x.ConceptsOf("no such instance"); got != nil {
				t.Fatalf("ConceptsOf of an absent instance = %q, want nil", got)
			}
		})
	}
}
