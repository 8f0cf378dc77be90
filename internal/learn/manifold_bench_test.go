package learn_test

import (
	"testing"

	"driftclean/internal/core"
	"driftclean/internal/learn"
	"driftclean/internal/linalg"
)

var manifoldSink *linalg.Matrix

// BenchmarkManifoldMatrix builds the Eq 17 matrix of the largest task of
// a 12,000-sentence world (world seed 1, corpus seed 2, as
// `driftclean -sentences 12000` builds it) at the default manifold
// config: the per-task cost multi-task detection pays on a cache miss.
func BenchmarkManifoldMatrix(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Corpus.Seed = cfg.World.Seed + 1
	cfg.Corpus.NumSentences = 12000
	sys := core.Build(cfg)
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		b.Fatal(err)
	}
	var largest *learn.Task
	for _, t := range a.Tasks {
		if largest == nil || len(t.Instances) > len(largest.Instances) {
			largest = t
		}
	}
	if largest == nil {
		b.Fatal("analysis built no tasks")
	}
	mcfg := learn.DefaultManifoldConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		manifoldSink = learn.ManifoldMatrix(largest, mcfg)
	}
}
