package feature

import (
	"testing"

	"driftclean/internal/mutex"
)

func BenchmarkMatrix(b *testing.B) {
	k := scenarioKB()
	mx := mutex.Analyze(k, mutex.Config{ExclusiveThreshold: 0.3, SimilarThreshold: 0.9, MinCoreSize: 3})
	instances := k.Instances("animal")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One task's feature work in an analysis pass: a fresh extractor
		// (so Matrix cost includes the walk and frequency caches it
		// fills), the concept's sub(e) index, then the matrix over it.
		x := NewExtractor(k, mx)
		x.Matrix("animal", instances, k.SubIndex("animal"))
	}
}
