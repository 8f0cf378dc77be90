package kb_test

import (
	"fmt"
	"testing"

	"driftclean/internal/corpus"
	"driftclean/internal/extract"
	"driftclean/internal/world"
)

// BenchmarkKBClone measures one deep copy of the KB a default-config
// world's corpus extracts into — what snapshot.Freeze pays, and what an
// incremental replay would pay to start from a committed checkpoint:
//
//	go test -run '^$' -bench KBClone ./internal/kb
func BenchmarkKBClone(b *testing.B) {
	w := world.New(world.DefaultConfig())
	for _, n := range []int{6000, 40000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			cfg := corpus.DefaultConfig()
			cfg.NumSentences = n
			k := extract.Run(corpus.Generate(w, cfg), extract.DefaultConfig()).KB
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if k.Clone().NumPairs() != k.NumPairs() {
					b.Fatal("clone lost pairs")
				}
			}
		})
	}
}
