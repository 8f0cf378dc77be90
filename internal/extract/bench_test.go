package extract

import (
	"fmt"
	"testing"

	"driftclean/internal/corpus"
	"driftclean/internal/world"
)

// BenchmarkStreamReplay measures one Stream.Replay — the extraction
// step of every session checkpoint — over a default-config world whose
// whole corpus was appended before the timer starts:
//
//	go test -run '^$' -bench StreamReplay ./internal/extract
func BenchmarkStreamReplay(b *testing.B) {
	w := world.New(world.DefaultConfig())
	for _, n := range []int{6000, 40000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			cfg := corpus.DefaultConfig()
			cfg.NumSentences = n
			s := NewStream(DefaultConfig())
			s.Append(corpus.Generate(w, cfg).Sentences)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.Replay().KB.NumPairs() == 0 {
					b.Fatal("replay extracted nothing")
				}
			}
		})
	}
}
