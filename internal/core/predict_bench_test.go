package core

import (
	"testing"

	"driftclean/internal/learn"
)

// BenchmarkPredictMultiTask times one analysis pass's calibration and
// prediction (predictMultiTask) on a default-config 6,000-sentence KB:
// the detectors are trained once before the timer starts, so each op
// calibrates every task's detector, on its own seeds or on the pooled
// ones, and labels its instances.
//
//	go test -run '^$' -bench PredictMultiTask -benchmem ./internal/core
func BenchmarkPredictMultiTask(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Corpus.NumSentences = 6000
	sys := Build(cfg)
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		b.Fatal(err)
	}
	mtCfg := sys.Cfg.MultiTask
	mtCfg.ManifoldOf = sys.manifoldFor
	res, err := learn.TrainMultiTask(a.Tasks, mtCfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictMultiTask(a.Tasks, res.Detectors, sys.Cfg.workers())
	}
}
