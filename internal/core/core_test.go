package core

import (
	"testing"

	"driftclean/internal/dp"
	"driftclean/internal/eval"
)

// testConfig returns a small but drift-exhibiting configuration.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.World.NumDomains = 3
	cfg.World.InstancesPerConceptMin = 60
	cfg.World.InstancesPerConceptMax = 120
	cfg.Corpus.NumSentences = 25000
	cfg.Clean.MaxRounds = 3
	return cfg
}

func TestBuildProducesDriftedKB(t *testing.T) {
	sys := Build(testConfig())
	if sys.KB.NumPairs() == 0 {
		t.Fatal("empty KB")
	}
	prec := sys.Oracle.KBPrecision(sys.KB, nil)
	if prec > 0.85 {
		t.Errorf("KB precision %.3f — no drift to clean?", prec)
	}
	if prec < 0.3 {
		t.Errorf("KB precision %.3f — too dirty, extraction is broken", prec)
	}
}

func TestAnalyzeBuildsTasks(t *testing.T) {
	sys := Build(testConfig())
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tasks) == 0 {
		t.Fatal("no tasks built")
	}
	dim := sys.sharedDim()
	labeledTasks := 0
	for _, task := range a.Tasks {
		if task.Dim() != dim {
			t.Fatalf("task %q dim %d, want %d", task.Concept, task.Dim(), dim)
		}
		if task.LabeledCount() > 0 {
			labeledTasks++
		}
	}
	if labeledTasks == 0 {
		t.Fatal("no task has seed labels")
	}
}

func TestDetectMultiTaskFindsDPs(t *testing.T) {
	sys := Build(testConfig())
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := sys.Detect(a, DetectMultiTask)
	if err != nil {
		t.Fatal(err)
	}
	dps := 0
	for _, m := range labels {
		for _, l := range m {
			if l.IsDP() {
				dps++
			}
		}
	}
	if dps == 0 {
		t.Fatal("multi-task detector found no DPs on a drifted KB")
	}
}

func TestDetectionQualityOrdering(t *testing.T) {
	// The paper's Table 4 ordering on F1: ad-hoc < multi-task, and the
	// learned detectors should beat the weakest ad-hoc method.
	sys := Build(testConfig())
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		t.Fatal(err)
	}
	f1 := func(kind DetectorKind) float64 {
		labels, err := sys.Detect(a, kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		var merged eval.PRF1
		for concept, predicted := range labels {
			truth := sys.Oracle.TruthLabels(sys.KB, concept)
			m := eval.Detection(truth, predicted)
			merged.TP += m.TP
			merged.FP += m.FP
			merged.FN += m.FN
		}
		if merged.TP == 0 {
			return 0
		}
		p := float64(merged.TP) / float64(merged.TP+merged.FP)
		r := float64(merged.TP) / float64(merged.TP+merged.FN)
		return 2 * p * r / (p + r)
	}
	mt := f1(DetectMultiTask)
	ad3 := f1(DetectAdHoc3)
	t.Logf("F1: multitask=%.3f adhoc3=%.3f", mt, ad3)
	if mt < 0.5 {
		t.Errorf("multi-task F1 %.3f too low", mt)
	}
	if mt <= ad3 {
		t.Errorf("multi-task F1 %.3f should beat ad-hoc3 %.3f", mt, ad3)
	}
}

// TestCleanDPsImprovesPrecision is the headline end-to-end check: DP
// cleaning must raise KB precision substantially while keeping most
// correct pairs (paper: 43% -> 89% precision with rcorr 94%).
func TestCleanDPsImprovesPrecision(t *testing.T) {
	sys := Build(testConfig())
	before := sys.Oracle.KBPrecision(sys.KB, nil)
	cr, err := sys.CleanDPs(DetectMultiTask)
	if err != nil {
		t.Fatal(err)
	}
	after := sys.Oracle.KBPrecision(sys.KB, nil)

	var per []eval.CleaningMetrics
	for c, beforeInsts := range cr.BeforeInstances {
		per = append(per, sys.Oracle.Cleaning(c, beforeInsts, sys.KB))
	}
	m := eval.MergeCleaning(per)
	t.Logf("precision %.3f -> %.3f; perror=%.3f rerror=%.3f pcorr=%.3f rcorr=%.3f (removed %d)",
		before, after, m.PError, m.RError, m.PCorr, m.RCorr, m.Removed)

	if after < before+0.15 {
		t.Errorf("cleaning improved precision only %.3f -> %.3f", before, after)
	}
	if m.RCorr < 0.75 {
		t.Errorf("rcorr %.3f — cleaning destroyed too many correct pairs", m.RCorr)
	}
	if m.PError < 0.7 {
		t.Errorf("perror %.3f — removals too imprecise", m.PError)
	}
}

func TestOnlyDPsFilter(t *testing.T) {
	in := map[string]map[string]dp.Label{
		"c": {"a": dp.Intentional, "b": dp.NonDP, "d": dp.Accidental},
	}
	out := onlyDPs(in)
	if len(out["c"]) != 2 {
		t.Errorf("onlyDPs kept %d labels, want 2", len(out["c"]))
	}
	if _, ok := out["c"]["b"]; ok {
		t.Error("non-DP label leaked through")
	}
}

func TestDetectorKindString(t *testing.T) {
	if DetectMultiTask.String() == "" || DetectAdHoc2.String() != "ad-hoc 2" {
		t.Error("DetectorKind.String broken")
	}
}

// TestTaskSignatureDeterministic: the task memo is only sound if equal
// inputs always hash to the same signature.
func TestTaskSignatureDeterministic(t *testing.T) {
	names := []string{"a", "b"}
	seeds := map[string]dp.Label{"a": dp.Intentional}
	raw := [][]float64{{1, 2}, {3, 4}}
	if taskSignature("c", names, seeds, raw) != taskSignature("c", names, seeds, raw) {
		t.Fatal("taskSignature is not deterministic")
	}
}
