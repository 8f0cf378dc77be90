package core

import (
	"math"
	"testing"

	"driftclean/internal/dp"
	"driftclean/internal/learn"
	"driftclean/internal/linalg"
)

// sharedTestSystem caches one built system across the detection-path
// tests in this file (Build is deterministic).
var sharedSys *System

func testSystem(t *testing.T) *System {
	t.Helper()
	if sharedSys == nil {
		sharedSys = Build(testConfig())
	}
	return sharedSys
}

func TestDetectAllKinds(t *testing.T) {
	sys := testSystem(t)
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []DetectorKind{
		DetectMultiTask, DetectSemiSupervised, DetectSupervised, DetectRidge,
		DetectAdHoc1, DetectAdHoc2, DetectAdHoc3, DetectAdHoc4,
	}
	for _, kind := range kinds {
		labels, err := sys.Detect(a, kind)
		if err != nil {
			t.Errorf("%v: %v", kind, err)
			continue
		}
		total := 0
		for _, m := range labels {
			total += len(m)
		}
		if total == 0 {
			t.Errorf("%v produced no predictions", kind)
		}
	}
	if _, err := sys.Detect(a, DetectorKind(99)); err == nil {
		t.Error("unknown detector kind must error")
	}
}

func TestGuardDPs(t *testing.T) {
	task := &learn.Task{Concept: "c", Instances: []learn.Instance{
		{Name: "bare", Raw: []float64{0, 0, 0, 0, 1, 0}},      // no exclusive signal
		{Name: "poly", Raw: []float64{0, 1, 0, 0, 1, 0}},      // f2 > 0
		{Name: "cluster", Raw: []float64{0, 0, 0, 0, 1, 0.5}}, // f6 high
		{Name: "weak6", Raw: []float64{0, 0, 0, 0, 1, 0.1}},   // f6 below Intentional bar
		{Name: "seeded", Raw: []float64{0, 0, 0, 0, 1, 0}, Labeled: true, Label: dp.Intentional},
	}}
	labels := map[string]dp.Label{
		"bare":    dp.Intentional,
		"poly":    dp.Intentional,
		"cluster": dp.Intentional,
		"weak6":   dp.Intentional,
		"seeded":  dp.Intentional,
	}
	guardDPs(labels, task)
	if labels["bare"] != dp.NonDP {
		t.Error("bare prediction must be demoted")
	}
	if labels["poly"] != dp.Intentional || labels["cluster"] != dp.Intentional {
		t.Error("signalled predictions must survive")
	}
	if labels["weak6"] != dp.NonDP {
		t.Error("weak-f6 Intentional must be demoted")
	}
	if labels["seeded"] != dp.Intentional {
		t.Error("seed-labeled predictions are never demoted")
	}
	// Accidental: f6 > 0 suffices.
	labels2 := map[string]dp.Label{"weak6": dp.Accidental, "bare": dp.Accidental}
	guardDPs(labels2, task)
	if labels2["weak6"] != dp.Accidental {
		t.Error("accidental with f6 > 0 must survive")
	}
	if labels2["bare"] != dp.NonDP {
		t.Error("accidental without any signal must be demoted")
	}
	guardDPs(nil, task) // must not panic
}

func TestMeanDetector(t *testing.T) {
	d1 := &learn.LinearDetector{W: linalg.Scale(2, linalg.Identity(3))}
	d2 := &learn.LinearDetector{W: linalg.NewMatrix(3, 3)}
	mean := meanDetector(map[string]*learn.LinearDetector{"a": d1, "b": d2})
	if got := mean.W.At(0, 0); got != 1 {
		t.Errorf("mean W[0,0] = %v, want 1", got)
	}
	if meanDetector(nil) != nil {
		t.Error("empty mean must be nil")
	}
}

func TestCalibrateForFallsBackWhenOneSided(t *testing.T) {
	det := &learn.LinearDetector{W: linalg.Identity(3)}
	// Task with only non-DP seeds.
	oneSided := &learn.Task{Concept: "c"}
	pool := &learn.Task{Concept: "pool"}
	for i := 0; i < 10; i++ {
		oneSided.Instances = append(oneSided.Instances, learn.Instance{
			Name: string(rune('a' + i)), X: []float64{0, 0, 1}, Labeled: true, Label: dp.NonDP,
		})
		lbl := dp.NonDP
		x := []float64{0, 0, 1}
		if i%2 == 0 {
			lbl = dp.Intentional
			x = []float64{1, 0, 1.5} // loses argmax by 0.5: the pooled margin must be positive
		}
		pool.Instances = append(pool.Instances, learn.Instance{
			Name: string(rune('A' + i)), X: x, Labeled: true, Label: lbl,
		})
	}
	// One-sided task borrows the pool; pooled calibration can find a
	// separating margin while the task alone cannot.
	cal := calibrateFor(det, oneSided, learn.NewSeedSet(oneSided, pool))
	calOwn := learn.Calibrate(det, oneSided)
	if calOwn.Delta != 0 {
		t.Fatalf("one-sided calibration should be inert, delta=%v", calOwn.Delta)
	}
	want := learn.Calibrate(det, oneSided, pool).Delta
	if want <= 0 {
		t.Fatalf("premise: pooled calibration should find a positive margin, delta=%v", want)
	}
	if math.Float64bits(cal.Delta) != math.Float64bits(want) {
		t.Fatalf("one-sided task calibrated to delta %v, want the pooled delta %v", cal.Delta, want)
	}
}

func TestBuildTaskDegenerateFeatures(t *testing.T) {
	// A KB where a concept's instances all have identical features must
	// not fail task building (KPCA falls back to raw features).
	sys := testSystem(t)
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tasks) == 0 {
		t.Fatal("no tasks")
	}
}
