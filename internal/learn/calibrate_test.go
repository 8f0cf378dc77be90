package learn

import (
	"math"
	"math/rand"
	"testing"

	"driftclean/internal/dp"
	"driftclean/internal/linalg"
)

// scoreTask builds a task where the detector scores are fully controlled
// by a 3-dim identity W: X = the desired [int, acc, non] scores.
func scoreTask(rows [][3]float64, labels []dp.Label) (*LinearDetector, *Task) {
	det := &LinearDetector{W: linalg.Identity(3)}
	t := &Task{Concept: "c"}
	for i, r := range rows {
		t.Instances = append(t.Instances, Instance{
			Name:    string(rune('a' + i)),
			X:       []float64{r[0], r[1], r[2]},
			Raw:     []float64{r[0], r[1], r[2], 0, 0, 0},
			Label:   labels[i],
			Labeled: true,
		})
	}
	return det, t
}

func TestScoresMatchesPredict(t *testing.T) {
	det := &LinearDetector{W: linalg.Identity(3)}
	s := det.Scores([]float64{0.2, 0.9, 0.1})
	if s != [3]float64{0.2, 0.9, 0.1} {
		t.Fatalf("Scores = %v", s)
	}
	if det.Predict([]float64{0.2, 0.9, 0.1}) != dp.Accidental {
		t.Fatal("Predict disagrees with Scores argmax")
	}
}

func TestCalibrateRecoversMargin(t *testing.T) {
	// Two DPs whose scores lose to non-DP by 0.1 and 0.2; two non-DPs
	// that win by 0.5. A positive delta between 0.2 and 0.5 fixes both
	// DPs without flipping the non-DPs.
	det, task := scoreTask([][3]float64{
		{0.5, 0, 0.6}, // DP, margin -0.1
		{0.4, 0, 0.6}, // DP, margin -0.2
		{0.1, 0, 0.6}, // non-DP, margin -0.5 (safe)
		{0.0, 0, 0.7}, // non-DP
	}, []dp.Label{dp.Intentional, dp.Intentional, dp.NonDP, dp.NonDP})
	cal := Calibrate(det, task)
	if cal.Delta <= 0 {
		t.Fatalf("Delta = %v, want positive", cal.Delta)
	}
	// With only four seeds the margin is heavily shrunken, but a
	// near-boundary DP must now be recovered.
	if got := cal.Predict([]float64{0.59, 0, 0.6}); !got.IsDP() {
		t.Errorf("borderline DP not recovered (delta=%v): %v", cal.Delta, got)
	}
	if got := cal.Predict([]float64{0.0, 0, 0.7}); got.IsDP() {
		t.Errorf("clear non-DP flipped: %v", got)
	}
}

// TestCalibrateDeltaIgnoresTieOrder: Calibrate sorts margins with an
// unstable sort, so the order of points inside a group of tied margins
// is arbitrary. Delta must not depend on it: the F1 sweep only
// evaluates at the end of each tie group. Every permutation of a seed
// set whose margins come from three values, two of the tie groups
// holding both labels, yields a bit-identical Delta.
func TestCalibrateDeltaIgnoresTieOrder(t *testing.T) {
	var rows [][3]float64
	var labels []dp.Label
	for i := 0; i < 24; i++ {
		rows = append(rows, [3]float64{0.1 * float64(i%3), 0, 0.3})
		lbl := dp.NonDP
		if i%4 == 0 || i%3 == 2 {
			lbl = dp.Accidental
		}
		labels = append(labels, lbl)
	}
	det, task := scoreTask(rows, labels)
	want := Calibrate(det, task).Delta
	if want == 0 {
		t.Fatal("premise: the seed set should calibrate to a non-zero margin")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		perm := &Task{Concept: task.Concept, Instances: append([]Instance(nil), task.Instances...)}
		rng.Shuffle(len(perm.Instances), func(i, j int) {
			perm.Instances[i], perm.Instances[j] = perm.Instances[j], perm.Instances[i]
		})
		if got := Calibrate(det, perm).Delta; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Delta = %v after permuting the seeds, want %v", trial, got, want)
		}
	}
}

func TestCalibrateNoLabels(t *testing.T) {
	det := &LinearDetector{W: linalg.Identity(3)}
	task := &Task{Concept: "c", Instances: []Instance{{Name: "x", X: []float64{1, 0, 0}}}}
	cal := Calibrate(det, task)
	if cal.Delta != 0 {
		t.Errorf("Delta = %v with no labels, want 0", cal.Delta)
	}
	if cal.Predict([]float64{1, 0, 0}) != dp.Intentional {
		t.Error("zero-delta calibration must behave like argmax")
	}
}

func TestCalibratedTypeAssignment(t *testing.T) {
	cal := &CalibratedLinear{Base: &LinearDetector{W: linalg.Identity(3)}, Delta: 1}
	if got := cal.Predict([]float64{0.9, 0.1, 0}); got != dp.Intentional {
		t.Errorf("got %v, want Intentional", got)
	}
	if got := cal.Predict([]float64{0.1, 0.9, 0}); got != dp.Accidental {
		t.Errorf("got %v, want Accidental", got)
	}
	conservative := &CalibratedLinear{Base: &LinearDetector{W: linalg.Identity(3)}, Delta: -10}
	if got := conservative.Predict([]float64{0.9, 0.1, 0}); got != dp.NonDP {
		t.Errorf("hugely negative delta must suppress DP calls, got %v", got)
	}
}

func TestCalibrationShrinkMonotone(t *testing.T) {
	if calibrationShrink(1) >= calibrationShrink(100) {
		t.Error("shrink must grow with seed count")
	}
	if s := calibrationShrink(1000); s < 0.9 || s > 1 {
		t.Errorf("large-sample shrink = %v", s)
	}
}

func TestManifoldSubset(t *testing.T) {
	task := &Task{Concept: "c"}
	for i := 0; i < 30; i++ {
		task.Instances = append(task.Instances, Instance{
			Name:    string(rune('a' + i)),
			X:       []float64{float64(i)},
			Labeled: i < 5,
			Label:   dp.NonDP,
		})
	}
	sub := manifoldSubset(task, 10)
	if len(sub.Instances) > 11 {
		t.Fatalf("subset size %d, want <= ~10", len(sub.Instances))
	}
	labeled := 0
	for _, in := range sub.Instances {
		if in.Labeled {
			labeled++
		}
	}
	if labeled != 5 {
		t.Errorf("subset kept %d labeled, want all 5", labeled)
	}
	// No cap: unchanged.
	if got := manifoldSubset(task, 0); len(got.Instances) != 30 {
		t.Errorf("uncapped subset resized to %d", len(got.Instances))
	}
	if got := manifoldSubset(task, 100); len(got.Instances) != 30 {
		t.Errorf("roomy cap resized to %d", len(got.Instances))
	}
}

func TestTrainSemiSupervisedNoLabels(t *testing.T) {
	task := synthTask(99, "c", 4, 10, 0)
	for i := range task.Instances {
		task.Instances[i].Labeled = false
	}
	if _, err := TrainSemiSupervised(task, DefaultSemiSupervisedConfig()); err == nil {
		t.Error("semi-supervised training without labels should fail")
	}
}

func TestForestNoLabels(t *testing.T) {
	task := &Task{Concept: "c", Instances: []Instance{{Name: "x", Raw: []float64{1}}}}
	if _, err := TrainForest(task, DefaultForestConfig()); err == nil {
		t.Error("forest without labels should fail")
	}
}

func TestAdHocNoLabels(t *testing.T) {
	task := &Task{Concept: "c", Instances: []Instance{{Name: "x", Raw: []float64{1, 2, 3, 4}}}}
	if _, err := TrainAdHoc(task, 0); err == nil {
		t.Error("ad-hoc without labels should fail")
	}
}

func TestMultiTaskNoLabeledTasks(t *testing.T) {
	task := synthTask(100, "c", 3, 5, 0)
	for i := range task.Instances {
		task.Instances[i].Labeled = false
	}
	if _, err := TrainMultiTask([]*Task{task}, DefaultMultiTaskConfig(), nil); err == nil {
		t.Error("multi-task with zero labeled tasks should fail")
	}
}
