package learn

import (
	"math"
	"math/rand"
	"testing"

	"driftclean/internal/dp"
	"driftclean/internal/linalg"
)

// synthTask builds a task with three separable clusters in r dims:
// Intentional near (3,0,..), Accidental near (0,3,..), NonDP near (0,0,..).
// labelFrac of each cluster is labeled.
func synthTask(seed int64, concept string, r, perClass int, labelFrac float64) *Task {
	rng := rand.New(rand.NewSource(seed))
	t := &Task{Concept: concept}
	add := func(lbl dp.Label, cx, cy float64) {
		for i := 0; i < perClass; i++ {
			x := make([]float64, r)
			x[0] = cx + rng.NormFloat64()*0.4
			if r > 1 {
				x[1] = cy + rng.NormFloat64()*0.4
			}
			for j := 2; j < r; j++ {
				x[j] = rng.NormFloat64() * 0.2
			}
			raw := []float64{x[0], x[1%r], rng.Float64(), rng.Float64()}
			t.Instances = append(t.Instances, Instance{
				Name:    concept + "-" + lbl.String() + "-" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
				X:       x,
				Raw:     raw,
				Label:   lbl,
				Labeled: rng.Float64() < labelFrac,
			})
		}
	}
	add(dp.Intentional, 3, 0)
	add(dp.Accidental, 0, 3)
	add(dp.NonDP, -3, -3)
	return t
}

func accuracy(d Detector, t *Task, useRaw bool) float64 {
	right, total := 0, 0
	for _, in := range t.Instances {
		x := in.X
		if useRaw {
			x = in.Raw
		}
		total++
		if d.Predict(x) == in.Label {
			right++
		}
	}
	return float64(right) / float64(total)
}

func TestRidgeSeparableClusters(t *testing.T) {
	task := synthTask(1, "c", 4, 40, 0.5)
	det, err := TrainRidge(task, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(det, task, false); acc < 0.9 {
		t.Errorf("ridge accuracy %.3f on separable clusters, want >= 0.9", acc)
	}
}

func TestRidgeNoLabels(t *testing.T) {
	task := synthTask(1, "c", 4, 10, 0)
	for i := range task.Instances {
		task.Instances[i].Labeled = false
	}
	if _, err := TrainRidge(task, 0.01); err == nil {
		t.Error("ridge with no labels should fail")
	}
}

func TestSemiSupervisedBeatsOrMatchesRidgeWithFewLabels(t *testing.T) {
	// With very few labels, the manifold term should not hurt and usually
	// helps; assert it stays within a small margin or better.
	task := synthTask(7, "c", 4, 50, 0.08)
	ridge, err := TrainRidge(task, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	ssl, err := TrainSemiSupervised(task, DefaultSemiSupervisedConfig())
	if err != nil {
		t.Fatal(err)
	}
	ra, sa := accuracy(ridge, task, false), accuracy(ssl, task, false)
	t.Logf("ridge %.3f semi-supervised %.3f", ra, sa)
	if sa < ra-0.05 {
		t.Errorf("semi-supervised accuracy %.3f much worse than ridge %.3f", sa, ra)
	}
	if sa < 0.8 {
		t.Errorf("semi-supervised accuracy %.3f too low", sa)
	}
}

func TestMultiTaskTrainsAllTasks(t *testing.T) {
	tasks := []*Task{
		synthTask(11, "c1", 4, 30, 0.2),
		synthTask(12, "c2", 4, 30, 0.2),
		synthTask(13, "c3", 4, 30, 0.2),
	}
	res, err := TrainMultiTask(tasks, DefaultMultiTaskConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detectors) != 3 {
		t.Fatalf("detectors for %d tasks, want 3", len(res.Detectors))
	}
	for _, task := range tasks {
		if acc := accuracy(res.Detectors[task.Concept], task, false); acc < 0.85 {
			t.Errorf("multi-task accuracy %.3f on %s, want >= 0.85", acc, task.Concept)
		}
	}
}

// TestTheorem1MonotoneObjective asserts the paper's convergence guarantee:
// the Eq 18 objective is non-increasing across Algorithm 1 iterations.
func TestTheorem1MonotoneObjective(t *testing.T) {
	tasks := []*Task{
		synthTask(21, "c1", 4, 25, 0.3),
		synthTask(22, "c2", 4, 25, 0.3),
	}
	cfg := DefaultMultiTaskConfig()
	cfg.MaxIter = 15
	cfg.Tol = 0 // run all iterations
	res, err := TrainMultiTask(tasks, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objective) < 3 {
		t.Fatalf("only %d objective values recorded", len(res.Objective))
	}
	for i := 1; i < len(res.Objective); i++ {
		if res.Objective[i] > res.Objective[i-1]*(1+1e-9) {
			t.Errorf("objective increased at iteration %d: %v -> %v",
				i+1, res.Objective[i-1], res.Objective[i])
		}
	}
}

func TestMultiTaskHookCalledEachIteration(t *testing.T) {
	tasks := []*Task{synthTask(31, "c1", 3, 20, 0.3)}
	calls := 0
	cfg := DefaultMultiTaskConfig()
	cfg.MaxIter = 5
	cfg.Tol = 0
	res, err := TrainMultiTask(tasks, cfg, func(iter int, dets map[string]*LinearDetector) {
		calls++
		if dets["c1"] == nil {
			t.Error("hook saw no detector for c1")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Iterations {
		t.Errorf("hook called %d times for %d iterations", calls, res.Iterations)
	}
}

func TestMultiTaskDimensionMismatch(t *testing.T) {
	t1 := synthTask(41, "c1", 3, 10, 0.5)
	t2 := synthTask(42, "c2", 5, 10, 0.5)
	if _, err := TrainMultiTask([]*Task{t1, t2}, DefaultMultiTaskConfig(), nil); err == nil {
		t.Error("mismatched dimensions should fail without PadTo")
	}
	t1.PadTo(5)
	if _, err := TrainMultiTask([]*Task{t1, t2}, DefaultMultiTaskConfig(), nil); err != nil {
		t.Errorf("after PadTo: %v", err)
	}
}

func TestPadTo(t *testing.T) {
	task := synthTask(51, "c", 3, 5, 1)
	task.PadTo(6)
	for _, in := range task.Instances {
		if len(in.X) != 6 {
			t.Fatalf("PadTo left length %d", len(in.X))
		}
		if in.X[4] != 0 || in.X[5] != 0 {
			t.Fatal("padding must be zeros")
		}
	}
}

func TestForestSeparable(t *testing.T) {
	task := synthTask(61, "c", 4, 40, 0.6)
	// Forest uses raw features; synthTask's raw[0] carries the cluster
	// signal (copied from X[0]).
	f, err := TrainForest(task, DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	right, total := 0, 0
	for _, in := range task.Instances {
		if !in.Labeled {
			continue
		}
		total++
		if f.Predict(in.Raw) == in.Label {
			right++
		}
	}
	if acc := float64(right) / float64(total); acc < 0.85 {
		t.Errorf("forest training accuracy %.3f, want >= 0.85", acc)
	}
}

func TestForestDeterministic(t *testing.T) {
	task := synthTask(71, "c", 4, 20, 0.5)
	f1, _ := TrainForest(task, DefaultForestConfig())
	f2, _ := TrainForest(task, DefaultForestConfig())
	for _, in := range task.Instances {
		if f1.Predict(in.Raw) != f2.Predict(in.Raw) {
			t.Fatal("forest not deterministic under a fixed seed")
		}
	}
}

// TestGiniSumsInLabelOrder: 1 − (1/3)² − (2/3)² depends on which share
// is subtracted first, so an impurity summed in map order varies from
// call to call and flips the forest's split-gain ties.
func TestGiniSumsInLabelOrder(t *testing.T) {
	ys := []dp.Label{dp.Intentional, dp.Accidental, dp.Accidental}
	p1, p2 := 1.0/3, 2.0/3
	want := 1 - p1*p1 - p2*p2
	for i := 0; i < 100; i++ {
		if got := gini(ys); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: gini = %v, want %v (label-ordered sum)", i, got, want)
		}
	}
}

func TestForestPooled(t *testing.T) {
	tasks := []*Task{synthTask(81, "c1", 4, 15, 0.5), synthTask(82, "c2", 4, 15, 0.5)}
	if _, err := TrainForestPooled(tasks, DefaultForestConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestAdHocThresholdLearning(t *testing.T) {
	task := &Task{Concept: "c"}
	// f3 (index 2) low => DP; construct exact separation at 0.5.
	for i := 0; i < 20; i++ {
		isDP := i%2 == 0
		v := 0.8
		lbl := dp.NonDP
		if isDP {
			v = 0.2
			lbl = dp.Accidental
		}
		task.Instances = append(task.Instances, Instance{
			Name: string(rune('a' + i)), Raw: []float64{0, 0, v, 0},
			X: []float64{v}, Label: lbl, Labeled: true,
		})
	}
	a, err := TrainAdHoc(task, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !a.LowIsDP {
		t.Error("f3 detector should mark low values as DPs")
	}
	if a.Thresh < 0.2 || a.Thresh > 0.8 {
		t.Errorf("threshold %v outside separating band", a.Thresh)
	}
	if got := a.Predict([]float64{0, 0, 0.1, 0}); !got.IsDP() {
		t.Error("low f3 must be detected as DP")
	}
	if got := a.Predict([]float64{0, 0, 0.9, 0}); got.IsDP() {
		t.Error("high f3 must be non-DP")
	}
}

func TestAdHocF2Direction(t *testing.T) {
	task := &Task{Concept: "c"}
	for i := 0; i < 10; i++ {
		isDP := i%2 == 0
		f2 := 0.0
		lbl := dp.NonDP
		if isDP {
			f2 = 3
			lbl = dp.Intentional
		}
		task.Instances = append(task.Instances, Instance{
			Name: string(rune('a' + i)), Raw: []float64{0, f2, 0, 0},
			X: []float64{f2}, Label: lbl, Labeled: true,
		})
	}
	a, err := TrainAdHoc(task, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.LowIsDP {
		t.Error("f2 detector should mark HIGH values as DPs")
	}
	if got := a.Predict([]float64{0, 5, 0, 0}); got != dp.Intentional {
		t.Errorf("high f2 should be Intentional, got %v", got)
	}
}

func TestMajorityLabel(t *testing.T) {
	if got := majorityLabel([]dp.Label{dp.NonDP, dp.Accidental, dp.Accidental}); got != dp.Accidental {
		t.Errorf("majority = %v", got)
	}
	if got := majorityLabel(nil); got != dp.NonDP {
		t.Errorf("empty majority = %v, want NonDP", got)
	}
}

func TestL21Norm(t *testing.T) {
	// rows (3,4) and (0,0): l2,1 = 5.
	got := l21Norm(linalg.FromRows([][]float64{{3, 4}, {0, 0}}))
	if math.Abs(got-5) > 1e-12 {
		t.Errorf("l21 = %v, want 5", got)
	}
}
