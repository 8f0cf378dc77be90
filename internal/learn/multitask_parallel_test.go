package learn

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestTrainMultiTaskSerialMatchesParallel: at 1, 2 and 4 workers,
// Algorithm 1 must return the same W bits for every task, the same
// objective trajectory bit for bit and the same iteration count, and
// call the hook with the same iterations and the same detector bits.
// Tasks differ in size and label share, so workers finish out of
// order.
func TestTrainMultiTaskSerialMatchesParallel(t *testing.T) {
	var tasks []*Task
	for i := 0; i < 9; i++ {
		task := synthTask(int64(60+i), fmt.Sprintf("c%d", i), 4, 8+6*i, 0.15+0.05*float64(i%4))
		task.PadTo(5)
		tasks = append(tasks, task)
	}
	// A task without labels is skipped by every run alike.
	tasks = append(tasks, &Task{Concept: "unlabeled", Instances: []Instance{{Name: "x", X: make([]float64, 5)}}})

	type run struct {
		w         map[string][]uint64
		objective []uint64
		iters     int
		hook      []string
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	train := func(workers int) run {
		cfg := DefaultMultiTaskConfig()
		cfg.Parallelism = workers
		var r run
		res, err := TrainMultiTask(tasks, cfg, func(iter int, dets map[string]*LinearDetector) {
			r.hook = append(r.hook, fmt.Sprintf("%d:%x", iter, bits(dets["c3"].W.Data)))
		})
		if err != nil {
			t.Fatal(err)
		}
		r.w = map[string][]uint64{}
		for c, d := range res.Detectors {
			r.w[c] = bits(d.W.Data)
		}
		r.objective, r.iters = bits(res.Objective), res.Iterations
		return r
	}
	serial := train(1)
	if serial.iters < 2 || len(serial.w) != 9 {
		t.Fatalf("premise: want several iterations over 9 trained tasks, got %d iterations, %d detectors", serial.iters, len(serial.w))
	}
	for _, workers := range []int{2, 4} {
		if got := train(workers); !reflect.DeepEqual(got, serial) {
			t.Fatalf("%d workers: training differs from the serial run", workers)
		}
	}
}
