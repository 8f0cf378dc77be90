package core

import (
	"maps"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"driftclean/internal/clean"
	"driftclean/internal/dp"
	"driftclean/internal/fault"
	"driftclean/internal/learn"
)

// TestAnalyzeFansOutPerConcept pins the per-concept fan-out of Analyze
// on a world with fewer eligible concepts than par.For's chunk: with two
// workers, two task builds must be in their KPCA miss path at once. The
// core.solve latency hook acts as a barrier that records the most misses
// seen in flight together; it opens as soon as a second miss arrives, or
// after a timeout when the builds run one at a time.
func TestAnalyzeFansOutPerConcept(t *testing.T) {
	const timeout = 10 * time.Second
	var (
		mu       sync.Mutex
		inFlight int
		peak     int
		once     sync.Once
	)
	release := make(chan struct{})
	open := func() { once.Do(func() { close(release) }) }
	inj := fault.New(1, map[string]fault.Rule{"core.solve": {Latency: time.Nanosecond}})
	inj.SetSleep(func(time.Duration) {
		mu.Lock()
		inFlight++
		if inFlight > peak {
			peak = inFlight
		}
		if peak >= 2 {
			open()
		}
		mu.Unlock()
		select {
		case <-release:
		case <-time.After(timeout):
			open() // builds are serial: wait once, not once per concept
		}
		mu.Lock()
		inFlight--
		mu.Unlock()
	})

	cfg := hammerConfig()
	cfg.Parallelism = 2
	cfg.Fault = inj
	sys := Build(cfg)
	eligible := 0
	for _, c := range sys.KB.Concepts() {
		if len(sys.KB.Instances(c)) >= cfg.MinTaskInstances {
			eligible++
		}
	}
	if eligible < 2 || eligible >= 64 {
		t.Fatalf("premise: want 2..63 eligible concepts, the world has %d", eligible)
	}
	if _, err := sys.Analyze(sys.KB); err != nil {
		t.Fatal(err)
	}
	if _, misses := sys.TaskCacheStats(); misses < 2 {
		t.Fatalf("premise: want at least 2 task-cache misses, got %d", misses)
	}
	mu.Lock()
	defer mu.Unlock()
	if peak < 2 {
		t.Fatalf("at most %d task build ran at once over %d eligible concepts with Parallelism 2", peak, eligible)
	}
}

// TestDetectSerialMatchesParallel runs the pipeline to multi-task
// detection at Parallelism 1 and 4: the labels and every cached manifold
// matrix must be bit-identical, whatever order the workers built them
// in. The manifold memo is keyed on task pointers, which differ between
// the two systems, so matrices are matched through each run's own
// tasks, concept by concept.
func TestDetectSerialMatchesParallel(t *testing.T) {
	type run struct {
		sys    *System
		a      *Analysis
		labels clean.Labels
		builds int
	}
	do := func(parallelism int) run {
		cfg := hammerConfig()
		cfg.Parallelism = parallelism
		sys := Build(cfg)
		a, err := sys.Analyze(sys.KB)
		if err != nil {
			t.Fatal(err)
		}
		labels, err := sys.Detect(a, DetectMultiTask)
		if err != nil {
			t.Fatal(err)
		}
		_, builds := sys.manifolds.Stats()
		return run{sys, a, labels, builds}
	}
	serial, parallel := do(1), do(4)
	if len(serial.labels) == 0 {
		t.Fatal("serial detection labeled nothing")
	}
	if !reflect.DeepEqual(serial.labels, parallel.labels) {
		t.Fatal("detection labels differ between Parallelism 1 and 4")
	}
	if !reflect.DeepEqual(serial.a.Concepts, parallel.a.Concepts) {
		t.Fatal("analysis task concepts differ between Parallelism 1 and 4")
	}
	cached := 0
	for i, st := range serial.a.Tasks {
		c := st.Concept
		want, wantOK := serial.sys.manifolds.Get(st)
		got, gotOK := parallel.sys.manifolds.Get(parallel.a.Tasks[i])
		if wantOK != gotOK {
			t.Fatalf("concept %q: manifold cached %v (serial) vs %v (parallel)", c, wantOK, gotOK)
		}
		if !wantOK {
			continue
		}
		cached++
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("concept %q: manifold shape %d×%d, want %d×%d", c, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i, v := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("concept %q: manifold entry %d differs between Parallelism 1 and 4", c, i)
			}
		}
	}
	// Every matrix the memo holds was built by a miss, so equal build
	// counts matching the tasks found above means no cached matrix went
	// unchecked.
	if cached == 0 || serial.builds != cached || parallel.builds != cached {
		t.Fatalf("manifold builds %d (serial) and %d (parallel), %d matrices cached per run",
			serial.builds, parallel.builds, cached)
	}
}

// TestDetectMatchesReferenceLoop pins multi-task Detect's per-task
// fan-out and its shared fallback calibration to the serial loop it
// replaced: train once, then for every task calibrateFor its own
// detector (or the mean detector when it has none) and PredictTask,
// then guard. On the smoke-scale pipeline (the default world over 6,000
// sentences), at Parallelism 1 and 2, predictMultiTask's labels must
// equal the loop's before the guard — the guard demotes every DP call
// on the seedless concepts, so only the unguarded labels show their
// calibration — and Detect's must equal them after it. The world has
// tasks calibrating alone, tasks pooling with their own detector and
// seedless tasks on the shared fallback.
func TestDetectMatchesReferenceLoop(t *testing.T) {
	for _, parallelism := range []int{1, 2} {
		cfg := DefaultConfig()
		cfg.Corpus.NumSentences = 6000
		cfg.Parallelism = parallelism
		sys := Build(cfg)
		a, err := sys.Analyze(sys.KB)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.Detect(a, DetectMultiTask)
		if err != nil {
			t.Fatal(err)
		}

		mtCfg := sys.Cfg.MultiTask
		mtCfg.ManifoldOf = sys.manifoldFor
		res, err := learn.TrainMultiTask(a.Tasks, mtCfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		fallback := meanDetector(res.Detectors)
		unguarded := make([]map[string]dp.Label, len(a.Tasks))
		want := clean.Labels{}
		alone, pooledOwn, pooledFallback := 0, 0, 0
		for i, task := range a.Tasks {
			det := res.Detectors[task.Concept]
			switch {
			case det == nil:
				det = fallback
				pooledFallback++
			case learn.NewSeedSet(task).BothSides():
				alone++
			default:
				pooledOwn++
			}
			unguarded[i] = learn.PredictTask(calibrateFor(det, task, learn.NewSeedSet(a.Tasks...)), task, false)
			want[task.Concept] = maps.Clone(unguarded[i])
			guardDPs(want[task.Concept], task)
		}
		if alone == 0 || pooledOwn == 0 || pooledFallback == 0 {
			t.Fatalf("premise: want every calibration path, got %d alone, %d pooled with own detector, %d on the fallback",
				alone, pooledOwn, pooledFallback)
		}
		if labels := predictMultiTask(a.Tasks, res.Detectors, parallelism); !reflect.DeepEqual(labels, unguarded) {
			t.Fatalf("%d workers: unguarded labels differ from the serial calibrateFor + PredictTask loop", parallelism)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parallelism %d: Detect labels differ from the serial calibrateFor + PredictTask loop", parallelism)
		}
	}
}
