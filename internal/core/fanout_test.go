package core

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"driftclean/internal/clean"
	"driftclean/internal/fault"
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
