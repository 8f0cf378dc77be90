package core

import (
	"math"
	"reflect"
	"sort"
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
// in.
func TestDetectSerialMatchesParallel(t *testing.T) {
	run := func(parallelism int) (*System, clean.Labels) {
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
		return sys, labels
	}
	serial, serialLabels := run(1)
	parallel, parallelLabels := run(4)
	if len(serialLabels) == 0 {
		t.Fatal("serial detection labeled nothing")
	}
	if !reflect.DeepEqual(serialLabels, parallelLabels) {
		t.Fatal("detection labels differ between Parallelism 1 and 4")
	}
	var concepts []string
	for c := range serial.manifoldCache {
		concepts = append(concepts, c)
	}
	sort.Strings(concepts)
	if len(concepts) == 0 || len(concepts) != len(parallel.manifoldCache) {
		t.Fatalf("manifold cache sizes %d (serial) and %d (parallel)", len(concepts), len(parallel.manifoldCache))
	}
	for _, c := range concepts {
		want := serial.manifoldCache[c].a
		got, ok := parallel.manifoldCache[c]
		if !ok {
			t.Fatalf("concept %q has no parallel manifold matrix", c)
		}
		if got.a.Rows != want.Rows || got.a.Cols != want.Cols {
			t.Fatalf("concept %q: manifold shape %d×%d, want %d×%d", c, got.a.Rows, got.a.Cols, want.Rows, want.Cols)
		}
		for i, v := range want.Data {
			if math.Float64bits(got.a.Data[i]) != math.Float64bits(v) {
				t.Fatalf("concept %q: manifold entry %d differs between Parallelism 1 and 4", c, i)
			}
		}
	}
}
