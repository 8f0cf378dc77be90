// Serving benchmark: the driftload harness behind BENCH_serve.json.
//
// One pipeline run builds a KB; the harness then freezes it once,
// serves that snapshot through one serve.Service per load cell and
// drives a seeded query mix against it in-process — closed-loop (a
// fixed worker pool, each worker issuing its next query as soon as the
// last returns) and open-loop (a fixed offered rate, arrivals
// independent of completions, the regime where queues actually build). Every cell reports exact p50/p99/p999/max latencies computed
// from the full sorted sample, never an approximation.
//
// Before any load runs, the harness fingerprints a canonical response
// set (stats, listings, rankings, point lookups), so a change to what
// the service answers shows in the artifact.
package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"driftclean/internal/core"
	"driftclean/internal/corpus"
	"driftclean/internal/extract"
	"driftclean/internal/kb"
	"driftclean/internal/serve"
	"driftclean/internal/snapshot"
	"driftclean/internal/world"
)

// ServeConfig parameterizes one serving-benchmark run.
type ServeConfig struct {
	// Sentences is the corpus size of the KB under load.
	Sentences int
	// ClosedWorkers are the closed-loop worker counts swept.
	ClosedWorkers []int
	// OpenRates are the open-loop offered rates (queries per second)
	// swept.
	OpenRates []int
	// Duration is the wall time of each load cell.
	Duration time.Duration
	// Seed drives the query mix; equal seeds issue identical query
	// sequences per worker.
	Seed int64
	// CacheSize, MaxInflight and QueueDepth configure the service
	// (zero values: default cache, no admission control).
	CacheSize   int
	MaxInflight int
	QueueDepth  int
	// ReloadReplicas is how many co-resident snapshot replicas the
	// reload benchmark holds live for its per-replica heap measurement
	// (0 skips the reload benchmark entirely).
	ReloadReplicas int
	// Progress, when non-nil, receives one line per completed cell.
	Progress func(string)
}

// DefaultServeConfig is the full sweep behind the committed
// BENCH_serve.json.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{
		Sentences:      12000,
		ClosedWorkers:  []int{1, 4, 16},
		OpenRates:      []int{500, 2000},
		Duration:       1500 * time.Millisecond,
		Seed:           1,
		ReloadReplicas: 4,
	}
}

// SmokeServeConfig is the tiny CI sweep; its value is exercising the
// harness end to end, not the timings.
func SmokeServeConfig() ServeConfig {
	return ServeConfig{
		Sentences:      3000,
		ClosedWorkers:  []int{4},
		OpenRates:      []int{200},
		Duration:       150 * time.Millisecond,
		Seed:           1,
		ReloadReplicas: 2,
	}
}

// LatencyStats summarizes one cell's latency sample. Percentiles are
// exact order statistics of the sorted sample, in microseconds.
type LatencyStats struct {
	Count      int64   `json:"count"`
	Errors     int64   `json:"errors"`
	Shed       int64   `json:"shed"`
	MeanMicros float64 `json:"mean_us"`
	P50Micros  int64   `json:"p50_us"`
	P99Micros  int64   `json:"p99_us"`
	P999Micros int64   `json:"p999_us"`
	MaxMicros  int64   `json:"max_us"`
	// ThroughputRPS is completed queries per second of cell wall time.
	ThroughputRPS float64 `json:"throughput_rps"`
}

// ServeCell is one point of the saturation sweep: a (load mode,
// intensity) combination and its measured latencies.
type ServeCell struct {
	// Mode is "closed" (Workers issue back to back) or "open" (arrivals
	// at OfferedRPS regardless of completions).
	Mode       string       `json:"mode"`
	Workers    int          `json:"workers,omitempty"`
	OfferedRPS int          `json:"offered_rps,omitempty"`
	DurationS  float64      `json:"duration_s"`
	Latency    LatencyStats `json:"latency"`
}

// ServeResult is the full artifact written to BENCH_serve.json.
type ServeResult struct {
	GeneratedUnix int64  `json:"generated_unix"`
	CPUs          int    `json:"cpus"`
	GoMaxProcs    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	Sentences     int    `json:"sentences"`
	Seed          int64  `json:"seed"`
	// Concepts and Pairs describe the KB under load.
	Concepts int `json:"concepts"`
	Pairs    int `json:"kb_pairs"`
	// ResponseFingerprint is the FNV-64a hash of the canonical response
	// set's JSON encodings (see responseFingerprint).
	ResponseFingerprint string `json:"response_fingerprint"`
	// Reload measures hot-reload latency and per-replica heap of this
	// run's KB saved as a binary snapshot.
	Reload *ReloadStats `json:"reload"`
	Cells  []ServeCell  `json:"cells"`
}

// RunServe builds the KB, fingerprints the service's responses, runs
// the load sweep and assembles the artifact.
func RunServe(cfg ServeConfig) *ServeResult {
	res := &ServeResult{
		GeneratedUnix: time.Now().Unix(),
		CPUs:          runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Sentences:     cfg.Sentences,
		Seed:          cfg.Seed,
	}

	snap, benchKB := buildServeSnapshot(cfg.Sentences)
	res.Concepts = snap.Stats().Concepts
	res.Pairs = snap.NumPairs()
	space := newQuerySpace(snap)
	if cfg.Progress != nil {
		cfg.Progress(fmt.Sprintf("snapshot ready: %d concepts, %d pairs", res.Concepts, res.Pairs))
	}

	if cfg.ReloadReplicas > 0 {
		reload, err := measureReload(benchKB, cfg.ReloadReplicas, cfg.Progress)
		if err != nil {
			// The reload measurement is part of the artifact contract;
			// failing to produce it is a failed run, not a partial one.
			panic(fmt.Sprintf("bench: reload measurement failed: %v", err))
		}
		res.Reload = reload
	}

	res.ResponseFingerprint = responseFingerprint(newServeService(snap, cfg), space)
	if cfg.Progress != nil {
		cfg.Progress("response fingerprint " + res.ResponseFingerprint)
	}

	// Each cell gets a fresh service, so no cell inherits another's
	// warm cache.
	for _, workers := range cfg.ClosedWorkers {
		cell := runClosedCell(newServeService(snap, cfg), space, cfg, workers)
		reportServe(cfg.Progress, cell)
		res.Cells = append(res.Cells, cell)
	}
	for _, rate := range cfg.OpenRates {
		cell := runOpenCell(newServeService(snap, cfg), space, cfg, rate)
		reportServe(cfg.Progress, cell)
		res.Cells = append(res.Cells, cell)
	}
	return res
}

// buildServeSnapshot runs world → corpus → extraction and freezes the
// raw extracted KB. Cleaning is skipped: the serving layer is
// indifferent to pair quality, and the uncleaned KB is the larger,
// harder-to-serve one. The KB itself is returned alongside the frozen
// snapshot so the reload benchmark can save it as a snapshot file;
// Freeze clones, so the returned KB stays independent of the snapshot.
func buildServeSnapshot(sentences int) (*snapshot.Snapshot, *kb.KB) {
	cfg := core.DefaultConfig()
	cfg.Corpus.NumSentences = sentences
	w := world.New(cfg.World)
	c := corpus.Generate(w, cfg.Corpus)
	ext := extract.Run(c, cfg.Extract)
	return snapshot.Freeze(ext.KB), ext.KB
}

// newServeService serves snap with the run's cache and admission
// settings, as driftserve -kb wires it.
func newServeService(snap *snapshot.Snapshot, cfg ServeConfig) *serve.Service {
	return serve.New(snap, serve.Options{
		CacheSize:   cfg.CacheSize,
		MaxInflight: cfg.MaxInflight,
		QueueDepth:  cfg.QueueDepth,
	})
}

// querySpace is the concept/instance population queries draw from.
type querySpace struct {
	concepts  []string
	instances [][]string // instances[i] belongs to concepts[i]
}

func newQuerySpace(snap *snapshot.Snapshot) *querySpace {
	qs := &querySpace{concepts: snap.Concepts()}
	qs.instances = make([][]string, len(qs.concepts))
	for i, c := range qs.concepts {
		qs.instances[i] = snap.Instances(c)
	}
	if len(qs.concepts) == 0 {
		panic("bench: serving snapshot has no concepts to query")
	}
	return qs
}

// issue runs one query drawn from rng against the service: a mix that
// touches every endpoint, dominated by the point lookups a serving KB
// actually sees. Returns whether the query was shed by admission.
func (qs *querySpace) issue(ctx context.Context, r *serve.Service, rng *rand.Rand) (shed bool, err error) {
	ci := rng.Intn(len(qs.concepts))
	concept := qs.concepts[ci]
	switch pick := rng.Intn(10); {
	case pick < 4: // 40% instance listings
		_, err = r.Instances(ctx, concept)
	case pick < 7: // 30% explains
		insts := qs.instances[ci]
		if len(insts) == 0 {
			_, err = r.Instances(ctx, concept)
			break
		}
		_, err = r.Explain(ctx, concept, insts[rng.Intn(len(insts))], 3)
	case pick < 8: // 10% concept-scoped drift rankings
		_, err = r.Drifted(ctx, concept, 10)
	case pick < 9: // 10% KB-wide drift rankings
		_, err = r.Drifted(ctx, "", 20)
	default: // 10% concept listings
		_, err = r.Concepts(ctx)
	}
	if errors.Is(err, serve.ErrOverloaded) {
		return true, nil
	}
	return false, err
}

// sample accumulates one cell's latencies; guarded by mu because open-
// loop arrivals complete on arbitrary goroutines.
type sample struct {
	mu     sync.Mutex
	nanos  []int64
	errors int64
	shed   int64
}

func (s *sample) add(d time.Duration, shed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case shed:
		s.shed++
	case err != nil:
		s.errors++
	default:
		s.nanos = append(s.nanos, int64(d))
	}
}

// stats reduces the sample to the exported summary.
func (s *sample) stats(wall time.Duration) LatencyStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := LatencyStats{
		Count:  int64(len(s.nanos)),
		Errors: s.errors,
		Shed:   s.shed,
	}
	if wall > 0 {
		ls.ThroughputRPS = float64(len(s.nanos)) / wall.Seconds()
	}
	if len(s.nanos) == 0 {
		return ls
	}
	sort.Slice(s.nanos, func(i, j int) bool { return s.nanos[i] < s.nanos[j] })
	var sum int64
	for _, n := range s.nanos {
		sum += n
	}
	us := int64(time.Microsecond)
	ls.MeanMicros = float64(sum) / float64(len(s.nanos)) / float64(us)
	ls.P50Micros = percentile(s.nanos, 0.50) / us
	ls.P99Micros = percentile(s.nanos, 0.99) / us
	ls.P999Micros = percentile(s.nanos, 0.999) / us
	ls.MaxMicros = s.nanos[len(s.nanos)-1] / us
	return ls
}

// percentile returns the exact q-quantile of sorted (nearest-rank on
// the zero-based index).
func percentile(sorted []int64, q float64) int64 {
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// runClosedCell drives `workers` goroutines, each issuing queries back
// to back until the cell duration elapses.
func runClosedCell(svc *serve.Service, space *querySpace, cfg ServeConfig, workers int) ServeCell {
	var smp sample
	ctx := context.Background()
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			for time.Now().Before(deadline) {
				t0 := time.Now()
				shed, err := space.issue(ctx, svc, rng)
				smp.add(time.Since(t0), shed, err)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	return ServeCell{
		Mode:      "closed",
		Workers:   workers,
		DurationS: wall.Seconds(),
		Latency:   smp.stats(wall),
	}
}

// runOpenCell offers queries at a fixed rate for the cell duration:
// arrivals are scheduled on the clock, not gated on completions, so a
// service slower than the offered rate accumulates genuine queueing
// delay — the regime where p99/p999 and admission control earn their
// keep.
func runOpenCell(svc *serve.Service, space *querySpace, cfg ServeConfig, rate int) ServeCell {
	var smp sample
	ctx := context.Background()
	interval := time.Second / time.Duration(rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	arrivals := int(cfg.Duration / interval)

	// One seeded stream per arrival index keeps the workload independent
	// of completion interleaving.
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < arrivals; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*104729))
			t0 := time.Now()
			shed, err := space.issue(ctx, svc, rng)
			smp.add(time.Since(t0), shed, err)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	return ServeCell{
		Mode:       "open",
		OfferedRPS: rate,
		DurationS:  wall.Seconds(),
		Latency:    smp.stats(wall),
	}
}

// responseFingerprint hashes a canonical response set — stats, the full
// concept listing, KB-wide and per-concept drift rankings, instance
// listings and a provenance explain per concept — through their JSON
// encodings, so the fingerprint pins the literal wire format.
func responseFingerprint(svc *serve.Service, space *querySpace) string {
	ctx := context.Background()
	h := fnv.New64a()
	feed := func(v any, err error) {
		if err != nil {
			panic(fmt.Sprintf("bench: fingerprint query failed: %v", err))
		}
		b, err := json.Marshal(v)
		if err != nil {
			panic(fmt.Sprintf("bench: fingerprint encoding failed: %v", err))
		}
		_, _ = h.Write(b)
		_, _ = h.Write([]byte{0x1f})
	}

	st, err := svc.Stats(ctx)
	// Generation is process-global state, not response content: two runs
	// of this process freeze different generation numbers for the same
	// KB. Zeroing it keeps fingerprints comparable across runs.
	st.Generation = 0
	feed(st, err)
	cs, err := svc.Concepts(ctx)
	feed(cs, err)
	dr, err := svc.Drifted(ctx, "", 100)
	feed(dr, err)
	for i, c := range space.concepts {
		ins, err := svc.Instances(ctx, c)
		feed(ins, err)
		dr, err := svc.Drifted(ctx, c, 5)
		feed(dr, err)
		if insts := space.instances[i]; len(insts) > 0 {
			ex, err := svc.Explain(ctx, c, insts[0], 3)
			feed(ex, err)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func reportServe(progress func(string), c ServeCell) {
	if progress == nil {
		return
	}
	load := fmt.Sprintf("workers=%d", c.Workers)
	if c.Mode == "open" {
		load = fmt.Sprintf("offered=%drps", c.OfferedRPS)
	}
	progress(fmt.Sprintf("%-6s %-14s %7.0f rps  p50 %5dus  p99 %6dus  p999 %6dus  max %6dus  shed %d err %d",
		c.Mode, load, c.Latency.ThroughputRPS,
		c.Latency.P50Micros, c.Latency.P99Micros, c.Latency.P999Micros, c.Latency.MaxMicros,
		c.Latency.Shed, c.Latency.Errors))
}

// ValidateServe checks an artifact's internal consistency: a response
// fingerprint must be recorded, every cell must hold a coherent latency
// summary, and a positive maxReload caps the reload p50. CI runs this
// against the freshly produced smoke artifact so a malformed or
// shortcut run fails loudly.
func ValidateServe(r *ServeResult, maxReload time.Duration) error {
	if r.ResponseFingerprint == "" {
		return fmt.Errorf("bench: artifact records no response fingerprint")
	}
	if len(r.Cells) == 0 {
		return fmt.Errorf("bench: artifact holds no load cells")
	}
	if err := validateReload(r.Reload, maxReload); err != nil {
		return err
	}
	for i, c := range r.Cells {
		l := c.Latency
		switch {
		case c.Mode != "closed" && c.Mode != "open":
			return fmt.Errorf("bench: cell %d: unknown mode %q", i, c.Mode)
		case l.Count <= 0:
			return fmt.Errorf("bench: cell %d (%s): no completed queries", i, c.Mode)
		case l.P50Micros > l.P99Micros || l.P99Micros > l.P999Micros || l.P999Micros > l.MaxMicros:
			return fmt.Errorf("bench: cell %d: percentiles out of order: p50=%d p99=%d p999=%d max=%d",
				i, l.P50Micros, l.P99Micros, l.P999Micros, l.MaxMicros)
		case l.Errors > 0:
			return fmt.Errorf("bench: cell %d: %d queries failed (sheds are reported separately)", i, l.Errors)
		}
	}
	return nil
}

// validateReload checks the reload block: present, coherent, and with
// its p50 at or under a positive ceiling.
func validateReload(rl *ReloadStats, ceiling time.Duration) error {
	switch {
	case rl == nil:
		return fmt.Errorf("bench: artifact has no reload block")
	case rl.Replicas < 1 || rl.Iterations < 1:
		return fmt.Errorf("bench: reload ran %d replicas over %d iterations", rl.Replicas, rl.Iterations)
	case rl.FileBytes <= 0:
		return fmt.Errorf("bench: reload: snapshot file is empty")
	case rl.ReloadP50Micros < 1 || rl.ReloadMaxMicros < rl.ReloadP50Micros:
		return fmt.Errorf("bench: reload: latencies incoherent: p50=%dus max=%dus", rl.ReloadP50Micros, rl.ReloadMaxMicros)
	case rl.HeapBytesPerReplica < 0:
		return fmt.Errorf("bench: reload: heap per replica negative")
	case ceiling > 0 && time.Duration(rl.ReloadP50Micros)*time.Microsecond > ceiling:
		return fmt.Errorf("bench: reload p50 %dus is above the %v ceiling", rl.ReloadP50Micros, ceiling)
	}
	return nil
}

// WriteJSON writes the artifact, pretty-printed, to path.
func (r *ServeResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding serve artifact: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing serve artifact: %w", err)
	}
	return nil
}
