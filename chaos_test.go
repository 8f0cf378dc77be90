package driftclean

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"driftclean/internal/bench"
	"driftclean/internal/fault"
)

// chaosConfig is a small pipeline configuration for fault-schedule runs:
// big enough to exercise every stage (including a real cleaning round),
// small enough to run several times per test.
func chaosConfig() Config {
	cfg := DefaultConfig()
	cfg.World.NumDomains = 2
	cfg.World.InstancesPerConceptMin = 40
	cfg.World.InstancesPerConceptMax = 80
	cfg.Corpus.NumSentences = 6000
	cfg.Clean.MaxRounds = 1
	return cfg
}

// pipelineSites are every fault site the batch pipeline consults,
// derived from the generated fault.Registry (driftlint -gensites)
// rather than a hand-kept list: a new stage site lands in the registry
// and is chaos-covered here automatically. Serving sites (serve.*) have
// their own suite in internal/serve.
var pipelineSites = pipelineSitesFromRegistry()

func pipelineSitesFromRegistry() []string {
	var sites []string
	for _, site := range fault.Registry {
		switch {
		case strings.HasPrefix(site, "corpus."),
			strings.HasPrefix(site, "extract."),
			strings.HasPrefix(site, "clean."),
			strings.HasPrefix(site, "core."):
			sites = append(sites, site)
		}
	}
	return sites
}

// TestChaosDisabledFaultsAreNoOp: acceptance (a) — a nil injector and an
// enabled-but-ruleless injector must both leave the pipeline on its
// production path, producing byte-identical final KBs.
func TestChaosDisabledFaultsAreNoOp(t *testing.T) {
	run := func(inj *fault.Injector) string {
		cfg := chaosConfig()
		cfg.Fault = inj
		rep, err := CleanContext(context.Background(), WithConfig(cfg))
		if err != nil && !errors.Is(err, ErrNoDPsDetected) {
			t.Fatalf("fault-free pipeline failed: %v", err)
		}
		return bench.Fingerprint(rep.System.KB)
	}
	plain := run(nil)
	armedButEmpty := run(fault.New(1234, nil))
	if plain != armedButEmpty {
		t.Fatalf("ruleless injector changed the KB: %s vs %s", plain, armedButEmpty)
	}
	// Every site must still have been visited (the seams are live, they
	// just decided "no fault" every time — that's the no-op guarantee).
	counting := fault.New(1, nil)
	cfg := chaosConfig()
	cfg.Fault = counting
	if _, err := CleanContext(context.Background(), WithConfig(cfg)); err != nil && !errors.Is(err, ErrNoDPsDetected) {
		t.Fatal(err)
	}
	for _, site := range pipelineSites {
		if counting.Count(site) == 0 {
			t.Errorf("site %s never consulted the injector", site)
		}
	}
}

// TestChaosLatencyOnlyIsByteIdentical: acceptance (a), second half — a
// schedule that injects only latency (faults that eventually "succeed")
// must not change a single byte of the final KB.
func TestChaosLatencyOnlyIsByteIdentical(t *testing.T) {
	run := func(inj *fault.Injector) string {
		cfg := chaosConfig()
		cfg.Fault = inj
		rep, err := CleanContext(context.Background(), WithConfig(cfg))
		if err != nil && !errors.Is(err, ErrNoDPsDetected) {
			t.Fatalf("pipeline failed under latency-only chaos: %v", err)
		}
		return bench.Fingerprint(rep.System.KB)
	}
	baseline := run(nil)
	lat := fault.New(77, map[string]fault.Rule{
		"corpus.*":  {Latency: time.Millisecond, LatencyProb: 0.5},
		"extract.*": {Latency: time.Millisecond, LatencyProb: 0.5},
		"clean.*":   {Latency: time.Millisecond, LatencyProb: 0.5},
		"core.*":    {Latency: time.Millisecond, LatencyProb: 0.5},
	})
	// The injector sleeps on whichever worker hit the site, so the
	// counter must be safe for concurrent use.
	var sleeps atomic.Int64
	lat.SetSleep(func(time.Duration) { sleeps.Add(1) })
	if got := run(lat); got != baseline {
		t.Fatalf("latency-only chaos changed the KB: %s vs %s", got, baseline)
	}
	if sleeps.Load() == 0 {
		t.Fatal("latency schedule never slept — chaos exercised nothing")
	}
}

// TestChaosSmokeFingerprintMatchesBenchArtifact: the KB the chaos
// harness produces at the bench smoke scale must match the fingerprint
// the PR 3 benchmark artifact records for that scale, proving the fault
// seams did not fork the production code path.
func TestChaosSmokeFingerprintMatchesBenchArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale pipeline run")
	}
	data, err := os.ReadFile("BENCH_pipeline.json")
	if err != nil {
		t.Skipf("no bench artifact: %v", err)
	}
	var artifact struct {
		Scales []struct {
			Name      string `json:"name"`
			Sentences int    `json:"sentences"`
			Rounds    int    `json:"clean_rounds"`
			Serial    struct {
				Fingerprint string `json:"kb_fingerprint"`
			} `json:"serial"`
		} `json:"scales"`
	}
	if err := json.Unmarshal(data, &artifact); err != nil {
		t.Fatalf("parsing BENCH_pipeline.json: %v", err)
	}
	if len(artifact.Scales) == 0 {
		t.Skip("bench artifact has no scales")
	}
	sc := artifact.Scales[0]
	cfg := DefaultConfig()
	cfg.Corpus.NumSentences = sc.Sentences
	cfg.Clean.MaxRounds = sc.Rounds
	cfg.Fault = fault.New(1, nil) // armed, ruleless: must be a pure no-op
	rep, err := CleanContext(context.Background(), WithConfig(cfg))
	if err != nil && !errors.Is(err, ErrNoDPsDetected) {
		t.Fatal(err)
	}
	if got := bench.Fingerprint(rep.System.KB); got != sc.Serial.Fingerprint {
		t.Fatalf("scale %s fingerprint %s != bench artifact %s",
			sc.Name, got, sc.Serial.Fingerprint)
	}
}

// TestChaosPanicSurfacesAsReportError: acceptance (c) — a panic injected
// into any pipeline stage must come back as an ErrStagePanic-wrapped
// error from the public API, never crash the process, and stages past
// the build must still hand back the partial report.
func TestChaosPanicSurfacesAsReportError(t *testing.T) {
	for _, site := range pipelineSites {
		t.Run(site, func(t *testing.T) {
			cfg := chaosConfig()
			cfg.Fault = fault.New(5, map[string]fault.Rule{site: {PanicProb: 1}})
			rep, err := CleanWithContext(context.Background(), DetectMultiTask, WithConfig(cfg))
			if err == nil {
				t.Fatalf("forced panic at %s produced no error", site)
			}
			if !errors.Is(err, ErrStagePanic) {
				t.Fatalf("%s: error does not wrap ErrStagePanic: %v", site, err)
			}
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("%s: error lost the injected-fault sentinel: %v", site, err)
			}
			buildSite := site == "corpus.shard" || site == "extract.parse" || site == "extract.resolve"
			if buildSite && rep != nil {
				t.Fatalf("%s: build-stage panic returned a report", site)
			}
			if !buildSite {
				// The cleaning stage panicked after a successful build: the
				// partial report documents how far the run got.
				if rep == nil {
					t.Fatalf("%s: cleaning-stage panic dropped the partial report", site)
				}
				if rep.System == nil || rep.PairsBefore == 0 {
					t.Fatalf("%s: partial report missing the built system", site)
				}
			}
		})
	}
}

// TestChaosErrorInjectionIsDeterministic: two runs under the same fault
// seed fail identically; the error is reproducible from the seed alone.
func TestChaosErrorInjectionIsDeterministic(t *testing.T) {
	run := func() string {
		cfg := chaosConfig()
		cfg.Fault = fault.New(21, map[string]fault.Rule{"extract.resolve": {FailFirst: 2, PanicProb: 0}})
		// FailFirst on a Check site escalates to a panic on the first two
		// iterations; the API wraps it.
		_, err := CleanWithContext(context.Background(), DetectMultiTask, WithConfig(cfg))
		if err == nil {
			return ""
		}
		return err.Error()
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("injected FailFirst produced no error")
	}
	if a != b {
		t.Fatalf("same seed produced different failures:\n%s\n%s", a, b)
	}
}
