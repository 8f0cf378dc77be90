package bench

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyServeFingerprint is the response fingerprint of the 1,200-sentence
// KB tinyServeConfig serves. It pins every /v1/* response body: a change
// to what the service answers for the same KB changes it.
const tinyServeFingerprint = "b54ca4095055855f"

// tinyServeConfig is the smallest sweep that still exercises both load
// modes.
func tinyServeConfig() ServeConfig {
	return ServeConfig{
		Sentences:      1200,
		ClosedWorkers:  []int{2},
		OpenRates:      []int{100},
		Duration:       40 * time.Millisecond,
		Seed:           1,
		ReloadReplicas: 2,
	}
}

// TestRunServeProducesCoherentArtifact: one end-to-end harness run must
// reproduce the pinned response fingerprint, fill every cell, validate
// cleanly and round-trip through WriteJSON.
func TestRunServeProducesCoherentArtifact(t *testing.T) {
	res := RunServe(tinyServeConfig())

	if res.ResponseFingerprint != tinyServeFingerprint {
		t.Fatalf("response fingerprint = %s, want %s", res.ResponseFingerprint, tinyServeFingerprint)
	}
	if got, want := len(res.Cells), 2; got != want {
		t.Fatalf("cells = %d, want %d (one per load mode)", got, want)
	}
	for _, c := range res.Cells {
		if c.Latency.Count == 0 {
			t.Errorf("cell mode=%s completed no queries", c.Mode)
		}
		if c.Latency.Errors != 0 {
			t.Errorf("cell mode=%s had %d failed queries", c.Mode, c.Latency.Errors)
		}
	}
	if res.Reload == nil {
		t.Fatal("run produced no reload comparison")
	}
	if res.Reload.Replicas != 2 || res.Reload.Iterations < 1 {
		t.Fatalf("reload comparison shape: %+v", res.Reload)
	}
	if res.Reload.Binary.FileBytes <= 0 || res.Reload.Gob.FileBytes <= 0 {
		t.Fatalf("reload snapshot sizes: %+v", res.Reload)
	}
	if err := ValidateServe(res); err != nil {
		t.Fatalf("ValidateServe on a fresh run: %v", err)
	}

	path := filepath.Join(t.TempDir(), "serve.json")
	if err := res.WriteJSON(path); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
}

// TestValidateServeRejectsMalformedArtifacts: each coherence rule fires
// on the artifact shape it guards against.
func TestValidateServeRejectsMalformedArtifacts(t *testing.T) {
	good := func() *ServeResult {
		return &ServeResult{
			ResponseFingerprint: "a",
			Cells: []ServeCell{{
				Mode: "closed", Workers: 2,
				Latency: LatencyStats{Count: 10, P50Micros: 1, P99Micros: 2, P999Micros: 3, MaxMicros: 4},
			}},
			Reload: &ReloadStats{
				Replicas: 2, Iterations: 7,
				Gob:      ReloadFormatStats{FileBytes: 1000, ReloadP50Micros: 50, ReloadMaxMicros: 60, HeapBytesPerReplica: 4096},
				Binary:   ReloadFormatStats{FileBytes: 500, ReloadP50Micros: 5, ReloadMaxMicros: 6, HeapBytesPerReplica: 1024},
				SpeedupX: 10,
			},
		}
	}
	if err := ValidateServe(good()); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*ServeResult)
		want   string
	}{
		{"no fingerprint", func(r *ServeResult) { r.ResponseFingerprint = "" }, "no response fingerprint"},
		{"no cells", func(r *ServeResult) { r.Cells = nil }, "no load cells"},
		{"no queries", func(r *ServeResult) { r.Cells[0].Latency.Count = 0 }, "no completed queries"},
		{"bad mode", func(r *ServeResult) { r.Cells[0].Mode = "sideways" }, "unknown mode"},
		{"unordered percentiles", func(r *ServeResult) { r.Cells[0].Latency.P99Micros = 9999 }, "out of order"},
		{"errors", func(r *ServeResult) { r.Cells[0].Latency.Errors = 3 }, "failed"},
		{"no reload block", func(r *ServeResult) { r.Reload = nil }, "no reload comparison"},
		{"no reload replicas", func(r *ServeResult) { r.Reload.Replicas = 0 }, "replicas"},
		{"empty binary snapshot", func(r *ServeResult) { r.Reload.Binary.FileBytes = 0 }, "binary snapshot file is empty"},
		{"zero gob p50", func(r *ServeResult) { r.Reload.Gob.ReloadP50Micros = 0 }, "latencies incoherent"},
		{"reload max below p50", func(r *ServeResult) { r.Reload.Binary.ReloadMaxMicros = 1 }, "latencies incoherent"},
		{"negative reload heap", func(r *ServeResult) { r.Reload.Gob.HeapBytesPerReplica = -1 }, "heap per replica negative"},
		{"binary slower than gob", func(r *ServeResult) { r.Reload.SpeedupX = 0.5 }, "must not be slower"},
	}
	for _, tc := range cases {
		r := good()
		tc.mutate(r)
		err := ValidateServe(r)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestPercentileExact: percentiles are exact order statistics.
func TestPercentileExact(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1) // 1..1000
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0, 1},
		{0.5, 500},
		{0.99, 990},
		{0.999, 999},
		{1, 1000},
	}
	for _, tc := range cases {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile([]int64{42}, 0.999); got != 42 {
		t.Errorf("singleton percentile = %d, want 42", got)
	}
}
