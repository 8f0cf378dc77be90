package driftclean

import (
	"context"
	"errors"
	"testing"

	"driftclean/internal/bench"
	"driftclean/internal/kpca"
)

// Pinned smoke-scale KB fingerprints, one per eigensolver. The jacobi
// value is the fingerprint the pipeline produced before the top-k solver
// existed — the escape hatch must keep reproducing it byte for byte.
// The topk value pins today's default path so unintended numeric drift
// in the new solver shows up as a failure here, not downstream.
const (
	smokeFingerprintJacobi = "83298ece07571319"
	smokeFingerprintTopK   = "31af70aec53caf8f"
	smokeSentences         = 6000
)

func smokeFingerprint(t *testing.T, solver kpca.Solver) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Corpus.NumSentences = smokeSentences
	cfg.Clean.MaxRounds = 1
	cfg.KPCA.Solver = solver
	rep, err := CleanContext(context.Background(), WithConfig(cfg))
	if err != nil && !errors.Is(err, ErrNoDPsDetected) {
		t.Fatalf("smoke pipeline (%v solver) failed: %v", solver, err)
	}
	return bench.Fingerprint(rep.System.KB)
}

// TestJacobiEscapeHatchReproducesLegacyOutput: selecting the Jacobi
// oracle must reproduce the exact pre-top-k pipeline output — the escape
// hatch is only an escape hatch if it restores the old bytes.
func TestJacobiEscapeHatchReproducesLegacyOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale pipeline run")
	}
	if got := smokeFingerprint(t, kpca.SolverJacobi); got != smokeFingerprintJacobi {
		t.Fatalf("jacobi escape hatch fingerprint %s != legacy %s", got, smokeFingerprintJacobi)
	}
}

// TestTopKDefaultFingerprintPinned: the default (top-k) path's smoke
// fingerprint is pinned so solver changes are reviewed deliberately,
// mirroring the driftbench -check gate inside go test.
func TestTopKDefaultFingerprintPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale pipeline run")
	}
	if got := smokeFingerprint(t, kpca.SolverTopK); got != smokeFingerprintTopK {
		t.Fatalf("top-k smoke fingerprint %s != pinned %s", got, smokeFingerprintTopK)
	}
}
