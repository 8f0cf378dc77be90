package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"driftclean/internal/kb"
	"driftclean/internal/kb/binsnap"
	"driftclean/internal/kb/kbio"
	"driftclean/internal/snapshot"
)

// TestFormatsServeIdenticalResponses is the differential gate for the
// binary snapshot format: the heap KB frozen in memory and the same KB
// saved as a binary snapshot and mmap-opened through kbio.FreezeFile
// must produce byte-identical JSON for every /v1/* response the service
// can emit — the serving layer is not allowed to know or care which
// representation backs a snapshot.
func TestFormatsServeIdenticalResponses(t *testing.T) {
	k := differentialKB(t)
	binPath := filepath.Join(t.TempDir(), "kb.bin")
	if err := binsnap.WriteFile(binPath, k); err != nil {
		t.Fatal(err)
	}
	binSnap, _, err := kbio.FreezeFile(binPath)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("single service", func(t *testing.T) {
		assertServicesAgree(t, k,
			New(snapshot.Freeze(k), Options{}),
			New(binSnap, Options{}))
	})
}

// assertServicesAgree compares the full query surface of two services
// backed by different representations of the same KB, response by
// response, at the JSON byte level.
func assertServicesAgree(t *testing.T, k *kb.KB, heapSvc, binSvc *Service) {
	t.Helper()
	ctx := context.Background()

	// Generation is process-global freeze state, not response content;
	// it necessarily differs between the two freezes.
	wantStats, err1 := heapSvc.Stats(ctx)
	gotStats, err2 := binSvc.Stats(ctx)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	wantStats.Generation, gotStats.Generation = 0, 0
	assertSameJSON(t, "stats", wantStats, gotStats)

	compare := func(what string, f func(*Service) (any, error)) {
		t.Helper()
		want, err1 := f(heapSvc)
		got, err2 := f(binSvc)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: errors diverge: heap=%v binary=%v", what, err1, err2)
		}
		if err1 != nil {
			// Failures must agree on classification and message too.
			if errors.Is(err1, ErrNotFound) != errors.Is(err2, ErrNotFound) || err1.Error() != err2.Error() {
				t.Fatalf("%s: errors diverge: heap=%v binary=%v", what, err1, err2)
			}
			return
		}
		assertSameJSON(t, what, want, got)
	}

	compare("concepts", func(s *Service) (any, error) { return s.Concepts(ctx) })
	compare("drifted all", func(s *Service) (any, error) { return s.Drifted(ctx, "", 50) })
	compare("instances of missing", func(s *Service) (any, error) { return s.Instances(ctx, "no-such") })
	compare("explain of missing", func(s *Service) (any, error) { return s.Explain(ctx, "no-such", "none", 0) })

	for _, c := range k.Concepts() {
		c := c
		compare("instances "+c, func(s *Service) (any, error) { return s.Instances(ctx, c) })
		compare("drifted "+c, func(s *Service) (any, error) { return s.Drifted(ctx, c, 10) })
		for _, e := range k.Instances(c) {
			e := e
			for _, maxS := range []int{0, 2} {
				maxS := maxS
				compare(fmt.Sprintf("explain %s/%s/%d", c, e, maxS), func(s *Service) (any, error) {
					return s.Explain(ctx, c, e, maxS)
				})
			}
		}
	}
}

// assertSameJSON requires two responses to encode to identical bytes —
// the literal wire-format equality the HTTP layer inherits.
func assertSameJSON(t *testing.T, what string, want, got any) {
	t.Helper()
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(w) != string(g) {
		t.Fatalf("%s: responses differ\n heap:   %s\n binary: %s", what, w, g)
	}
}

// differentialKB grows a KB through the real mutation API: several
// concepts, multi-iteration trigger chains, shared instances across
// concepts, and rollback-induced inactive state.
func differentialKB(t *testing.T) *kb.KB {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	k := kb.New()
	sentence := 0
	for c := 0; c < 5; c++ {
		concept := fmt.Sprintf("concept%d", c)
		known := []string{}
		for it := 1; it <= 4; it++ {
			for n := 0; n < 4; n++ {
				inst := fmt.Sprintf("c%d-i%d-e%d", c, it, n)
				var triggers []string
				if it > 1 {
					triggers = []string{known[rng.Intn(len(known))]}
				}
				k.AddExtraction(sentence, concept, []string{concept}, []string{inst}, triggers, it)
				sentence++
				known = append(known, inst)
			}
		}
		// A shared instance under every concept exercises the reverse
		// index, and a rollback leaves inactive extractions behind.
		k.AddExtraction(sentence, concept, nil, []string{"shared-instance"}, []string{known[0]}, 4)
		sentence++
		k.RemovePairs([]kb.Pair{{Concept: concept, Instance: fmt.Sprintf("c%d-i2-e0", c)}})
	}
	return k
}
