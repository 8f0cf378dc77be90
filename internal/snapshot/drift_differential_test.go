package snapshot_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"driftclean/internal/kb"
	"driftclean/internal/kb/binsnap"
	"driftclean/internal/kb/kbio"
	"driftclean/internal/snapshot"
)

// rankingKB grows a KB through the real mutation API with random
// trigger chains, so depths tie within and across concepts, plus an
// instance shared by every concept and a cascade removal that leaves
// inactive state behind.
func rankingKB() *kb.KB {
	rng := rand.New(rand.NewSource(11))
	k := kb.New()
	sentence := 0
	for c := 0; c < 6; c++ {
		concept := fmt.Sprintf("concept%d", c)
		var known []string
		for it := 1; it <= 5; it++ {
			for i := 0; i < 3+c%3; i++ {
				inst := fmt.Sprintf("c%d-i%d-e%d", c, it, i)
				var triggers []string
				if it > 1 {
					triggers = []string{known[rng.Intn(len(known))]}
				}
				k.AddExtraction(sentence, concept, []string{concept}, []string{inst}, triggers, it)
				sentence++
				known = append(known, inst)
			}
		}
		k.AddExtraction(sentence, concept, nil, []string{"shared"}, []string{known[len(known)-1]}, 6)
		sentence++
		k.RemovePairs([]kb.Pair{{Concept: concept, Instance: fmt.Sprintf("c%d-i2-e0", c)}})
	}
	return k
}

// recomputeRanking is the oracle: the per-request algorithm the drift
// index replaced. It retraces every chain with DriftDepth and sorts the
// rows canonically (depth descending, concept, name). An empty concept
// ranks every concept of the view, tagging rows with their concept.
func recomputeRanking(s *snapshot.Snapshot, concept string) []snapshot.DriftRow {
	concepts, tag := []string{concept}, false
	if concept == "" {
		concepts, tag = s.Concepts(), true
	}
	var rows []snapshot.DriftRow
	for _, c := range concepts {
		depth := s.DriftDepth(c)
		for _, e := range s.Instances(c) {
			r := snapshot.DriftRow{Name: e, Depth: depth[e]}
			if tag {
				r.Concept = c
			}
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Depth != b.Depth {
			return a.Depth > b.Depth
		}
		if a.Concept != b.Concept {
			return a.Concept < b.Concept
		}
		return a.Name < b.Name
	})
	return rows
}

// TestDriftIndexMatchesRecompute is the differential gate for the drift
// index: on heap and binary snapshots, every concept ranking and the
// KB-wide ranking, at every prefix length around the ranking's size,
// equal the per-request recompute.
func TestDriftIndexMatchesRecompute(t *testing.T) {
	k := rankingKB()
	binPath := filepath.Join(t.TempDir(), "kb.bin")
	if err := binsnap.WriteFile(binPath, k); err != nil {
		t.Fatal(err)
	}
	freezeBin := func() *snapshot.Snapshot {
		s, format, err := kbio.FreezeFile(binPath)
		if err != nil || format != kbio.FormatBinary {
			t.Fatalf("FreezeFile: %v, %v", format, err)
		}
		return s
	}
	sources := map[string]func() *snapshot.Snapshot{
		"heap":   func() *snapshot.Snapshot { return snapshot.Freeze(k) },
		"binary": freezeBin,
	}
	for name, freeze := range sources {
		checkRankings(t, name, freeze())
	}
}

// checkRankings compares every ranking of one snapshot with the oracle.
func checkRankings(t *testing.T, view string, s *snapshot.Snapshot) {
	t.Helper()
	for _, c := range s.Concepts() {
		want := recomputeRanking(s, c)
		for _, n := range prefixLengths(len(want)) {
			got := s.DriftRanking(c, n)
			assertPrefix(t, fmt.Sprintf("%s: DriftRanking(%q, %d)", view, c, n), got, want, n)
			names := s.TopDrifted(c, n)
			if len(names) != len(got) {
				t.Fatalf("%s: TopDrifted(%q, %d) has %d names, want %d", view, c, n, len(names), len(got))
			}
			for i := range names {
				if names[i] != got[i].Name {
					t.Fatalf("%s: TopDrifted(%q, %d)[%d] = %q, want %q", view, c, n, i, names[i], got[i].Name)
				}
			}
		}
	}
	if got := s.DriftRanking("no-such-concept", 3); got != nil {
		t.Fatalf("%s: unknown concept ranks %v, want nil", view, got)
	}
	want := recomputeRanking(s, "")
	for _, n := range prefixLengths(len(want)) {
		assertPrefix(t, fmt.Sprintf("%s: FleetDriftRanking(%d)", view, n), s.FleetDriftRanking(n), want, n)
	}
}

// prefixLengths returns the prefix lengths probed for a ranking of k
// rows: negative, empty, one, around k, and far past it.
func prefixLengths(k int) []int {
	return []int{-1, 0, 1, k - 1, k, k + 1, 1 << 30}
}

// assertPrefix requires got to be exactly the first min(n, len(want))
// rows of want, clipped to cap == len and never nil.
func assertPrefix(t *testing.T, what string, got, want []snapshot.DriftRow, n int) {
	t.Helper()
	want = want[:max(0, min(n, len(want)))]
	if got == nil {
		t.Fatalf("%s = nil, want %d rows", what, len(want))
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: cap %d != len %d", what, cap(got), len(got))
	}
	if len(want) == 0 && len(got) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %v\nwant %v", what, got, want)
	}
}
