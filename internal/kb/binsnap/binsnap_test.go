package binsnap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"driftclean/internal/kb"
)

// smallKB mirrors the kb package's persistence fixture: multi-iteration
// provenance, a trigger chain, and a rolled-back extraction.
func smallKB() *kb.KB {
	k := kb.New()
	k.AddExtraction(0, "animal", nil, []string{"chicken", "dog"}, nil, 1)
	k.AddExtraction(1, "food", nil, []string{"beef", "pork"}, nil, 1)
	k.AddExtraction(2, "animal", []string{"food", "animal"}, []string{"pork", "beef", "chicken"}, []string{"chicken"}, 2)
	k.AddExtraction(3, "animal", nil, []string{"milk"}, []string{"pork"}, 3)
	id := k.AddExtraction(4, "animal", nil, []string{"cheese"}, []string{"beef"}, 3)
	k.RollbackExtractions([]int{id})
	return k
}

// grownKB drives the same mutation API the pipeline uses, at a size
// where every CSR section has many entries, then rolls back a slice of
// it so inactive state is everywhere.
func grownKB(tb testing.TB, concepts, perIter, iters int) *kb.KB {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	k := kb.New()
	sentence := 0
	for c := 0; c < concepts; c++ {
		concept := fmt.Sprintf("concept%02d", c)
		known := []string{}
		for it := 1; it <= iters; it++ {
			for n := 0; n < perIter; n++ {
				inst := fmt.Sprintf("c%02d-i%02d-e%02d", c, it, n)
				var triggers []string
				if it > 1 {
					triggers = []string{known[rng.Intn(len(known))]}
				}
				cands := []string{concept}
				if rng.Intn(2) == 0 {
					cands = append(cands, fmt.Sprintf("concept%02d", rng.Intn(concepts)))
				}
				k.AddExtraction(sentence, concept, cands, []string{inst}, triggers, it)
				sentence++
				known = append(known, inst)
			}
		}
		// Roll one mid-chain pair back so cascades leave inactive
		// extractions and zero-count pairs behind.
		k.RemovePairs([]kb.Pair{{Concept: concept, Instance: fmt.Sprintf("c%02d-i02-e00", c)}})
	}
	return k
}

// decodeKB is the encode→Decode round trip under test.
func decodeKB(tb testing.TB, k *kb.KB) *View {
	tb.Helper()
	data, err := Encode(k)
	if err != nil {
		tb.Fatal(err)
	}
	v, err := Decode(data)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// assertViewsAgree compares every kb.View method between the source KB
// and the binary view, over every concept, instance and pair the KB
// holds plus probes for absent names.
func assertViewsAgree(tb testing.TB, want kb.View, got kb.View) {
	tb.Helper()
	if w, g := want.Stats(), got.Stats(); w != g {
		tb.Fatalf("Stats: got %+v, want %+v", g, w)
	}
	wc, gc := want.Concepts(), got.Concepts()
	if !reflect.DeepEqual(wc, gc) {
		tb.Fatalf("Concepts: got %v, want %v", gc, wc)
	}
	probes := append(append([]string{}, wc...), "no-such-name", "")
	instSet := map[string]struct{}{}
	for _, c := range probes {
		wi, gi := want.Instances(c), got.Instances(c)
		if !reflect.DeepEqual(wi, gi) {
			tb.Fatalf("Instances(%q): got %v, want %v", c, gi, wi)
		}
		for _, e := range wi {
			instSet[e] = struct{}{}
		}
		if !reflect.DeepEqual(want.DriftDepth(c), got.DriftDepth(c)) {
			tb.Fatalf("DriftDepth(%q) differs", c)
		}
		for _, e := range append(wi, "no-such-name") {
			if w, g := want.Has(c, e), got.Has(c, e); w != g {
				tb.Fatalf("Has(%q,%q): got %v, want %v", c, e, g, w)
			}
			if w, g := want.Count(c, e), got.Count(c, e); w != g {
				tb.Fatalf("Count(%q,%q): got %d, want %d", c, e, g, w)
			}
			if w, g := want.SubInstances(c, e), got.SubInstances(c, e); !reflect.DeepEqual(w, g) {
				tb.Fatalf("SubInstances(%q,%q): got %v, want %v", c, e, g, w)
			}
			for _, maxS := range []int{0, 1, 2} {
				we, wok := want.Explain(c, e, maxS)
				ge, gok := got.Explain(c, e, maxS)
				if wok != gok || !reflect.DeepEqual(we, ge) {
					tb.Fatalf("Explain(%q,%q,%d): got %+v/%v, want %+v/%v", c, e, maxS, ge, gok, we, wok)
				}
			}
		}
	}
	for e := range instSet {
		if w, g := want.ConceptsOfInstance(e), got.ConceptsOfInstance(e); !reflect.DeepEqual(w, g) {
			tb.Fatalf("ConceptsOfInstance(%q): got %v, want %v", e, g, w)
		}
	}
	if w, g := want.ConceptsOfInstance("no-such-name"), got.ConceptsOfInstance("no-such-name"); !reflect.DeepEqual(w, g) {
		tb.Fatalf("ConceptsOfInstance(absent): got %v, want %v", g, w)
	}
}

func TestRoundTripSmall(t *testing.T) {
	k := smallKB()
	assertViewsAgree(t, k, decodeKB(t, k))
}

func TestRoundTripGrown(t *testing.T) {
	k := grownKB(t, 6, 5, 4)
	assertViewsAgree(t, k, decodeKB(t, k))
}

func TestRoundTripEmpty(t *testing.T) {
	k := kb.New()
	v := decodeKB(t, k)
	assertViewsAgree(t, k, v)
	if v.NumExtractions() != 0 || v.NumPairs() != 0 {
		t.Fatal("empty KB round trip not empty")
	}
}

// TestExtractionsSurviveRoundTrip compares every extraction record,
// Active flag included, on a small KB and on a grown one whose cleaning
// left inactive extractions behind.
func TestExtractionsSurviveRoundTrip(t *testing.T) {
	for _, k := range []*kb.KB{smallKB(), grownKB(t, 6, 5, 4)} {
		v := decodeKB(t, k)
		if v.NumExtractions() != k.NumExtractions() {
			t.Fatalf("extractions: got %d, want %d", v.NumExtractions(), k.NumExtractions())
		}
		for i := 0; i < k.NumExtractions(); i++ {
			if w, g := *k.Extraction(i), v.ExtractionAt(i); !reflect.DeepEqual(w, g) {
				t.Fatalf("extraction %d: got %+v, want %+v", i, g, w)
			}
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	k := grownKB(t, 3, 4, 3)
	a, err := Encode(k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(k.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodes of identical state differ")
	}
}

func TestToKBRoundTrip(t *testing.T) {
	k := grownKB(t, 4, 4, 3)
	v := decodeKB(t, k)
	back, err := v.ToKB()
	if err != nil {
		t.Fatal(err)
	}
	assertViewsAgree(t, k, back)
	if !reflect.DeepEqual(k.Pairs(), back.Pairs()) {
		t.Fatal("pairs differ after binary→KB materialization")
	}
	// Re-encoding the materialized KB must reproduce the image bit for
	// bit: the format captures exported state exactly, nothing more.
	data, err := Encode(k)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Encode(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("binary→KB→binary is not the identity")
	}
}

func TestWriteFileAndOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.bin")
	k := grownKB(t, 3, 3, 3)
	if err := WriteFile(path, k); err != nil {
		t.Fatal(err)
	}
	v, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	assertViewsAgree(t, k, v)
	h := v.Header()
	if h.Version != FormatVersion {
		t.Fatalf("header version %d", h.Version)
	}
	if h.Stats != k.Stats() {
		t.Fatalf("header stats %+v, want %+v", h.Stats, k.Stats())
	}
	if h.Extractions != k.NumExtractions() {
		t.Fatalf("header extractions %d, want %d", h.Extractions, k.NumExtractions())
	}
}

func TestOpenMissingFile(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "nope.bin"))
	if err == nil {
		t.Fatal("opening a missing file should fail")
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatal("a missing file is not a corrupt one")
	}
}

func TestCloseIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.bin")
	if err := WriteFile(path, smallKB()); err != nil {
		t.Fatal(err)
	}
	v, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStringsDoNotAliasMapping: every string a query returns must be
// backed by the heap blob copy, never the mapping — otherwise results
// cached across a generation swap would dangle after munmap. Closing
// the view first and querying after is the regression shape.
func TestStringsDoNotAliasMapping(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.bin")
	k := smallKB()
	if err := WriteFile(path, k); err != nil {
		t.Fatal(err)
	}
	v, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	concepts := v.Concepts()
	instances := v.Instances("animal")
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	// The mapping is gone; the strings must still be intact.
	if !reflect.DeepEqual(concepts, k.Concepts()) {
		t.Fatal("concept strings damaged after unmap")
	}
	if !reflect.DeepEqual(instances, k.Instances("animal")) {
		t.Fatal("instance strings damaged after unmap")
	}
}

func TestEncodeRejectsUnexportableState(t *testing.T) {
	// A trigger that is not a recorded pair cannot be represented: the
	// binary format hangs triggered-extraction lists off pair records.
	k := kb.New()
	k.AddExtraction(0, "animal", nil, []string{"dog"}, []string{"ghost"}, 1)
	if _, err := Encode(k); err == nil {
		t.Fatal("encoding a trigger with no pair record should fail")
	}
}
