package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"driftclean/internal/kb"
	"driftclean/internal/mutex"
)

// fig4Bounds are the histogram bounds of Fig 4.
var fig4Bounds = []float64{0, 1e-4, 1e-3, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5}

// mutexDiff describes the first difference between two analyses of k,
// or returns "": concept list, coverage, the Fig 4 histogram, each
// concept's exclusive and similar sets, Sim bit for bit over every pair
// of covered concepts, and the exclusion relation asked by k's IDs.
func mutexDiff(k *kb.KB, got, want *mutex.Analysis) string {
	if !reflect.DeepEqual(got.Concepts(), want.Concepts()) {
		return fmt.Sprintf("Concepts = %v, want %v", got.Concepts(), want.Concepts())
	}
	if g, w := got.CoverageRate(), want.CoverageRate(); math.Float64bits(g) != math.Float64bits(w) {
		return fmt.Sprintf("CoverageRate = %v, want %v", g, w)
	}
	if g, w := got.Histogram(fig4Bounds), want.Histogram(fig4Bounds); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("Histogram = %v, want %v", g, w)
	}
	concepts := want.Concepts()
	for _, c1 := range concepts {
		if got.Covered(c1) != want.Covered(c1) {
			return fmt.Sprintf("Covered(%s) = %v", c1, got.Covered(c1))
		}
		if g, w := got.ExclusiveConcepts(c1), want.ExclusiveConcepts(c1); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("ExclusiveConcepts(%s) = %v, want %v", c1, g, w)
		}
		if g, w := got.SimilarConcepts(c1), want.SimilarConcepts(c1); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("SimilarConcepts(%s) = %v, want %v", c1, g, w)
		}
		s1, _ := k.Sym(c1)
		for _, c2 := range concepts {
			s2, _ := k.Sym(c2)
			if g, w := got.ExclusiveSym(s1, s2), want.ExclusiveSym(s1, s2); g != w {
				return fmt.Sprintf("ExclusiveSym(%s, %s) = %v, want %v", c1, c2, g, w)
			}
			if !want.Covered(c1) || !want.Covered(c2) {
				continue
			}
			if g, w := got.Sim(c1, c2), want.Sim(c1, c2); math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf("Sim(%s, %s) = %v, want %v", c1, c2, g, w)
			}
		}
	}
	return ""
}

// TestMutexMemoMatchesFreshAnalysis is the differential gate for the
// mutex memo and the ID-keyed core lists behind its key. A long-lived
// System runs a session at the default round cap — a bulk checkpoint,
// three one-sentence checkpoints and an empty one — and at every
// cleaning round, and after every checkpoint, the analysis its pass
// uses must equal a fresh mutex.Analyze of the same KB.
func TestMutexMemoMatchesFreshAnalysis(t *testing.T) {
	cfg := rerunConfig()
	var sys *System
	passes := 0
	check := func(when string) {
		a, err := sys.Analyze(sys.KB)
		if err != nil {
			t.Fatal(err)
		}
		passes++
		if diff := mutexDiff(sys.KB, a.Mutex, mutex.Analyze(sys.KB, sys.Cfg.Mutex)); diff != "" {
			t.Fatalf("pass %d (%s): memoized analysis differs from a fresh one: %s", passes, when, diff)
		}
	}
	cfg.Clean.OnRound = func(round int) bool {
		check(fmt.Sprintf("round %d", round))
		return false
	}
	sys = Prepare(cfg)
	ing := NewIngestor(sys, DetectMultiTask)
	sentences := sys.Corpus.Sentences
	bulk := len(sentences) - 3
	for _, batch := range [][2]int{{0, bulk}, {bulk, bulk + 1}, {bulk + 1, bulk + 2}, {bulk + 2, bulk + 3}, {bulk + 3, bulk + 3}} {
		if _, err := ing.Ingest(sentences[batch[0]:batch[1]], nil); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after checkpoint %v", batch))
	}
	hits, misses := sys.mutexes.Stats()
	if hits == 0 || misses < 2 {
		t.Fatalf("premise: want mutex memo hits and several distinct analyses, got %d hits, %d misses over %d passes", hits, misses, passes)
	}
	t.Logf("%d passes, %d mutex memo hits, %d misses", passes, hits, misses)
}

// mutexKB adds to k the cores of six concepts: a and b disjoint, their
// near-copies aa and bb, d sharing one instance with a and aa, and e
// sharing one with aa only, so aa is exclusive with e only by
// inheriting a's exclusion; tail holds only a later-iteration pair, so
// its core is empty.
func mutexKB(k *kb.KB) *kb.KB {
	add := func(concept string, iter int, insts ...string) {
		k.AddExtraction(0, concept, nil, insts, nil, iter)
	}
	add("a", 1, "a1", "a2", "a3", "a4", "a5", "a6")
	add("aa", 1, "a1", "a2", "a3", "a4", "a5", "x1")
	add("b", 1, "b1", "b2", "b3", "b4", "b5", "b6")
	add("bb", 1, "b1", "b2", "b3", "b4", "b5", "x2")
	add("d", 1, "d1", "d2", "d3", "d4", "d5", "a1")
	add("e", 1, "e1", "e2", "e3", "e4", "e5", "x1")
	add("tail", 2, "a1")
	return k
}

// checkInherited asserts the premise of the hand-built KBs: aa is
// exclusive with e only through a, the concept it is highly similar to.
func checkInherited(t *testing.T, mx *mutex.Analysis) {
	t.Helper()
	if !mx.Exclusive("aa", "e") || mx.Exclusive("e", "aa") || mx.SimilarConcepts("aa") == nil {
		t.Fatalf("premise: want aa similar to a and exclusive with e by inheritance only, got Exclusive(aa, e) = %v, Exclusive(e, aa) = %v, SimilarConcepts(aa) = %v",
			mx.Exclusive("aa", "e"), mx.Exclusive("e", "aa"), mx.SimilarConcepts("aa"))
	}
}

// memoConfig is the discovery config of the hand-built KBs.
func memoConfig() Config {
	cfg := DefaultConfig()
	cfg.Mutex = mutex.Config{ExclusiveThreshold: 0.05, SimilarThreshold: 0.5, MinCoreSize: 5}
	return cfg
}

// TestMutexMemoKeyCoversSymbolTable: KBs with the same concepts and
// cores on tables that assign different IDs must not share an analysis,
// nor a concept's core list: an analysis answers by the IDs of the
// table it was built on, and the overlaps of cores from two tables are
// meaningless. k2 repeats k1 on another table, k3 adds to k2 a concept
// f near-copying b, so its pass mixes list memo hits with a miss.
func TestMutexMemoKeyCoversSymbolTable(t *testing.T) {
	k1 := mutexKB(kb.New())
	t2 := kb.NewSymbols()
	for _, name := range []string{"x2", "d5", "bb", "tail", "a3", "d", "b", "aa", "a", "b4", "e2"} {
		t2.Intern(name)
	}
	k2 := mutexKB(kb.NewWithSymbols(t2, kb.Sizes{}))
	k3 := k2.Clone()
	k3.AddExtraction(0, "f", nil, []string{"b1", "b2", "b3", "b4", "b5", "f1"}, nil, 1)
	sys := &System{Cfg: memoConfig()}
	for i, k := range []*kb.KB{k1, k2, k3, k1} {
		a, err := sys.Analyze(k)
		if err != nil {
			t.Fatal(err)
		}
		checkInherited(t, a.Mutex)
		if diff := mutexDiff(k, a.Mutex, mutex.Analyze(k, sys.Cfg.Mutex)); diff != "" {
			t.Fatalf("analysis %d: %s", i, diff)
		}
	}
	if hits, misses := sys.mutexes.Stats(); hits != 1 || misses != 3 {
		t.Fatalf("mutex memo: %d hits, %d misses, want one analysis per KB state and table and a hit on the return to k1", hits, misses)
	}
}

// TestMutexMemoKeyCoversEmptyCores: a concept with an empty core changes
// the concept list and the coverage rate, so adding or removing one must
// change the key although no core changes.
func TestMutexMemoKeyCoversEmptyCores(t *testing.T) {
	k := mutexKB(kb.New())
	sys := &System{Cfg: memoConfig()}
	steps := []func(){
		func() {},
		func() { k.AddExtraction(0, "tail2", nil, []string{"b1"}, nil, 3) },
		func() { k.RemovePairs([]kb.Pair{{Concept: "tail", Instance: "a1"}}) },
	}
	for i, step := range steps {
		step()
		a, err := sys.Analyze(k)
		if err != nil {
			t.Fatal(err)
		}
		checkInherited(t, a.Mutex)
		if diff := mutexDiff(k, a.Mutex, mutex.Analyze(k, sys.Cfg.Mutex)); diff != "" {
			t.Fatalf("step %d: %s", i, diff)
		}
	}
	if _, misses := sys.mutexes.Stats(); misses != len(steps) {
		t.Fatalf("mutex memo: %d misses, want %d", misses, len(steps))
	}
}
