// Package snapshot provides an immutable, concurrency-safe point-in-time
// view of a knowledge base. The extraction and cleaning pipeline mutates
// a *kb.KB in place from a single goroutine; readers — the kbquery CLI,
// the driftserve HTTP server, and any embedder of internal/serve — need a
// stable view that never changes underneath them. FreezeOwned produces
// one from a KB its owner hands over: it seals the KB (kb.KB.Seal), so
// any later mutation panics instead of changing what readers see, and
// every read method is safe for unbounded concurrent use without locks.
// A session publishes each checkpoint that way, without a copy, because
// it replays the next checkpoint into a fresh KB. Freeze serves callers
// that keep mutating their KB: it freezes a deep clone (cheap: the
// clone copies a few flat arrays and shares the name table).
//
// Snapshot deliberately delegates all traversal — instance listing,
// provenance explanation, drift depth — to the kb package itself, so
// the CLI and the server answer queries with the exact same code that
// the cleaning pipeline uses, rather than a parallel reimplementation
// that could drift out of sync. The one thing it adds is memoization a
// mutable KB cannot have: drift rankings are built once per snapshot
// and served as prefixes (drift.go).
package snapshot

import (
	"sync/atomic"

	"driftclean/internal/kb"
)

// generation is the process-wide monotonic snapshot counter. Each Freeze
// gets the next value; the serving layer keys its result cache by it so
// a hot reload implicitly invalidates every cached result.
var generation atomic.Uint64

// Snapshot is an immutable view of a KB frozen at a point in time. All
// methods are safe for concurrent use by any number of goroutines.
type Snapshot struct {
	gen uint64
	// k is the backing read-only view: a sealed heap KB, or an
	// inherently immutable mmap-backed binary snapshot view
	// (internal/kb/binsnap). It is never mutated after the freeze.
	k kb.View

	// Precomputed at freeze: aggregates every query path touches.
	stats    kb.Stats
	concepts []string

	// drift is built lazily on the first drift query, so freezing and
	// publishing pay nothing for it.
	drift driftIndex
}

// Freeze deep-clones the KB into a new immutable snapshot. The caller
// may keep mutating the original KB afterwards; the snapshot is
// unaffected. The source may be sealed; Freeze only reads it.
func Freeze(source *kb.KB) *Snapshot {
	return FreezeOwned(source.Clone())
}

// FreezeOwned freezes a view the caller hands over without cloning it:
// the caller promises nothing will ever mutate it again, and a heap KB
// is sealed here so a broken promise panics rather than corrupting the
// snapshot. This is the zero-copy path for a session's published
// checkpoint, a KB just decoded from disk that nothing else references,
// or an mmap-backed binary snapshot view — and the reason a binary
// snapshot reload costs O(1) heap work regardless of KB size. Aggregate
// statistics and the concept list are precomputed here so the hottest
// read paths do no work proportional to KB size.
func FreezeOwned(v kb.View) *Snapshot {
	if k, ok := v.(*kb.KB); ok {
		k.Seal()
	}
	return &Snapshot{
		gen:      generation.Add(1),
		k:        v,
		stats:    v.Stats(),
		concepts: v.Concepts(),
	}
}

// Generation returns the snapshot's process-wide monotonic generation
// number. Later freezes always have strictly larger generations.
func (s *Snapshot) Generation() uint64 { return s.gen }

// Stats returns the aggregate KB statistics, precomputed at freeze.
func (s *Snapshot) Stats() kb.Stats { return s.stats }

// Concepts returns all concepts with at least one active instance,
// sorted. The returned slice is shared and must not be modified.
func (s *Snapshot) Concepts() []string { return s.concepts }

// HasConcept reports whether the concept has at least one active
// instance in the snapshot.
func (s *Snapshot) HasConcept(concept string) bool {
	return len(s.k.Instances(concept)) > 0
}

// Instances returns the instances under a concept, sorted.
func (s *Snapshot) Instances(concept string) []string { return s.k.Instances(concept) }

// Has reports whether the pair is in the snapshot with positive count.
func (s *Snapshot) Has(concept, instance string) bool { return s.k.Has(concept, instance) }

// Count returns the active support count of a pair (0 if absent).
func (s *Snapshot) Count(concept, instance string) int { return s.k.Count(concept, instance) }

// Explain traces the provenance of a pair; ok=false when the pair is not
// in the snapshot. At most maxSupports supporting extractions are traced
// (0 means all).
func (s *Snapshot) Explain(concept, instance string, maxSupports int) (kb.Explanation, bool) {
	return s.k.Explain(concept, instance, maxSupports)
}

// SubInstances returns sub(e): instances whose extraction was triggered
// by the given instance, sorted.
func (s *Snapshot) SubInstances(concept, instance string) []string {
	return s.k.SubInstances(concept, instance)
}

// ConceptsOfInstance returns all concepts holding the instance, sorted:
// one lookup in the backing view's own reverse index. The returned
// slice is shared and must not be modified.
func (s *Snapshot) ConceptsOfInstance(instance string) []string {
	return s.k.ConceptsOfInstance(instance)
}

// DriftDepth returns, for every active pair of a concept, the length of
// its provenance chain back to the core (1 for core pairs).
func (s *Snapshot) DriftDepth(concept string) map[string]int {
	return s.k.DriftDepth(concept)
}

// TopDrifted returns up to n instances of the concept with the deepest
// provenance chains, deepest first (ties by name). It answers from the
// snapshot's drift index.
func (s *Snapshot) TopDrifted(concept string, n int) []string {
	rows := prefix(s.driftIndex().byConcept[concept], n)
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.Name
	}
	return names
}

// NumPairs returns the number of distinct active pairs.
func (s *Snapshot) NumPairs() int { return s.stats.DistinctPairs }
