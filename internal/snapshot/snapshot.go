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
//
// A snapshot is either a full view (produced by Freeze or FreezeOwned)
// or a concept-partitioned shard view (produced by Partition): a shard
// view shares the parent's underlying KB view but answers only for the
// concepts it owns, so N shard views of one freeze cost N index slices,
// not N KB copies.
type Snapshot struct {
	gen uint64
	// k is the backing read-only view: a sealed heap KB, or an
	// inherently immutable mmap-backed binary snapshot view
	// (internal/kb/binsnap). It is never mutated after the freeze.
	k kb.View

	// Precomputed at freeze: aggregates every query path touches.
	stats    kb.Stats
	concepts []string
	// byInstance is a shard view's reverse index instance → owned
	// concepts. nil for a full view, whose backing view answers
	// ConceptsOfInstance natively (the heap KB walks the instance's
	// pair records, the binary snapshot stores the index on disk).
	byInstance map[string][]string
	// owned, when non-nil, restricts the view to the concepts a
	// Partition call assigned to this shard; reads about any other
	// concept answer "not here". nil means the full, unpartitioned view.
	owned map[string]struct{}

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
// number. Later freezes always have strictly larger generations; shard
// views share their parent freeze's generation.
func (s *Snapshot) Generation() uint64 { return s.gen }

// Stats returns the aggregate KB statistics, precomputed at freeze. For
// a shard view the statistics are scoped to the owned concepts; summing
// every shard of a partition reproduces the parent's statistics exactly.
func (s *Snapshot) Stats() kb.Stats { return s.stats }

// Concepts returns all concepts with at least one active instance (of
// this shard, for a shard view), sorted. The returned slice is shared
// and must not be modified.
func (s *Snapshot) Concepts() []string { return s.concepts }

// owns reports whether this view answers for the concept.
func (s *Snapshot) owns(concept string) bool {
	if s.owned == nil {
		return true
	}
	_, ok := s.owned[concept]
	return ok
}

// HasConcept reports whether the concept has at least one active
// instance in the snapshot (and, for a shard view, is owned by it).
func (s *Snapshot) HasConcept(concept string) bool {
	return s.owns(concept) && len(s.k.Instances(concept)) > 0
}

// Instances returns the instances under a concept, sorted.
func (s *Snapshot) Instances(concept string) []string {
	if !s.owns(concept) {
		return nil
	}
	return s.k.Instances(concept)
}

// Has reports whether the pair is in the snapshot with positive count.
func (s *Snapshot) Has(concept, instance string) bool {
	return s.owns(concept) && s.k.Has(concept, instance)
}

// Count returns the active support count of a pair (0 if absent).
func (s *Snapshot) Count(concept, instance string) int {
	if !s.owns(concept) {
		return 0
	}
	return s.k.Count(concept, instance)
}

// Explain traces the provenance of a pair; ok=false when the pair is not
// in the snapshot. At most maxSupports supporting extractions are traced
// (0 means all).
func (s *Snapshot) Explain(concept, instance string, maxSupports int) (kb.Explanation, bool) {
	if !s.owns(concept) {
		return kb.Explanation{}, false
	}
	return s.k.Explain(concept, instance, maxSupports)
}

// SubInstances returns sub(e): instances whose extraction was triggered
// by the given instance, sorted.
func (s *Snapshot) SubInstances(concept, instance string) []string {
	if !s.owns(concept) {
		return nil
	}
	return s.k.SubInstances(concept, instance)
}

// ConceptsOfInstance returns all concepts holding the instance, sorted.
// This is a single lookup — against a shard view's owner-scoped reverse
// index, or directly against the backing view's own index. The returned
// slice is shared and must not be modified.
func (s *Snapshot) ConceptsOfInstance(instance string) []string {
	if s.byInstance != nil {
		return s.byInstance[instance]
	}
	return s.k.ConceptsOfInstance(instance)
}

// DriftDepth returns, for every active pair of a concept, the length of
// its provenance chain back to the core (1 for core pairs).
func (s *Snapshot) DriftDepth(concept string) map[string]int {
	if !s.owns(concept) {
		return nil
	}
	return s.k.DriftDepth(concept)
}

// TopDrifted returns up to n instances of the concept with the deepest
// provenance chains, deepest first (ties by name). It answers from the
// snapshot's drift index.
func (s *Snapshot) TopDrifted(concept string, n int) []string {
	if !s.owns(concept) {
		return nil
	}
	rows := prefix(s.driftIndex().byConcept[concept], n)
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.Name
	}
	return names
}

// NumPairs returns the number of distinct active pairs.
func (s *Snapshot) NumPairs() int { return s.stats.DistinctPairs }

// Partition splits the snapshot into n shard views by concept
// ownership: owner maps each concept name onto a shard index in
// [0, n). Every view shares the receiver's underlying KB view — the
// split costs index slices and scoped statistics, not KB copies — and
// inherits its generation, so a router merging the shards' answers
// reproduces the unpartitioned responses byte for byte.
//
// Each shard view answers only for its owned concepts: reads about any
// other concept behave exactly as if the concept were absent. The
// scoped statistics of the n views sum field-wise to the receiver's
// (pairs and extractions both partition cleanly by concept).
//
// Partitioning an already-partitioned view is not supported; partition
// the full freeze instead.
func (s *Snapshot) Partition(n int, owner func(concept string) int) []*Snapshot {
	if s.owned != nil {
		panic("snapshot: Partition of an already-partitioned view")
	}
	if n < 1 {
		panic("snapshot: Partition into zero shards")
	}
	parts := make([]*Snapshot, n)
	for i := range parts {
		parts[i] = &Snapshot{
			gen:        s.gen,
			k:          s.k,
			byInstance: make(map[string][]string),
			owned:      make(map[string]struct{}),
		}
	}
	for _, c := range s.concepts {
		p := parts[owner(c)]
		p.concepts = append(p.concepts, c)
		p.owned[c] = struct{}{}
		p.stats.Concepts++
		for _, e := range s.k.Instances(c) {
			p.stats.DistinctPairs++
			p.stats.TotalCount += s.k.Count(c, e)
			p.byInstance[e] = append(p.byInstance[e], c)
		}
	}
	// Active extractions are concept-local, so each one belongs to
	// exactly the shard owning its concept — including extractions whose
	// concept no longer has active pairs (owner is still total).
	s.k.ScanActiveExtractions(func(concept string) {
		parts[owner(concept)].stats.ActiveExtractions++
	})
	return parts
}
