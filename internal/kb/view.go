package kb

// View is the read-only query surface shared by the mutable *KB and
// alternative on-disk representations of the same knowledge — notably
// the mmap-backed columnar binary snapshot view in internal/kb/binsnap.
// internal/snapshot answers every serving query through this interface,
// so a gob-decoded heap KB and a zero-copy binary snapshot flow through
// one code path and must agree byte for byte (the differential suite in
// binsnap enforces that).
//
// Implementations must be safe for any number of concurrent readers
// once construction finishes. *KB satisfies that only while no
// goroutine mutates it — which is exactly why the snapshot layer serves
// only a sealed KB (KB.Seal) or an immutable binary view.
type View interface {
	// Stats returns aggregate statistics of the KB state.
	Stats() Stats
	// Concepts returns all concepts with at least one active instance,
	// sorted.
	Concepts() []string
	// Instances returns the instances currently under a concept, sorted.
	Instances(concept string) []string
	// Has reports whether the pair is present with positive count.
	Has(concept, instance string) bool
	// Count returns the active support count of a pair (0 if absent).
	Count(concept, instance string) int
	// Explain traces the provenance of a pair; ok=false when the pair
	// is absent. At most maxSupports supports are traced (0 means all).
	Explain(concept, instance string, maxSupports int) (Explanation, bool)
	// SubInstances returns sub(e): instances whose extraction was
	// triggered by the given instance, sorted.
	SubInstances(concept, instance string) []string
	// ConceptsOfInstance returns all concepts currently holding the
	// instance with positive count, sorted.
	ConceptsOfInstance(instance string) []string
	// DriftDepth returns, per active instance of the concept, the
	// length of its provenance chain back to the core.
	DriftDepth(concept string) map[string]int
}

// The mutable KB is itself a View (when read without concurrent
// mutation).
var _ View = (*KB)(nil)
