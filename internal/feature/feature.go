// Package feature computes the four DP-detection features of Sec 3.1,
// one per property of Sec 2.3:
//
//	f1 — cosine similarity between the frequency distribution of the
//	     instances triggered by e (sub(e)) and the distribution of the
//	     concept's first-iteration instances (Eq 1, Property 1);
//	f2 — the number of mutually exclusive concepts that also learned e
//	     (Eq 2, Property 2);
//	f3 — e's random-walk score under the concept (Eq 3, Property 3);
//	f4 — the average random-walk score of sub(e) (Eq 4, Property 4);
//	f5 — the fraction of sub(e) supported by weak evidence (at most
//	     WeakCount sentences). This is a second, direct operationalization
//	     of Property 4's statement that "an error extraction triggered by
//	     a DP is usually supported by weak evidence": at web scale the
//	     average sub-instance score captures it, but on a synthetic corpus
//	     the support-count fraction separates the classes much more
//	     sharply (non-DPs ≈ 0.1, Intentional ≈ 0.45, Accidental ≈ 0.9).
package feature

import (
	"sync"

	"driftclean/internal/kb"
	"driftclean/internal/mutex"
	"driftclean/internal/par"
	"driftclean/internal/rank"
	"driftclean/internal/sparsevec"
)

// Dim is the raw feature dimensionality.
const Dim = 6

// WeakCount is the support-count ceiling below which a sub-instance
// counts as weakly evidenced for f5.
const WeakCount = 2

// Extractor computes feature vectors over one KB snapshot. Random-walk
// scores live in a rank.Cache — private by default, or shared across
// extractors and cleaning rounds via NewExtractorWithCache so a walk
// survives from one cleaning round to the next as long as its concept
// is untouched. Class frequency distributions are cached per concept
// with the same single-flight discipline.
type Extractor struct {
	kb *kb.KB
	mx *mutex.Analysis

	cache *rank.Cache

	mu     sync.Mutex
	coreFq map[string]*freqEntry

	// conceptsOf[e] lists concepts currently holding e (read-only after
	// construction).
	conceptsOf map[string][]string
}

type freqEntry struct {
	ready chan struct{}
	v     sparsevec.Vector
}

// NewExtractor builds a feature extractor over the KB with discovered
// exclusions, using a private score cache.
func NewExtractor(k *kb.KB, mx *mutex.Analysis) *Extractor {
	return NewExtractorWithCache(k, mx, rank.NewCache(rank.DefaultConfig()))
}

// NewExtractorWithCache builds a feature extractor that reads and fills
// the given shared score cache. The cache invalidation protocol
// (rank.Cache) keeps entries consistent across KB mutations; sharing one
// cache across the analysis passes of consecutive cleaning rounds means
// only the concepts a round touched are re-walked.
func NewExtractorWithCache(k *kb.KB, mx *mutex.Analysis, cache *rank.Cache) *Extractor {
	pairs := k.Pairs()
	counts := make(map[string]int, len(pairs))
	for _, p := range pairs {
		counts[p.Instance]++
	}
	// Per-instance concept lists carved out of one arena: each segment is
	// reserved (exactly sized, separately capped) at the instance's first
	// pair, so the appends below never allocate or cross segments.
	arena := make([]string, 0, len(pairs))
	conceptsOf := make(map[string][]string, len(counts))
	used := 0
	for _, p := range pairs {
		s, ok := conceptsOf[p.Instance]
		if !ok {
			s = arena[used : used : used+counts[p.Instance]]
			used += counts[p.Instance]
		}
		conceptsOf[p.Instance] = append(s, p.Concept)
	}
	return &Extractor{
		kb:         k,
		mx:         mx,
		cache:      cache,
		coreFq:     make(map[string]*freqEntry),
		conceptsOf: conceptsOf,
	}
}

// Scores returns (building on first use) the random-walk scores of a
// concept — also reused by the cleaning stage's Eq 21. Concurrent
// callers missing the cache coalesce onto one walk (single-flight).
func (x *Extractor) Scores(concept string) rank.Scores {
	return x.cache.Scores(x.kb, concept)
}

// classFreq returns the concept's full learned frequency distribution,
// computing it once per concept: concurrent first callers coalesce, the
// leader builds the vector and the rest wait for it.
func (x *Extractor) classFreq(concept string) sparsevec.Vector {
	x.mu.Lock()
	e, ok := x.coreFq[concept]
	if ok {
		x.mu.Unlock()
		<-e.ready
		return e.v
	}
	e = &freqEntry{ready: make(chan struct{})}
	x.coreFq[concept] = e
	x.mu.Unlock()
	v := sparsevec.New()
	for _, inst := range x.kb.Instances(concept) {
		v.Inc(inst, float64(x.kb.Count(concept, inst)))
	}
	e.v = v
	close(e.ready)
	return v
}

// Warm precomputes the random-walk scores and class distributions of the
// given concepts with the given parallelism, after which feature
// extraction over those concepts is read-mostly and safe to run from
// multiple goroutines. Concepts already warm in a shared cache cost a
// map hit.
func (x *Extractor) Warm(concepts []string, parallelism int) {
	if parallelism < 1 {
		parallelism = 1
	}
	par.ForChunked(len(concepts), parallelism, 1, func(i int) {
		x.Scores(concepts[i])
		x.classFreq(concepts[i])
	})
}

// F1 is the Eq 1 distribution-similarity feature. The paper compares
// sub(e) against the first-iteration distribution E(C,1); at web scale
// those overlap heavily, but in our substrate triggered instances are by
// construction outside the core, so we compare against the concept's full
// learned frequency distribution instead — the same Property-1 signal
// (drifting errors are rare in the class overall), with Fig 2's "AVG"
// distribution as the reference.
func (x *Extractor) F1(concept, instance string) float64 {
	subs := x.kb.SubInstances(concept, instance)
	if len(subs) == 0 {
		return 0
	}
	subFreq := sparsevec.New()
	for _, s := range subs {
		subFreq.Inc(s, float64(x.kb.Count(concept, s)))
	}
	return sparsevec.Cosine(subFreq, x.classFreq(concept))
}

// F2 is the Eq 2 mutual-exclusion count feature. Membership under the
// exclusive concept must be well evidenced: a drifted KB cross-lists
// almost every instance somewhere with one or two stray sentences, and
// counting those would make f2 positive for nearly all instances instead
// of the polysemous few (paper Fig 3b expects most non-DPs at 0).
func (x *Extractor) F2(concept, instance string) float64 {
	n := 0
	for _, other := range x.conceptsOf[instance] {
		if x.mx.Exclusive(concept, other) && x.kb.Count(other, instance) > crossEvidenceMin {
			n++
		}
	}
	return float64(n)
}

// F3 is the Eq 3 random-walk score feature.
func (x *Extractor) F3(concept, instance string) float64 {
	return x.Scores(concept)[instance]
}

// F4 is the Eq 4 average sub-instance score feature.
func (x *Extractor) F4(concept, instance string) float64 {
	subs := x.kb.SubInstances(concept, instance)
	if len(subs) == 0 {
		return 0
	}
	scores := x.Scores(concept)
	var sum float64
	for _, s := range subs {
		sum += scores[s]
	}
	return sum / float64(len(subs))
}

// F5 is the weak-evidence fraction of sub(e) (Property 4, direct form).
func (x *Extractor) F5(concept, instance string) float64 {
	subs := x.kb.SubInstances(concept, instance)
	if len(subs) == 0 {
		return 0
	}
	weak := 0
	for _, s := range subs {
		if x.kb.Count(concept, s) <= WeakCount {
			weak++
		}
	}
	return float64(weak) / float64(len(subs))
}

// F6 is the fraction of sub(e) that is also learned under a concept
// mutually exclusive with this one — Property 2 applied at the
// sub-instance level (the continuous form of labeling Rule 1): a clean
// trigger's sub-instances live in this concept and its relatives only,
// while a DP's drifting sub-instances belong to the exclusive concept
// they were dragged in from.
func (x *Extractor) F6(concept, instance string) float64 {
	subs := x.kb.SubInstances(concept, instance)
	if len(subs) == 0 {
		return 0
	}
	cross := 0
	for _, s := range subs {
		here := x.kb.Count(concept, s)
		for _, other := range x.conceptsOf[s] {
			// Membership in the exclusive concept must be well evidenced
			// (strays are everywhere in a drifted KB) and must dominate
			// the support here — the scale-free signature of an instance
			// dragged across the boundary from its real home.
			if x.mx.Exclusive(concept, other) &&
				x.kb.Count(other, s) > crossEvidenceMin &&
				x.kb.Count(other, s) >= 2*here {
				cross++
				break
			}
		}
	}
	return float64(cross) / float64(len(subs))
}

// crossEvidenceMin is the minimum support under the exclusive concept for
// a sub-instance to count toward f6.
const crossEvidenceMin = 3

// Vector returns [f1 f2 f3 f4 f5 f6] for one instance.
func (x *Extractor) Vector(concept, instance string) []float64 {
	return []float64{
		x.F1(concept, instance),
		x.F2(concept, instance),
		x.F3(concept, instance),
		x.F4(concept, instance),
		x.F5(concept, instance),
		x.F6(concept, instance),
	}
}

// Matrix returns the feature vectors of the given instances, row-aligned
// with the input order. The rows share one flat backing array — one
// allocation for the whole matrix instead of one per instance.
func (x *Extractor) Matrix(concept string, instances []string) [][]float64 {
	out := make([][]float64, len(instances))
	flat := make([]float64, len(instances)*Dim)
	for i, e := range instances {
		row := flat[i*Dim : (i+1)*Dim : (i+1)*Dim]
		row[0] = x.F1(concept, e)
		row[1] = x.F2(concept, e)
		row[2] = x.F3(concept, e)
		row[3] = x.F4(concept, e)
		row[4] = x.F5(concept, e)
		row[5] = x.F6(concept, e)
		out[i] = row
	}
	return out
}
