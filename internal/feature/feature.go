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
	"driftclean/internal/rank"
	"driftclean/internal/sparsevec"
)

// Dim is the raw feature dimensionality.
const Dim = 6

// WeakCount is the support-count ceiling below which a sub-instance
// counts as weakly evidenced for f5.
const WeakCount = 2

// Extractor computes feature vectors over one KB snapshot. Random-walk
// scores come from a rank.Cache — private by default, or shared across
// extractors and cleaning rounds via NewExtractorWithCache so a walk
// survives from one cleaning round to the next as long as its concept
// is untouched. The extractor asks the cache once per concept and keeps
// the scores, next to the concept's class frequency distribution (and
// its L2 norm). Both are computed lazily, once, by whichever goroutine
// first asks for a concept while the rest wait, so every method is safe
// to call from many goroutines at once and no concept pays for a walk
// until one of its features is read.
//
// The extractor never computes sub(e) itself: the sub(e)-based features
// (f1, f4, f5, f6) take the list from the caller, and Matrix reads every
// row's list from one kb.SubIndex of the concept, so an analysis pass
// computes each instance's sub(e) once and shares it with seed labeling
// and task assembly.
type Extractor struct {
	kb *kb.KB
	mx *mutex.Analysis

	cache *rank.Cache

	mu        sync.Mutex
	byConcept map[string]*conceptEntry

	// instances[c] is kb.Instances(c) for every concept at construction
	// time, read-only after construction.
	instances map[string][]string
}

// conceptEntry holds one concept's class frequency distribution with
// its L2 norm, and its random-walk scores, each computed on first use.
type conceptEntry struct {
	freqOnce sync.Once
	freq     sparsevec.Vector
	norm     float64

	walkOnce sync.Once
	scores   rank.Scores
}

// NewExtractor builds a feature extractor over the KB with discovered
// exclusions, using a private score cache.
func NewExtractor(k *kb.KB, mx *mutex.Analysis) *Extractor {
	concepts := k.Concepts()
	instances := make(map[string][]string, len(concepts))
	for _, c := range concepts {
		instances[c] = k.Instances(c)
	}
	return NewExtractorWithCache(k, mx, rank.NewCache(rank.DefaultConfig()), instances)
}

// NewExtractorWithCache builds a feature extractor that reads and fills
// the given shared score cache. The cache keys each walk on the
// concept's digest (rank.Cache), so sharing one cache across the
// analysis passes of consecutive cleaning rounds means only the
// concepts a round changed are re-walked.
//
// instances[c] must be k.Instances(c) for every concept of k — the lists
// the caller's analysis pass already holds, so the extractor sorts
// nothing of its own. The extractor keeps and reads the lists without
// copying them, and reads each instance's concepts from the KB's own
// per-instance records (kb.EachHolder), so it builds no per-pass index
// at all.
// mx must have been discovered on k's symbol table (mutex.Analyze of k,
// or of a KB sharing its table): f2 and f6 ask it by ID. Like the
// lists, an extractor describes k as it was at construction: read it
// only while k is not mutated.
func NewExtractorWithCache(k *kb.KB, mx *mutex.Analysis, cache *rank.Cache, instances map[string][]string) *Extractor {
	return &Extractor{
		kb:        k,
		mx:        mx,
		cache:     cache,
		byConcept: make(map[string]*conceptEntry),
		instances: instances,
	}
}

// ConceptsOf lists, in concept order, the concepts holding the instance
// with positive count (kb.ConceptsOfInstance), in a fresh slice.
func (x *Extractor) ConceptsOf(instance string) []string { return x.kb.ConceptsOfInstance(instance) }

// entry returns the concept's entry, creating an empty one on first use.
func (x *Extractor) entry(concept string) *conceptEntry {
	x.mu.Lock()
	defer x.mu.Unlock()
	e, ok := x.byConcept[concept]
	if !ok {
		e = &conceptEntry{}
		x.byConcept[concept] = e
	}
	return e
}

// Scores returns the random-walk scores of a concept, read from the
// score cache once per extractor: concurrent first callers wait for
// the one that asks the cache.
func (x *Extractor) Scores(concept string) rank.Scores {
	e := x.entry(concept)
	e.walkOnce.Do(func() { e.scores = x.cache.Scores(x.kb, concept) })
	return e.scores
}

// classFreq returns the concept's full learned frequency distribution and
// its L2 norm, computing both once per concept: concurrent first callers
// wait for the one that builds them. The entries are support counts —
// small integers — so every partial sum of squares is exact and the
// cached norm is bit-identical to recomputing it in any map order.
func (x *Extractor) classFreq(concept string) (sparsevec.Vector, float64) {
	e := x.entry(concept)
	e.freqOnce.Do(func() {
		insts := x.instances[concept]
		e.freq = make(sparsevec.Vector, len(insts))
		c, known := x.kb.Sym(concept)
		for _, inst := range insts {
			e.freq.Inc(inst, float64(x.count(c, known, inst)))
		}
		e.norm = e.freq.L2()
	})
	return e.freq, e.norm
}

// F1 is the Eq 1 distribution-similarity feature of an instance whose
// sub(e) is subs. The paper compares sub(e) against the first-iteration
// distribution E(C,1); at web scale those overlap heavily, but in our
// substrate triggered instances are by construction outside the core, so
// we compare against the concept's full learned frequency distribution
// instead — the same Property-1 signal (drifting errors are rare in the
// class overall), with Fig 2's "AVG" distribution as the reference. The
// result is sparsevec.Cosine's, bit for bit; only the class norm is read
// from the per-concept cache instead of being recomputed per instance.
func (x *Extractor) F1(concept string, subs []string) float64 {
	if len(subs) == 0 {
		return 0
	}
	subFreq := make(sparsevec.Vector, len(subs))
	c, known := x.kb.Sym(concept)
	for _, s := range subs {
		subFreq.Inc(s, float64(x.count(c, known, s)))
	}
	class, classNorm := x.classFreq(concept)
	subNorm := subFreq.L2()
	if subNorm == 0 || classNorm == 0 {
		return 0
	}
	return sparsevec.Dot(subFreq, class) / (subNorm * classNorm)
}

// F2 is the Eq 2 mutual-exclusion count feature. Membership under the
// exclusive concept must be well evidenced: a drifted KB cross-lists
// almost every instance somewhere with one or two stray sentences, and
// counting those would make f2 positive for nearly all instances instead
// of the polysemous few (paper Fig 3b expects most non-DPs at 0).
func (x *Extractor) F2(concept, instance string) float64 {
	n := 0
	c, okc := x.kb.Sym(concept)
	if e, ok := x.kb.Sym(instance); ok && okc {
		x.kb.EachHolder(e, func(r kb.Record) {
			if r.Count > crossEvidenceMin && x.mx.ExclusiveSym(c, r.Concept) {
				n++
			}
		})
	}
	return float64(n)
}

// F3 is the Eq 3 random-walk score feature.
func (x *Extractor) F3(concept, instance string) float64 {
	return x.Scores(concept)[instance]
}

// F4 is the Eq 4 average sub-instance score feature of an instance whose
// sub(e) is subs.
func (x *Extractor) F4(concept string, subs []string) float64 {
	return f4(x.Scores(concept), subs)
}

// f4 is F4 over the concept's scores.
func f4(scores rank.Scores, subs []string) float64 {
	if len(subs) == 0 {
		return 0
	}
	var sum float64
	for _, s := range subs {
		sum += scores[s]
	}
	return sum / float64(len(subs))
}

// F5 is the weak-evidence fraction of sub(e) = subs (Property 4, direct
// form).
func (x *Extractor) F5(concept string, subs []string) float64 {
	if len(subs) == 0 {
		return 0
	}
	weak := 0
	c, known := x.kb.Sym(concept)
	for _, s := range subs {
		if x.count(c, known, s) <= WeakCount {
			weak++
		}
	}
	return float64(weak) / float64(len(subs))
}

// F6 is the fraction of sub(e) = subs that is also learned under a concept
// mutually exclusive with this one — Property 2 applied at the
// sub-instance level (the continuous form of labeling Rule 1): a clean
// trigger's sub-instances live in this concept and its relatives only,
// while a DP's drifting sub-instances belong to the exclusive concept
// they were dragged in from.
func (x *Extractor) F6(concept string, subs []string) float64 {
	if len(subs) == 0 {
		return 0
	}
	c, known := x.kb.Sym(concept)
	cross := 0
	var here int
	var dragged bool
	// Membership in the exclusive concept must be well evidenced (strays
	// are everywhere in a drifted KB) and must dominate the support here
	// — the scale-free signature of an instance dragged across the
	// boundary from its real home.
	check := func(r kb.Record) {
		if !dragged && r.Count > crossEvidenceMin && r.Count >= 2*here &&
			known && x.mx.ExclusiveSym(c, r.Concept) {
			dragged = true
		}
	}
	for _, s := range subs {
		e, ok := x.kb.Sym(s)
		if !ok {
			continue
		}
		here, dragged = x.count(c, known, s), false
		x.kb.EachHolder(e, check)
		if dragged {
			cross++
		}
	}
	return float64(cross) / float64(len(subs))
}

// count is Count(concept, instance) for a concept already resolved to
// c; known=false means the KB's table has never seen the concept.
func (x *Extractor) count(c kb.Sym, known bool, instance string) int {
	if !known {
		return 0
	}
	e, ok := x.kb.Sym(instance)
	if !ok {
		return 0
	}
	r, _ := x.kb.Record(c, e)
	return r.Count
}

// crossEvidenceMin is the minimum support under the exclusive concept for
// a sub-instance to count toward f6.
const crossEvidenceMin = 3

// Vector returns [f1 f2 f3 f4 f5 f6] for one instance whose sub(e) is
// subs (the instance's entry of the concept's kb.SubIndex, or the KB's
// single-instance sub(e) lookup).
func (x *Extractor) Vector(concept, instance string, subs []string) []float64 {
	row := make([]float64, Dim)
	x.fill(row, concept, x.Scores(concept), instance, subs)
	return row
}

// Matrix returns the feature vectors of the given instances, row-aligned
// with the input order, reading each instance's sub(e) from subs — the
// concept's kb.SubIndex, computed once per analysis pass and shared with
// seed labeling and task assembly. The rows share one flat backing array
// — one allocation for the whole matrix instead of one per instance.
func (x *Extractor) Matrix(concept string, instances []string, subs map[string][]string) [][]float64 {
	out := make([][]float64, len(instances))
	flat := make([]float64, len(instances)*Dim)
	scores := x.Scores(concept)
	for i, e := range instances {
		row := flat[i*Dim : (i+1)*Dim : (i+1)*Dim]
		x.fill(row, concept, scores, e, subs[e])
		out[i] = row
	}
	return out
}

// fill writes [f1 … f6] of one instance into row, reading f3 and f4
// from the concept's scores.
func (x *Extractor) fill(row []float64, concept string, scores rank.Scores, instance string, subs []string) {
	row[0] = x.F1(concept, subs)
	row[1] = x.F2(concept, instance)
	row[2] = scores[instance]
	row[3] = f4(scores, subs)
	row[4] = x.F5(concept, subs)
	row[5] = x.F6(concept, subs)
}
