// Package mutex discovers mutually-exclusive and highly-similar concept
// pairs from the knowledge base itself, following Sec 3.2.1 of the paper.
//
// With millions of concepts, exclusion cannot be curated by hand, so the
// paper derives it from the data: the isA pairs of the first iteration are
// the "core pairs"; concept similarity is the cosine between core-instance
// sets (Eq 5); pairs below a low threshold are mutually exclusive, pairs
// above a high threshold are highly similar, and the exclusive sets of
// highly-similar concepts are shared. Concepts with tiny cores receive no
// exclusion relations at all — the paper reports 33.6% of concepts end up
// uncovered, mostly small ones.
package mutex

import (
	"sort"

	"driftclean/internal/kb"
	"driftclean/internal/sparsevec"
)

// Config holds the discovery thresholds.
type Config struct {
	// ExclusiveThreshold: pairs with cosine below it are mutually
	// exclusive (the paper uses 1e-4 at web scale; our synthetic cores
	// are smaller, so the default is coarser).
	ExclusiveThreshold float64
	// SimilarThreshold: pairs with cosine above it are highly similar
	// (the paper uses 0.1).
	SimilarThreshold float64
	// MinCoreSize: concepts with fewer core instances get no relations.
	MinCoreSize int
}

// DefaultConfig returns thresholds tuned for the synthetic worlds.
func DefaultConfig() Config {
	return Config{ExclusiveThreshold: 0.02, SimilarThreshold: 0.2, MinCoreSize: 5}
}

// Analysis is the result of concept-similarity discovery.
type Analysis struct {
	cfg      Config
	concepts []string
	core     map[string]map[string]struct{}
	// sim holds cosine similarity for concept pairs with non-empty
	// core overlap; absent pairs have similarity 0.
	sim map[[2]string]float64
	// exclusive maps each covered concept to its sorted exclusive set.
	exclusive map[string][]string
	similar   map[string][]string
	covered   map[string]bool
}

// Analyze runs the discovery over the current KB. It lists every
// concept's core with kb.InstancesAtIteration and hands the lists to
// AnalyzeCores.
func Analyze(k *kb.KB, cfg Config) *Analysis {
	concepts := k.Concepts()
	cores := make(map[string][]string, len(concepts))
	for _, c := range concepts {
		cores[c] = k.InstancesAtIteration(c, 1)
	}
	return AnalyzeCores(concepts, cores, cfg)
}

// AnalyzeCores runs the discovery over the given sorted concept list,
// reading each concept's core E(C, 1) from cores. An analysis pass that
// has already listed every concept's instances derives the cores from
// those lists (kb.CoreOf) and passes them here instead of listing and
// sorting each core again.
func AnalyzeCores(concepts []string, cores map[string][]string, cfg Config) *Analysis {
	if cfg.ExclusiveThreshold <= 0 {
		cfg.ExclusiveThreshold = DefaultConfig().ExclusiveThreshold
	}
	if cfg.SimilarThreshold <= 0 {
		cfg.SimilarThreshold = DefaultConfig().SimilarThreshold
	}
	if cfg.MinCoreSize <= 0 {
		cfg.MinCoreSize = DefaultConfig().MinCoreSize
	}
	a := &Analysis{
		cfg:       cfg,
		core:      make(map[string]map[string]struct{}),
		sim:       make(map[[2]string]float64),
		exclusive: make(map[string][]string),
		similar:   make(map[string][]string),
		covered:   make(map[string]bool),
	}
	a.concepts = concepts
	for _, c := range a.concepts {
		set := make(map[string]struct{}, len(cores[c]))
		for _, e := range cores[c] {
			set[e] = struct{}{}
		}
		a.core[c] = set
	}
	// Inverted index: instance -> concepts whose core holds it. Only
	// concept pairs sharing a core instance can have non-zero cosine.
	byInstance := map[string][]string{}
	for _, c := range a.concepts {
		for e := range a.core[c] {
			//lint:ignore maporder each byInstance list accumulates c in a.concepts slice order; the map range only selects which key receives it
			byInstance[e] = append(byInstance[e], c)
		}
	}
	overlapping := map[[2]string]bool{}
	for _, cs := range byInstance {
		for i := 0; i < len(cs); i++ {
			for j := i + 1; j < len(cs); j++ {
				overlapping[pairKey(cs[i], cs[j])] = true
			}
		}
	}
	for key := range overlapping {
		s := sparsevec.SetCosine(a.core[key[0]], a.core[key[1]])
		if s > 0 {
			a.sim[key] = s
		}
	}
	// Coverage and relations.
	for _, c := range a.concepts {
		if len(a.core[c]) >= cfg.MinCoreSize {
			a.covered[c] = true
		}
	}
	for _, c1 := range a.concepts {
		if !a.covered[c1] {
			continue
		}
		for _, c2 := range a.concepts {
			if c1 == c2 || !a.covered[c2] {
				continue
			}
			s := a.Sim(c1, c2)
			switch {
			case s < cfg.ExclusiveThreshold:
				a.exclusive[c1] = append(a.exclusive[c1], c2)
			case s > cfg.SimilarThreshold:
				a.similar[c1] = append(a.similar[c1], c2)
			}
		}
	}
	// Propagate exclusion across highly-similar concepts: if C and C' are
	// highly similar, C' inherits C's exclusive set (Sec 3.2.1).
	inherited := map[string]map[string]struct{}{}
	for c, sims := range a.similar {
		for _, s := range sims {
			for _, ex := range a.exclusive[s] {
				if ex == c {
					continue
				}
				if inherited[c] == nil {
					inherited[c] = map[string]struct{}{}
				}
				inherited[c][ex] = struct{}{}
			}
		}
	}
	for c, set := range inherited {
		have := map[string]struct{}{}
		for _, ex := range a.exclusive[c] {
			have[ex] = struct{}{}
		}
		for ex := range set {
			if _, ok := have[ex]; !ok {
				//lint:ignore maporder every a.exclusive list is sort.Strings-ed below before anyone reads it
				a.exclusive[c] = append(a.exclusive[c], ex)
			}
		}
	}
	for c := range a.exclusive {
		sort.Strings(a.exclusive[c])
	}
	for c := range a.similar {
		sort.Strings(a.similar[c])
	}
	return a
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Sim returns the core-set cosine similarity of two concepts (Eq 5).
func (a *Analysis) Sim(c1, c2 string) float64 {
	if c1 == c2 {
		return 1
	}
	return a.sim[pairKey(c1, c2)]
}

// Covered reports whether the concept has enough core instances to carry
// exclusion relations.
func (a *Analysis) Covered(c string) bool { return a.covered[c] }

// Exclusive reports whether two concepts are discovered as mutually
// exclusive. Uncovered concepts are exclusive with nothing.
func (a *Analysis) Exclusive(c1, c2 string) bool {
	if c1 == c2 || !a.covered[c1] || !a.covered[c2] {
		return false
	}
	for _, ex := range a.exclusive[c1] {
		if ex == c2 {
			return true
		}
	}
	return false
}

// ExclusiveConcepts returns the sorted exclusive set of a concept.
func (a *Analysis) ExclusiveConcepts(c string) []string { return a.exclusive[c] }

// SimilarConcepts returns the sorted highly-similar set of a concept.
func (a *Analysis) SimilarConcepts(c string) []string { return a.similar[c] }

// Concepts returns all analyzed concepts, sorted.
func (a *Analysis) Concepts() []string { return a.concepts }

// CoverageRate returns the fraction of concepts with exclusion coverage.
func (a *Analysis) CoverageRate() float64 {
	if len(a.concepts) == 0 {
		return 0
	}
	return float64(len(a.covered)) / float64(len(a.concepts))
}

// HistogramBucket is one bar of Fig 4: the number of covered concept
// pairs whose cosine similarity falls in [Lo, Hi).
type HistogramBucket struct {
	Lo, Hi float64
	Count  int
}

// Histogram computes the Fig 4 distribution of pairwise cosine scores over
// covered concept pairs, using the given bucket boundaries (ascending).
// Pairs with zero overlap land in the first bucket.
func (a *Analysis) Histogram(bounds []float64) []HistogramBucket {
	buckets := make([]HistogramBucket, len(bounds))
	for i := range bounds {
		buckets[i].Lo = bounds[i]
		if i+1 < len(bounds) {
			buckets[i].Hi = bounds[i+1]
		} else {
			buckets[i].Hi = 1.0000001
		}
	}
	var covered []string
	for _, c := range a.concepts {
		if a.covered[c] {
			covered = append(covered, c)
		}
	}
	for i := 0; i < len(covered); i++ {
		for j := i + 1; j < len(covered); j++ {
			s := a.Sim(covered[i], covered[j])
			for b := len(buckets) - 1; b >= 0; b-- {
				if s >= buckets[b].Lo {
					buckets[b].Count++
					break
				}
			}
		}
	}
	return buckets
}
