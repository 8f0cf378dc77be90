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
	"cmp"
	"math"
	"slices"

	"driftclean/internal/kb"
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

// Analysis is the result of concept-similarity discovery. It holds
// every relation by concept index — a concept's position in the
// name-sorted concept list, so index order is name order — and maps
// the IDs of the symbol table it was built on to those indices. The
// string accessors translate at the boundary; ExclusiveSym answers by
// ID. An Analysis is read-only once built and safe for concurrent use.
type Analysis struct {
	syms     *kb.Symbols
	concepts []string
	// index maps a concept's ID to its index plus one; 0 (or an ID past
	// the end) is no analyzed concept.
	index []int32
	// sims[i] lists, by ascending index, the concepts whose core
	// overlaps concept i's, with the pair's cosine (Eq 5); every other
	// pair has similarity 0.
	sims    [][]overlap
	covered []bool
	// nCovered counts the covered concepts.
	nCovered int
	// exclusive is an n×n bit matrix, row i holding the exclusive set
	// of concept i (direct and inherited); words is a row's length in
	// uint64 words.
	exclusive []uint64
	words     int
	// similar[i] lists concept i's highly-similar concepts by index.
	similar [][]int32
}

// overlap is one entry of a concept's similarity row.
type overlap struct {
	j   int32
	sim float64
}

// Analyze runs the discovery over the current KB: every concept of
// k.Concepts() with its core read by ID (kb.CoreSyms). The analysis is
// built on k's symbol table.
func Analyze(k *kb.KB, cfg Config) *Analysis {
	concepts := k.Concepts()
	cores := make([][]kb.Sym, len(concepts))
	for i, c := range concepts {
		s, _ := k.Sym(c)
		cores[i] = k.CoreSyms(s)
	}
	return Build(k.Symbols(), concepts, cores, cfg)
}

// Build runs the discovery over the given concepts, which must be
// sorted by name and interned in t, reading concept i's core E(C, 1)
// from cores[i]: the IDs, in t and without repeats, of its instances.
// The analysis keeps the concept list and reads neither it nor the
// cores again.
//
// Only concepts sharing a core instance can have non-zero cosine, so
// the overlaps come from an inverted index over instance IDs, and each
// cosine is the integer intersection size over sqrt(|A|·|B|), the
// expression of sparsevec.SetCosine.
func Build(t *kb.Symbols, concepts []string, cores [][]kb.Sym, cfg Config) *Analysis {
	if cfg.ExclusiveThreshold <= 0 {
		cfg.ExclusiveThreshold = DefaultConfig().ExclusiveThreshold
	}
	if cfg.SimilarThreshold <= 0 {
		cfg.SimilarThreshold = DefaultConfig().SimilarThreshold
	}
	if cfg.MinCoreSize <= 0 {
		cfg.MinCoreSize = DefaultConfig().MinCoreSize
	}
	n := len(concepts)
	a := &Analysis{
		syms:     t,
		concepts: concepts,
		sims:     make([][]overlap, n),
		covered:  make([]bool, n),
		words:    (n + 63) / 64,
		similar:  make([][]int32, n),
	}
	ids := make([]kb.Sym, n)
	maxID := -1
	for i, c := range concepts {
		ids[i], _ = t.Lookup(c)
		maxID = max(maxID, int(ids[i]))
	}
	a.index = make([]int32, maxID+1)
	for i, s := range ids {
		a.index[s] = int32(i) + 1
	}
	a.overlaps(cores)
	for i := range concepts {
		if len(cores[i]) >= cfg.MinCoreSize {
			a.covered[i] = true
			a.nCovered++
		}
	}
	// Relations between covered concepts, row by row over a dense
	// scratch copy of the row's similarities.
	direct := make([]uint64, n*a.words)
	row := make([]float64, n)
	for i := range concepts {
		if !a.covered[i] {
			continue
		}
		for _, o := range a.sims[i] {
			row[o.j] = o.sim
		}
		bits := direct[i*a.words : (i+1)*a.words]
		for j := range concepts {
			if j == i || !a.covered[j] {
				continue
			}
			switch s := row[j]; {
			case s < cfg.ExclusiveThreshold:
				bits[j/64] |= 1 << (j % 64)
			case s > cfg.SimilarThreshold:
				a.similar[i] = append(a.similar[i], int32(j))
			}
		}
		for _, o := range a.sims[i] {
			row[o.j] = 0
		}
	}
	// Propagate exclusion across highly-similar concepts: if C and C' are
	// highly similar, C' inherits C's exclusive set (Sec 3.2.1). Only the
	// direct sets are inherited, and never C' itself.
	a.exclusive = slices.Clone(direct)
	for i, sims := range a.similar {
		bits := a.exclusive[i*a.words : (i+1)*a.words]
		for _, s := range sims {
			for w, v := range direct[int(s)*a.words : (int(s)+1)*a.words] {
				bits[w] |= v
			}
		}
		bits[i/64] &^= 1 << (i % 64)
	}
	return a
}

// overlaps fills a.sims from an inverted index over the cores' instance
// IDs: (instance, concept) entries sorted by instance, so the concepts
// sharing an instance are one run, visited in index order.
func (a *Analysis) overlaps(cores [][]kb.Sym) {
	type entry struct {
		e kb.Sym
		c int32
	}
	total := 0
	for _, core := range cores {
		total += len(core)
	}
	entries := make([]entry, 0, total)
	for i, core := range cores {
		for _, e := range core {
			entries = append(entries, entry{e, int32(i)})
		}
	}
	byInstance := func(x, y entry) int {
		if x.e != y.e {
			return cmp.Compare(x.e, y.e)
		}
		return cmp.Compare(x.c, y.c)
	}
	slices.SortFunc(entries, byInstance)
	// inter[j] counts concept j's core instances shared with the row's
	// concept i, for j > i; touched lists the j with a count.
	inter := make([]int32, len(cores))
	var touched []int32
	for i, core := range cores {
		for _, e := range core {
			k, _ := slices.BinarySearchFunc(entries, entry{e, int32(i)}, byInstance)
			for k++; k < len(entries) && entries[k].e == e; k++ {
				j := entries[k].c
				if inter[j] == 0 {
					touched = append(touched, j)
				}
				inter[j]++
			}
		}
		slices.Sort(touched)
		for _, j := range touched {
			s := float64(inter[j]) / math.Sqrt(float64(len(core))*float64(len(cores[j])))
			a.sims[i] = append(a.sims[i], overlap{j, s})
			a.sims[j] = append(a.sims[j], overlap{int32(i), s})
			inter[j] = 0
		}
		touched = touched[:0]
	}
}

// at returns the index of concept s, or ok=false when s is no analyzed
// concept.
func (a *Analysis) at(s kb.Sym) (int, bool) {
	if int(s) >= len(a.index) || a.index[s] == 0 {
		return 0, false
	}
	return int(a.index[s]) - 1, true
}

// find returns the index of the named concept.
func (a *Analysis) find(c string) (int, bool) {
	s, ok := a.syms.Lookup(c)
	if !ok {
		return 0, false
	}
	return a.at(s)
}

// sim returns the cosine of concepts i and j (i ≠ j).
func (a *Analysis) sim(i, j int) float64 {
	row := a.sims[i]
	k, ok := slices.BinarySearchFunc(row, int32(j), func(o overlap, j int32) int { return cmp.Compare(o.j, j) })
	if !ok {
		return 0
	}
	return row[k].sim
}

// Sim returns the core-set cosine similarity of two concepts (Eq 5).
func (a *Analysis) Sim(c1, c2 string) float64 {
	if c1 == c2 {
		return 1
	}
	i, ok1 := a.find(c1)
	j, ok2 := a.find(c2)
	if !ok1 || !ok2 {
		return 0
	}
	return a.sim(i, j)
}

// Covered reports whether the concept has enough core instances to carry
// exclusion relations.
func (a *Analysis) Covered(c string) bool {
	i, ok := a.find(c)
	return ok && a.covered[i]
}

// Exclusive reports whether two concepts are discovered as mutually
// exclusive. Uncovered concepts are exclusive with nothing.
func (a *Analysis) Exclusive(c1, c2 string) bool {
	i, ok1 := a.find(c1)
	j, ok2 := a.find(c2)
	return ok1 && ok2 && a.exclusiveAt(i, j)
}

// ExclusiveSym is Exclusive by ID, for IDs of the symbol table the
// analysis was built on (the analyzed KB's kb.Symbols): an ID that
// names no analyzed concept is exclusive with nothing.
func (a *Analysis) ExclusiveSym(c1, c2 kb.Sym) bool {
	i, ok1 := a.at(c1)
	j, ok2 := a.at(c2)
	return ok1 && ok2 && a.exclusiveAt(i, j)
}

// HasExclusive reports whether the concept with ID c has a non-empty
// exclusive set.
func (a *Analysis) HasExclusive(c kb.Sym) bool {
	i, ok := a.at(c)
	return ok && slices.ContainsFunc(a.row(i), func(w uint64) bool { return w != 0 })
}

// row returns concept i's exclusive bit row.
func (a *Analysis) row(i int) []uint64 { return a.exclusive[i*a.words : (i+1)*a.words] }

func (a *Analysis) exclusiveAt(i, j int) bool { return a.row(i)[j/64]&(1<<(j%64)) != 0 }

// ExclusiveConcepts returns the sorted exclusive set of a concept, nil
// when it is empty, in a fresh slice.
func (a *Analysis) ExclusiveConcepts(c string) []string {
	i, ok := a.find(c)
	if !ok {
		return nil
	}
	var out []string
	for j := range a.concepts {
		if a.exclusiveAt(i, j) {
			out = append(out, a.concepts[j])
		}
	}
	return out
}

// SimilarConcepts returns the sorted highly-similar set of a concept,
// nil when it is empty, in a fresh slice.
func (a *Analysis) SimilarConcepts(c string) []string {
	i, ok := a.find(c)
	if !ok {
		return nil
	}
	var out []string
	for _, j := range a.similar[i] {
		out = append(out, a.concepts[j])
	}
	return out
}

// Concepts returns all analyzed concepts, sorted.
func (a *Analysis) Concepts() []string { return a.concepts }

// CoverageRate returns the fraction of concepts with exclusion coverage.
func (a *Analysis) CoverageRate() float64 {
	if len(a.concepts) == 0 {
		return 0
	}
	return float64(a.nCovered) / float64(len(a.concepts))
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
	for i := range a.concepts {
		if !a.covered[i] {
			continue
		}
		for j := i + 1; j < len(a.concepts); j++ {
			if !a.covered[j] {
				continue
			}
			s := a.sim(i, j)
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
