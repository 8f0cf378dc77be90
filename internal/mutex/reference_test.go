package mutex

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"driftclean/internal/kb"
	"driftclean/internal/sparsevec"
)

// refAnalysis is the string-keyed discovery the ID build replaced, kept
// as the reference of the differential test: core sets, the instance →
// concepts index and the pair overlaps are maps of names, and the
// exclusive and similar sets are sorted name lists.
type refAnalysis struct {
	concepts  []string
	core      map[string]map[string]struct{}
	sim       map[[2]string]float64
	exclusive map[string][]string
	similar   map[string][]string
	covered   map[string]bool
	// inherited counts the exclusions added by propagation alone.
	inherited int
}

func refPairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// refAnalyze is the former AnalyzeCores over k's concepts and their
// InstancesAtIteration(c, 1) cores.
func refAnalyze(k *kb.KB, cfg Config) *refAnalysis {
	def := DefaultConfig()
	if cfg.ExclusiveThreshold <= 0 {
		cfg.ExclusiveThreshold = def.ExclusiveThreshold
	}
	if cfg.SimilarThreshold <= 0 {
		cfg.SimilarThreshold = def.SimilarThreshold
	}
	if cfg.MinCoreSize <= 0 {
		cfg.MinCoreSize = def.MinCoreSize
	}
	a := &refAnalysis{
		concepts:  k.Concepts(),
		core:      map[string]map[string]struct{}{},
		sim:       map[[2]string]float64{},
		exclusive: map[string][]string{},
		similar:   map[string][]string{},
		covered:   map[string]bool{},
	}
	for _, c := range a.concepts {
		set := map[string]struct{}{}
		for _, e := range k.InstancesAtIteration(c, 1) {
			set[e] = struct{}{}
		}
		a.core[c] = set
	}
	byInstance := map[string][]string{}
	for _, c := range a.concepts {
		for e := range a.core[c] {
			byInstance[e] = append(byInstance[e], c)
		}
	}
	for _, cs := range byInstance {
		for i := 0; i < len(cs); i++ {
			for j := i + 1; j < len(cs); j++ {
				key := refPairKey(cs[i], cs[j])
				if s := sparsevec.SetCosine(a.core[key[0]], a.core[key[1]]); s > 0 {
					a.sim[key] = s
				}
			}
		}
	}
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
			switch s := a.Sim(c1, c2); {
			case s < cfg.ExclusiveThreshold:
				a.exclusive[c1] = append(a.exclusive[c1], c2)
			case s > cfg.SimilarThreshold:
				a.similar[c1] = append(a.similar[c1], c2)
			}
		}
	}
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
				a.exclusive[c] = append(a.exclusive[c], ex)
				a.inherited++
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

func (a *refAnalysis) Sim(c1, c2 string) float64 {
	if c1 == c2 {
		return 1
	}
	return a.sim[refPairKey(c1, c2)]
}

func (a *refAnalysis) coverageRate() float64 {
	if len(a.concepts) == 0 {
		return 0
	}
	return float64(len(a.covered)) / float64(len(a.concepts))
}

func (a *refAnalysis) histogram(bounds []float64) []HistogramBucket {
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

// fig4Bounds are the Fig 4 histogram bounds of the experiments.
var fig4Bounds = []float64{0, 1e-4, 1e-3, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5}

// diffReference describes the first difference between an analysis of
// k and the reference, or returns "". Similarities compare bit for bit
// over every concept pair, the exclusion relation by name and by ID.
func diffReference(k *kb.KB, got *Analysis, want *refAnalysis) string {
	if !reflect.DeepEqual(got.Concepts(), want.concepts) {
		return fmt.Sprintf("Concepts = %v, want %v", got.Concepts(), want.concepts)
	}
	if g, w := got.CoverageRate(), want.coverageRate(); math.Float64bits(g) != math.Float64bits(w) {
		return fmt.Sprintf("CoverageRate = %v, want %v", g, w)
	}
	if g, w := got.Histogram(fig4Bounds), want.histogram(fig4Bounds); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("Histogram = %v, want %v", g, w)
	}
	for _, c1 := range want.concepts {
		if got.Covered(c1) != want.covered[c1] {
			return fmt.Sprintf("Covered(%s) = %v", c1, got.Covered(c1))
		}
		if g, w := got.ExclusiveConcepts(c1), want.exclusive[c1]; !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("ExclusiveConcepts(%s) = %v, want %v", c1, g, w)
		}
		if g, w := got.SimilarConcepts(c1), want.similar[c1]; !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("SimilarConcepts(%s) = %v, want %v", c1, g, w)
		}
		s1, _ := k.Sym(c1)
		for _, c2 := range want.concepts {
			if g, w := got.Sim(c1, c2), want.Sim(c1, c2); math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf("Sim(%s, %s) = %v, want %v", c1, c2, g, w)
			}
			w := false
			for _, ex := range want.exclusive[c1] {
				w = w || ex == c2
			}
			s2, _ := k.Sym(c2)
			if got.Exclusive(c1, c2) != w || got.ExclusiveSym(s1, s2) != w {
				return fmt.Sprintf("Exclusive(%s, %s) = %v, ExclusiveSym = %v, want %v",
					c1, c2, got.Exclusive(c1, c2), got.ExclusiveSym(s1, s2), w)
			}
		}
		if got.HasExclusive(s1) != (len(want.exclusive[c1]) > 0) {
			return fmt.Sprintf("HasExclusive(%s) = %v", c1, got.HasExclusive(s1))
		}
	}
	return ""
}

// randomCoreKB builds a KB of up to 14 concepts over a shared instance
// pool. Each concept draws its iteration-1 instances from a window of
// the pool, so neighbouring windows overlap strongly and distant ones
// not at all (exclusive, similar and in-between pairs all occur), adds
// later-iteration pairs that stay out of its core, and some concepts
// have no core at all. A few of the table's IDs are interned out of
// name order first.
func randomCoreKB(rng *rand.Rand) *kb.KB {
	k := kb.New()
	for i := rng.Intn(4); i > 0; i-- {
		k.Symbols().Intern(fmt.Sprintf("i%02d", rng.Intn(60)))
	}
	n := 2 + rng.Intn(13)
	pool := 10 + rng.Intn(50)
	for c := 0; c < n; c++ {
		concept := fmt.Sprintf("c%02d", rng.Intn(40))
		lo := rng.Intn(pool)
		width := 1 + rng.Intn(12)
		firstIter := 1
		if rng.Intn(5) == 0 {
			firstIter = 2 // no core
		}
		for x := rng.Intn(6) + 1; x > 0; x-- {
			var insts []string
			for m := rng.Intn(5) + 1; m > 0; m-- {
				insts = append(insts, fmt.Sprintf("i%02d", (lo+rng.Intn(width))%pool))
			}
			iter := firstIter
			if rng.Intn(3) == 0 {
				iter++
			}
			k.AddExtraction(0, concept, nil, insts, nil, iter)
		}
	}
	return k
}

// TestQuickBuildMatchesStringReference is the differential gate for the
// ID build: on random KBs and thresholds, before and after removing a
// pair, Analyze must agree with the string-keyed reference on every
// accessor, similarities bit for bit.
func TestQuickBuildMatchesStringReference(t *testing.T) {
	inherited := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := randomCoreKB(rng)
		cfg := Config{
			ExclusiveThreshold: []float64{0, 0.02, 0.1, 0.3}[rng.Intn(4)],
			SimilarThreshold:   []float64{0, 0.2, 0.4, 0.6}[rng.Intn(4)],
			MinCoreSize:        rng.Intn(6),
		}
		for round := 0; round < 2; round++ {
			want := refAnalyze(k, cfg)
			inherited += want.inherited
			if diff := diffReference(k, Analyze(k, cfg), want); diff != "" {
				t.Logf("seed %d round %d, %+v: %s", seed, round, cfg, diff)
				return false
			}
			if pairs := k.Pairs(); len(pairs) > 0 {
				k.RemovePairs([]kb.Pair{pairs[rng.Intn(len(pairs))]})
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if inherited == 0 {
		t.Fatal("premise: no random KB inherited an exclusion across a highly-similar pair")
	}
}
