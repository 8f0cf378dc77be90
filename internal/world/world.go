// Package world builds the synthetic ground-truth universe that substitutes
// for the paper's 1.68-billion-page web corpus (see DESIGN.md §1).
//
// A World is a taxonomy of concepts and instances with exactly the
// structures that cause semantic drift in iterative isA extraction:
//
//   - domains: clusters of related concepts that co-occur in ambiguous
//     "such as" sentences (animal/food/pet, country/city/company, ...);
//     concepts from different domains are irrelevant to each other;
//   - mutual exclusion: distinct concepts in a domain are mutually
//     exclusive in ground truth unless one is an alias or sub-concept of
//     the other;
//   - polysemous instances: instances that genuinely belong to two
//     mutually exclusive concepts (chicken ∈ animal ∩ food) — the seeds of
//     Intentional Drifting Points (paper Def. 3);
//   - highly-similar aliases: concept pairs sharing most instances
//     (country/nation) used by Sec 3.2.1 of the paper;
//   - sub-concepts: instances that are themselves concepts with their own
//     instance sets (dog ⊂ animal), which enable the "other than"
//     mis-parse hazard behind Accidental DPs (paper Def. 4).
//
// The world also carries a partial NER-style lexicon used by the
// Type-Checking baseline (a substitution for Stanford NER, DESIGN.md §1).
//
// Everything is generated from an explicit seed and is fully deterministic.
package world

import (
	"fmt"
	"math/rand"
	"sort"
)

// Concept is a semantic class with a ground-truth instance set.
type Concept struct {
	ID        int
	Name      string   // single-token surface form (underscores join words)
	Domain    int      // index into World.Domains
	Instances []string // ground-truth members, sorted
	SimilarOf int      // ID of the concept this one aliases, or -1
	ParentOf  int      // ID of the parent concept when this is a sub-concept, or -1
	Tail      bool     // true for deliberately tiny "tail" concepts

	members map[string]struct{}
}

// Has reports whether instance e truly belongs to the concept.
func (c *Concept) Has(e string) bool {
	_, ok := c.members[e]
	return ok
}

// Size returns the number of ground-truth instances.
func (c *Concept) Size() int { return len(c.Instances) }

// World is the complete synthetic ground truth.
type World struct {
	Concepts []*Concept
	Domains  [][]int // concept IDs per domain

	byName      map[string]*Concept
	conceptsOf  map[string][]int // instance -> concept IDs (ground truth)
	nerType     map[string]int   // partial instance -> domain lexicon for the TCh baseline
	nerCoverage float64
	cfg         Config
}

// Config controls world generation. Zero values are replaced by the
// defaults from DefaultConfig.
type Config struct {
	Seed int64

	// NumDomains is the number of generated concept clusters, in addition
	// to the hand-named domain that reproduces the paper's animal/food
	// running example.
	NumDomains int
	// ConceptsPerDomain bounds the number of exclusive concepts per domain.
	ConceptsPerDomainMin, ConceptsPerDomainMax int
	// InstancesPerConcept bounds ground-truth class sizes.
	InstancesPerConceptMin, InstancesPerConceptMax int
	// PolysemyPerConcept is how many instances of each concept are shared
	// with a mutually exclusive concept in the same domain.
	PolysemyPerConcept int
	// SimilarAliasRate is the probability that a concept receives a
	// highly-similar alias concept sharing SimilarShare of its instances.
	SimilarAliasRate float64
	SimilarShare     float64
	// SubConceptRate is the probability that a concept receives a
	// sub-concept built from a subset of its instances.
	SubConceptRate  float64
	SubConceptShare float64
	// TailConceptsPerDomain adds tiny concepts (paper's "key u.s. export").
	TailConceptsPerDomain int
	TailSizeMax           int
	// NERCoverage is the fraction of instances present in the gazetteer
	// used by the Type-Checking baseline; NERNoise is the fraction of
	// those entries carrying a wrong type.
	NERCoverage float64
	NERNoise    float64
}

// DefaultConfig returns the configuration used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		Seed:                   1,
		NumDomains:             8,
		ConceptsPerDomainMin:   3,
		ConceptsPerDomainMax:   6,
		InstancesPerConceptMin: 120,
		InstancesPerConceptMax: 600,
		PolysemyPerConcept:     4,
		SimilarAliasRate:       0.25,
		SimilarShare:           0.8,
		SubConceptRate:         0.3,
		SubConceptShare:        0.15,
		TailConceptsPerDomain:  1,
		TailSizeMax:            20,
		NERCoverage:            0.2,
		NERNoise:               0.02,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.NumDomains == 0 {
		c.NumDomains = d.NumDomains
	}
	if c.ConceptsPerDomainMin == 0 {
		c.ConceptsPerDomainMin = d.ConceptsPerDomainMin
	}
	if c.ConceptsPerDomainMax == 0 {
		c.ConceptsPerDomainMax = d.ConceptsPerDomainMax
	}
	if c.InstancesPerConceptMin == 0 {
		c.InstancesPerConceptMin = d.InstancesPerConceptMin
	}
	if c.InstancesPerConceptMax == 0 {
		c.InstancesPerConceptMax = d.InstancesPerConceptMax
	}
	if c.PolysemyPerConcept == 0 {
		c.PolysemyPerConcept = d.PolysemyPerConcept
	}
	if c.SimilarAliasRate == 0 {
		c.SimilarAliasRate = d.SimilarAliasRate
	}
	if c.SimilarShare == 0 {
		c.SimilarShare = d.SimilarShare
	}
	if c.SubConceptRate == 0 {
		c.SubConceptRate = d.SubConceptRate
	}
	if c.SubConceptShare == 0 {
		c.SubConceptShare = d.SubConceptShare
	}
	if c.TailConceptsPerDomain == 0 {
		c.TailConceptsPerDomain = d.TailConceptsPerDomain
	}
	if c.TailSizeMax == 0 {
		c.TailSizeMax = d.TailSizeMax
	}
	if c.NERCoverage == 0 {
		c.NERCoverage = d.NERCoverage
	}
	if c.NERNoise == 0 {
		c.NERNoise = d.NERNoise
	}
}

// New generates a world from cfg. The same Config always yields the same
// world.
func New(cfg Config) *World {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{
		byName:      make(map[string]*Concept),
		conceptsOf:  make(map[string][]int),
		nerCoverage: cfg.NERCoverage,
		cfg:         cfg,
	}
	w.buildNamedDomain()
	names := newNameGen(rng)
	for d := 0; d < cfg.NumDomains; d++ {
		w.buildDomain(rng, names)
	}
	for _, c := range w.Concepts {
		sort.Strings(c.Instances)
	}
	w.buildNERLexicon(rng)
	return w
}

// buildNamedDomain installs the paper's running example: animal / food /
// pet with chicken, duck and turkey as polysemous bridges and dog as a
// sub-concept of animal. Keeping the paper's instance names makes Fig. 2
// and the worked Eq. 21 example directly recognizable.
func (w *World) buildNamedDomain() {
	domain := 0
	animals := []string{
		"dog", "cat", "horse", "rabbit", "elephant", "dolphin", "lion",
		"camel", "pigeon", "donkey", "chimpanzee", "snake", "monkey",
		"tiger", "bear", "wolf", "fox", "deer", "goat", "sheep", "cow",
		"pig", "duck", "chicken", "turkey", "eagle", "owl", "shark",
		"whale", "frog", "lizard", "mouse", "squirrel", "otter", "seal",
	}
	foods := []string{
		"beef", "pork", "milk", "meat", "bread", "cheese", "rice",
		"pasta", "butter", "honey", "sugar", "salad", "soup", "cake",
		"chicken", "duck", "turkey", "egg", "yogurt", "noodle", "corn",
		"bean", "fish_fillet", "bacon", "sausage", "ham", "cream",
	}
	pets := []string{
		"dog", "cat", "rabbit", "hamster", "goldfish", "parrot",
		"canary", "guinea_pig", "turtle", "gecko", "ferret", "pony",
	}
	dogs := []string{
		"chihuahua", "poodle", "beagle", "bulldog", "terrier", "husky",
		"dalmatian", "labrador", "corgi", "pug",
	}
	// Dog breeds are animals (and pets) too.
	animals = append(animals, dogs...)
	pets = append(pets, dogs[:4]...)

	w.addConcept("animal", domain, animals, -1, -1, false)
	w.addConcept("food", domain, foods, -1, -1, false)
	w.addConcept("pet", domain, pets, -1, -1, false)
	w.addConcept("dog_breed", domain, dogs, -1, w.byName["animal"].ID, false)
	w.Domains = append(w.Domains, []int{
		w.byName["animal"].ID, w.byName["food"].ID,
		w.byName["pet"].ID, w.byName["dog_breed"].ID,
	})
}

func (w *World) buildDomain(rng *rand.Rand, names *nameGen) {
	cfg := w.cfg
	domain := len(w.Domains)
	n := cfg.ConceptsPerDomainMin
	if cfg.ConceptsPerDomainMax > cfg.ConceptsPerDomainMin {
		n += rng.Intn(cfg.ConceptsPerDomainMax - cfg.ConceptsPerDomainMin + 1)
	}
	var ids []int
	base := make([]*Concept, 0, n)
	for i := 0; i < n; i++ {
		size := cfg.InstancesPerConceptMin
		if cfg.InstancesPerConceptMax > cfg.InstancesPerConceptMin {
			size += rng.Intn(cfg.InstancesPerConceptMax - cfg.InstancesPerConceptMin + 1)
		}
		insts := make([]string, size)
		for j := range insts {
			insts[j] = names.instance()
		}
		c := w.addConcept(names.concept(), domain, insts, -1, -1, false)
		ids = append(ids, c.ID)
		base = append(base, c)
	}
	// Polysemous bridges between exclusive concepts in the same domain.
	if len(base) >= 2 {
		for _, c := range base {
			for p := 0; p < cfg.PolysemyPerConcept; p++ {
				other := base[rng.Intn(len(base))]
				if other.ID == c.ID {
					continue
				}
				e := c.Instances[rng.Intn(len(c.Instances))]
				w.addMember(other, e)
			}
		}
	}
	// Highly-similar aliases.
	for _, c := range base {
		if rng.Float64() >= cfg.SimilarAliasRate {
			continue
		}
		shared := sampleStrings(rng, c.Instances, int(float64(len(c.Instances))*cfg.SimilarShare))
		extra := 2 + rng.Intn(5)
		for i := 0; i < extra; i++ {
			shared = append(shared, names.instance())
		}
		a := w.addConcept(c.Name+"_kind", domain, shared, c.ID, -1, false)
		ids = append(ids, a.ID)
	}
	// Sub-concepts: a named instance of the parent becomes a concept whose
	// instances are a subset of the parent's.
	for _, c := range base {
		if rng.Float64() >= cfg.SubConceptRate {
			continue
		}
		sub := sampleStrings(rng, c.Instances, maxInt(3, int(float64(len(c.Instances))*cfg.SubConceptShare)))
		s := w.addConcept(names.concept(), domain, sub, -1, c.ID, false)
		ids = append(ids, s.ID)
	}
	// Tail concepts.
	for i := 0; i < cfg.TailConceptsPerDomain; i++ {
		size := 3 + rng.Intn(cfg.TailSizeMax)
		insts := make([]string, size)
		for j := range insts {
			insts[j] = names.instance()
		}
		c := w.addConcept(names.concept(), domain, insts, -1, -1, true)
		ids = append(ids, c.ID)
	}
	w.Domains = append(w.Domains, ids)
}

func (w *World) addConcept(name string, domain int, instances []string, similarOf, parentOf int, tail bool) *Concept {
	if _, dup := w.byName[name]; dup {
		panic(fmt.Sprintf("world: duplicate concept name %q", name))
	}
	c := &Concept{
		ID:        len(w.Concepts),
		Name:      name,
		Domain:    domain,
		SimilarOf: similarOf,
		ParentOf:  parentOf,
		Tail:      tail,
		members:   make(map[string]struct{}, len(instances)),
	}
	for _, e := range instances {
		w.addMember(c, e)
	}
	w.Concepts = append(w.Concepts, c)
	w.byName[name] = c
	return c
}

func (w *World) addMember(c *Concept, e string) {
	if _, ok := c.members[e]; ok {
		return
	}
	c.members[e] = struct{}{}
	c.Instances = append(c.Instances, e)
	w.conceptsOf[e] = append(w.conceptsOf[e], c.ID)
}

func (w *World) buildNERLexicon(rng *rand.Rand) {
	w.nerType = make(map[string]int)
	insts := make([]string, 0, len(w.conceptsOf))
	for e := range w.conceptsOf {
		insts = append(insts, e)
	}
	sort.Strings(insts) // deterministic iteration order
	for _, e := range insts {
		if rng.Float64() >= w.cfg.NERCoverage {
			continue
		}
		// The gazetteer types an instance by its primary (first-assigned)
		// concept — an external resource is blind to polysemy, so a
		// bridge instance carries only one type.
		typ := w.conceptsOf[e][0]
		if rng.Float64() < w.cfg.NERNoise {
			typ = rng.Intn(len(w.Concepts))
		}
		w.nerType[e] = typ
	}
}

// Concept returns the concept with the given surface name, or nil.
func (w *World) Concept(name string) *Concept { return w.byName[name] }

// IsTrue reports whether (concept, instance) is a ground-truth isA pair.
func (w *World) IsTrue(concept, instance string) bool {
	c := w.byName[concept]
	return c != nil && c.Has(instance)
}

// ConceptsOf returns the IDs of all concepts an instance truly belongs to.
func (w *World) ConceptsOf(instance string) []int { return w.conceptsOf[instance] }

// IsPolysemous reports whether the instance belongs to at least two
// mutually exclusive concepts in ground truth.
func (w *World) IsPolysemous(instance string) bool {
	ids := w.conceptsOf[instance]
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if w.ExclusiveTruth(w.Concepts[ids[i]].Name, w.Concepts[ids[j]].Name) {
				return true
			}
		}
	}
	return false
}

// ExclusiveTruth reports the ground-truth mutual exclusion between two
// concepts: distinct concepts are exclusive unless one is an alias or a
// sub-concept of the other.
func (w *World) ExclusiveTruth(c1, c2 string) bool {
	a, b := w.byName[c1], w.byName[c2]
	if a == nil || b == nil || a.ID == b.ID {
		return false
	}
	if a.SimilarOf == b.ID || b.SimilarOf == a.ID {
		return false
	}
	if a.ParentOf == b.ID || b.ParentOf == a.ID {
		return false
	}
	return true
}

// NERType returns the gazetteer type (a concept ID) of an instance for
// the Type-Checking baseline, with ok=false when the instance is not
// covered. This simulates the paper's use of Stanford NER: partial
// coverage, coarse single-type answers, a little noise.
func (w *World) NERType(instance string) (conceptID int, ok bool) {
	d, ok := w.nerType[instance]
	return d, ok
}

// ConceptNames returns all concept names, sorted.
func (w *World) ConceptNames() []string {
	names := make([]string, len(w.Concepts))
	for i, c := range w.Concepts {
		names[i] = c.Name
	}
	sort.Strings(names)
	return names
}

// NumInstances returns the number of distinct instances in the world.
func (w *World) NumInstances() int { return len(w.conceptsOf) }

// EvaluationConcepts picks n concepts to play the role of the paper's 20
// manually labeled concepts (Table 1): the largest concepts first, always
// including at least one tail concept (the paper's "key u.s. export").
func (w *World) EvaluationConcepts(n int) []string {
	sorted := make([]*Concept, len(w.Concepts))
	copy(sorted, w.Concepts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Size() != sorted[j].Size() {
			return sorted[i].Size() > sorted[j].Size()
		}
		return sorted[i].Name < sorted[j].Name
	})
	if n > len(sorted) {
		n = len(sorted)
	}
	out := make([]string, 0, n)
	var tail string
	for _, c := range sorted {
		if c.Tail && tail == "" {
			tail = c.Name
		}
	}
	for _, c := range sorted[:n] {
		out = append(out, c.Name)
	}
	if tail != "" && !containsStr(out, tail) && n > 0 {
		out[len(out)-1] = tail
	}
	sort.Strings(out)
	return out
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func sampleStrings(rng *rand.Rand, src []string, n int) []string {
	if n > len(src) {
		n = len(src)
	}
	perm := rng.Perm(len(src))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = src[perm[i]]
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
