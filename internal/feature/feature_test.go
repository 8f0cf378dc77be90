package feature

import (
	"sync"
	"testing"

	"driftclean/internal/corpus"
	"driftclean/internal/dp"
	"driftclean/internal/eval"
	"driftclean/internal/extract"
	"driftclean/internal/kb"
	"driftclean/internal/mutex"
	"driftclean/internal/world"
)

// scenarioKB: animal core {chicken, dog, cat} repeated; food core
// {pork, beef, milk}; chicken triggers pork/beef under animal (drift),
// dog triggers cat (clean).
func scenarioKB() *kb.KB {
	k := kb.New()
	for i := 0; i < 6; i++ {
		k.AddExtraction(i, "animal", nil, []string{"chicken", "dog", "cat"}, nil, 1)
		k.AddExtraction(100+i, "food", nil, []string{"pork", "beef", "milk", "chicken"}, nil, 1)
	}
	k.AddExtraction(200, "animal", nil, []string{"pork", "beef", "chicken"}, []string{"chicken"}, 2)
	k.AddExtraction(201, "animal", nil, []string{"cat", "dog"}, []string{"dog"}, 2)
	return k
}

// sub is sub(e) through the per-instance kb entry point.
func sub(x *Extractor, concept, instance string) []string {
	return x.kb.SubInstances(concept, instance)
}

// instanceLists returns each concept's k.Instances list, the input
// NewExtractorWithCache expects.
func instanceLists(k *kb.KB) map[string][]string {
	concepts := k.Concepts()
	instances := make(map[string][]string, len(concepts))
	for _, c := range concepts {
		instances[c] = k.Instances(c)
	}
	return instances
}

func newExtractor(k *kb.KB) *Extractor {
	mx := mutex.Analyze(k, mutex.Config{ExclusiveThreshold: 0.3, SimilarThreshold: 0.9, MinCoreSize: 3})
	return NewExtractor(k, mx)
}

func TestF1CleanTriggerAboveDriftTrigger(t *testing.T) {
	x := newExtractor(scenarioKB())
	f1Dog := x.F1("animal", sub(x, "animal", "dog"))
	f1Chicken := x.F1("animal", sub(x, "animal", "chicken"))
	if f1Dog <= f1Chicken {
		t.Errorf("f1(dog)=%v should exceed f1(chicken)=%v: dog triggers core instances, chicken triggers food",
			f1Dog, f1Chicken)
	}
	if x.F1("animal", sub(x, "animal", "cat")) != 0 {
		t.Error("non-triggering instance must have f1 = 0")
	}
}

func TestF2CountsExclusiveMemberships(t *testing.T) {
	x := newExtractor(scenarioKB())
	// chicken is in both animal and food cores; animal/food share exactly
	// one core instance (chicken) so their cosine is low enough to be
	// exclusive under the test thresholds.
	if got := x.F2("animal", "chicken"); got != 1 {
		t.Errorf("f2(chicken under animal) = %v, want 1", got)
	}
	if got := x.F2("animal", "dog"); got != 0 {
		t.Errorf("f2(dog under animal) = %v, want 0", got)
	}
	// pork under animal: pork is also in food (exclusive) -> 1.
	if got := x.F2("animal", "pork"); got != 1 {
		t.Errorf("f2(pork under animal) = %v, want 1", got)
	}
}

func TestF3CoreAboveTriggered(t *testing.T) {
	x := newExtractor(scenarioKB())
	if x.F3("animal", "dog") <= x.F3("animal", "pork") {
		t.Errorf("f3(dog)=%v should exceed f3(pork)=%v", x.F3("animal", "dog"), x.F3("animal", "pork"))
	}
}

func TestF4CleanTriggerAboveDriftTrigger(t *testing.T) {
	x := newExtractor(scenarioKB())
	// dog's sub (cat) is core with a high walk score; chicken's subs
	// (pork, beef) are drift leaves with low scores.
	if x.F4("animal", sub(x, "animal", "dog")) <= x.F4("animal", sub(x, "animal", "chicken")) {
		t.Errorf("f4(dog)=%v should exceed f4(chicken)=%v",
			x.F4("animal", sub(x, "animal", "dog")), x.F4("animal", sub(x, "animal", "chicken")))
	}
	if x.F4("animal", sub(x, "animal", "cat")) != 0 {
		t.Error("non-triggering instance must have f4 = 0")
	}
}

func TestVectorAndMatrixShape(t *testing.T) {
	x := newExtractor(scenarioKB())
	v := x.Vector("animal", "chicken", sub(x, "animal", "chicken"))
	if len(v) != Dim {
		t.Fatalf("Vector length %d, want %d", len(v), Dim)
	}
	m := x.Matrix("animal", []string{"chicken", "dog"}, x.kb.SubIndex("animal"))
	if len(m) != 2 || len(m[0]) != Dim {
		t.Fatalf("Matrix shape %dx%d", len(m), len(m[0]))
	}
	if m[0][2] != x.F3("animal", "chicken") {
		t.Error("Matrix rows must align with instance order")
	}
}

func TestScoresCached(t *testing.T) {
	x := newExtractor(scenarioKB())
	s1 := x.Scores("animal")
	s2 := x.Scores("animal")
	if &s1 == nil || len(s1) != len(s2) {
		t.Fatal("scores changed between calls")
	}
}

// Fig 3's qualitative claims, on the full synthetic pipeline: averaged
// per class, non-DPs have the highest f1, Accidental DPs the lowest f3,
// and non-DPs the highest f4.
func TestFig3ShapeOnPipeline(t *testing.T) {
	wcfg := world.DefaultConfig()
	wcfg.NumDomains = 3
	wcfg.InstancesPerConceptMin = 60
	wcfg.InstancesPerConceptMax = 120
	w := world.New(wcfg)
	ccfg := corpus.DefaultConfig()
	ccfg.NumSentences = 30000
	c := corpus.Generate(w, ccfg)
	res := extract.Run(c, extract.DefaultConfig())
	mx := mutex.Analyze(res.KB, mutex.DefaultConfig())
	x := NewExtractor(res.KB, mx)
	oracle := eval.NewOracle(w, c)

	sum := map[dp.Label][]float64{}
	n := map[dp.Label]int{}
	for _, concept := range res.KB.Concepts() {
		for e, lbl := range oracle.TruthLabels(res.KB, concept) {
			v := x.Vector(concept, e, res.KB.SubInstances(concept, e))
			if sum[lbl] == nil {
				sum[lbl] = make([]float64, Dim)
			}
			for i := range v {
				sum[lbl][i] += v[i]
			}
			n[lbl]++
		}
	}
	if n[dp.NonDP] == 0 || n[dp.Intentional] == 0 || n[dp.Accidental] == 0 {
		t.Skipf("pipeline lacks a class: %v", n)
	}
	avg := func(l dp.Label, i int) float64 { return sum[l][i] / float64(n[l]) }
	t.Logf("avg f1: non=%.3f int=%.3f acc=%.3f", avg(dp.NonDP, 0), avg(dp.Intentional, 0), avg(dp.Accidental, 0))
	t.Logf("avg f2: non=%.3f int=%.3f acc=%.3f", avg(dp.NonDP, 1), avg(dp.Intentional, 1), avg(dp.Accidental, 1))
	t.Logf("avg f3: non=%.5f int=%.5f acc=%.5f", avg(dp.NonDP, 2), avg(dp.Intentional, 2), avg(dp.Accidental, 2))
	t.Logf("avg f4: non=%.5f int=%.5f acc=%.5f", avg(dp.NonDP, 3), avg(dp.Intentional, 3), avg(dp.Accidental, 3))

	if avg(dp.NonDP, 0) <= avg(dp.Accidental, 0) {
		t.Error("Fig 3a: non-DPs should average higher f1 than Accidental DPs")
	}
	if avg(dp.NonDP, 3) <= avg(dp.Accidental, 3) {
		t.Error("Fig 3d: non-DPs should average higher f4 than Accidental DPs")
	}
}

func TestF5WeakFraction(t *testing.T) {
	x := newExtractor(scenarioKB())
	// chicken's subs (pork, beef) each have count 1 under animal -> all weak.
	if got := x.F5("animal", sub(x, "animal", "chicken")); got != 1 {
		t.Errorf("f5(chicken) = %v, want 1", got)
	}
	// dog's sub (cat) is core with count 7 -> not weak.
	if got := x.F5("animal", sub(x, "animal", "dog")); got != 0 {
		t.Errorf("f5(dog) = %v, want 0", got)
	}
	if got := x.F5("animal", sub(x, "animal", "cat")); got != 0 {
		t.Errorf("f5(non-trigger) = %v, want 0", got)
	}
}

func TestF6CrossMembershipFraction(t *testing.T) {
	x := newExtractor(scenarioKB())
	// chicken's subs pork/beef live under food (count 6 > crossEvidenceMin,
	// and 6 >= 2*1 here) and food is exclusive with animal.
	if got := x.F6("animal", sub(x, "animal", "chicken")); got != 1 {
		t.Errorf("f6(chicken) = %v, want 1", got)
	}
	// dog's sub cat is only under animal.
	if got := x.F6("animal", sub(x, "animal", "dog")); got != 0 {
		t.Errorf("f6(dog) = %v, want 0", got)
	}
}

// TestWarmParallelMatchesSerial: an extractor whose walk and class
// caches were filled by concurrent Matrix calls, one goroutine per
// concept, reads the same features as one read serially.
func TestWarmParallelMatchesSerial(t *testing.T) {
	k := scenarioKB()
	mx := mutex.Analyze(k, mutex.Config{ExclusiveThreshold: 0.3, SimilarThreshold: 0.9, MinCoreSize: 3})
	serial := NewExtractor(k, mx)
	warm := NewExtractor(k, mx)
	concepts := []string{"animal", "food"}
	var wg sync.WaitGroup
	for _, concept := range concepts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warm.Matrix(concept, k.Instances(concept), k.SubIndex(concept))
		}()
	}
	wg.Wait()
	for _, concept := range concepts {
		for _, e := range k.Instances(concept) {
			subs := k.SubInstances(concept, e)
			a := serial.Vector(concept, e, subs)
			b := warm.Vector(concept, e, subs)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("Warm changed feature %d of (%s,%s): %v vs %v", i, concept, e, a[i], b[i])
				}
			}
		}
	}
}
