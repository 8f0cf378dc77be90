package seedlabel

import (
	"reflect"
	"testing"

	"driftclean/internal/corpus"
	"driftclean/internal/dp"
	"driftclean/internal/eval"
	"driftclean/internal/extract"
	"driftclean/internal/kb"
	"driftclean/internal/mutex"
	"driftclean/internal/world"
)

// scenarioKB reproduces the paper's running examples in miniature:
//
//	animal core: chicken(x5), dog(x5), cat(x5)
//	food core:   pork(x5), beef(x5), chicken-as-food is NOT core
//	chicken triggers pork and beef under animal  -> Rule 1 Intentional
//	dog triggers cat under animal                -> Rule 3 non-DP
//	new_york: count-1 late extraction under country, evidenced city
//	         -> Rule 2 Accidental
func scenarioKB() *kb.KB {
	k := kb.New()
	rep := func(n int, concept string, insts []string) {
		for i := 0; i < n; i++ {
			k.AddExtraction(len(insts)*1000+i, concept, nil, insts, nil, 1)
		}
	}
	rep(5, "animal", []string{"chicken", "dog", "cat"})
	rep(5, "food", []string{"pork", "beef", "milk"})
	rep(5, "city", []string{"new_york", "boston", "chicago"})
	rep(5, "country", []string{"france", "japan", "norway"})
	// chicken triggers pork/beef under animal (S3 drift).
	k.AddExtraction(1, "animal", []string{"food", "animal"}, []string{"pork", "beef", "chicken"}, []string{"chicken"}, 2)
	// dog triggers cat (correct).
	k.AddExtraction(2, "animal", []string{"animal", "pet"}, []string{"cat", "dog"}, []string{"dog"}, 2)
	// new_york appears once under country in a later iteration.
	k.AddExtraction(3, "country", []string{"country", "city"}, []string{"new_york", "france"}, []string{"france"}, 2)
	return k
}

func newLabeler(t *testing.T, k *kb.KB) *Labeler {
	t.Helper()
	mx := mutex.Analyze(k, mutex.Config{ExclusiveThreshold: 0.02, SimilarThreshold: 0.2, MinCoreSize: 3})
	return New(k, mx, DefaultConfig())
}

func TestEvidencedCorrect(t *testing.T) {
	l := newLabeler(t, scenarioKB())
	if !l.EvidencedCorrect("animal", "chicken") {
		t.Error("chicken (count 5+ in core) must be evidenced correct")
	}
	if l.EvidencedCorrect("animal", "pork") {
		t.Error("pork under animal (late, count 1) must not be evidenced correct")
	}
}

func TestEvidencedIncorrect(t *testing.T) {
	l := newLabeler(t, scenarioKB())
	if !l.EvidencedIncorrect("country", "new_york") {
		t.Error("new_york under country must be evidenced incorrect")
	}
	if l.EvidencedIncorrect("city", "new_york") {
		t.Error("new_york under city is core, not evidenced incorrect")
	}
	if l.EvidencedIncorrect("country", "france") {
		t.Error("core france must not be evidenced incorrect")
	}
}

func TestRule1Intentional(t *testing.T) {
	l := newLabeler(t, scenarioKB())
	lbl, ok := l.Label("animal", "chicken", l.kb.SubInstances("animal", "chicken"))
	if !ok || lbl != dp.Intentional {
		t.Errorf("chicken label = %v ok=%v, want Intentional", lbl, ok)
	}
}

func TestRule2Accidental(t *testing.T) {
	l := newLabeler(t, scenarioKB())
	lbl, ok := l.Label("country", "new_york", l.kb.SubInstances("country", "new_york"))
	if !ok || lbl != dp.Accidental {
		t.Errorf("new_york label = %v ok=%v, want Accidental", lbl, ok)
	}
}

func TestRule3NonDP(t *testing.T) {
	l := newLabeler(t, scenarioKB())
	lbl, ok := l.Label("animal", "dog", l.kb.SubInstances("animal", "dog"))
	if !ok || lbl != dp.NonDP {
		t.Errorf("dog label = %v ok=%v, want NonDP", lbl, ok)
	}
}

func TestUnlabeledWhenNoRuleFires(t *testing.T) {
	l := newLabeler(t, scenarioKB())
	// cat is evidenced correct but triggers nothing: stays unlabeled.
	if _, ok := l.Label("animal", "cat", l.kb.SubInstances("animal", "cat")); ok {
		t.Error("non-triggering instance should stay unlabeled")
	}
}

func TestSeedsOnlyTriggeringInstances(t *testing.T) {
	l := newLabeler(t, scenarioKB())
	seeds := l.Seeds("animal", l.kb.Instances("animal"), l.kb.SubIndex("animal"))
	if seeds["chicken"] != dp.Intentional || seeds["dog"] != dp.NonDP {
		t.Errorf("Seeds(animal) = %v", seeds)
	}
	if _, ok := seeds["cat"]; ok {
		t.Error("cat triggers nothing; must not be seeded")
	}
}

func TestCollectStats(t *testing.T) {
	l := newLabeler(t, scenarioKB())
	// chicken is Intentional (two drift-evidence subs); france triggered
	// only the single wrong new_york pair, which is below Rule 1's
	// two-sub requirement, so it stays unlabeled; dog is non-DP; pork,
	// beef and new_york are Accidental.
	s := l.CollectStats([]string{"animal", "country", "city"})
	if s.Intentional != 1 || s.NonDP != 1 || s.Accidental != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.Candidates != 12 {
		t.Errorf("candidates = %d, want 12 (all instances)", s.Candidates)
	}
	if s.LabelRate() <= 0 || s.LabelRate() > 1 {
		t.Errorf("label rate = %v", s.LabelRate())
	}
}

// End-to-end: seed precision on a real synthetic pipeline should be high —
// the strict rules trade recall for precision (paper: >99% at K=4).
func TestSeedPrecisionOnPipeline(t *testing.T) {
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
	l := New(res.KB, mx, DefaultConfig())
	oracle := eval.NewOracle(w, c)

	agree, labeled := 0, 0
	classes := map[dp.Label]int{}
	for _, concept := range res.KB.Concepts() {
		for e, lbl := range l.Seeds(concept, res.KB.Instances(concept), res.KB.SubIndex(concept)) {
			labeled++
			classes[lbl]++
			if oracle.SeedLabelCorrect(res.KB, concept, e, lbl) {
				agree++
			}
		}
	}
	if labeled == 0 {
		t.Fatal("no seeds labeled on the pipeline")
	}
	prec := float64(agree) / float64(labeled)
	t.Logf("seed labels: %d (%v), precision %.3f", labeled, classes, prec)
	if prec < 0.85 {
		t.Errorf("seed precision %.3f too low (paper: ~0.99 at K=4)", prec)
	}
	for _, lbl := range []dp.Label{dp.Intentional, dp.Accidental, dp.NonDP} {
		if classes[lbl] == 0 {
			t.Errorf("no %v seeds produced; detector training needs all classes", lbl)
		}
	}
}

// TestSeedsMatchPerInstanceLabel pins the index-fed Seeds to the
// per-instance path: on the scenario and on a pipeline KB, Seeds over
// the concept's kb.SubIndex labels exactly the instances that Label over
// kb.SubInstances labels, with the same labels.
func TestSeedsMatchPerInstanceLabel(t *testing.T) {
	wcfg := world.DefaultConfig()
	wcfg.NumDomains = 2
	wcfg.InstancesPerConceptMin = 30
	wcfg.InstancesPerConceptMax = 60
	w := world.New(wcfg)
	ccfg := corpus.DefaultConfig()
	ccfg.NumSentences = 6000
	pipeline := extract.Run(corpus.Generate(w, ccfg), extract.DefaultConfig()).KB

	for name, k := range map[string]*kb.KB{"scenario": scenarioKB(), "pipeline": pipeline} {
		t.Run(name, func(t *testing.T) {
			l := newLabeler(t, k)
			labeled := 0
			for _, c := range k.Concepts() {
				instances := k.Instances(c)
				want := map[string]dp.Label{}
				for _, e := range instances {
					if lbl, ok := l.Label(c, e, k.SubInstances(c, e)); ok {
						want[e] = lbl
					}
				}
				got := l.Seeds(c, instances, k.SubIndex(c))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Seeds(%s) = %v, per-instance Label gives %v", c, got, want)
				}
				labeled += len(got)
			}
			if labeled == 0 {
				t.Fatal("no seeds labeled; the comparison is vacuous")
			}
		})
	}
}
