// Package eval provides the ground-truth oracle and every metric the
// paper's evaluation section reports. Because our corpus is generated from
// a known world (DESIGN.md §1), the oracle labels every isA pair, every
// trigger instance, and every sentence resolution exactly — playing the
// role of the paper's 87k manually labeled instances (Table 1).
//
// Only evaluation and seed-inspection code may depend on this package's
// oracle; the extraction and cleaning pipeline never sees ground truth.
package eval

import (
	"math"
	"sort"

	"driftclean/internal/corpus"
	"driftclean/internal/dp"
	"driftclean/internal/kb"
	"driftclean/internal/world"
)

// Oracle answers ground-truth questions about extractions over a corpus.
type Oracle struct {
	W *world.World
	C *corpus.Corpus
}

// NewOracle builds an oracle for a world/corpus pair.
func NewOracle(w *world.World, c *corpus.Corpus) *Oracle { return &Oracle{W: w, C: c} }

// PairCorrect reports whether (instance isA concept) holds in ground truth.
func (o *Oracle) PairCorrect(concept, instance string) bool {
	return o.W.IsTrue(concept, instance)
}

// TruthLabel assigns the ground-truth DP label to an instance under a
// concept, from the definitions of Sec 2.2: an instance that triggered at
// least one erroneous extraction is an Intentional DP when it is itself
// correct and an Accidental DP when it is itself wrong; everything else is
// a non-DP.
func (o *Oracle) TruthLabel(k *kb.KB, concept, instance string) dp.Label {
	return o.truthLabel(concept, instance, k.SubInstances(concept, instance))
}

// truthLabel is TruthLabel for an instance whose sub(e) is subs.
func (o *Oracle) truthLabel(concept, instance string, subs []string) dp.Label {
	introducedError := false
	for _, sub := range subs {
		if !o.W.IsTrue(concept, sub) {
			introducedError = true
			break
		}
	}
	if !introducedError {
		return dp.NonDP
	}
	if o.W.IsTrue(concept, instance) {
		return dp.Intentional
	}
	return dp.Accidental
}

// ExtractionBad reports whether a resolved extraction chose a concept
// other than the sentence's true concept (used for Table 5's pstc/rstc).
func (o *Oracle) ExtractionBad(k *kb.KB, exID int) bool {
	ex := k.Extraction(exID)
	truth := o.C.Truth(ex.SentenceID)
	return ex.Concept != truth.TrueConcept
}

// ConceptStats is one row of Table 1.
type ConceptStats struct {
	Concept        string
	Instances      int
	Correct        int
	Errors         int
	ErrorPct       float64
	IntentionalDPs int
	AccidentalDPs  int
	NonDPs         int // non-DP triggers, i.e. instances with sub-instances and no introduced error
}

// ConceptStats computes the Table 1 statistics for a concept over the
// current KB. Following the paper, the DP columns only count instances
// that actually trigger sub-instances.
func (o *Oracle) ConceptStats(k *kb.KB, concept string) ConceptStats {
	s := ConceptStats{Concept: concept}
	subIndex := k.SubIndex(concept)
	for _, e := range k.Instances(concept) {
		s.Instances++
		if o.PairCorrect(concept, e) {
			s.Correct++
		} else {
			s.Errors++
		}
		subs := subIndex[e]
		if len(subs) == 0 {
			continue
		}
		switch o.truthLabel(concept, e, subs) {
		case dp.Intentional:
			s.IntentionalDPs++
		case dp.Accidental:
			s.AccidentalDPs++
		default:
			s.NonDPs++
		}
	}
	if s.Instances > 0 {
		s.ErrorPct = float64(s.Errors) / float64(s.Instances)
	}
	return s
}

// KBPrecision returns the fraction of active pairs (over the given
// concepts, or all concepts when nil) that are correct: the PairCounts
// of the concepts, summed.
func (o *Oracle) KBPrecision(k *kb.KB, concepts []string) float64 {
	if concepts == nil {
		concepts = k.Concepts()
	}
	correct, total := 0, 0
	for _, c := range concepts {
		cc, ct := o.PairCounts(k, c)
		correct += cc
		total += ct
	}
	return ratio(correct, total)
}

// PairCounts counts a concept's active pairs and the correct ones among
// them, visiting its pair records in KB order (a function of the
// records, so equal wherever its kb.ConceptDigest is).
func (o *Oracle) PairCounts(k *kb.KB, concept string) (correct, total int) {
	cs, ok := k.Sym(concept)
	if !ok {
		return 0, 0
	}
	truth := o.W.Concept(concept)
	k.EachRecord(cs, func(r kb.Record) {
		if r.Count <= 0 {
			return
		}
		total++
		if truth != nil && truth.Has(k.Name(r.Instance)) {
			correct++
		}
	})
	return correct, total
}

// CleaningMetrics are the four dimensions of Tables 3 and 5:
// PError — precision of removal (removed errors / all removed);
// RError — recall of removal (removed errors / all errors);
// PCorr  — precision of what remains (remaining correct / all remaining);
// RCorr  — recall of what remains (remaining correct / all correct).
type CleaningMetrics struct {
	PError, RError, PCorr, RCorr                                         float64
	Removed, Errors, Remaining, Correct, RemovedErrors, RemainingCorrect int
}

// Cleaning compares a concept's instance set before and after cleaning.
// The concept is resolved in the world and in the KB once. The metrics
// are a function of before and of the concept's records in after.
func (o *Oracle) Cleaning(concept string, before []string, after *kb.KB) CleaningMetrics {
	var m CleaningMetrics
	truth := o.W.Concept(concept)
	c, known := after.Sym(concept)
	for _, e := range before {
		correct := truth != nil && truth.Has(e)
		if correct {
			m.Correct++
		} else {
			m.Errors++
		}
		s, ok := after.Sym(e)
		if known && ok && after.HasSyms(c, s) {
			m.Remaining++
			if correct {
				m.RemainingCorrect++
			}
		} else {
			m.Removed++
			if !correct {
				m.RemovedErrors++
			}
		}
	}
	return m.withRatios()
}

// CleaningRemovedSet scores a removal set directly (for baselines that
// propose removals without mutating the KB).
func (o *Oracle) CleaningRemovedSet(concept string, before []string, removed map[string]bool) CleaningMetrics {
	var m CleaningMetrics
	for _, e := range before {
		correct := o.PairCorrect(concept, e)
		if correct {
			m.Correct++
		} else {
			m.Errors++
		}
		if removed[e] {
			m.Removed++
			if !correct {
				m.RemovedErrors++
			}
		} else {
			m.Remaining++
			if correct {
				m.RemainingCorrect++
			}
		}
	}
	return m.withRatios()
}

// MergeCleaning micro-aggregates per-concept cleaning metrics.
func MergeCleaning(ms []CleaningMetrics) CleaningMetrics {
	var t CleaningMetrics
	for _, m := range ms {
		t.Removed += m.Removed
		t.Errors += m.Errors
		t.Remaining += m.Remaining
		t.Correct += m.Correct
		t.RemovedErrors += m.RemovedErrors
		t.RemainingCorrect += m.RemainingCorrect
	}
	return t.withRatios()
}

// withRatios returns m with its four ratios computed from its counts.
func (m CleaningMetrics) withRatios() CleaningMetrics {
	m.PError, m.RError = ratio(m.RemovedErrors, m.Removed), ratio(m.RemovedErrors, m.Errors)
	m.PCorr, m.RCorr = ratio(m.RemainingCorrect, m.Remaining), ratio(m.RemainingCorrect, m.Correct)
	return m
}

// PRF1 is a precision/recall/F1 triple.
type PRF1 struct {
	Precision, Recall, F1 float64
	TP, FP, FN            int
}

// Detection scores binary DP detection (predicted DP of either type vs
// ground truth DP of either type) over labeled instances.
func Detection(truth, predicted map[string]dp.Label) PRF1 {
	var m PRF1
	for e, p := range predicted {
		t, ok := truth[e]
		if !ok {
			continue
		}
		switch {
		case p.IsDP() && t.IsDP():
			m.TP++
		case p.IsDP() && !t.IsDP():
			m.FP++
		}
	}
	for e, t := range truth {
		if !t.IsDP() {
			continue
		}
		if p, ok := predicted[e]; !ok || !p.IsDP() {
			m.FN++
		}
	}
	m.Precision = ratio(m.TP, m.TP+m.FP)
	m.Recall = ratio(m.TP, m.TP+m.FN)
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// Accuracy computes three-class label accuracy over the intersection of
// the two maps (Fig 5c's y-axis).
func Accuracy(truth, predicted map[string]dp.Label) float64 {
	agree, total := 0, 0
	for e, t := range truth {
		p, ok := predicted[e]
		if !ok {
			continue
		}
		total++
		if p == t {
			agree++
		}
	}
	return ratio(agree, total)
}

// PrecisionAtK returns the fraction of the first k ranked instances that
// are correct for the concept; ranked lists shorter than k are scored over
// their full length.
func (o *Oracle) PrecisionAtK(concept string, ranked []string, k int) float64 {
	if k > len(ranked) {
		k = len(ranked)
	}
	if k == 0 {
		return 0
	}
	correct := 0
	for _, e := range ranked[:k] {
		if o.PairCorrect(concept, e) {
			correct++
		}
	}
	return float64(correct) / float64(k)
}

// SentenceCheck scores a bad-resolution flagging strategy (Table 5's pstc
// and rstc): flagged is the set of extraction IDs the strategy marked bad;
// candidates is the full set of extraction IDs the strategy examined.
func (o *Oracle) SentenceCheck(k *kb.KB, candidates []int, flagged map[int]bool) PRF1 {
	var m PRF1
	for _, id := range candidates {
		bad := o.ExtractionBad(k, id)
		switch {
		case flagged[id] && bad:
			m.TP++
		case flagged[id] && !bad:
			m.FP++
		case !flagged[id] && bad:
			m.FN++
		}
	}
	m.Precision = ratio(m.TP, m.TP+m.FP)
	m.Recall = ratio(m.TP, m.TP+m.FN)
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// TruthLabels returns the ground-truth DP labels of every triggering
// instance (sub-instances ≥ 1) under a concept.
func (o *Oracle) TruthLabels(k *kb.KB, concept string) map[string]dp.Label {
	out := make(map[string]dp.Label)
	for e, subs := range k.SubIndex(concept) {
		out[e] = o.truthLabel(concept, e, subs)
	}
	return out
}

// SeedLabelCorrect judges one seed label: an Intentional or non-DP seed
// must match the full DP truth label; an Accidental seed is correct
// whenever the pair itself is wrong — the essence of Definition 4 — even
// if the instance happened to trigger nothing.
func (o *Oracle) SeedLabelCorrect(k *kb.KB, concept, instance string, label dp.Label) bool {
	if label == dp.Accidental {
		return !o.PairCorrect(concept, instance)
	}
	return o.TruthLabel(k, concept, instance) == label
}

// SeedQuality measures a seed-labeling pass against ground truth
// (Fig 5b): precision is the fraction of labeled instances whose label
// matches truth; recall is the fraction of truth-labelable instances that
// received a label.
func SeedQuality(truth, seeds map[string]dp.Label) (precision, recall float64) {
	agree := 0
	for e, l := range seeds {
		if t, ok := truth[e]; ok && t == l {
			agree++
		}
	}
	return ratio(agree, len(seeds)), ratio(len(seeds), len(truth))
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Quantiles returns the q-quantiles (e.g. {0.25, 0.5, 0.75}) of xs.
func Quantiles(xs []float64, qs []float64) []float64 {
	if len(xs) == 0 {
		return make([]float64, len(qs))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		pos := q * float64(len(sorted)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		out[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return out
}
