// Package seedlabel prepares the automatically labeled training set of
// Sec 3.2: no human labels exist for millions of concepts, so obvious
// Intentional DPs, Accidental DPs and non-DPs are labeled by strict
// heuristic rules built on evidenced-correct/incorrect instances and the
// discovered mutual-exclusion relations.
//
//	Rule 1: e is an Intentional DP of C when e is evidenced correct for C
//	        but some of its sub-instances are evidenced correct for a
//	        concept mutually exclusive with C.
//	Rule 2: e is an Accidental DP of C when e is evidenced incorrect
//	        for C.
//	Rule 3: e is a non-DP of C when e and all its sub-instances are
//	        evidenced correct for C.
//
// Evidenced correct means: a core pair (first iteration) supported by at
// least K sentences (the paper settles on K=4 via the Fig 5b sweep).
// Evidenced incorrect means: extracted for C exactly once, only after the
// first iteration, while being evidenced correct for a concept exclusive
// with C (the "New York isA Country" situation).
package seedlabel

import (
	"sort"

	"driftclean/internal/dp"
	"driftclean/internal/kb"
	"driftclean/internal/mutex"
)

// Config controls seed labeling.
type Config struct {
	// K is the minimum first-iteration support for evidenced-correct
	// pairs (paper: 4).
	K int
	// WeakCountMax is the maximum support count for a sub-instance to
	// count as drift evidence in Rule 1 (Property 4: drifting errors are
	// weakly supported — empirically, drift subs average ~2 supporting
	// sentences while correct polysemous subs average tens).
	WeakCountMax int
	// AccidentalCountMax is the maximum support count of an
	// evidenced-incorrect pair (the paper says "only once"; a pair that
	// triggered drift gains a handful of extra counts from the sentences
	// it resolved, so a small allowance keeps those labelable).
	AccidentalCountMax int
}

// DefaultConfig returns the paper's K=4 with weak-evidence allowances
// calibrated on the synthetic pipeline.
func DefaultConfig() Config { return Config{K: 4, WeakCountMax: 3, AccidentalCountMax: 2} }

// Labeler computes seed labels over a KB with discovered exclusions.
// It reads the KB's pair records by ID as it labels and precomputes
// nothing, so building one is free; like the analysis it belongs to, it
// describes the KB only while the KB is not mutated.
type Labeler struct {
	kb  *kb.KB
	mx  *mutex.Analysis
	cfg Config
}

// New builds a labeler over k, whose exclusions mx was discovered on
// (on k's symbol table).
func New(k *kb.KB, mx *mutex.Analysis, cfg Config) *Labeler {
	def := DefaultConfig()
	if cfg.K <= 0 {
		cfg.K = def.K
	}
	if cfg.WeakCountMax <= 0 {
		cfg.WeakCountMax = def.WeakCountMax
	}
	if cfg.AccidentalCountMax <= 0 {
		cfg.AccidentalCountMax = def.AccidentalCountMax
	}
	return &Labeler{kb: k, mx: mx, cfg: cfg}
}

// correct reports whether record r is evidenced correct: a core pair
// (first supported in iteration 1) with at least K supporting
// sentences.
func (l *Labeler) correct(r kb.Record) bool { return r.FirstIter <= 1 && r.Count >= l.cfg.K }

// EvidencedCorrect reports whether the pair is evidenced correct.
func (l *Labeler) EvidencedCorrect(concept, instance string) bool {
	r, ok := l.kb.RecordOf(concept, instance)
	return ok && l.correct(r)
}

// exclusiveCorrect reports whether instance e is evidenced correct, with
// a count of at least minCount, for some concept mutually exclusive
// with c.
func (l *Labeler) exclusiveCorrect(c, e kb.Sym, minCount int) bool {
	found := false
	l.kb.EachHolder(e, func(r kb.Record) {
		if !found && l.correct(r) && r.Count >= minCount && l.mx.ExclusiveSym(c, r.Concept) {
			found = true
		}
	})
	return found
}

// EvidencedIncorrect reports whether the pair is evidenced incorrect:
// weakly supported (count at most AccidentalCountMax), first seen after
// iteration 1, while evidenced correct for a concept mutually exclusive
// with this one.
func (l *Labeler) EvidencedIncorrect(concept, instance string) bool {
	r, ok := l.kb.RecordOf(concept, instance)
	if !ok || r.Count < 1 || r.Count > l.cfg.AccidentalCountMax || r.FirstIter <= 1 {
		return false
	}
	return l.exclusiveCorrect(r.Concept, r.Instance, 0)
}

// driftEvidence reports whether sub looks like a drifting error triggered
// into concept: not evidenced correct for the concept, but evidenced
// correct for a mutually exclusive one that carries at least twice its
// support here (Properties 2 and 4 combined). The ratio test is
// scale-free: drift errors accumulate support proportionally to corpus
// density, but their true home always accumulates more.
func (l *Labeler) driftEvidence(concept, sub string) bool {
	c, okc := l.kb.Sym(concept)
	e, oke := l.kb.Sym(sub)
	if !okc || !oke {
		return false
	}
	r, _ := l.kb.Record(c, e)
	if l.correct(r) {
		return false
	}
	return l.exclusiveCorrect(c, e, 2*r.Count)
}

// Label applies Rules 1–3 to one instance whose sub(e) is subs (the
// instance's entry of the concept's kb.SubIndex, or the KB's
// single-instance sub(e) lookup). ok=false means no rule fires and the
// instance stays unlabeled (it becomes semi-supervised fuel).
func (l *Labeler) Label(concept, instance string, subs []string) (dp.Label, bool) {
	if l.EvidencedCorrect(concept, instance) {
		if len(subs) == 0 {
			return 0, false
		}
		// Rule 1: sub-instances that look like drifting errors — weakly
		// supported here but evidenced correct for an exclusive concept —
		// make e an Intentional DP. A single such sub is not enough: a
		// clean trigger occasionally drags in one polysemous bridge,
		// while a real Intentional DP pulls in a cluster of them.
		suspicious, driftSubs := 0, 0
		for _, sub := range subs {
			if l.driftEvidence(concept, sub) {
				driftSubs++
				continue
			}
			// A weak, late sub with no positive evidence for C is
			// unexplained; it blocks the non-DP rule below.
			if r, ok := l.kb.RecordOf(concept, sub); ok &&
				!l.EvidencedCorrect(concept, sub) &&
				r.FirstIter > 1 && r.Count <= 1 {
				suspicious++
			}
		}
		if driftSubs >= 2 {
			return dp.Intentional, true
		}
		if driftSubs == 1 {
			return 0, false // ambiguous: neither Rule 1 nor Rule 3
		}
		// Rule 3: every sub-instance of e carries positive or at least
		// unsuspicious evidence for C. (The paper requires all subs to be
		// evidenced correct; at our corpus scale the core is too small
		// for that to ever fire, so we use the contrapositive — no sub
		// shows any sign of drift.)
		if suspicious == 0 {
			return dp.NonDP, true
		}
		return 0, false
	}
	// Rule 2.
	if l.EvidencedIncorrect(concept, instance) {
		return dp.Accidental, true
	}
	return 0, false
}

// Seeds labels every instance of a concept the rules can decide.
// instances is the concept's kb.Instances list and subs its kb.SubIndex —
// the analysis pass computes both once and shares them with task assembly
// and the feature matrix. Rules 1 and 3 only ever fire for triggering
// instances; Rule 2 also labels non-triggering evidenced-incorrect
// instances — the paper's "New York isA Country" seeds, which are
// training signal for the Accidental class even when they triggered
// nothing.
func (l *Labeler) Seeds(concept string, instances []string, subs map[string][]string) map[string]dp.Label {
	out := make(map[string]dp.Label)
	for _, e := range instances {
		if lbl, ok := l.Label(concept, e, subs[e]); ok {
			out[e] = lbl
		}
	}
	return out
}

// Stats summarizes labeling coverage over a set of concepts: the fraction
// of triggering instances that received a seed label, and the per-class
// counts.
type Stats struct {
	Candidates  int
	Labeled     int
	Intentional int
	Accidental  int
	NonDP       int
}

// LabelRate returns Labeled/Candidates (0 when empty).
func (s Stats) LabelRate() float64 {
	if s.Candidates == 0 {
		return 0
	}
	return float64(s.Labeled) / float64(s.Candidates)
}

// CollectStats labels all given concepts and aggregates coverage over all
// their instances.
func (l *Labeler) CollectStats(concepts []string) Stats {
	var s Stats
	for _, c := range concepts {
		subs := l.kb.SubIndex(c)
		for _, e := range l.kb.Instances(c) {
			s.Candidates++
			lbl, ok := l.Label(c, e, subs[e])
			if !ok {
				continue
			}
			s.Labeled++
			switch lbl {
			case dp.Intentional:
				s.Intentional++
			case dp.Accidental:
				s.Accidental++
			default:
				s.NonDP++
			}
		}
	}
	return s
}

// ConceptsWithSeeds returns the concepts (from the given list) that have
// at least one seed label, sorted.
func (l *Labeler) ConceptsWithSeeds(concepts []string) []string {
	var out []string
	for _, c := range concepts {
		if len(l.Seeds(c, l.kb.Instances(c), l.kb.SubIndex(c))) > 0 {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}
