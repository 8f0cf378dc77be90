// Package kb implements the isA knowledge base underlying the
// semantic-based iterative extractor. Besides (concept, instance) pairs
// with support counts, it records full provenance: which sentence produced
// each extraction and which already-known pairs *triggered* it (paper
// Sec 2.1: "an existing instance triggers the extraction of some other
// instances"). This trigger graph is the single substrate behind
//
//   - the sub-instance sets sub(e) used by features f1 and f4 (Sec 3.1),
//   - the random-walk scoring graph (Sec 5.2),
//   - ground-truth DP labeling in evaluation, and
//   - the cascading roll-back of Sec 4.2: removing a pair rolls back
//     every extraction that depended on it, which can zero other pairs'
//     counts and propagate further.
package kb

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"driftclean/internal/memo"
)

// Pair is an isA pair: Instance isA Concept.
type Pair struct {
	Concept  string
	Instance string
}

// String renders the pair in "(instance isA concept)" form.
func (p Pair) String() string { return fmt.Sprintf("(%s isA %s)", p.Instance, p.Concept) }

// Extraction records one resolved sentence parse.
type Extraction struct {
	ID         int
	SentenceID int
	Concept    string   // the concept the extractor chose
	Candidates []string // the sentence's candidate concepts at parse time
	Instances  []string // instance tokens extracted under Concept
	Triggers   []string // instances already known under Concept that enabled this resolution; empty in iteration 1
	Iteration  int      // 1-based extraction iteration
	Active     bool     // false once rolled back
}

// PairInfo aggregates the state of one isA pair.
type PairInfo struct {
	Count       int   // number of active extractions supporting the pair
	FirstIter   int   // iteration of the first supporting extraction
	Extractions []int // extraction IDs supporting the pair (including inactive)
}

// KB is the mutable knowledge base. It is not safe for concurrent use
// while mutated; a sealed KB (Seal) is never mutated again and is safe
// for any number of concurrent readers.
type KB struct {
	pairs       map[Pair]*PairInfo
	extractions []*Extraction
	// triggeredBy[p] lists extraction IDs in which pair p served as a
	// trigger.
	triggeredBy map[Pair][]int
	byConcept   map[string]map[string]*PairInfo // concept -> instance -> info
	// version counts mutations (extraction adds, pair removals,
	// rollbacks). Caches keyed on KB state compare versions to detect
	// that their entries went stale.
	version uint64
	// digest[c] is ConceptDigest(c), kept current by every mutator.
	digest map[string]uint64
	// numPairs counts the pair records with positive count, and
	// holders[e] lists, sorted, the concepts holding e with positive
	// count (no key when none does). Both change only at a record's
	// 0↔positive count transitions, in supportPair and setCount. A
	// holder list is copy-on-write: a transition replaces the slice and
	// never edits it, so a returned list never changes and clones share
	// the lists.
	numPairs int
	holders  map[string][]string
	// sealed makes every mutator panic (Seal).
	sealed bool
}

// Seal makes the KB read-only for good: every later AddExtraction,
// RemovePairs, RemovePairsNoCascade or RollbackExtractions call panics.
// A published snapshot serves its KB without copying it, so a mutation
// that would corrupt what readers see fails loudly instead. Sealing
// counts as a mutation for Version. Clone returns an unsealed copy.
func (kb *KB) Seal() {
	if !kb.sealed {
		kb.version++
		kb.sealed = true
	}
}

// mutation starts a mutating call named op: it panics on a sealed KB
// and bumps the version otherwise.
func (kb *KB) mutation(op string) {
	if kb.sealed {
		panic("kb: " + op + " on a sealed KB: a published KB is read-only; mutate a Clone")
	}
	kb.version++
}

// Version returns the KB's mutation counter. It increases on every
// mutating call (AddExtraction, RemovePairs, RemovePairsNoCascade,
// RollbackExtractions, and the first Seal), so two reads returning the
// same value bracket a window in which the KB was not modified.
func (kb *KB) Version() uint64 { return kb.version }

// ConceptDigest returns a 64-bit content digest of one concept's slice
// of the KB: the sum, mod 2⁶⁴, of one mixed term per extraction of the
// concept (over its Instances, Triggers, Iteration and Active flag) and
// one per pair record of the concept (over its instance, Count and
// FirstIter, zero-count records included). Every mutator updates it
// incrementally, so reading it is O(1).
//
// Everything the per-concept analysis artifacts read of their own
// concept — the instance list and core, the sub(e) index and the
// trigger graph — is a function of those records, so equal digests
// mean equal artifacts, on any KB of this process: the terms are keyed
// hashes under a per-process seed (memo.String), which also keeps
// collisions from being crafted through ingested text. Both kinds of
// term are needed: RemovePairs zeroes a pair's count without
// deactivating the extractions that support it. A concept the KB has
// never seen has digest 0.
func (kb *KB) ConceptDigest(concept string) uint64 { return kb.digest[concept] }

// extractionTerm is ex's term of its concept's digest.
func extractionTerm(ex *Extraction) uint64 {
	h := memo.Strings(memo.Strings(uint64(ex.Iteration), ex.Instances), ex.Triggers)
	if ex.Active {
		h++
	}
	return memo.Mix(h)
}

// pairTerm is the term of one pair record of its concept's digest,
// given the record's instance hash (memo.String).
func pairTerm(instance uint64, info *PairInfo) uint64 {
	return memo.Mix(memo.Mix(instance+uint64(info.Count)) + uint64(info.FirstIter))
}

// setCount changes a pair record's count, keeps the whole-KB
// aggregates current, and returns the change it makes to its concept's
// digest.
func (kb *KB) setCount(p Pair, info *PairInfo, count int) uint64 {
	h := memo.String(p.Instance)
	old := pairTerm(h, info)
	switch was := info.Count; {
	case was <= 0 && count > 0:
		kb.activate(p)
	case was > 0 && count <= 0:
		kb.deactivate(p)
	}
	info.Count = count
	return pairTerm(h, info) - old
}

// activate records p's count turning positive: one more active pair,
// and p's concept joins the instance's holder list (a new slice).
func (kb *KB) activate(p Pair) {
	kb.numPairs++
	old := kb.holders[p.Instance]
	i, _ := slices.BinarySearch(old, p.Concept)
	l := make([]string, len(old)+1)
	copy(l, old[:i])
	l[i] = p.Concept
	copy(l[i+1:], old[i:])
	kb.holders[p.Instance] = l
}

// deactivate records p's count reaching zero: one active pair fewer,
// and p's concept leaves the instance's holder list (a new slice, or
// no key once the list is empty).
func (kb *KB) deactivate(p Pair) {
	kb.numPairs--
	old := kb.holders[p.Instance]
	if len(old) == 1 {
		delete(kb.holders, p.Instance)
		return
	}
	i, _ := slices.BinarySearch(old, p.Concept)
	l := make([]string, 0, len(old)-1)
	kb.holders[p.Instance] = append(append(l, old[:i]...), old[i+1:]...)
}

// recomputeDigests builds every concept's digest from scratch.
func (kb *KB) recomputeDigests() map[string]uint64 {
	out := make(map[string]uint64)
	for _, ex := range kb.extractions {
		out[ex.Concept] += extractionTerm(ex)
	}
	for p, info := range kb.pairs {
		out[p.Concept] += pairTerm(memo.String(p.Instance), info)
	}
	return out
}

// New returns an empty knowledge base.
func New() *KB {
	return &KB{
		pairs:       make(map[Pair]*PairInfo),
		triggeredBy: make(map[Pair][]int),
		byConcept:   make(map[string]map[string]*PairInfo),
		digest:      make(map[string]uint64),
		holders:     make(map[string][]string),
	}
}

// AddExtraction records a resolved sentence: all instances are extracted
// under concept, enabled by the given trigger instances (nil for
// iteration-1 core extractions). It returns the new extraction's ID.
func (kb *KB) AddExtraction(sentenceID int, concept string, candidates, instances, triggers []string, iteration int) int {
	kb.mutation("AddExtraction")
	// The three defensive copies share one backing array (each segment
	// separately capped, so appending to one can never reach another);
	// empty inputs stay nil, matching Clone.
	buf := make([]string, 0, len(candidates)+len(instances)+len(triggers))
	carve := func(src []string) []string {
		if len(src) == 0 {
			return nil
		}
		start := len(buf)
		buf = append(buf, src...)
		return buf[start:len(buf):len(buf)]
	}
	ex := &Extraction{
		ID:         len(kb.extractions),
		SentenceID: sentenceID,
		Concept:    concept,
		Candidates: carve(candidates),
		Instances:  carve(instances),
		Triggers:   carve(triggers),
		Iteration:  iteration,
		Active:     true,
	}
	kb.extractions = append(kb.extractions, ex)
	d := kb.digest[concept] + extractionTerm(ex)
	for _, e := range ex.Instances {
		d += kb.supportPair(Pair{concept, e}, ex)
	}
	kb.digest[concept] = d
	for _, trig := range ex.Triggers {
		p := Pair{concept, trig}
		kb.triggeredBy[p] = append(kb.triggeredBy[p], ex.ID)
	}
	return ex.ID
}

// supportPair counts one more supporting extraction of p and returns
// the change it makes to p's concept digest.
func (kb *KB) supportPair(p Pair, ex *Extraction) uint64 {
	h := memo.String(p.Instance)
	var delta uint64
	info := kb.pairs[p]
	if info == nil {
		info = &PairInfo{FirstIter: ex.Iteration}
		kb.pairs[p] = info
		m := kb.byConcept[p.Concept]
		if m == nil {
			m = make(map[string]*PairInfo)
			kb.byConcept[p.Concept] = m
		}
		m[p.Instance] = info
	} else {
		delta -= pairTerm(h, info)
	}
	info.Count++
	if info.Count == 1 {
		kb.activate(p)
	}
	if ex.Iteration < info.FirstIter {
		info.FirstIter = ex.Iteration
	}
	info.Extractions = append(info.Extractions, ex.ID)
	return delta + pairTerm(h, info)
}

// Clone returns a deep copy of the KB: mutating either copy (adding
// extractions, rolling back pairs) never affects the other. String
// contents are shared — Go strings are immutable — and so are the
// copy-on-write holder lists, so a clone costs one allocation per
// extraction, pair and index slice rather than a byte copy of the
// vocabulary. The clone is unsealed, even when the KB is sealed: it is
// how a caller gets a mutable copy of a published KB, and how
// snapshot.Freeze isolates a snapshot from a KB its owner keeps
// mutating.
func (kb *KB) Clone() *KB {
	out := New()
	out.extractions = make([]*Extraction, len(kb.extractions))
	for i, ex := range kb.extractions {
		c := *ex
		c.Candidates = append([]string(nil), ex.Candidates...)
		c.Instances = append([]string(nil), ex.Instances...)
		c.Triggers = append([]string(nil), ex.Triggers...)
		out.extractions[i] = &c
	}
	for p, ids := range kb.triggeredBy {
		cp := make([]int, len(ids))
		copy(cp, ids)
		out.triggeredBy[p] = cp
	}
	for p, info := range kb.pairs {
		ci := &PairInfo{
			Count:       info.Count,
			FirstIter:   info.FirstIter,
			Extractions: append([]int(nil), info.Extractions...),
		}
		out.pairs[p] = ci
		m := out.byConcept[p.Concept]
		if m == nil {
			m = make(map[string]*PairInfo)
			out.byConcept[p.Concept] = m
		}
		m[p.Instance] = ci
	}
	out.version = kb.version
	out.digest = maps.Clone(kb.digest)
	out.numPairs = kb.numPairs
	out.holders = maps.Clone(kb.holders)
	return out
}

// Has reports whether the pair is currently in the KB with positive count.
func (kb *KB) Has(concept, instance string) bool {
	info := kb.pairs[Pair{concept, instance}]
	return info != nil && info.Count > 0
}

// Count returns the active support count of a pair (0 if absent).
func (kb *KB) Count(concept, instance string) int {
	if info := kb.pairs[Pair{concept, instance}]; info != nil {
		return info.Count
	}
	return 0
}

// Info returns the PairInfo for a pair, or nil.
func (kb *KB) Info(concept, instance string) *PairInfo {
	return kb.pairs[Pair{concept, instance}]
}

// Extraction returns the extraction with the given ID.
func (kb *KB) Extraction(id int) *Extraction { return kb.extractions[id] }

// NumExtractions returns the total number of recorded extractions
// (including rolled-back ones).
func (kb *KB) NumExtractions() int { return len(kb.extractions) }

// Instances returns the instances currently under a concept, sorted.
func (kb *KB) Instances(concept string) []string {
	m := kb.byConcept[concept]
	out := make([]string, 0, len(m))
	for e, info := range m {
		if info.Count > 0 {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// InstancesAtIteration returns instances whose first supporting extraction
// happened at or before the given iteration (E(C, i) in the paper's
// notation), sorted. Rolled-back pairs are excluded.
func (kb *KB) InstancesAtIteration(concept string, iteration int) []string {
	m := kb.byConcept[concept]
	out := make([]string, 0, len(m))
	for e, info := range m {
		if info.Count > 0 && info.FirstIter <= iteration {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// CoreOf returns E(C, 1), the concept's core, filtered from instances,
// which must be the concept's Instances list: the result is sorted and
// equal to InstancesAtIteration(concept, 1) without a second sort. An
// analysis pass that already holds the instance list reads the core
// from it.
func (kb *KB) CoreOf(concept string, instances []string) []string {
	m := kb.byConcept[concept]
	out := make([]string, 0, len(instances))
	for _, e := range instances {
		if m[e].FirstIter <= 1 {
			out = append(out, e)
		}
	}
	return out
}

// EachPairRecord calls fn with the instance and count of every pair
// record of the concept, zero-count records included, in unspecified
// order. It serves order-independent folds over a concept's records,
// such as memo keys and counts.
func (kb *KB) EachPairRecord(concept string, fn func(instance string, count int)) {
	for e, info := range kb.byConcept[concept] {
		fn(e, info.Count)
	}
}

// Concepts returns all concepts that currently have at least one instance,
// sorted.
func (kb *KB) Concepts() []string {
	out := make([]string, 0, len(kb.byConcept))
	for c, m := range kb.byConcept {
		for _, info := range m {
			if info.Count > 0 {
				out = append(out, c)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// NumPairs returns the number of distinct pairs with positive count.
// The count is maintained by every mutator, so this is O(1).
func (kb *KB) NumPairs() int { return kb.numPairs }

// Pairs returns all active pairs, sorted by concept then instance.
func (kb *KB) Pairs() []Pair {
	out := make([]Pair, 0, len(kb.pairs))
	for p, info := range kb.pairs {
		if info.Count > 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Concept != out[j].Concept {
			return out[i].Concept < out[j].Concept
		}
		return out[i].Instance < out[j].Instance
	})
	return out
}

// TriggeredExtractions returns the IDs of extractions in which the pair
// served as a trigger (active and inactive).
func (kb *KB) TriggeredExtractions(concept, instance string) []int {
	return kb.triggeredBy[Pair{concept, instance}]
}

// SubInstances returns sub(e): the set of instances whose extraction under
// the concept was triggered by e, across all active extractions where e is
// a trigger (paper Sec 2.1). The trigger itself is excluded. The result is
// sorted and never nil. It serves one-off lookups (queries, serving,
// evaluation of a single instance); an analysis pass that needs sub(e) for
// many instances of a concept reads them from one SubIndex instead.
func (kb *KB) SubInstances(concept, instance string) []string {
	out := kb.subInstances(map[string]struct{}{}, concept, instance)
	if out == nil {
		out = []string{}
	}
	return out
}

// SubIndex returns sub(e) for every active instance of the concept, keyed
// by instance, computing each list once with one reused scratch set. Each
// list is sorted and equal to SubInstances(concept, e); an instance that
// triggered nothing has no key (an absent key reads as the empty list).
// The index is a fresh map the caller owns and may share read-only across
// goroutines.
func (kb *KB) SubIndex(concept string) map[string][]string {
	out := make(map[string][]string)
	seen := make(map[string]struct{})
	for e, info := range kb.byConcept[concept] {
		if info.Count <= 0 {
			continue
		}
		if subs := kb.subInstances(seen, concept, e); subs != nil {
			out[e] = subs
		}
	}
	return out
}

// subInstances computes sorted sub(e) using seen as scratch (cleared
// first), returning nil when sub(e) is empty.
func (kb *KB) subInstances(seen map[string]struct{}, concept, instance string) []string {
	clear(seen)
	for _, exID := range kb.triggeredBy[Pair{concept, instance}] {
		ex := kb.extractions[exID]
		if !ex.Active {
			continue
		}
		for _, e := range ex.Instances {
			if e == instance {
				continue
			}
			isTrigger := false
			for _, t := range ex.Triggers {
				if t == e {
					isTrigger = true
					break
				}
			}
			if isTrigger {
				continue
			}
			seen[e] = struct{}{}
		}
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]string, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// ConceptsOfInstance returns all concepts currently holding the instance
// with positive count, sorted; nil when none does. The list is
// maintained by every mutator, so this is one map lookup. It is shared
// and read-only: a later mutation replaces the KB's list rather than
// editing it, so a returned list never changes.
func (kb *KB) ConceptsOfInstance(instance string) []string { return kb.holders[instance] }

// RollbackResult reports the effect of a roll-back cascade.
type RollbackResult struct {
	PairsRemoved       []Pair
	ExtractionsRolled  int
	CascadeDepth       int
	CountsDecremented  int
	InitiallyRequested int

	// touched records every concept whose pair counts or extraction set
	// the operation modified — read it through TouchedConcepts.
	touched map[string]struct{}
}

// TouchedConcepts returns, sorted, every concept whose pair counts or
// active extraction set the rollback changed. Per-concept caches (the
// random-walk score cache in particular) invalidate exactly this set:
// rollbacks are concept-local — an extraction's triggers are pairs of
// its own concept, so a cascade never crosses into another concept —
// and this method reports what actually changed rather than assuming it.
func (r *RollbackResult) TouchedConcepts() []string {
	out := make([]string, 0, len(r.touched))
	for c := range r.touched {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func (r *RollbackResult) touch(concept string) {
	if r.touched == nil {
		r.touched = make(map[string]struct{})
	}
	r.touched[concept] = struct{}{}
}

// RemovePairs removes the given pairs outright and rolls back the cascade
// of extractions they enabled (paper Sec 4.2): every extraction all of
// whose triggers are gone is deactivated; deactivation decrements the
// counts of its extracted pairs; pairs reaching zero are removed and the
// process repeats until a fixpoint.
func (kb *KB) RemovePairs(pairs []Pair) RollbackResult {
	kb.mutation("RemovePairs")
	res := RollbackResult{InitiallyRequested: len(pairs)}
	removedPairs := map[Pair]bool{}
	queue := make([]Pair, 0, len(pairs))
	for _, p := range pairs {
		info := kb.pairs[p]
		if info == nil || info.Count <= 0 || removedPairs[p] {
			continue
		}
		// Forced removal: zero the count regardless of support.
		res.CountsDecremented += info.Count
		kb.digest[p.Concept] += kb.setCount(p, info, 0)
		removedPairs[p] = true
		queue = append(queue, p)
		res.PairsRemoved = append(res.PairsRemoved, p)
		res.touch(p.Concept)
	}
	depth := 0
	for len(queue) > 0 {
		depth++
		var next []Pair
		for _, p := range queue {
			for _, exID := range kb.triggeredBy[p] {
				ex := kb.extractions[exID]
				if !ex.Active {
					continue
				}
				if kb.anyTriggerAlive(ex) {
					continue
				}
				next = append(next, kb.rollbackExtraction(ex, &res)...)
			}
		}
		queue = next
		if len(next) > 0 {
			res.CascadeDepth = depth
		}
	}
	sort.Slice(res.PairsRemoved, func(i, j int) bool {
		a, b := res.PairsRemoved[i], res.PairsRemoved[j]
		if a.Concept != b.Concept {
			return a.Concept < b.Concept
		}
		return a.Instance < b.Instance
	})
	return res
}

// RemovePairsNoCascade removes the given pairs outright without rolling
// back the extractions they enabled — the "one-shot removal" ablation
// contrasted with the paper's Sec 4.2 cascade.
func (kb *KB) RemovePairsNoCascade(pairs []Pair) RollbackResult {
	kb.mutation("RemovePairsNoCascade")
	res := RollbackResult{InitiallyRequested: len(pairs)}
	for _, p := range pairs {
		info := kb.pairs[p]
		if info == nil || info.Count <= 0 {
			continue
		}
		res.CountsDecremented += info.Count
		kb.digest[p.Concept] += kb.setCount(p, info, 0)
		res.PairsRemoved = append(res.PairsRemoved, p)
		res.touch(p.Concept)
	}
	sort.Slice(res.PairsRemoved, func(i, j int) bool {
		a, b := res.PairsRemoved[i], res.PairsRemoved[j]
		if a.Concept != b.Concept {
			return a.Concept < b.Concept
		}
		return a.Instance < b.Instance
	})
	return res
}

// RollbackExtractions deactivates the given extractions directly (used for
// Intentional-DP sentence-level cleaning, Sec 4.1) and cascades.
func (kb *KB) RollbackExtractions(ids []int) RollbackResult {
	kb.mutation("RollbackExtractions")
	var res RollbackResult
	res.InitiallyRequested = len(ids)
	queue := make([]Pair, 0)
	for _, id := range ids {
		ex := kb.extractions[id]
		if ex == nil || !ex.Active {
			continue
		}
		queue = append(queue, kb.rollbackExtraction(ex, &res)...)
	}
	depth := 0
	for len(queue) > 0 {
		depth++
		var next []Pair
		for _, p := range queue {
			for _, exID := range kb.triggeredBy[p] {
				ex := kb.extractions[exID]
				if !ex.Active {
					continue
				}
				if kb.anyTriggerAlive(ex) {
					continue
				}
				next = append(next, kb.rollbackExtraction(ex, &res)...)
			}
		}
		queue = next
		if len(next) > 0 {
			res.CascadeDepth = depth
		}
	}
	return res
}

// anyTriggerAlive reports whether at least one trigger pair of ex is still
// present — extractions remain supported while any trigger survives.
func (kb *KB) anyTriggerAlive(ex *Extraction) bool {
	for _, t := range ex.Triggers {
		if kb.Count(ex.Concept, t) > 0 {
			return true
		}
	}
	return len(ex.Triggers) == 0 // core extractions have no triggers and never cascade away
}

// rollbackExtraction deactivates ex, decrements its pairs and returns the
// pairs whose count reached zero.
func (kb *KB) rollbackExtraction(ex *Extraction, res *RollbackResult) []Pair {
	d := kb.digest[ex.Concept] - extractionTerm(ex)
	ex.Active = false
	d += extractionTerm(ex)
	res.ExtractionsRolled++
	res.touch(ex.Concept)
	var zeroed []Pair
	for _, e := range ex.Instances {
		p := Pair{ex.Concept, e}
		info := kb.pairs[p]
		if info == nil || info.Count <= 0 {
			continue
		}
		d += kb.setCount(p, info, info.Count-1)
		res.CountsDecremented++
		if info.Count == 0 {
			zeroed = append(zeroed, p)
			res.PairsRemoved = append(res.PairsRemoved, p)
		}
	}
	kb.digest[ex.Concept] = d
	return zeroed
}

// Snapshot captures the distinct active pair count per concept, used for
// the per-iteration curves of Fig 5(a).
type Snapshot struct {
	Iteration     int
	DistinctPairs int
}

// Stats returns aggregate KB statistics.
type Stats struct {
	DistinctPairs     int
	TotalCount        int
	Concepts          int
	ActiveExtractions int
}

// Stats computes the current aggregate statistics.
func (kb *KB) Stats() Stats {
	var s Stats
	s.Concepts = len(kb.Concepts())
	for _, info := range kb.pairs {
		if info.Count > 0 {
			s.DistinctPairs++
			s.TotalCount += info.Count
		}
	}
	for _, ex := range kb.extractions {
		if ex.Active {
			s.ActiveExtractions++
		}
	}
	return s
}
