package binsnap

import (
	"sort"

	"driftclean/internal/kb"
)

// The view answers the full read-only query surface. Every method here
// is a line-for-line port of the corresponding *kb.KB method onto the
// columnar layout — same traversal order, same tie-breaking, same
// nil-versus-empty results — because the serving layer promises
// byte-identical JSON regardless of which representation backs a
// snapshot (the differential tests in this package enforce it).
var _ kb.View = (*View)(nil)

// Stats returns the aggregate statistics precomputed at write time and
// re-verified against the columns at open.
func (v *View) Stats() kb.Stats { return v.stats }

// Concepts returns all concepts with at least one active instance,
// sorted. The slice is materialized once at open and shared; callers
// must not modify it.
func (v *View) Concepts() []string { return v.concepts }

// Instances returns the instances currently under a concept, sorted.
// Pairs are stored in instance-ID order and IDs are name ranks, so this
// is a filtered copy of a contiguous range — no sort at query time.
func (v *View) Instances(concept string) []string {
	out := []string{}
	cid, ok := v.stringID(concept)
	if !ok {
		return out
	}
	ci, ok := v.conceptIndexByID(cid)
	if !ok {
		return out
	}
	lo, hi := v.csrRange(secConceptPair, ci)
	for pi := lo; pi < hi; pi++ {
		if v.u32(secPairCount, pi) > 0 {
			out = append(out, v.strs[v.u32(secPairInstance, pi)])
		}
	}
	return out
}

// Has reports whether the pair is present with positive count.
func (v *View) Has(concept, instance string) bool {
	return v.Count(concept, instance) > 0
}

// Count returns the active support count of a pair (0 if absent).
func (v *View) Count(concept, instance string) int {
	pi, ok := v.pairIndex(concept, instance)
	if !ok {
		return 0
	}
	return int(v.u32(secPairCount, pi))
}

// NumPairs returns the number of distinct pairs with positive count.
func (v *View) NumPairs() int { return v.stats.DistinctPairs }

// NumExtractions returns the total number of recorded extractions,
// including rolled-back ones.
func (v *View) NumExtractions() int { return v.hdr.Extractions }

// ExtractionAt materializes the extraction record with the given ID.
// Unlike the columnar query methods this allocates; it exists for
// tooling and tests, not hot paths.
func (v *View) ExtractionAt(id int) kb.Extraction {
	clo, chi := v.csrRange(secExtCandStart, id)
	ilo, ihi := v.csrRange(secExtInstStart, id)
	tlo, thi := v.csrRange(secExtTrigStart, id)
	return kb.Extraction{
		ID:         id,
		SentenceID: int(v.u32(secExtSentence, id)),
		Concept:    v.strs[v.u32(secExtConcept, id)],
		Candidates: v.names(secExtCandIDs, clo, chi),
		Instances:  v.names(secExtInstIDs, ilo, ihi),
		Triggers:   v.names(secExtTrigIDs, tlo, thi),
		Iteration:  int(v.u32(secExtIter, id)),
		Active:     v.secs[secExtActive][id] == 1,
	}
}

// ConceptsOfInstance returns all concepts currently holding the
// instance with positive count, sorted — a direct read of the on-disk
// reverse index, nil when the instance is unknown (matching the KB's
// scan, which appends to a nil slice).
func (v *View) ConceptsOfInstance(instance string) []string {
	iid, ok := v.stringID(instance)
	if !ok {
		return nil
	}
	lo, hi := v.csrRange(secRevStart, int(iid))
	return v.names(secRevConceptIDs, lo, hi)
}

// SubInstances returns sub(e): the set of instances whose extraction
// under the concept was triggered by the given instance, across all
// active extractions where it is a trigger. The trigger itself is
// excluded, as are co-triggers of those extractions.
func (v *View) SubInstances(concept, instance string) []string {
	pi, ok := v.pairIndex(concept, instance)
	if !ok {
		return []string{}
	}
	selfID, _ := v.stringID(instance)
	seen := map[uint32]struct{}{}
	lo, hi := v.csrRange(secTrigStart, pi)
	for t := lo; t < hi; t++ {
		exID := int(v.u32(secTrigExtIDs, t))
		if v.secs[secExtActive][exID] != 1 {
			continue
		}
		ilo, ihi := v.csrRange(secExtInstStart, exID)
		tlo, thi := v.csrRange(secExtTrigStart, exID)
	instances:
		for i := ilo; i < ihi; i++ {
			eid := v.u32(secExtInstIDs, i)
			if eid == selfID {
				continue
			}
			for t2 := tlo; t2 < thi; t2++ {
				if v.u32(secExtTrigIDs, t2) == eid {
					continue instances
				}
			}
			seen[eid] = struct{}{}
		}
	}
	ids := make([]uint32, 0, len(seen))
	for eid := range seen {
		ids = append(ids, eid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]string, 0, len(ids))
	for _, eid := range ids {
		out = append(out, v.strs[eid]) // ID order is name order
	}
	return out
}

// Explain traces the provenance of a pair; ok=false when the pair is
// not present with positive count. At most maxSupports supporting
// extractions are traced (0 means all).
func (v *View) Explain(concept, instance string, maxSupports int) (kb.Explanation, bool) {
	pi, ok := v.pairIndex(concept, instance)
	if !ok || v.u32(secPairCount, pi) == 0 {
		return kb.Explanation{}, false
	}
	ex := kb.Explanation{
		Pair:  kb.Pair{Concept: concept, Instance: instance},
		Count: int(v.u32(secPairCount, pi)),
	}
	lo, hi := v.csrRange(secPairExtStart, pi)
	for s := lo; s < hi; s++ {
		exID := int(v.u32(secPairExtIDs, s))
		if v.secs[secExtActive][exID] != 1 {
			continue
		}
		tlo, thi := v.csrRange(secExtTrigStart, exID)
		ex.Supports = append(ex.Supports, kb.Support{
			ExtractionID: exID,
			SentenceID:   int(v.u32(secExtSentence, exID)),
			Iteration:    int(v.u32(secExtIter, exID)),
			Triggers:     v.names(secExtTrigIDs, tlo, thi),
			Chain:        v.traceChain(concept, instance),
		})
		if maxSupports > 0 && len(ex.Supports) >= maxSupports {
			break
		}
	}
	return ex, true
}

// traceChain follows trigger links from the pair back to a core pair,
// choosing at each hop the earliest-iteration active supporting
// extraction and its first still-living trigger. Cycles are cut by a
// visited set. Exact port of (*kb.KB).traceChain.
func (v *View) traceChain(concept, instance string) []kb.ChainLink {
	var chain []kb.ChainLink
	cid, ok := v.stringID(concept)
	if !ok {
		return chain
	}
	visited := map[uint32]bool{}
	cur, ok := v.stringID(instance)
	if !ok {
		return chain
	}
	for {
		if visited[cur] {
			break
		}
		visited[cur] = true
		pi, ok := v.pairIndexByIDs(cid, cur)
		if !ok || v.u32(secPairCount, pi) == 0 {
			break
		}
		first := int(v.u32(secPairFirst, pi))
		link := kb.ChainLink{
			Pair:      kb.Pair{Concept: concept, Instance: v.strs[cur]},
			Iteration: first,
			Core:      first <= 1,
		}
		chain = append(chain, link)
		if link.Core {
			break
		}
		next, ok := v.earliestLivingTrigger(cid, pi)
		if !ok {
			break
		}
		cur = next
	}
	return chain
}

// earliestLivingTrigger returns the string ID of a trigger of the
// pair's earliest active extraction that is still present with positive
// count. Exact port of (*kb.KB).earliestLivingTrigger, operating on the
// pair's stored support list.
func (v *View) earliestLivingTrigger(cid uint32, pi int) (uint32, bool) {
	best := uint32(0)
	found := false
	bestIter := int(^uint(0) >> 1)
	lo, hi := v.csrRange(secPairExtStart, pi)
	for s := lo; s < hi; s++ {
		exID := int(v.u32(secPairExtIDs, s))
		if v.secs[secExtActive][exID] != 1 || int(v.u32(secExtIter, exID)) >= bestIter {
			continue
		}
		tlo, thi := v.csrRange(secExtTrigStart, exID)
		for t := tlo; t < thi; t++ {
			tid := v.u32(secExtTrigIDs, t)
			if tpi, ok := v.pairIndexByIDs(cid, tid); ok && v.u32(secPairCount, tpi) > 0 {
				best, bestIter, found = tid, int(v.u32(secExtIter, exID)), true
				break
			}
		}
	}
	return best, found
}

// DriftDepth returns, for every active pair of a concept, the length of
// its provenance chain back to the core (1 for core pairs).
func (v *View) DriftDepth(concept string) map[string]int {
	out := map[string]int{}
	for _, e := range v.Instances(concept) {
		out[e] = len(v.traceChain(concept, e))
	}
	return out
}

// ToKB materializes a fully mutable heap KB from the view, validating
// through kb.Build exactly as a gob load does. This is the escape hatch
// for tools that need to mutate (cmd/kbsnap converting binary → gob);
// serving paths never call it.
func (v *View) ToKB() (*kb.KB, error) {
	exts := make([]kb.Extraction, v.hdr.Extractions)
	for i := range exts {
		exts[i] = v.ExtractionAt(i)
	}
	pairs := make([]kb.PairState, 0, v.hdr.Pairs)
	nCon := v.hdr.Concepts
	for ci := 0; ci < nCon; ci++ {
		concept := v.strs[v.u32(secConceptIDs, ci)]
		lo, hi := v.csrRange(secConceptPair, ci)
		for pi := lo; pi < hi; pi++ {
			elo, ehi := v.csrRange(secPairExtStart, pi)
			ids := make([]int, 0, ehi-elo)
			for s := elo; s < ehi; s++ {
				ids = append(ids, int(v.u32(secPairExtIDs, s)))
			}
			pairs = append(pairs, kb.PairState{
				Concept:     concept,
				Instance:    v.strs[v.u32(secPairInstance, pi)],
				Count:       int(v.u32(secPairCount, pi)),
				FirstIter:   int(v.u32(secPairFirst, pi)),
				Extractions: ids,
			})
		}
	}
	return kb.Build(exts, pairs)
}
