package kb

import (
	"fmt"
	"sort"
	"strings"
)

// Explanation answers "why is this pair in the KB?": the active
// extractions supporting it and, for each, the chain of triggers leading
// back to a first-iteration (core) extraction. This is the user-facing
// face of the provenance that powers DP cleaning — the same trigger
// edges the Sec 4.2 roll-back walks forward, walked backward.
type Explanation struct {
	Pair  Pair
	Count int
	// Supports lists the active extractions that contribute the count.
	Supports []Support
}

// Support is one active extraction supporting the pair, with one trigger
// chain traced back to the core.
type Support struct {
	ExtractionID int
	SentenceID   int
	Iteration    int
	Triggers     []string
	// Chain walks trigger-of-trigger pairs back to a core pair; the
	// first element is this pair itself, the last is core (iteration 1).
	Chain []ChainLink
}

// ChainLink is one step of a provenance chain.
type ChainLink struct {
	Pair      Pair
	Iteration int
	Core      bool
}

// Explain traces the provenance of a pair. It returns ok=false when the
// pair is not currently in the KB. At most maxSupports supporting
// extractions are traced (0 means all).
func (kb *KB) Explain(concept, instance string, maxSupports int) (Explanation, bool) {
	r := kb.find(concept, instance)
	if r == nil || r.count <= 0 {
		return Explanation{}, false
	}
	ex := Explanation{Pair: Pair{concept, instance}, Count: r.count}
	for l := r.sup.head; l != 0; l = kb.links[l-1].next {
		id := int(kb.links[l-1].ext)
		x := &kb.exts[id]
		if !x.active {
			continue
		}
		triggers, _ := kb.names(nil, kb.triggers(x))
		s := Support{
			ExtractionID: id,
			SentenceID:   x.sentence,
			Iteration:    x.iteration,
			Triggers:     triggers,
			Chain:        kb.traceChain(r.concept, r.instance),
		}
		ex.Supports = append(ex.Supports, s)
		if maxSupports > 0 && len(ex.Supports) >= maxSupports {
			break
		}
	}
	return ex, true
}

// traceChain follows trigger links from the pair back to a core pair,
// choosing at each hop the earliest-iteration active supporting
// extraction and its first still-living trigger. Cycles are cut by a
// visited set.
func (kb *KB) traceChain(concept, instance Sym) []ChainLink {
	var chain []ChainLink
	visited := map[Sym]bool{}
	cur := instance
	for {
		if visited[cur] {
			break
		}
		visited[cur] = true
		i, ok := kb.pairIndex(concept, cur)
		if !ok || kb.recs[i].count <= 0 {
			break
		}
		r := &kb.recs[i]
		link := ChainLink{
			Pair:      Pair{kb.syms.Name(concept), kb.syms.Name(cur)},
			Iteration: r.firstIter,
			Core:      r.firstIter <= 1,
		}
		chain = append(chain, link)
		if link.Core {
			break
		}
		next, ok := kb.earliestLivingTrigger(r)
		if !ok {
			break
		}
		cur = next
	}
	return chain
}

// earliestLivingTrigger returns a trigger of r's earliest active
// supporting extraction that is still present in the KB.
func (kb *KB) earliestLivingTrigger(r *pairRec) (Sym, bool) {
	var best Sym
	found := false
	bestIter := int(^uint(0) >> 1)
	for l := r.sup.head; l != 0; l = kb.links[l-1].next {
		x := &kb.exts[kb.links[l-1].ext]
		if !x.active || x.iteration >= bestIter {
			continue
		}
		for _, t := range kb.triggers(x) {
			if kb.HasSyms(r.concept, t) {
				best, bestIter, found = t, x.iteration, true
				break
			}
		}
	}
	return best, found
}

// Format renders the explanation as human-readable text.
func (ex Explanation) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %d supporting sentence(s)\n", ex.Pair, ex.Count)
	for i, s := range ex.Supports {
		fmt.Fprintf(&b, "  support %d: sentence %d, iteration %d", i+1, s.SentenceID, s.Iteration)
		if len(s.Triggers) > 0 {
			fmt.Fprintf(&b, ", triggered by %s", strings.Join(s.Triggers, ", "))
		} else {
			b.WriteString(", core (unambiguous)")
		}
		b.WriteByte('\n')
		if i == 0 && len(s.Chain) > 1 {
			b.WriteString("  provenance chain: ")
			parts := make([]string, len(s.Chain))
			for j, link := range s.Chain {
				tag := fmt.Sprintf("iter %d", link.Iteration)
				if link.Core {
					tag = "core"
				}
				parts[j] = fmt.Sprintf("%s (%s)", link.Pair.Instance, tag)
			}
			b.WriteString(strings.Join(parts, " ← "))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// DriftDepth returns, for every active pair of a concept, the length of
// its provenance chain back to the core (1 for core pairs). Deep chains
// are the hallmark of drift cascades.
func (kb *KB) DriftDepth(concept string) map[string]int {
	out := map[string]int{}
	c, ok := kb.syms.Lookup(concept)
	if !ok {
		return out
	}
	for i := kb.stateOf(c).cHead; i != 0; i = kb.recs[i-1].nextC {
		if r := &kb.recs[i-1]; r.count > 0 {
			out[kb.syms.Name(r.instance)] = len(kb.traceChain(c, r.instance))
		}
	}
	return out
}

// TopDrifted returns up to n instances of the concept with the deepest
// provenance chains, deepest first (ties by name).
func (kb *KB) TopDrifted(concept string, n int) []string {
	depth := kb.DriftDepth(concept)
	names := make([]string, 0, len(depth))
	for e := range depth {
		names = append(names, e)
	}
	sort.Slice(names, func(i, j int) bool {
		if depth[names[i]] != depth[names[j]] {
			return depth[names[i]] > depth[names[j]]
		}
		return names[i] < names[j]
	})
	if n < len(names) {
		names = names[:n]
	}
	return names
}
