package rank

import "driftclean/internal/par"

// WalkConcepts returns the scores walk gives every given concept,
// fanning the walks across the given worker count. walk must be safe
// for concurrent use on distinct concepts (a Cache's Scores on a KB no
// one mutates meanwhile is), and each result lands in its own slot, so
// the map is identical to calling walk serially, in any order —
// per-concept scoring is the scalable unit of work in this pipeline,
// exactly as in SetExpan-style bootstrappers.
func WalkConcepts(concepts []string, workers int, walk func(concept string) Scores) map[string]Scores {
	slots := make([]Scores, len(concepts))
	// One concept per claim: graph sizes are heavily skewed (the drifted
	// concepts are the big ones), so fine-grained claiming load-balances.
	par.ForChunked(len(concepts), workers, 1, func(i int) {
		slots[i] = walk(concepts[i])
	})
	out := make(map[string]Scores, len(concepts))
	for i, c := range concepts {
		out[c] = slots[i]
	}
	return out
}
