// Package clean implements DP-based drifting-error cleaning (Sec 4).
//
// Accidental DPs are erroneous extractions themselves: the pair is
// removed outright and every extraction it enabled is rolled back through
// the KB's cascade (Sec 4.2). Intentional DPs are correct instances, so
// only the *extractions they triggered* are examined: each such sentence
// is re-scored with the probabilistic model of Eq 21 over all its
// candidate concepts, and extractions whose chosen concept is not the
// argmax are rolled back (Sec 4.1).
//
// Cleaning is iterated — removing early-iteration DPs exposes and/or
// removes later ones — until a round finds nothing to do (Sec 4.2).
package clean

import (
	"sort"

	"driftclean/internal/dp"
	"driftclean/internal/fault"
	"driftclean/internal/kb"
	"driftclean/internal/par"
	"driftclean/internal/rank"
)

// Labels maps concept -> instance -> detected DP label. Entries with
// non-DP labels are ignored.
type Labels map[string]map[string]dp.Label

// DetectFunc produces DP labels for the current KB state; it is invoked
// once per cleaning round.
type DetectFunc func(k *kb.KB) Labels

// Config controls the cleaning loop.
type Config struct {
	// MaxRounds bounds detect-clean rounds.
	MaxRounds int
	// Walk configures the random-walk scores behind Eq 21. Zero-valued
	// fields take their defaults individually (rank.DefaultConfig), so a
	// caller customizing only Restart or Tol keeps that customization.
	Walk rank.Config
	// Parallelism is the worker count used to precompute the Eq 21
	// random-walk scores of a round's concepts before the sequential
	// flagging pass. 1 forces the serial (lazy, one-at-a-time) path;
	// values below 1 use every CPU. Scores are deterministic, so the
	// flagging outcome is identical at any setting.
	Parallelism int
	// DropAllIntentional replaces the Eq 21 check with a drop-all policy
	// for Intentional-DP-triggered extractions (ablation: "drop-all vs
	// Eq 21").
	DropAllIntentional bool
	// DisableCascade removes Accidental-DP pairs without rolling back
	// the extractions they enabled (ablation: "one-shot removal vs the
	// Sec 4.2 cascade").
	DisableCascade bool
	// Cache, when non-nil, is the cross-round random-walk score cache
	// shared with the analysis passes: the Eq 21 checks read scores
	// through it when its configuration matches Walk. It keys every walk
	// on the concept's digest, so the next round — and the next
	// analysis — re-walks only the concepts a rollback changed.
	Cache *rank.Cache
	// OnRound, when non-nil, is invoked before each detect-and-clean
	// round with the 1-based round number; returning true stops the loop
	// before that round runs (the public API uses this for progress
	// reporting and context cancellation).
	OnRound func(round int) (stop bool)
	// Fault, when non-nil, is consulted at the "clean.round" site once
	// per detect-and-clean round (chaos testing); nil is the production
	// no-op.
	Fault *fault.Injector
}

// DefaultConfig returns the standard cleaning configuration.
func DefaultConfig() Config {
	return Config{MaxRounds: 5, Walk: rank.DefaultConfig()}
}

// RoundResult reports one cleaning round.
type RoundResult struct {
	Round              int
	AccidentalDPs      int
	IntentionalDPs     int
	ExtractionsChecked int
	ExtractionsFlagged int
	PairsRemoved       int
	ExtractionsRolled  int
}

// Result aggregates a full cleaning run.
type Result struct {
	// Rounds records every detect-and-clean round executed, including a
	// terminating round in which the detector found nothing — that final
	// zero-DP entry is what distinguishes convergence from exhaustion.
	Rounds []RoundResult
	// TotalPairsRemoved counts distinct pair removals across rounds.
	TotalPairsRemoved      int
	TotalExtractionsRolled int
	// Converged reports that the loop stopped because a round detected no
	// DPs at all (the Sec 4.2 fixpoint). It is false when the loop ran
	// out of MaxRounds with DPs still being detected, and false when
	// Stopped is true.
	Converged bool
	// Stopped reports that Config.OnRound halted the loop early.
	Stopped bool
}

// withDefaults fills the zero-valued knobs of a Config. Walk is
// defaulted field by field so a caller who customized only part of the
// walk configuration (say, the restart probability) keeps it.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.MaxRounds <= 0 {
		c.MaxRounds = def.MaxRounds
	}
	if c.Walk.Restart == 0 {
		c.Walk.Restart = def.Walk.Restart
	}
	if c.Walk.MaxIter == 0 {
		c.Walk.MaxIter = def.Walk.MaxIter
	}
	if c.Walk.Tol == 0 {
		c.Walk.Tol = def.Walk.Tol
	}
	return c
}

// Run executes the iterative DP-cleaning loop: detect DPs, clean their
// effects, repeat until no DPs are found or MaxRounds is reached. The KB
// is modified in place.
func Run(k *kb.KB, detect DetectFunc, cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{}
	for round := 1; round <= cfg.MaxRounds; round++ {
		if cfg.OnRound != nil && cfg.OnRound(round) {
			res.Stopped = true
			break
		}
		cfg.Fault.Check("clean.round")
		labels := detect(k)
		rr := CleanRound(k, labels, cfg)
		rr.Round = round
		res.Rounds = append(res.Rounds, rr)
		res.TotalPairsRemoved += rr.PairsRemoved
		res.TotalExtractionsRolled += rr.ExtractionsRolled
		if rr.AccidentalDPs == 0 && rr.IntentionalDPs == 0 {
			res.Converged = true // detector found nothing: the fixpoint
			break
		}
		if rr.PairsRemoved == 0 && rr.ExtractionsRolled == 0 {
			break // detected DPs produced no change; stuck, not converged
		}
	}
	return res
}

// CleanRound applies one round of cleaning for the given DP labels.
func CleanRound(k *kb.KB, labels Labels, cfg Config) RoundResult {
	cfg = cfg.withDefaults()
	var rr RoundResult
	// Deterministic concept order.
	concepts := make([]string, 0, len(labels))
	for c := range labels {
		concepts = append(concepts, c)
	}
	sort.Strings(concepts)

	// Phase 1: Intentional DPs — check their triggered extractions with
	// Eq 21 and roll back losers. Run before Accidental removal so the
	// walk scores still reflect the full graph.
	//
	// The per-concept random walks behind Eq 21 dominate a round's cost.
	// Every score the flagging pass reads comes from one round-local
	// map, filled through a score cache: the shared cross-round cache
	// when one with a matching walk configuration is wired in — so the
	// concepts the preceding analysis (or an earlier round) walked at
	// their current digest are free — and a cache of this round's own
	// otherwise. The set of concepts Phase 1 will score is known up
	// front, so with more than one worker a prepass fills the map
	// concurrently before the (order-sensitive, sequential) flagging
	// pass; the lazy fill below is the serial path and a safety net for
	// any concept the prepass missed. Walk scores are deterministic, so
	// the flags are identical either way.
	cache := cfg.Cache
	if cache == nil || cache.Config() != cfg.Walk {
		cache = rank.NewCache(cfg.Walk)
	}
	walk := func(concept string) rank.Scores { return cache.Scores(k, concept) }
	scores := map[string]rank.Scores{}
	if workers := par.Workers(cfg.Parallelism); workers > 1 && !cfg.DropAllIntentional {
		scores = rank.WalkConcepts(phase1Concepts(k, labels, concepts), workers, walk)
	}
	scoresOf := func(concept string) rank.Scores {
		s, ok := scores[concept]
		if !ok {
			s = walk(concept)
			scores[concept] = s
		}
		return s
	}
	var flagged, triggered []int
	for _, concept := range concepts {
		c, known := k.Sym(concept)
		for instance, lbl := range labels[concept] {
			if lbl != dp.Intentional {
				continue
			}
			rr.IntentionalDPs++
			e, ok := k.Sym(instance)
			if !known || !ok {
				continue
			}
			triggered = k.AppendTriggered(triggered[:0], c, e)
			for _, exID := range triggered {
				ex := k.ExtractionSyms(exID)
				if !ex.Active || ex.Concept != c {
					continue
				}
				rr.ExtractionsChecked++
				if cfg.DropAllIntentional || !ExtractionPassesCheck(k, ex, scoresOf) {
					flagged = append(flagged, exID)
				}
			}
		}
	}
	flagged = sortDedupInts(flagged)
	rr.ExtractionsFlagged = len(flagged)
	rb := k.RollbackExtractions(flagged)
	rr.PairsRemoved += len(rb.PairsRemoved)
	rr.ExtractionsRolled += rb.ExtractionsRolled

	// Phase 2: Accidental DPs — drop the pairs and cascade.
	var drop []kb.Pair
	for _, concept := range concepts {
		for instance, lbl := range labels[concept] {
			if lbl != dp.Accidental {
				continue
			}
			rr.AccidentalDPs++
			drop = append(drop, kb.Pair{Concept: concept, Instance: instance})
		}
	}
	// Removal order decides cascade order and the rollback report's pair
	// order; the inner label loop walks a map, so sort before acting.
	sort.Slice(drop, func(i, j int) bool {
		if drop[i].Concept != drop[j].Concept {
			return drop[i].Concept < drop[j].Concept
		}
		return drop[i].Instance < drop[j].Instance
	})
	var rb2 kb.RollbackResult
	if cfg.DisableCascade {
		rb2 = k.RemovePairsNoCascade(drop)
	} else {
		rb2 = k.RemovePairs(drop)
	}
	rr.PairsRemoved += len(rb2.PairsRemoved)
	rr.ExtractionsRolled += rb2.ExtractionsRolled
	return rr
}

// ExtractionPassesCheck evaluates Eq 21 for one extraction of k: it
// returns true when the extraction's chosen concept attains the highest
// Score(s, C) among the sentence's candidate concepts.
func ExtractionPassesCheck(k *kb.KB, ex kb.ExtractionSyms, scoresOf func(string) rank.Scores) bool {
	if len(ex.Candidates) < 2 {
		return true // nothing to re-decide
	}
	var best kb.Sym
	found, bestScore := false, -1.0
	for _, c := range ex.Candidates {
		s := sentenceScore(ex.Instances, c, ex.Candidates, k.Name, scoresOf)
		if s > bestScore {
			best, bestScore, found = c, s, true
		}
	}
	return found && best == ex.Concept
}

// SentenceScore computes Eq 21:
//
//	Score(s, C) = Σ_{e'∈Es} score(C, e') / Σ_{C'∈Cs} score(C', e')
//
// Instances unknown to every candidate contribute nothing.
func SentenceScore(instances []string, concept string, candidates []string, scoresOf func(string) rank.Scores) float64 {
	return sentenceScore(instances, concept, candidates, func(s string) string { return s }, scoresOf)
}

// sentenceScore is SentenceScore over names or IDs, with name mapping
// an element to its name.
func sentenceScore[T any](instances []T, concept T, candidates []T, name func(T) string, scoresOf func(string) rank.Scores) float64 {
	conceptName := name(concept)
	var total float64
	for _, e := range instances {
		en := name(e)
		var denom float64
		for _, c := range candidates {
			denom += scoresOf(name(c))[en]
		}
		if denom <= 0 {
			continue
		}
		total += scoresOf(conceptName)[en] / denom
	}
	return total
}

// phase1Concepts collects, in sorted order, every concept whose walk
// scores Phase 1 can request: for each Intentional DP, the chosen
// concept and all sentence candidates of each active multi-candidate
// extraction it triggered. This mirrors ExtractionPassesCheck /
// SentenceScore exactly so the parallel prepass covers the full demand.
func phase1Concepts(k *kb.KB, labels Labels, concepts []string) []string {
	need := map[kb.Sym]bool{}
	var triggered []int
	for _, concept := range concepts {
		c, known := k.Sym(concept)
		for instance, lbl := range labels[concept] {
			if lbl != dp.Intentional {
				continue
			}
			e, ok := k.Sym(instance)
			if !known || !ok {
				continue
			}
			triggered = k.AppendTriggered(triggered[:0], c, e)
			for _, exID := range triggered {
				ex := k.ExtractionSyms(exID)
				if !ex.Active || ex.Concept != c || len(ex.Candidates) < 2 {
					continue
				}
				need[c] = true
				for _, cand := range ex.Candidates {
					need[cand] = true
				}
			}
		}
	}
	out := make([]string, 0, len(need))
	for c := range need {
		out = append(out, k.Name(c))
	}
	sort.Strings(out)
	return out
}

func sortDedupInts(xs []int) []int {
	seen := make(map[int]struct{}, len(xs))
	out := xs[:0]
	for _, x := range xs {
		if _, dup := seen[x]; dup {
			continue
		}
		seen[x] = struct{}{}
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}
