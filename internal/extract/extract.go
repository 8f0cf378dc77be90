// Package extract implements the semantic-based iterative bootstrapping
// extractor the paper builds on (Sec 1, "Semantic-based Extraction"; the
// Probase mechanism of Wu et al., SIGMOD 2012).
//
// Iteration 1 extracts only sentences whose Hearst parse has a single
// unambiguous candidate concept — the "core pairs" of Sec 3.2.1. Each
// later iteration revisits the still-ambiguous sentences and resolves a
// sentence when the knowledge learned so far singles out one candidate:
// the candidate concept with strictly the most already-known instances
// among the sentence's candidate instances wins, and those known instances
// are recorded as the extraction's *triggers*. Ties stay pending and are
// retried after more knowledge arrives. The loop runs to fixpoint.
//
// This mechanism is exactly what makes semantic drift possible: when a
// polysemous bridge ("chicken") or an earlier erroneous pair is the only
// known instance in a sentence, the wrong candidate wins and the wrong
// pairs are learned, which lets them trigger further wrong resolutions.
//
// Both hot paths are data-parallel and deterministic: the one-time Hearst
// parse is pure per sentence, and the per-iteration disambiguation scan
// reads a KB frozen at the start of the iteration. Each fans out across
// Config.Parallelism workers writing into sentence-ordered slots, so the
// merged output — and therefore the KB — is byte-identical to a serial
// run regardless of worker count.
package extract

import (
	"slices"

	"driftclean/internal/corpus"
	"driftclean/internal/fault"
	"driftclean/internal/hearst"
	"driftclean/internal/kb"
	"driftclean/internal/par"
)

// Config controls the extraction loop.
type Config struct {
	// MaxIterations bounds the number of semantic iterations (the paper
	// ran ~100; 99.999% of pairs arrived within 10).
	MaxIterations int
	// Parallelism is the worker count for the parse phase and the
	// per-iteration disambiguation scan. 1 forces the serial path; values
	// below 1 use every CPU. The result is identical at any setting.
	Parallelism int
	// Fault, when non-nil, is consulted at the "extract.parse" site once
	// per parsed batch and at "extract.resolve" once per semantic
	// iteration (chaos testing); nil is the production no-op.
	Fault *fault.Injector
}

// DefaultConfig returns the standard extraction configuration.
func DefaultConfig() Config { return Config{MaxIterations: 50} }

// workers resolves the configured parallelism to a worker count.
func (c Config) workers() int { return par.Workers(c.Parallelism) }

// IterStats records the state after one iteration (Fig 5a's x-axis).
type IterStats struct {
	Iteration      int
	NewExtractions int
	DistinctPairs  int
}

// Result is the outcome of an extraction run.
type Result struct {
	KB           *kb.KB
	Iterations   int
	PerIteration []IterStats
	// Unparseable counts sentences the Hearst parser rejected;
	// Unresolved counts ambiguous sentences never disambiguated.
	Unparseable int
	Unresolved  int
}

// parsedSentence is the slot one sentence's parse outcome lands in.
type parsedSentence struct {
	parse hearst.Parse
	ok    bool
}

// parseAll parses every sentence into sentence-ordered slots, fanning
// across the given worker count. hearst.ParseSentence is pure, so any
// schedule produces the same slots.
func parseAll(sentences []corpus.Sentence, workers int, inj *fault.Injector) []parsedSentence {
	inj.Check("extract.parse")
	out := make([]parsedSentence, len(sentences))
	par.For(len(sentences), workers, func(i int) {
		out[i].parse, out[i].ok = hearst.ParseSentence(sentences[i].ID, sentences[i].Text)
	})
	return out
}

// parse is one parsed sentence by ID: its candidate and instance IDs
// are consecutive spans of its pool's arena.
type parse struct {
	sentence     int
	off          uint32
	nCand, nInst uint32
}

// pool holds interned parses in arrival order, split into core
// (unambiguous) and pending (ambiguous) — exactly the per-class order
// Run's sentence-order scan produces.
type pool struct {
	syms           *kb.Symbols
	ids            []kb.Sym
	cores, pending []parse
	unparseable    int
	// pairsHint is the pair count of the last replay, the size hint for
	// the next replay's pair index.
	pairsHint int
}

func (p *pool) candidates(q parse) []kb.Sym { return p.ids[q.off : q.off+q.nCand] }

func (p *pool) instances(q parse) []kb.Sym {
	off := q.off + q.nCand
	return p.ids[off : off+q.nInst]
}

// add interns every parsed sentence's names once and files the parse
// as core or pending. It returns the number of parses added to each.
func (p *pool) add(parsed []parsedSentence) (core, ambiguous int) {
	for i := range parsed {
		if !parsed[i].ok {
			p.unparseable++
			continue
		}
		hp := &parsed[i].parse
		q := parse{sentence: hp.SentenceID, off: uint32(len(p.ids)),
			nCand: uint32(len(hp.Candidates)), nInst: uint32(len(hp.Instances))}
		for _, c := range hp.Candidates {
			p.ids = append(p.ids, p.syms.Intern(c))
		}
		for _, e := range hp.Instances {
			p.ids = append(p.ids, p.syms.Intern(e))
		}
		if hp.Ambiguous() {
			p.pending = append(p.pending, q)
			ambiguous++
			continue
		}
		p.cores = append(p.cores, q)
		core++
	}
	return core, ambiguous
}

// resolution is one disambiguated pending parse; triggers is a span of
// the iteration's shared trigger buffer.
type resolution struct {
	q        parse
	concept  kb.Sym
	triggers []kb.Sym
}

// scan is one replay's resolution scratch, reused by every semantic
// iteration: the per-slot outcomes, the resolutions with their shared
// trigger buffer, and the still-pending parses. An iteration's
// resolutions are applied before the next iteration overwrites them.
type scan struct {
	concepts []kb.Sym
	hits     []bool
	resolved []resolution
	triggers []kb.Sym
	still    []parse
}

// resolvePending scans the pending pool against a frozen KB and returns
// the resolutions (in pending order) and the still-ambiguous remainder,
// both in sc's buffers. Each slot depends only on the frozen KB and its
// own parse, so the scan is embarrassingly parallel; collecting into
// index-ordered slots keeps the apply order — and therefore the KB —
// identical to a serial scan. The triggers are collected afterwards,
// serially and still against the frozen KB, into one buffer for the
// whole iteration.
func (p *pool) resolvePending(k *kb.KB, pending []parse, workers int, inj *fault.Injector, sc *scan) (resolved []resolution, still []parse) {
	inj.Check("extract.resolve")
	sc.concepts = slices.Grow(sc.concepts[:0], len(pending))[:len(pending)]
	sc.hits = slices.Grow(sc.hits[:0], len(pending))[:len(pending)]
	par.For(len(pending), workers, func(i int) {
		sc.concepts[i], sc.hits[i] = disambiguate(k, p.candidates(pending[i]), p.instances(pending[i]))
	})
	resolved, still, buf := sc.resolved[:0], sc.still[:0], sc.triggers[:0]
	for i, q := range pending {
		if !sc.hits[i] {
			still = append(still, q)
			continue
		}
		start := len(buf)
		buf = appendTriggers(buf, k, sc.concepts[i], p.instances(q))
		resolved = append(resolved, resolution{q, sc.concepts[i], buf[start:len(buf):len(buf)]})
	}
	sc.resolved, sc.still, sc.triggers = resolved, still, buf
	return resolved, still
}

// replay materializes the extraction over the pool: every core parse
// enters a fresh KB on the pool's table as iteration 1 in arrival
// order, then each semantic iteration resolves pending parses against
// the KB frozen at its start and applies all resolutions at once (new
// knowledge only helps "in the next iteration", Sec 1).
func (p *pool) replay(cfg Config) *Result {
	// Every parse resolves at most once, and its triggers are a subset of
	// its instances; the pair count of the previous replay, if any, is
	// the best guess at this one's.
	triggers := 0
	for _, q := range p.pending {
		triggers += int(q.nInst)
	}
	k := kb.NewWithSymbols(p.syms, kb.Sizes{
		Extractions: len(p.cores) + len(p.pending),
		IDs:         len(p.ids) + triggers,
		Pairs:       p.pairsHint,
	})
	res := &Result{KB: k}
	for _, q := range p.cores {
		cands := p.candidates(q)
		k.AddExtractionSyms(q.sentence, cands[0], cands, p.instances(q), nil, 1)
	}
	res.Iterations = 1
	res.PerIteration = append(res.PerIteration, IterStats{
		Iteration:      1,
		NewExtractions: len(p.cores),
		DistinctPairs:  k.NumPairs(),
	})
	// pending and the scan's still buffer trade places every iteration;
	// the pool's own slice is copied first so it is never overwritten.
	pending := slices.Clone(p.pending)
	var sc scan
	workers := cfg.workers()
	for iter := 2; iter <= cfg.MaxIterations && len(pending) > 0; iter++ {
		resolved, still := p.resolvePending(k, pending, workers, cfg.Fault, &sc)
		if len(resolved) == 0 {
			break
		}
		for _, r := range resolved {
			k.AddExtractionSyms(r.q.sentence, r.concept, p.candidates(r.q), p.instances(r.q), r.triggers, iter)
		}
		pending, sc.still = still, pending
		res.Iterations = iter
		res.PerIteration = append(res.PerIteration, IterStats{
			Iteration:      iter,
			NewExtractions: len(resolved),
			DistinctPairs:  k.NumPairs(),
		})
	}
	res.Unparseable = p.unparseable
	res.Unresolved = len(pending)
	p.pairsHint = k.NumPairs()
	return res
}

// Run performs the full iterative extraction over a corpus, on a name
// table of its own.
func Run(c *corpus.Corpus, cfg Config) *Result {
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = DefaultConfig().MaxIterations
	}
	p := &pool{syms: kb.NewSymbols()}
	// Parse everything once (parallel), then intern in sentence order.
	p.add(parseAll(c.Sentences, cfg.workers(), cfg.Fault))
	return p.replay(cfg)
}

// disambiguate picks the candidate concept with strictly the most known
// instances among the sentence's instances. It returns ok=false when no
// candidate has known instances or when the top two candidates tie.
func disambiguate(k *kb.KB, candidates, instances []kb.Sym) (concept kb.Sym, ok bool) {
	bestCount, secondCount := 0, 0
	var best kb.Sym
	for _, c := range candidates {
		known := 0
		for _, e := range instances {
			if k.HasSyms(c, e) {
				known++
			}
		}
		switch {
		case known > bestCount:
			secondCount = bestCount
			bestCount = known
			best = c
		case known > secondCount:
			secondCount = known
		}
	}
	if bestCount == 0 || bestCount == secondCount {
		return 0, false
	}
	return best, true
}

// appendTriggers appends to buf, in sentence order, the instances k
// holds under concept: the triggers of a resolution to concept.
func appendTriggers(buf []kb.Sym, k *kb.KB, concept kb.Sym, instances []kb.Sym) []kb.Sym {
	for _, e := range instances {
		if k.HasSyms(concept, e) {
			buf = append(buf, e)
		}
	}
	return buf
}
