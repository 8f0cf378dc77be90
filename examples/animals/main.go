// Animals: the paper's running example, end to end. The synthetic world
// embeds the paper's own concepts — animal, food, pet — with chicken,
// duck and turkey as polysemous bridges. This example shows drift
// happening under "animal" (food instances leaking in via chicken-style
// triggers), then walks through the Eq 21 sentence re-check on a drifted
// extraction, and finally cleans the KB and prints what got rolled back.
//
//	go run ./examples/animals
package main

import (
	"fmt"
	"log"
	"sort"

	"driftclean"
	"driftclean/internal/clean"
	"driftclean/internal/rank"
)

func main() {
	cfg := driftclean.DefaultConfig()
	cfg.World.NumDomains = 3
	cfg.Corpus.NumSentences = 40000

	fmt.Println("== extraction (drifts like the paper's Fig 1) ==")
	sys := driftclean.Build(cfg)
	before := sys.KB.Instances("animal")
	wrongBefore := wrongUnder(sys, "animal")
	fmt.Printf("animal instances after extraction: %d (%d are drifting errors)\n",
		len(before), len(wrongBefore))
	fmt.Printf("sample errors that drifted into animal: %v\n", head(wrongBefore, 8))

	// Eq 21 walkthrough on a genuinely drifted extraction, like the
	// paper's Example 1 ("food from animals such as pork, beef and
	// chicken").
	fmt.Println("\n== Eq 21 sentence re-check ==")
	showEq21(sys)

	// Full DP cleaning.
	fmt.Println("\n== DP cleaning ==")
	if _, err := sys.CleanDPs(driftclean.DetectMultiTask); err != nil {
		log.Fatal(err)
	}
	after := sys.KB.Instances("animal")
	wrongAfter := wrongUnder(sys, "animal")
	fmt.Printf("animal instances after cleaning: %d (%d errors remain)\n",
		len(after), len(wrongAfter))
	removed := diff(before, after)
	fmt.Printf("rolled back from animal: %d pairs, e.g. %v\n", len(removed), head(removed, 8))
}

// showEq21 finds an ambiguous extraction whose chosen concept loses the
// Eq 21 re-check and prints the per-candidate scores.
func showEq21(sys *driftclean.System) {
	cache := map[string]rank.Scores{}
	scoresOf := func(c string) rank.Scores {
		if s, ok := cache[c]; ok {
			return s
		}
		s := rank.RandomWalk(rank.BuildGraph(sys.KB, c), rank.DefaultConfig())
		cache[c] = s
		return s
	}
	for id := 0; id < sys.KB.NumExtractions(); id++ {
		ex := sys.KB.Extraction(id)
		if !ex.Active || len(ex.Candidates) < 2 || len(ex.Triggers) == 0 {
			continue
		}
		if clean.ExtractionPassesCheck(sys.KB, sys.KB.ExtractionSyms(id), scoresOf) {
			continue
		}
		truth := sys.Corpus.Truth(ex.SentenceID)
		if truth.TrueConcept == ex.Concept {
			continue // want a real drift case for the demo
		}
		fmt.Printf("sentence:  %q\n", sys.Corpus.Sentences[ex.SentenceID].Text)
		fmt.Printf("resolved:  %q (triggered by %v) — WRONG, truth is %q\n",
			ex.Concept, ex.Triggers, truth.TrueConcept)
		for _, c := range ex.Candidates {
			s := clean.SentenceScore(ex.Instances, c, ex.Candidates, scoresOf)
			fmt.Printf("  Score(s, %s) = %.3f\n", c, s)
		}
		fmt.Println("the re-check prefers the other candidate; the extraction is rolled back")
		return
	}
	fmt.Println("(no failing extraction found at this scale)")
}

func wrongUnder(sys *driftclean.System, concept string) []string {
	var out []string
	for _, e := range sys.KB.Instances(concept) {
		if !sys.Oracle.PairCorrect(concept, e) {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

func diff(before, after []string) []string {
	in := map[string]bool{}
	for _, e := range after {
		in[e] = true
	}
	var out []string
	for _, e := range before {
		if !in[e] {
			out = append(out, e)
		}
	}
	return out
}

func head(xs []string, n int) []string {
	if len(xs) < n {
		return xs
	}
	return xs[:n]
}
