// Taxonomy: drive the lower-level packages directly — build a custom
// world, inspect discovered mutual exclusions against ground truth, sweep
// the seed-labeling threshold k (the paper's Fig 5b), and compare the
// three ranking models (the paper's Table 2) — all without the top-level
// pipeline wrapper.
//
//	go run ./examples/taxonomy
package main

import (
	"fmt"

	"driftclean/internal/corpus"
	"driftclean/internal/eval"
	"driftclean/internal/extract"
	"driftclean/internal/mutex"
	"driftclean/internal/rank"
	"driftclean/internal/seedlabel"
	"driftclean/internal/world"
)

func main() {
	// A custom world: fewer, bigger domains with aggressive polysemy.
	wcfg := world.DefaultConfig()
	wcfg.Seed = 42
	wcfg.NumDomains = 4
	wcfg.InstancesPerConceptMin = 150
	wcfg.InstancesPerConceptMax = 400
	wcfg.PolysemyPerConcept = 6
	w := world.New(wcfg)
	fmt.Printf("world: %d concepts, %d instances, %d domains\n",
		len(w.Concepts), w.NumInstances(), len(w.Domains))

	ccfg := corpus.DefaultConfig()
	ccfg.Seed = 43
	ccfg.NumSentences = 60000
	c := corpus.Generate(w, ccfg)
	res := extract.Run(c, extract.DefaultConfig())
	oracle := eval.NewOracle(w, c)
	fmt.Printf("extraction: %d pairs, precision %.3f\n",
		res.KB.NumPairs(), oracle.KBPrecision(res.KB, nil))

	// Mutual-exclusion discovery vs ground truth.
	mx := mutex.Analyze(res.KB, mutex.DefaultConfig())
	agree, total := 0, 0
	names := w.ConceptNames()
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if !mx.Covered(names[i]) || !mx.Covered(names[j]) {
				continue
			}
			total++
			if mx.Exclusive(names[i], names[j]) == w.ExclusiveTruth(names[i], names[j]) {
				agree++
			}
		}
	}
	fmt.Printf("exclusion discovery: %.1f%% agreement with ground truth over %d covered pairs\n",
		100*float64(agree)/float64(total), total)

	// Fig 5b in miniature: the seed threshold trade-off.
	fmt.Println("\nk   seed-precision  label-rate")
	for k := 1; k <= 8; k++ {
		lab := seedlabel.New(res.KB, mx, seedlabel.Config{K: k})
		good, seeds, insts := 0, 0, 0
		for _, concept := range res.KB.Concepts() {
			list := res.KB.Instances(concept)
			insts += len(list)
			for e, lbl := range lab.Seeds(concept, list, res.KB.SubIndex(concept)) {
				seeds++
				if oracle.SeedLabelCorrect(res.KB, concept, e, lbl) {
					good++
				}
			}
		}
		fmt.Printf("%d   %.3f           %.3f\n",
			k, float64(good)/float64(seeds), float64(seeds)/float64(insts))
	}

	// Table 2 in miniature on the concept with the most extracted pairs.
	big := ""
	for _, concept := range res.KB.Concepts() {
		if big == "" || len(res.KB.Instances(concept)) > len(res.KB.Instances(big)) {
			big = concept
		}
	}
	g := rank.BuildGraph(res.KB, big)
	models := map[string]rank.Scores{
		"frequency":   rank.Frequency(res.KB, big),
		"pagerank":    rank.PageRank(g, rank.DefaultConfig()),
		"random walk": rank.RandomWalk(g, rank.DefaultConfig()),
	}
	fmt.Printf("\nranking %q (%d instances): p@100\n", big, len(res.KB.Instances(big)))
	for _, name := range []string{"frequency", "pagerank", "random walk"} {
		p := oracle.PrecisionAtK(big, models[name].Ranked(), 100)
		fmt.Printf("  %-12s %.3f\n", name, p)
	}
}
