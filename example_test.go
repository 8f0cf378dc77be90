package driftclean_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"driftclean"
	"driftclean/internal/world"
)

// The web is crawled continuously, so a Probase-style system extends its
// KB batch by batch instead of rebuilding. Each Ingest runs one delta
// extract-and-clean checkpoint (analysis re-runs only for concepts whose
// features changed), and each checkpoint is published as a
// generation-stamped snapshot, which a serving layer hot-swaps in.
// Generations count publishes process-wide, so they print relative to
// the first.
func ExampleSession_streaming() {
	cfg := driftclean.DefaultConfig()
	cfg.World.NumDomains = 4
	cfg.Corpus.NumSentences = 6000

	ctx := context.Background()
	sess, err := driftclean.Open(ctx, driftclean.WithConfig(cfg))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	// The session owns the corpus; slice it into crawl batches. After
	// every Ingest the KB is bit-identical to a from-scratch run over
	// everything ingested so far; the checkpoints just cost less.
	sents := sess.Sentences()
	const batches = 6
	per := len(sents) / batches
	var rep *driftclean.Report
	var first uint64
	fmt.Println("batch  pairs  precision       gen")
	for b := 0; b < batches; b++ {
		lo, hi := b*per, (b+1)*per
		if b == batches-1 {
			hi = len(sents)
		}
		rep, err = sess.Ingest(ctx, sents[lo:hi])
		if err != nil && !errors.Is(err, driftclean.ErrNoDPsDetected) {
			// A failed checkpoint rolls back; the same batch could
			// simply be retried.
			log.Fatal(err)
		}
		snap, err := sess.Publish()
		if err != nil {
			log.Fatal(err)
		}
		if b == 0 {
			first = snap.Generation()
		}
		fmt.Printf("%5d  %5d  %.3f -> %.3f  +%d\n",
			b+1, rep.PairsAfter, rep.PrecisionBefore, rep.PrecisionAfter, snap.Generation()-first)
	}

	// The last checkpoint's report carries the metrics a one-shot
	// CleanContext run over the whole corpus would have produced.
	fmt.Printf("DP cleaning: precision %.3f -> %.3f (%d pairs remain, %d checkpoints)\n",
		rep.PrecisionBefore, rep.PrecisionAfter, rep.PairsAfter, sess.Checkpoints())
	// Output:
	// batch  pairs  precision       gen
	//     1   1065  0.868 -> 0.888  +0
	//     2   1722  0.835 -> 0.880  +1
	//     3   2323  0.829 -> 0.855  +2
	//     4   2933  0.811 -> 0.839  +3
	//     5   3456  0.814 -> 0.846  +4
	//     6   3943  0.815 -> 0.856  +5
	// DP cleaning: precision 0.815 -> 0.856 (3943 pairs remain, 6 checkpoints)
}

// The paper's future-work claim, adopting the method for other types of
// relations, made concrete. The DP machinery never looks inside the
// relation: it needs (head, tail) pairs with trigger provenance and
// class-level exclusion, so any binary relation extracted by enumeration
// patterns maps onto the pipeline. Here each "concept" is a region and
// each "instance" a place located in it; border towns claimed by two
// regions play the chicken role, sub-concepts are districts and aliases
// are renamed regions ("Holland"/"Netherlands"), and "places in X such
// as ..." sentences drift exactly like isA.
func Example_relations() {
	cfg := driftclean.DefaultConfig()
	cfg.World = world.Config{
		Seed:                   11,
		NumDomains:             5, // continents: regions drift within one
		ConceptsPerDomainMin:   4,
		ConceptsPerDomainMax:   6,
		InstancesPerConceptMin: 80,
		InstancesPerConceptMax: 200,
		PolysemyPerConcept:     5,   // border towns
		SimilarAliasRate:       0.2, // renamed regions
		SubConceptRate:         0.3, // districts
		TailSizeMax:            15,
	}
	cfg.Corpus.NumSentences = 8000

	report, err := driftclean.CleanContext(context.Background(), driftclean.WithConfig(cfg))
	if err != nil && !errors.Is(err, driftclean.ErrNoDPsDetected) {
		log.Fatal(err)
	}
	fmt.Printf("pairs:     %d -> %d\n", report.PairsBefore, report.PairsAfter)
	fmt.Printf("precision: %.1f%% -> %.1f%%\n", 100*report.PrecisionBefore, 100*report.PrecisionAfter)

	// The drift anatomy is the same: deep provenance chains mark places
	// dragged across a border by a polysemous trigger.
	k := report.System.KB
	var region string
	for _, c := range k.Concepts() {
		if region == "" || len(k.Instances(c)) > len(k.Instances(region)) {
			region = c
		}
	}
	fmt.Printf("deepest provenance chains in region %q after cleaning:\n", region)
	depth := k.DriftDepth(region)
	for _, place := range k.TopDrifted(region, 3) {
		fmt.Printf("  %-20s depth %d\n", place, depth[place])
	}
	// Output:
	// pairs:     3659 -> 3274
	// precision: 78.0% -> 83.7%
	// deepest provenance chains in region "grekraisware" after cleaning:
	//   bealzeax             depth 3
	//   belvou               depth 3
	//   gefum                depth 3
}
