// Command driftclean runs the complete pipeline — synthetic world,
// Hearst corpus, drifted iterative extraction, DP detection, DP-based
// cleaning — and prints a cleaning report.
//
// Usage:
//
//	driftclean [-sentences N] [-domains N] [-seed N] [-method NAME] [-rounds N] [-v] [-savekb FILE]
//
// Methods: multitask (default), semisup, supervised, ridge, adhoc1..adhoc4.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"driftclean"
	"driftclean/internal/kb/binsnap"
)

func main() {
	var (
		sentences = flag.Int("sentences", 120000, "number of corpus sentences")
		domains   = flag.Int("domains", 8, "number of generated concept domains")
		seed      = flag.Int64("seed", 1, "world seed (corpus seed derives from it)")
		method    = flag.String("method", "multitask", "detection method: multitask|semisup|supervised|ridge|adhoc1..adhoc4")
		rounds    = flag.Int("rounds", 5, "maximum detect-and-clean rounds")
		verbose   = flag.Bool("v", false, "print per-iteration extraction stats")
		saveKB    = flag.String("savekb", "", "write the cleaned knowledge base as a binary snapshot to this file")
	)
	flag.Parse()

	kind, ok := methodByName(*method)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown method %q\n", *method)
		os.Exit(2)
	}

	cfg := driftclean.DefaultConfig()
	cfg.World.Seed = *seed
	cfg.World.NumDomains = *domains
	cfg.Corpus.Seed = *seed + 1
	cfg.Corpus.NumSentences = *sentences
	cfg.Clean.MaxRounds = *rounds

	// Context-first API: ctrl-C cancels between cleaning rounds instead
	// of killing the process mid-mutation.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	opts := []driftclean.Option{driftclean.WithConfig(cfg)}
	if *verbose {
		opts = append(opts, driftclean.WithProgress(func(p driftclean.Phase, r driftclean.Round) {
			if p == driftclean.PhaseClean {
				fmt.Fprintf(os.Stderr, "driftclean: %v round %d\n", p, r)
			} else {
				fmt.Fprintf(os.Stderr, "driftclean: %v\n", p)
			}
		}))
	}

	start := time.Now()
	rep, err := driftclean.CleanWithContext(ctx, kind, opts...)
	switch {
	case errors.Is(err, driftclean.ErrNoDPsDetected):
		fmt.Fprintln(os.Stderr, "driftclean: no drifting points detected; nothing to clean")
	case err != nil:
		fmt.Fprintf(os.Stderr, "driftclean: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	sys := rep.System
	fmt.Printf("world:      %d concepts, %d instances\n", len(sys.World.Concepts), sys.World.NumInstances())
	fmt.Printf("corpus:     %d sentences\n", sys.Corpus.Len())
	fmt.Printf("extraction: %d iterations, %d unresolved ambiguous sentences\n",
		sys.Extraction.Iterations, sys.Extraction.Unresolved)
	if *verbose {
		for _, it := range sys.Extraction.PerIteration {
			fmt.Printf("  iteration %2d: +%6d extractions, %7d distinct pairs\n",
				it.Iteration, it.NewExtractions, it.DistinctPairs)
		}
	}
	fmt.Printf("method:     %v\n", kind)
	fmt.Printf("pairs:      %d -> %d (removed %d)\n", rep.PairsBefore, rep.PairsAfter, rep.PairsBefore-rep.PairsAfter)
	fmt.Printf("precision:  %.3f -> %.3f\n", rep.PrecisionBefore, rep.PrecisionAfter)
	fmt.Printf("cleaning:   perror=%.3f rerror=%.3f pcorr=%.3f rcorr=%.3f (%d rounds)\n",
		rep.PError, rep.RError, rep.PCorr, rep.RCorr, rep.Rounds)
	fmt.Printf("elapsed:    %v\n", elapsed.Round(time.Millisecond))
	if *saveKB != "" {
		if err := binsnap.WriteFile(*saveKB, sys.KB); err != nil {
			fmt.Fprintf(os.Stderr, "driftclean: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("saved:      %s\n", *saveKB)
	}
}

func methodByName(name string) (driftclean.DetectorKind, bool) {
	switch name {
	case "multitask":
		return driftclean.DetectMultiTask, true
	case "semisup":
		return driftclean.DetectSemiSupervised, true
	case "supervised":
		return driftclean.DetectSupervised, true
	case "ridge":
		return driftclean.DetectRidge, true
	case "adhoc1":
		return driftclean.DetectAdHoc1, true
	case "adhoc2":
		return driftclean.DetectAdHoc2, true
	case "adhoc3":
		return driftclean.DetectAdHoc3, true
	case "adhoc4":
		return driftclean.DetectAdHoc4, true
	default:
		return 0, false
	}
}
