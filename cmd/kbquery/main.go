// Command kbquery explores a saved knowledge base (see driftclean
// -savekb): list concepts, list a concept's instances, trace the
// provenance of a pair back to its core evidence, and rank the most
// drift-suspicious instances by provenance depth. It queries through
// the same immutable snapshot layer (internal/snapshot) the driftserve
// HTTP server uses, so CLI and server answers always agree.
//
// Usage:
//
//	kbquery -kb FILE <command> [args]
//
// Commands:
//
//	stats                     aggregate KB statistics
//	concepts                  list concepts with instance counts
//	instances <concept>       list a concept's instances with counts
//	explain <concept> <inst>  provenance of one isA pair
//	drifted <concept> [n]     the n deepest provenance chains (default 10)
//	subs <concept> <inst>     sub-instances triggered by an instance
//	of <instance>             concepts currently holding an instance
//
// Unknown commands, missing arguments and trailing garbage all print
// usage and exit 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"driftclean/internal/kb/kbio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parse flags, load and freeze the KB,
// dispatch the subcommand. It returns the process exit code: 0 on
// success, 1 on operational errors (unreadable KB, missing pair), 2 on
// usage errors.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kbquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kbPath := fs.String("kb", "", "path to a KB snapshot written with -savekb")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	args := fs.Args()
	if *kbPath == "" || len(args) == 0 {
		return usage(stderr)
	}
	cmd, rest := args[0], args[1:]
	argc, known := map[string]int{
		"stats": 0, "concepts": 0, "instances": 1,
		"explain": 2, "subs": 2, "of": 1,
	}[cmd]
	switch {
	case cmd == "drifted": // 1 mandatory + 1 optional argument
		if len(rest) < 1 || len(rest) > 2 {
			return usage(stderr)
		}
	case !known || len(rest) != argc:
		return usage(stderr)
	}

	// The KB may be a gob stream or a binary columnar snapshot; kbio
	// sniffs the format, so both open transparently.
	snap, _, err := kbio.FreezeFile(*kbPath)
	if err != nil {
		return fail(stderr, "loading %s: %v", *kbPath, err)
	}

	switch cmd {
	case "stats":
		s := snap.Stats()
		fmt.Fprintf(stdout, "concepts: %d\npairs:    %d\ncounts:   %d\nactive extractions: %d\n",
			s.Concepts, s.DistinctPairs, s.TotalCount, s.ActiveExtractions)
	case "concepts":
		for _, c := range snap.Concepts() {
			fmt.Fprintf(stdout, "%-30s %d instances\n", c, len(snap.Instances(c)))
		}
	case "instances":
		for _, e := range snap.Instances(rest[0]) {
			fmt.Fprintf(stdout, "%-30s count=%d subs=%d\n",
				e, snap.Count(rest[0], e), len(snap.SubInstances(rest[0], e)))
		}
	case "explain":
		ex, ok := snap.Explain(rest[0], rest[1], 5)
		if !ok {
			return fail(stderr, "pair (%s isA %s) not in the KB", rest[1], rest[0])
		}
		fmt.Fprint(stdout, ex.Format())
	case "drifted":
		n := 10
		if len(rest) == 2 {
			v, err := strconv.Atoi(rest[1])
			if err != nil || v <= 0 {
				return usage(stderr)
			}
			n = v
		}
		for _, r := range snap.DriftRanking(rest[0], n) {
			fmt.Fprintf(stdout, "%-30s chain depth %d\n", r.Name, r.Depth)
		}
	case "subs":
		for _, s := range snap.SubInstances(rest[0], rest[1]) {
			fmt.Fprintf(stdout, "%-30s count=%d\n", s, snap.Count(rest[0], s))
		}
	case "of":
		for _, c := range snap.ConceptsOfInstance(rest[0]) {
			fmt.Fprintf(stdout, "%-30s count=%d\n", c, snap.Count(c, rest[0]))
		}
	}
	return 0
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: kbquery -kb FILE stats|concepts|instances C|explain C E|drifted C [n]|subs C E|of E")
	return 2
}

func fail(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "kbquery: "+format+"\n", args...)
	return 1
}
