// Command driftbench times the full driftclean pipeline — world →
// corpus → extraction → analysis → cleaning — on the serial path and
// with the worker pools engaged, and writes the comparison to
// BENCH_pipeline.json (schema documented in README.md, "Performance").
//
// Usage:
//
//	driftbench                       # full ladder (small/medium/large)
//	driftbench -smoke                # single tiny scale, for CI
//	driftbench -scales all           # smoke + full ladder + ingest scenarios
//	driftbench -scales ingest        # incremental ingest: per-batch latency
//	                                 # vs a from-scratch rerun (medium corpus)
//	driftbench -scales ingest-smoke  # tiny ingest scenario, for CI
//	driftbench -scales solver-ab     # ladder + Jacobi-solver twins of the
//	                                 # smoke and large scales (eigensolver A/B)
//	driftbench -solver jacobi        # pin all scales to the Jacobi oracle
//	driftbench -out bench.json       # artifact path (default BENCH_pipeline.json)
//	driftbench -check old.json       # fail if any same-named scale's KB
//	                                 # fingerprint differs from old.json
//	driftbench -cpuprofile cpu.pprof # pprof CPU capture of the timed runs
//	driftbench -memprofile mem.pprof # heap profile written after the runs
//
// The exit status is nonzero if any scale's serial and parallel runs
// disagree on the final KB, or if -check finds a fingerprint drift
// against a previous artifact — determinism guarantees are part of what
// this benchmark verifies, not assumptions it makes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"driftclean/internal/bench"
)

func main() {
	smoke := flag.Bool("smoke", false, "run the single tiny CI scale instead of the full ladder")
	scaleSet := flag.String("scales", "", `scale set: "default" (small/medium/large), "smoke", "ingest", "ingest-smoke", "all" (smoke + ladder + ingest), or "solver-ab" (all plus Jacobi-solver twins of smoke and large); overrides -smoke`)
	solver := flag.String("solver", "", `pin every selected scale to one KPCA eigensolver: "topk" (default path) or "jacobi" (the oracle escape hatch; scale names get a "-jacobi" suffix)`)
	out := flag.String("out", "BENCH_pipeline.json", "artifact output path")
	check := flag.String("check", "", "path of a previous artifact; fail if any same-named scale's KB fingerprint differs")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the timed runs to this path")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (after the timed runs) to this path")
	flag.Parse()

	scales := bench.DefaultScales()
	var ingestScales []bench.IngestScale
	if *smoke {
		scales = bench.SmokeScales()
	}
	switch *scaleSet {
	case "":
	case "default":
		scales = bench.DefaultScales()
	case "smoke":
		scales = bench.SmokeScales()
	case "ingest":
		scales = nil
		ingestScales = bench.DefaultIngestScales()
	case "ingest-smoke":
		scales = nil
		ingestScales = bench.SmokeIngestScales()
	case "all":
		scales = append(bench.SmokeScales(), bench.DefaultScales()...)
		ingestScales = append(bench.SmokeIngestScales(), bench.DefaultIngestScales()...)
	case "solver-ab":
		// The before/after artifact for the top-k eigensolver: the full
		// ladder on the default path plus Jacobi twins of the endpoints.
		scales = append(bench.SmokeScales(), bench.DefaultScales()...)
		scales = append(scales, bench.JacobiTwins([]bench.Scale{scales[0], scales[len(scales)-1]})...)
		ingestScales = append(bench.SmokeIngestScales(), bench.DefaultIngestScales()...)
	default:
		fmt.Fprintf(os.Stderr, "driftbench: unknown -scales %q (want default, smoke, ingest, ingest-smoke, all or solver-ab)\n", *scaleSet)
		os.Exit(2)
	}
	switch *solver {
	case "", "topk":
	case "jacobi":
		scales = bench.JacobiTwins(scales)
	default:
		fmt.Fprintf(os.Stderr, "driftbench: unknown -solver %q (want topk or jacobi)\n", *solver)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "driftbench: creating cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "driftbench: starting cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	res := bench.Run(scales, func(line string) { fmt.Println(line) })
	bench.RunIngest(res, ingestScales, func(line string) { fmt.Println(line) })

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "driftbench: creating mem profile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "driftbench: writing mem profile: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "driftbench: closing mem profile: %v\n", err)
			os.Exit(1)
		}
	}

	if err := res.WriteJSON(*out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ok := true
	if len(res.Scales) > 0 {
		fmt.Printf("\n%-8s %10s %10s %8s  %s\n", "scale", "serial_s", "parallel_s", "speedup", "identical")
		for _, sc := range res.Scales {
			fmt.Printf("%-8s %10.2f %10.2f %7.2fx  %v\n",
				sc.Name, sc.Serial.Stages.Total, sc.Parallel.Stages.Total, sc.Speedup, sc.Identical)
			if !sc.Identical {
				ok = false
			}
		}
	}
	if len(res.Ingest) > 0 {
		fmt.Printf("\n%-16s %10s %12s %8s %10s  %s\n", "ingest", "batch_s", "rerun_s", "speedup", "task_fits", "identical")
		for _, ir := range res.Ingest {
			fmt.Printf("%-16s %10.3f %12.2f %7.2fx %10d  %v\n",
				ir.Name, ir.MeanBatchSeconds, ir.FullRerunSeconds, ir.Speedup, ir.TaskRebuilds, ir.Identical)
			if !ir.Identical {
				ok = false
			}
		}
	}
	fmt.Printf("cpus=%d workers=%d artifact=%s\n", res.CPUs, res.ParallelWorkers, *out)
	if !ok {
		fmt.Fprintln(os.Stderr, "driftbench: paired runs diverged on the final KB — determinism violation")
		os.Exit(1)
	}

	if *check != "" {
		drifts, err := bench.CheckAgainst(res, *check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "driftbench: -check: %v\n", err)
			os.Exit(1)
		}
		for _, d := range drifts {
			fmt.Fprintln(os.Stderr, "driftbench: "+d)
		}
		if len(drifts) > 0 {
			fmt.Fprintf(os.Stderr, "driftbench: KB fingerprints drifted from %s — byte-identical-output violation\n", *check)
			os.Exit(1)
		}
		fmt.Printf("check: fingerprints match %s on every shared scale\n", *check)
	}
}
