// Command driftload is the serving load harness: it builds a KB, serves
// it through one serve.Service, fingerprints a canonical response set,
// then sweeps closed-loop (fixed workers) and open-loop (fixed offered
// rate) load over the service, reporting exact p50/p99/p999/max
// latencies per cell. The artifact is BENCH_serve.json (schema
// documented in DESIGN.md §11).
//
// Usage:
//
//	driftload                        # full sweep
//	driftload -smoke                 # tiny sweep, for CI
//	driftload -out serve.json        # artifact path (default BENCH_serve.json)
//	driftload -sentences N           # corpus size of the KB under load
//	driftload -duration 2s           # wall time per load cell
//	driftload -seed 7                # query-mix seed
//	driftload -inflight N -queue N   # admission control
//	driftload -maxreload 4ms         # require snapshot reload p50 ≤ 4ms
//	driftload -validate serve.json   # validate an existing artifact and exit
//
// Alongside the load sweep, the harness saves the KB as a binary
// snapshot and measures hot-reload latency plus per-replica heap; the
// numbers land in the artifact's "reload" block.
//
// The exit status is nonzero if any load cell completes no queries or
// reports incoherent percentiles, if the reload p50 exceeds -maxreload,
// or if -validate finds a malformed artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"driftclean/internal/bench"
)

func main() {
	smoke := flag.Bool("smoke", false, "run the tiny CI sweep instead of the full one")
	out := flag.String("out", "BENCH_serve.json", "artifact output path")
	sentences := flag.Int("sentences", 0, "corpus size of the KB under load (0 keeps the sweep default)")
	duration := flag.Duration("duration", 0, "wall time per load cell (0 keeps the sweep default)")
	seed := flag.Int64("seed", 0, "query-mix seed (0 keeps the sweep default)")
	inflight := flag.Int("inflight", 0, "admission: max concurrently executing queries (0 = unlimited)")
	queue := flag.Int("queue", 0, "admission: queued queries beyond -inflight before shedding")
	maxReload := flag.Duration("maxreload", 0, "fail if the snapshot reload p50 exceeds this (0 = no ceiling)")
	validate := flag.String("validate", "", "validate an existing artifact at this path and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: driftload [-smoke] [-out FILE] [-sentences N] [-duration 2s] [-seed N] [-inflight N] [-queue N] [-maxreload 4ms] [-validate FILE]")
		os.Exit(2)
	}

	if *validate != "" {
		if err := validateArtifact(*validate, *maxReload); err != nil {
			fmt.Fprintf(os.Stderr, "driftload: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("validate: %s is a well-formed serving artifact\n", *validate)
		return
	}

	cfg := bench.DefaultServeConfig()
	if *smoke {
		cfg = bench.SmokeServeConfig()
	}
	if *sentences > 0 {
		cfg.Sentences = *sentences
	}
	if *duration > 0 {
		cfg.Duration = *duration
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.MaxInflight = *inflight
	cfg.QueueDepth = *queue
	cfg.Progress = func(line string) { fmt.Println(line) }

	res := bench.RunServe(cfg)
	if err := res.WriteJSON(*out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("\nresponse fingerprint %s  cells=%d  artifact=%s\n",
		res.ResponseFingerprint, len(res.Cells), *out)
	if rl := res.Reload; rl != nil {
		fmt.Printf("reload p50 %dus, heap/replica %d KB\n", rl.ReloadP50Micros, rl.HeapBytesPerReplica/1024)
	}
	if err := bench.ValidateServe(res, *maxReload); err != nil {
		fmt.Fprintf(os.Stderr, "driftload: run fails validation: %v\n", err)
		os.Exit(1)
	}
}

// validateArtifact loads an artifact from disk and runs the schema and
// coherence checks over it — the CI gate against malformed output. A
// positive maxReload additionally caps the recorded reload p50.
func validateArtifact(path string, maxReload time.Duration) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading artifact: %w", err)
	}
	var res bench.ServeResult
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("parsing artifact %s: %w", path, err)
	}
	if err := bench.ValidateServe(&res, maxReload); err != nil {
		return fmt.Errorf("artifact %s: %w", path, err)
	}
	return nil
}
