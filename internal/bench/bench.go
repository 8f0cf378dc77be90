// Package bench holds the KB fingerprint every identity check compares
// and the serving load harness behind driftload and BENCH_serve.json.
//
// Fingerprint is the project's definition of "the same output": the
// pinned pipeline fingerprints (the root package's pinned_test.go), the
// serial-versus-parallel and incremental-versus-batch tests and
// perfbench's correctness checks all compare it, together with the
// pair count.
package bench

import (
	"fmt"
	"hash/fnv"

	"driftclean/internal/kb"
)

// Fingerprint hashes a KB's full pair set (with per-pair support counts)
// into a short hex digest. Two KBs with equal fingerprints and pair
// counts are treated as identical for A/B determinism checks.
func Fingerprint(k *kb.KB) string {
	h := fnv.New64a()
	for _, p := range k.Pairs() {
		fmt.Fprintf(h, "%s\x00%s\x00%d\x1f", p.Concept, p.Instance, k.Count(p.Concept, p.Instance))
	}
	fmt.Fprintf(h, "|ex=%d", k.NumExtractions())
	return fmt.Sprintf("%016x", h.Sum64())
}
