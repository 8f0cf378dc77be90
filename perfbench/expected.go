package main

import "fmt"

// recorded holds outputs recorded for world 1 at each workload's full
// size; a run that ends elsewhere fails. Other worlds and sizes check
// consistency instead: every batch job agrees with the first, and the
// server agrees with an in-process reference.
var recorded = map[string]string{
	// bench.Fingerprint of the cleaned KB (7,719 pairs), whatever the
	// arrival order.
	"batch/12000": "62c70cc02743e84e",
	// FNV-64a of the canonical response set over the cleaned 40k KB
	// (63 concepts, 13,603 pairs).
	"serve/40000": "861232db52906b90",
}

func expected(kind string, sentences int, world int64) string {
	if world != 1 {
		return ""
	}
	return recorded[fmt.Sprintf("%s/%d", kind, sentences)]
}
