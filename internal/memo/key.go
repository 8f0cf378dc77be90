package memo

import "hash/maphash"

// seed keys every memo-key hash of this process. It is drawn at random
// once per process, so equal inputs hash equally within a run (which is
// all a memo key needs) while a collision cannot be crafted from outside
// it: instance and concept names come from untrusted ingest bodies. Keys
// only ever select a memo entry; they never reach the output.
var seed = maphash.MakeSeed()

// String returns the process-wide keyed hash of s.
func String(s string) uint64 { return maphash.String(seed, s) }

// Strings folds the ordered list into acc, one keyed string hash per
// element, and finishes with the list's length, so two lists fold to
// the same value only when they are equal element by element.
func Strings(acc uint64, list []string) uint64 {
	for _, s := range list {
		acc = Mix(acc + String(s))
	}
	return Mix(acc + uint64(len(list)))
}

// Mix is the splitmix64 finalizer: a bijection on uint64 that spreads
// every input bit over the whole word. Digests that sum per-item terms
// mix each term through it, so structured inputs (small counts,
// neighbouring iterations) still give unrelated terms.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
