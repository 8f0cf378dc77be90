package kb

import "maps"

// Digests returns a copy of every concept's incrementally maintained
// digest, for the external digest tests.
func (kb *KB) Digests() map[string]uint64 { return maps.Clone(kb.digest) }

// RecomputedDigests rebuilds every concept's digest from the KB's
// records, for the external digest tests.
func (kb *KB) RecomputedDigests() map[string]uint64 { return kb.recomputeDigests() }
