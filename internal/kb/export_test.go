package kb

// Digests returns a copy of every concept's incrementally maintained
// digest, for the external digest tests.
func (kb *KB) Digests() map[string]uint64 {
	out := make(map[string]uint64)
	for s, st := range kb.state {
		if st.defined {
			out[kb.syms.Name(Sym(s))] = st.digest
		}
	}
	return out
}

// RecomputedDigests rebuilds every concept's digest from the KB's
// records, for the external digest tests.
func (kb *KB) RecomputedDigests() map[string]uint64 { return kb.recomputeDigests() }
