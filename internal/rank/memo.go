package rank

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"driftclean/internal/memo"
)

// Signature hashes the graph's full structure — nodes, core restart
// weights, and weighted out-edges — into an FNV-64a digest. RandomWalk
// is a pure function of (Graph, Config), and BuildGraph emits nodes and
// edges in a deterministic order, so two graphs with equal signatures
// produce bit-identical walk scores under the same configuration.
// Computing the signature is O(V+E), far below the power iteration's
// O(MaxIter·E), which is what makes cross-snapshot walk memoization pay.
func (g *Graph) Signature() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	sep := []byte{0}
	u64(uint64(len(g.Nodes)))
	for i, name := range g.Nodes {
		_, _ = h.Write([]byte(name))
		_, _ = h.Write(sep)
		if g.Core[i] {
			u64(math.Float64bits(g.CoreWeight[i]))
		} else {
			u64(^uint64(0))
		}
	}
	for u, edges := range g.Out {
		if len(edges) == 0 {
			continue
		}
		u64(uint64(u))
		u64(uint64(len(edges)))
		for _, e := range edges {
			u64(uint64(e.To))
			u64(math.Float64bits(e.Weight))
		}
	}
	return h.Sum64()
}

// WalkMemo memoizes random-walk results across KB snapshots and
// cleaning rounds, keyed by the walked concept and its trigger-graph
// Signature. It is the fallback behind a Cache: a lookup reaches it
// only when the concept's digest missed, so it pays off when a
// concept's records changed but its trigger graph did not (a count
// change outside the core, say).
//
// Entries live in a two-generation memo.Memo: Rotate once per committed
// checkpoint, and an entry is kept while some checkpoint still walks
// its graph.
//
// Install it as a Cache's walk implementation (Cache.SetWalk). A memo
// is bound to a single walk Config; do not share one across caches with
// different configurations. Returned score maps are shared and must be
// treated as read-only, the same contract Cache itself has.
type WalkMemo struct {
	m memo.Memo[walkKey, Scores]
}

// walkKey names one walk: the concept and a hash that fixes its trigger
// graph — its kb.ConceptDigest (Cache) or its graph's Signature
// (WalkMemo).
type walkKey struct {
	concept string
	hash    uint64
}

// NewWalkMemo returns an empty walk memo.
func NewWalkMemo() *WalkMemo { return &WalkMemo{} }

// Walk is a drop-in walk implementation for Cache.SetWalk: it returns
// the memoized scores when this concept's graph signature was walked in
// the current or previous generation, and otherwise computes RandomWalk
// and stores it.
func (m *WalkMemo) Walk(g *Graph, cfg Config) Scores {
	return m.m.Load(walkKey{g.Concept, g.Signature()}, func() Scores { return RandomWalk(g, cfg) })
}

// Rotate ends a memo generation (see memo.Memo.Rotate).
func (m *WalkMemo) Rotate() { m.m.Rotate() }

// Stats reports memo hits and misses since creation.
func (m *WalkMemo) Stats() (hits, misses int) { return m.m.Stats() }
