package rank

import (
	"driftclean/internal/kb"
	"driftclean/internal/memo"
)

// Cache is a concurrency-safe per-concept random-walk score cache shared
// across the feature extractor and the cleaning rounds — the paper's
// inner loop recomputed every concept's walk from scratch each round,
// but a walk depends only on its own concept's trigger graph, so a
// round needs to re-walk only the concepts it actually changed.
//
// Walks are remembered under (concept, kb.ConceptDigest), across KBs,
// in a two-generation memo. Equal digests mean equal trigger graphs
// (see kb.ConceptDigest), so a hit is exactly the walk a recomputation
// would return, and a concept whose records some recent KB state
// already had costs two map reads instead of BuildGraph and the walk.
// Any mutation of a concept changes its digest, so no caller has to
// report what it changed.
//
// Concurrent misses on one (concept, digest) each run the walk. Callers
// that fan out claim distinct concepts, and the walk is deterministic,
// so a duplicate could only cost time, never change a score.
type Cache struct {
	cfg  Config
	walk func(*Graph, Config) Scores
	memo memo.Memo[walkKey, Scores]
}

// NewCache returns an empty cache computing walks with the given
// configuration. Rotate ends a generation of its memo.
func NewCache(cfg Config) *Cache {
	return &Cache{cfg: cfg, walk: RandomWalk}
}

// Rotate ends a generation of the walk memo (see memo.Memo.Rotate).
func (c *Cache) Rotate() { c.memo.Rotate() }

// DigestStats reports the walk memo's hits and misses since creation.
func (c *Cache) DigestStats() (hits, misses int) { return c.memo.Stats() }

// Config returns the walk configuration the cache computes scores with.
// Callers holding a different configuration must not share this cache.
func (c *Cache) Config() Config { return c.cfg }

// SetWalk replaces the walk implementation — an instrumentation seam for
// tests that count walk invocations. It must be called before the first
// lookup and is not safe to call concurrently with lookups.
func (c *Cache) SetWalk(walk func(*Graph, Config) Scores) { c.walk = walk }

// Scores returns the concept's random-walk scores on k, walking its
// trigger graph only when no walk of the concept at its current digest
// is remembered. The returned map is shared and must be treated as
// read-only. A walk that panics stores nothing.
func (c *Cache) Scores(k *kb.KB, concept string) Scores {
	return c.memo.Load(walkKey{concept, k.ConceptDigest(concept)}, func() Scores {
		return c.walk(BuildGraph(k, concept), c.cfg)
	})
}
