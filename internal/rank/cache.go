package rank

import (
	"sync"

	"driftclean/internal/kb"
	"driftclean/internal/memo"
	"driftclean/internal/par"
)

// Cache is a concurrency-safe per-concept random-walk score cache shared
// across the feature extractor and the cleaning rounds — the paper's
// inner loop recomputed every concept's walk from scratch each round,
// but a walk depends only on its own concept's trigger graph, so a
// round needs to re-walk only the concepts it actually changed.
//
// Consistency protocol: entries are bound to one KB at one mutation
// version (kb.Version). A mutator that knows exactly which concepts it
// touched calls Invalidate with that set, which drops those entries and
// re-binds the cache to the KB's new version — everything else stays
// warm. Any KB change the cache is *not* told about (different KB
// pointer, or a version the cache never synced to) is detected on the
// next lookup and clears the whole cache: the fallback is a full
// recompute, never a stale score.
//
// Lookups are single-flight: when several goroutines miss on the same
// concept simultaneously, one runs the walk and the rest wait for its
// result, so concurrent feature extraction never duplicates a walk.
//
// A cache made by NewDigestCache also remembers every walk across KBs
// under (concept, kb.ConceptDigest): a lookup that misses the KB-bound
// entries reads that two-generation memo before it builds the graph, so
// a concept whose records some recent KB state already had costs two
// map reads instead of BuildGraph, Signature and the walk. Equal
// digests mean equal trigger graphs (see kb.ConceptDigest), so a hit is
// exactly the walk a recomputation would return.
type Cache struct {
	cfg  Config
	walk func(*Graph, Config) Scores
	// byDigest is nil unless the cache was made by NewDigestCache.
	byDigest *memo.Memo[walkKey, Scores]

	mu      sync.Mutex
	entries map[string]*cacheEntry
	kb      *kb.KB
	// kbVersion mirrors kb.Version() at the last sync point; it is a
	// staleness stamp for the bound KB, not a mutation counter of the
	// cache itself.
	kbVersion uint64
}

type cacheEntry struct {
	ready  chan struct{} // closed once the leader finished (or failed)
	scores Scores
	ok     bool // false until the leader stored a result
}

// NewCache returns an empty cache computing walks with the given
// configuration.
func NewCache(cfg Config) *Cache {
	return &Cache{cfg: cfg, walk: RandomWalk, entries: make(map[string]*cacheEntry)}
}

// NewDigestCache returns an empty cache that also keeps a digest-keyed
// walk memo across KBs (see Cache). Rotate ends a generation of it.
func NewDigestCache(cfg Config) *Cache {
	c := NewCache(cfg)
	c.byDigest = &memo.Memo[walkKey, Scores]{}
	return c
}

// Rotate ends a generation of the digest-keyed walk memo (see
// memo.Memo.Rotate); it is a no-op on a cache made by NewCache.
func (c *Cache) Rotate() {
	if c.byDigest != nil {
		c.byDigest.Rotate()
	}
}

// DigestStats reports the digest-keyed walk memo's hits and misses
// since creation (0, 0 on a cache made by NewCache).
func (c *Cache) DigestStats() (hits, misses int) {
	if c.byDigest == nil {
		return 0, 0
	}
	return c.byDigest.Stats()
}

// Config returns the walk configuration the cache computes scores with.
// Callers holding a different configuration must not share this cache.
func (c *Cache) Config() Config { return c.cfg }

// SetWalk replaces the walk implementation — an instrumentation seam for
// tests that count walk invocations. It must be called before the first
// lookup and is not safe to call concurrently with lookups.
func (c *Cache) SetWalk(walk func(*Graph, Config) Scores) { c.walk = walk }

// Scores returns the concept's random-walk scores, computing (and
// caching) them on first use. Concurrent callers for the same concept
// coalesce onto a single walk.
func (c *Cache) Scores(k *kb.KB, concept string) Scores {
	for {
		c.mu.Lock()
		c.syncLocked(k)
		e, exists := c.entries[concept]
		if !exists {
			//lint:ignore hotalloc the miss path allocates exactly one entry per concept per KB version; the loop only repeats after a leader panic
			e = &cacheEntry{ready: make(chan struct{})}
			c.entries[concept] = e
			c.mu.Unlock()
			return c.lead(k, concept, e)
		}
		c.mu.Unlock()
		<-e.ready
		if e.ok {
			return e.scores
		}
		// The leader failed (panicked into its recover path): its entry
		// was removed, so loop and elect a new leader.
	}
}

// lead computes the walk as the single-flight leader. If the walk
// panics, the entry is removed (parked waiters re-elect a leader) and
// the panic propagates to this caller only.
func (c *Cache) lead(k *kb.KB, concept string, e *cacheEntry) Scores {
	defer func() {
		if !e.ok {
			c.mu.Lock()
			if c.entries[concept] == e {
				delete(c.entries, concept)
			}
			c.mu.Unlock()
		}
		close(e.ready)
	}()
	var key walkKey
	if c.byDigest != nil {
		key = walkKey{concept, k.ConceptDigest(concept)}
		if s, ok := c.byDigest.Get(key); ok {
			e.scores, e.ok = s, true
			return s
		}
	}
	s := c.walk(BuildGraph(k, concept), c.cfg)
	if c.byDigest != nil {
		c.byDigest.Put(key, s)
	}
	e.scores, e.ok = s, true
	return s
}

// Warm computes (and caches) the scores of every given concept with the
// given worker count. Already-cached concepts cost a map hit.
func (c *Cache) Warm(k *kb.KB, concepts []string, workers int) {
	if len(concepts) == 0 {
		return
	}
	// One concept per claim: graph sizes are heavily skewed (the drifted
	// concepts are the big ones), so fine-grained claiming load-balances.
	par.ForChunked(len(concepts), workers, 1, func(i int) {
		c.Scores(k, concepts[i])
	})
}

// Invalidate drops the entries of the given concepts and re-binds the
// cache to the KB's current mutation version. Call it immediately after
// a mutation with the exact concept set the mutation touched (see
// kb.RollbackResult.TouchedConcepts); entries of untouched concepts
// remain valid because a walk reads nothing outside its own concept.
func (c *Cache) Invalidate(k *kb.KB, concepts ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.kb != k {
		// Cache was never bound to this KB; a later lookup will resync.
		return
	}
	for _, concept := range concepts {
		delete(c.entries, concept)
	}
	c.kbVersion = k.Version()
}

// Len returns the number of cached concept entries (including in-flight
// ones); used by tests asserting invalidation behavior.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// syncLocked rebinds the cache when the KB pointer or version moved in a
// way Invalidate was not told about, dropping every entry. c.mu held.
func (c *Cache) syncLocked(k *kb.KB) {
	if c.kb == k && c.kbVersion == k.Version() {
		return
	}
	if len(c.entries) > 0 {
		c.entries = make(map[string]*cacheEntry)
	}
	c.kb = k
	c.kbVersion = k.Version()
}
