// Package serve is the embeddable KB query service behind the
// driftserve HTTP server. It holds an atomically-swappable current
// snapshot (internal/snapshot), so a hot reload is one pointer store
// and readers never block; an LRU result cache keyed by (snapshot
// generation, query), so repeated queries cost a map lookup and a swap
// implicitly invalidates everything; singleflight coalescing, so a
// stampede of identical cold queries computes once; and per-endpoint
// counters and latency histograms exposed via ExpvarHandler.
//
// Concurrency model: the KB itself stays single-writer and is never
// touched here — the pipeline mutates its *kb.KB wherever it likes,
// freezes a snapshot when a consistent view is ready, and hands it to
// Swap. Every read in this package goes to an immutable snapshot, which
// is why no query path takes a lock around KB state.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"driftclean/internal/fault"
	"driftclean/internal/kb"
	"driftclean/internal/snapshot"
)

// Typed sentinel errors; HTTP layers map these onto status codes.
var (
	// ErrNoSnapshot is returned while the service has no snapshot yet.
	ErrNoSnapshot = errors.New("serve: no snapshot loaded")
	// ErrNotFound is returned for unknown concepts or pairs.
	ErrNotFound = errors.New("serve: not found")
)

// DefaultCacheSize is the result-cache capacity used when Options leaves
// CacheSize zero.
const DefaultCacheSize = 4096

// Options configures a Service.
type Options struct {
	// CacheSize bounds the LRU result cache: 0 means DefaultCacheSize,
	// negative disables caching (every query recomputes).
	CacheSize int
	// MaxInflight caps the queries executing concurrently (admission
	// control); 0 means unlimited. When the cap is reached, up to
	// QueueDepth further queries wait for a slot and everything beyond
	// that is shed immediately with ErrOverloaded (HTTP 429).
	MaxInflight int
	// QueueDepth bounds the admission queue behind MaxInflight; it is
	// only meaningful when MaxInflight is positive.
	QueueDepth int
	// Fault, when non-nil, is consulted at the "serve.<endpoint>" site on
	// every query (chaos testing); an injected error surfaces to the
	// caller exactly like a compute failure. nil is the production no-op.
	Fault *fault.Injector
}

// endpointNames enumerate the query surface; each gets its own metrics.
var endpointNames = []string{"stats", "concepts", "instances", "explain", "drifted"}

// Service serves read queries over an atomically-swappable snapshot.
// Create with New; all methods are safe for concurrent use.
type Service struct {
	cur   atomic.Pointer[snapshot.Snapshot]
	swaps atomic.Int64
	// stale marks the published snapshot as last-good-but-outdated: a
	// reload has failed since it was published. Queries keep succeeding
	// against it; HTTP layers surface the flag (X-Driftclean-Stale).
	stale atomic.Bool

	mu    sync.Mutex // guards cache
	cache *lruCache

	flights *flightGroup
	metrics map[string]*endpointMetrics
	adm     *admission // nil when admission control is disabled
	fault   *fault.Injector
}

// New returns a Service serving the given snapshot (which may be nil;
// queries then fail with ErrNoSnapshot until the first Swap).
func New(snap *snapshot.Snapshot, opts Options) *Service {
	size := opts.CacheSize
	switch {
	case size == 0:
		size = DefaultCacheSize
	case size < 0:
		size = 0
	}
	s := &Service{
		cache:   newLRU(size),
		flights: newFlightGroup(),
		metrics: make(map[string]*endpointMetrics, len(endpointNames)),
		adm:     newAdmission(opts.MaxInflight, opts.QueueDepth),
		fault:   opts.Fault,
	}
	for _, name := range endpointNames {
		s.metrics[name] = new(endpointMetrics)
	}
	if snap != nil {
		s.cur.Store(snap)
	}
	return s
}

// Swap atomically publishes a new current snapshot and returns the
// previous one (nil on first load). In-flight queries keep reading the
// snapshot they started with; new queries see the new one. Cached
// results of older generations age out of the LRU naturally — their
// keys embed the generation, so they can never be returned for the new
// snapshot.
func (s *Service) Swap(snap *snapshot.Snapshot) (prev *snapshot.Snapshot) {
	prev = s.cur.Swap(snap)
	s.swaps.Add(1)
	s.stale.Store(false) // a successful publish is fresh by definition
	return prev
}

// MarkStale flags (or unflags) the current snapshot as stale — still
// served, but known to be outdated because a reload failed. Swap clears
// the flag.
func (s *Service) MarkStale(stale bool) { s.stale.Store(stale) }

// Stale reports whether the current snapshot is marked stale.
func (s *Service) Stale() bool { return s.stale.Load() }

// Current returns the currently-published snapshot (nil if none).
func (s *Service) Current() *snapshot.Snapshot { return s.cur.Load() }

// Generation returns the current snapshot's generation, 0 if none.
func (s *Service) Generation() uint64 {
	if snap := s.cur.Load(); snap != nil {
		return snap.Generation()
	}
	return 0
}

// StatsResult is the stats endpoint's payload.
type StatsResult struct {
	Generation uint64   `json:"generation"`
	Stats      kb.Stats `json:"stats"`
}

// ConceptInfo summarizes one concept for listings.
type ConceptInfo struct {
	Name      string `json:"name"`
	Instances int    `json:"instances"`
}

// InstanceInfo summarizes one instance of a concept.
type InstanceInfo struct {
	Name         string `json:"name"`
	Count        int    `json:"count"`
	SubInstances int    `json:"sub_instances"`
}

// DriftedInstance is one row of a drift ranking. Concept is set only in
// KB-wide rankings (Drifted with an empty concept), where rows from
// different concepts mix; concept-scoped rankings omit it, keeping
// their wire format unchanged.
type DriftedInstance = snapshot.DriftRow

// Stats returns aggregate statistics of the current snapshot.
func (s *Service) Stats(ctx context.Context) (StatsResult, error) {
	v, err := s.do(ctx, "stats", "", func(snap *snapshot.Snapshot) (any, error) {
		return StatsResult{Generation: snap.Generation(), Stats: snap.Stats()}, nil
	})
	if err != nil {
		return StatsResult{}, err
	}
	return v.(StatsResult), nil
}

// Concepts lists every concept with its instance count.
func (s *Service) Concepts(ctx context.Context) ([]ConceptInfo, error) {
	v, err := s.do(ctx, "concepts", "", func(snap *snapshot.Snapshot) (any, error) {
		concepts := snap.Concepts()
		out := make([]ConceptInfo, 0, len(concepts))
		for i, c := range concepts {
			if i%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			out = append(out, ConceptInfo{Name: c, Instances: len(snap.Instances(c))})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]ConceptInfo), nil
}

// Instances lists a concept's instances with support counts and
// sub-instance fan-out. Unknown concepts yield ErrNotFound.
func (s *Service) Instances(ctx context.Context, concept string) ([]InstanceInfo, error) {
	v, err := s.do(ctx, "instances", concept, func(snap *snapshot.Snapshot) (any, error) {
		if !snap.HasConcept(concept) {
			return nil, fmt.Errorf("%w: concept %q", ErrNotFound, concept)
		}
		names := snap.Instances(concept)
		out := make([]InstanceInfo, 0, len(names))
		for i, e := range names {
			if i%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			out = append(out, InstanceInfo{
				Name:         e,
				Count:        snap.Count(concept, e),
				SubInstances: len(snap.SubInstances(concept, e)),
			})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]InstanceInfo), nil
}

// Explain traces the provenance of one isA pair. Missing pairs yield
// ErrNotFound. At most maxSupports supports are traced (0 means all).
func (s *Service) Explain(ctx context.Context, concept, instance string, maxSupports int) (kb.Explanation, error) {
	key := concept + "\x1f" + instance + "\x1f" + strconv.Itoa(maxSupports)
	v, err := s.do(ctx, "explain", key, func(snap *snapshot.Snapshot) (any, error) {
		ex, ok := snap.Explain(concept, instance, maxSupports)
		if !ok {
			return nil, fmt.Errorf("%w: pair (%s isA %s)", ErrNotFound, instance, concept)
		}
		return ex, nil
	})
	if err != nil {
		return kb.Explanation{}, err
	}
	return v.(kb.Explanation), nil
}

// Drifted ranks up to n instances by provenance-chain depth, deepest
// first. With a concept, the ranking is scoped to it and unknown
// concepts yield ErrNotFound. With an empty concept, the ranking spans
// every concept the service holds (rows carry their concept), ordered
// by depth descending, then concept, then instance.
//
// Every answer is a prefix of the snapshot's drift index, shared by all
// callers and cached results of the generation: it must not be
// modified, and its capacity equals its length, so an append copies.
func (s *Service) Drifted(ctx context.Context, concept string, n int) ([]DriftedInstance, error) {
	key := concept + "\x1f" + strconv.Itoa(n)
	v, err := s.do(ctx, "drifted", key, func(snap *snapshot.Snapshot) (any, error) {
		if concept == "" {
			return snap.FleetDriftRanking(n), nil
		}
		if !snap.HasConcept(concept) {
			return nil, fmt.Errorf("%w: concept %q", ErrNotFound, concept)
		}
		return snap.DriftRanking(concept, n), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]DriftedInstance), nil
}

// Metrics returns an exported snapshot of all service metrics.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	entries := s.cache.len()
	s.mu.Unlock()
	m := Metrics{
		Generation: s.Generation(),
		Swaps:      s.swaps.Load(),
		CacheSize:  entries,
		Shed:       s.adm.shedCount(),
		Endpoints:  make(map[string]EndpointStats, len(s.metrics)),
	}
	for name, em := range s.metrics {
		m.Endpoints[name] = em.snapshot()
	}
	return m
}

// do is the shared query path: pass admission control, resolve the
// current snapshot, consult the (generation, query)-keyed cache,
// coalesce identical in-flight computations, record metrics. compute
// runs against one pinned snapshot, so a concurrent Swap never gives a
// query a torn view.
func (s *Service) do(ctx context.Context, endpoint, qkey string, compute func(*snapshot.Snapshot) (any, error)) (any, error) {
	m := s.metrics[endpoint]
	start := time.Now()
	if err := s.adm.acquire(ctx); err != nil {
		m.observe(time.Since(start), err)
		return nil, err
	}
	v, err := s.doPinned(ctx, m, endpoint, qkey, compute)
	s.adm.release()
	m.observe(time.Since(start), err)
	return v, err
}

func (s *Service) doPinned(ctx context.Context, m *endpointMetrics, endpoint, qkey string, compute func(*snapshot.Snapshot) (any, error)) (any, error) {
	if err := s.fault.Hit("serve." + endpoint); err != nil {
		return nil, fmt.Errorf("serve: %s: %w", endpoint, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snap := s.cur.Load()
	if snap == nil {
		return nil, ErrNoSnapshot
	}
	key := endpoint + "\x1f" + strconv.FormatUint(snap.Generation(), 10) + "\x1f" + qkey
	s.mu.Lock()
	v, ok := s.cache.get(key)
	s.mu.Unlock()
	if ok {
		m.cacheHits.Add(1)
		return v, nil
	}
	v, err, shared := s.flights.do(key, func() (any, error) {
		v, err := compute(snap)
		if err != nil {
			return nil, err // never cache errors
		}
		s.mu.Lock()
		s.cache.add(key, v)
		s.mu.Unlock()
		return v, nil
	})
	if shared {
		m.coalesced.Add(1)
	} else {
		m.cacheMisses.Add(1)
	}
	return v, err
}
