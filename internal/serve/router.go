// Router: scatter-gather serving over a concept-sharded fleet.
//
// The KB is partitioned by concept (consistent hashing, see Ring) into
// N independent Services, each holding its own snapshot shard with its
// own cache, admission queue and reload/stale state — one shard
// rebuilding or failing never blocks the rest. The Router is the
// fleet's single query façade: listing queries (Concepts, Stats, the
// fleet-wide Drifted) scatter to every shard and merge deterministically,
// point lookups (Instances, Explain, concept-scoped Drifted) route
// straight to the owning shard. For the same underlying snapshot, the
// merged responses are byte-identical at any shard count — sharding is
// a capacity decision, never a semantic one.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"driftclean/internal/fault"
	"driftclean/internal/kb"
	"driftclean/internal/snapshot"
)

// ErrShard is wrapped into every scatter-gather error caused by a shard
// failing or timing out. HTTP layers map it onto 503: the fleet is
// partially unavailable, the request was not at fault.
var ErrShard = errors.New("serve: shard failure")

// Querier is the read-side query surface shared by a single Service and
// a sharded Router, so transports serve either through one code path.
type Querier interface {
	Stats(ctx context.Context) (StatsResult, error)
	Concepts(ctx context.Context) ([]ConceptInfo, error)
	Instances(ctx context.Context, concept string) ([]InstanceInfo, error)
	Explain(ctx context.Context, concept, instance string, maxSupports int) (kb.Explanation, error)
	Drifted(ctx context.Context, concept string, n int) ([]DriftedInstance, error)
	Generation() uint64
	Stale() bool
	ExpvarHandler() http.Handler
}

// Compile-time checks that both backends satisfy the shared surface.
var (
	_ Querier = (*Service)(nil)
	_ Querier = (*Router)(nil)
)

// RouterOptions configures a Router.
type RouterOptions struct {
	// AllowPartial turns shard failures during scatter-gather into
	// degraded responses: the healthy shards' results merge normally and
	// the request's GatherStatus (WithGatherStatus) is marked degraded.
	// When false (the default), any shard failure fails the whole gather
	// with an ErrShard-wrapped error — strict mode never serves a
	// partial listing silently.
	AllowPartial bool
	// Fault, when non-nil, is consulted at the "serve.route" site on
	// every point lookup and the "serve.gather" site on every
	// scatter-gather (chaos testing); nil is the production no-op.
	Fault *fault.Injector
}

// Router scatter-gathers queries over a fleet of concept-sharded
// Services. All methods are safe for concurrent use.
type Router struct {
	shards       []*Service
	ring         *Ring
	allowPartial bool
	fault        *fault.Injector
}

// NewRouter builds a Router over the given shard services. Shard i must
// hold the snapshot partition the ring assigns to index i — the caller
// (driftserve, the load harness) partitions via ring.Owner and keeps
// the two aligned. The ring's shard count must equal len(shards).
func NewRouter(shards []*Service, ring *Ring, opts RouterOptions) *Router {
	if ring.Shards() != len(shards) {
		panic(fmt.Sprintf("serve: ring has %d shards, got %d services", ring.Shards(), len(shards)))
	}
	return &Router{
		shards:       shards,
		ring:         ring,
		allowPartial: opts.AllowPartial,
		fault:        opts.Fault,
	}
}

// NumShards returns the fleet size.
func (r *Router) NumShards() int { return len(r.shards) }

// Shard returns shard i's Service (for per-shard reload wiring and
// tests).
func (r *Router) Shard(i int) *Service { return r.shards[i] }

// Owner returns the index of the shard owning the concept.
func (r *Router) Owner(concept string) int { return r.ring.Owner(concept) }

// Generation returns the largest generation any shard is serving. While
// a rolling reload is in flight, shards legitimately diverge; the
// newest generation together with Stale describes the fleet state.
func (r *Router) Generation() uint64 {
	var g uint64
	for _, s := range r.shards {
		if sg := s.Generation(); sg > g {
			g = sg
		}
	}
	return g
}

// Stale reports whether any shard is serving a stale snapshot.
func (r *Router) Stale() bool {
	for _, s := range r.shards {
		if s.Stale() {
			return true
		}
	}
	return false
}

// route resolves a point lookup to its owning shard, consulting the
// serve.route fault site.
func (r *Router) route(concept string) (*Service, error) {
	if err := r.fault.Hit("serve.route"); err != nil {
		return nil, fmt.Errorf("serve: routing %q: %w", concept, err)
	}
	return r.shards[r.ring.Owner(concept)], nil
}

// Stats sums every shard's scoped statistics into the fleet aggregate.
// Because pairs and extractions partition cleanly by concept, the sum
// equals the unsharded snapshot's statistics exactly.
func (r *Router) Stats(ctx context.Context) (StatsResult, error) {
	per, ok, err := gather(ctx, r, func(s *Service) (StatsResult, error) {
		return s.Stats(ctx)
	})
	if err != nil {
		return StatsResult{}, err
	}
	var out StatsResult
	for i, sr := range per {
		if !ok[i] {
			continue
		}
		if sr.Generation > out.Generation {
			out.Generation = sr.Generation
		}
		out.Stats.Concepts += sr.Stats.Concepts
		out.Stats.DistinctPairs += sr.Stats.DistinctPairs
		out.Stats.TotalCount += sr.Stats.TotalCount
		out.Stats.ActiveExtractions += sr.Stats.ActiveExtractions
	}
	return out, nil
}

// Concepts scatter-gathers every shard's concept listing and merges by
// name. Ownership is disjoint, so sorting the concatenation reproduces
// the unsharded sorted listing byte for byte.
func (r *Router) Concepts(ctx context.Context) ([]ConceptInfo, error) {
	per, ok, err := gather(ctx, r, func(s *Service) ([]ConceptInfo, error) {
		return s.Concepts(ctx)
	})
	if err != nil {
		return nil, err
	}
	var out []ConceptInfo
	for i, cs := range per {
		if ok[i] {
			out = append(out, cs...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if out == nil {
		out = []ConceptInfo{} // healthy-but-empty fleets answer [], not null
	}
	return out, nil
}

// Instances routes to the shard owning the concept.
func (r *Router) Instances(ctx context.Context, concept string) ([]InstanceInfo, error) {
	s, err := r.route(concept)
	if err != nil {
		return nil, err
	}
	return s.Instances(ctx, concept)
}

// Explain routes to the shard owning the concept.
func (r *Router) Explain(ctx context.Context, concept, instance string, maxSupports int) (kb.Explanation, error) {
	s, err := r.route(concept)
	if err != nil {
		return kb.Explanation{}, err
	}
	return s.Explain(ctx, concept, instance, maxSupports)
}

// Drifted ranks provenance-chain depths. With a concept it routes to
// the owning shard; with an empty concept it scatter-gathers each
// shard's local top-n and re-ranks the union under the same canonical
// order (depth descending, concept, name), which yields exactly the
// unsharded fleet-wide ranking: the global top n is always contained in
// the union of per-shard top n.
func (r *Router) Drifted(ctx context.Context, concept string, n int) ([]DriftedInstance, error) {
	if concept != "" {
		s, err := r.route(concept)
		if err != nil {
			return nil, err
		}
		return s.Drifted(ctx, concept, n)
	}
	per, ok, err := gather(ctx, r, func(s *Service) ([]DriftedInstance, error) {
		return s.Drifted(ctx, "", n)
	})
	if err != nil {
		return nil, err
	}
	var rows []DriftedInstance
	for i, rs := range per {
		if ok[i] {
			rows = append(rows, rs...)
		}
	}
	snapshot.SortDrifted(rows)
	// Copy the top n out so the response does not pin the whole union
	// of shard rankings.
	top := make([]DriftedInstance, max(0, min(n, len(rows))))
	copy(top, rows)
	return top, nil
}

// Metrics returns the fleet-wide aggregate of every shard's metrics.
func (r *Router) Metrics() Metrics {
	var m Metrics
	for _, s := range r.shards {
		m.merge(s.Metrics())
	}
	return m
}

// ShardMetrics returns each shard's own metrics, indexed by shard.
func (r *Router) ShardMetrics() []Metrics {
	out := make([]Metrics, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.Metrics()
	}
	return out
}

// ExpvarHandler serves the fleet aggregate under "driftserve" (the same
// shape a single Service exports) plus the per-shard breakdown under
// "shards".
func (r *Router) ExpvarHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		writeExpvar(w, map[string]any{
			"driftserve": r.Metrics(),
			"shards":     r.ShardMetrics(),
		})
	})
}

// gather runs call against every shard concurrently and collects the
// results in shard order (the slice index is the shard index; ok marks
// which entries are valid). In strict mode any shard error fails the
// gather with an ErrShard-wrapped error naming the lowest failing
// shard. With AllowPartial, failures degrade the response instead: the
// request's GatherStatus is marked and only the healthy shards' results
// come back — unless every shard failed, which is an error either way.
func gather[T any](ctx context.Context, r *Router, call func(*Service) (T, error)) ([]T, []bool, error) {
	if err := r.fault.Hit("serve.gather"); err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrShard, err)
	}
	n := len(r.shards)
	res := make([]T, n)
	errs := make([]error, n)
	if n == 1 {
		// Single-shard fleets skip the goroutine fan-out; the merge path
		// stays identical.
		res[0], errs[0] = call(r.shards[0])
	} else {
		var wg sync.WaitGroup
		for i, s := range r.shards {
			wg.Add(1)
			go func(i int, s *Service) {
				defer wg.Done()
				res[i], errs[i] = call(s)
			}(i, s)
		}
		wg.Wait()
	}
	ok := make([]bool, n)
	failed := 0
	firstErr := -1
	for i, err := range errs {
		ok[i] = err == nil
		if err != nil {
			failed++
			if firstErr < 0 {
				firstErr = i
			}
		}
	}
	if failed == 0 {
		return res, ok, nil
	}
	if !r.allowPartial || failed == n {
		return nil, nil, fmt.Errorf("%w: shard %d of %d: %w", ErrShard, firstErr, n, errs[firstErr])
	}
	markDegraded(ctx, failed)
	return res, ok, nil
}

// GatherStatus records, per request, whether a scatter-gather response
// was degraded by shard failures (AllowPartial mode). Transports attach
// one with WithGatherStatus and surface Degraded to the client (the
// X-Driftclean-Degraded header).
type GatherStatus struct {
	degraded     atomic.Bool
	failedShards atomic.Int64
}

// Degraded reports whether any gather under this request lost shards.
func (g *GatherStatus) Degraded() bool { return g.degraded.Load() }

// FailedShards returns how many shard calls failed across the request's
// gathers.
func (g *GatherStatus) FailedShards() int { return int(g.failedShards.Load()) }

type gatherStatusKey struct{}

// WithGatherStatus derives a context carrying a fresh GatherStatus for
// one request.
func WithGatherStatus(ctx context.Context) (context.Context, *GatherStatus) {
	gs := &GatherStatus{}
	return context.WithValue(ctx, gatherStatusKey{}, gs), gs
}

// markDegraded flags the request's GatherStatus, when one is attached.
func markDegraded(ctx context.Context, failed int) {
	if gs, ok := ctx.Value(gatherStatusKey{}).(*GatherStatus); ok {
		gs.degraded.Store(true)
		gs.failedShards.Add(int64(failed))
	}
}
