package serve

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"
)

// latencyBuckets are the upper bounds of the latency histogram, chosen
// around the two regimes the service actually has: cache hits (sub-
// microsecond to tens of microseconds) and cold traversals (up to
// whole-KB drift rankings).
var latencyBuckets = [6]time.Duration{
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// bucketLabels name the histogram buckets in exported metrics, one per
// latencyBuckets entry plus a final overflow bucket.
var bucketLabels = []string{
	"le_10us", "le_100us", "le_1ms", "le_10ms", "le_100ms", "le_1s", "gt_1s",
}

// endpointMetrics tracks one endpoint's counters and latency histogram.
// All fields are updated atomically; reads may be slightly torn across
// fields, which is fine for monitoring.
type endpointMetrics struct {
	requests    atomic.Int64
	errors      atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	coalesced   atomic.Int64
	totalNanos  atomic.Int64
	buckets     [len(latencyBuckets) + 1]atomic.Int64
}

// observe records one completed request.
func (m *endpointMetrics) observe(d time.Duration, err error) {
	m.requests.Add(1)
	if err != nil {
		m.errors.Add(1)
	}
	m.totalNanos.Add(int64(d))
	i := 0
	for ; i < len(latencyBuckets); i++ {
		if d <= latencyBuckets[i] {
			break
		}
	}
	m.buckets[i].Add(1)
}

// EndpointStats is the exported snapshot of one endpoint's metrics.
type EndpointStats struct {
	Requests    int64            `json:"requests"`
	Errors      int64            `json:"errors"`
	CacheHits   int64            `json:"cache_hits"`
	CacheMisses int64            `json:"cache_misses"`
	Coalesced   int64            `json:"coalesced"`
	AvgMicros   int64            `json:"avg_micros"`
	Latency     map[string]int64 `json:"latency"`
}

// snapshot copies the counters into an exported view.
func (m *endpointMetrics) snapshot() EndpointStats {
	s := EndpointStats{
		Requests:    m.requests.Load(),
		Errors:      m.errors.Load(),
		CacheHits:   m.cacheHits.Load(),
		CacheMisses: m.cacheMisses.Load(),
		Coalesced:   m.coalesced.Load(),
		Latency:     make(map[string]int64, len(bucketLabels)),
	}
	if s.Requests > 0 {
		s.AvgMicros = m.totalNanos.Load() / s.Requests / int64(time.Microsecond)
	}
	for i := range m.buckets {
		s.Latency[bucketLabels[i]] = m.buckets[i].Load()
	}
	return s
}

// Metrics is the full exported metrics view of a Service.
type Metrics struct {
	Generation uint64 `json:"snapshot_generation"`
	Swaps      int64  `json:"snapshot_swaps"`
	CacheSize  int    `json:"cache_entries"`
	// Shed counts queries rejected by admission control (ErrOverloaded).
	Shed      int64                    `json:"shed"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
}

// ExpvarHandler returns an http.Handler that serves the service metrics
// as a JSON document in the expvar style ("/debug/vars"): a flat map of
// exported variables. It avoids the global expvar registry so multiple
// Services (e.g. in tests) never collide on Publish.
func (s *Service) ExpvarHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"driftserve": s.Metrics()}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
