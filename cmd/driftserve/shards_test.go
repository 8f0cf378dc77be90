package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"driftclean/internal/fault"
	"driftclean/internal/kb"
	"driftclean/internal/serve"
	"driftclean/internal/snapshot"
)

// bigTestKB builds a KB with nc concepts of varied chain depth, big
// enough that consistent hashing spreads it over several shards.
func bigTestKB(nc int) *kb.KB {
	k := kb.New()
	id := 0
	for c := 0; c < nc; c++ {
		concept := "concept-" + strconv.Itoa(c)
		chain := 2 + c%4
		for i := 0; i < chain; i++ {
			inst := "inst-" + strconv.Itoa(i)
			var trig []string
			if i > 0 {
				trig = []string{"inst-" + strconv.Itoa(i-1)}
			}
			k.AddExtraction(id, concept, []string{concept}, []string{inst}, trig, 1)
			id++
		}
	}
	return k
}

// newShardedServer wires a router over snap exactly as runSharded does
// — ring, partition, one service per shard — minus the listener and
// reloaders. perShard gives individual shards special options (chaos).
func newShardedServer(t *testing.T, snap *snapshot.Snapshot, shards int, partial bool, perShard func(i int) serve.Options) (*httptest.Server, *serve.Router) {
	t.Helper()
	ring := serve.NewRing(shards, 0)
	parts := snap.Partition(shards, ring.Owner)
	svcs := make([]*serve.Service, shards)
	for i := range svcs {
		opts := serve.Options{}
		if perShard != nil {
			opts = perShard(i)
		}
		svcs[i] = serve.New(parts[i], opts)
	}
	router := serve.NewRouter(svcs, ring, serve.RouterOptions{AllowPartial: partial})
	ts := httptest.NewServer(newHandler(handlerConfig{svc: router}))
	t.Cleanup(ts.Close)
	return ts, router
}

// TestShardedResponsesByteIdentical: over the same snapshot, the
// sharded server's responses are byte for byte the single server's, at
// every shard count and on every endpoint — the HTTP-level form of the
// tentpole acceptance gate.
func TestShardedResponsesByteIdentical(t *testing.T) {
	snap := snapshot.Freeze(bigTestKB(11))
	single := httptest.NewServer(newHandler(handlerConfig{svc: serve.New(snap, serve.Options{})}))
	t.Cleanup(single.Close)

	urls := []string{
		"/v1/stats",
		"/v1/concepts",
		"/v1/drifted?n=5",
		"/v1/drifted?n=500",
		"/v1/generation",
	}
	for c := 0; c < 11; c++ {
		concept := "concept-" + strconv.Itoa(c)
		urls = append(urls,
			"/v1/instances?concept="+concept,
			"/v1/drifted?concept="+concept+"&n=2",
			"/v1/explain?concept="+concept+"&instance=inst-1",
		)
	}

	for _, shards := range []int{1, 3, 6} {
		ts, _ := newShardedServer(t, snap, shards, false, nil)
		for _, url := range urls {
			wantCode, wantBody := get(t, single.URL+url)
			gotCode, gotBody := get(t, ts.URL+url)
			if gotCode != wantCode || gotBody != wantBody {
				t.Errorf("shards=%d GET %s diverged:\n got %d %s\nwant %d %s",
					shards, url, gotCode, gotBody, wantCode, wantBody)
			}
		}
	}
}

// failingShardOpts fails every query on one shard via fault injection.
func failingShardOpts(bad int) func(i int) serve.Options {
	return func(i int) serve.Options {
		if i == bad {
			return serve.Options{Fault: fault.New(1, map[string]fault.Rule{"serve.*": {ErrProb: 1}})}
		}
		return serve.Options{}
	}
}

// TestShardedStrictFailureIs503: without -partial, a failing shard
// turns every scatter-gather into a clean 503 with the JSON error
// envelope — never a torn merge — while point lookups owned by healthy
// shards keep answering 200.
func TestShardedStrictFailureIs503(t *testing.T) {
	snap := snapshot.Freeze(bigTestKB(11))
	const bad = 1
	ts, router := newShardedServer(t, snap, 3, false, failingShardOpts(bad))

	for _, url := range []string{"/v1/concepts", "/v1/stats", "/v1/drifted?n=5"} {
		code, body := get(t, ts.URL+url)
		if code != http.StatusServiceUnavailable {
			t.Errorf("GET %s = %d (%s), want 503", url, code, body)
		}
		var e errorBody
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Errorf("GET %s: not a JSON error envelope: %s", url, body)
		}
	}

	healthyOK, failedErr := false, false
	for c := 0; c < 11; c++ {
		concept := "concept-" + strconv.Itoa(c)
		code, _ := get(t, ts.URL+"/v1/instances?concept="+concept)
		if router.Owner(concept) == bad {
			failedErr = failedErr || code == http.StatusInternalServerError
		} else {
			healthyOK = healthyOK || code == http.StatusOK
			if code != http.StatusOK {
				t.Errorf("healthy-shard lookup %s = %d, want 200", concept, code)
			}
		}
	}
	if !healthyOK || !failedErr {
		t.Errorf("expected both healthy lookups (got %v) and failing-shard errors (got %v)", healthyOK, failedErr)
	}
}

// TestShardedPartialFailureDegrades: with -partial, the same failure
// yields a 200 carrying X-Driftclean-Degraded and exactly the healthy
// shards' concepts.
func TestShardedPartialFailureDegrades(t *testing.T) {
	snap := snapshot.Freeze(bigTestKB(11))
	const bad = 2
	ts, router := newShardedServer(t, snap, 3, true, failingShardOpts(bad))

	resp, err := http.Get(ts.URL + "/v1/concepts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded GET /v1/concepts = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Driftclean-Degraded") != "true" {
		t.Error("degraded response missing X-Driftclean-Degraded header")
	}

	var concepts []serve.ConceptInfo
	if err := json.NewDecoder(resp.Body).Decode(&concepts); err != nil {
		t.Fatal(err)
	}
	wantLost := 0
	for c := 0; c < 11; c++ {
		if router.Owner("concept-"+strconv.Itoa(c)) == bad {
			wantLost++
		}
	}
	if wantLost == 0 {
		t.Fatal("test KB left the failing shard empty; grow the KB")
	}
	if len(concepts) != 11-wantLost {
		t.Errorf("degraded concepts = %d entries, want %d", len(concepts), 11-wantLost)
	}
	for _, ci := range concepts {
		if router.Owner(ci.Name) == bad {
			t.Errorf("degraded listing contains %s from the failed shard", ci.Name)
		}
	}

	// A healthy fleet in partial mode must not stamp the header.
	healthy, _ := newShardedServer(t, snap, 3, true, nil)
	resp2, err := http.Get(healthy.URL + "/v1/concepts")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Driftclean-Degraded") != "" {
		t.Error("healthy fleet stamped X-Driftclean-Degraded")
	}
}

// TestRespondStatusMapping: the sharding/admission sentinels map onto
// their HTTP statuses (e2e shed behavior is covered in internal/serve;
// this pins the transport contract).
func TestRespondStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("q: %w", serve.ErrOverloaded), http.StatusTooManyRequests},
		{fmt.Errorf("q: %w", serve.ErrShard), http.StatusServiceUnavailable},
		{fmt.Errorf("q: %w", serve.ErrNoSnapshot), http.StatusServiceUnavailable},
		{fmt.Errorf("q: %w", serve.ErrNotFound), http.StatusNotFound},
		{errors.New("plain failure"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		respond(rec, nil, tc.err)
		if rec.Code != tc.want {
			t.Errorf("respond(%v) = %d, want %d", tc.err, rec.Code, tc.want)
		}
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("respond(%v): not a JSON error envelope: %s", tc.err, rec.Body)
		}
	}
}

// TestShardedOverloadSurfacesAs429: a shed query reaches the client as
// 429 through the full sharded HTTP stack. The fault injector stalls
// the one execution slot; with no queue, a concurrent query sheds.
func TestShardedOverloadSurfacesAs429(t *testing.T) {
	snap := snapshot.Freeze(bigTestKB(8))
	ts, _ := newShardedServer(t, snap, 2, false, func(int) serve.Options {
		// Every drifted query holds its shard's one slot for 20ms, so
		// concurrent arrivals are certain to find it taken.
		stall := fault.New(1, map[string]fault.Rule{"serve.drifted": {Latency: 20 * time.Millisecond}})
		return serve.Options{MaxInflight: 1, QueueDepth: 0, Fault: stall}
	})

	// Saturate both shards' slots with concurrent fleet-wide queries
	// until one arrival finds its shard's slot taken. Distinct n values
	// defeat the result cache and singleflight coalescing.
	codes := make(chan int, 64)
	for i := 0; i < 64; i++ {
		go func(i int) {
			code, _ := get(t, ts.URL+"/v1/drifted?n="+strconv.Itoa(1000+i))
			codes <- code
		}(i)
	}
	saw429 := false
	for i := 0; i < 64; i++ {
		switch code := <-codes; code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			// Overload maps to 429 even when surfaced through a gather:
			// the client's remedy (back off) is the same either way.
			saw429 = true
		default:
			t.Errorf("unexpected status %d", code)
		}
	}
	if !saw429 {
		t.Error("64 concurrent queries against stalled single-slot shards: none shed with 429")
	}
}
