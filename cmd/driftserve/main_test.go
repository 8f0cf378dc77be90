package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"driftclean/internal/fault"
	"driftclean/internal/kb"
	"driftclean/internal/kb/binsnap"
	"driftclean/internal/serve"
)

// writeTestKB saves a small KB (chain under "animal", flat "tool") and
// returns its path.
func writeTestKB(t *testing.T, dir string, extraPairs int) string {
	t.Helper()
	k := kb.New()
	k.AddExtraction(0, "animal", []string{"animal"}, []string{"dog"}, nil, 1)
	k.AddExtraction(1, "animal", []string{"animal"}, []string{"wolf"}, []string{"dog"}, 2)
	k.AddExtraction(2, "animal", []string{"animal"}, []string{"dingo"}, []string{"wolf"}, 3)
	k.AddExtraction(3, "tool", []string{"tool"}, []string{"hammer"}, nil, 1)
	for i := 0; i < extraPairs; i++ {
		k.AddExtraction(10+i, "tool", []string{"tool"}, []string{"t" + strconv.Itoa(i)}, nil, 1)
	}
	path := filepath.Join(dir, "kb.bin")
	if err := binsnap.WriteFile(path, k); err != nil {
		t.Fatal(err)
	}
	return path
}

// newTestServer wires the real production pieces — load, freeze,
// service, handler, reload — exactly as run() does, minus the listener.
func newTestServer(t *testing.T, cfg handlerConfig, kbPath string) *httptest.Server {
	t.Helper()
	if cfg.svc == nil {
		snap, err := freezeFile(kbPath)
		if err != nil {
			t.Fatal(err)
		}
		svc := serve.New(snap, serve.Options{})
		cfg.svc = svc
		if cfg.reload == nil {
			cfg.reload = func() error {
				next, err := freezeFile(kbPath)
				if err != nil {
					return err
				}
				svc.Swap(next)
				return nil
			}
		}
	}
	ts := httptest.NewServer(newHandler(cfg))
	t.Cleanup(ts.Close)
	return ts
}

// get issues a request and decodes the response body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestEndpointsEndToEnd(t *testing.T) {
	path := writeTestKB(t, t.TempDir(), 0)
	ts := newTestServer(t, handlerConfig{}, path)

	code, body := get(t, ts.URL+"/v1/stats")
	var stats serve.StatsResult
	if code != 200 {
		t.Fatalf("stats: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Stats.DistinctPairs != 4 || stats.Stats.Concepts != 2 {
		t.Errorf("stats = %+v", stats)
	}

	code, body = get(t, ts.URL+"/v1/concepts")
	var concepts []serve.ConceptInfo
	if code != 200 {
		t.Fatalf("concepts: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &concepts); err != nil {
		t.Fatal(err)
	}
	if len(concepts) != 2 || concepts[0].Name != "animal" || concepts[0].Instances != 3 {
		t.Errorf("concepts = %+v", concepts)
	}

	code, body = get(t, ts.URL+"/v1/instances?concept=animal")
	var instances []serve.InstanceInfo
	if code != 200 {
		t.Fatalf("instances: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &instances); err != nil {
		t.Fatal(err)
	}
	if len(instances) != 3 || instances[0].Name != "dingo" {
		t.Errorf("instances = %+v", instances)
	}

	code, body = get(t, ts.URL+"/v1/explain?concept=animal&instance=dingo")
	if code != 200 || !strings.Contains(body, `"Chain"`) {
		t.Errorf("explain: %d %s", code, body)
	}

	code, body = get(t, ts.URL+"/v1/drifted?concept=animal&n=2")
	var drifted []serve.DriftedInstance
	if code != 200 {
		t.Fatalf("drifted: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &drifted); err != nil {
		t.Fatal(err)
	}
	if len(drifted) != 2 || drifted[0].Name != "dingo" || drifted[0].Depth != 3 {
		t.Errorf("drifted = %+v", drifted)
	}

	// KB-wide form: no concept parameter ranks across every concept
	// and each row carries its concept.
	code, body = get(t, ts.URL+"/v1/drifted?n=3")
	if code != 200 {
		t.Fatalf("KB-wide drifted: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &drifted); err != nil {
		t.Fatal(err)
	}
	if len(drifted) != 3 || drifted[0].Concept != "animal" || drifted[0].Name != "dingo" || drifted[0].Depth != 3 {
		t.Errorf("KB-wide drifted = %+v", drifted)
	}

	code, body = get(t, ts.URL+"/debug/vars")
	if code != 200 || !strings.Contains(body, "snapshot_generation") {
		t.Errorf("debug/vars: %d %s", code, body)
	}
}

func TestMalformedRequests(t *testing.T) {
	path := writeTestKB(t, t.TempDir(), 0)
	ts := newTestServer(t, handlerConfig{}, path)

	cases := []struct {
		url  string
		want int
	}{
		{"/v1/instances", 400},                                  // missing concept
		{"/v1/explain?concept=animal", 400},                     // missing instance
		{"/v1/explain?instance=dog", 400},                       // missing concept
		{"/v1/drifted?n=potato", 400},                           // malformed n, KB-wide form
		{"/v1/drifted?concept=animal&n=potato", 400},            // malformed n
		{"/v1/drifted?concept=animal&n=-3", 400},                // non-positive n
		{"/v1/explain?concept=animal&instance=dog&n=zero", 400}, // malformed n
		{"/v1/instances?concept=spaceship", 404},                // unknown concept
		{"/v1/explain?concept=animal&instance=spoon", 404},      // unknown pair
		{"/v1/drifted?concept=spaceship", 404},                  // unknown concept
		{"/v1/nosuch", 404},                                     // unknown route
	}
	for _, tc := range cases {
		code, body := get(t, ts.URL+tc.url)
		if code != tc.want {
			t.Errorf("GET %s = %d (%s), want %d", tc.url, code, strings.TrimSpace(body), tc.want)
		}
		if tc.want == 400 && !strings.Contains(body, `"error"`) {
			t.Errorf("GET %s: missing JSON error envelope: %s", tc.url, body)
		}
	}

	// Method mismatches: reload is POST-only, queries are GET-only.
	resp, err := http.Get(ts.URL + "/v1/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/reload = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/stats = %d, want 405", resp.StatusCode)
	}
}

func TestHotReload(t *testing.T) {
	dir := t.TempDir()
	path := writeTestKB(t, dir, 0)
	ts := newTestServer(t, handlerConfig{}, path)

	var before serve.StatsResult
	code, body := get(t, ts.URL+"/v1/stats")
	if code != 200 {
		t.Fatal(body)
	}
	if err := json.Unmarshal([]byte(body), &before); err != nil {
		t.Fatal(err)
	}

	// Overwrite the KB file with a bigger KB, then hot-reload.
	writeTestKB(t, dir, 5)
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	reloadBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("reload: %d %s", resp.StatusCode, reloadBody)
	}

	var after serve.StatsResult
	code, body = get(t, ts.URL+"/v1/stats")
	if code != 200 {
		t.Fatal(body)
	}
	if err := json.Unmarshal([]byte(body), &after); err != nil {
		t.Fatal(err)
	}
	if after.Stats.DistinctPairs != before.Stats.DistinctPairs+5 {
		t.Errorf("pairs %d -> %d, want +5", before.Stats.DistinctPairs, after.Stats.DistinctPairs)
	}
	if after.Generation <= before.Generation {
		t.Errorf("generation did not advance: %d -> %d", before.Generation, after.Generation)
	}
}

func TestRequestTimeout(t *testing.T) {
	path := writeTestKB(t, t.TempDir(), 0)
	// The beforeQuery seam guarantees the handler outlives the 1ms
	// budget, so the 503 timeout path is deterministic.
	ts := newTestServer(t, handlerConfig{
		timeout:     time.Millisecond,
		beforeQuery: func() { time.Sleep(100 * time.Millisecond) },
	}, path)

	code, body := get(t, ts.URL+"/v1/stats")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request = %d (%s), want 503", code, body)
	}
	if !strings.Contains(body, "timed out") {
		t.Errorf("timeout body = %s", body)
	}
}

func TestFreezeFileErrors(t *testing.T) {
	if _, err := freezeFile(filepath.Join(t.TempDir(), "absent.bin")); err == nil {
		t.Error("freezeFile on a missing file did not error")
	}
}

// TestRespondStatusMapping: the admission and lookup sentinels map onto
// their HTTP statuses (e2e shed behavior is covered in internal/serve;
// this pins the transport contract).
func TestRespondStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("q: %w", serve.ErrOverloaded), http.StatusTooManyRequests},
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

// TestOverloadSurfacesAs429: a shed query reaches the client as 429
// through the full HTTP stack, in both serving modes. The fault
// injector stalls the one execution slot; with no queue, a concurrent
// query sheds.
func TestOverloadSurfacesAs429(t *testing.T) {
	// Every drifted query holds the one slot for 20ms, so concurrent
	// arrivals are certain to find it taken.
	opts := func() serve.Options {
		stall := fault.New(1, map[string]fault.Rule{"serve.drifted": {Latency: 20 * time.Millisecond}})
		return serve.Options{MaxInflight: 1, QueueDepth: 0, Fault: stall}
	}
	t.Run("kb", func(t *testing.T) {
		snap, err := freezeFile(writeTestKB(t, t.TempDir(), 0))
		if err != nil {
			t.Fatal(err)
		}
		assertSheds(t, newTestServer(t, handlerConfig{svc: serve.New(snap, opts())}, ""))
	})
	t.Run("session", func(t *testing.T) {
		ts, _ := newSessionServer(t, opts())
		if code, _, body := postIngest(t, ts.URL, `{"count":1500}`); code != http.StatusOK {
			t.Fatalf("ingest = %d: %s", code, body)
		}
		assertSheds(t, ts)
	})
}

// assertSheds fires 64 concurrent drifted queries at a server whose one
// execution slot is stalled and requires at least one 429 among them.
func assertSheds(t *testing.T, ts *httptest.Server) {
	t.Helper()
	// Distinct n values defeat the result cache and singleflight
	// coalescing, so every query needs the slot. The goroutines report
	// transport errors as status 0: only the test goroutine may Fatal.
	codes := make(chan int, 64)
	for i := 0; i < 64; i++ {
		go func(i int) {
			resp, err := http.Get(ts.URL + "/v1/drifted?n=" + strconv.Itoa(1000+i))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	saw429 := false
	for i := 0; i < 64; i++ {
		switch code := <-codes; code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			saw429 = true
		default:
			t.Errorf("unexpected status %d", code)
		}
	}
	if !saw429 {
		t.Error("64 concurrent queries against a stalled single-slot service: none shed with 429")
	}
}
