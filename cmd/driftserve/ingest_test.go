package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"

	"driftclean"
	"driftclean/internal/fault"
	"driftclean/internal/serve"
)

// newSessionServer opens a session over a small corpus and serves it
// through the production session-mode wiring (sessionHandler), minus
// the listener. It returns the test server and the session for direct
// inspection.
func newSessionServer(t *testing.T, opts serve.Options) (*httptest.Server, *driftclean.Session) {
	t.Helper()
	sess := openTestSession(t)
	ts := httptest.NewServer(sessionHandler(sess, opts, 0, log.New(io.Discard, "", 0)))
	t.Cleanup(ts.Close)
	return ts, sess
}

// openTestSession opens a session over a small two-domain corpus,
// closed when the test ends.
func openTestSession(t *testing.T) *driftclean.Session {
	t.Helper()
	cfg := driftclean.DefaultConfig()
	cfg.World.NumDomains = 2
	cfg.World.InstancesPerConceptMin = 40
	cfg.World.InstancesPerConceptMax = 80
	cfg.Corpus.NumSentences = 4000
	cfg.Clean.MaxRounds = 1
	sess, err := driftclean.Open(context.Background(), driftclean.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

// postIngest issues a POST /v1/ingest and decodes the response.
func postIngest(t *testing.T, url string, body string) (int, ingestResponse, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ingestResponse
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	_ = json.Unmarshal(raw.Bytes(), &out)
	return resp.StatusCode, out, raw.String()
}

// generation reads GET /v1/generation.
func generation(t *testing.T, url string) generationResponse {
	t.Helper()
	code, body := get(t, url+"/v1/generation")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/generation = %d: %s", code, body)
	}
	var g generationResponse
	if err := json.Unmarshal([]byte(body), &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestIngestEndpointLifecycle drives the session server the way a
// client would: 503 before any snapshot, count-form ingests advancing
// the generation and the corpus cursor, queries answering afterwards.
func TestIngestEndpointLifecycle(t *testing.T) {
	ts, sess := newSessionServer(t, serve.Options{})

	if code, body := get(t, ts.URL+"/v1/stats"); code != http.StatusServiceUnavailable {
		t.Fatalf("pre-ingest stats = %d (%s), want 503", code, body)
	}
	if g := generation(t, ts.URL); g.Generation != 0 || g.Stale {
		t.Fatalf("pre-ingest generation = %+v, want zero and fresh", g)
	}

	code, first, body := postIngest(t, ts.URL, `{"count":2000}`)
	if code != http.StatusOK {
		t.Fatalf("ingest 1 = %d: %s", code, body)
	}
	if first.Ingested != 2000 || first.Remaining != len(sess.Sentences())-2000 || first.Generation == 0 {
		t.Fatalf("ingest 1 response = %+v", first)
	}

	code, second, body := postIngest(t, ts.URL, `{"count":2000}`)
	if code != http.StatusOK {
		t.Fatalf("ingest 2 = %d: %s", code, body)
	}
	if second.Generation <= first.Generation || second.Remaining != len(sess.Sentences())-4000 {
		t.Fatalf("ingest 2 response = %+v after %+v", second, first)
	}

	if g := generation(t, ts.URL); g.Generation != second.Generation || g.Stale {
		t.Fatalf("generation = %+v, want %d and fresh", g, second.Generation)
	}
	if code, body := get(t, ts.URL+"/v1/stats"); code != http.StatusOK || !bytes.Contains([]byte(body), []byte("DistinctPairs")) {
		t.Fatalf("post-ingest stats = %d: %s", code, body)
	}
	if sess.Checkpoints() != 2 {
		t.Fatalf("session checkpoints = %d, want 2", sess.Checkpoints())
	}
}

// TestIngestEndpointValidation rejects malformed bodies and ambiguous
// or empty requests with 400 before touching the pipeline.
func TestIngestEndpointValidation(t *testing.T) {
	ts, _ := newSessionServer(t, serve.Options{})
	for _, body := range []string{
		"not json",
		`{}`,
		`{"count":0}`,
		`{"count":5,"sentences":[{"ID":1,"Text":"x"}]}`,
	} {
		if code, _, resp := postIngest(t, ts.URL, body); code != http.StatusBadRequest {
			t.Errorf("ingest %q = %d (%s), want 400", body, code, resp)
		}
	}
}

// TestIngestEndpointFailureStaleThenRecover: a failed checkpoint 500s,
// leaves the serving generation untouched but stale, keeps the cursor
// put, and the retried batch succeeds and clears the flag.
func TestIngestEndpointFailureStaleThenRecover(t *testing.T) {
	failFirst := fault.New(1, map[string]fault.Rule{"serve.ingest": {FailFirst: 1}})
	ts, sess := newSessionServer(t, serve.Options{Fault: failFirst})

	// The very first checkpoint fails, exercising recovery from the
	// "no snapshot yet" state as well as from a stale one.
	code, _, body := postIngest(t, ts.URL, `{"count":1500}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("failed ingest = %d: %s", code, body)
	}
	if g := generation(t, ts.URL); g.Generation != 0 || !g.Stale {
		t.Fatalf("after failure generation = %+v, want zero and stale", g)
	}

	code, retry, body := postIngest(t, ts.URL, `{"count":1500}`)
	if code != http.StatusOK {
		t.Fatalf("retry = %d: %s", code, body)
	}
	// The failed request must not have consumed corpus sentences.
	if retry.Ingested != 1500 || retry.Remaining != len(sess.Sentences())-1500 {
		t.Fatalf("retry response = %+v, cursor must not advance on failure", retry)
	}
	if g := generation(t, ts.URL); g.Generation != retry.Generation || g.Stale {
		t.Fatalf("after retry generation = %+v, want %d and fresh", g, retry.Generation)
	}
}
