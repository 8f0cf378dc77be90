package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"driftclean/internal/corpus"
	"driftclean/internal/serve"
)

// handlerConfig wires the HTTP surface to the query service.
type handlerConfig struct {
	svc *serve.Service
	// reload re-freezes the snapshot from the KB file and swaps it in;
	// nil disables the /v1/reload endpoint.
	reload func() error
	// ingest advances the incremental pipeline by one batch and swaps
	// the new checkpoint's snapshot in; nil (the -kb mode) disables the
	// /v1/ingest endpoint.
	ingest func(ctx context.Context, req ingestRequest) (ingestResponse, error)
	// timeout is each /v1 query's deadline, carried by its context; 0
	// disables. A query past it answers 503 where it next checks the
	// context: waiting for admission, before computing, and every 1,024
	// rows of a listing. /v1/ingest is exempt: a checkpoint legitimately
	// outlives a query budget, and still stops if the client disconnects.
	timeout time.Duration
	// beforeQuery, when non-nil, runs before every /v1 query handler —
	// a test seam for exercising the timeout path deterministically.
	beforeQuery func()
}

// maxIngestBody bounds the /v1/ingest request body (explicit sentence
// batches are test- and demo-sized; the corpus pull form is tiny).
const maxIngestBody = 8 << 20

// ingestRequest is the POST /v1/ingest body. Exactly one of the fields
// must be set: Count pulls the next N unread sentences from the
// server's own corpus (the usual form — the session owns the corpus),
// Sentences submits an explicit batch.
type ingestRequest struct {
	Count     int               `json:"count"`
	Sentences []corpus.Sentence `json:"sentences"`
}

// ingestResponse reports one successfully published checkpoint.
type ingestResponse struct {
	// Generation is the newly published snapshot's generation.
	Generation uint64 `json:"generation"`
	// Ingested is the number of sentences in this batch.
	Ingested int `json:"ingested"`
	// Remaining counts corpus sentences not yet pulled by Count-form
	// requests; -1 for an explicit-batch request.
	Remaining int `json:"remaining"`
}

// generationResponse is the GET /v1/generation payload: which snapshot
// generation is serving and whether it is stale (a newer state exists
// but the last publish attempt failed).
type generationResponse struct {
	Generation uint64 `json:"generation"`
	Stale      bool   `json:"stale"`
}

// reloadResponse is the POST /v1/reload payload: the generation now
// serving.
type reloadResponse struct {
	Generation uint64 `json:"generation"`
}

// errorBody is the JSON error envelope every non-200 response carries.
type errorBody struct {
	Error string `json:"error"`
}

// newHandler builds the route table of the package doc. Handlers run on
// the connection's goroutine; each answer is encoded into one pooled
// buffer (encode.go) and written to the connection in one call.
func newHandler(cfg handlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /v1/stats", query(cfg, func(w http.ResponseWriter, r *http.Request) {
		result, err := cfg.svc.Stats(r.Context())
		respond(w, statsBody(result), err)
	}))
	mux.Handle("GET /v1/concepts", query(cfg, func(w http.ResponseWriter, r *http.Request) {
		result, err := cfg.svc.Concepts(r.Context())
		respond(w, conceptList(result), err)
	}))
	mux.Handle("GET /v1/instances", query(cfg, func(w http.ResponseWriter, r *http.Request) {
		concept, ok := requireParam(w, r.URL.Query(), "concept")
		if !ok {
			return
		}
		result, err := cfg.svc.Instances(r.Context(), concept)
		respond(w, instanceList(result), err)
	}))
	mux.Handle("GET /v1/explain", query(cfg, func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		concept, ok := requireParam(w, q, "concept")
		if !ok {
			return
		}
		instance, ok := requireParam(w, q, "instance")
		if !ok {
			return
		}
		n, ok := intParam(w, q, "n", 5)
		if !ok {
			return
		}
		result, err := cfg.svc.Explain(r.Context(), concept, instance, n)
		respond(w, explanation(result), err)
	}))
	mux.Handle("GET /v1/drifted", query(cfg, func(w http.ResponseWriter, r *http.Request) {
		// concept is optional: scoped ranking when given, KB-wide
		// ranking when absent.
		q := r.URL.Query()
		concept := q.Get("concept")
		n, ok := intParam(w, q, "n", 10)
		if !ok {
			return
		}
		result, err := cfg.svc.Drifted(r.Context(), concept, n)
		respond(w, driftList(result), err)
	}))
	mux.HandleFunc("GET /v1/generation", func(w http.ResponseWriter, r *http.Request) {
		respond(w, generationResponse{
			Generation: cfg.svc.Generation(),
			Stale:      cfg.svc.Stale(),
		}, nil)
	})
	if cfg.reload != nil {
		mux.HandleFunc("POST /v1/reload", func(w http.ResponseWriter, r *http.Request) {
			if err := cfg.reload(); err != nil {
				status := http.StatusInternalServerError
				if errors.Is(err, serve.ErrBreakerOpen) {
					// The breaker is shedding reload load; the last-good
					// snapshot keeps serving, so this is unavailability of
					// the reload path, not a server fault.
					status = http.StatusServiceUnavailable
				}
				writeError(w, status, err.Error())
				return
			}
			respond(w, reloadResponse{Generation: cfg.svc.Generation()}, nil)
		})
	}
	mux.Handle("GET /debug/vars", cfg.svc.ExpvarHandler())
	if cfg.ingest != nil {
		mux.HandleFunc("POST /v1/ingest", func(w http.ResponseWriter, r *http.Request) {
			var req ingestRequest
			if err := json.NewDecoder(io.LimitReader(r.Body, maxIngestBody)).Decode(&req); err != nil {
				writeError(w, http.StatusBadRequest, "malformed ingest request: "+err.Error())
				return
			}
			if (req.Count > 0) == (len(req.Sentences) > 0) {
				writeError(w, http.StatusBadRequest,
					`exactly one of "count" and "sentences" must be set`)
				return
			}
			resp, err := cfg.ingest(r.Context(), req)
			respond(w, resp, err)
		})
	}
	return mux
}

// query wraps a /v1 query handler with the cfg.timeout deadline, the
// stale marker and the test seam. The X-Driftclean-Stale header is set
// before the handler writes so clients can tell they are reading a
// last-good snapshot that a failed reload has left behind.
func query(cfg handlerConfig, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if cfg.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), cfg.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if cfg.svc.Stale() {
			w.Header().Set("X-Driftclean-Stale", "true")
		}
		if cfg.beforeQuery != nil {
			cfg.beforeQuery()
		}
		h(w, r)
	})
}

// respond writes the result as JSON, mapping service errors to HTTP
// status codes: ErrNotFound → 404, ErrOverloaded → 429 (admission shed:
// back off and retry), a passed deadline → 503 "request timed out",
// ErrNoSnapshot / canceled contexts → 503, anything else → 500.
func respond(w http.ResponseWriter, result body, err error) {
	if err != nil {
		switch {
		case errors.Is(err, serve.ErrNotFound):
			writeError(w, http.StatusNotFound, err.Error())
		case errors.Is(err, serve.ErrOverloaded):
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusServiceUnavailable, "request timed out")
		case errors.Is(err, serve.ErrNoSnapshot),
			errors.Is(err, context.Canceled):
			writeError(w, http.StatusServiceUnavailable, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, result)
}

// requireParam extracts a mandatory query parameter, writing a 400 when
// it is absent or empty.
func requireParam(w http.ResponseWriter, q url.Values, name string) (string, bool) {
	v := q.Get(name)
	if v == "" {
		writeError(w, http.StatusBadRequest, "missing required parameter "+strconv.Quote(name))
		return "", false
	}
	return v, true
}

// intParam parses an optional positive integer parameter, writing a 400
// on malformed values.
func intParam(w http.ResponseWriter, q url.Values, name string, def int) (int, bool) {
	v := q.Get(name)
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		writeError(w, http.StatusBadRequest, "parameter "+strconv.Quote(name)+" must be a positive integer")
		return 0, false
	}
	return n, true
}

// writeError sends the JSON error envelope with the given status.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}
