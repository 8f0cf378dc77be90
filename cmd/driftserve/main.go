// Command driftserve serves read queries over a knowledge base as
// HTTP/JSON, in one of two modes.
//
// With -kb FILE, a binary KB snapshot saved with driftclean -savekb is
// mmap-opened and frozen into an immutable snapshot at startup; POST
// /v1/reload (or SIGHUP) re-opens the file and atomically swaps in a
// fresh snapshot without dropping in-flight requests.
//
// With -session, the server owns a live incremental pipeline
// (driftclean.Session): POST /v1/ingest appends a sentence batch, runs
// one delta extract-and-clean checkpoint, and hot-swaps the new
// generation in; a failed checkpoint leaves the previous snapshot
// serving, marked stale. The server starts with no snapshot — queries
// return 503 until the first successful ingest.
//
// In both modes, queries run lock-free against the current snapshot
// through an LRU-cached, request-coalescing service. -inflight and
// -queue bound the queries executing and waiting at once; a query
// beyond both is shed with HTTP 429.
//
// Usage:
//
//	driftserve -kb FILE   [-inflight N] [-queue N] [-addr :8080] [-timeout 5s] [-cache 4096]
//	driftserve -session   [-sentences N] [-inflight N] [-queue N] [-addr :8080] [-timeout 5s] [-cache 4096]
//
// Endpoints:
//
//	GET  /v1/stats                               aggregate KB statistics
//	GET  /v1/concepts                            concepts with instance counts
//	GET  /v1/instances?concept=C                 a concept's instances
//	GET  /v1/explain?concept=C&instance=E[&n=N]  provenance of one pair
//	GET  /v1/drifted[?concept=C][&n=N]           deepest provenance chains (KB-wide without concept)
//	GET  /v1/generation                          serving generation + stale flag
//	POST /v1/ingest                              advance the session pipeline (-session)
//	POST /v1/reload                              hot-reload the KB file (-kb)
//	GET  /debug/vars                             service metrics
//
// The server shuts down gracefully on SIGTERM or SIGINT: it stops
// accepting connections and gives in-flight requests a grace period to
// finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"driftclean"
	"driftclean/internal/corpus"
	"driftclean/internal/kb/kbio"
	"driftclean/internal/serve"
	"driftclean/internal/snapshot"
)

func main() {
	var (
		kbPath    = flag.String("kb", "", "path to a binary KB snapshot written with -savekb")
		session   = flag.Bool("session", false, "serve a live incremental pipeline instead of a KB file")
		sentences = flag.Int("sentences", 0, "with -session: corpus size (0 uses the default config)")
		inflight  = flag.Int("inflight", 0, "max concurrently executing queries (0 = unlimited)")
		queue     = flag.Int("queue", 0, "queries queued beyond -inflight before shedding with 429")
		addr      = flag.String("addr", ":8080", "listen address")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-query deadline (0 disables; ingest and reload exempt)")
		cache     = flag.Int("cache", serve.DefaultCacheSize, "result cache entries (negative disables)")
	)
	flag.Parse()
	usage := func() {
		fmt.Fprintln(os.Stderr, "usage: driftserve -kb FILE | -session [-sentences N]  [-inflight N] [-queue N] [-addr :8080] [-timeout 5s] [-cache 4096]")
		os.Exit(2)
	}
	if (*kbPath == "") == !*session || flag.NArg() > 0 {
		usage()
	}
	logger := log.New(os.Stderr, "driftserve: ", log.LstdFlags)
	opts := serve.Options{CacheSize: *cache, MaxInflight: *inflight, QueueDepth: *queue}
	var err error
	if *session {
		err = runSession(*sentences, *addr, *timeout, opts, logger)
	} else {
		err = run(*kbPath, *addr, *timeout, opts, logger)
	}
	if err != nil {
		logger.Print(err)
		os.Exit(1)
	}
}

// run loads the KB, builds the service and serves until SIGTERM/SIGINT.
func run(kbPath, addr string, timeout time.Duration, opts serve.Options, logger *log.Logger) error {
	snap, hdr, err := kbio.FreezeFile(kbPath)
	if err != nil {
		return err
	}
	svc := serve.New(snap, opts)
	logger.Printf("loaded %s (checksum %08x, %d bytes): generation %d, %d concepts, %d pairs",
		kbPath, hdr.Checksum, hdr.FileBytes, snap.Generation(), snap.Stats().Concepts, snap.Stats().DistinctPairs)

	// Reloads go through a Reloader: transient load failures are retried
	// with capped exponential backoff, persistent failure opens a circuit
	// breaker, and throughout the service keeps answering queries from
	// the last-good snapshot (marked stale until a reload succeeds).
	reloader := serve.NewReloader(svc, func() (*snapshot.Snapshot, error) {
		return freezeFile(kbPath)
	}, serve.ReloadConfig{})
	reload := func() error {
		if err := reloader.Reload(); err != nil {
			return fmt.Errorf("reload: %w", err)
		}
		next := svc.Current()
		logger.Printf("reloaded %s: generation %d, %d pairs",
			kbPath, next.Generation(), next.Stats().DistinctPairs)
		return nil
	}

	srv := &http.Server{
		Addr:              addr,
		Handler:           newHandler(handlerConfig{svc: svc, reload: reload, timeout: timeout}),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// SIGHUP hot-reloads the KB file, the classic daemon convention.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := reload(); err != nil {
				logger.Print(err)
			}
		}
	}()

	return serveUntilShutdown(ctx, srv, logger)
}

// runSession opens a live incremental pipeline and serves it: each POST
// /v1/ingest runs one checkpoint and publishes its snapshot. Queries
// 503 until the first successful ingest.
func runSession(sentences int, addr string, timeout time.Duration, opts serve.Options, logger *log.Logger) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	cfg := driftclean.DefaultConfig()
	if sentences > 0 {
		cfg.Corpus.NumSentences = sentences
	}
	logger.Print("building session world and corpus")
	sess, err := driftclean.Open(ctx, driftclean.WithConfig(cfg))
	if err != nil {
		return err
	}
	defer sess.Close()
	logger.Printf("session open: %d corpus sentences, no snapshot until first ingest", len(sess.Sentences()))

	srv := &http.Server{
		Addr:              addr,
		Handler:           sessionHandler(sess, opts, timeout, logger),
		ReadHeaderTimeout: 5 * time.Second,
	}
	return serveUntilShutdown(ctx, srv, logger)
}

// sessionHandler wires the session-mode pieces around an open session:
// a Service configured by opts, an Ingester publishing each checkpoint
// into it, and the corpus cursor behind Count-form requests. opts.Fault
// (nil in production) also reaches the ingester's "serve.ingest" site.
func sessionHandler(sess *driftclean.Session, opts serve.Options, timeout time.Duration, logger *log.Logger) http.Handler {
	svc := serve.New(nil, opts)
	ingester := serve.NewIngester(svc, func(ctx context.Context, batch []corpus.Sentence) (*snapshot.Snapshot, error) {
		// A checkpoint in which the detector finds nothing is still a
		// committed, publishable checkpoint.
		if _, err := sess.Ingest(ctx, batch); err != nil && !errors.Is(err, driftclean.ErrNoDPsDetected) {
			return nil, err
		}
		return sess.Publish()
	}, opts.Fault)

	// cursor tracks how much of the session corpus Count-form requests
	// have consumed; it only advances on success, so a failed batch is
	// re-pulled by the next request.
	corpusLen := len(sess.Sentences())
	var mu sync.Mutex
	cursor := 0
	ingest := func(ctx context.Context, req ingestRequest) (ingestResponse, error) {
		mu.Lock()
		defer mu.Unlock()
		batch := req.Sentences
		remaining := -1
		if req.Count > 0 {
			end := cursor + req.Count
			if end > corpusLen {
				end = corpusLen
			}
			batch = sess.Sentences()[cursor:end]
		}
		gen, err := ingester.Ingest(ctx, batch)
		if err != nil {
			return ingestResponse{}, err
		}
		if req.Count > 0 {
			cursor += len(batch)
			remaining = corpusLen - cursor
		}
		logger.Printf("ingested %d sentences: generation %d", len(batch), gen)
		return ingestResponse{Generation: gen, Ingested: len(batch), Remaining: remaining}, nil
	}
	return newHandler(handlerConfig{svc: svc, ingest: ingest, timeout: timeout})
}

// serveUntilShutdown listens until the context is canceled, then shuts
// down gracefully with a grace period for in-flight requests.
func serveUntilShutdown(ctx context.Context, srv *http.Server, logger *log.Logger) error {
	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", srv.Addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Print("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// freezeFile opens a binary KB snapshot zero-copy via mmap and freezes
// it, so reload cost does not grow with KB size.
func freezeFile(path string) (*snapshot.Snapshot, error) {
	snap, _, err := kbio.FreezeFile(path)
	return snap, err
}
