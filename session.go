package driftclean

import (
	"context"
	"errors"
	"fmt"

	"driftclean/internal/core"
	"driftclean/internal/corpus"
	"driftclean/internal/snapshot"
)

// Sentence is one corpus sentence, the unit Ingest batches are made of.
type Sentence = corpus.Sentence

// Session sentinel errors. Match with errors.Is.
var (
	// ErrSessionClosed reports a call on a closed session.
	ErrSessionClosed = errors.New("driftclean: session closed")
	// ErrNoCheckpoint reports that Publish was called before any
	// successful Ingest: there is no cleaned KB to freeze yet.
	ErrNoCheckpoint = errors.New("driftclean: session has no checkpoint to publish")
)

// Session is the primary entry point: a long-lived incremental pipeline
// over an evolving knowledge base. Open builds the synthetic world and
// corpus; each Ingest appends one sentence batch and advances the
// session by one checkpoint — delta extraction (each sentence is parsed
// exactly once), analysis scoped to concepts whose feature vectors
// actually changed, and a fresh detect-and-clean pass — returning the
// same *Report a one-shot run produces. Publish freezes the current
// checkpoint into a generation-stamped immutable *Snapshot for the
// serving layer (serve.Service.Swap).
//
//	sess, err := driftclean.Open(ctx, driftclean.WithConfig(cfg))
//	defer sess.Close()
//	for _, batch := range split(sess.Sentences(), 10) {
//		rep, err := sess.Ingest(ctx, batch)
//		// handle err; rep holds this checkpoint's metrics
//		snap, _ := sess.Publish()
//		svc.Swap(snap)
//	}
//
// Correctness guarantee: after every successful Ingest, the session's
// KB is fingerprint-identical to a from-scratch batch run over the
// concatenation of all ingested batches — the incremental path reuses
// cached work only when input signatures prove the result unchanged.
//
// Failure atomicity: a failed Ingest (error, injected fault, canceled
// context) rolls the session back to the previous checkpoint, so the
// same batch can simply be retried; Publish keeps returning the last
// good checkpoint throughout.
//
// A Session is single-writer: Ingest, Publish and Close must not be
// called concurrently. Snapshots it publishes are immutable and safe
// for any number of concurrent readers.
type Session struct {
	o   options
	sys *System
	ing *core.Ingestor
	// ctx is the active Ingest's context, observed by the cleaning
	// loop's OnRound hook for between-round cancellation.
	ctx    context.Context
	closed bool
}

// Open builds a session: the synthetic world, the corpus (the sentence
// source for Ingest batches, see Sentences) and the evaluation oracle.
// No extraction runs yet — the session's KB starts empty and grows as
// batches are ingested. The detection method defaults to
// DetectMultiTask; override with WithMethod.
func Open(ctx context.Context, opts ...Option) (*Session, error) {
	o := newOptions(opts)
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(err)
	}
	s := &Session{o: o}
	cfg := o.cfg
	cfg.Clean.OnRound = func(round int) bool {
		if s.ctx != nil && s.ctx.Err() != nil {
			return true
		}
		s.o.emit(PhaseClean, round)
		return false
	}
	s.o.emit(PhaseBuild, 0)
	if err := runStage("build", func() {
		s.sys = core.Prepare(cfg)
		s.ing = core.NewIngestor(s.sys, o.method)
	}); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(err)
	}
	return s, nil
}

// Sentences returns the session's synthetic corpus in order — the
// sentence source callers slice into Ingest batches. The returned slice
// is shared; do not modify it.
func (s *Session) Sentences() []Sentence { return s.sys.Corpus.Sentences }

// System returns the session's system: world, corpus, oracle, and the
// current checkpoint's extraction result and cleaned KB (nil before the
// first successful Ingest). Once Publish has served that KB it is
// sealed and shared with the snapshot: read it freely, but mutate only
// a Clone — its mutators panic.
func (s *Session) System() *System { return s.sys }

// Checkpoints returns the number of successful Ingest calls so far.
func (s *Session) Checkpoints() int { return s.ing.Checkpoints() }

// Ingest appends one sentence batch and advances the session to the
// next checkpoint: delta extraction over the new sentences, a replayed
// batch-equivalent KB, and a full detect-and-clean pass whose analysis
// re-runs only for concepts whose feature vectors changed. It returns
// this checkpoint's evaluated Report (the same schema CleanContext
// returns, measured over everything ingested so far).
//
// An empty (or nil) batch is valid: it re-runs the current checkpoint
// without adding sentences. A checkpoint in which the detector finds no
// DPs returns the fully populated report alongside ErrNoDPsDetected.
// Cancellation is honored between cleaning rounds and reported as
// ErrCanceled; any failure rolls the session back to the previous
// checkpoint, so the batch can be retried.
func (s *Session) Ingest(ctx context.Context, batch []Sentence) (*Report, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(err)
	}
	s.ctx = ctx
	defer func() { s.ctx = nil }()

	rep := &Report{System: s.sys}
	extracted := false
	var st *core.IngestStats
	var ingestErr error
	if err := runStage("ingest", func() {
		st, ingestErr = s.ing.Ingest(batch, func(sys *core.System) {
			rep.PrecisionBefore = sys.KBPrecision(sys.KB)
			rep.PairsBefore = sys.KB.NumPairs()
			extracted = true
		})
	}); err != nil {
		if !extracted {
			// The panic hit extraction (parse/replay): like a one-shot
			// run's build stage, there is no partial report to return.
			return nil, err
		}
		return rep, err
	}
	if ingestErr != nil {
		if errors.Is(ingestErr, core.ErrIngestStopped) {
			return nil, canceledErr(ctx.Err())
		}
		return rep, fmt.Errorf("driftclean: cleaning failed: %w", ingestErr)
	}

	s.o.emit(PhaseEvaluate, 0)
	if err := runStage("evaluate", func() {
		evaluateReport(rep, s.sys, st.Result)
	}); err != nil {
		return rep, err
	}
	totalDPs := 0
	for _, rr := range st.Result.Clean.Rounds {
		totalDPs += rr.AccidentalDPs + rr.IntentionalDPs
	}
	if totalDPs == 0 {
		return rep, ErrNoDPsDetected
	}
	return rep, nil
}

// Publish freezes the current checkpoint's cleaned KB into an
// immutable, generation-stamped snapshot, ready for serve.Service.Swap.
// Each call returns a new snapshot with a fresh generation; the session
// may keep ingesting afterwards without affecting published snapshots.
//
// Publishing copies nothing: the snapshot serves the checkpoint's KB
// itself, sealed (kb.KB.Seal) so that any mutation panics. That is
// sound because the session never mutates a committed checkpoint's KB:
// every Ingest, an empty one included, replays into a fresh KB, and a
// failed Ingest only restores the pointer to the committed one.
func (s *Session) Publish() (*Snapshot, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.sys.KB == nil {
		return nil, ErrNoCheckpoint
	}
	return snapshot.FreezeOwned(s.sys.KB), nil
}

// Close marks the session closed; subsequent Ingest and Publish calls
// fail with ErrSessionClosed. Reports and snapshots obtained earlier
// remain valid. Close is idempotent and always returns nil.
func (s *Session) Close() error {
	s.closed = true
	return nil
}

// evaluateReport fills a report's after-cleaning metrics from the
// system's oracle, through its memos, and the checkpoint's cleaning
// result.
func evaluateReport(rep *Report, sys *System, cr *CleanResult) {
	rep.PrecisionAfter = sys.KBPrecision(sys.KB)
	rep.PairsAfter = sys.KB.NumPairs()
	rep.Rounds = len(cr.Clean.Rounds)
	rep.Converged = cr.Clean.Converged
	m := sys.Cleaning(cr)
	rep.PError, rep.RError, rep.PCorr, rep.RCorr = m.PError, m.RError, m.PCorr, m.RCorr
}
