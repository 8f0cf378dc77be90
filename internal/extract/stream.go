package extract

import (
	"driftclean/internal/corpus"
	"driftclean/internal/kb"
)

// Stream is the checkpointed incremental extractor behind the session
// API. It keeps the *parses* — each sentence is parsed exactly once, on
// arrival — and materializes the KB by replay: every Replay runs the
// semantic fixpoint from the accumulated core evidence over the full
// ambiguous pool, so the result is bit-identical to Run over the
// concatenation of all appended batches, extraction IDs and iteration
// numbers included.
//
// Append also interns each parse's names, once, in a table the Stream
// owns for its lifetime, and every replayed KB is built on that table.
// So a replay never touches a string: it copies ID spans into the KB's
// flat arrays, disambiguation tests pair records by packed ID, and the
// only allocations are the KB's own arrays and pair index, each grown
// by doubling, plus the per-iteration scan slots — none per extraction.
// What a replay costs is therefore proportional to the extractions it
// re-adds, at integer-bookkeeping cost each; the Hearst parse and the
// name hashing never repeat.
//
// A Stream is single-writer: Append, Replay, Mark and Rewind must not
// be called concurrently. A KB it replayed may be read (once sealed)
// while the next Append interns new names: the table is safe for that.
type Stream struct {
	cfg       Config
	pool      pool
	sentences int
}

// NewStream creates an empty checkpointed extractor.
func NewStream(cfg Config) *Stream {
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = DefaultConfig().MaxIterations
	}
	return &Stream{cfg: cfg, pool: pool{syms: kb.NewSymbols()}}
}

// Sentences returns the number of sentences appended so far.
func (s *Stream) Sentences() int { return s.sentences }

// StreamMark is an opaque position in a Stream's append history,
// captured by Mark and restored by Rewind.
type StreamMark struct {
	cores, pending, ids, unparseable, sentences int
}

// Mark captures the stream's current position so a failed checkpoint
// can be rolled back with Rewind.
func (s *Stream) Mark() StreamMark {
	p := &s.pool
	return StreamMark{len(p.cores), len(p.pending), len(p.ids), p.unparseable, s.sentences}
}

// Rewind truncates the stream back to a previous Mark, discarding every
// sentence appended since. Append only ever appends, so truncation
// restores the exact prior state. Names interned since the mark stay
// in the table, which only ever appends; no KB refers to them unless
// they are appended again.
func (s *Stream) Rewind(m StreamMark) {
	p := &s.pool
	p.cores = p.cores[:m.cores]
	p.pending = p.pending[:m.pending]
	p.ids = p.ids[:m.ids]
	p.unparseable = m.unparseable
	s.sentences = m.sentences
}

// Append parses one batch of sentences (fanning across
// Config.Parallelism workers, merged in sentence order), interns its
// names and files each parse as core (unambiguous) or pending
// (ambiguous). It returns the number of parses added to each pool. No
// KB is touched — call Replay to materialize the checkpoint.
func (s *Stream) Append(batch []corpus.Sentence) (core, ambiguous int) {
	core, ambiguous = s.pool.add(parseAll(batch, s.cfg.workers(), s.cfg.Fault))
	s.sentences += len(batch)
	return core, ambiguous
}

// Replay materializes the batch-equivalent extraction over everything
// appended so far: all core parses enter a fresh KB as iteration 1 in
// arrival order, then the semantic iterations resolve the ambiguous
// pool against a KB frozen per iteration — the same loop Run uses. The
// result (KB contents, extraction IDs, iteration stats) is identical to
// Run over the concatenation of every appended batch.
func (s *Stream) Replay() *Result { return s.pool.replay(s.cfg) }
