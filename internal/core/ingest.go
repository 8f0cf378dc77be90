package core

import (
	"errors"
	"fmt"

	"driftclean/internal/corpus"
	"driftclean/internal/extract"
)

// ErrIngestStopped reports that a checkpoint's cleaning loop stopped
// early (the clean.Config.OnRound hook returned true — typically a
// canceled context). The checkpoint was rolled back. Match with
// errors.Is.
var ErrIngestStopped = errors.New("core: ingest checkpoint stopped before convergence")

// Ingestor drives the incremental pipeline over one persistent System:
// sentence batches are appended to an extract.Stream, each checkpoint
// replays the batch-equivalent extraction into a fresh KB and cleans it
// with the system's detect-and-clean loop, and the system's caches —
// the task, walk and manifold memos and the shared score cache — scope
// the expensive analysis work to concepts whose inputs no recent round
// has seen.
//
// Memo lifetime: each committed checkpoint rotates the task, walk and
// manifold memos once, so round r of a checkpoint can reuse the work of
// any round of the previous checkpoint, not only its last. An entry is
// kept while consecutive checkpoints keep using it and dropped after a
// checkpoint that does not; memory is bounded by two checkpoints' worth
// of round states. A failed Ingest does not rotate.
//
// Correctness contract: after any successful Ingest, the system's KB is
// bit-identical (bench.Fingerprint) to a from-scratch batch run —
// extract.Run followed by CleanDPs with the same config and method —
// over the concatenation of every batch ingested so far. A failed
// Ingest rolls the stream back and restores the previous checkpoint's
// KB, so the ingestor either advances one full checkpoint or is left
// exactly as it was.
//
// An Ingestor is single-writer, like the System it wraps.
type Ingestor struct {
	sys    *System
	method DetectorKind
	stream *extract.Stream

	// committed holds the last successful checkpoint's state, restored
	// on a failed Ingest.
	committed struct {
		res *extract.Result
	}
	checkpoints int
}

// IngestStats reports one successful checkpoint.
type IngestStats struct {
	// Checkpoint is the 1-based index of this checkpoint.
	Checkpoint int
	// BatchSentences and TotalSentences count this batch and the running
	// total.
	BatchSentences, TotalSentences int
	// CoreAdded and AmbiguousAdded split the batch's parses.
	CoreAdded, AmbiguousAdded int
	// PairsBefore and PairsAfter count distinct pairs at this checkpoint
	// before and after cleaning.
	PairsBefore, PairsAfter int
	// Result is the cleaning outcome (rounds, rollbacks, convergence)
	// plus the pre-cleaning instance snapshot for evaluation.
	Result *CleanResult
	// TaskReuse and WalkReuse report how many per-concept tasks and
	// random walks were served from the memos during this checkpoint —
	// the dirty-concept scoping at work.
	TaskReuse, WalkReuse int
	// TaskRebuilds counts the task builds that missed the task memo and
	// paid for a KPCA fit during this checkpoint.
	TaskRebuilds int
}

// NewIngestor wraps a prepared system (see Prepare; World/Corpus/Oracle
// may be nil when no evaluation is needed) for incremental ingestion
// with the given detection method.
func NewIngestor(sys *System, method DetectorKind) *Ingestor {
	return &Ingestor{
		sys:    sys,
		method: method,
		stream: extract.NewStream(sys.Cfg.propagate().Extract),
	}
}

// System returns the wrapped system; its KB is the last successful
// checkpoint's cleaned KB (nil before the first).
func (g *Ingestor) System() *System { return g.sys }

// Checkpoints returns the number of successful checkpoints so far.
func (g *Ingestor) Checkpoints() int { return g.checkpoints }

// Ingest appends one sentence batch and advances to the next
// checkpoint: replay extraction over everything ingested so far, then
// run the detect-and-clean loop on the fresh KB. onExtracted, when
// non-nil, runs between the two — the seam callers use to measure the
// pre-cleaning state (e.g. KB precision before cleaning).
//
// On any error the stream is rewound and the system restored to the
// previous checkpoint, so a failed batch can simply be retried. An
// empty batch is valid: it re-cleans and re-publishes the current
// state, which is also how a caller re-runs a checkpoint after raising
// MaxRounds or switching methods.
func (g *Ingestor) Ingest(batch []corpus.Sentence, onExtracted func(*System)) (st *IngestStats, err error) {
	mark := g.stream.Mark()
	taskHits0, taskMisses0 := g.sys.TaskCacheStats()
	walkHits0 := g.walkHits()
	defer func() {
		r := recover()
		if r == nil && err == nil {
			return
		}
		// Roll back: un-append the batch and restore the last committed
		// checkpoint. The memos need no rollback — they are keyed by
		// input signatures, never by checkpoint identity — and are not
		// rotated, so a retry finds everything this attempt stored. A
		// panic (e.g. an injected fault escalated by Check) still rolls
		// back, then resumes unwinding for the API boundary's recover.
		g.stream.Rewind(mark)
		g.sys.Extraction = g.committed.res
		if g.committed.res != nil {
			g.sys.KB = g.committed.res.KB
		} else {
			g.sys.KB = nil
		}
		if r != nil {
			panic(r)
		}
	}()

	st = &IngestStats{Checkpoint: g.checkpoints + 1, BatchSentences: len(batch)}
	st.CoreAdded, st.AmbiguousAdded = g.stream.Append(batch)
	st.TotalSentences = g.stream.Sentences()

	res := g.stream.Replay()
	g.sys.Extraction = res
	g.sys.KB = res.KB
	st.PairsBefore = res.KB.NumPairs()
	if onExtracted != nil {
		onExtracted(g.sys)
	}

	cr, err := g.sys.CleanDPs(g.method)
	if err != nil {
		return nil, fmt.Errorf("core: ingest checkpoint %d: %w", st.Checkpoint, err)
	}
	if cr.Clean.Stopped {
		return nil, fmt.Errorf("%w (checkpoint %d)", ErrIngestStopped, st.Checkpoint)
	}
	st.Result = cr
	st.PairsAfter = g.sys.KB.NumPairs()
	taskHits1, taskMisses1 := g.sys.TaskCacheStats()
	st.TaskReuse = taskHits1 - taskHits0
	st.TaskRebuilds = taskMisses1 - taskMisses0
	st.WalkReuse = g.walkHits() - walkHits0

	g.committed.res = res
	g.checkpoints++
	g.sys.rotateMemos()
	return st, nil
}

// walkHits reads the walk memo's hit counter (0 before first use).
func (g *Ingestor) walkHits() int {
	if g.sys.walkMemo == nil {
		return 0
	}
	hits, _ := g.sys.walkMemo.Stats()
	return hits
}
