package bench

import (
	"fmt"
	"time"

	"driftclean/internal/clean"
	"driftclean/internal/core"
)

// IngestScale is one benchmarked incremental-ingest scenario: the corpus
// is bulk-loaded in a single checkpoint, then DeltaBatches trickle
// batches of DeltaSentences each are ingested and timed one by one —
// the steady state of a continuously crawled KB, where the question is
// what one more batch costs compared to rebuilding from scratch.
type IngestScale struct {
	// Name labels the scenario in the artifact ("ingest-medium", ...).
	Name string `json:"name"`
	// Sentences is the total corpus size, bulk plus deltas.
	Sentences int `json:"sentences"`
	// CleanRounds caps the detect-and-clean rounds per checkpoint.
	CleanRounds int `json:"clean_rounds"`
	// DeltaBatches is the number of timed trickle batches.
	DeltaBatches int `json:"delta_batches"`
	// DeltaSentences is the size of each trickle batch.
	DeltaSentences int `json:"delta_sentences"`
}

// DefaultIngestScales returns the standard ingest scenarios: the medium
// pipeline corpus in steady-state trickle, cleaned in one round and at
// the default round cap. Only the latter shows cross-checkpoint reuse
// of later rounds' work.
func DefaultIngestScales() []IngestScale {
	return []IngestScale{
		{Name: "ingest-medium", Sentences: 40000, CleanRounds: 1, DeltaBatches: 10, DeltaSentences: 1},
		{Name: "ingest-medium-r5", Sentences: 40000, CleanRounds: defaultRounds, DeltaBatches: 10, DeltaSentences: 1},
	}
}

// SmokeIngestScales returns the tiny ingest scenarios the CI smoke run
// uses; their value is the fingerprint-identity check, not the timing.
func SmokeIngestScales() []IngestScale {
	return []IngestScale{
		{Name: "ingest-smoke", Sentences: 6000, CleanRounds: 1, DeltaBatches: 3, DeltaSentences: 1},
		{Name: "ingest-smoke-r5", Sentences: 6000, CleanRounds: defaultRounds, DeltaBatches: 3, DeltaSentences: 1},
	}
}

// defaultRounds is the pipeline's default cleaning round cap.
var defaultRounds = clean.DefaultConfig().MaxRounds

// IngestResult reports one ingest scenario: the bulk checkpoint, every
// timed delta batch, and the from-scratch rerun over the same final
// corpus that the incremental path must (and did) match bit for bit.
type IngestResult struct {
	IngestScale
	// BulkSeconds is the wall time of the initial bulk checkpoint.
	BulkSeconds float64 `json:"bulk_s"`
	// BatchSeconds is the wall time of each delta batch, in order.
	BatchSeconds []float64 `json:"batch_s"`
	// MeanBatchSeconds and MaxBatchSeconds summarize BatchSeconds.
	MeanBatchSeconds float64 `json:"mean_batch_s"`
	MaxBatchSeconds  float64 `json:"max_batch_s"`
	// FullRerunSeconds is the wall time of one from-scratch checkpoint
	// over the full corpus on a fresh system (extraction + analysis +
	// cleaning; world and corpus generation excluded from both arms).
	FullRerunSeconds float64 `json:"full_rerun_s"`
	// Speedup is FullRerunSeconds over MeanBatchSeconds: how much
	// cheaper keeping the KB current is than rebuilding it.
	Speedup float64 `json:"speedup"`
	// TaskReuse and WalkReuse total, over the delta batches, the
	// learning tasks (KPCA fits) and random-walk lookups served from the
	// memos instead of recomputed — the mechanism the speedup comes
	// from (see core.IngestStats). TaskRebuilds totals the task builds
	// that missed and paid for a KPCA fit.
	TaskReuse    int `json:"task_reuse"`
	TaskRebuilds int `json:"task_rebuilds"`
	WalkReuse    int `json:"walk_reuse"`
	// Pairs and Fingerprint identify the final incremental KB;
	// FullFingerprint is the from-scratch rerun's. Identical must be
	// true — the incremental path may save work, never change output.
	Pairs           int    `json:"kb_pairs"`
	Fingerprint     string `json:"kb_fingerprint"`
	FullFingerprint string `json:"full_kb_fingerprint"`
	Identical       bool   `json:"identical"`
}

// RunIngest times every ingest scenario and appends the results to the
// artifact. Both arms run serial (Parallelism = 1): the comparison is
// incremental versus from-scratch, not worker scaling.
func RunIngest(res *Result, scales []IngestScale, progress func(string)) {
	for _, sc := range scales {
		ir := timeIngest(sc)
		if progress != nil {
			progress(fmt.Sprintf("%-16s bulk %6.2fs  batch mean %.3fs max %.3fs (%d×%d sentences)  rerun %6.2fs  %5.1fx  task fits %d  identical=%v",
				sc.Name, ir.BulkSeconds, ir.MeanBatchSeconds, ir.MaxBatchSeconds,
				sc.DeltaBatches, sc.DeltaSentences, ir.FullRerunSeconds, ir.Speedup, ir.TaskRebuilds, ir.Identical))
		}
		res.Ingest = append(res.Ingest, ir)
	}
}

// timeIngest executes one ingest scenario.
func timeIngest(sc IngestScale) IngestResult {
	cfg := core.DefaultConfig()
	cfg.Corpus.NumSentences = sc.Sentences
	cfg.Clean.MaxRounds = sc.CleanRounds
	cfg.Parallelism = 1
	cfg.Corpus.Parallelism = 1
	cfg.Extract.Parallelism = 1
	cfg.Clean.Parallelism = 1

	ir := IngestResult{IngestScale: sc}
	sys := core.Prepare(cfg)
	ing := core.NewIngestor(sys, core.DetectMultiTask)
	sents := sys.Corpus.Sentences
	bulk := len(sents) - sc.DeltaBatches*sc.DeltaSentences
	if bulk < 0 {
		panic(fmt.Sprintf("bench: ingest scale %s: %d delta sentences exceed the %d-sentence corpus",
			sc.Name, sc.DeltaBatches*sc.DeltaSentences, len(sents)))
	}

	t0 := time.Now()
	if _, err := ing.Ingest(sents[:bulk], nil); err != nil {
		panic(fmt.Sprintf("bench: bulk ingest failed: %v", err))
	}
	ir.BulkSeconds = time.Since(t0).Seconds()

	start := bulk
	for b := 0; b < sc.DeltaBatches; b++ {
		end := start + sc.DeltaSentences
		t0 := time.Now()
		st, err := ing.Ingest(sents[start:end], nil)
		if err != nil {
			panic(fmt.Sprintf("bench: delta ingest %d failed: %v", b+1, err))
		}
		ir.BatchSeconds = append(ir.BatchSeconds, time.Since(t0).Seconds())
		ir.TaskReuse += st.TaskReuse
		ir.TaskRebuilds += st.TaskRebuilds
		ir.WalkReuse += st.WalkReuse
		start = end
	}
	var sum float64
	for _, s := range ir.BatchSeconds {
		sum += s
		if s > ir.MaxBatchSeconds {
			ir.MaxBatchSeconds = s
		}
	}
	ir.MeanBatchSeconds = sum / float64(len(ir.BatchSeconds))
	ir.Pairs = sys.KB.NumPairs()
	ir.Fingerprint = Fingerprint(sys.KB)

	// The from-scratch arm: a fresh system ingests the identical full
	// corpus in one checkpoint — the same extraction, analysis and
	// cleaning work a non-incremental consumer would redo per batch.
	ref := core.Prepare(cfg)
	refIng := core.NewIngestor(ref, core.DetectMultiTask)
	t0 = time.Now()
	if _, err := refIng.Ingest(ref.Corpus.Sentences, nil); err != nil {
		panic(fmt.Sprintf("bench: full rerun failed: %v", err))
	}
	ir.FullRerunSeconds = time.Since(t0).Seconds()
	ir.FullFingerprint = Fingerprint(ref.KB)
	if ir.MeanBatchSeconds > 0 {
		ir.Speedup = ir.FullRerunSeconds / ir.MeanBatchSeconds
	}
	ir.Identical = ir.Fingerprint == ir.FullFingerprint && ir.Pairs == ref.KB.NumPairs()
	return ir
}
