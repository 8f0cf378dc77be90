package driftclean

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"driftclean/internal/bench"
)

// pinnedRow is one pinned pipeline output: the default configuration at
// a corpus size and cleaning round cap, and the fingerprint and pair
// count of the cleaned KB it must produce.
type pinnedRow struct {
	sentences, rounds int
	fingerprint       string
	pairs             int
	// batch runs the one-shot pipeline at Parallelism 1 and 4.
	batch bool
	// trickle > 0 ingests all but trickle sentences in one Session
	// checkpoint, then one sentence per checkpoint.
	trickle int
}

// pinnedRows are the cleaned-KB fingerprints of the default pipeline.
// A change that moves one of them changes the program's output, and
// edits this table in the same diff to say so.
var pinnedRows = []pinnedRow{
	{sentences: 6000, rounds: 1, fingerprint: "31af70aec53caf8f", pairs: 5024, batch: true, trickle: 3},
	{sentences: 6000, rounds: 5, fingerprint: "36edf1f9da4acf15", pairs: 5010, trickle: 3},
	{sentences: 12000, rounds: 1, fingerprint: "462c25daa4b1fa6f", pairs: 7837, batch: true},
	{sentences: 40000, rounds: 1, fingerprint: "afc68848d2c36eee", pairs: 14334, batch: true, trickle: 10},
	{sentences: 40000, rounds: 5, fingerprint: "749b4ed27943423e", pairs: 14140, trickle: 10},
	{sentences: 120000, rounds: 1, fingerprint: "516900d03853bcb2", pairs: 18657, batch: true},
}

// smokeRow is the smallest pinned row, which every test mode runs.
var smokeRow = pinnedRows[0]

func (r pinnedRow) config() Config {
	cfg := DefaultConfig()
	cfg.Corpus.NumSentences = r.sentences
	cfg.Clean.MaxRounds = r.rounds
	return cfg
}

// check fails t unless rep's cleaned KB is the row's.
func (r pinnedRow) check(t *testing.T, rep *Report, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, ErrNoDPsDetected) {
		t.Fatal(err)
	}
	k := rep.System.KB
	if got := bench.Fingerprint(k); got != r.fingerprint || k.NumPairs() != r.pairs {
		t.Fatalf("%d sentences, %d rounds: fingerprint %s (%d pairs), pinned %s (%d pairs)",
			r.sentences, r.rounds, got, k.NumPairs(), r.fingerprint, r.pairs)
	}
}

// TestPinnedFingerprints runs every pinned row: the one-shot pipeline
// at one and four workers, and a Session that ingests the corpus in bulk
// and then one sentence per checkpoint. Rows above the smoke scale skip
// under -short and under the race detector.
func TestPinnedFingerprints(t *testing.T) {
	ctx := context.Background()
	for _, r := range pinnedRows {
		name := fmt.Sprintf("%dx%d", r.sentences, r.rounds)
		t.Run(name, func(t *testing.T) {
			if r.sentences > smokeRow.sentences && (testing.Short() || raceEnabled) {
				t.Skip("above the smoke scale")
			}
			if r.batch {
				for _, p := range []int{1, 4} {
					t.Run(fmt.Sprintf("batch/p%d", p), func(t *testing.T) {
						cfg := r.config()
						cfg.Parallelism = p
						rep, err := CleanContext(ctx, WithConfig(cfg))
						r.check(t, rep, err)
					})
				}
			}
			if r.trickle > 0 {
				t.Run("ingest", func(t *testing.T) {
					sess, err := Open(ctx, WithConfig(r.config()))
					if err != nil {
						t.Fatal(err)
					}
					defer sess.Close()
					sents := sess.Sentences()
					bulk := len(sents) - r.trickle
					rep, err := sess.Ingest(ctx, sents[:bulk])
					for i := bulk; i < len(sents); i++ {
						if err != nil && !errors.Is(err, ErrNoDPsDetected) {
							t.Fatalf("checkpoint %d: %v", i-bulk+1, err)
						}
						rep, err = sess.Ingest(ctx, sents[i:i+1])
					}
					r.check(t, rep, err)
				})
			}
		})
	}
}

// TestTopKDefaultFingerprintPinned: the default configuration at the
// smoke scale, run through the public API as a caller would, produces
// the smoke row.
func TestTopKDefaultFingerprintPinned(t *testing.T) {
	rep, err := CleanContext(context.Background(), WithConfig(smokeRow.config()))
	smokeRow.check(t, rep, err)
}
