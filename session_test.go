package driftclean

import (
	"context"
	"errors"
	"testing"

	"driftclean/internal/bench"
	"driftclean/internal/core"
	"driftclean/internal/corpus"
	"driftclean/internal/extract"
	"driftclean/internal/fault"
	"driftclean/internal/serve"
	"driftclean/internal/snapshot"
)

func sessionConfig(sentences int) Config {
	cfg := DefaultConfig()
	cfg.World.NumDomains = 2
	cfg.World.InstancesPerConceptMin = 40
	cfg.World.InstancesPerConceptMax = 80
	cfg.Corpus.NumSentences = sentences
	cfg.Clean.MaxRounds = 1
	return cfg
}

// referenceFingerprint runs the from-scratch batch pipeline — extract.Run
// over a sentence prefix, then the detect-and-clean loop on a fresh
// system — and fingerprints the cleaned KB. This is the ground truth the
// incremental session must match at every checkpoint.
func referenceFingerprint(t *testing.T, cfg Config, prefix []corpus.Sentence) string {
	t.Helper()
	sys := core.Prepare(cfg)
	res := extract.Run(&corpus.Corpus{Sentences: prefix}, sys.Cfg.Extract)
	sys.Extraction = res
	sys.KB = res.KB
	if _, err := sys.CleanDPs(core.DetectMultiTask); err != nil {
		t.Fatalf("reference clean: %v", err)
	}
	return bench.Fingerprint(sys.KB)
}

// splitBounds cuts n sentences into k batch end-offsets.
func splitBounds(n, k int) []int {
	bounds := make([]int, k)
	for i := 1; i <= k; i++ {
		bounds[i-1] = i * n / k
	}
	return bounds
}

// TestSessionCheckpointsMatchFromScratch is the tentpole's correctness
// gate: after every Ingest, the session's cleaned KB must be
// fingerprint-identical to a from-scratch batch run over the
// concatenation of all batches so far — the incremental path's caches
// and replays may save work, never change output. The multi-round case
// cleans at the default round cap, so each checkpoint passes through
// several round states that the memos carry into the next checkpoint's
// rounds; it trickles one-sentence and empty batches after a bulk load.
func TestSessionCheckpointsMatchFromScratch(t *testing.T) {
	for _, tc := range []struct {
		name      string
		sentences int
		rounds    int
		// ends returns each checkpoint's end offset into n sentences.
		ends func(n int) []int
	}{
		{"smoke", 6000, 1, func(n int) []int { return splitBounds(n, 3) }},
		{"small", 12000, 1, func(n int) []int { return splitBounds(n, 4) }},
		{"multi-round", 6000, DefaultConfig().Clean.MaxRounds, func(n int) []int {
			return []int{n - 3, n - 2, n - 2, n - 1, n - 1, n}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sessionConfig(tc.sentences)
			cfg.Clean.MaxRounds = tc.rounds
			ctx := context.Background()
			sess, err := Open(ctx, WithConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			sents := sess.Sentences()

			ends := tc.ends(len(sents))
			start, maxRounds := 0, 0
			for ck, end := range ends {
				rep, err := sess.Ingest(ctx, sents[start:end])
				start = end
				if err != nil && !errors.Is(err, ErrNoDPsDetected) {
					t.Fatalf("checkpoint %d: %v", ck+1, err)
				}
				if rep == nil || rep.System == nil {
					t.Fatalf("checkpoint %d: no report", ck+1)
				}
				got := bench.Fingerprint(sess.System().KB)
				want := referenceFingerprint(t, cfg, sents[:end])
				if got != want {
					t.Fatalf("checkpoint %d: incremental fingerprint %s != from-scratch %s",
						ck+1, got, want)
				}
				if rep.PairsAfter != sess.System().KB.NumPairs() {
					t.Fatalf("checkpoint %d: report PairsAfter %d != KB %d",
						ck+1, rep.PairsAfter, sess.System().KB.NumPairs())
				}
				maxRounds = max(maxRounds, rep.Rounds)
			}
			if tc.rounds > 1 && maxRounds < 2 {
				t.Fatalf("premise: no checkpoint ran more than %d cleaning round", maxRounds)
			}
			if sess.Checkpoints() != len(ends) {
				t.Fatalf("checkpoints = %d, want %d", sess.Checkpoints(), len(ends))
			}
		})
	}
}

// TestSessionPublishGenerations: Publish before the first checkpoint is
// an error; afterwards each Publish returns a fresh, strictly increasing
// generation over the same cleaned state, and a closed session refuses
// further work.
func TestSessionPublishGenerations(t *testing.T) {
	ctx := context.Background()
	sess, err := Open(ctx, WithConfig(sessionConfig(6000)))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := sess.Publish(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("pre-ingest Publish error = %v, want ErrNoCheckpoint", err)
	}
	if _, err := sess.Ingest(ctx, sess.Sentences()); err != nil && !errors.Is(err, ErrNoDPsDetected) {
		t.Fatal(err)
	}
	a, err := sess.Publish()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if b.Generation() <= a.Generation() {
		t.Fatalf("generations not increasing: %d then %d", a.Generation(), b.Generation())
	}
	if a.Stats().DistinctPairs != b.Stats().DistinctPairs {
		t.Fatal("two publishes of one checkpoint must freeze the same state")
	}

	sess.Close()
	if _, err := sess.Ingest(ctx, nil); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Ingest after Close = %v, want ErrSessionClosed", err)
	}
	if _, err := sess.Publish(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Publish after Close = %v, want ErrSessionClosed", err)
	}
}

// TestSessionIngestCanceled: a canceled context surfaces as ErrCanceled
// and rolls the checkpoint back; the same batch then succeeds, and the
// final state matches the from-scratch run as if the failure never
// happened.
func TestSessionIngestCanceled(t *testing.T) {
	cfg := sessionConfig(6000)
	sess, err := Open(context.Background(), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sents := sess.Sentences()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if rep, err := sess.Ingest(canceled, sents); !errors.Is(err, ErrCanceled) || rep != nil {
		t.Fatalf("pre-canceled Ingest = (%v, %v), want (nil, ErrCanceled)", rep, err)
	}
	if sess.Checkpoints() != 0 || sess.System().KB != nil {
		t.Fatal("canceled ingest must leave the session at checkpoint zero")
	}

	if _, err := sess.Ingest(context.Background(), sents); err != nil && !errors.Is(err, ErrNoDPsDetected) {
		t.Fatal(err)
	}
	got := bench.Fingerprint(sess.System().KB)
	if want := referenceFingerprint(t, cfg, sents); got != want {
		t.Fatalf("post-retry fingerprint %s != from-scratch %s", got, want)
	}
}

// TestSessionChaosMidIngestNeverTorn drives the full serving stack —
// Session behind a serve.Ingester — with faults injected mid-sequence
// at both layers: a pipeline fault inside checkpoint 1's cleaning loop
// (clean.round) and a serve-layer fault (serve.ingest) at checkpoint 2
// while a good snapshot is live. Each failure must surface as an error,
// leave the served snapshot exactly as it was (stale-but-serving, never
// torn), and not consume the batch; after retries, the final state must
// be fingerprint-identical to a fault-free from-scratch run.
func TestSessionChaosMidIngestNeverTorn(t *testing.T) {
	cfg := sessionConfig(6000)
	// The first clean.round hit fails: checkpoint 1's first attempt dies
	// mid-cleaning and must roll back.
	cfg.Fault = fault.New(7, map[string]fault.Rule{"clean.round": {FailFirst: 1}})

	ctx := context.Background()
	sess, err := Open(ctx, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sents := sess.Sentences()

	svc := serve.New(nil, serve.Options{})
	run := func(ctx context.Context, batch []corpus.Sentence) (*snapshot.Snapshot, error) {
		if _, err := sess.Ingest(ctx, batch); err != nil && !errors.Is(err, ErrNoDPsDetected) {
			return nil, err
		}
		return sess.Publish()
	}
	ingester := serve.NewIngester(svc, run, nil)
	bounds := splitBounds(len(sents), 3)
	b1, b2, b3 := sents[:bounds[0]], sents[bounds[0]:bounds[1]], sents[bounds[1]:]

	// Checkpoint 1, attempt 1: the injected cleaning fault rolls the
	// session back to empty; nothing was ever published.
	if _, err := ingester.Ingest(ctx, b1); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("checkpoint 1 error = %v, want injected fault", err)
	}
	if svc.Current() != nil || !svc.Stale() || sess.Checkpoints() != 0 {
		t.Fatalf("failed first checkpoint must leave nothing published and the session empty (cur=%v stale=%v ckpts=%d)",
			svc.Current(), svc.Stale(), sess.Checkpoints())
	}
	// Retry the identical batch: the fault budget is spent.
	gen1, err := ingester.Ingest(ctx, b1)
	if err != nil {
		t.Fatalf("checkpoint 1 retry: %v", err)
	}
	if svc.Stale() || svc.Generation() != gen1 {
		t.Fatal("retry must publish fresh")
	}
	if got, want := bench.Fingerprint(sess.System().KB), referenceFingerprint(t, faultFree(cfg), b1); got != want {
		t.Fatalf("checkpoint 1 fingerprint %s != from-scratch %s", got, want)
	}

	// Checkpoint 2 through a faulty serve layer: the good generation
	// must keep serving, untouched — stale, never torn.
	snapBefore := svc.Current()
	faulty := serve.NewIngester(svc, run, fault.New(3, map[string]fault.Rule{"serve.ingest": {FailFirst: 1}}))
	if _, err := faulty.Ingest(ctx, b2); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("checkpoint 2 error = %v, want injected fault", err)
	}
	if svc.Current() != snapBefore {
		t.Fatal("failed ingest must not touch the served snapshot")
	}
	if !svc.Stale() || sess.Checkpoints() != 1 {
		t.Fatalf("serve-layer failure must mark stale and leave the session at checkpoint 1 (stale=%v ckpts=%d)",
			svc.Stale(), sess.Checkpoints())
	}
	if _, err := svc.Stats(ctx); err != nil {
		t.Fatalf("stale snapshot must keep answering queries: %v", err)
	}
	gen2, err := faulty.Ingest(ctx, b2)
	if err != nil {
		t.Fatalf("checkpoint 2 retry: %v", err)
	}
	if gen2 <= gen1 || svc.Stale() {
		t.Fatalf("checkpoint 2 retry must publish a fresh later generation (%d after %d)", gen2, gen1)
	}

	// Checkpoint 3 and the end-to-end identity despite the chaos.
	if _, err := ingester.Ingest(ctx, b3); err != nil {
		t.Fatalf("checkpoint 3: %v", err)
	}
	got := bench.Fingerprint(sess.System().KB)
	if want := referenceFingerprint(t, faultFree(cfg), sents); got != want {
		t.Fatalf("final fingerprint %s != fault-free from-scratch %s", got, want)
	}
}

// faultFree strips the injector so reference runs are clean.
func faultFree(cfg Config) Config {
	cfg.Fault = nil
	return cfg
}
