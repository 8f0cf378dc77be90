package core

import (
	"errors"
	"testing"
)

// memoMisses reads the task, walk and manifold memos' miss counters:
// every miss is a KPCA fit, a power iteration or an Eq 17 k-NN build.
func memoMisses(sys *System) (tasks, walks, manifolds int) {
	_, tasks = sys.TaskCacheStats()
	_, walks = sys.walkMemo.Stats()
	_, manifolds = sys.manifolds.Stats()
	return tasks, walks, manifolds
}

// rerunConfig is a small world cleaned at the default round cap, so a
// checkpoint passes through several round states.
func rerunConfig() Config {
	cfg := hammerConfig()
	cfg.Corpus.NumSentences = 6000
	cfg.Clean.MaxRounds = DefaultConfig().Clean.MaxRounds
	return cfg
}

// bulkCheckpoint ingests the whole corpus in one checkpoint and checks
// the premise the reuse tests rest on: cleaning ran several rounds that
// changed the KB, so later rounds analyze states round 1 never saw.
func bulkCheckpoint(t *testing.T, ing *Ingestor) {
	t.Helper()
	st, err := ing.Ingest(ing.System().Corpus.Sentences, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rounds := len(st.Result.Clean.Rounds); rounds < 3 || st.Result.Clean.TotalPairsRemoved == 0 {
		t.Fatalf("premise: want >= 3 cleaning rounds that remove pairs, got %d rounds removing %d pairs",
			rounds, st.Result.Clean.TotalPairsRemoved)
	}
}

// TestCheckpointRerunRebuildsNothing: re-running an identical checkpoint
// (an empty batch) walks through the same round states as the one
// before it, so every task, walk and manifold matrix of every round is
// a memo hit — not only those of the last round.
func TestCheckpointRerunRebuildsNothing(t *testing.T) {
	sys := Prepare(rerunConfig())
	ing := NewIngestor(sys, DetectMultiTask)
	bulkCheckpoint(t, ing)

	tasks0, walks0, manifolds0 := memoMisses(sys)
	st, err := ing.Ingest(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tasks1, walks1, manifolds1 := memoMisses(sys)
	if st.TaskReuse == 0 || st.WalkReuse == 0 {
		t.Fatalf("premise: rerun reused %d tasks and %d walks", st.TaskReuse, st.WalkReuse)
	}
	if st.TaskRebuilds != tasks1-tasks0 {
		t.Fatalf("IngestStats.TaskRebuilds %d, task memo counted %d misses", st.TaskRebuilds, tasks1-tasks0)
	}
	if tasks1 != tasks0 || walks1 != walks0 || manifolds1 != manifolds0 {
		t.Fatalf("rerun of an identical checkpoint rebuilt %d tasks (of %d builds), %d walks, %d manifold matrices",
			tasks1-tasks0, st.TaskReuse+tasks1-tasks0, walks1-walks0, manifolds1-manifolds0)
	}
}

// TestFailedCheckpointDoesNotRotateMemos: a checkpoint stopped midway
// rolls back without rotating the memos, so it evicts nothing — the
// next successful rerun still finds every round state of the last
// committed checkpoint.
func TestFailedCheckpointDoesNotRotateMemos(t *testing.T) {
	cfg := rerunConfig()
	stopAt := 0
	cfg.Clean.OnRound = func(round int) bool { return round == stopAt }
	sys := Prepare(cfg)
	ing := NewIngestor(sys, DetectMultiTask)
	bulkCheckpoint(t, ing)

	// Stop before any analysis, then after round 1 has promoted its
	// entries: a rotation by either would drop the later rounds' work.
	for _, stopAt = range []int{1, 2} {
		if _, err := ing.Ingest(nil, nil); !errors.Is(err, ErrIngestStopped) {
			t.Fatalf("stop at round %d: Ingest error %v, want ErrIngestStopped", stopAt, err)
		}
	}
	if ing.Checkpoints() != 1 {
		t.Fatalf("stopped checkpoints committed: %d checkpoints", ing.Checkpoints())
	}
	stopAt = 0
	tasks0, walks0, manifolds0 := memoMisses(sys)
	if _, err := ing.Ingest(nil, nil); err != nil {
		t.Fatal(err)
	}
	tasks1, walks1, manifolds1 := memoMisses(sys)
	if tasks1 != tasks0 || walks1 != walks0 || manifolds1 != manifolds0 {
		t.Fatalf("rerun after stopped checkpoints rebuilt %d tasks, %d walks, %d manifold matrices",
			tasks1-tasks0, walks1-walks0, manifolds1-manifolds0)
	}
}
