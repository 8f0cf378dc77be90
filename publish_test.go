package driftclean

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// snapshotView renders everything a reader can list of a snapshot: its
// statistics, its concepts, every concept's instances and every listed
// instance's concepts, in a deterministic order.
func snapshotView(s *Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n%q\n", s.Stats(), s.Concepts())
	seen := map[string]bool{}
	var instances []string
	for _, c := range s.Concepts() {
		insts := s.Instances(c)
		fmt.Fprintf(&b, "%s: %q\n", c, insts)
		for _, e := range insts {
			if !seen[e] {
				seen[e] = true
				instances = append(instances, e)
			}
		}
	}
	for _, e := range instances {
		fmt.Fprintf(&b, "%s isA %q\n", e, s.ConceptsOfInstance(e))
	}
	return b.String()
}

// hammer reads the snapshot the way a server does — Instances,
// ConceptsOfInstance, Explain and DriftDepth — until stop closes, and
// counts the instance lists that differ from want.
func hammer(s *Snapshot, want map[string][]string, stop <-chan struct{}, mismatches *atomic.Int64) {
	for {
		for _, c := range s.Concepts() {
			select {
			case <-stop:
				return
			default:
			}
			insts := s.Instances(c)
			if strings.Join(insts, "\x00") != strings.Join(want[c], "\x00") {
				mismatches.Add(1)
			}
			for _, e := range insts[:min(len(insts), 4)] {
				s.ConceptsOfInstance(e)
				s.Explain(c, e, 3)
			}
			s.DriftDepth(c)
		}
	}
}

// checkPublishedIsolation publishes snapshot A after a bulk checkpoint,
// then runs a checkpoint canceled mid-cleaning (rolled back), an empty
// checkpoint and three one-sentence checkpoints, with reader
// goroutines hammering A throughout. Afterwards A must read exactly as
// it did when published; its KB, which the snapshot serves without a
// copy, must refuse mutation while a Clone of it accepts it; and
// Report.Snapshot must still freeze a copy.
func checkPublishedIsolation(t *testing.T, readers int) {
	cfg := sessionConfig(6000)
	cfg.Clean.MaxRounds = DefaultConfig().Clean.MaxRounds
	var cancelAtRound1 context.CancelFunc
	ctx := context.Background()
	sess, err := Open(ctx, WithConfig(cfg), WithProgress(func(p Phase, r Round) {
		if p == PhaseClean && r == 1 && cancelAtRound1 != nil {
			cancelAtRound1() // observed before round 2 starts
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sents := sess.Sentences()
	n := len(sents)

	rep, err := sess.Ingest(ctx, sents[:n-3])
	if err != nil && !errors.Is(err, ErrNoDPsDetected) {
		t.Fatal(err)
	}
	a, err := sess.Publish()
	if err != nil {
		t.Fatal(err)
	}
	published := sess.System().KB
	want := snapshotView(a)
	if copied := rep.Snapshot(); snapshotView(copied) != want || copied.Generation() <= a.Generation() {
		t.Fatal("Report.Snapshot of a sealed KB must freeze an equal copy under a new generation")
	}
	instances := map[string][]string{}
	for _, c := range a.Concepts() {
		instances[c] = a.Instances(c)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mismatches atomic.Int64
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hammer(a, instances, stop, &mismatches)
		}()
	}
	if readers > 0 {
		// A writer interns never-seen names into the table the published
		// KB shares with the session's stream — enough to grow the ID
		// array past a chunk and fold the name map — while the readers
		// and the later checkpoints run, and reads each back through the
		// snapshot, which must know nothing of it.
		wg.Add(1)
		go func() {
			defer wg.Done()
			concept := a.Concepts()[0]
			for i := 0; i < 50000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("never-seen-%d", i)
				published.Symbols().Intern(name)
				if len(a.Instances(name)) != 0 || a.ConceptsOfInstance(name) != nil || a.Has(concept, name) {
					mismatches.Add(1)
				}
			}
		}()
	}
	checkpoint := func(what string, batch []Sentence) {
		t.Helper()
		if _, err := sess.Ingest(ctx, batch); err != nil && !errors.Is(err, ErrNoDPsDetected) {
			t.Fatalf("%s: %v", what, err)
		}
		if sess.System().KB == published {
			t.Fatalf("%s: the checkpoint did not replay into a fresh KB", what)
		}
	}
	// Right after the publish, A's KB is the committed one: a canceled
	// checkpoint must only restore the pointer to it, and an empty one
	// must replay rather than re-clean it in place.
	canceled, cancel := context.WithCancel(ctx)
	cancelAtRound1 = cancel
	if _, err := sess.Ingest(canceled, sents[n-3:n-2]); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled checkpoint: err = %v, want ErrCanceled", err)
	}
	cancelAtRound1 = nil
	cancel()
	if sess.System().KB != published || sess.Checkpoints() != 1 {
		t.Fatal("the canceled checkpoint did not roll back to the published KB")
	}
	checkpoint("empty checkpoint", nil)
	checkpoint("one-sentence checkpoint 1", sents[n-3:n-2])
	checkpoint("one-sentence checkpoint 2", sents[n-2:n-1])
	checkpoint("one-sentence checkpoint 3", sents[n-1:])

	close(stop)
	wg.Wait()
	if got := snapshotView(a); got != want {
		t.Fatalf("published snapshot changed across later checkpoints:\n%s\nwant\n%s", got, want)
	}
	if m := mismatches.Load(); m > 0 {
		t.Fatalf("concurrent readers saw %d changed instance lists", m)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddExtraction on the published KB did not panic")
			}
		}()
		published.AddExtraction(n, a.Concepts()[0], nil, []string{"intruder"}, nil, 1)
	}()
	clone := published.Clone()
	clone.AddExtraction(n, a.Concepts()[0], nil, []string{"intruder"}, nil, 1)
	if !clone.Has(a.Concepts()[0], "intruder") || snapshotView(a) != want {
		t.Fatal("a Clone of the published KB must be mutable and independent of the snapshot")
	}
}

// TestPublishedSnapshotIsolation: a published snapshot serves its
// checkpoint's KB without a copy, so later checkpoints — successful,
// canceled or empty — must never touch it.
func TestPublishedSnapshotIsolation(t *testing.T) { checkPublishedIsolation(t, 0) }

// TestPublishedSnapshotConcurrentReaders is the same sequence with
// readers hammering the published snapshot while every later checkpoint
// runs, and a writer interning never-seen names into the name table the
// snapshot's KB shares with the session; under -race it proves neither
// the next checkpoint nor the table ever writes to what the snapshot
// reads.
func TestPublishedSnapshotConcurrentReaders(t *testing.T) { checkPublishedIsolation(t, 4) }
