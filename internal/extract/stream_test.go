package extract

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"driftclean/internal/corpus"
	"driftclean/internal/kb"
)

// kbFingerprint digests the full observable KB state — pairs, counts,
// extraction count — plus each extraction's id/iteration, so two KBs
// with equal fingerprints are interchangeable for the pipeline.
func kbFingerprint(t *testing.T, k *kb.KB) string {
	t.Helper()
	h := fnv.New64a()
	for _, p := range k.Pairs() {
		fmt.Fprintf(h, "%s\x00%s\x00%d\x1f", p.Concept, p.Instance, k.Count(p.Concept, p.Instance))
	}
	fmt.Fprintf(h, "|ex=%d", k.NumExtractions())
	for id := 0; id < k.NumExtractions(); id++ {
		ex := k.Extraction(id)
		if ex == nil {
			fmt.Fprintf(h, "|%d:nil", id)
			continue
		}
		fmt.Fprintf(h, "|%d:%s@%d", id, ex.Concept, ex.Iteration)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestStreamReplayMatchesRunAtEveryCheckpoint is the contract Stream
// exists for: after each appended batch, Replay must be bit-identical —
// pairs, counts, extraction iterations, per-iteration stats, unresolved
// accounting — to Run over the concatenation of all batches so far.
func TestStreamReplayMatchesRunAtEveryCheckpoint(t *testing.T) {
	w := testWorld()
	c := testCorpus(w, 12000)
	s := NewStream(DefaultConfig())

	bounds := []int{c.Len() / 4, c.Len() / 2, 3 * c.Len() / 4, c.Len()}
	start := 0
	for ck, end := range bounds {
		s.Append(c.Sentences[start:end])
		start = end
		got := s.Replay()
		want := Run(&corpus.Corpus{Sentences: c.Sentences[:end]}, DefaultConfig())

		if gf, wf := kbFingerprint(t, got.KB), kbFingerprint(t, want.KB); gf != wf {
			t.Fatalf("checkpoint %d: replay KB %s != batch KB %s", ck+1, gf, wf)
		}
		if got.Iterations != want.Iterations {
			t.Fatalf("checkpoint %d: iterations %d != %d", ck+1, got.Iterations, want.Iterations)
		}
		if !reflect.DeepEqual(got.PerIteration, want.PerIteration) {
			t.Fatalf("checkpoint %d: per-iteration stats differ:\n%+v\n%+v",
				ck+1, got.PerIteration, want.PerIteration)
		}
		if got.Unparseable != want.Unparseable || got.Unresolved != want.Unresolved {
			t.Fatalf("checkpoint %d: accounting (%d,%d) != (%d,%d)", ck+1,
				got.Unparseable, got.Unresolved, want.Unparseable, want.Unresolved)
		}
	}
}

// TestStreamRewindRestoresExactState: appending a batch, rewinding it
// away, and appending it again must be indistinguishable — in replayed
// KB and in stream accounting — from having appended it once.
func TestStreamRewindRestoresExactState(t *testing.T) {
	w := testWorld()
	c := testCorpus(w, 8000)
	half := c.Len() / 2

	s := NewStream(DefaultConfig())
	s.Append(c.Sentences[:half])
	fpOne := kbFingerprint(t, s.Replay().KB)

	mark := s.Mark()
	s.Append(c.Sentences[half:])
	fpBoth := kbFingerprint(t, s.Replay().KB)
	if fpBoth == fpOne {
		t.Fatal("second batch changed nothing; test world too small")
	}

	s.Rewind(mark)
	if s.Sentences() != half {
		t.Fatalf("after rewind Sentences() = %d, want %d", s.Sentences(), half)
	}
	if fp := kbFingerprint(t, s.Replay().KB); fp != fpOne {
		t.Fatalf("after rewind replay %s != pre-batch %s", fp, fpOne)
	}

	s.Append(c.Sentences[half:])
	if fp := kbFingerprint(t, s.Replay().KB); fp != fpBoth {
		t.Fatalf("re-appended replay %s != original %s", fp, fpBoth)
	}
}
