package core

import (
	"math"
	"testing"

	"driftclean/internal/learn"
)

// taskDiff describes the first difference between two task lists —
// task order and concepts, instance names, seed labels, and the X and
// Raw rows under math.Float64bits — or returns "" when they are equal.
func taskDiff(got, want []*learn.Task) string {
	if len(got) != len(want) {
		return "task count differs"
	}
	for ti := range want {
		g, w := got[ti], want[ti]
		if g.Concept != w.Concept || len(g.Instances) != len(w.Instances) {
			return "task " + w.Concept + ": concept or size differs"
		}
		for i := range w.Instances {
			gi, wi := g.Instances[i], w.Instances[i]
			if gi.Name != wi.Name || gi.Label != wi.Label || gi.Labeled != wi.Labeled {
				return "task " + w.Concept + ": instance " + wi.Name + " name or label differs"
			}
			for _, rows := range [][2][]float64{{gi.X, wi.X}, {gi.Raw, wi.Raw}} {
				if len(rows[0]) != len(rows[1]) {
					return "task " + w.Concept + ": instance " + wi.Name + " row length differs"
				}
				for j := range rows[1] {
					if math.Float64bits(rows[0][j]) != math.Float64bits(rows[1][j]) {
						return "task " + w.Concept + ": instance " + wi.Name + " row bits differ"
					}
				}
			}
		}
	}
	return ""
}

// TestTaskIndexMatchesFreshAnalysis is the differential gate for the
// task input index (taskInputKey) and the digest-keyed list, sub(e) and
// walk memos behind it. A long-lived System runs a session at the
// default round cap — a bulk checkpoint, three one-sentence checkpoints
// and an empty one — and at every Analyze its tasks must be
// bit-identical to those of a fresh System, with every memo cold,
// analyzing a Clone of the same KB state.
func TestTaskIndexMatchesFreshAnalysis(t *testing.T) {
	cfg := rerunConfig()
	var sys *System
	passes, indexHits := 0, 0
	cfg.Clean.OnRound = func(int) bool {
		// The round's own Analyze call hits this pass's Analysis memo, so
		// the tasks checked here are the ones detection reads.
		hits0, _ := sys.taskIndex.Stats()
		a, err := sys.Analyze(sys.KB)
		if err != nil {
			t.Fatal(err)
		}
		hits1, _ := sys.taskIndex.Stats()
		indexHits += hits1 - hits0
		fresh := &System{Cfg: sys.Cfg}
		want, err := fresh.Analyze(sys.KB.Clone())
		if err != nil {
			t.Fatal(err)
		}
		passes++
		if diff := taskDiff(a.Tasks, want.Tasks); diff != "" {
			t.Fatalf("analysis pass %d: long-lived system's tasks differ from a fresh analysis: %s", passes, diff)
		}
		return false
	}
	sys = Prepare(cfg)
	ing := NewIngestor(sys, DetectMultiTask)
	sentences := sys.Corpus.Sentences
	bulk := len(sentences) - 3
	for _, batch := range [][2]int{{0, bulk}, {bulk, bulk + 1}, {bulk + 1, bulk + 2}, {bulk + 2, bulk + 3}, {bulk + 3, bulk + 3}} {
		if _, err := ing.Ingest(sentences[batch[0]:batch[1]], nil); err != nil {
			t.Fatal(err)
		}
	}
	if indexHits == 0 {
		t.Fatalf("premise: no task index hit over %d analysis passes", passes)
	}
	t.Logf("%d analysis passes, %d task index hits", passes, indexHits)
}
