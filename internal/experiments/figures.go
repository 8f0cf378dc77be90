package experiments

import (
	"fmt"
	"sort"

	"driftclean/internal/core"
	"driftclean/internal/dp"
	"driftclean/internal/eval"
	"driftclean/internal/learn"
	"driftclean/internal/mutex"
	"driftclean/internal/seedlabel"
	"driftclean/internal/sparsevec"
)

// Figure2 regenerates the sub-instance frequency distributions of DP and
// non-DP trigger instances under the "animal" concept: one column per
// trigger plus the class-average distribution, over a shared vocabulary
// of the most frequent sub-instances.
func (r *Runner) Figure2() *Table {
	const concept = "animal"
	sys := r.sys
	truth := sys.Oracle.TruthLabels(sys.KB, concept)

	// Pick triggers: every ground-truth Intentional DP plus the non-DPs
	// with the most sub-instances.
	type trig struct {
		name string
		lbl  dp.Label
		subs int
	}
	var trigs []trig
	for e, lbl := range truth {
		trigs = append(trigs, trig{e, lbl, len(sys.KB.SubInstances(concept, e))})
	}
	sort.Slice(trigs, func(i, j int) bool {
		if trigs[i].lbl.IsDP() != trigs[j].lbl.IsDP() {
			return trigs[i].lbl.IsDP()
		}
		if trigs[i].subs != trigs[j].subs {
			return trigs[i].subs > trigs[j].subs
		}
		return trigs[i].name < trigs[j].name
	})
	var selected []trig
	dps, nons := 0, 0
	for _, tr := range trigs {
		switch {
		case tr.lbl == dp.Intentional && dps < 2:
			selected = append(selected, tr)
			dps++
		case tr.lbl == dp.NonDP && nons < 4:
			selected = append(selected, tr)
			nons++
		}
	}

	// Distributions over the class; vocabulary = top sub-instances by
	// total class frequency, plus everything the DPs trigger.
	dist := map[string]sparsevec.Vector{}
	for _, tr := range selected {
		v := sparsevec.New()
		for _, s := range sys.KB.SubInstances(concept, tr.name) {
			v.Inc(s, float64(sys.KB.Count(concept, s)))
		}
		dist[tr.name] = v.Normalized()
	}
	avg := sparsevec.New()
	for _, e := range sys.KB.Instances(concept) {
		avg.Inc(e, float64(sys.KB.Count(concept, e)))
	}
	avgN := avg.Normalized()

	vocab := avgN.TopK(10)
	for _, tr := range selected {
		if tr.lbl.IsDP() {
			vocab = append(vocab, dist[tr.name].TopK(5)...)
		}
	}
	vocab = dedupStrings(vocab)
	if len(vocab) > 16 {
		vocab = vocab[:16]
	}

	t := &Table{
		ID:     "fig2",
		Title:  fmt.Sprintf("sub-instance distributions of triggers under %q", concept),
		Header: []string{"sub-instance"},
	}
	for _, tr := range selected {
		tag := "non-DP"
		if tr.lbl == dp.Intentional {
			tag = "DP"
		}
		t.Header = append(t.Header, fmt.Sprintf("%s(%s)", tr.name, tag))
	}
	t.Header = append(t.Header, "AVG")
	for _, word := range vocab {
		row := []string{word}
		for _, tr := range selected {
			row = append(row, f4s(dist[tr.name][word]))
		}
		row = append(row, f4s(avgN[word]))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "paper Fig 2: chicken's distribution diverges from AVG (mass on beef/pork/milk); non-DPs track AVG"
	return t
}

// Figure3 regenerates the per-class feature profiles: mean and quartiles
// of f1..f4 for Intentional DPs, Accidental DPs and non-DPs.
func (r *Runner) Figure3() *Table {
	sys := r.sys
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		return &Table{ID: "fig3", Title: "feature profiles", Notes: "analysis failed: " + err.Error()}
	}
	vals := map[dp.Label][][]float64{} // label -> feature -> values
	for _, lbl := range []dp.Label{dp.NonDP, dp.Intentional, dp.Accidental} {
		vals[lbl] = make([][]float64, 4)
	}
	for _, c := range evalConceptsIn(sys.KB, r.evalConcepts) {
		truth := sys.Oracle.TruthLabels(sys.KB, c)
		// Quantiles sort internally, but the running mean sums floats in
		// collection order; iterate entities sorted so the table bytes
		// are identical run to run.
		ents := make([]string, 0, len(truth))
		for e := range truth {
			ents = append(ents, e)
		}
		sort.Strings(ents)
		subs := sys.KB.SubIndex(c)
		for _, e := range ents {
			lbl := truth[e]
			v := a.Features.Vector(c, e, subs[e])
			for i := 0; i < 4; i++ {
				vals[lbl][i] = append(vals[lbl][i], v[i])
			}
		}
	}
	t := &Table{
		ID:     "fig3",
		Title:  "feature value profiles per class (mean [q25 q50 q75])",
		Header: []string{"feature", "non-DPs", "Intentional DPs", "Accidental DPs"},
	}
	for i := 0; i < 4; i++ {
		row := []string{fmt.Sprintf("f%d", i+1)}
		for _, lbl := range []dp.Label{dp.NonDP, dp.Intentional, dp.Accidental} {
			xs := vals[lbl][i]
			if len(xs) == 0 {
				row = append(row, "-")
				continue
			}
			var sum float64
			for _, x := range xs {
				sum += x
			}
			q := eval.Quantiles(xs, []float64{0.25, 0.5, 0.75})
			row = append(row, fmt.Sprintf("%.4f [%.4f %.4f %.4f]", sum/float64(len(xs)), q[0], q[1], q[2]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "paper Fig 3: non-DPs high f1; Intentional DPs f2>2; Accidental DPs lowest f3 and f4"
	return t
}

// Figure4 regenerates the histogram of pairwise concept cosine
// similarity with the mutually-exclusive / irrelevant-or-related /
// highly-similar bands.
func (r *Runner) Figure4() *Table {
	a := mutex.Analyze(r.sys.KB, r.opts.Core.Mutex)
	bounds := []float64{0, 1e-4, 1e-3, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5}
	buckets := a.Histogram(bounds)
	cfg := r.opts.Core.Mutex
	if cfg.ExclusiveThreshold == 0 {
		cfg = mutex.DefaultConfig()
	}
	t := &Table{
		ID:     "fig4",
		Title:  "distribution of cosine similarity between concept cores",
		Header: []string{"cosine range", "# concept pairs", "band"},
	}
	for _, b := range buckets {
		band := "irrelevant / related"
		if b.Hi <= cfg.ExclusiveThreshold {
			band = "mutually exclusive"
		} else if b.Lo >= cfg.SimilarThreshold {
			band = "highly similar"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("[%g, %g)", b.Lo, b.Hi), d(b.Count), band,
		})
	}
	t.Notes = fmt.Sprintf("thresholds: exclusive < %g, highly similar > %g (paper: 1e-4 and 0.1 at web scale)",
		cfg.ExclusiveThreshold, cfg.SimilarThreshold)
	return t
}

// Figure5a regenerates the per-iteration pair count and precision curve.
func (r *Runner) Figure5a() *Table {
	sys := r.sys
	t := &Table{
		ID:     "fig5a",
		Title:  "number and precision of distinct isA pairs per iteration",
		Header: []string{"iteration", "# distinct pairs", "precision"},
	}
	for _, it := range sys.Extraction.PerIteration {
		prec := precisionUpToIteration(sys, it.Iteration)
		t.Rows = append(t.Rows, []string{d(it.Iteration), d(it.DistinctPairs), f3(prec)})
	}
	t.Notes = "paper Fig 5a: 16.8M pairs at 90%+ precision in iteration 1, 90.5M below 50% by iteration 5"
	return t
}

func precisionUpToIteration(sys *core.System, iter int) float64 {
	correct, total := 0, 0
	for _, c := range sys.KB.Concepts() {
		for _, e := range sys.KB.InstancesAtIteration(c, iter) {
			total++
			if sys.Oracle.PairCorrect(c, e) {
				correct++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// Figure5b regenerates the seed-threshold sweep: labeled-data precision
// and label rate as the evidence threshold k grows.
func (r *Runner) Figure5b() *Table {
	sys := r.sys
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		return &Table{ID: "fig5b", Title: "threshold sweep", Notes: "analysis failed: " + err.Error()}
	}
	t := &Table{
		ID:     "fig5b",
		Title:  "precision and recall of seed labeling vs threshold k",
		Header: []string{"k", "precision", "label rate", "#seeds"},
	}
	// The threshold only changes the labeler, so each concept's instance
	// list and sub(e) index are computed once for the whole sweep.
	concepts := sys.KB.Concepts()
	insts := make([][]string, len(concepts))
	subs := make([]map[string][]string, len(concepts))
	for i, c := range concepts {
		insts[i], subs[i] = sys.KB.Instances(c), sys.KB.SubIndex(c)
	}
	for _, k := range r.opts.ThresholdSweep {
		cfg := r.opts.Core.Seed
		cfg.K = k
		lab := seedlabel.New(sys.KB, a.Mutex, cfg)
		good, total, instances := 0, 0, 0
		for i, c := range concepts {
			instances += len(insts[i])
			for e, lbl := range lab.Seeds(c, insts[i], subs[i]) {
				total++
				if sys.Oracle.SeedLabelCorrect(sys.KB, c, e, lbl) {
					good++
				}
			}
		}
		prec, rate := 0.0, 0.0
		if total > 0 {
			prec = float64(good) / float64(total)
		}
		if instances > 0 {
			rate = float64(total) / float64(instances)
		}
		t.Rows = append(t.Rows, []string{d(k), f3(prec), f3(rate), d(total)})
	}
	t.Notes = "paper Fig 5b: precision 0.902→1.0 and recall 15%→0.8% as k goes 0→8; k=4 chosen"
	return t
}

// Figure5c regenerates the detector-accuracy-over-training-iterations
// curve of Algorithm 1.
func (r *Runner) Figure5c() *Table {
	sys := r.sys
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		return &Table{ID: "fig5c", Title: "training convergence", Notes: "analysis failed: " + err.Error()}
	}
	truthByConcept := map[string]map[string]dp.Label{}
	for _, task := range a.Tasks {
		truthByConcept[task.Concept] = sys.Oracle.TruthLabels(sys.KB, task.Concept)
	}
	taskByConcept := map[string]*learn.Task{}
	for _, task := range a.Tasks {
		taskByConcept[task.Concept] = task
	}
	t := &Table{
		ID:     "fig5c",
		Title:  "DP-detector accuracy over Algorithm 1 training iterations",
		Header: []string{"iteration", "accuracy", "objective"},
	}
	cfg := r.opts.Core.MultiTask
	cfg.Tol = 1e-300 // effectively disable early stopping: trace every iteration
	var accs []float64
	res, err := learn.TrainMultiTask(a.Tasks, cfg, func(iter int, dets map[string]*learn.LinearDetector) {
		agree, total := 0, 0
		for concept, det := range dets {
			task := taskByConcept[concept]
			truth := truthByConcept[concept]
			predicted := learn.PredictTask(det, task, false)
			for e, lbl := range predicted {
				tl, ok := truth[e]
				if !ok {
					continue
				}
				total++
				if tl == lbl {
					agree++
				}
			}
		}
		if total > 0 {
			accs = append(accs, float64(agree)/float64(total))
		} else {
			accs = append(accs, 0)
		}
	})
	if err != nil {
		t.Notes = "training failed: " + err.Error()
		return t
	}
	for i, acc := range accs {
		t.Rows = append(t.Rows, []string{d(i + 1), f3(acc), f5(res.Objective[i])})
	}
	t.Notes = "paper Fig 5c: accuracy climbs 0.835→0.921 and stabilizes by iteration 20; objective is monotone (Theorem 1)"
	return t
}

func dedupStrings(xs []string) []string {
	seen := map[string]struct{}{}
	out := xs[:0]
	for _, x := range xs {
		if _, dup := seen[x]; dup {
			continue
		}
		seen[x] = struct{}{}
		out = append(out, x)
	}
	return out
}
