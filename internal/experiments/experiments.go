// Package experiments regenerates every table and figure of the paper's
// evaluation section (Sec 5) on the synthetic substrate. Each method of
// Runner corresponds to one experiment in DESIGN.md's per-experiment
// index and returns a renderable Table with the same rows/series the
// paper reports. Absolute numbers differ from the paper (our corpus is a
// seeded synthetic world, not 1.68B web pages); the shapes — who wins, by
// roughly what factor, where the knees fall — are the reproduction
// target, and EXPERIMENTS.md records both sides.
package experiments

import (
	"fmt"
	"sort"

	"driftclean/internal/baseline"
	"driftclean/internal/clean"
	"driftclean/internal/core"
	"driftclean/internal/dp"
	"driftclean/internal/eval"
	"driftclean/internal/kb"
	"driftclean/internal/rank"
)

// Options configures an experiment run.
type Options struct {
	Core core.Config
	// EvalConcepts is how many concepts play the role of the paper's 20
	// labeled evaluation concepts (Table 1).
	EvalConcepts int
	// RankKs are the precision@k cut-offs of Table 2.
	RankKs []int
	// ThresholdSweep is the k range of Fig 5b.
	ThresholdSweep []int
	// CuratedMEx is how many concepts get pre-identified exclusion
	// knowledge for the MEx baseline.
	CuratedMEx int
}

// Default returns the standard experiment scale: large enough for the
// paper's dynamics, small enough to run in well under a minute.
func Default() Options {
	cfg := core.DefaultConfig()
	return Options{
		Core:           cfg,
		EvalConcepts:   20,
		RankKs:         []int{50, 200, 500}, // the paper's 100/1000/2000 scaled to our concept sizes
		ThresholdSweep: []int{1, 2, 3, 4, 5, 6, 7, 8},
		CuratedMEx:     6,
	}
}

// Runner executes experiments against one built system. Experiments that
// mutate the KB (cleaning) rebuild a fresh, identical system first, so a
// single Runner can produce every table in any order.
type Runner struct {
	opts         Options
	sys          *core.System
	evalConcepts []string
}

// NewRunner builds the system (world, corpus, drifted extraction).
func NewRunner(opts Options) *Runner {
	if opts.EvalConcepts <= 0 {
		opts.EvalConcepts = 20
	}
	if len(opts.RankKs) == 0 {
		opts.RankKs = Default().RankKs
	}
	if len(opts.ThresholdSweep) == 0 {
		opts.ThresholdSweep = Default().ThresholdSweep
	}
	if opts.CuratedMEx <= 0 {
		opts.CuratedMEx = Default().CuratedMEx
	}
	sys := core.Build(opts.Core)
	return &Runner{
		opts:         opts,
		sys:          sys,
		evalConcepts: sys.World.EvaluationConcepts(opts.EvalConcepts),
	}
}

// System exposes the underlying built system (read-only use expected).
func (r *Runner) System() *core.System { return r.sys }

// EvalConcepts returns the evaluation concept names.
func (r *Runner) EvalConcepts() []string { return r.evalConcepts }

// freshSystem rebuilds an identical (deterministic) system for
// KB-mutating experiments.
func (r *Runner) freshSystem() *core.System { return core.Build(r.opts.Core) }

// evalConceptsIn filters the evaluation concepts to those present in the
// KB with at least one instance.
func evalConceptsIn(k *kb.KB, concepts []string) []string {
	var out []string
	for _, c := range concepts {
		if len(k.Instances(c)) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// All runs every experiment in paper order.
func (r *Runner) All() []*Table {
	return []*Table{
		r.Table1(), r.Table2(), r.Table3(), r.Table4(), r.Table5(),
		r.Figure2(), r.Figure3(), r.Figure4(),
		r.Figure5a(), r.Figure5b(), r.Figure5c(),
	}
}

// ByID runs one experiment by its identifier ("table1" … "fig5c").
func (r *Runner) ByID(id string) (*Table, error) {
	switch id {
	case "table1":
		return r.Table1(), nil
	case "table2":
		return r.Table2(), nil
	case "table3":
		return r.Table3(), nil
	case "table4":
		return r.Table4(), nil
	case "table5":
		return r.Table5(), nil
	case "fig2":
		return r.Figure2(), nil
	case "fig3":
		return r.Figure3(), nil
	case "fig4":
		return r.Figure4(), nil
	case "fig5a":
		return r.Figure5a(), nil
	case "fig5b":
		return r.Figure5b(), nil
	case "fig5c":
		return r.Figure5c(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
}

// IDs lists all experiment identifiers in paper order.
func IDs() []string {
	return []string{"table1", "table2", "table3", "table4", "table5",
		"fig2", "fig3", "fig4", "fig5a", "fig5b", "fig5c"}
}

// Table1 regenerates the labeled-instance statistics per evaluation
// concept: instance counts, correctness, and ground-truth DP counts.
func (r *Runner) Table1() *Table {
	t := &Table{
		ID:    "table1",
		Title: "statistics on evaluation concepts (ground-truth labeled)",
		Header: []string{"concept", "#Instances", "#Correct", "#Error",
			"Error %", "#Intent. DPs", "#Accid. DPs", "#Non-DPs"},
	}
	var total eval.ConceptStats
	for _, c := range evalConceptsIn(r.sys.KB, r.evalConcepts) {
		s := r.sys.Oracle.ConceptStats(r.sys.KB, c)
		t.Rows = append(t.Rows, []string{
			c, d(s.Instances), d(s.Correct), d(s.Errors), f3(s.ErrorPct),
			d(s.IntentionalDPs), d(s.AccidentalDPs), d(s.NonDPs),
		})
		total.Instances += s.Instances
		total.Correct += s.Correct
		total.Errors += s.Errors
		total.IntentionalDPs += s.IntentionalDPs
		total.AccidentalDPs += s.AccidentalDPs
		total.NonDPs += s.NonDPs
	}
	errPct := 0.0
	if total.Instances > 0 {
		errPct = float64(total.Errors) / float64(total.Instances)
	}
	t.Rows = append(t.Rows, []string{
		"Overall", d(total.Instances), d(total.Correct), d(total.Errors),
		f3(errPct), d(total.IntentionalDPs), d(total.AccidentalDPs), d(total.NonDPs),
	})
	t.Notes = "paper Table 1: 87,246 instances over 20 concepts, 57% errors"
	return t
}

// Table2 regenerates the ranking-model comparison: average precision of
// the top-k instances per model.
func (r *Runner) Table2() *Table {
	t := &Table{
		ID:     "table2",
		Title:  "precision of top-k instances per ranking model",
		Header: []string{"Ranking Model"},
	}
	for _, k := range r.opts.RankKs {
		t.Header = append(t.Header, fmt.Sprintf("p@%d", k))
	}
	concepts := evalConceptsIn(r.sys.KB, r.evalConcepts)
	models := []struct {
		name  string
		score func(concept string) rank.Scores
	}{
		{"Frequency", func(c string) rank.Scores { return rank.Frequency(r.sys.KB, c) }},
		{"PageRank", func(c string) rank.Scores {
			return rank.PageRank(rank.BuildGraph(r.sys.KB, c), rank.DefaultConfig())
		}},
		{"Random Walk", func(c string) rank.Scores {
			return rank.RandomWalk(rank.BuildGraph(r.sys.KB, c), rank.DefaultConfig())
		}},
	}
	for _, m := range models {
		row := []string{m.name}
		ranked := map[string][]string{}
		for _, c := range concepts {
			ranked[c] = m.score(c).Ranked()
		}
		for _, k := range r.opts.RankKs {
			var sum float64
			n := 0
			for _, c := range concepts {
				if len(ranked[c]) == 0 {
					continue
				}
				sum += r.sys.Oracle.PrecisionAtK(c, ranked[c], k)
				n++
			}
			if n > 0 {
				row = append(row, f4s(sum/float64(n)))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "paper Table 2: Random Walk 0.80/0.61/0.56 beats PageRank and Frequency at every k"
	return t
}

// Table3 regenerates the cleaning-method comparison on perror / rerror /
// pcorrect / rcorrect.
func (r *Runner) Table3() *Table {
	t := &Table{
		ID:     "table3",
		Title:  "cleaning performance vs previous methods",
		Header: []string{"Cleaning Method", "perror", "rerror", "pcorrect", "rcorrect"},
	}
	sys := r.sys
	concepts := evalConceptsIn(sys.KB, r.evalConcepts)
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		t.Notes = "analysis failed: " + err.Error()
		return t
	}
	lab := a.Labeler

	before := eval.MergeCleaning(r.removedMetrics(sys, concepts, nil))
	t.Rows = append(t.Rows, []string{"Before Cleaning", "-", "-", f3(before.PCorr), "1.000"})

	curated := sys.World.EvaluationConcepts(r.opts.CuratedMEx)
	add := func(name string, removed []kb.Pair) {
		m := eval.MergeCleaning(r.removedMetrics(sys, concepts, removed))
		t.Rows = append(t.Rows, []string{name, f3(m.PError), f3(m.RError), f3(m.PCorr), f3(m.RCorr)})
	}
	add("MEx", baseline.MEx(sys.KB, a.Mutex, sys.KB.Concepts(), curated))
	add("TCh", baseline.TypeCheck(sys.KB, sys.World, sys.KB.Concepts()))
	add("PRDual-Rank", baseline.PRDualRank(sys.KB, lab, sys.KB.Concepts(), baseline.DefaultPRConfig()))
	scoresOf := func(c string) map[string]float64 {
		return rank.RandomWalk(rank.BuildGraph(sys.KB, c), rank.DefaultConfig())
	}
	add("RW-Rank", baseline.RWRank(sys.KB, lab, sys.KB.Concepts(), scoresOf, 0))

	// DP cleaning mutates: run on a fresh identical system.
	fresh := r.freshSystem()
	cr, err := fresh.CleanDPs(core.DetectMultiTask)
	if err != nil {
		t.Notes = "DP cleaning failed: " + err.Error()
		return t
	}
	var per []eval.CleaningMetrics
	for _, c := range concepts {
		per = append(per, fresh.Oracle.Cleaning(c, cr.BeforeInstances[c], fresh.KB))
	}
	m := eval.MergeCleaning(per)
	t.Rows = append(t.Rows, []string{"DP Cleaning", f3(m.PError), f3(m.RError), f3(m.PCorr), f3(m.RCorr)})
	t.Notes = "paper Table 3: DP Cleaning 0.970/0.915/0.892/0.939 dominates; MEx/TCh precise but rerror<0.16"
	return t
}

// removedMetrics scores a removal proposal per concept.
func (r *Runner) removedMetrics(sys *core.System, concepts []string, removed []kb.Pair) []eval.CleaningMetrics {
	removedSet := map[string]map[string]bool{}
	for _, p := range removed {
		if removedSet[p.Concept] == nil {
			removedSet[p.Concept] = map[string]bool{}
		}
		removedSet[p.Concept][p.Instance] = true
	}
	var out []eval.CleaningMetrics
	for _, c := range concepts {
		out = append(out, sys.Oracle.CleaningRemovedSet(c, sys.KB.Instances(c), removedSet[c]))
	}
	return out
}

// Table4 regenerates the DP-detection comparison.
func (r *Runner) Table4() *Table {
	t := &Table{
		ID:     "table4",
		Title:  "effectiveness of DP detection methods",
		Header: []string{"Detection Method", "Precision", "Recall", "F1"},
	}
	sys := r.sys
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		t.Notes = "analysis failed: " + err.Error()
		return t
	}
	evalSet := map[string]bool{}
	for _, c := range r.evalConcepts {
		evalSet[c] = true
	}
	methods := []struct {
		name string
		kind core.DetectorKind
	}{
		{"Ad-hoc 1 (f1)", core.DetectAdHoc1},
		{"Ad-hoc 2 (f2)", core.DetectAdHoc2},
		{"Ad-hoc 3 (f3)", core.DetectAdHoc3},
		{"Ad-hoc 4 (f4)", core.DetectAdHoc4},
		{"Supervised (Random Forest)", core.DetectSupervised},
		{"Semi-Supervised", core.DetectSemiSupervised},
		{"Semi-Supervised Multi-Task", core.DetectMultiTask},
	}
	for _, m := range methods {
		labels, err := sys.Detect(a, m.kind)
		if err != nil {
			t.Rows = append(t.Rows, []string{m.name, "-", "-", "-"})
			continue
		}
		var agg eval.PRF1
		for concept, predicted := range labels {
			if !evalSet[concept] {
				continue
			}
			truth := sys.Oracle.TruthLabels(sys.KB, concept)
			d := eval.Detection(truth, predicted)
			agg.TP += d.TP
			agg.FP += d.FP
			agg.FN += d.FN
		}
		p, rc, f1 := prf(agg.TP, agg.FP, agg.FN)
		t.Rows = append(t.Rows, []string{m.name, f3(p), f3(rc), f3(f1)})
	}
	t.Notes = "paper Table 4: ad-hoc F1 0.63-0.77 < Supervised 0.82 < Semi-Supervised 0.91 < Multi-Task 0.94"
	return t
}

func prf(tp, fp, fn int) (p, r, f1 float64) {
	if tp+fp > 0 {
		p = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		r = float64(tp) / float64(tp+fn)
	}
	if p+r > 0 {
		f1 = 2 * p * r / (p + r)
	}
	return p, r, f1
}

// Table5 regenerates the per-concept DP-cleaning evaluation: the
// Intentional-DP sentence-check quality (pstc, rstc) and the cleaning
// outcome (perror, rerror, pcorr, rcorr).
func (r *Runner) Table5() *Table {
	t := &Table{
		ID:     "table5",
		Title:  "per-concept evaluation of DP cleaning",
		Header: []string{"concept", "pstc", "rstc", "perror", "rerror", "pcorr", "rcorr"},
	}
	// Sentence check on the drifted KB with ground-truth Intentional DPs
	// (the paper labels Intentional DPs manually for this experiment).
	sys := r.sys
	stc := map[string]eval.PRF1{}
	scoreCache := map[string]rank.Scores{}
	scoresOf := func(c string) rank.Scores {
		if s, ok := scoreCache[c]; ok {
			return s
		}
		s := rank.RandomWalk(rank.BuildGraph(sys.KB, c), rank.DefaultConfig())
		scoreCache[c] = s
		return s
	}
	concepts := evalConceptsIn(sys.KB, r.evalConcepts)
	for _, c := range concepts {
		var candidates []int
		flagged := map[int]bool{}
		for e, lbl := range sys.Oracle.TruthLabels(sys.KB, c) {
			if lbl != dp.Intentional {
				continue
			}
			for _, exID := range sys.KB.TriggeredExtractions(c, e) {
				ex := sys.KB.ExtractionSyms(exID)
				if !ex.Active || sys.KB.Name(ex.Concept) != c {
					continue
				}
				candidates = append(candidates, exID)
				if !clean.ExtractionPassesCheck(sys.KB, ex, scoresOf) {
					flagged[exID] = true
				}
			}
		}
		candidates = sortDedupInts(candidates)
		stc[c] = sys.Oracle.SentenceCheck(sys.KB, candidates, flagged)
	}

	// Cleaning outcome on a fresh system.
	fresh := r.freshSystem()
	cr, err := fresh.CleanDPs(core.DetectMultiTask)
	if err != nil {
		t.Notes = "DP cleaning failed: " + err.Error()
		return t
	}
	var perAll []eval.CleaningMetrics
	var stcAgg eval.PRF1
	for _, c := range concepts {
		m := fresh.Oracle.Cleaning(c, cr.BeforeInstances[c], fresh.KB)
		perAll = append(perAll, m)
		s := stc[c]
		stcAgg.TP += s.TP
		stcAgg.FP += s.FP
		stcAgg.FN += s.FN
		// A concept with no DP-triggered parses or no errors has nothing
		// to measure on those columns; render "-" rather than 0/0.
		pstc, rstc := f3(s.Precision), f3(s.Recall)
		if s.TP+s.FP+s.FN == 0 {
			pstc, rstc = "-", "-"
		}
		perr, rerr := f3(m.PError), f3(m.RError)
		if m.Removed == 0 && m.Errors == 0 {
			perr, rerr = "-", "-"
		}
		t.Rows = append(t.Rows, []string{
			c, pstc, rstc, perr, rerr, f3(m.PCorr), f3(m.RCorr),
		})
	}
	overall := eval.MergeCleaning(perAll)
	p, rc, _ := prf(stcAgg.TP, stcAgg.FP, stcAgg.FN)
	t.Rows = append(t.Rows, []string{
		"Overall", f3(p), f3(rc),
		f3(overall.PError), f3(overall.RError), f3(overall.PCorr), f3(overall.RCorr),
	})
	t.Notes = "paper Table 5 overall: pstc 0.953 rstc 0.891, perror 0.969 rerror 0.914 pcorr 0.892 rcorr 0.939"
	return t
}

func sortDedupInts(xs []int) []int {
	seen := map[int]struct{}{}
	out := xs[:0]
	for _, x := range xs {
		if _, dup := seen[x]; dup {
			continue
		}
		seen[x] = struct{}{}
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}
