package driftclean

// Benchmarks: one per table and figure of the paper (regeneration cost on
// a reduced world), substrate micro-benchmarks (extraction throughput,
// parsing, random walks, roll-back, KPCA, Algorithm 1), and the ablations
// called out in DESIGN.md §5. Quality-style ablations report their
// metric through b.ReportMetric so `go test -bench` doubles as a compact
// ablation table.
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"driftclean/internal/clean"
	"driftclean/internal/core"
	"driftclean/internal/corpus"
	"driftclean/internal/eval"
	"driftclean/internal/experiments"
	"driftclean/internal/extract"
	"driftclean/internal/hearst"
	"driftclean/internal/kb"
	"driftclean/internal/kpca"
	"driftclean/internal/learn"
	"driftclean/internal/mutex"
	"driftclean/internal/rank"
	"driftclean/internal/seedlabel"
	"driftclean/internal/world"
)

// benchOptions is the reduced scale shared by the table/figure benches.
func benchOptions() experiments.Options {
	opts := experiments.Default()
	opts.Core.World.NumDomains = 3
	opts.Core.World.InstancesPerConceptMin = 50
	opts.Core.World.InstancesPerConceptMax = 100
	opts.Core.Corpus.NumSentences = 12000
	opts.Core.Clean.MaxRounds = 2
	opts.EvalConcepts = 8
	opts.RankKs = []int{20, 50, 100}
	return opts
}

var (
	benchRunnerOnce sync.Once
	benchRunner     *experiments.Runner
)

func sharedRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	benchRunnerOnce.Do(func() { benchRunner = experiments.NewRunner(benchOptions()) })
	return benchRunner
}

var (
	benchSystemOnce sync.Once
	benchSystem     *core.System
)

// sharedSystem returns a built (drifted, uncleaned) system for substrate
// benches. Never mutate it.
func sharedSystem(b *testing.B) *core.System {
	b.Helper()
	benchSystemOnce.Do(func() { benchSystem = core.Build(benchOptions().Core) })
	return benchSystem
}

func benchExperiment(b *testing.B, id string) {
	r := sharedRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := r.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// --- one benchmark per table and figure of the paper ---

func BenchmarkTable1Stats(b *testing.B)          { benchExperiment(b, "table1") }
func BenchmarkTable2Ranking(b *testing.B)        { benchExperiment(b, "table2") }
func BenchmarkTable3Cleaning(b *testing.B)       { benchExperiment(b, "table3") }
func BenchmarkTable4Detection(b *testing.B)      { benchExperiment(b, "table4") }
func BenchmarkTable5DPCleaning(b *testing.B)     { benchExperiment(b, "table5") }
func BenchmarkFigure2Distributions(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFigure3Features(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFigure4ConceptSim(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFigure5aIterations(b *testing.B)   { benchExperiment(b, "fig5a") }
func BenchmarkFigure5bThreshold(b *testing.B)    { benchExperiment(b, "fig5b") }
func BenchmarkFigure5cConvergence(b *testing.B)  { benchExperiment(b, "fig5c") }

// BenchmarkSessionCheckpoint measures one incremental checkpoint the way
// driftserve -session runs it: a one-sentence Ingest followed by
// Publish, on a default-config session of 6,000 or 40,000 sentences
// whose all but last 60 sentences were ingested in bulk before the
// timer starts. The session holds back 60 sentences, so one run
// measures at most 60 checkpoints:
//
//	go test -run '^$' -bench SessionCheckpoint -benchtime 40x
//
// The two sizes chart how a checkpoint's cost grows with the session.
// kpca-fits/op counts the learning tasks each checkpoint rebuilt (task
// memo misses, each paying for a KPCA fit): it shows a memo change that
// time alone would hide in noise.
func BenchmarkSessionCheckpoint(b *testing.B) {
	for _, n := range []int{6000, 40000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) { benchmarkCheckpoint(b, n) })
	}
}

func benchmarkCheckpoint(b *testing.B, sentences int) {
	const tail = 60
	if b.N > tail {
		b.Fatalf("%d checkpoints requested, but the session holds back %d sentences; use -benchtime %dx or less", b.N, tail, tail)
	}
	cfg := DefaultConfig()
	cfg.Corpus.NumSentences = sentences
	ctx := context.Background()
	sess, err := Open(ctx, WithConfig(cfg))
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	sents := sess.Sentences()
	bulk := len(sents) - tail
	if _, err := sess.Ingest(ctx, sents[:bulk]); err != nil && !errors.Is(err, ErrNoDPsDetected) {
		b.Fatal(err)
	}
	_, misses0 := sess.System().TaskCacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Ingest(ctx, sents[bulk+i:bulk+i+1]); err != nil && !errors.Is(err, ErrNoDPsDetected) {
			b.Fatal(err)
		}
		if _, err := sess.Publish(); err != nil {
			b.Fatal(err)
		}
	}
	_, misses := sess.System().TaskCacheStats()
	b.ReportMetric(float64(misses-misses0)/float64(b.N), "kpca-fits/op")
}

// --- substrate micro-benchmarks ---

// BenchmarkExtraction measures end-to-end iterative extraction
// throughput; the custom metric is sentences/second.
func BenchmarkExtraction(b *testing.B) {
	wcfg := world.DefaultConfig()
	wcfg.NumDomains = 3
	w := world.New(wcfg)
	ccfg := corpus.DefaultConfig()
	ccfg.NumSentences = 10000
	c := corpus.Generate(w, ccfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := extract.Run(c, extract.DefaultConfig())
		if res.KB.NumPairs() == 0 {
			b.Fatal("extraction produced nothing")
		}
	}
	b.ReportMetric(float64(c.Len())*float64(b.N)/b.Elapsed().Seconds(), "sentences/s")
}

func BenchmarkHearstParse(b *testing.B) {
	sys := sharedSystem(b)
	sentences := sys.Corpus.Sentences
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sentences[i%len(sentences)]
		if _, ok := hearst.ParseSentence(s.ID, s.Text); !ok {
			b.Fatalf("unparseable: %q", s.Text)
		}
	}
}

func BenchmarkCorpusGeneration(b *testing.B) {
	wcfg := world.DefaultConfig()
	wcfg.NumDomains = 3
	w := world.New(wcfg)
	ccfg := corpus.DefaultConfig()
	ccfg.NumSentences = 10000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := corpus.Generate(w, ccfg); c.Len() == 0 {
			b.Fatal("no sentences")
		}
	}
}

func BenchmarkRandomWalk(b *testing.B) {
	sys := sharedSystem(b)
	concept := biggestConcept(sys)
	g := rank.BuildGraph(sys.KB, concept)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := rank.RandomWalk(g, rank.DefaultConfig()); len(s) == 0 {
			b.Fatal("no scores")
		}
	}
	b.ReportMetric(float64(len(g.Nodes)), "nodes")
}

func BenchmarkTriggerGraphBuild(b *testing.B) {
	sys := sharedSystem(b)
	concept := biggestConcept(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := rank.BuildGraph(sys.KB, concept); len(g.Nodes) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkKBRollbackCascade measures the cascading roll-back of Sec 4.2
// on a deep synthetic trigger chain.
func BenchmarkKBRollbackCascade(b *testing.B) {
	const depth, width = 200, 5
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := kb.New()
		k.AddExtraction(0, "c", nil, []string{"root"}, nil, 1)
		prev := "root"
		for d := 0; d < depth; d++ {
			insts := make([]string, width)
			for w := range insts {
				insts[w] = pairName(d, w)
			}
			k.AddExtraction(d+1, "c", nil, insts, []string{prev}, d+2)
			prev = insts[0]
		}
		b.StartTimer()
		res := k.RemovePairs([]kb.Pair{{Concept: "c", Instance: "root"}})
		if res.ExtractionsRolled != depth {
			b.Fatalf("rolled %d, want %d", res.ExtractionsRolled, depth)
		}
	}
}

func pairName(d, w int) string {
	return string(rune('a'+d%26)) + string(rune('a'+w)) + string(rune('0'+d/26))
}

func BenchmarkMutexDiscovery(b *testing.B) {
	sys := sharedSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := mutex.Analyze(sys.KB, mutex.DefaultConfig()); a.CoverageRate() == 0 {
			b.Fatal("no coverage")
		}
	}
}

func BenchmarkSeedLabeling(b *testing.B) {
	sys := sharedSystem(b)
	mx := mutex.Analyze(sys.KB, mutex.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab := seedlabel.New(sys.KB, mx, seedlabel.DefaultConfig())
		if s := lab.CollectStats(sys.KB.Concepts()); s.Labeled == 0 {
			b.Fatal("no seeds")
		}
	}
}

func BenchmarkKPCAFitProject(b *testing.B) {
	sys := sharedSystem(b)
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		b.Fatal(err)
	}
	concept := a.Concepts[0]
	insts := sys.KB.Instances(concept)
	if len(insts) > 200 {
		insts = insts[:200]
	}
	raw := a.Features.Matrix(concept, insts, sys.KB.SubIndex(concept))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := kpca.Fit(raw, kpca.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		tr.ProjectAll(raw)
	}
}

func BenchmarkMultiTaskTraining(b *testing.B) {
	sys := sharedSystem(b)
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := learn.TrainMultiTask(a.Tasks, sys.Cfg.MultiTask, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks (DESIGN.md §5); quality via ReportMetric ---

// BenchmarkAblationEq21VsDropAll compares the Eq 21 sentence re-check
// against dropping every Intentional-DP-triggered extraction. The
// reported rcorr shows how much correct knowledge the re-check saves.
func BenchmarkAblationEq21VsDropAll(b *testing.B) {
	for _, mode := range []struct {
		name    string
		dropAll bool
	}{{"eq21", false}, {"dropall", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var rcorr, perr float64
			for i := 0; i < b.N; i++ {
				cfg := benchOptions().Core
				cfg.Clean.DropAllIntentional = mode.dropAll
				sys := core.Build(cfg)
				before := snapshotInstances(sys)
				if _, err := sys.CleanDPs(core.DetectMultiTask); err != nil {
					b.Fatal(err)
				}
				m := cleaningMetrics(sys, before)
				rcorr, perr = m.RCorr, m.PError
			}
			b.ReportMetric(rcorr, "rcorr")
			b.ReportMetric(perr, "perror")
		})
	}
}

// BenchmarkAblationDetectors compares cleaning outcomes across detection
// methods (multi-task vs the paper's baselines).
func BenchmarkAblationDetectors(b *testing.B) {
	for _, m := range []struct {
		name string
		kind core.DetectorKind
	}{
		{"multitask", core.DetectMultiTask},
		{"forest", core.DetectSupervised},
		{"ridge", core.DetectRidge},
		{"adhoc2", core.DetectAdHoc2},
	} {
		b.Run(m.name, func(b *testing.B) {
			var prec float64
			for i := 0; i < b.N; i++ {
				sys := core.Build(benchOptions().Core)
				if _, err := sys.CleanDPs(m.kind); err != nil {
					b.Fatal(err)
				}
				prec = sys.Oracle.KBPrecision(sys.KB, nil)
			}
			b.ReportMetric(prec, "precision")
		})
	}
}

// BenchmarkAblationRestartProbability probes the random-walk restart
// parameter around the paper's 0.15.
func BenchmarkAblationRestartProbability(b *testing.B) {
	sys := sharedSystem(b)
	concept := biggestConcept(sys)
	g := rank.BuildGraph(sys.KB, concept)
	for _, restart := range []struct {
		name string
		p    float64
	}{{"r05", 0.05}, {"r15", 0.15}, {"r30", 0.30}} {
		b.Run(restart.name, func(b *testing.B) {
			cfg := rank.DefaultConfig()
			cfg.Restart = restart.p
			var p100 float64
			for i := 0; i < b.N; i++ {
				s := rank.RandomWalk(g, cfg)
				p100 = sys.Oracle.PrecisionAtK(concept, s.Ranked(), 100)
			}
			b.ReportMetric(p100, "p@100")
		})
	}
}

// BenchmarkAblationSingleFeatures reports the detection F1 of each
// single-property ad-hoc detector against the learned multi-task
// detector (Table 4 rows as a bench).
func BenchmarkAblationSingleFeatures(b *testing.B) {
	sys := sharedSystem(b)
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name string
		kind core.DetectorKind
	}{
		{"f1", core.DetectAdHoc1},
		{"f2", core.DetectAdHoc2},
		{"f3", core.DetectAdHoc3},
		{"f4", core.DetectAdHoc4},
		{"multitask", core.DetectMultiTask},
	} {
		b.Run(m.name, func(b *testing.B) {
			var f1 float64
			for i := 0; i < b.N; i++ {
				labels, err := sys.Detect(a, m.kind)
				if err != nil {
					b.Fatal(err)
				}
				f1 = detectionF1(sys, labels)
			}
			b.ReportMetric(f1, "F1")
		})
	}
}

// --- bench helpers ---

func biggestConcept(sys *core.System) string {
	best, bestN := "", 0
	for _, c := range sys.KB.Concepts() {
		if n := len(sys.KB.Instances(c)); n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

func snapshotInstances(sys *core.System) map[string][]string {
	out := map[string][]string{}
	for _, c := range sys.KB.Concepts() {
		out[c] = sys.KB.Instances(c)
	}
	return out
}

func cleaningMetrics(sys *core.System, before map[string][]string) eval.CleaningMetrics {
	var per []eval.CleaningMetrics
	for c, insts := range before {
		per = append(per, sys.Oracle.Cleaning(c, insts, sys.KB))
	}
	return eval.MergeCleaning(per)
}

func detectionF1(sys *core.System, labels clean.Labels) float64 {
	tp, fp, fn := 0, 0, 0
	for concept, predicted := range labels {
		truth := sys.Oracle.TruthLabels(sys.KB, concept)
		m := eval.Detection(truth, predicted)
		tp += m.TP
		fp += m.FP
		fn += m.FN
	}
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(tp+fp)
	r := float64(tp) / float64(tp+fn)
	return 2 * p * r / (p + r)
}

// BenchmarkAblationCascade compares the paper's Sec 4.2 cascading
// roll-back against one-shot pair removal; rerror shows the errors the
// cascade alone recovers.
func BenchmarkAblationCascade(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"cascade", false}, {"oneshot", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var rerr float64
			for i := 0; i < b.N; i++ {
				cfg := benchOptions().Core
				cfg.Clean.DisableCascade = mode.disable
				sys := core.Build(cfg)
				before := snapshotInstances(sys)
				if _, err := sys.CleanDPs(core.DetectMultiTask); err != nil {
					b.Fatal(err)
				}
				rerr = cleaningMetrics(sys, before).RError
			}
			b.ReportMetric(rerr, "rerror")
		})
	}
}

// BenchmarkAblationKPCA compares the ridge detector on the KPCA
// representation against the same detector on raw standardized features.
func BenchmarkAblationKPCA(b *testing.B) {
	sys := sharedSystem(b)
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		b.Fatal(err)
	}
	rawTasks := make([]*learn.Task, len(a.Tasks))
	for i, t := range a.Tasks {
		rt := &learn.Task{Concept: t.Concept}
		for _, in := range t.Instances {
			rt.Instances = append(rt.Instances, learn.Instance{
				Name: in.Name, X: in.Raw, Raw: in.Raw, Label: in.Label, Labeled: in.Labeled,
			})
		}
		rawTasks[i] = rt
	}
	for _, mode := range []struct {
		name  string
		tasks []*learn.Task
	}{{"kpca", a.Tasks}, {"raw", rawTasks}} {
		b.Run(mode.name, func(b *testing.B) {
			var f1 float64
			for i := 0; i < b.N; i++ {
				labels := clean.Labels{}
				for _, t := range mode.tasks {
					det, err := learn.TrainRidge(t, 1e-2)
					if err != nil {
						continue
					}
					labels[t.Concept] = learn.PredictTask(learn.Calibrate(det, t), t, false)
				}
				f1 = detectionF1(sys, labels)
			}
			b.ReportMetric(f1, "F1")
		})
	}
}
