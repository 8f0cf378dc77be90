package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"

	"driftclean"
	"driftclean/internal/bench"
	"driftclean/internal/clean"
	"driftclean/internal/core"
	"driftclean/internal/corpus"
	"driftclean/internal/dp"
	"driftclean/internal/eval"
	"driftclean/internal/extract"
	"driftclean/internal/kb"
	"driftclean/internal/rank"
)

// pipelineConfig is the default configuration at a corpus size in the
// world that driftclean -seed world builds: world seed world, corpus
// seed world+1. Every workload derives its world this way, so the
// in-process jobs, the CLI and the served KB agree.
func pipelineConfig(sentences int, world int64) driftclean.Config {
	cfg := driftclean.DefaultConfig()
	cfg.Corpus.NumSentences = sentences
	cfg.World.Seed = world
	cfg.Corpus.Seed = world + 1
	return cfg
}

// cliArgs are the driftclean command-line flags that run the same job.
func cliArgs(sentences int, world int64) []string {
	return []string{"-sentences", strconv.Itoa(sentences), "-seed", strconv.FormatInt(world, 10)}
}

// arrival returns the sentences in the seed's arrival order. A KB is a
// function of the sentence set, not its order, so every seed must end
// in the same fingerprint while exercising a different sequence.
func arrival(s []driftclean.Sentence, seed int64) []driftclean.Sentence {
	out := make([]driftclean.Sentence, len(s))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(s)) {
		out[i] = s[j]
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runBatch times one-shot Session jobs — Open plus one Ingest of the
// whole corpus, which is what CleanContext does, with the sentences in
// the seed's arrival order — one after another, each from cold caches.
// Its set-up is a process start plus one job: the driftclean command
// run to completion on the same world.
func runBatch(rc *runCtx) error {
	if rc.trace {
		return traceBatch(rc)
	}
	ctx := context.Background()
	cfg := pipelineConfig(rc.w.sentences, rc.world)
	want := expected("batch", rc.w.sentences, rc.world)
	job := func() (*driftclean.Report, error) {
		sess, err := driftclean.Open(ctx, driftclean.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		defer sess.Close()
		rep, err := sess.Ingest(ctx, arrival(sess.Sentences(), rc.seed))
		if err != nil && !errors.Is(err, driftclean.ErrNoDPsDetected) {
			return nil, err
		}
		return rep, nil
	}
	check := func(rep *driftclean.Report) {
		got := bench.Fingerprint(rep.System.KB)
		if want == "" {
			want = got // no recorded value: every job must agree with the first
		} else if got != want {
			rc.fail("batch job fingerprint %s, want %s", got, want)
		}
	}

	var t timing
	for i := 0; i < rc.w.setups; i++ {
		t0 := time.Now()
		if err := rc.tool("driftclean", cliArgs(rc.w.sentences, rc.world)...); err != nil {
			return err
		}
		t.setups = append(t.setups, time.Since(t0).Seconds())
	}
	// One untimed job in this process, so the timed jobs start warm.
	rep, err := job()
	if err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	check(rep)
	pid := os.Getpid()
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	probe := startHostProbe()
	start := time.Now()
	for deadline := start.Add(rc.seconds); time.Now().Before(deadline); {
		rc.attempted++
		t0 := time.Now()
		rep, err := job()
		d := time.Since(t0)
		if err != nil {
			rc.fail("batch job: %v", err)
			continue
		}
		t.lat = append(t.lat, ms(d))
		check(rep)
	}
	t.wall = time.Since(start)
	probe.finish(rc)
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	t.cpu = cpu1 - cpu0
	if t.rssMB, err = peakRSSMB(pid); err != nil {
		return err
	}
	rc.logf("fingerprint %s", want)
	rc.report(t)
	return nil
}

// layerCounts accumulates the traced run's per-layer work counts.
type layerCounts struct {
	ops                      int
	passes, rounds, removed  int
	taskHits, fits, walkHits int
}

// tracedSystem prepares a system whose random walks go through a walk
// memo the benchmark can read; it is the same memo type the system
// would create for itself, so results are unchanged.
func tracedSystem(cfg driftclean.Config) (*core.System, *rank.WalkMemo) {
	sys := core.Prepare(cfg)
	memo := rank.NewWalkMemo()
	sys.ScoreCache().SetWalk(memo.Walk)
	return sys, memo
}

// traceBatch replicates a batch job layer by layer — core.Prepare,
// extract.Run, the detect-and-clean loop with spans around every
// System.Analyze and System.Detect call, and the report evaluation —
// and checks that it ends in the untraced job's fingerprint.
func traceBatch(rc *runCtx) error {
	cfg := pipelineConfig(rc.w.sentences, rc.world)
	want := expected("batch", rc.w.sentences, rc.world)
	tr := newTracer()
	var c layerCounts
	rt0 := readRuntime()
	probe := startHostProbe()
	start := time.Now()
	for deadline := start.Add(rc.seconds); c.ops == 0 || time.Now().Before(deadline); c.ops++ {
		rc.attempted++
		op := c.ops
		root := tr.begin("job", -1, op)
		p := tr.begin("prepare", root, op)
		sys, memo := tracedSystem(cfg)
		tr.end(p)
		x := tr.begin("extract", root, op)
		res := extract.Run(&corpus.Corpus{Sentences: arrival(sys.Corpus.Sentences, rc.seed)}, sys.Cfg.Extract)
		tr.end(x)
		sys.Extraction, sys.KB = res, res.KB
		if err := cleanAndEvaluate(sys, tr, root, op, &c); err != nil {
			return err
		}
		tr.end(root)
		hits, misses := sys.TaskCacheStats()
		walkHits, _ := memo.Stats()
		c.taskHits, c.fits, c.walkHits = c.taskHits+hits, c.fits+misses, c.walkHits+walkHits
		got := bench.Fingerprint(sys.KB)
		if want == "" {
			want = got
		} else if got != want {
			rc.fail("traced batch job fingerprint %s, want %s", got, want)
		}
	}
	rt1 := readRuntime()
	probe.finish(rc)
	rc.logf("fingerprint %s", want)
	return rc.reportLayers(tr, "job", c, rt0, rt1)
}

// cleanAndEvaluate does what Session.Ingest does once extraction has
// run: the pre-cleaning precision, System.CleanDPs — replicated with
// the same clean.Run call and cleaning configuration, plus spans around
// each Analyze and Detect — and the report's evaluation.
func cleanAndEvaluate(sys *core.System, tr *tracer, parent, op int, c *layerCounts) error {
	e := tr.begin("eval", parent, op)
	_ = sys.Oracle.KBPrecision(sys.KB, nil)
	before := map[string][]string{}
	for _, concept := range sys.KB.Concepts() {
		before[concept] = sys.KB.Instances(concept)
	}
	tr.end(e)

	ccfg := sys.Cfg.Clean
	if ccfg.Walk == sys.ScoreCache().Config() {
		ccfg.Cache = sys.ScoreCache()
	}
	round := -1
	ccfg.OnRound = func(int) bool {
		if round >= 0 {
			tr.end(round)
		}
		round = tr.begin("clean.round", parent, op)
		return false
	}
	var detectErr error
	res := clean.Run(sys.KB, func(k *kb.KB) clean.Labels {
		s := tr.begin("analyze", round, op)
		a, err := sys.Analyze(k)
		tr.end(s)
		c.passes++
		if err != nil {
			detectErr = err
			return clean.Labels{}
		}
		s = tr.begin("detect", round, op)
		labels, err := sys.Detect(a, core.DetectMultiTask)
		tr.end(s)
		if err != nil {
			detectErr = err
			return clean.Labels{}
		}
		return onlyDPs(labels)
	}, ccfg)
	if round >= 0 {
		tr.end(round)
	}
	if detectErr != nil {
		return detectErr
	}
	c.rounds += len(res.Rounds)
	c.removed += res.TotalPairsRemoved

	e = tr.begin("eval", parent, op)
	_ = sys.Oracle.KBPrecision(sys.KB, nil)
	concepts := make([]string, 0, len(before))
	for concept := range before {
		concepts = append(concepts, concept)
	}
	sort.Strings(concepts)
	per := make([]eval.CleaningMetrics, 0, len(concepts))
	for _, concept := range concepts {
		per = append(per, sys.Oracle.Cleaning(concept, before[concept], sys.KB))
	}
	_ = eval.MergeCleaning(per)
	tr.end(e)
	return nil
}

// onlyDPs keeps the DP labels of a detection, as CleanDPs does.
func onlyDPs(labels clean.Labels) clean.Labels {
	out := clean.Labels{}
	for concept, m := range labels {
		for e, l := range m {
			if !l.IsDP() {
				continue
			}
			if out[concept] == nil {
				out[concept] = map[string]dp.Label{}
			}
			out[concept][e] = l
		}
	}
	return out
}

// runtimeNames are the Go runtime counters the traced run reads.
var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycle",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, v := range s {
		switch v.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(v.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = v.Value.Float64()
		}
	}
	return out
}

// reportLayers turns a traced pipeline run into per-layer metrics and
// writes its spans out. rt0 and rt1 are runtime readings around the
// traced ops.
func (rc *runCtx) reportLayers(tr *tracer, rootName string, c layerCounts, rt0, rt1 []float64) error {
	ops := float64(c.ops)
	self := tr.selfMS()
	set := func(name string, v float64) { rc.layers[name] = v }
	set("prepare.ms_per_op", self["prepare"]/ops)
	set("extract.ms_per_op", self["extract"]/ops)
	set("analyze.ms_per_op", self["analyze"]/ops)
	set("detect.ms_per_op", self["detect"]/ops)
	set("clean.rollback_ms_per_op", self["clean.round"]/ops)
	set("eval.ms_per_op", self["eval"]/ops)
	set("snapshot.freeze_ms_per_op", self["freeze"]/ops)
	set("analyze.passes_per_op", float64(c.passes)/ops)
	set("clean.rounds_per_op", float64(c.rounds)/ops)
	set("clean.pairs_removed_per_op", float64(c.removed)/ops)
	set("kpca.fits_per_op", float64(c.fits)/ops)
	if c.taskHits+c.fits > 0 {
		set("core.task_reuse_ratio", float64(c.taskHits)/float64(c.taskHits+c.fits))
	}
	set("rank.walk_reuse_per_op", float64(c.walkHits)/ops)
	set("go.alloc_mb_per_op", (rt1[0]-rt0[0])/(1<<20)/ops)
	set("go.gc_cycles_per_op", (rt1[1]-rt0[1])/ops)
	if cpu := rt1[3] - rt0[3]; cpu > 0 {
		set("go.gc_cpu_share", (rt1[2]-rt0[2])/cpu)
	}
	set("trace.latency_p50_ms", percentile(sorted(tr.durationsMS(rootName)), 50))
	rc.logf("traced ops %d: task hits %d, KPCA fits %d, walk reuse %d", c.ops, c.taskHits, c.fits, c.walkHits)
	return rc.writeTrace(tr)
}
