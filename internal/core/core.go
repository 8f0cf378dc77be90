// Package core orchestrates the full system of the paper: synthetic
// world → Hearst corpus → semantic-based iterative extraction (which
// drifts) → mutual-exclusion discovery → seed labeling → feature
// extraction → KPCA → DP detection → DP-based cleaning. It is the engine
// behind the public driftclean API, the experiments, and the CLIs.
package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"driftclean/internal/clean"
	"driftclean/internal/corpus"
	"driftclean/internal/dp"
	"driftclean/internal/eval"
	"driftclean/internal/extract"
	"driftclean/internal/fault"
	"driftclean/internal/feature"
	"driftclean/internal/kb"
	"driftclean/internal/kpca"
	"driftclean/internal/learn"
	"driftclean/internal/linalg"
	"driftclean/internal/memo"
	"driftclean/internal/mutex"
	"driftclean/internal/par"
	"driftclean/internal/rank"
	"driftclean/internal/seedlabel"
	"driftclean/internal/world"
)

// Config assembles the configuration of every subsystem.
type Config struct {
	World     world.Config
	Corpus    corpus.Config
	Extract   extract.Config
	Mutex     mutex.Config
	Seed      seedlabel.Config
	KPCA      kpca.Config
	MultiTask learn.MultiTaskConfig
	Forest    learn.ForestConfig
	Clean     clean.Config

	// MinTaskInstances skips DP detection for concepts with fewer
	// instances (they have too little signal and, per the paper, often no
	// mutually exclusive concepts either).
	MinTaskInstances int
	// KPCAFitCap bounds the number of points used to fit each concept's
	// kernel PCA (all labeled points are always included); the rest are
	// projected afterwards.
	KPCAFitCap int
	// SharedDim is the common KPCA dimensionality all tasks are padded
	// to for multi-task training.
	SharedDim int

	// Parallelism is the single worker-count knob for every parallel
	// stage of the pipeline: corpus sharding, the extraction parse and
	// disambiguation scans, the per-concept analysis fan-out, the
	// per-task manifold builds of multi-task detection, and the
	// cleaning score prewarm. The default (0, or any value below 1) uses
	// every CPU; 1 forces the serial path everywhere, which is the A/B
	// lever behind the determinism guarantee — output is identical at any
	// setting. Subsystem configs that set their own Parallelism keep it.
	Parallelism int

	// Fault, when non-nil, is the chaos-testing injector shared by every
	// pipeline stage: it is propagated into the corpus, extraction and
	// cleaning subconfigs (unless they carry their own) and consulted at
	// the "core.analyze" site once per analysis pass. nil — the
	// production default — is a zero-cost no-op.
	Fault *fault.Injector
}

// workers resolves the configured parallelism to a worker count.
func (c Config) workers() int { return par.Workers(c.Parallelism) }

// propagate copies the top-level Parallelism into subsystem configs that
// did not choose their own.
func (c Config) propagate() Config {
	if c.Corpus.Parallelism == 0 {
		c.Corpus.Parallelism = c.Parallelism
	}
	if c.Extract.Parallelism == 0 {
		c.Extract.Parallelism = c.Parallelism
	}
	if c.Clean.Parallelism == 0 {
		c.Clean.Parallelism = c.Parallelism
	}
	if c.Corpus.Fault == nil {
		c.Corpus.Fault = c.Fault
	}
	if c.Extract.Fault == nil {
		c.Extract.Fault = c.Fault
	}
	if c.Clean.Fault == nil {
		c.Clean.Fault = c.Fault
	}
	return c
}

// DefaultConfig returns the configuration used across the experiments:
// a mid-size world and corpus that run in seconds while exhibiting the
// paper's drift dynamics.
func DefaultConfig() Config {
	return Config{
		World:            world.DefaultConfig(),
		Corpus:           corpus.DefaultConfig(),
		Extract:          extract.DefaultConfig(),
		Mutex:            mutex.DefaultConfig(),
		Seed:             seedlabel.DefaultConfig(),
		KPCA:             kpca.DefaultConfig(),
		MultiTask:        learn.DefaultMultiTaskConfig(),
		Forest:           learn.DefaultForestConfig(),
		Clean:            clean.DefaultConfig(),
		MinTaskInstances: 8,
		KPCAFitCap:       200,
		SharedDim:        12,
	}
}

// System holds the built substrate: the world, the corpus and the
// (drifted) extraction result.
//
// A System memoizes analysis work across calls. A full *Analysis is
// reused verbatim when the KB has not mutated since it was computed;
// the per-concept random-walk score cache is shared between every
// Analyze pass and the cleaning rounds (rollbacks invalidate exactly
// the concepts they touch). Below those, three content-addressed memos
// — learning tasks, random walks and manifold matrices — skip a
// computation whenever its exact inputs were seen at any round of the
// current or previous memo generation. Ingestor rotates them once per
// committed checkpoint; a System driven without one (a batch run) stays
// in a single generation. Like the KB itself, a System's orchestration
// methods (Analyze, Detect, CleanDPs) are not safe for concurrent use.
type System struct {
	Cfg        Config
	World      *world.World
	Corpus     *corpus.Corpus
	Extraction *extract.Result
	KB         *kb.KB
	Oracle     *eval.Oracle

	// scoreCache is the cross-round walk cache, created lazily by the
	// first Analyze.
	scoreCache *rank.Cache
	// walkMemo backs scoreCache with graph-signature-keyed walk reuse,
	// so a checkpoint replay's fresh KB (new pointer, cold cache) still
	// skips the power iteration for every concept whose trigger graph
	// some recent round already walked.
	walkMemo *rank.WalkMemo
	// memo holds the last Analysis with the KB identity + version it was
	// computed from; a hit requires both to be unchanged.
	memo struct {
		k        *kb.KB
		version  uint64
		analysis *Analysis
	}
	// tasks memoizes learning tasks keyed by concept and a signature of
	// the task's exact inputs (instance names, seed labels, raw feature
	// matrix). A task is a pure function of those inputs and the fixed
	// config, so a hit skips the KPCA fit and projection — the dominant
	// analysis cost — and returns the stored task verbatim.
	tasks memo.Memo[taskKey, *learn.Task]
	// manifolds memoizes each task's manifold regularizer matrix (Eq 17)
	// keyed on the task pointer. Cached tasks are returned
	// pointer-identical, a rebuilt task is a fresh allocation, and the
	// matrix is a pure function of the task under the fixed config — so
	// pointer identity is exactly "same matrix", and detection skips the
	// O(n²) k-NN graph for every task it has seen before.
	manifolds memo.Memo[*learn.Task, *linalg.Matrix]
}

type taskKey struct {
	concept string
	sig     uint64
}

// ScoreCache returns the system's shared cross-round random-walk cache,
// creating it on first use. Its configuration matches the feature
// extractor's (rank.DefaultConfig), which is also the cleaning loop's
// default Eq 21 walk configuration. The cache computes walks through
// the system's signature-keyed walk memo, so a concept whose trigger
// graph some recent round already walked reuses its scores across
// checkpoint replays.
func (s *System) ScoreCache() *rank.Cache {
	if s.scoreCache == nil {
		if s.walkMemo == nil {
			s.walkMemo = rank.NewWalkMemo()
		}
		s.scoreCache = rank.NewCache(rank.DefaultConfig())
		s.scoreCache.SetWalk(s.walkMemo.Walk)
	}
	return s.scoreCache
}

// TaskCacheStats reports how many buildTask calls reused a cached task
// versus rebuilt one (KPCA fit + projection) since the system was
// created.
func (s *System) TaskCacheStats() (hits, misses int) { return s.tasks.Stats() }

// rotateMemos ends a generation of the task, walk and manifold memos:
// entries no analysis pass has used since the previous rotation are
// dropped.
func (s *System) rotateMemos() {
	s.tasks.Rotate()
	s.manifolds.Rotate()
	if s.walkMemo != nil {
		s.walkMemo.Rotate()
	}
}

// Prepare generates the world and corpus and wires up the oracle, but
// runs no extraction: the system's KB starts empty. It is the substrate
// of the incremental ingest path (Ingestor), where sentences arrive in
// batches after the system exists.
func Prepare(cfg Config) *System {
	cfg = cfg.propagate()
	w := world.New(cfg.World)
	c := corpus.Generate(w, cfg.Corpus)
	return &System{
		Cfg:    cfg,
		World:  w,
		Corpus: c,
		Oracle: eval.NewOracle(w, c),
	}
}

// Build generates the world and corpus and runs the iterative extraction.
func Build(cfg Config) *System {
	sys := Prepare(cfg)
	res := extract.Run(sys.Corpus, sys.Cfg.Extract)
	sys.Extraction = res
	sys.KB = res.KB
	return sys
}

// Analysis bundles the per-KB-state analysis artifacts.
type Analysis struct {
	Mutex    *mutex.Analysis
	Labeler  *seedlabel.Labeler
	Features *feature.Extractor
	// Tasks holds one learning task per analyzable concept, padded to the
	// shared dimensionality; Concepts lists them in task order.
	Tasks    []*learn.Task
	Concepts []string
}

// Analyze runs mutual-exclusion discovery, seed labeling, feature
// extraction and KPCA over the current state of the given KB (use
// sys.KB, or a KB mid-cleaning). Per-concept work (random walks,
// features, KPCA) is fanned out one concept at a time over the
// Config.Parallelism workers; results are deterministic regardless of
// parallelism.
//
// Analysis is a pure function of the KB state and the (fixed) config,
// so a repeated call on an unmutated KB — detected by pointer identity
// plus the KB's mutation version — returns the previous *Analysis
// without recomputing anything. Between cleaning rounds, the shared
// score cache goes further: only concepts a rollback touched are
// re-walked.
func (s *System) Analyze(k *kb.KB) (*Analysis, error) {
	s.Cfg.Fault.Check("core.analyze")
	if s.memo.analysis != nil && s.memo.k == k && s.memo.version == k.Version() {
		return s.memo.analysis, nil
	}
	a := &Analysis{
		Mutex: mutex.Analyze(k, s.Cfg.Mutex),
	}
	a.Labeler = seedlabel.New(k, a.Mutex, s.Cfg.Seed)
	a.Features = feature.NewExtractorWithCache(k, a.Mutex, s.ScoreCache())

	var eligible []string
	for _, concept := range k.Concepts() {
		if len(k.Instances(concept)) >= s.Cfg.MinTaskInstances {
			eligible = append(eligible, concept)
		}
	}
	parallelism := s.Cfg.workers()
	a.Features.Warm(eligible, parallelism)

	// One concept per claim: a task build costs from nothing (a cache
	// hit) to a full KPCA fit, and a world has only tens of eligible
	// concepts, so any coarser chunk hands them all to one worker. The
	// par pool (rather than raw goroutines) captures a panic inside a
	// task build — including one injected at the core.solve fault site —
	// and re-throws it on this goroutine, where the public API's stage
	// recovery can turn it into ErrStagePanic.
	tasks := make([]*learn.Task, len(eligible))
	errs := make([]error, len(eligible))
	par.ForChunked(len(eligible), parallelism, 1, func(i int) {
		tasks[i], errs[i] = s.buildTask(k, a, eligible[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: building task for %q: %w", eligible[i], err)
		}
	}
	for i, task := range tasks {
		if task == nil {
			continue
		}
		a.Tasks = append(a.Tasks, task)
		a.Concepts = append(a.Concepts, eligible[i])
	}
	s.memo.k, s.memo.version, s.memo.analysis = k, k.Version(), a
	return a, nil
}

// buildTask assembles the learning task of one concept: candidates are
// the triggering instances plus every seed-labeled instance; raw features
// are transformed by a per-concept KPCA fitted on (capped) task points.
//
// The expensive tail — KPCA fit, projection, padding — is skipped when
// the task memo holds a task built from the same inputs at any earlier
// round it still remembers: the task is a pure function of (names, seed
// labels, raw feature matrix) under the system's fixed config, so an
// identical input signature returns that task bit for bit. This is what
// scopes re-analysis to dirty concepts: the raw feature matrix already
// aggregates every cross-concept dependency (f2/f6 read other concepts'
// pair counts and the exclusion structure), so "feature vectors
// unchanged" is exactly the condition under which the old task is
// still the right answer.
func (s *System) buildTask(k *kb.KB, a *Analysis, concept string) (*learn.Task, error) {
	seeds := a.Labeler.Seeds(concept)
	var names []string
	seen := map[string]bool{}
	for _, e := range k.Instances(concept) {
		if len(k.SubInstances(concept, e)) > 0 {
			names = append(names, e)
			seen[e] = true
		}
	}
	for e := range seeds {
		if !seen[e] {
			names = append(names, e)
		}
	}
	sort.Strings(names)
	if len(names) < 2 {
		return nil, nil
	}
	raw := a.Features.Matrix(concept, names)

	key := taskKey{concept, taskSignature(concept, names, seeds, raw, s.Cfg.KPCA)}
	if task, ok := s.tasks.Get(key); ok {
		return task, nil
	}

	// The eigensolve below is the analysis hot spot, so it gets its own
	// chaos seam: a signature miss is exactly "this concept pays for a
	// KPCA fit this pass".
	if err := s.Cfg.Fault.Hit("core.solve"); err != nil {
		return nil, err
	}

	// Fit KPCA on all labeled points plus a deterministic sample of the
	// rest, capped for tractability; project everything.
	fitIdx := make([]int, 0, len(names))
	var unlabeled []int
	for i, e := range names {
		if _, ok := seeds[e]; ok {
			fitIdx = append(fitIdx, i)
		} else {
			unlabeled = append(unlabeled, i)
		}
	}
	fitCap := s.Cfg.KPCAFitCap
	if fitCap <= 0 {
		fitCap = DefaultConfig().KPCAFitCap
	}
	stride := 1
	if room := fitCap - len(fitIdx); room > 0 && len(unlabeled) > room {
		stride = (len(unlabeled) + room - 1) / room
	}
	for i := 0; i < len(unlabeled); i += stride {
		fitIdx = append(fitIdx, unlabeled[i])
	}
	if len(fitIdx) < 2 {
		fitIdx = []int{0, 1}
	}
	fitX := make([][]float64, len(fitIdx))
	for i, idx := range fitIdx {
		fitX[i] = raw[idx]
	}
	kcfg := s.Cfg.KPCA
	if kcfg.MaxComponents <= 0 || kcfg.MaxComponents > s.sharedDim() {
		kcfg.MaxComponents = s.sharedDim()
	}
	tr, err := kpca.Fit(fitX, kcfg)
	if err != nil {
		// Degenerate concepts (e.g. all task points identical after an
		// aggressive cleaning round) have no kernel structure to extract;
		// fall back to the raw features as the representation.
		tr = nil
	}
	task := &learn.Task{Concept: concept}
	// Batch projection: one shared kernel-row scratch for the whole task
	// instead of a fresh row per instance.
	var proj [][]float64
	if tr != nil {
		proj = tr.ProjectAll(raw)
	}
	for i, e := range names {
		lbl, labeled := seeds[e]
		x := raw[i]
		if tr != nil {
			x = proj[i]
		}
		task.Instances = append(task.Instances, learn.Instance{
			Name:    e,
			X:       x,
			Raw:     raw[i],
			Label:   lbl,
			Labeled: labeled,
		})
	}
	task.PadTo(s.sharedDim())
	s.tasks.Put(key, task)
	return task, nil
}

// taskSignature hashes the exact inputs a concept's learning task is a
// function of: the sorted instance names, each name's seed label (or
// its absence), the raw feature matrix bit for bit, and the KPCA solver
// configuration. The solver bytes matter for the Session delta-reuse
// path: a cached task embeds the eigensolver's (and kernel precision's)
// numerical fingerprint, so a config that switches solvers mid-flight —
// e.g. the Jacobi escape hatch — must miss rather than replay top-k
// projections. Names are sorted and the matrix rows follow name order,
// so the signature is deterministic; equal signatures mean the
// previously built task is byte-identical to what a rebuild would
// produce.
func taskSignature(concept string, names []string, seeds map[string]dp.Label, raw [][]float64, kcfg kpca.Config) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	_, _ = h.Write([]byte(concept))
	_, _ = h.Write([]byte{0})
	kernel32 := byte(0)
	if kcfg.Kernel32 {
		kernel32 = 1
	}
	_, _ = h.Write([]byte{byte(kcfg.Solver), kernel32})
	u64(uint64(len(names)))
	for i, e := range names {
		_, _ = h.Write([]byte(e))
		if lbl, ok := seeds[e]; ok {
			_, _ = h.Write([]byte{1, byte(lbl)})
		} else {
			_, _ = h.Write([]byte{0, 0})
		}
		for _, v := range raw[i] {
			u64(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

func (s *System) sharedDim() int {
	if s.Cfg.SharedDim > 0 {
		return s.Cfg.SharedDim
	}
	return DefaultConfig().SharedDim
}

// DetectorKind selects a DP detection method (Table 4).
type DetectorKind int

const (
	// DetectMultiTask is the paper's method: semi-supervised multi-task
	// Concept Adaptive Drift Detection.
	DetectMultiTask DetectorKind = iota
	// DetectSemiSupervised trains each concept separately with the
	// manifold regularizer (Eq 15).
	DetectSemiSupervised
	// DetectSupervised is the Random Forest baseline on raw features.
	DetectSupervised
	// DetectRidge is plain least-squares on the KPCA representation
	// (ablation: KPCA without semi-supervision).
	DetectRidge
	// DetectAdHoc1..4 threshold a single raw feature.
	DetectAdHoc1
	DetectAdHoc2
	DetectAdHoc3
	DetectAdHoc4
)

// String names the detection method the way Table 4 labels it.
func (k DetectorKind) String() string {
	switch k {
	case DetectMultiTask:
		return "semi-supervised multi-task"
	case DetectSemiSupervised:
		return "semi-supervised"
	case DetectSupervised:
		return "supervised (random forest)"
	case DetectRidge:
		return "ridge"
	case DetectAdHoc1, DetectAdHoc2, DetectAdHoc3, DetectAdHoc4:
		return fmt.Sprintf("ad-hoc %d", int(k-DetectAdHoc1)+1)
	default:
		return fmt.Sprintf("DetectorKind(%d)", int(k))
	}
}

// Detect runs the chosen detection method over the analysis tasks and
// returns per-concept instance labels (all three classes). A KB without
// any seed labels (e.g. no drift at all) yields an empty label set —
// there is nothing to learn from and nothing to clean.
func (s *System) Detect(a *Analysis, kind DetectorKind) (clean.Labels, error) {
	out := clean.Labels{}
	anyLabels := false
	for _, t := range a.Tasks {
		if t.LabeledCount() > 0 {
			anyLabels = true
			break
		}
	}
	if !anyLabels {
		return out, nil
	}
	switch kind {
	case DetectMultiTask:
		mtCfg := s.Cfg.MultiTask
		mtCfg.ManifoldOf = s.manifoldFor
		s.warmManifolds(a.Tasks, mtCfg.Manifold.WithDefaults())
		res, err := learn.TrainMultiTask(a.Tasks, mtCfg, nil)
		if err != nil {
			return nil, err
		}
		fallback := meanDetector(res.Detectors)
		for _, t := range a.Tasks {
			det := res.Detectors[t.Concept]
			if det == nil {
				// Knowledge transfer to label-less concepts: the averaged
				// detector carries the shared structure.
				det = fallback
			}
			if det == nil {
				continue
			}
			out[t.Concept] = learn.PredictTask(calibrateFor(det, t, a.Tasks), t, false)
		}
	case DetectSemiSupervised:
		for _, t := range a.Tasks {
			det, err := learn.TrainSemiSupervised(t, learn.DefaultSemiSupervisedConfig())
			if err != nil {
				continue // concepts without seeds stay undetected
			}
			out[t.Concept] = learn.PredictTask(calibrateFor(det, t, a.Tasks), t, false)
		}
	case DetectRidge:
		for _, t := range a.Tasks {
			det, err := learn.TrainRidge(t, 1e-2)
			if err != nil {
				continue
			}
			out[t.Concept] = learn.PredictTask(calibrateFor(det, t, a.Tasks), t, false)
		}
	case DetectSupervised:
		// The paper's conventional supervised baseline trains per
		// concept — exactly why it starves on concepts with little seed
		// data (Sec 3: "lots of concepts do not have much training
		// data"). Concepts whose forest cannot be trained stay
		// undetected.
		for _, t := range a.Tasks {
			f, err := learn.TrainForest(t, s.Cfg.Forest)
			if err != nil {
				continue
			}
			out[t.Concept] = learn.PredictTask(f, t, true)
		}
	case DetectAdHoc1, DetectAdHoc2, DetectAdHoc3, DetectAdHoc4:
		featIdx := int(kind - DetectAdHoc1)
		det, err := learn.TrainAdHocPooled(a.Tasks, featIdx)
		if err != nil {
			return nil, err
		}
		for _, t := range a.Tasks {
			out[t.Concept] = learn.PredictTask(det, t, true)
		}
	default:
		return nil, fmt.Errorf("core: unknown detector kind %d", kind)
	}
	for _, t := range a.Tasks {
		guardDPs(out[t.Concept], t)
	}
	return out, nil
}

// warmManifolds fills the manifold memo for every task TrainMultiTask
// will train (those with labels and a non-empty representation), one
// task per worker claim, so training reads only memo hits. Each matrix
// is a pure function of its task, so the build order cannot change a
// bit.
func (s *System) warmManifolds(tasks []*learn.Task, cfg learn.ManifoldConfig) {
	var active []*learn.Task
	for _, t := range tasks {
		if t.LabeledCount() > 0 && t.Dim() > 0 {
			active = append(active, t)
		}
	}
	par.ForChunked(len(active), s.Cfg.workers(), 1, func(i int) {
		s.manifoldFor(active[i], cfg)
	})
}

// manifoldFor is the memoizing learn.MultiTaskConfig.ManifoldOf
// provider: it returns the stored manifold matrix of this task object,
// and builds and stores it otherwise. See System.manifolds for why
// pointer identity is sound.
func (s *System) manifoldFor(t *learn.Task, cfg learn.ManifoldConfig) *linalg.Matrix {
	if a, ok := s.manifolds.Get(t); ok {
		return a
	}
	a := learn.ManifoldMatrix(t, cfg)
	s.manifolds.Put(t, a)
	return a
}

// guardDPs demotes DP predictions with no observable exclusive-class
// signal to non-DP. By Definitions 3 and 4, an Intentional DP is
// polysemous across exclusive concepts (f2 ≥ 1) and an Accidental DP is
// an erroneous extraction whose instance or sub-instances are rooted in
// an exclusive concept (f2 or f6 positive); a "DP" exhibiting neither is
// indistinguishable from a clean trigger with rare sub-instances, the
// dominant false-positive mode.
func guardDPs(labels map[string]dp.Label, t *learn.Task) {
	if labels == nil {
		return
	}
	for _, in := range t.Instances {
		lbl, ok := labels[in.Name]
		if !ok || !lbl.IsDP() || in.Labeled {
			continue
		}
		f2, f6 := in.Raw[1], in.Raw[5]
		switch lbl {
		case dp.Intentional:
			// A polysemous instance shows up in an exclusive concept, and
			// its drift drags a visible cluster across the boundary.
			if f2 == 0 && f6 < 0.2 {
				labels[in.Name] = dp.NonDP
			}
		case dp.Accidental:
			if f2 == 0 && f6 == 0 {
				labels[in.Name] = dp.NonDP
			}
		}
	}
}

// calibrateFor tunes a linear detector's DP margin on the task's own
// seeds when they contain enough examples of *both* sides, and otherwise
// on the pooled seeds of all tasks. A concept whose seeds contain no DP
// examples cannot estimate a margin at all (plain argmax then over-fires
// on every borderline trigger), so borrowing the global margin is the
// same cross-concept transfer that motivates the multi-task objective.
func calibrateFor(det *learn.LinearDetector, t *learn.Task, all []*learn.Task) *learn.CalibratedLinear {
	dpSeeds, nonSeeds := 0, 0
	for _, in := range t.Instances {
		if !in.Labeled {
			continue
		}
		if in.Label.IsDP() {
			dpSeeds++
		} else {
			nonSeeds++
		}
	}
	if dpSeeds >= 1 && nonSeeds >= 1 {
		return learn.Calibrate(det, t)
	}
	return learn.Calibrate(det, all...)
}

// meanDetector averages the W matrices of all trained detectors — the
// shared-structure fallback for concepts without any seed labels.
func meanDetector(dets map[string]*learn.LinearDetector) *learn.LinearDetector {
	var sum *linalg.Matrix
	n := 0
	for _, d := range dets {
		if sum == nil {
			sum = d.W.Clone()
		} else {
			linalg.AddInPlace(sum, 1, d.W)
		}
		n++
	}
	if sum == nil {
		return nil
	}
	return &learn.LinearDetector{W: linalg.Scale(1/float64(n), sum)}
}

// CleanResult reports a full DP-cleaning run.
type CleanResult struct {
	Clean *clean.Result
	// BeforeInstances snapshots each concept's instances prior to
	// cleaning, for before/after evaluation.
	BeforeInstances map[string][]string
}

// CleanDPs runs the iterative detect-and-clean loop of Sec 4 on the
// system's KB using the given detection method, mutating the KB.
func (s *System) CleanDPs(kind DetectorKind) (*CleanResult, error) {
	before := map[string][]string{}
	for _, c := range s.KB.Concepts() {
		before[c] = s.KB.Instances(c)
	}
	var detectErr error
	res := clean.Run(s.KB, func(k *kb.KB) clean.Labels {
		a, err := s.Analyze(k)
		if err != nil {
			detectErr = err
			return clean.Labels{}
		}
		labels, err := s.Detect(a, kind)
		if err != nil {
			detectErr = err
			return clean.Labels{}
		}
		return onlyDPs(labels)
	}, s.cleanConfig())
	if detectErr != nil {
		return nil, detectErr
	}
	return &CleanResult{Clean: res, BeforeInstances: before}, nil
}

// cleanConfig is the propagated cleaning config wired to the system's
// shared score cache, so the Eq 21 walks of the cleaning loop and the
// f3/f4 walks of each round's analysis pass are computed once per
// concept per round, and untouched concepts carry over between rounds.
func (s *System) cleanConfig() clean.Config {
	cfg := s.Cfg.propagate().Clean
	if cfg.Walk == s.ScoreCache().Config() {
		cfg.Cache = s.ScoreCache()
	}
	return cfg
}

// onlyDPs strips non-DP predictions from a label set.
func onlyDPs(labels clean.Labels) clean.Labels {
	out := clean.Labels{}
	for c, m := range labels {
		for e, l := range m {
			if !l.IsDP() {
				continue
			}
			if out[c] == nil {
				out[c] = map[string]dp.Label{}
			}
			out[c][e] = l
		}
	}
	return out
}
