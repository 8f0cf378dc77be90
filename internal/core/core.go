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
	"sync"

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
	// per-task manifold builds, solves and calibrations of multi-task
	// detection, and the cleaning score prewarm. The default (0, or any
	// value below 1) uses every CPU; 1 forces the serial path
	// everywhere, which is the A/B lever behind the determinism
	// guarantee — output is identical at any setting. Subsystem configs
	// that set their own Parallelism keep it.
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
	if c.MultiTask.Parallelism == 0 {
		c.MultiTask.Parallelism = c.Parallelism
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
// A System memoizes analysis work across calls. Every per-concept
// artifact of an analysis pass is keyed on the concept's KB-maintained
// digest (kb.ConceptDigest), so finding out that a concept is unchanged
// costs O(1) and a hit rebuilds nothing: its random-walk scores (the
// shared score cache), its instance and core lists, its sub(e) index
// and — through an index keyed on the digest plus the cross-concept
// counts the task reads — its learning task. Behind those, content-addressed memos keyed on
// the computed inputs (the task's feature matrix, the walk's trigger
// graph, the task pointer for manifold matrices) still catch a concept
// whose records changed without changing the artifact. The oracle
// report is memoized the same way: each concept's pair counts on its
// digest, and its cleaning metrics on its digests before and after
// cleaning (KBPrecision, Cleaning). Every memo keeps
// two generations; Ingestor rotates them once per committed checkpoint,
// and a System driven without one (a batch run) stays in a single
// generation. Like the KB itself, a System's orchestration methods
// (Analyze, Detect, CleanDPs) are not safe for concurrent use.
type System struct {
	Cfg        Config
	World      *world.World
	Corpus     *corpus.Corpus
	Extraction *extract.Result
	KB         *kb.KB
	Oracle     *eval.Oracle

	// scoreCache is the cross-round walk cache, created lazily by the
	// first Analyze. It remembers walks by concept digest across KBs.
	scoreCache *rank.Cache
	// walkMemo backs scoreCache on a digest miss with graph-signature-
	// keyed walk reuse: a concept whose records changed but whose
	// trigger graph some recent round already walked skips the power
	// iteration.
	walkMemo *rank.WalkMemo
	// lists holds each concept's instance list, core and core term,
	// keyed on (symbol table, concept, digest): the core is held by ID.
	// subIndexes holds each concept's kb.SubIndex, keyed on (concept,
	// digest). Entries are shared by every pass that hits them, so they
	// are read-only.
	lists      memo.Memo[listKey, conceptLists]
	subIndexes memo.Memo[conceptKey, map[string][]string]
	// mutexes memoizes mutual-exclusion discovery keyed on its complete
	// input (mutexKey): the symbol table, the config, and every active
	// concept with its core. Most one-sentence checkpoints leave every
	// core as it was, so their passes skip the discovery.
	mutexes memo.Memo[mutexKey, *mutex.Analysis]
	// taskIndex maps a concept's upstream task key (taskInputKey) to the
	// task memo key its inputs produced, so a hit skips seed labelling,
	// the feature matrix and taskSignature.
	taskIndex memo.Memo[conceptKey, taskRef]
	// tasks memoizes learning tasks keyed by concept and a signature of
	// the task's exact inputs (instance names, seed labels, raw feature
	// matrix). A task is a pure function of those inputs and the fixed
	// config, so a hit skips the KPCA fit and projection — the dominant
	// analysis cost — and returns the stored task verbatim.
	tasks memo.Memo[conceptKey, *learn.Task]
	// manifolds memoizes each task's manifold regularizer matrix (Eq 17)
	// keyed on the task pointer. Cached tasks are returned
	// pointer-identical, a rebuilt task is a fresh allocation, and the
	// matrix is a pure function of the task under the fixed config — so
	// pointer identity is exactly "same matrix", and detection skips the
	// O(n²) k-NN graph for every task it has seen before.
	manifolds memo.Memo[*learn.Task, *linalg.Matrix]
	// pairCounts memoizes each concept's oracle pair counts
	// (eval.Oracle.PairCounts) keyed on (concept, digest), and cleanings
	// each concept's eval.CleaningMetrics keyed on (concept, digest
	// before cleaning, digest after), so a checkpoint's report re-scores
	// only the concepts whose records changed (KBPrecision, Cleaning).
	pairCounts memo.Memo[conceptKey, [2]int]
	cleanings  memo.Memo[cleaningKey, eval.CleaningMetrics]
}

// conceptKey names one concept's artifact by a 64-bit key of its
// inputs: a kb.ConceptDigest, a taskInputKey or a taskSignature.
type conceptKey struct {
	concept string
	key     uint64
}

// cleaningKey names a concept's cleaning metrics by the concept's
// digest before and after cleaning.
type cleaningKey struct {
	concept       string
	before, after uint64
}

// listKey keys a concept's lists: IDs are only meaningful on the table
// that assigned them.
type listKey struct {
	syms *kb.Symbols
	conceptKey
}

// conceptLists is a concept's kb.Instances list, its core E(C, 1) by ID
// (kb.CoreSyms) and the core's term of the mutex memo key (coreTerm).
type conceptLists struct {
	instances []string
	core      []kb.Sym
	term      uint64
}

// mutexKey names a mutual-exclusion analysis by its complete input: the
// symbol table its IDs belong to, the discovery thresholds, and the
// ordered fold of every active concept's coreTerm.
type mutexKey struct {
	syms *kb.Symbols
	cfg  mutex.Config
	key  uint64
}

// coreTerm is one concept's term of the mutex memo key: its name and the
// set of its core instances, each read by its stored name hash, so the
// term does not depend on the order of the core or on the table's IDs.
// A concept with an empty core still has a term of its own.
func coreTerm(syms *kb.Symbols, concept kb.Sym, core []kb.Sym) uint64 {
	var set uint64
	for _, e := range core {
		set += memo.Mix(syms.Hash(e))
	}
	return memo.Mix(memo.Mix(syms.Hash(concept)+uint64(len(core))) + set)
}

// taskRef is a task index entry: the task memo key of the concept's
// task, or none when the concept has too few candidates for a task.
type taskRef struct {
	key  conceptKey
	none bool
}

// ScoreCache returns the system's shared cross-round random-walk cache,
// creating it on first use. Its configuration matches the feature
// extractor's (rank.DefaultConfig), which is also the cleaning loop's
// default Eq 21 walk configuration. The cache remembers walks by
// concept digest across KBs (rank.Cache) and computes a digest miss
// through the system's signature-keyed walk memo, so a concept whose
// records or trigger graph some recent round already had reuses its
// scores across rounds and checkpoint replays.
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

// rotateMemos ends a generation of every memo: entries no analysis pass
// has used since the previous rotation are dropped.
func (s *System) rotateMemos() {
	s.lists.Rotate()
	s.subIndexes.Rotate()
	s.mutexes.Rotate()
	s.taskIndex.Rotate()
	s.tasks.Rotate()
	s.manifolds.Rotate()
	s.pairCounts.Rotate()
	s.cleanings.Rotate()
	if s.scoreCache != nil {
		s.scoreCache.Rotate()
	}
	if s.walkMemo != nil {
		s.walkMemo.Rotate()
	}
}

// listsOf returns the concept's instance list, core and core term from
// the list memo, listing them on a digest miss. The lists are shared.
func (s *System) listsOf(k *kb.KB, concept string) conceptLists {
	key := listKey{k.Symbols(), conceptKey{concept, k.ConceptDigest(concept)}}
	return s.lists.Load(key, func() conceptLists {
		c, _ := k.Sym(concept)
		core := k.CoreSyms(c)
		return conceptLists{k.Instances(concept), core, coreTerm(k.Symbols(), c, core)}
	})
}

// mutexOf returns the mutual-exclusion analysis of the given concepts
// (k.Concepts()) and their lists from the mutex memo, running the
// discovery on a miss. Equal keys mean an equal analysis: discovery is
// a function of the table (its IDs), the thresholds, the sorted concept
// list and each concept's core set, and the key folds the table, the
// thresholds and every concept's coreTerm in list order, closed by the
// list's length. The analysis is shared.
func (s *System) mutexOf(k *kb.KB, concepts []string, lists []conceptLists) *mutex.Analysis {
	acc := uint64(0)
	for _, l := range lists {
		acc = memo.Mix(acc + l.term)
	}
	key := mutexKey{k.Symbols(), s.Cfg.Mutex, memo.Mix(acc + uint64(len(lists)))}
	return s.mutexes.Load(key, func() *mutex.Analysis {
		cores := make([][]kb.Sym, len(lists))
		for i, l := range lists {
			cores[i] = l.core
		}
		return mutex.Build(k.Symbols(), concepts, cores, s.Cfg.Mutex)
	})
}

// subIndexOf returns the concept's kb.SubIndex from the sub(e) memo,
// computing it on a digest miss. The index is shared.
func (s *System) subIndexOf(k *kb.KB, concept string) map[string][]string {
	key := conceptKey{concept, k.ConceptDigest(concept)}
	return s.subIndexes.Load(key, func() map[string][]string { return k.SubIndex(concept) })
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
// Each concept's instance list and core E(C, 1) come from the list memo
// keyed on the concept's digest, and are listed (kb.Instances,
// kb.CoreSyms) only on a miss. The cores key and feed mutual-exclusion
// discovery, itself memoized on them (mutexOf); the instance lists
// decide task eligibility, build the feature extractor's class
// distributions, and feed each concept's buildTask.
// Walks and class distributions are computed lazily, only for the
// concepts whose task build misses its index; a walk comes from the
// shared score cache (ScoreCache), keyed on the concept's digest.
func (s *System) Analyze(k *kb.KB) (*Analysis, error) {
	s.Cfg.Fault.Check("core.analyze")
	parallelism := s.Cfg.workers()
	concepts := k.Concepts()
	lists := make([]conceptLists, len(concepts))
	par.ForChunked(len(concepts), parallelism, 1, func(i int) {
		lists[i] = s.listsOf(k, concepts[i])
	})
	instances := make(map[string][]string, len(concepts))
	var eligible []string
	for i, concept := range concepts {
		instances[concept] = lists[i].instances
		if len(lists[i].instances) >= s.Cfg.MinTaskInstances {
			eligible = append(eligible, concept)
		}
	}
	a := &Analysis{Mutex: s.mutexOf(k, concepts, lists)}
	a.Labeler = seedlabel.New(k, a.Mutex, s.Cfg.Seed)
	a.Features = feature.NewExtractorWithCache(k, a.Mutex, s.ScoreCache(), instances)

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
		tasks[i], errs[i] = s.buildTask(k, a, eligible[i], instances[eligible[i]])
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
	return a, nil
}

// buildTask assembles the learning task of one concept from its
// instance list: candidates are the triggering instances plus every
// seed-labeled instance; raw features are transformed by a per-concept
// KPCA fitted on (capped) task points.
//
// Two memos stand in front of that work. The task index is keyed on
// taskInputKey, which covers every value seed labelling and f1–f6 read,
// so an index hit returns the stored task without labelling seeds,
// computing the concept's sub(e) index or feature matrix, or hashing
// it. On an index miss the task is assembled — with the sub(e) index
// from its digest-keyed memo, shared by the candidate filter, the seed
// labeler and the feature matrix — and looked up in the task memo by
// taskSignature, the exact inputs of the expensive tail (KPCA fit,
// projection, padding). A task is a pure function of (names, seed
// labels, raw feature matrix) under the system's fixed config, so an
// identical signature returns that task bit for bit; only a miss there
// pays for a KPCA fit. Either way the index learns the mapping.
func (s *System) buildTask(k *kb.KB, a *Analysis, concept string, instances []string) (*learn.Task, error) {
	in := conceptKey{concept, taskInputKey(k, a, concept)}
	ref, indexed := s.taskIndex.Get(in)
	if indexed {
		if ref.none {
			return nil, nil
		}
		if task, ok := s.tasks.Get(ref.key); ok {
			return task, nil
		}
	}
	subs := s.subIndexOf(k, concept)
	seeds := a.Labeler.Seeds(concept, instances, subs)
	names := make([]string, 0, len(subs)+len(seeds))
	for e := range subs {
		names = append(names, e)
	}
	for e := range seeds {
		if _, triggered := subs[e]; !triggered {
			names = append(names, e)
		}
	}
	sort.Strings(names)
	if len(names) < 2 {
		s.taskIndex.Put(in, taskRef{none: true})
		return nil, nil
	}
	raw := a.Features.Matrix(concept, names, subs)

	key := ref.key
	if !indexed {
		// An indexed entry whose task was evicted already knows its key
		// and has counted the task memo's miss.
		key = conceptKey{concept, taskSignature(concept, names, seeds, raw)}
		if task, ok := s.tasks.Get(key); ok {
			s.taskIndex.Put(in, taskRef{key: key})
			return task, nil
		}
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
	s.taskIndex.Put(in, taskRef{key: key})
	return task, nil
}

// taskInputKey is the upstream key of a concept's learning task: it
// covers every value the task reads — through seed labelling
// (Labeler.Label, EvidencedIncorrect, driftEvidence) and the f1–f6
// features — so equal keys mean equal tasks. Those values are:
//
//   - the concept's own records (its digest): instance list, core,
//     counts, sub(e) sets and trigger graph;
//   - for every instance e with a pair record under the concept, and
//     every concept O holding e that is mutually exclusive with it, the
//     tuple (O, Count(O, e), FirstIter(O, e) ≤ 1): f2 and f6 compare
//     Count(O, e) with fixed thresholds, and Rules 1 and 2 ask whether e
//     is evidenced correct for O, which is core membership plus a count.
//
// Instances are combined by a sum of mixed terms, so the key does not
// depend on map order; an instance held by no exclusive concept adds
// nothing, which is unambiguous since its tuple list is empty.
func taskInputKey(k *kb.KB, a *Analysis, concept string) uint64 {
	// The fold reads the KB and the exclusion relation by ID and each
	// name's stored hash, never a string.
	c, known := k.Sym(concept)
	var sum uint64
	if known && a.Mutex.HasExclusive(c) {
		syms := k.Symbols()
		var tuples uint64
		fold := func(r kb.Record) {
			if !a.Mutex.ExclusiveSym(c, r.Concept) {
				return
			}
			core := uint64(0)
			if r.FirstIter <= 1 {
				core = 1
			}
			tuples += memo.Mix(memo.Mix(syms.Hash(r.Concept)+uint64(r.Count)) + core)
		}
		k.EachRecord(c, func(r kb.Record) {
			tuples = 0
			k.EachHolder(r.Instance, fold)
			if tuples != 0 {
				sum += memo.Mix(syms.Hash(r.Instance) + tuples)
			}
		})
	}
	return memo.Mix(memo.Mix(k.ConceptDigest(concept))) + sum
}

// taskSignature hashes the exact inputs a concept's learning task is a
// function of: the sorted instance names, each name's seed label (or
// its absence) and the raw feature matrix bit for bit. Names are sorted
// and the matrix rows follow name order, so the signature is
// deterministic; equal signatures mean the previously built task is
// byte-identical to what a rebuild would produce.
func taskSignature(concept string, names []string, seeds map[string]dp.Label, raw [][]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	_, _ = h.Write([]byte(concept))
	_, _ = h.Write([]byte{0})
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
//
// For the multi-task method, each task's calibration and prediction run
// over the Config.Parallelism workers, one task per claim, into
// per-task slots; the label map and the DP guard are then filled
// serially in task order, so the result is identical at any setting.
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
		labels := predictMultiTask(a.Tasks, res.Detectors, s.Cfg.workers())
		for i, t := range a.Tasks {
			if labels[i] != nil {
				out[t.Concept] = labels[i]
			}
		}
	case DetectSemiSupervised:
		seeds := learn.NewSeedSet(a.Tasks...)
		for _, t := range a.Tasks {
			det, err := learn.TrainSemiSupervised(t, learn.DefaultSemiSupervisedConfig())
			if err != nil {
				continue // concepts without seeds stay undetected
			}
			out[t.Concept] = learn.PredictTask(calibrateFor(det, t, seeds), t, false)
		}
	case DetectRidge:
		seeds := learn.NewSeedSet(a.Tasks...)
		for _, t := range a.Tasks {
			det, err := learn.TrainRidge(t, 1e-2)
			if err != nil {
				continue
			}
			out[t.Concept] = learn.PredictTask(calibrateFor(det, t, seeds), t, false)
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

// predictMultiTask calibrates each task's trained detector (calibrateFor)
// and labels the task's instances with it, before the DP guard, one task
// per worker claim; labels[i] is nil when no detector was trained at
// all. The pooled seeds are gathered once for the pass and read by
// every pooled calibration. Knowledge transfer to label-less concepts:
// a task without a detector gets the averaged one, which carries the
// shared structure. TrainMultiTask trains every task that has seeds, so
// such a task has none and calibrateFor would pool it: all of them
// share one pooled calibration, computed by the first worker to need it.
func predictMultiTask(tasks []*learn.Task, dets map[string]*learn.LinearDetector, workers int) []map[string]dp.Label {
	seeds := learn.NewSeedSet(tasks...)
	fallback := meanDetector(dets)
	pooled := sync.OnceValue(func() *learn.CalibratedLinear {
		return seeds.Calibrate(fallback)
	})
	labels := make([]map[string]dp.Label, len(tasks))
	par.ForChunked(len(tasks), workers, 1, func(i int) {
		t := tasks[i]
		var cal *learn.CalibratedLinear
		switch det := dets[t.Concept]; {
		case det != nil:
			cal = calibrateFor(det, t, seeds)
		case fallback == nil:
			return
		default:
			cal = pooled()
		}
		labels[i] = learn.PredictTask(cal, t, false)
	})
	return labels
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
	return s.manifolds.Load(t, func() *linalg.Matrix { return learn.ManifoldMatrix(t, cfg) })
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
// seeds when they contain examples of *both* sides (learn.SeedSet's
// BothSides), and otherwise on the pooled seeds of all tasks, gathered
// once per pass. A concept whose seeds contain no DP examples cannot
// estimate a margin at all (plain argmax then over-fires on every
// borderline trigger), so borrowing the global margin is the same
// cross-concept transfer that motivates the multi-task objective. The
// pooled result depends only on the detector and the seeds, which is
// why Detect computes it once for all tasks sharing the fallback
// detector.
func calibrateFor(det *learn.LinearDetector, t *learn.Task, pooled learn.SeedSet) *learn.CalibratedLinear {
	if own := learn.NewSeedSet(t); own.BothSides() {
		return own.Calibrate(det)
	}
	return pooled.Calibrate(det)
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
	// cleaning, for before/after evaluation, and BeforeDigests each
	// concept's kb.ConceptDigest at the same point. The lists are shared
	// with the system's memos and are read-only.
	BeforeInstances map[string][]string
	BeforeDigests   map[string]uint64
}

// CleanDPs runs the iterative detect-and-clean loop of Sec 4 on the
// system's KB using the given detection method, mutating the KB.
func (s *System) CleanDPs(kind DetectorKind) (*CleanResult, error) {
	before := map[string][]string{}
	digests := map[string]uint64{}
	for _, c := range s.KB.Concepts() {
		before[c] = s.listsOf(s.KB, c).instances
		digests[c] = s.KB.ConceptDigest(c)
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
	return &CleanResult{Clean: res, BeforeInstances: before, BeforeDigests: digests}, nil
}

// KBPrecision is s.Oracle.KBPrecision(k, nil), each concept's pair
// counts read from the pair-count memo and counted only on a miss. The
// counts are integers, so the sum, and the ratio, equal the direct one.
func (s *System) KBPrecision(k *kb.KB) float64 {
	correct, total := 0, 0
	for _, c := range k.Concepts() {
		n := s.pairCounts.Load(conceptKey{c, k.ConceptDigest(c)}, func() [2]int {
			correct, total := s.Oracle.PairCounts(k, c)
			return [2]int{correct, total}
		})
		correct += n[0]
		total += n[1]
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// Cleaning merges (eval.MergeCleaning), in sorted concept order, each
// concept's s.Oracle.Cleaning(concept, cr.BeforeInstances[concept],
// s.KB), read from the cleaning memo and computed only on a miss.
func (s *System) Cleaning(cr *CleanResult) eval.CleaningMetrics {
	concepts := make([]string, 0, len(cr.BeforeInstances))
	for c := range cr.BeforeInstances {
		concepts = append(concepts, c)
	}
	sort.Strings(concepts)
	per := make([]eval.CleaningMetrics, len(concepts))
	for i, c := range concepts {
		per[i] = s.cleanings.Load(cleaningKey{c, cr.BeforeDigests[c], s.KB.ConceptDigest(c)}, func() eval.CleaningMetrics {
			return s.Oracle.Cleaning(c, cr.BeforeInstances[c], s.KB)
		})
	}
	return eval.MergeCleaning(per)
}

// cleanConfig is the propagated cleaning config wired to the system's
// shared score cache, so the Eq 21 walks of the cleaning loop and the
// f3/f4 walks of each round's analysis pass are computed once per
// concept digest, and unchanged concepts carry over between rounds.
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
