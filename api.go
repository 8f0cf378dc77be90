package driftclean

import (
	"context"
	"errors"
	"fmt"

	"driftclean/internal/core"
	"driftclean/internal/experiments"
	"driftclean/internal/snapshot"
)

// Re-exported pipeline types. Config aggregates every subsystem's
// configuration; System is a built world+corpus+extraction; Analysis is
// the per-KB-state artifact bundle (exclusions, seeds, features, tasks);
// CleanResult reports a cleaning run; Snapshot is an immutable,
// concurrency-safe point-in-time view of a KB, ready for the serving
// layer (internal/serve, cmd/driftserve).
type (
	Config       = core.Config
	System       = core.System
	Analysis     = core.Analysis
	CleanResult  = core.CleanResult
	DetectorKind = core.DetectorKind
	Snapshot     = snapshot.Snapshot
)

// Detection methods (Table 4 of the paper).
const (
	// DetectMultiTask is the paper's method: semi-supervised multi-task
	// Concept Adaptive Drift Detection (Algorithm 1).
	DetectMultiTask = core.DetectMultiTask
	// DetectSemiSupervised trains each concept separately with the
	// manifold regularizer (Eq 15).
	DetectSemiSupervised = core.DetectSemiSupervised
	// DetectSupervised is the conventional per-concept Random Forest.
	DetectSupervised = core.DetectSupervised
	// DetectRidge is plain least squares on the KPCA representation.
	DetectRidge = core.DetectRidge
	// DetectAdHoc1..4 threshold a single DP feature.
	DetectAdHoc1 = core.DetectAdHoc1
	DetectAdHoc2 = core.DetectAdHoc2
	DetectAdHoc3 = core.DetectAdHoc3
	DetectAdHoc4 = core.DetectAdHoc4
)

// Typed sentinel errors returned by the context-first API. Match with
// errors.Is; both may wrap further detail.
var (
	// ErrNoDPsDetected reports that the detector found no drifting
	// points, so cleaning had nothing to do. The accompanying *Report is
	// still fully populated — before and after are simply identical.
	ErrNoDPsDetected = errors.New("driftclean: no drifting points detected")
	// ErrCanceled reports that the run stopped early because the
	// caller's context was canceled or timed out. It wraps the
	// underlying context error, so errors.Is(err, context.Canceled)
	// also matches when applicable.
	ErrCanceled = errors.New("driftclean: run canceled")
	// ErrStagePanic reports that a pipeline stage panicked. The panic is
	// recovered at the API boundary — a stage failure must surface as an
	// error, never crash the process — and the returned error names the
	// stage and wraps the panic value when it was itself an error (so a
	// fault-injected panic still matches its own sentinel via errors.Is).
	ErrStagePanic = errors.New("driftclean: pipeline stage panicked")
)

// runStage executes one pipeline phase, converting a panic — whether
// raised on the calling goroutine or re-thrown by internal/par from a
// worker — into an ErrStagePanic-wrapped error.
func runStage(stage string, fn func()) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if e, ok := r.(error); ok {
			err = fmt.Errorf("%w: %s: %w", ErrStagePanic, stage, e)
			return
		}
		err = fmt.Errorf("%w: %s: %v", ErrStagePanic, stage, r)
	}()
	fn()
	return nil
}

// Phase identifies a stage of a cleaning run, reported through
// WithProgress.
type Phase int

// The phases of a run, in order. PhaseClean repeats once per
// detect-and-clean round.
const (
	// PhaseBuild covers world generation, corpus synthesis and the
	// iterative (drifting) extraction.
	PhaseBuild Phase = iota
	// PhaseClean is one detect-and-clean round; the Round argument
	// carries the 1-based round number.
	PhaseClean
	// PhaseEvaluate computes the report's precision and cleaning
	// metrics against the synthetic ground truth.
	PhaseEvaluate
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseBuild:
		return "build"
	case PhaseClean:
		return "clean"
	case PhaseEvaluate:
		return "evaluate"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Round is the 1-based detect-and-clean round number a progress callback
// receives; it is 0 for the build and evaluate phases.
type Round = int

// Option configures a context-first run. Options are applied in order;
// later options win.
type Option func(*options)

type options struct {
	cfg      Config
	method   DetectorKind
	progress []func(Phase, Round)
}

func newOptions(opts []Option) options {
	o := options{cfg: core.DefaultConfig(), method: DetectMultiTask}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

func (o *options) emit(p Phase, r Round) {
	for _, fn := range o.progress {
		fn(p, r)
	}
}

// WithConfig replaces the default configuration for the run.
func WithConfig(cfg Config) Option {
	return func(o *options) { o.cfg = cfg }
}

// WithMethod selects the DP detection method for CleanContext (the
// default is DetectMultiTask, the paper's method). CleanWithContext
// ignores it — there the method is an explicit argument.
func WithMethod(method DetectorKind) Option {
	return func(o *options) { o.method = method }
}

// WithProgress registers a callback invoked as the run advances:
// (PhaseBuild, 0) before the system is built, (PhaseClean, r) before
// each detect-and-clean round r = 1, 2, ..., and (PhaseEvaluate, 0)
// before final evaluation. Multiple callbacks may be registered; they
// run synchronously on the pipeline goroutine, so they must be fast.
func WithProgress(fn func(Phase, Round)) Option {
	return func(o *options) { o.progress = append(o.progress, fn) }
}

// DefaultConfig returns the standard configuration: a mid-size synthetic
// world whose extraction drifts the way Fig 5(a) of the paper shows.
func DefaultConfig() Config { return core.DefaultConfig() }

// Build generates the world and corpus and runs the iterative extraction
// to its drifted fixpoint.
func Build(cfg Config) *System { return core.Build(cfg) }

// Report summarizes an end-to-end cleaning run.
type Report struct {
	// PrecisionBefore/After are KB precision over all concepts measured
	// against the synthetic ground truth.
	PrecisionBefore, PrecisionAfter float64
	// PError, RError, PCorr, RCorr are the paper's four cleaning
	// dimensions (Table 3), micro-aggregated over all concepts.
	PError, RError, PCorr, RCorr float64
	// PairsBefore/After count distinct isA pairs.
	PairsBefore, PairsAfter int
	// Rounds is the number of detect-and-clean rounds executed, including
	// the terminating round in which the detector found nothing.
	Rounds int
	// Converged reports that cleaning stopped because a round detected no
	// DPs at all (the Sec 4.2 fixpoint) rather than exhausting MaxRounds.
	Converged bool
	// System retains the built (and now cleaned) system for inspection.
	System *System
}

// Snapshot freezes the report's (cleaned) knowledge base into an
// immutable, concurrency-safe view ready to hand to the serving layer:
// pass it to serve.New or serve.Service.Swap. The pipeline may keep
// mutating the underlying KB afterwards; the snapshot is unaffected.
func (r *Report) Snapshot() *Snapshot { return snapshot.Freeze(r.System.KB) }

// CleanContext runs the complete pipeline — build, detect DPs, clean
// iteratively, evaluate — under the given context, as a one-batch
// session: every sentence is ingested in a single Ingest call. For
// incremental batch-by-batch processing with live snapshot publishing,
// use Open directly; CleanContext remains the convenient one-shot form:
//
//	rep, err := driftclean.CleanContext(ctx,
//		driftclean.WithConfig(cfg),
//		driftclean.WithProgress(func(p driftclean.Phase, r driftclean.Round) {
//			log.Printf("%v round %d", p, r)
//		}))
//
// The detection method defaults to DetectMultiTask; override with
// WithMethod. Cancellation is honored between phases and between
// cleaning rounds and reported as ErrCanceled; a run that detects no
// DPs at all returns the (fully populated) report alongside
// ErrNoDPsDetected.
func CleanContext(ctx context.Context, opts ...Option) (*Report, error) {
	o := newOptions(opts)
	return CleanWithContext(ctx, o.method, opts...)
}

// CleanWithContext is CleanContext with an explicit detection method:
// it opens a Session, ingests the entire corpus as one batch, and
// closes the session, returning that single checkpoint's report.
func CleanWithContext(ctx context.Context, method DetectorKind, opts ...Option) (*Report, error) {
	sess, err := Open(ctx, append(append([]Option(nil), opts...), WithMethod(method))...)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.Ingest(ctx, sess.Sentences())
}

// canceledErr wraps the context error in the ErrCanceled sentinel.
func canceledErr(ctxErr error) error {
	if ctxErr == nil {
		return ErrCanceled
	}
	return fmt.Errorf("%w: %w", ErrCanceled, ctxErr)
}

// Experiment types re-exported from the experiments engine. An
// ExperimentTable holds the rows/series one table or figure of the paper
// reports; ExperimentOptions scales the run.
type (
	ExperimentTable   = experiments.Table
	ExperimentOptions = experiments.Options
	ExperimentRunner  = experiments.Runner
)

// DefaultExperimentOptions returns the standard experiment scale.
func DefaultExperimentOptions() ExperimentOptions { return experiments.Default() }

// NewExperimentRunner builds the system once; its methods regenerate the
// individual tables and figures.
func NewExperimentRunner(opts ExperimentOptions) *ExperimentRunner {
	return experiments.NewRunner(opts)
}

// ExperimentIDs lists the regenerable experiments in paper order:
// table1..table5, fig2..fig4, fig5a..fig5c.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one experiment by ID on a fresh runner. For
// several experiments, build a runner once with NewExperimentRunner.
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentTable, error) {
	return experiments.NewRunner(opts).ByID(id)
}
