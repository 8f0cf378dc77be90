package learn

import (
	"fmt"
	"math"

	"driftclean/internal/linalg"
	"driftclean/internal/par"
)

// MultiTaskConfig controls Concept Adaptive Drift Detection (Algorithm 1).
type MultiTaskConfig struct {
	Manifold ManifoldConfig
	// Lambda weighs the manifold term, Beta the shared ℓ2,1 structure,
	// Gamma the global Frobenius penalty (λ, β, γ of Eq 18).
	Lambda, Beta, Gamma float64
	// MaxIter bounds the outer iterations; Tol is the relative objective
	// decrease that counts as convergence.
	MaxIter int
	Tol     float64
	// Seed randomizes the W initialization (step 1 of Algorithm 1).
	Seed int64
	// Epsilon guards the D update against zero rows: Dii = 1/(2·max(ε,‖wi‖)).
	Epsilon float64
	// ManifoldOf, when non-nil, supplies each task's manifold matrix A
	// (Eq 17) instead of building it from scratch. It is called with the
	// effective (default-filled) ManifoldConfig. The matrix is a pure
	// function of (task, config), so callers that keep tasks alive across
	// training runs can memoize it — TrainMultiTask only reads A. A
	// provider must return exactly ManifoldMatrix(t, cfg), and be safe
	// to call from several goroutines at once.
	ManifoldOf func(t *Task, cfg ManifoldConfig) *linalg.Matrix
	// Parallelism is the worker count over which each iteration spreads
	// its per-task solves and objective terms (par.Workers: 0 or less
	// uses every CPU, 1 runs serially). The result is bit-identical at
	// any setting.
	Parallelism int
}

// DefaultMultiTaskConfig returns the settings used in experiments
// (Fig 5c runs 20 iterations).
func DefaultMultiTaskConfig() MultiTaskConfig {
	return MultiTaskConfig{
		Manifold: DefaultManifoldConfig(),
		Lambda:   0.05,
		Beta:     0.3,
		Gamma:    0.3,
		MaxIter:  20,
		Tol:      1e-7,
		Seed:     1,
		Epsilon:  1e-8,
	}
}

// MultiTaskResult carries the trained detectors and training trajectory.
type MultiTaskResult struct {
	Detectors map[string]*LinearDetector
	// Objective holds the Eq 18 value after each outer iteration;
	// Theorem 1 guarantees it is non-increasing.
	Objective []float64
	// Iterations is the number of outer iterations executed.
	Iterations int
}

// IterationHook is called after each outer iteration with the current
// per-concept detectors (used by Fig 5c to trace accuracy).
type IterationHook func(iter int, detectors map[string]*LinearDetector)

// TrainMultiTask runs Algorithm 1 over the given tasks jointly. All tasks
// must share the transformed dimensionality (use Task.PadTo); tasks
// without labeled instances are skipped.
//
// The tasks couple only through D, which each iteration computes
// serially from every task's W. Given D, each task's Wc update (Eq 20)
// and its terms of the Eq 18 objective read nothing of other tasks, so
// they run one task per claim over cfg.Parallelism workers into
// per-task slots; the terms are then summed serially in task order, and
// the hook is called on the calling goroutine, so every result is
// bit-identical to a serial run.
func TrainMultiTask(tasks []*Task, cfg MultiTaskConfig, hook IterationHook) (*MultiTaskResult, error) {
	def := DefaultMultiTaskConfig()
	if cfg.Lambda <= 0 {
		cfg.Lambda = def.Lambda
	}
	if cfg.Beta <= 0 {
		cfg.Beta = def.Beta
	}
	if cfg.Gamma <= 0 {
		cfg.Gamma = def.Gamma
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = def.MaxIter
	}
	if cfg.Tol <= 0 {
		cfg.Tol = def.Tol
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = def.Epsilon
	}
	cfg.Manifold = cfg.Manifold.WithDefaults()
	manifold := cfg.ManifoldOf
	if manifold == nil {
		manifold = ManifoldMatrix
	}

	var active []*Task
	for _, t := range tasks {
		if t.LabeledCount() > 0 && t.Dim() > 0 {
			active = append(active, t)
		}
	}
	if len(active) == 0 {
		return nil, fmt.Errorf("learn: no task has labeled instances")
	}
	r := active[0].Dim()
	for _, t := range active {
		if t.Dim() != r {
			return nil, fmt.Errorf("learn: task %q has dimension %d, want %d (PadTo first)", t.Concept, t.Dim(), r)
		}
	}

	// Precompute per-task constants — Xl, Xlᵀ, Y, Xl·Y, A and the
	// iteration-invariant part of Eq 20's left-hand side, Xl·Xlᵀ + λA —
	// one task per claim; W is initialized serially, in task order, from
	// one seeded stream.
	workers := par.Workers(cfg.Parallelism)
	states := make([]*taskState, len(active))
	par.ForChunked(len(active), workers, 1, func(i int) {
		t := active[i]
		xl, y, m := labeledMatrices(t)
		xlT := xl.T()
		st := &taskState{
			task:  t,
			xlT:   xlT,
			y:     y,
			lhs:   linalg.Mul(xl, xlT),
			xy:    linalg.Mul(xl, y),
			a:     manifold(t, cfg.Manifold),
			w:     linalg.NewMatrix(r, 3),
			shift: linalg.NewMatrix(r, r),
			pred:  linalg.NewMatrix(m, 3),
			wT:    linalg.NewMatrix(3, r),
			wTa:   linalg.NewMatrix(3, r),
			wTaw:  linalg.NewMatrix(3, 3),
			solve: make([]float64, 2*r),
		}
		linalg.AddInPlace(st.lhs, cfg.Lambda, st.a)
		states[i] = st
	})
	rng := newRng(cfg.Seed)
	for _, st := range states {
		for j := range st.w.Data {
			st.w.Data[j] = rng.NormFloat64() * 0.01
		}
	}

	res := &MultiTaskResult{Detectors: make(map[string]*LinearDetector, len(states))}
	emit := func(iter int) {
		for _, st := range states {
			res.Detectors[st.task.Concept] = &LinearDetector{W: st.w}
		}
		if hook != nil {
			hook(iter, res.Detectors)
		}
	}

	prevObj := math.Inf(1)
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		// Step: update D from the current stacked W (feature rows across
		// all tasks and classes): Dii = 1/(2‖w_i‖).
		d := make([]float64, r)
		for i := 0; i < r; i++ {
			var rowSq float64
			for _, st := range states {
				for j := 0; j < 3; j++ {
					v := st.w.At(i, j)
					rowSq += v * v
				}
			}
			norm := math.Sqrt(rowSq)
			if norm < cfg.Epsilon {
				norm = cfg.Epsilon
			}
			d[i] = 1 / (2 * norm)
		}
		// Step: closed-form Wc update (Eq 20) and the task's objective
		// terms under it.
		par.ForChunked(len(states), workers, 1, func(ti int) {
			st := states[ti]
			copy(st.shift.Data, st.lhs.Data)
			for i := 0; i < r; i++ {
				st.shift.Add(i, i, cfg.Lambda*cfg.Beta*d[i]+cfg.Lambda*cfg.Gamma)
			}
			if st.err = st.lu.Refactor(st.shift); st.err != nil {
				return
			}
			// A fresh W each iteration: the hook may keep the detectors
			// it was handed.
			st.w = linalg.NewMatrix(r, 3)
			st.lu.SolveInto(st.w, st.xy, st.solve)
			st.terms()
		})
		for _, st := range states {
			if st.err != nil {
				return nil, fmt.Errorf("learn: multi-task solve for %q at iteration %d: %w",
					st.task.Concept, iter, st.err)
			}
		}
		obj := multiTaskObjective(states, cfg)
		res.Objective = append(res.Objective, obj)
		res.Iterations = iter
		emit(iter)
		if prevObj-obj >= 0 && prevObj-obj < cfg.Tol*(1+math.Abs(obj)) {
			break
		}
		prevObj = obj
	}
	return res, nil
}

// taskState caches the per-task constants of Algorithm 1, the task's
// current detector, its solve error and objective terms, and the
// scratch its iterations reuse. The solve and products through scratch
// are SolveLinear's and Mul's bit for bit (linalg.LU.Refactor,
// linalg.MulInto).
type taskState struct {
	task *Task
	xlT  *linalg.Matrix
	y    *linalg.Matrix
	// lhs is Xl·Xlᵀ + λA.
	lhs *linalg.Matrix
	xy  *linalg.Matrix
	a   *linalg.Matrix
	w   *linalg.Matrix
	err error
	// lossNorm is ‖Xlᵀ·Wc − Y‖F, trace Tr(WcᵀAWc) and wNorm ‖Wc‖F.
	lossNorm, trace, wNorm float64

	// shift is lhs plus the iteration's diagonal; pred, wT, wTa and
	// wTaw hold the objective's products.
	shift, pred, wT, wTa, wTaw *linalg.Matrix
	lu                         linalg.LU
	solve                      []float64
}

// terms computes the task's objective terms under its current W.
func (st *taskState) terms() {
	linalg.MulInto(st.pred, st.xlT, st.w)
	for i, v := range st.y.Data {
		st.pred.Data[i] -= v
	}
	st.lossNorm = st.pred.FrobeniusNorm()
	linalg.TransposeInto(st.wT, st.w)
	linalg.MulInto(st.wTa, st.wT, st.a)
	linalg.MulInto(st.wTaw, st.wTa, st.w)
	st.trace = st.wTaw.Trace()
	st.wNorm = st.w.FrobeniusNorm()
}

// multiTaskObjective evaluates Eq 18 for the current detector stack
// from each task's terms, summed in task order.
func multiTaskObjective(states []*taskState, cfg MultiTaskConfig) float64 {
	var loss, manifold, frob float64
	r := states[0].w.Rows
	stacked := linalg.NewMatrix(r, 3*len(states))
	for si, st := range states {
		f := st.lossNorm
		loss += f * f
		manifold += st.trace
		fw := st.wNorm
		frob += fw * fw
		for i := 0; i < r; i++ {
			for j := 0; j < 3; j++ {
				stacked.Set(i, si*3+j, st.w.At(i, j))
			}
		}
	}
	return loss + cfg.Lambda*(manifold+cfg.Beta*l21Norm(stacked)+cfg.Gamma*frob)
}
