package learn

import (
	"fmt"
	"math"

	"driftclean/internal/linalg"
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
	// provider must return exactly ManifoldMatrix(t, cfg).
	ManifoldOf func(t *Task, cfg ManifoldConfig) *linalg.Matrix
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

	// Precompute per-task constants: Xl, Y, Xl·Xlᵀ, Xl·Y, A.
	states := make([]*taskState, len(active))
	rng := newRng(cfg.Seed)
	for i, t := range active {
		xl, y, _ := labeledMatrices(t)
		st := &taskState{
			task: t,
			xl:   xl,
			y:    y,
			xxT:  linalg.Mul(xl, xl.T()),
			xy:   linalg.Mul(xl, y),
			a:    manifold(t, cfg.Manifold),
			w:    linalg.NewMatrix(r, 3),
		}
		for j := range st.w.Data {
			st.w.Data[j] = rng.NormFloat64() * 0.01
		}
		states[i] = st
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
		// Step: closed-form Wc update (Eq 20).
		for _, st := range states {
			lhs := st.xxT.Clone()
			linalg.AddInPlace(lhs, cfg.Lambda, st.a)
			for i := 0; i < r; i++ {
				lhs.Add(i, i, cfg.Lambda*cfg.Beta*d[i]+cfg.Lambda*cfg.Gamma)
			}
			w, err := linalg.SolveLinear(lhs, st.xy)
			if err != nil {
				return nil, fmt.Errorf("learn: multi-task solve for %q at iteration %d: %w",
					st.task.Concept, iter, err)
			}
			st.w = w
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

// taskState caches the per-task constants of Algorithm 1.
type taskState struct {
	task *Task
	xl   *linalg.Matrix
	y    *linalg.Matrix
	xxT  *linalg.Matrix
	xy   *linalg.Matrix
	a    *linalg.Matrix
	w    *linalg.Matrix
}

// multiTaskObjective evaluates Eq 18 for the current detector stack.
func multiTaskObjective(states []*taskState, cfg MultiTaskConfig) float64 {
	var loss, manifold, frob float64
	r := states[0].w.Rows
	stacked := linalg.NewMatrix(r, 3*len(states))
	for si, st := range states {
		// ‖Xlᵀ·Wc − Y‖²F
		pred := linalg.Mul(st.xl.T(), st.w)
		diff := linalg.SubM(pred, st.y)
		f := diff.FrobeniusNorm()
		loss += f * f
		// Tr(WcᵀAWc)
		manifold += linalg.Mul(linalg.Mul(st.w.T(), st.a), st.w).Trace()
		fw := st.w.FrobeniusNorm()
		frob += fw * fw
		for i := 0; i < r; i++ {
			for j := 0; j < 3; j++ {
				stacked.Set(i, si*3+j, st.w.At(i, j))
			}
		}
	}
	return loss + cfg.Lambda*(manifold+cfg.Beta*l21Norm(stacked)+cfg.Gamma*frob)
}
