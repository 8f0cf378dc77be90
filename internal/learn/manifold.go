package learn

import "driftclean/internal/linalg"

// ManifoldConfig controls the semi-supervised manifold regularizer of
// Eqs 9–14.
type ManifoldConfig struct {
	// K is the number of nearest neighbors per local predictor.
	K int
	// LocalLambda is the ridge term inside each local predictor (the λ of
	// Eq 12/14).
	LocalLambda float64
	// MaxPoints caps the instances used to build the manifold matrix:
	// above the cap a deterministic stride sample is used (labeled
	// points always included). The k-NN step is O(n²) otherwise.
	MaxPoints int
}

// DefaultManifoldConfig returns k=5 neighborhoods with mild local ridge.
func DefaultManifoldConfig() ManifoldConfig {
	return ManifoldConfig{K: 5, LocalLambda: 0.1, MaxPoints: 500}
}

// WithDefaults returns the config TrainMultiTask builds manifold
// matrices with: c itself, or DefaultManifoldConfig when c.K is unset.
// A caller that prebuilds matrices for TrainMultiTask's ManifoldOf
// resolves its config here so both sides agree.
func (c ManifoldConfig) WithDefaults() ManifoldConfig {
	if c.K <= 0 {
		return DefaultManifoldConfig()
	}
	return c
}

// ManifoldMatrix computes a task's manifold regularizer matrix A. It is
// a pure function of the task's instances and the config — the identity
// MultiTaskConfig.ManifoldOf providers must preserve.
func ManifoldMatrix(t *Task, cfg ManifoldConfig) *linalg.Matrix {
	return buildManifoldMatrix(t, cfg)
}

// buildManifoldMatrix computes A = X̃·(Σ_i S_i·L_i·S_iᵀ)·X̃ᵀ (Eq 17) over
// all instances of the task, labeled and unlabeled alike. Rather than
// materializing the n×n selection product, it accumulates the equivalent
// per-neighborhood contribution X̃_i·L_i·X̃_iᵀ, where X̃_i is the r×(k+1)
// matrix of instance i's neighborhood.
func buildManifoldMatrix(t *Task, cfg ManifoldConfig) *linalg.Matrix {
	t = manifoldSubset(t, cfg.MaxPoints)
	n := len(t.Instances)
	r := t.Dim()
	a := linalg.NewMatrix(r, r)
	if n == 0 || r == 0 {
		return a
	}
	k := cfg.K
	if k >= n {
		k = n - 1
	}
	if k < 1 {
		return a
	}
	neigh := nearestNeighbors(t, k)
	ws := newLocalScratch(r, k+1)
	for i := 0; i < n; i++ {
		// X̃_i: columns are x̃_i and its k nearest neighbors.
		for c := 0; c <= k; c++ {
			idx := i
			if c > 0 {
				idx = neigh[i][c-1]
			}
			for row, v := range t.Instances[idx].X[:r] {
				ws.xi.Set(row, c, v)
			}
		}
		// A += X̃_i·L_i·X̃_iᵀ.
		linalg.AddInPlace(a, 1, ws.contribution(cfg.LocalLambda))
	}
	a.Symmetrize()
	// Normalize to a per-neighborhood mean: the Eq 17 sum grows with the
	// (mostly unlabeled) instance count n while the empirical loss grows
	// with the labeled count m, so without normalization the manifold
	// term drowns the labels on label-poor concepts.
	return linalg.Scale(1/float64(n), a)
}

// manifoldSubset returns t unchanged when it fits under limit points,
// and otherwise a view keeping every labeled instance plus a
// deterministic stride sample of the unlabeled ones.
func manifoldSubset(t *Task, limit int) *Task {
	if limit <= 0 || len(t.Instances) <= limit {
		return t
	}
	sub := &Task{Concept: t.Concept}
	var unlabeled []Instance
	for _, in := range t.Instances {
		if in.Labeled {
			sub.Instances = append(sub.Instances, in)
		} else {
			unlabeled = append(unlabeled, in)
		}
	}
	room := limit - len(sub.Instances)
	if room <= 0 {
		return sub
	}
	stride := (len(unlabeled) + room - 1) / room
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(unlabeled); i += stride {
		sub.Instances = append(sub.Instances, unlabeled[i])
	}
	return sub
}

// localScratch holds every intermediate of one neighborhood's Eq 14
// term, sized once per manifold build and reused across its n
// neighborhoods. The products run through linalg.MulInto and the inverse
// through LU.Refactor and LU.SolveInto — the kernels linalg.Mul and
// linalg.Inverse themselves run — in the same order as the allocating
// formula, so the result is that formula's bit for bit.
type localScratch struct {
	h         *linalg.Matrix // m×m centering matrix H
	xi, xiT   *linalg.Matrix // r×m X̃_i and its transpose
	xh, xhT   *linalg.Matrix // r×m X̃_i·H and its transpose
	mid, inv  *linalg.Matrix // r×r X̃_i·H·X̃_iᵀ + λI and its inverse
	ident     *linalg.Matrix // r×r right-hand side of the inverse
	xhTinv    *linalg.Matrix // m×r (X̃_i·H)ᵀ·inv
	corr, l   *linalg.Matrix // m×m correction and L_i
	xl        *linalg.Matrix // r×m X̃_i·L_i
	out       *linalg.Matrix // r×r X̃_i·L_i·X̃_iᵀ
	lu        linalg.LU
	solveBufs []float64
}

// newLocalScratch sizes the scratch for r-dimensional points and
// m = k+1 columns per neighborhood.
func newLocalScratch(r, m int) *localScratch {
	return &localScratch{
		h:         centeringMatrix(m),
		xi:        linalg.NewMatrix(r, m),
		xiT:       linalg.NewMatrix(m, r),
		xh:        linalg.NewMatrix(r, m),
		xhT:       linalg.NewMatrix(m, r),
		mid:       linalg.NewMatrix(r, r),
		inv:       linalg.NewMatrix(r, r),
		ident:     linalg.Identity(r),
		xhTinv:    linalg.NewMatrix(m, r),
		corr:      linalg.NewMatrix(m, m),
		l:         linalg.NewMatrix(m, m),
		xl:        linalg.NewMatrix(r, m),
		out:       linalg.NewMatrix(r, r),
		solveBufs: make([]float64, 2*r),
	}
}

// contribution returns X̃_i·L_i·X̃_iᵀ for the neighborhood currently in
// ws.xi. The result aliases ws and is overwritten by the next call.
func (ws *localScratch) contribution(lambda float64) *linalg.Matrix {
	linalg.TransposeInto(ws.xiT, ws.xi)
	ws.localL(lambda)
	linalg.MulInto(ws.xl, ws.xi, ws.l)
	linalg.MulInto(ws.out, ws.xl, ws.xiT)
	return ws.out
}

// localL computes L_i = H − H·X̃_iᵀ·(X̃_i·H·X̃_iᵀ + λI)⁻¹·X̃_i·H (Eq 14)
// into ws.l, reading X̃_i from ws.xi and its transpose from ws.xiT.
func (ws *localScratch) localL(lambda float64) {
	r := ws.xi.Rows
	linalg.MulInto(ws.xh, ws.xi, ws.h) // r×(k+1)
	linalg.MulInto(ws.mid, ws.xh, ws.xiT)
	for i := 0; i < r; i++ {
		ws.mid.Add(i, i, lambda)
	}
	if err := ws.lu.Refactor(ws.mid); err != nil {
		// λI keeps mid positive definite in theory; fall back to pure
		// centering if numerical degeneracy still bites.
		copy(ws.l.Data, ws.h.Data)
		return
	}
	ws.lu.SolveInto(ws.inv, ws.ident, ws.solveBufs)
	// L = H − (X̃H)ᵀ·inv·(X̃H)  — using H symmetric and idempotent.
	linalg.TransposeInto(ws.xhT, ws.xh)
	linalg.MulInto(ws.xhTinv, ws.xhT, ws.inv)
	linalg.MulInto(ws.corr, ws.xhTinv, ws.xh)
	for i, hv := range ws.h.Data {
		ws.l.Data[i] = hv - ws.corr.Data[i]
	}
}

// centeringMatrix returns H = I − (1/m)·11ᵀ.
func centeringMatrix(m int) *linalg.Matrix {
	h := linalg.NewMatrix(m, m)
	inv := 1 / float64(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				h.Set(i, j, 1-inv)
			} else {
				h.Set(i, j, -inv)
			}
		}
	}
	return h
}

// nearestNeighbors returns, for each instance, the indexes of its k
// nearest neighbors (1 ≤ k < n) by Euclidean distance in the transformed
// space, nearest first, ties broken by the lower index for determinism.
// Each row keeps a sorted list of the k best candidates so far and
// inserts into it, O(n·k) per row instead of sorting all n−1 candidates;
// the order is the same total order, so the indexes are the same.
// Coordinates are assumed finite.
func nearestNeighbors(t *Task, k int) [][]int {
	n := len(t.Instances)
	out := make([][]int, n)
	flat := make([]int, n*k)
	d2 := make([]float64, k)
	for i := 0; i < n; i++ {
		idxs := flat[i*k : (i+1)*k : (i+1)*k]
		kept := 0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := sqDist(t.Instances[i].X, t.Instances[j].X)
			// j ascends, so a candidate at a kept distance ranks after
			// it: only a strictly smaller distance moves it up.
			if kept == k && d >= d2[k-1] {
				continue
			}
			if kept < k {
				kept++
			}
			// Insert at the last slot (the free one, or over the
			// dropped k-th best) and shift up past every larger distance.
			p := kept - 1
			for ; p > 0 && d < d2[p-1]; p-- {
				d2[p], idxs[p] = d2[p-1], idxs[p-1]
			}
			d2[p], idxs[p] = d, j
		}
		out[i] = idxs
	}
	return out
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
