// Package kpca implements the kernel Principal Component Analysis of
// Sec 3.3.1 (Schölkopf et al., 1998): a non-linear mapping of the raw
// 4-dimensional DP features into a Hilbert space, followed by PCA on the
// centered kernel matrix. Its purpose in the paper is to prevent a
// detector trained on the rule-labeled seeds — whose labels are built
// from the mutual-exclusion relation — from over-fitting to the single f2
// dimension.
//
// Only the top MaxComponents eigenpairs are consumed, so Fit recovers
// exactly that many eigenvectors via linalg.EigenSymTopK. The
// full-spectrum Jacobi solver (linalg.EigenSym) is the oracle the
// differential tests check it against.
package kpca

import (
	"fmt"
	"math"

	"driftclean/internal/linalg"
)

// Config controls the transformation.
type Config struct {
	// Gamma is the RBF kernel width k(x,y) = exp(-gamma*||x-y||²).
	// Gamma <= 0 selects the median heuristic: 1 / (2·median²) over
	// pairwise training distances.
	Gamma float64
	// MaxComponents caps the output dimensionality r; 0 means no cap.
	MaxComponents int
	// MinEigenvalue discards components with eigenvalues below this
	// multiple of the largest eigenvalue.
	MinEigenvalue float64
}

// DefaultConfig caps the representation at 12 components — enough
// kernel-space expressiveness for the 5 raw features while keeping the
// multi-task W matrices small.
func DefaultConfig() Config {
	return Config{Gamma: 0, MaxComponents: 12, MinEigenvalue: 1e-8}
}

// Transform is a fitted kernel-PCA mapping.
type Transform struct {
	train  [][]float64 // standardized training points
	means  []float64
	stds   []float64
	gamma  float64
	alphas *linalg.Matrix // n×r normalized eigenvector coefficients
	rowMNs []float64      // row means of the uncentered kernel matrix
	allMN  float64        // grand mean of the uncentered kernel matrix
	r      int
}

// Fit learns the transformation from training feature vectors. It returns
// an error when fewer than two points are supplied.
func Fit(x [][]float64, cfg Config) (*Transform, error) {
	return fit(x, cfg, linalg.EigenSymTopK)
}

// fit is Fit with the eigensolver as a parameter: eig(kc, k) returns at
// least the top k eigenpairs of kc, eigenvalues descending and
// eigenvectors as columns. Tests pass the full-spectrum Jacobi solver
// as the oracle.
func fit(x [][]float64, cfg Config, eig func(a *linalg.Matrix, k int) ([]float64, *linalg.Matrix)) (*Transform, error) {
	n := len(x)
	if n < 2 {
		return nil, fmt.Errorf("kpca: need at least 2 training points, got %d", n)
	}
	if cfg.MaxComponents <= 0 {
		cfg.MaxComponents = n
	}
	if cfg.MinEigenvalue <= 0 {
		cfg.MinEigenvalue = DefaultConfig().MinEigenvalue
	}
	d := len(x[0])
	t := &Transform{}
	t.means, t.stds = columnStats(x)
	t.train = make([][]float64, n)
	for i, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("kpca: ragged input: row %d has %d features, want %d", i, len(row), d)
		}
		t.train[i] = t.standardize(row)
	}
	t.gamma = cfg.Gamma
	if t.gamma <= 0 {
		t.gamma = medianHeuristic(t.train)
	}

	// Uncentered kernel matrix, filled through the flat backing array.
	k := linalg.NewMatrix(n, n)
	kd := k.Data
	for i := 0; i < n; i++ {
		kd[i*n+i] = 1
		for j := i + 1; j < n; j++ {
			v := t.kernel(t.train[i], t.train[j])
			kd[i*n+j] = v
			kd[j*n+i] = v
		}
	}
	// Save means for centering test points, then center: K' = HKH.
	kc, rowMNs, allMN := centerKernel(k)
	t.rowMNs, t.allMN = rowMNs, allMN

	// The component budget r is at most MaxComponents, so the solver
	// only recovers that many eigenvectors.
	vals, vecs := eig(kc, min(cfg.MaxComponents, n))
	if len(vals) == 0 || vals[0] <= 0 {
		return nil, fmt.Errorf("kpca: centered kernel matrix has no positive eigenvalues")
	}
	r := 0
	for r < len(vals) && r < cfg.MaxComponents && vals[r] > cfg.MinEigenvalue*vals[0] {
		r++
	}
	t.r = r
	// Normalize eigenvectors so projected coordinates have unit variance
	// structure: alpha_p = v_p / sqrt(lambda_p). vecs has at least r
	// columns (n from the full-spectrum oracle), so read it by its stride.
	t.alphas = linalg.NewMatrix(n, r)
	ad, vd, stride := t.alphas.Data, vecs.Data, vecs.Cols
	for p := 0; p < r; p++ {
		scale := 1 / math.Sqrt(vals[p])
		for i := 0; i < n; i++ {
			ad[i*r+p] = vd[i*stride+p] * scale
		}
	}
	return t, nil
}

// Components returns the output dimensionality r.
func (t *Transform) Components() int { return t.r }

// Gamma returns the fitted kernel width.
func (t *Transform) Gamma() float64 { return t.gamma }

// Project maps one raw feature vector into the r-dimensional KPCA space.
func (t *Transform) Project(x []float64) []float64 {
	out := make([]float64, t.r)
	t.projectInto(x, out, newScratch(t))
	return out
}

// ProjectAll maps a batch of raw feature vectors. The kernel-row and
// standardization scratch buffers are allocated once and reused across
// points, and the output rows share one backing array — batch projection
// costs two scratch slices plus the result instead of a kernel row per
// point.
func (t *Transform) ProjectAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	if len(x) == 0 {
		return out
	}
	sc := newScratch(t)
	flat := make([]float64, len(x)*t.r)
	for i, row := range x {
		o := flat[i*t.r : (i+1)*t.r : (i+1)*t.r]
		t.projectInto(row, o, sc)
		out[i] = o
	}
	return out
}

// scratch holds the per-projection working buffers: the standardized
// input and the kernel row against the training points.
type scratch struct {
	z  []float64
	kx []float64
}

func newScratch(t *Transform) *scratch {
	d := 0
	if len(t.train) > 0 {
		d = len(t.train[0])
	}
	return &scratch{z: make([]float64, d), kx: make([]float64, len(t.train))}
}

// projectInto computes one projection into out (len t.r, zeroed). The
// arithmetic matches the original per-point formulation operation for
// operation: the centered kernel row entries are the same expressions,
// and each out[p] accumulates over i in ascending order exactly as the
// p-outer loop did — only the loop nest is inverted so the alphas matrix
// is walked row-major.
func (t *Transform) projectInto(x, out []float64, sc *scratch) {
	z := sc.z
	for i, v := range x {
		z[i] = (v - t.means[i]) / t.stds[i]
	}
	n := len(t.train)
	// Kernel row against training points, centered consistently with Fit.
	kx := sc.kx
	var mean float64
	for i, tr := range t.train {
		kx[i] = t.kernel(z, tr)
		mean += kx[i]
	}
	mean /= float64(n)
	r := t.r
	ad := t.alphas.Data
	for i := 0; i < n; i++ {
		centered := kx[i] - mean - t.rowMNs[i] + t.allMN
		arow := ad[i*r : i*r+r : i*r+r]
		for p, a := range arow {
			out[p] += a * centered
		}
	}
}

// centerKernel applies the double-centering K' = HKH (H = I − 11ᵀ/n) to
// a square kernel matrix, returning the centered matrix together with
// the row means and grand mean of the input — the statistics Project
// needs to center out-of-sample kernel rows consistently. Centering is
// idempotent: an already-centered matrix has zero row means and a zero
// grand mean, so a second application is the identity.
func centerKernel(k *linalg.Matrix) (kc *linalg.Matrix, rowMeans []float64, grandMean float64) {
	n := k.Rows
	rowMeans = make([]float64, n)
	kd := k.Data
	for i := 0; i < n; i++ {
		row := kd[i*n : i*n+n : i*n+n]
		var s float64
		for _, v := range row {
			s += v
		}
		rowMeans[i] = s / float64(n)
		grandMean += s
	}
	grandMean /= float64(n * n)
	kc = linalg.NewMatrix(n, n)
	cd := kc.Data
	for i := 0; i < n; i++ {
		row := kd[i*n : i*n+n : i*n+n]
		crow := cd[i*n : i*n+n : i*n+n]
		rm := rowMeans[i]
		for j, v := range row {
			crow[j] = v - rm - rowMeans[j] + grandMean
		}
	}
	return kc, rowMeans, grandMean
}

func (t *Transform) kernel(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		diff := a[i] - b[i]
		d2 += diff * diff
	}
	return math.Exp(-t.gamma * d2)
}

func (t *Transform) standardize(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = (v - t.means[i]) / t.stds[i]
	}
	return out
}

func columnStats(x [][]float64) (means, stds []float64) {
	n := float64(len(x))
	d := len(x[0])
	means = make([]float64, d)
	stds = make([]float64, d)
	for _, row := range x {
		for i, v := range row {
			means[i] += v
		}
	}
	for i := range means {
		means[i] /= n
	}
	for _, row := range x {
		for i, v := range row {
			diff := v - means[i]
			stds[i] += diff * diff
		}
	}
	for i := range stds {
		stds[i] = math.Sqrt(stds[i] / n)
		if stds[i] < 1e-12 {
			stds[i] = 1 // constant feature: leave centered values at 0
		}
	}
	return means, stds
}

// medianHeuristic returns 1/(2·median²) of pairwise distances, the
// standard RBF width choice. Quadratic in n; sampled above 512 points.
func medianHeuristic(x [][]float64) float64 {
	n := len(x)
	step := 1
	if n > 512 {
		step = n / 512
	}
	m := (n + step - 1) / step
	dists := make([]float64, 0, m*(m-1)/2)
	for i := 0; i < n; i += step {
		for j := i + step; j < n; j += step {
			var d2 float64
			for k := range x[i] {
				diff := x[i][k] - x[j][k]
				d2 += diff * diff
			}
			dists = append(dists, math.Sqrt(d2))
		}
	}
	if len(dists) == 0 {
		return 1
	}
	med := selectKth(dists, len(dists)/2)
	if med < 1e-9 {
		return 1
	}
	return 1 / (2 * med * med)
}

// selectKth returns the element an ascending sort of x would place at
// index k, reordering x in place (quickselect). The value is the same
// order statistic sort.Float64s yields for NaN-free input, so the
// result is bit-identical to sorting and indexing, in expected linear
// time. Three-way partitioning keeps runs of duplicate values, common
// among pairwise distances of repeated feature vectors, linear too.
func selectKth(x []float64, k int) float64 {
	lo, hi := 0, len(x)-1
	for lo < hi {
		pivot := x[lo+(hi-lo)/2]
		// Invariant: x[lo:lt] < pivot, x[lt:i] equal to it, x[gt+1:hi+1] > pivot.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch {
			case x[i] < pivot:
				x[lt], x[i] = x[i], x[lt]
				lt++
				i++
			case x[i] > pivot:
				x[i], x[gt] = x[gt], x[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return x[k]
		}
	}
	return x[k]
}
