package kpca

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"driftclean/internal/floats"
	"driftclean/internal/linalg"
)

// quickCfg bounds the number of random cases per property.
var quickCfg = &quick.Config{MaxCount: 40}

// randomPoints generates n d-dimensional points with mild spread — the
// shape of the standardized feature vectors kpca actually sees.
func randomPoints(seed int64, n, d int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	return x
}

// TestQuickKernelSymmetric: the RBF kernel is symmetric, bounded in
// (0, 1], and exactly 1 on the diagonal — for any gamma and any pair of
// points.
func TestQuickKernelSymmetric(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Transform{gamma: 0.1 + rng.Float64()*5}
		a := make([]float64, 5)
		b := make([]float64, 5)
		for i := range a {
			a[i] = rng.NormFloat64() * 3
			b[i] = rng.NormFloat64() * 3
		}
		// exp(-gamma·d²) can underflow to exactly 0 for distant points,
		// so the lower bound is inclusive.
		ab, ba, aa := tr.kernel(a, b), tr.kernel(b, a), tr.kernel(a, a)
		return floats.Equal(ab, ba) && floats.Equal(aa, 1) && ab >= 0 && ab <= 1
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickCenteringIdempotent: double-centering a kernel matrix leaves
// zero row means and a zero grand mean, so centering an already-centered
// matrix is the identity.
func TestQuickCenteringIdempotent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		k := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			k.Set(i, i, 1)
			for j := i + 1; j < n; j++ {
				v := rng.Float64()
				k.Set(i, j, v)
				k.Set(j, i, v)
			}
		}
		kc, _, _ := centerKernel(k)
		kc2, rowMeans, grand := centerKernel(kc)
		if !floats.IsZero(grand) {
			return false
		}
		for _, m := range rowMeans {
			if !floats.IsZero(m) {
				return false
			}
		}
		for i := range kc.Data {
			if !floats.Equal(kc.Data[i], kc2.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickCenteringPreservesSymmetry: HKH of a symmetric matrix is
// symmetric.
func TestQuickCenteringPreservesSymmetry(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		k := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.Float64()
				k.Set(i, j, v)
				k.Set(j, i, v)
			}
		}
		kc, _, _ := centerKernel(k)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !floats.Equal(kc.At(i, j), kc.At(j, i)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickProjectionDimensions: a fitted transform never exceeds
// MaxComponents, and Project/ProjectAll always emit exactly
// Components() coordinates regardless of the input batch.
func TestQuickProjectionDimensions(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		d := 2 + rng.Intn(5)
		maxC := 1 + rng.Intn(8)
		x := randomPoints(seed, n, d)
		tr, err := Fit(x, Config{MaxComponents: maxC})
		if err != nil {
			return false
		}
		if tr.Components() < 1 || tr.Components() > maxC {
			return false
		}
		fresh := randomPoints(seed+1, 3, d)
		for _, p := range tr.ProjectAll(fresh) {
			if len(p) != tr.Components() {
				return false
			}
		}
		return len(tr.Project(x[0])) == tr.Components()
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickProjectedTrainingMeanIsZero: KPCA centers feature space, so
// the training points' projections must average to zero per component.
func TestQuickProjectedTrainingMeanIsZero(t *testing.T) {
	prop := func(seed int64) bool {
		x := randomPoints(seed, 12, 4)
		tr, err := Fit(x, Config{MaxComponents: 6})
		if err != nil {
			return false
		}
		proj := tr.ProjectAll(x)
		for p := 0; p < tr.Components(); p++ {
			var mean float64
			for i := range proj {
				mean += proj[i][p]
			}
			mean /= float64(len(proj))
			if !floats.EqualTol(mean, 0, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSelectKthMatchesSort: selectKth returns, bit for bit, the
// element sort.Float64s places at index k, for every k. Half the cases
// draw from at most eight values, so that long runs of duplicates occur
// (the shape of pairwise distances among repeated feature vectors); the
// other half are mostly distinct.
func TestQuickSelectKthMatchesSort(t *testing.T) {
	f := func(seed int64, size uint8, dups bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)
		values := make([]float64, n)
		if dups {
			values = values[:1+rng.Intn(min(n, 8))]
		}
		for i := range values {
			values[i] = rng.ExpFloat64()
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = values[rng.Intn(len(values))]
		}
		sorted := append([]float64(nil), x...)
		sort.Float64s(sorted)
		for k := 0; k < n; k++ {
			scratch := append([]float64(nil), x...)
			if got := selectKth(scratch, k); math.Float64bits(got) != math.Float64bits(sorted[k]) {
				t.Logf("n=%d k=%d: selectKth = %v, sort = %v", n, k, got, sorted[k])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}
