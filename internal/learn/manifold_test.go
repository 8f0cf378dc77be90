package learn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"driftclean/internal/floats"
	"driftclean/internal/linalg"
)

// oracleNearestNeighbors is the reference k-NN selection: it sorts all
// n−1 candidates of every row by (squared distance, index) and keeps the
// first k.
func oracleNearestNeighbors(t *Task, k int) [][]int {
	n := len(t.Instances)
	out := make([][]int, n)
	type cand struct {
		idx int
		d2  float64
	}
	for i := 0; i < n; i++ {
		cands := make([]cand, 0, n-1)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			cands = append(cands, cand{j, sqDist(t.Instances[i].X, t.Instances[j].X)})
		}
		sort.Slice(cands, func(a, b int) bool {
			if !floats.Identical(cands[a].d2, cands[b].d2) {
				return cands[a].d2 < cands[b].d2
			}
			return cands[a].idx < cands[b].idx
		})
		idxs := make([]int, k)
		for j := 0; j < k; j++ {
			idxs[j] = cands[j].idx
		}
		out[i] = idxs
	}
	return out
}

// oracleManifoldMatrix is the reference Eq 17 build: fresh matrices for
// every neighborhood, linalg.Inverse for the local inverse, and the
// sort-based neighbor selection.
func oracleManifoldMatrix(t *Task, cfg ManifoldConfig) *linalg.Matrix {
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
	neigh := oracleNearestNeighbors(t, k)
	h := centeringMatrix(k + 1)
	for i := 0; i < n; i++ {
		xi := linalg.NewMatrix(r, k+1)
		cols := append([]int{i}, neigh[i]...)
		for c, idx := range cols {
			for row := 0; row < r; row++ {
				xi.Set(row, c, t.Instances[idx].X[row])
			}
		}
		xh := linalg.Mul(xi, h)
		mid := linalg.Mul(xh, xi.T())
		for d := 0; d < r; d++ {
			mid.Add(d, d, cfg.LocalLambda)
		}
		li := h.Clone()
		if inv, err := linalg.Inverse(mid); err == nil {
			li = linalg.SubM(h, linalg.Mul(linalg.Mul(xh.T(), inv), xh))
		}
		linalg.AddInPlace(a, 1, linalg.Mul(linalg.Mul(xi, li), xi.T()))
	}
	a.Symmetrize()
	return linalg.Scale(1/float64(n), a)
}

// tieTask builds an n-point task in r dims whose coordinates are small
// integers drawn from a pool of `distinct` points, so duplicates (zero
// distances) and equal distances between distinct points are common.
// The first labeled points are marked labeled for manifoldSubset.
func tieTask(rng *rand.Rand, n, r, distinct, labeled int) *Task {
	pool := make([][]float64, distinct)
	for p := range pool {
		pool[p] = make([]float64, r)
		for d := range pool[p] {
			pool[p][d] = float64(rng.Intn(5) - 2)
		}
	}
	t := &Task{Concept: "ties"}
	for i := 0; i < n; i++ {
		x := append([]float64(nil), pool[rng.Intn(distinct)]...)
		t.Instances = append(t.Instances, Instance{Name: fmt.Sprint(i), X: x, Labeled: i < labeled})
	}
	return t
}

// gaussTask builds an n-point task of Gaussian coordinates with a few
// exact duplicates copied in.
func gaussTask(rng *rand.Rand, n, r int) *Task {
	t := &Task{Concept: "gauss"}
	for i := 0; i < n; i++ {
		x := make([]float64, r)
		if i > 0 && rng.Intn(8) == 0 {
			copy(x, t.Instances[rng.Intn(i)].X)
		} else {
			for d := range x {
				x[d] = rng.NormFloat64()
			}
		}
		t.Instances = append(t.Instances, Instance{Name: fmt.Sprint(i), X: x, Labeled: i%7 == 0})
	}
	return t
}

// neighborKs is the differential k set {1, 2, n−2, n−1}, limited to the
// valid range 1 ≤ k ≤ n−1.
func neighborKs(n int) []int {
	var ks []int
	for _, k := range []int{1, 2, n - 2, n - 1} {
		if k >= 1 && k <= n-1 && (len(ks) == 0 || ks[len(ks)-1] < k) {
			ks = append(ks, k)
		}
	}
	return ks
}

func TestNearestNeighborsMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	max := DefaultManifoldConfig().MaxPoints
	for _, n := range []int{2, 3, 4, 9, 33, 120, max} {
		tasks := []*Task{
			tieTask(rng, n, 12, 1, 0), // every point identical
			tieTask(rng, n, 3, 1+n/3, 0),
			tieTask(rng, n, 12, 1+n/2, 0),
			gaussTask(rng, n, 12),
		}
		for ti, task := range tasks {
			for _, k := range neighborKs(n) {
				got := nearestNeighbors(task, k)
				want := oracleNearestNeighbors(task, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d task %d k=%d: bounded selection differs from the sort oracle", n, ti, k)
				}
			}
		}
	}
}

// requireBitIdentical fails unless a and b have the same shape and the
// same bits in every entry.
func requireBitIdentical(t *testing.T, what string, got, want *linalg.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %d×%d, want %d×%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: entry %d is %v, want %v (bits differ)", what, i, v, want.Data[i])
		}
	}
}

func TestManifoldMatrixMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	def := DefaultManifoldConfig()
	cases := []struct {
		name string
		task *Task
	}{
		{"gauss-40", gaussTask(rng, 40, 12)},
		{"gauss-over-cap", gaussTask(rng, def.MaxPoints+90, 12)},
		{"ties-60", tieTask(rng, 60, 12, 15, 6)},
		{"all-identical", tieTask(rng, 12, 12, 1, 2)},
		{"two-points", gaussTask(rng, 2, 12)},
	}
	for _, c := range cases {
		n := len(c.task.Instances)
		ks := append(neighborKs(n), def.K, n+3)
		if n > def.MaxPoints {
			// Past the cap the k-NN graph runs on the stride sample;
			// k near n would cost O(n³) per neighborhood here, and the
			// selection itself is covered at every k above.
			ks = []int{1, 2, def.K}
		}
		for _, k := range ks {
			// λ = 0 on duplicate-heavy neighborhoods makes the local
			// system singular, which exercises the centering fallback.
			for _, lambda := range []float64{def.LocalLambda, 0} {
				cfg := ManifoldConfig{K: k, LocalLambda: lambda, MaxPoints: def.MaxPoints}
				requireBitIdentical(t, fmt.Sprintf("%s k=%d λ=%v", c.name, k, lambda),
					ManifoldMatrix(c.task, cfg), oracleManifoldMatrix(c.task, cfg))
			}
		}
	}
}
