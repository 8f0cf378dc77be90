package kpca

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"driftclean/internal/linalg"
)

// fitJacobi fits through the full-spectrum Jacobi solver, the oracle
// the top-k path is checked against.
func fitJacobi(x [][]float64, cfg Config) (*Transform, error) {
	return fit(x, cfg, func(a *linalg.Matrix, _ int) ([]float64, *linalg.Matrix) { return linalg.EigenSym(a) })
}

func twoBlobs(rng *rand.Rand, n int) ([][]float64, []int) {
	x := make([][]float64, n)
	labels := make([]int, n)
	for i := range x {
		cls := i % 2
		labels[i] = cls
		center := float64(cls) * 6
		x[i] = []float64{
			center + rng.NormFloat64(),
			center + rng.NormFloat64(),
			rng.NormFloat64(),
			rng.NormFloat64(),
		}
	}
	return x, labels
}

func TestFitRejectsTooFewPoints(t *testing.T) {
	if _, err := Fit([][]float64{{1, 2}}, DefaultConfig()); err == nil {
		t.Error("Fit with one point should fail")
	}
}

func TestFitRejectsRaggedInput(t *testing.T) {
	if _, err := Fit([][]float64{{1, 2}, {1}}, DefaultConfig()); err == nil {
		t.Error("Fit with ragged rows should fail")
	}
}

func TestComponentsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, _ := twoBlobs(rng, 40)
	tr, err := Fit(x, Config{MaxComponents: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Components() > 5 || tr.Components() < 1 {
		t.Errorf("Components = %d, want in [1,5]", tr.Components())
	}
	if got := len(tr.Project(x[0])); got != tr.Components() {
		t.Errorf("projection length %d != components %d", got, tr.Components())
	}
}

func TestProjectionPreservesSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, labels := twoBlobs(rng, 60)
	tr, err := Fit(x, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	proj := tr.ProjectAll(x)
	// Class centroids in KPCA space must be farther apart than the
	// average intra-class spread on the first component.
	var mean [2]float64
	var count [2]int
	for i, p := range proj {
		mean[labels[i]] += p[0]
		count[labels[i]]++
	}
	mean[0] /= float64(count[0])
	mean[1] /= float64(count[1])
	var spread float64
	for i, p := range proj {
		d := p[0] - mean[labels[i]]
		spread += d * d
	}
	spread = math.Sqrt(spread / float64(len(proj)))
	gap := math.Abs(mean[0] - mean[1])
	if gap < spread {
		t.Errorf("first-component class gap %v below intra-class spread %v", gap, spread)
	}
}

func TestTrainingProjectionsCentered(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, _ := twoBlobs(rng, 30)
	tr, err := Fit(x, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	proj := tr.ProjectAll(x)
	for p := 0; p < tr.Components(); p++ {
		var mean float64
		for _, row := range proj {
			mean += row[p]
		}
		mean /= float64(len(proj))
		if math.Abs(mean) > 1e-6 {
			t.Errorf("component %d training mean %v, want ~0", p, mean)
		}
	}
}

func TestGammaMedianHeuristicPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, _ := twoBlobs(rng, 20)
	tr, err := Fit(x, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Gamma() <= 0 {
		t.Errorf("Gamma = %v, want > 0", tr.Gamma())
	}
}

func TestExplicitGammaRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, _ := twoBlobs(rng, 20)
	tr, err := Fit(x, Config{Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Gamma() != 0.5 {
		t.Errorf("Gamma = %v, want 0.5", tr.Gamma())
	}
}

func TestConstantFeatureHandled(t *testing.T) {
	x := [][]float64{{1, 7}, {2, 7}, {3, 7}, {4, 7}}
	tr, err := Fit(x, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.ProjectAll(x) {
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("constant feature produced NaN/Inf projection")
			}
		}
	}
}

// Property: projections are deterministic and finite for random data.
func TestQuickProjectFinite(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + int(r.Int31n(20))
		x := make([][]float64, n)
		for i := range x {
			x[i] = []float64{r.NormFloat64(), r.NormFloat64() * 10, r.Float64(), float64(r.Intn(3))}
		}
		tr, err := Fit(x, DefaultConfig())
		if err != nil {
			return false
		}
		p1 := tr.Project(x[0])
		p2 := tr.Project(x[0])
		for i := range p1 {
			if p1[i] != p2[i] || math.IsNaN(p1[i]) || math.IsInf(p1[i], 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// alignSignsTo flips each component column of got so its projection of
// the first training point matches want's sign — the eigenvector sign is
// the one freedom the two solvers are allowed to disagree on.
func alignSignsTo(want, got [][]float64) {
	if len(want) == 0 {
		return
	}
	for p := range want[0] {
		// Use the row with the largest reference magnitude for a stable
		// sign read.
		best, bestAbs := 0, 0.0
		for i := range want {
			if a := math.Abs(want[i][p]); a > bestAbs {
				best, bestAbs = i, a
			}
		}
		if want[best][p]*got[best][p] < 0 {
			for i := range got {
				got[i][p] = -got[i][p]
			}
		}
	}
}

// TestSolverEquivalence: the top-k path and the Jacobi oracle must
// produce the same fitted transform — same component count, same
// projections up to the per-component sign freedom — on KPCA's own input
// family, not just on the linalg-level differential suite.
func TestSolverEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, _ := twoBlobs(rng, 60)
	topk, err := Fit(x, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	jac, err := fitJacobi(x, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if topk.Components() != jac.Components() {
		t.Fatalf("component count differs: topk %d vs jacobi %d", topk.Components(), jac.Components())
	}
	if math.Abs(topk.Gamma()-jac.Gamma()) > 1e-15 {
		t.Fatalf("gamma differs: %v vs %v", topk.Gamma(), jac.Gamma())
	}
	tp := topk.ProjectAll(x)
	jp := jac.ProjectAll(x)
	alignSignsTo(jp, tp)
	for i := range jp {
		for p := range jp[i] {
			if math.Abs(jp[i][p]-tp[i][p]) > 1e-6 {
				t.Fatalf("projection[%d][%d]: jacobi %v vs topk %v", i, p, jp[i][p], tp[i][p])
			}
		}
	}
}
