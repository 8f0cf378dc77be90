package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveVecKnownSystem(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.SolveVec([]float64{8, -11, -3})
	want := []float64{2, 3, -1}
	for i := range want {
		if !approxEq(x[i], want[i], 1e-9) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestFactorSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Factor(a); !errors.Is(err, ErrSingular) {
		t.Errorf("Factor(singular) err = %v, want ErrSingular", err)
	}
}

func TestFactorNonSquare(t *testing.T) {
	if _, err := Factor(NewMatrix(2, 3)); err == nil {
		t.Error("Factor(non-square) should error")
	}
}

func TestDeterminant(t *testing.T) {
	a := FromRows([][]float64{{4, 3}, {6, 3}})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Det(); !approxEq(got, -6, 1e-9) {
		t.Errorf("Det = %v, want -6", got)
	}
}

func TestInverseTimesSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		n := 2 + trial%5
		a := randomSPD(rng, n)
		inv, err := Inverse(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !matApproxEq(Mul(a, inv), Identity(n), 1e-7) {
			t.Fatalf("trial %d: A·A⁻¹ != I", trial)
		}
	}
}

// Property: for random SPD systems, solving then multiplying recovers the RHS.
func TestQuickSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(r.Int31n(6))
		a := randomSPD(r, n)
		b := randomMatrix(r, n, 2)
		x, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		return matApproxEq(Mul(a, x), b, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := FromRows([][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{
		{2, 0, 0},
		{6, 1, 0},
		{-8, 5, 3},
	})
	if !matApproxEq(l, want, 1e-9) {
		t.Errorf("Cholesky =\n%v want\n%v", l, want)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); !errors.Is(err, ErrSingular) {
		t.Errorf("Cholesky(indefinite) err = %v, want ErrSingular", err)
	}
}

func TestCholeskySolveMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 3 + trial%4
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		xc := CholeskySolveVec(l, b)
		f, err := Factor(a)
		if err != nil {
			t.Fatal(err)
		}
		xl := f.SolveVec(b)
		for i := range xc {
			if !approxEq(xc[i], xl[i], 1e-7) {
				t.Fatalf("trial %d: Cholesky x[%d]=%v, LU x[%d]=%v", trial, i, xc[i], i, xl[i])
			}
		}
	}
}

// Property: Cholesky factor reproduces the original matrix, L·Lᵀ = A.
func TestQuickCholeskyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(r.Int31n(5))
		a := randomSPD(r, n)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		return matApproxEq(Mul(l, l.T()), a, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestReusedWorkspacesMatchAllocating reuses one LU, one product, one
// transpose and one solve buffer across systems of changing order and
// requires every result to carry the bits of Factor, Solve, Mul and T.
func TestReusedWorkspacesMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var lu LU
	if err := lu.Refactor(FromRows([][]float64{{0, 0}, {0, 0}})); !errors.Is(err, ErrSingular) {
		t.Fatalf("Refactor(zero) err = %v, want ErrSingular", err)
	}
	for _, n := range []int{3, 3, 5, 2, 5} {
		a := randomSPD(rng, n)
		b := randomMatrix(rng, n, 4)
		if err := lu.Refactor(a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		f, err := Factor(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := randomMatrix(rng, n, 4) // dirty: SolveInto must overwrite
		lu.SolveInto(got, b, make([]float64, 2*n))
		requireSameBits(t, fmt.Sprintf("n=%d SolveInto", n), got, f.Solve(b))

		prod := randomMatrix(rng, n, 4)
		MulInto(prod, a, b)
		requireSameBits(t, fmt.Sprintf("n=%d MulInto", n), prod, Mul(a, b))

		tr := randomMatrix(rng, 4, n)
		TransposeInto(tr, b)
		requireSameBits(t, fmt.Sprintf("n=%d TransposeInto", n), tr, b.T())
	}
}

func requireSameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %d×%d, want %d×%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: entry %d is %v, want %v", what, i, v, want.Data[i])
		}
	}
}
