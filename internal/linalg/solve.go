package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution at the
// working precision.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU holds a partial-pivot LU factorization of a square matrix. Its
// zero value is an empty workspace for Refactor.
type LU struct {
	lu   *Matrix
	piv  []int
	sign float64
}

// Factor computes the partial-pivot LU factorization of a. It returns
// ErrSingular when a pivot vanishes.
func Factor(a *Matrix) (*LU, error) {
	f := new(LU)
	if err := f.Refactor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor overwrites f with the factorization of a, reusing f's storage
// when a has the order f last factored, so a caller factoring many
// same-sized matrices allocates once. It is Factor's only code path, so
// the factors are Factor's bit for bit. After an error f holds no usable
// factorization until the next successful Refactor.
func (f *LU) Refactor(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: Factor of non-square %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	if f.lu == nil || f.lu.Rows != n {
		f.lu = NewMatrix(n, n)
		f.piv = make([]int, n)
	}
	lu, piv := f.lu, f.piv
	copy(lu.Data, a.Data)
	for i := range piv {
		piv[i] = i
	}
	sign := 1.0
	for k := 0; k < n; k++ {
		// Find pivot.
		p, best := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > best {
				p, best = i, v
			}
		}
		if best == 0 {
			return ErrSingular
		}
		if p != k {
			swapRows(lu, p, k)
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pk := lu.At(k, k)
		rowK := lu.Data[k*n : (k+1)*n]
		for i := k + 1; i < n; i++ {
			rowI := lu.Data[i*n : (i+1)*n]
			f := rowI[k] / pk
			rowI[k] = f
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				rowI[j] += -f * rowK[j]
			}
		}
	}
	f.sign = sign
	return nil
}

func swapRows(m *Matrix, a, b int) {
	ra := m.Data[a*m.Cols : (a+1)*m.Cols]
	rb := m.Data[b*m.Cols : (b+1)*m.Cols]
	for j := range ra {
		ra[j], rb[j] = rb[j], ra[j]
	}
}

// SolveVec solves A·x = b for a single right-hand side.
func (f *LU) SolveVec(b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n {
		panic(fmt.Sprintf("linalg: SolveVec rhs length %d, want %d", len(b), n))
	}
	x := make([]float64, n)
	f.solveVecInto(x, b)
	return x
}

// solveVecInto solves A·x = b into a caller-owned x (len n); b is not
// modified and x and b must not alias.
func (f *LU) solveVecInto(x, b []float64) {
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu.Data[i*n : i*n+i]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		x[i] -= s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Data[i*n : (i+1)*n]
		var s float64
		for j := i + 1; j < n; j++ {
			s += row[j] * x[j]
		}
		x[i] = (x[i] - s) / row[i]
	}
}

// Solve solves A·X = B column by column, reusing one column and one
// solution buffer across all right-hand sides.
func (f *LU) Solve(b *Matrix) *Matrix {
	out := NewMatrix(f.lu.Rows, b.Cols)
	f.SolveInto(out, b, make([]float64, 2*f.lu.Rows))
	return out
}

// SolveInto is Solve writing X into dst (n×b.Cols, not aliasing b) and
// taking its column buffers from scratch, which must hold at least 2n
// values. Solve is SolveInto with fresh buffers, so both produce the
// same bits.
func (f *LU) SolveInto(dst, b *Matrix, scratch []float64) {
	n := f.lu.Rows
	if b.Rows != n {
		panic(fmt.Sprintf("linalg: Solve rhs has %d rows, want %d", b.Rows, n))
	}
	if dst.Rows != n || dst.Cols != b.Cols || len(scratch) < 2*n {
		panic(fmt.Sprintf("linalg: SolveInto needs a %d×%d dst and %d scratch values, got %d×%d and %d", n, b.Cols, 2*n, dst.Rows, dst.Cols, len(scratch)))
	}
	col, x := scratch[:n], scratch[n:2*n]
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.At(i, j)
		}
		f.solveVecInto(x, col)
		for i := 0; i < n; i++ {
			dst.Set(i, j, x[i])
		}
	}
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := f.sign
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// SolveLinear solves A·X = B directly (factor + solve).
func SolveLinear(a, b *Matrix) (*Matrix, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// Inverse returns A⁻¹, or ErrSingular.
func Inverse(a *Matrix) (*Matrix, error) {
	return SolveLinear(a, Identity(a.Rows))
}

// Cholesky computes the lower-triangular L with A = L·Lᵀ for a symmetric
// positive-definite matrix. It returns ErrSingular when A is not positive
// definite at the working precision.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		var d float64 = a.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			d -= v * v
		}
		if d <= 0 {
			return nil, ErrSingular
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return l, nil
}

// CholeskySolveVec solves A·x = b given the Cholesky factor L of A.
func CholeskySolveVec(l *Matrix, b []float64) []float64 {
	n := l.Rows
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * y[j]
		}
		y[i] = s / l.At(i, i)
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}
