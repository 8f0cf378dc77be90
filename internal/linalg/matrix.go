// Package linalg provides the dense linear-algebra substrate used by the
// kernel-PCA transformation (Sec 3.3.1 of the paper) and the multi-task
// drifting-point detector training loop (Algorithm 1, Eqs 14–20).
//
// Only the operations those algorithms need are implemented: dense matrices
// with multiply/transpose/add, linear solves via partial-pivot LU and
// Cholesky, and a symmetric eigendecomposition via the cyclic Jacobi method.
// Everything is plain float64 on row-major storage; no external dependencies.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[i*Cols+j] is element (i,j)
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices. All rows must share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	TransposeInto(out, m)
	return out
}

// TransposeInto writes mᵀ into dst, which must be m.Cols×m.Rows and
// must not alias m.
func TransposeInto(dst, m *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("linalg: TransposeInto shape mismatch %d×%d for the transpose of %d×%d", dst.Rows, dst.Cols, m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			dst.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
}

// Mul returns the matrix product a·b.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	MulInto(out, a, b)
	return out
}

// MulInto overwrites dst with a·b. dst must be a.Rows×b.Cols and must
// not alias a or b. Mul is MulInto on a fresh matrix, so a caller that
// reuses dst across products gets Mul's result bit for bit.
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MulInto dimension mismatch %d×%d · %d×%d into %d×%d", a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	clear(dst.Data)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := dst.Data[i*b.Cols : (i+1)*b.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %d×%d · %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out
}

// AddM returns a+b elementwise.
func AddM(a, b *Matrix) *Matrix {
	checkSameShape("AddM", a, b)
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

// SubM returns a-b elementwise.
func SubM(a, b *Matrix) *Matrix {
	checkSameShape("SubM", a, b)
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// Scale returns s·m as a new matrix.
func Scale(s float64, m *Matrix) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// AddInPlace accumulates s·b into a (a += s·b).
func AddInPlace(a *Matrix, s float64, b *Matrix) {
	checkSameShape("AddInPlace", a, b)
	for i, v := range b.Data {
		a.Data[i] += s * v
	}
}

// Trace returns the trace of a square matrix.
func (m *Matrix) Trace() float64 {
	if m.Rows != m.Cols {
		panic("linalg: Trace of non-square matrix")
	}
	var t float64
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// FrobeniusNorm returns the Frobenius norm sqrt(sum m_ij^2).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute entry (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	var best float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// Symmetrize overwrites m with (m + mᵀ)/2. m must be square. It is used to
// scrub numerical asymmetry before eigendecomposition.
func (m *Matrix) Symmetrize() {
	if m.Rows != m.Cols {
		panic("linalg: Symmetrize of non-square matrix")
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			avg := (m.Data[i*n+j] + m.Data[j*n+i]) / 2
			m.Data[i*n+j] = avg
			m.Data[j*n+i] = avg
		}
	}
}

// String renders the matrix with 4 decimal places, one row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%9.4f", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: %s shape mismatch %d×%d vs %d×%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }
