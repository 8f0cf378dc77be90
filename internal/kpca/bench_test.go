package kpca

import (
	"math/rand"
	"testing"
)

func benchPoints(n, d int) [][]float64 {
	rng := rand.New(rand.NewSource(7))
	x := make([][]float64, n)
	for i := range x {
		row := make([]float64, d)
		center := float64(i%2) * 4
		for j := range row {
			row[j] = center + rng.NormFloat64()
		}
		x[i] = row
	}
	return x
}

// BenchmarkFit compares the two eigensolvers on the same point cloud:
// topk (default) and the Jacobi oracle.
func BenchmarkFit(b *testing.B) {
	x := benchPoints(80, 6)
	variants := []struct {
		name string
		cfg  func() Config
	}{
		{"topk", DefaultConfig},
		{"jacobi", func() Config { c := DefaultConfig(); c.Solver = SolverJacobi; return c }},
	}
	for _, v := range variants {
		cfg := v.cfg()
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Fit(x, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkProjectAll(b *testing.B) {
	x := benchPoints(80, 6)
	tr, err := Fit(x, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ProjectAll(x)
	}
}
