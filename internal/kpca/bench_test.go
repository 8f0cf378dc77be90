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

// BenchmarkFit compares Fit's top-k eigensolver with the Jacobi oracle
// on the same point cloud.
func BenchmarkFit(b *testing.B) {
	x := benchPoints(80, 6)
	variants := []struct {
		name string
		fit  func([][]float64, Config) (*Transform, error)
	}{
		{"topk", Fit},
		{"jacobi", fitJacobi},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := v.fit(x, DefaultConfig()); err != nil {
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
