package slu

import (
	"fmt"
	"testing"

	"repro/internal/sparse"
)

// BenchmarkFactorOrderings quantifies the fill-reducing ordering choice
// (the "ordering" LISI parameter of the direct component).
func BenchmarkFactorOrderings(b *testing.B) {
	b.ReportAllocs()
	a := sparse.Laplace2D(40, 40) // n = 1,600
	for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderMinDegree} {
		b.Run(ord.String(), func(b *testing.B) {
			b.ReportAllocs()
			var nnz int
			for i := 0; i < b.N; i++ {
				f, err := Factor(a, Options{ColPerm: ord, PivotThreshold: 1, Equilibrate: false})
				if err != nil {
					b.Fatal(err)
				}
				nnz = f.NNZ()
			}
			b.ReportMetric(float64(nnz), "factor-nnz")
		})
	}
}

// BenchmarkTriangularSolve measures the per-RHS cost after factorization
// (use case §5.2c: many right-hand sides amortize one factorization).
func BenchmarkTriangularSolve(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{20, 40} {
		a := sparse.Laplace2D(n, n)
		f, err := Factor(a, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		rhs := sparse.RandomVector(a.Rows, 1)
		b.Run(fmt.Sprintf("n=%d", a.Rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.Solve(rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOrderingAlgorithms isolates the symbolic orderings.
func BenchmarkOrderingAlgorithms(b *testing.B) {
	b.ReportAllocs()
	a := sparse.Laplace2D(50, 50)
	for _, ord := range []Ordering{OrderRCM, OrderMinDegree} {
		b.Run(ord.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ComputeOrdering(a, ord); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
