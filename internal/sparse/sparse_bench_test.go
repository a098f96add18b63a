package sparse

import (
	"fmt"
	"testing"
)

// Kernel benchmarks for the sparse substrate. These quantify the costs
// the LISI adapter deals in: format conversion (the setupMatrix role)
// and matrix-vector products in every supported format.

func benchOperator(n int) *CSR { return Laplace2D(n, n) }

// benchBlockMatrix builds a block-tridiagonal matrix of fully dense
// 3×3 blocks.
func benchBlockMatrix(blockRows int) *CSR {
	coo := NewCOO(3*blockRows, 3*blockRows)
	for bi := 0; bi < blockRows; bi++ {
		for _, bj := range []int{bi - 1, bi, bi + 1} {
			if bj < 0 || bj >= blockRows {
				continue
			}
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					coo.Append(3*bi+r, 3*bj+c, float64(1+r+c)-0.5*float64(bi%7))
				}
			}
		}
	}
	return coo.ToCSR()
}

// BenchmarkSpMVFormats times one serial product per storage format on
// the bench matrix families. The per-format keys (and their 0-alloc
// gates) and the auto row — the steady-state kernel the probe binds,
// which must track the per-family winner — are pinned by
// scripts/benchguard.sh.
func BenchmarkSpMVFormats(b *testing.B) {
	families := []struct {
		name string
		a    *CSR
	}{
		{"stencil", benchOperator(100)},             // n=10,000, nnz≈49,600
		{"banded", Tridiag(30000, -1.25, 4, -0.75)}, // nnz≈90,000
		{"random", RandomUnsymmetric(20000, 8, 3)},  // nnz≈160,000
		{"block3", benchBlockMatrix(2000)},          // n=6,000, nnz≈54,000
	}
	for _, fam := range families {
		a := fam.a
		x := RandomVector(a.Cols, 1)
		y := make([]float64, a.Rows)
		msr, err := MSRFromCSR(a)
		if err != nil {
			b.Fatal(err)
		}
		kernels := []struct {
			name string
			m    Matrix
		}{
			{"CSR", a},
			{"MSR", msr},
			{"SELL", SELLFromCSR(a, 0)},
		}
		// The probe-bound steady-state kernel: what format=auto runs
		// after Setup. Must never lose to CSR beyond probe noise.
		var auto BoundSpMV
		bindProbeWinner(b, &auto, a, ProbeFormats(a, false).Choice)
		for _, tc := range kernels {
			b.Run(fam.name+"/"+tc.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(a.NNZ() * 8))
				for i := 0; i < b.N; i++ {
					tc.m.MulVec(y, x)
				}
			})
		}
		b.Run(fam.name+"/auto", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(a.NNZ() * 8))
			for i := 0; i < b.N; i++ {
				auto.Apply(y, x)
			}
		})
	}
}

// bindProbeWinner binds one probe decision for a into k, the way
// pmat.Mat.SetFormat does for format=auto.
func bindProbeWinner(b *testing.B, k *BoundSpMV, a *CSR, choice FormatChoice) {
	b.Helper()
	switch choice {
	case ChoiceSELL:
		k.BindSELL(SELLFromCSR(a, DefaultSELLChunk), false)
	case ChoiceMSR:
		m, split, err := MSROrderedFromCSR(a)
		if err != nil {
			b.Fatal(err)
		}
		k.BindMSROrdered(m, split, false)
	default:
		k.BindCSR(a, false)
	}
}

// BenchmarkFormatProbe bounds the Setup-time cost of the autotuning
// probe (conversions plus the fixed median-of-k timing reps) on the
// stencil operator.
func BenchmarkFormatProbe(b *testing.B) {
	b.ReportAllocs()
	a := benchOperator(100)
	for i := 0; i < b.N; i++ {
		if res := ProbeFormats(a, false); res.Heuristic {
			b.Fatal("probe took the tiny-matrix fast path")
		}
	}
}

func evenPartition(n, blk int) []int {
	var p []int
	for i := 0; i <= n; i += blk {
		p = append(p, i)
	}
	if p[len(p)-1] != n {
		p = append(p, n)
	}
	return p
}

func BenchmarkCOOToCSR(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{50, 100, 200} {
		coo := benchOperator(n).ToCOO()
		b.Run(fmt.Sprintf("n=%d", n*n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coo.ToCSR()
			}
		})
	}
}

func BenchmarkTranspose(b *testing.B) {
	b.ReportAllocs()
	a := benchOperator(100)
	for i := 0; i < b.N; i++ {
		a.Transpose()
	}
}

func BenchmarkMultiply(b *testing.B) {
	b.ReportAllocs()
	a := benchOperator(60)
	for i := 0; i < b.N; i++ {
		if _, err := Multiply(a, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMSRConversion(b *testing.B) {
	b.ReportAllocs()
	a := benchOperator(100)
	for i := 0; i < b.N; i++ {
		if _, err := MSRFromCSR(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMDot times the local half of one classical Gram–Schmidt pass
// at the paper problem's shape: 31 basis columns (GMRES(30)'s widest
// step) of local length 20,000 (the n=200 operator split over 2 ranks).
// Pinned at 0 allocs/op by scripts/benchguard.sh.
func BenchmarkMDot(b *testing.B) {
	const n, cols = 20000, 31
	w := RandomVector(n, 1)
	v := make([][]float64, cols)
	for i := range v {
		v[i] = RandomVector(n, int64(i)+2)
	}
	h := make([]float64, cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MDot(w, v, h)
	}
}
