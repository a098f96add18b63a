package sparse

import (
	"fmt"
	"math"
	"testing"
)

// kernelMatrices is the property-test corpus: random (unsymmetric and
// diagonally dominant), banded, FEM-assembled, block-structured
// (perfect 3×3 fill), a stencil, and edge
// shapes (empty rows, rectangular, tiny). Negative zeros and denormals
// ride in via the FEM case below.
func kernelMatrices(t testing.TB) map[string]*CSR {
	fem := NewFEM(20, 20)
	for e := 0; e < 18; e++ {
		// Overlapping 3-node elements with sign-mixed entries: assembly
		// cancellation produces ±0 and tiny partial sums, the inputs
		// that catch any reassociated accumulation.
		ke := []float64{
			2, -1, -1e-30,
			-1, 2, -1,
			-1e-30, -1, 2,
		}
		if err := fem.AddElement([]int{e, e + 1, e + 2}, ke); err != nil {
			t.Fatal(err)
		}
	}

	// Block matrix with every stored 3×3 block fully dense.
	blk := NewCOO(30, 30)
	for bi := 0; bi < 10; bi++ {
		for _, bj := range []int{bi - 1, bi, bi + 1} {
			if bj < 0 || bj >= 10 {
				continue
			}
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					blk.Append(3*bi+r, 3*bj+c, float64(1+r-c)+0.5*float64(bi-bj))
				}
			}
		}
	}

	empty := NewCOO(9, 9)
	empty.Append(0, 8, -0.0)
	empty.Append(8, 0, 1e-310) // denormal

	rect := NewCOO(13, 40)
	for i := 0; i < 13; i++ {
		rect.Append(i, (7*i)%40, float64(i)-6)
		rect.Append(i, (11*i+3)%40, 0.5)
	}

	return map[string]*CSR{
		"random":    RandomUnsymmetric(90, 7, 42),
		"diagdom":   RandomDiagDominant(120, 5, 7),
		"banded":    Tridiag(100, -1.25, 4, -0.75),
		"fem":       fem.ToCSR(),
		"block3x3":  blk.ToCSR(),
		"stencil":   Laplace2D(12, 12),
		"emptyrows": empty.ToCSR(),
		"rect":      rect.ToCSR(),
		"tiny":      Identity(1),
	}
}

// bitsEqual fails the test when got differs from want in any bit.
func bitsEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: y[%d] = %x (%g), want %x (%g)",
				label, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// formatBindings enumerates every BoundSpMV binding for one matrix that
// must be bitwise-identical to serial CSR. MSR appears only for square
// ones — exactly the gating the autotuner applies.
func formatBindings(t testing.TB, a *CSR, add bool) map[string]*BoundSpMV {
	out := map[string]*BoundSpMV{}
	bind := func(name string, f func(p *BoundSpMV)) {
		p := &BoundSpMV{}
		f(p)
		out[name] = p
	}
	bind("csr", func(p *BoundSpMV) { p.BindCSR(a, add) })
	bind("sell", func(p *BoundSpMV) { p.BindSELL(SELLFromCSR(a, DefaultSELLChunk), add) })
	bind("sell-c4", func(p *BoundSpMV) { p.BindSELL(SELLFromCSR(a, 4), add) })
	if a.Rows == a.Cols {
		m, split, err := MSROrderedFromCSR(a)
		if err != nil {
			t.Fatal(err)
		}
		bind("msr", func(p *BoundSpMV) { p.BindMSROrdered(m, split, add) })
	}
	return out
}

// TestFormatsBitwiseIdenticalToCSR is the format-autotuning
// determinism property: every bound format × {mul, add} reproduces the
// serial CSR kernel bit for bit on the whole matrix corpus.
func TestFormatsBitwiseIdenticalToCSR(t *testing.T) {
	for name, a := range kernelMatrices(t) {
		t.Run(name, func(t *testing.T) {
			x := RandomVector(a.Cols, 3)
			x[0] = -0.0 // signed-zero input exercises the ±0 hazards
			y0 := RandomVector(a.Rows, 5)

			wantMul := make([]float64, a.Rows)
			a.MulVec(wantMul, x)
			wantAdd := make([]float64, a.Rows)
			copy(wantAdd, y0)
			a.MulVecAdd(wantAdd, x)

			for _, add := range []bool{false, true} {
				want := wantMul
				if add {
					want = wantAdd
				}
				for fname, k := range formatBindings(t, a, add) {
					y := make([]float64, a.Rows)
					copy(y, y0)
					if !add {
						// Poison to catch kernels that skip writes.
						for i := range y {
							y[i] = math.NaN()
						}
					}
					k.Apply(y, x)
					bitsEqual(t, fmt.Sprintf("%s/%s/add=%v", name, fname, add), y, want)
				}
			}
		})
	}
}

// TestFormatSerialKernelsBitwise pins the SELL MulVec and MulVecAdd
// kernels on a default-chunk conversion to the CSR bits too.
func TestFormatSerialKernelsBitwise(t *testing.T) {
	for name, a := range kernelMatrices(t) {
		x := RandomVector(a.Cols, 11)
		want := make([]float64, a.Rows)
		a.MulVec(want, x)
		wantAdd := RandomVector(a.Rows, 13)
		base := append([]float64(nil), wantAdd...)
		a.MulVecAdd(wantAdd, x)

		s := SELLFromCSR(a, 0)
		y := make([]float64, a.Rows)
		s.MulVec(y, x)
		bitsEqual(t, name+"/sell-serial", y, want)

		copy(y, base)
		s.MulVecAdd(y, x)
		bitsEqual(t, name+"/sell-serial-add", y, wantAdd)
	}
}

// TestFormatRoundTrips pins the converters as exact inverses: the
// structural invariants hold and ToCSR reproduces the source CSR
// entry-for-entry (bit-exact Equal, not AlmostEqual).
func TestFormatRoundTrips(t *testing.T) {
	for name, a := range kernelMatrices(t) {
		s := SELLFromCSR(a, 0)
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: SELL: %v", name, err)
		}
		if !s.ToCSR().Equal(a) {
			t.Fatalf("%s: SELL round-trip mismatch", name)
		}
		if s.NNZ() != a.NNZ() {
			t.Fatalf("%s: SELL NNZ %d, want %d", name, s.NNZ(), a.NNZ())
		}
	}
}

// TestParseFormatChoice pins the parameter vocabulary: the four
// spellings parse, the deleted "bcsr" and "vbr" kernels and junk do
// not, and String round-trips.
func TestParseFormatChoice(t *testing.T) {
	for _, s := range []string{"auto", "csr", "msr", "sell"} {
		c, err := ParseFormatChoice(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if c.String() != s {
			t.Fatalf("%q: round-trips as %q", s, c.String())
		}
	}
	for _, s := range []string{"vbr", "bcsr", "", "CSR", "ellpack"} {
		if _, err := ParseFormatChoice(s); err == nil {
			t.Fatalf("%q: want error", s)
		}
	}
}

// TestProbeFormats pins the autotuner contract: the tiny fast path
// skips timing, and a real probe times exactly CSR, SELL and MSR in
// that fixed order — on a block-structured matrix too, which once
// enrolled a VBR candidate.
func TestProbeFormats(t *testing.T) {
	tiny := Tridiag(50, -1, 2, -1)
	if res := ProbeFormats(tiny, false); !res.Heuristic || res.Choice != ChoiceCSR || len(res.Candidates) != 0 {
		t.Fatalf("tiny probe: %+v, want heuristic CSR", res)
	}

	// Perfect-fill 3×3 block matrix, scaled up past the fast-path
	// threshold like the stencil (~17.8k nnz).
	blk := NewCOO(2400, 2400)
	for bi := 0; bi < 800; bi++ {
		for _, bj := range []int{bi - 1, bi, bi + 1} {
			if bj < 0 || bj >= 800 {
				continue
			}
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					blk.Append(3*bi+r, 3*bj+c, 1+float64(r*c)-0.25*float64(bi%5))
				}
			}
		}
	}
	want := []Format{FmtCSR, FmtSELL, FmtMSR}
	for name, a := range map[string]*CSR{"stencil": Laplace2D(60, 60), "block3": blk.ToCSR()} {
		res := ProbeFormats(a, false)
		if res.Heuristic {
			t.Fatalf("%s: probe took the fast path on a large matrix", name)
		}
		if res.TotalNS <= 0 {
			t.Fatalf("%s: probe reported no wall time", name)
		}
		if len(res.Candidates) != len(want) {
			t.Fatalf("%s: candidates %v, want exactly %v", name, res.Candidates, want)
		}
		for i, c := range res.Candidates {
			if c.Format != want[i] {
				t.Fatalf("%s: candidate %d is %v, want %v (fixed order)", name, i, c.Format, want[i])
			}
			if c.NS <= 0 {
				t.Fatalf("%s: candidate %v: non-positive median %d", name, c.Format, c.NS)
			}
		}
	}
}
