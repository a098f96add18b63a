package pmat

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/sparse"
)

// formatChoices are the selections SetFormat must handle.
var formatChoices = []sparse.FormatChoice{
	sparse.ChoiceCSR,
	sparse.ChoiceAuto,
	sparse.ChoiceMSR,
	sparse.ChoiceSELL,
}

// TestSetFormatBitwiseAcrossFormats checks the load-bearing contract of
// the autotuner: for a fixed distribution, the distributed product is
// byte-identical no matter which format is bound.
func TestSetFormatBitwiseAcrossFormats(t *testing.T) {
	global := sparse.Laplace2D(9, 7) // n = 63
	x := sparse.RandomVector(63, 11)
	for _, p := range []int{1, 3} {
		// Reference: same distribution, legacy CSR kernels.
		want := make([]float64, 63)
		run(t, p, func(c *comm.Comm) {
			l, m := distribute(c, global)
			xl := Scatter(l, 0, mapRoot(c, x))
			yl := make([]float64, l.LocalN)
			m.Apply(yl, xl)
			got := AllGather(l, yl)
			if c.Rank() == 0 {
				copy(want, got)
			}
		})
		for _, fc := range formatChoices {
			run(t, p, func(c *comm.Comm) {
				l, m := distribute(c, global)
				info, changed := m.SetFormat(fc)
				if fc != sparse.ChoiceCSR && !changed {
					t.Fatalf("SetFormat(%v) reported no rebind on first call", fc)
				}
				if fc == sparse.ChoiceCSR && info.Interior != sparse.FmtCSR {
					t.Fatalf("ChoiceCSR bound %v", info.Interior)
				}
				xl := Scatter(l, 0, mapRoot(c, x))
				yl := make([]float64, l.LocalN)
				m.Apply(yl, xl)
				got := AllGather(l, yl)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("p=%d fc=%v: y[%d] = %v (%x), want %v (%x)",
							p, fc, i, got[i],
							math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			})
		}
	}
}

// TestSetFormatFallbacks pins the structure-gated binding: a forced MSR
// falls back to CSR on the (rectangular or empty) boundary block while
// landing on the square interior.
func TestSetFormatFallbacks(t *testing.T) {
	run(t, 2, func(c *comm.Comm) {
		_, m := distribute(c, sparse.Laplace2D(6, 6))
		info, _ := m.SetFormat(sparse.ChoiceMSR)
		if info.Interior != sparse.FmtMSR {
			t.Fatalf("interior bound %v, want MSR", info.Interior)
		}
		if info.Boundary != sparse.FmtCSR {
			t.Fatalf("boundary bound %v, want CSR fallback", info.Boundary)
		}
		if info.Probed || info.ProbeNS != 0 {
			t.Fatalf("forced choice reported probing: %+v", info)
		}
		info, _ = m.SetFormat(sparse.ChoiceSELL)
		if info.Interior != sparse.FmtSELL || info.Boundary != sparse.FmtSELL {
			t.Fatalf("SELL binding: %+v", info)
		}
		c.Barrier()
	})
}

// TestSetFormatCaching checks the choice cache: repeated SetFormat
// with an unchanged choice is an allocation-free no-op, and changing
// the choice triggers exactly one rebind.
func TestSetFormatCaching(t *testing.T) {
	run(t, 1, func(c *comm.Comm) {
		_, m := distribute(c, sparse.Laplace2D(8, 8))
		if _, changed := m.SetFormat(sparse.ChoiceSELL); !changed {
			t.Fatal("first SetFormat did not bind")
		}
		if _, changed := m.SetFormat(sparse.ChoiceSELL); changed {
			t.Fatal("repeated SetFormat rebound")
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, changed := m.SetFormat(sparse.ChoiceSELL); changed {
				t.Fatal("steady-state SetFormat rebound")
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state SetFormat allocates %v/op", allocs)
		}
		if _, changed := m.SetFormat(sparse.ChoiceMSR); !changed {
			t.Fatal("choice change did not rebind")
		}
		if m.Format().Interior != sparse.FmtMSR {
			t.Fatalf("choice change bound %+v, want MSR interior", m.Format())
		}
	})
}

// TestSetFormatAutoProbes checks that format=auto on a probe-sized
// operator actually times candidates and binds a winner that is still
// bitwise-exact.
func TestSetFormatAutoProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("probe timing loop")
	}
	global := sparse.Laplace2D(70, 70) // nnz ≈ 24k > probe threshold
	n := global.Rows
	x := sparse.RandomVector(n, 5)
	want := make([]float64, n)
	global.MulVec(want, x)
	run(t, 1, func(c *comm.Comm) {
		l, m := distribute(c, global)
		info, _ := m.SetFormat(sparse.ChoiceAuto)
		if !info.Probed || info.ProbeNS <= 0 {
			t.Fatalf("auto on a large operator did not probe: %+v", info)
		}
		xl := Scatter(l, 0, mapRoot(c, x))
		yl := make([]float64, l.LocalN)
		m.Apply(yl, xl)
		got := AllGather(l, yl)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("auto: y[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	})
}
