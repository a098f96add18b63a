package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/aztec"
	"repro/internal/comm"
	"repro/internal/ksp"
	"repro/internal/mg"
	"repro/internal/pmat"
	"repro/internal/slu"
	"repro/internal/sparse"
)

// TestClassifySolveErrorSentinels pins the typed failure mapping: every
// backend sentinel maps to its FailReason through any %w wrapping, real
// producers of those sentinels classify the same way, and errors that
// merely mention "max", "singular" or "diverged" in their text fall to
// the FailBreakdown default.
func TestClassifySolveErrorSentinels(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("component: solve: %w", err) }

	// Real producers, so a backend that stops wrapping its sentinel
	// fails here rather than silently reclassifying.
	emptyCol := sparse.NewCOO(3, 3)
	emptyCol.Append(0, 0, 1)
	emptyCol.Append(1, 0, 2)
	emptyCol.Append(2, 2, 3)
	_, sluErr := slu.Factor(emptyCol.ToCSR(), slu.Options{ColPerm: slu.OrderNatural, PivotThreshold: 1})
	_, iluErr := ksp.NewILU0(sparse.Tridiag(3, 1, 0, 1))
	swap := sparse.NewCOO(2, 2) // zero diagonal, no drop tolerance to fix it up
	swap.Append(0, 1, 1)
	swap.Append(1, 0, 1)
	_, ilutErr := aztec.NewILUT(swap.ToCSR(), 0, 1)
	zeroRow := sparse.NewCOO(2, 2)
	zeroRow.Append(0, 0, 1)
	_, ilutRowErr := aztec.NewILUT(zeroRow.ToCSR(), 1e-3, 1)
	chebErr := (&ksp.KSP{}).SetChebyshevBounds(1, 0.5)

	cases := []struct {
		name string
		err  error
		want FailReason
	}{
		{"nil", nil, FailNone},
		{"slu singular", wrap(slu.ErrSingular), FailSingular},
		{"slu factor", sluErr, FailSingular},
		{"ksp zero pivot", wrap(ksp.ErrZeroPivot), FailSingular},
		{"ksp ILU0", iluErr, FailSingular},
		{"aztec zero pivot", wrap(aztec.ErrZeroPivot), FailSingular},
		{"aztec ILUT", ilutErr, FailSingular},
		{"aztec ILUT zero row", ilutRowErr, FailSingular},
		{"ksp diverged", wrap(ksp.ErrDiverged), FailDivergence},
		{"mg diverged", wrap(mg.ErrDiverged), FailDivergence},
		{"mg no convergence", wrap(mg.ErrNoConvergence), FailMaxIterations},
		{"aztec max-iterations config", errors.New("aztec: max iterations must be positive, got 0"), FailBreakdown},
		{"ksp Chebyshev bounds", chebErr, FailBreakdown},
		{"text only: singular", errors.New("matrix looks singular"), FailBreakdown},
		{"text only: diverged", errors.New("run diverged"), FailBreakdown},
	}
	for _, tc := range cases {
		if tc.want != FailNone && tc.err == nil {
			t.Fatalf("%s: producer returned no error", tc.name)
		}
		if got := classifySolveError(tc.err); got != tc.want {
			t.Errorf("%s: classifySolveError(%v) = %s, want %s", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestSuperLUSingularNotRetried drives singular systems through the
// distributed superlu backend on two ranks, where rank 0's factorization
// error crosses a broadcast: the failure must still classify as
// FailSingular on every rank, so a retry budget is not spent on it.
func TestSuperLUSingularNotRetried(t *testing.T) {
	const n = 8
	cases := []struct {
		name  string
		entry func(i, j int) float64 // global A[i][j]
	}{
		// Row 5 is entirely zero: caught by equilibration.
		{"zero row", func(i, j int) float64 {
			if i == j && i != 5 {
				return 4
			}
			return 0
		}},
		// Rows 2 and 3 are identical: no usable pivot in column 3.
		{"dependent rows", func(i, j int) float64 {
			switch {
			case (i == 2 || i == 3) && (j == 2 || j == 3):
				return 1
			case i == j:
				return 4
			}
			return 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run(t, 2, func(c *comm.Comm) {
				l, err := pmat.EvenLayout(c, n)
				if err != nil {
					t.Fatal(err)
				}
				local := sparse.NewCOO(l.LocalN, n)
				for i := 0; i < l.LocalN; i++ {
					for j := 0; j < n; j++ {
						if v := tc.entry(l.Start+i, j); v != 0 {
							local.Append(i, j, v)
						}
					}
				}
				s, err := OpenSession("superlu", c, SessionOptions{MaxAttempts: 3})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if err := s.Setup(l, local.ToCSR()); err != nil {
					t.Fatal(err)
				}
				b := make([]float64, l.LocalN)
				for i := range b {
					b[i] = 1
				}
				if err := s.SetupRHS(b, 1); err != nil {
					t.Fatal(err)
				}
				res, err := s.Solve(context.Background(), make([]float64, l.LocalN))
				if err == nil {
					t.Fatalf("rank %d: singular solve returned no error", c.Rank())
				}
				if res.FailReason != FailSingular || res.Attempts != 1 {
					t.Errorf("rank %d: fail_reason=%s attempts=%d, want singular after 1 attempt (err %v)",
						c.Rank(), res.FailReason, res.Attempts, err)
				}
			})
		})
	}
}
