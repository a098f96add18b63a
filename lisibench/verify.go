package main

import (
	"math"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/pmat"
	"repro/internal/sparse"
)

// Verification bounds on the true relative residual ‖b − A·x‖/‖b‖. The
// Krylov backends stop on their own (preconditioned) residual estimate,
// so the true residual may exceed the requested tolerance by a modest
// factor; the bound allows 10×. The direct backend must be accurate to
// near machine precision on these well-conditioned operators.
const (
	iterativeBoundFactor = 10
	directBound          = 1e-10
)

// finiteWithin reports whether a residual is a number, finite, and at
// most bound. NaN compares false with everything, so it is tested for
// explicitly rather than relying on the comparison.
func finiteWithin(rel, bound float64) bool {
	return !math.IsNaN(rel) && !math.IsInf(rel, 0) && rel <= bound
}

// distResidual recomputes ‖b − A·x‖/‖b‖ for a distributed system with
// the public pmat kernels (collective: every rank gets the same value).
// For b = 0 it returns ‖A·x‖, which is zero only for the exact answer
// x = 0.
func distResidual(c *comm.Comm, m *pmat.Mat, b, x []float64) float64 {
	r := m.Residual(b, x)
	nb := pmat.Norm2(c, b)
	if nb == 0 {
		return r
	}
	return r / nb
}

// globalResidual is distResidual for a whole operator held by one
// goroutine (the serve-mixed client), using the sparse kernels.
func globalResidual(a *sparse.CSR, b, x []float64) float64 {
	r := a.Residual(b, x)
	return norm2(r) / norm2(b)
}

func norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// checkSolve judges one library solve: it must return no error, report
// convergence, and pass the true-residual check. It returns the overall
// verdict and the verification verdict alone.
func checkSolve(res core.SolveResult, err error, rel, bound float64) (ok, verified bool) {
	verified = finiteWithin(rel, bound)
	return err == nil && res.Converged && verified, verified
}

// continueLoop is the SPMD loop guard: rank 0 decides whether another
// iteration starts (always the first, then while before deadline) and
// broadcasts the decision so every rank leaves the loop together.
func continueLoop(c *comm.Comm, first bool, deadline int64, now func() int64) bool {
	v := 0
	if c.Rank() == 0 && (first || now() < deadline) {
		v = 1
	}
	return c.BcastInt(0, v) == 1
}
