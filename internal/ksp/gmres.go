package ksp

import (
	"math"

	"repro/internal/sparse"
)

// solveGMRES is restarted, left-preconditioned GMRES(m) with classical
// Gram–Schmidt orthogonalization and Givens-rotation least squares.
// Convergence is tested on the preconditioned residual norm, as in
// PETSc's default GMRES convergence test. Each iteration makes two
// collectives (see arnoldiStep), independent of m.
func (k *KSP) solveGMRES(b, x []float64) error {
	n := len(x)
	m := k.restart

	ws := k.wsKrylov(n, m, false)
	v, h, g, cs, sn := ws.v, ws.h, ws.g, ws.cs, ws.sn
	scratch := k.wsVecs(n, 2)
	w, t := scratch[0], scratch[1]

	rnorm0 := -1.0
	it := 0
	for { // outer restart loop
		// r = M⁻¹ (b − A x)
		k.a.Apply(t, x)
		for i := range t {
			t[i] = b[i] - t[i]
		}
		k.pc.Apply(w, t)
		beta := k.norm2(w)
		if rnorm0 < 0 {
			rnorm0 = beta
			if k.testConvergence(0, beta, rnorm0) {
				return nil
			}
		} else if k.testConvergence(it, beta, rnorm0) {
			return nil
		}
		if beta == 0 {
			k.reason = ConvergedATol
			return nil
		}
		inv := 1 / beta
		for i := range w {
			v[0][i] = w[i] * inv
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		var j int
		for j = 0; j < m; j++ {
			it++
			// w = M⁻¹ A v_j
			k.a.Apply(t, v[j])
			k.pc.Apply(w, t)
			k.arnoldiStep(w, v, h, j)
			// Apply existing Givens rotations to the new column.
			for i := 0; i < j; i++ {
				hij := h[i][j]
				h[i][j] = cs[i]*hij + sn[i]*h[i+1][j]
				h[i+1][j] = -sn[i]*hij + cs[i]*h[i+1][j]
			}
			// New rotation to annihilate h[j+1][j].
			cs[j], sn[j] = givens(h[j][j], h[j+1][j])
			h[j][j] = cs[j]*h[j][j] + sn[j]*h[j+1][j]
			h[j+1][j] = 0
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]

			rnorm := math.Abs(g[j+1])
			if k.testConvergence(it, rnorm, rnorm0) {
				k.updateSolution(x, v, h, g, j+1)
				return nil
			}
		}
		k.updateSolution(x, v, h, g, j)
	}
}

// arnoldiStep completes column j of the Arnoldi process: one classical
// Gram–Schmidt pass of w against v[0..j] — PETSc's default GMRES
// orthogonalization, refinement "never" — then v[j+1] = w/‖w‖. The j+1
// projections are one multi-column local dot and one fused AllReduce,
// so the step costs two collectives (projections, norm) for any j.
// Column j of h receives the projections and the subdiagonal norm.
func (k *KSP) arnoldiStep(w []float64, v, h [][]float64, j int) {
	basis := v[:j+1]
	hj := k.fusedMDot(w, basis)
	sparse.MAXPY(hj, basis, w)
	for i, x := range hj {
		h[i][j] = x
	}
	h[j+1][j] = k.norm2(w)
	if h[j+1][j] > 1e-300 {
		inv := 1 / h[j+1][j]
		for i := range w {
			v[j+1][i] = w[i] * inv
		}
	} else {
		// Breakdown: leave a deterministic zero direction rather than
		// whatever a previous restart or solve left behind.
		for i := range v[j+1] {
			v[j+1][i] = 0
		}
	}
}

// updateSolution computes x += V_k · y where H(1:k,1:k) y = g(1:k). The
// back-substitution buffer lives in the workspace (kk never exceeds the
// restart length the workspace was sized for).
func (k *KSP) updateSolution(x []float64, v [][]float64, h [][]float64, g []float64, kk int) {
	if kk == 0 {
		return
	}
	y := k.ws.y[:kk]
	for i := kk - 1; i >= 0; i-- {
		s := g[i]
		for j := i + 1; j < kk; j++ {
			s -= h[i][j] * y[j]
		}
		if h[i][i] == 0 {
			// Singular least-squares block: skip this direction.
			y[i] = 0
			continue
		}
		y[i] = s / h[i][i]
	}
	for j := 0; j < kk; j++ {
		sparse.Axpy(y[j], v[j], x)
	}
}

// givens returns the rotation (c, s) with c·a + s·b = r, −s·a + c·b = 0.
func givens(a, b float64) (c, s float64) {
	if b == 0 {
		return 1, 0
	}
	if math.Abs(b) > math.Abs(a) {
		tau := a / b
		s = 1 / math.Sqrt(1+tau*tau)
		c = s * tau
		return c, s
	}
	tau := b / a
	c = 1 / math.Sqrt(1+tau*tau)
	s = c * tau
	return c, s
}
