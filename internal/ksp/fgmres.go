package ksp

import "math"

// solveFGMRES is flexible GMRES(m): right-preconditioned with the
// preconditioned directions stored, so the preconditioner may change
// between iterations (e.g. an inner iterative solve). Convergence is
// tested on the true residual norm, which right preconditioning makes
// directly available. Orthogonalization is GMRES's classical
// Gram–Schmidt step (arnoldiStep): two collectives per iteration.
func (k *KSP) solveFGMRES(b, x []float64) error {
	n := len(x)
	m := k.restart

	ws := k.wsKrylov(n, m, true)
	v, z, h, g, cs, sn := ws.v, ws.z, ws.h, ws.g, ws.cs, ws.sn
	w := k.wsVecs(n, 1)[0]

	rnorm0 := -1.0
	it := 0
	for {
		// r = b − A·x (true residual; no preconditioner on this side).
		k.a.Apply(w, x)
		for i := range w {
			w[i] = b[i] - w[i]
		}
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
			// z_j = M⁻¹ v_j ; w = A z_j
			k.pc.Apply(z[j], v[j])
			k.a.Apply(w, z[j])
			k.arnoldiStep(w, v, h, j)
			for i := 0; i < j; i++ {
				hij := h[i][j]
				h[i][j] = cs[i]*hij + sn[i]*h[i+1][j]
				h[i+1][j] = -sn[i]*hij + cs[i]*h[i+1][j]
			}
			cs[j], sn[j] = givens(h[j][j], h[j+1][j])
			h[j][j] = cs[j]*h[j][j] + sn[j]*h[j+1][j]
			h[j+1][j] = 0
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]

			if rnorm := math.Abs(g[j+1]); k.testConvergence(it, rnorm, rnorm0) {
				k.updateSolution(x, z, h, g, j+1)
				return nil
			}
		}
		// x += Z_m · y, then restart from the true residual.
		k.updateSolution(x, z, h, g, j)
	}
}
