package integration_test

import (
	"testing"

	"repro/internal/aztec"
	"repro/internal/comm"
	"repro/internal/ksp"
	"repro/internal/pmat"
	"repro/internal/sparse"
)

// TestGMRESCollectivesPerIteration pins the classical Gram–Schmidt
// orthogonalization's O(1) reductions per iteration on a 2-rank world.
// Every GMRES in the repo (ksp GMRES and FGMRES, one CGS pass plus the
// norm; aztec GMRES, two CGS passes plus the norm) runs restarted
// GMRES(30) on an unpreconditioned Laplacian that needs several
// restarts, and the per-rank collective count must stay within
// perIter·its plus a per-restart constant. Modified Gram–Schmidt's
// j+1 scalar reductions per iteration average about 16 here.
func TestGMRESCollectivesPerIteration(t *testing.T) {
	const restart = 30
	global := sparse.Laplace2D(24, 24)
	n := global.Rows
	bGlobal := make([]float64, n)
	global.MulVec(bGlobal, sparse.RandomVector(n, 5))

	cases := []struct {
		name    string
		perIter int64
		solve   func(c *comm.Comm, b, x []float64) (int, error)
	}{
		{"ksp-gmres", 2, kspSolve(global, ksp.TypeGMRES, restart)},
		{"ksp-fgmres", 2, kspSolve(global, ksp.TypeFGMRES, restart)},
		{"aztec-gmres", 3, aztecSolve(global, restart)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run(t, 2, func(c *comm.Comm) {
				l, err := pmat.EvenLayout(c, n)
				if err != nil {
					panic(err)
				}
				b := append([]float64(nil), bGlobal[l.Start:l.Start+l.LocalN]...)
				x := make([]float64, l.LocalN)
				before := c.Stats().Collectives
				its, err := tc.solve(c, b, x)
				if err != nil {
					panic(err) // fails the region; run reports it
				}
				got := c.Stats().Collectives - before
				if its <= 2*restart {
					t.Errorf("rank %d: converged in %d iterations; the problem must force restarts", c.Rank(), its)
				}
				// Per restart: the residual norm, plus a little slack
				// for the solve's setup-time collectives.
				restarts := int64(its/restart + 1)
				t.Logf("rank %d: %d collectives over %d iterations (%.2f/iter)",
					c.Rank(), got, its, float64(got)/float64(its))
				if bound := tc.perIter*int64(its) + 4*restarts + 4; got > bound {
					t.Errorf("rank %d: %d collectives over %d iterations, bound %d",
						c.Rank(), got, its, bound)
				}
			})
		})
	}
}

func kspSolve(global *sparse.CSR, typ string, restart int) func(*comm.Comm, []float64, []float64) (int, error) {
	return func(c *comm.Comm, b, x []float64) (int, error) {
		l, err := pmat.EvenLayout(c, global.Rows)
		if err != nil {
			return 0, err
		}
		a, err := pmat.NewMat(l, global.SubMatrix(l.Start, l.Start+l.LocalN))
		if err != nil {
			return 0, err
		}
		k := ksp.New(c)
		k.SetOperators(ksp.NewMat(a))
		if err := k.SetType(typ); err != nil {
			return 0, err
		}
		if err := k.SetRestart(restart); err != nil {
			return 0, err
		}
		if err := k.SetPCType(ksp.PCNone); err != nil {
			return 0, err
		}
		k.SetTolerances(1e-8, 0, 0, 5000)
		err = k.Solve(b, x)
		return k.Iterations(), err
	}
}

func aztecSolve(global *sparse.CSR, restart int) func(*comm.Comm, []float64, []float64) (int, error) {
	return func(c *comm.Comm, b, x []float64) (int, error) {
		m, err := aztec.NewMap(c, global.Rows)
		if err != nil {
			return 0, err
		}
		a := aztec.NewCrsMatrix(m)
		for g := m.MinMyGID(); g <= m.MaxMyGID(); g++ {
			cols, vals := global.RowView(g)
			if err := a.InsertGlobalValues(g, cols, vals); err != nil {
				return 0, err
			}
		}
		if err := a.FillComplete(); err != nil {
			return 0, err
		}
		s := aztec.NewSolver(c)
		s.SetUserMatrix(a)
		s.Options()[aztec.AZSolver] = aztec.AZGMRES
		s.Options()[aztec.AZKspace] = restart
		s.Options()[aztec.AZPrecond] = aztec.AZNone
		s.Options()[aztec.AZMaxIter] = 5000
		s.Params()[aztec.AZTol] = 1e-8
		err = s.Solve(x, b)
		return s.NumIters(), err
	}
}
