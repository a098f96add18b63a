package main

import (
	"context"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/pmat"
)

// direct-resolve: superlu on Table 1's nnz = 49,600 operator (100×100
// grid) on 2 ranks. Each cycle opens a fresh world and session, stages
// the operator, factors it inside the first Solve, then re-solves fresh
// seeded right-hand sides against the kept factorization.
const (
	directGrid   = 100
	directProcs  = 2
	directCycles = 24
)

func runDirect(ctx context.Context, opt options) (*result, error) {
	res := newResult()
	var s libSamples
	start := time.Now()
	problem := mesh.PaperProblem(directGrid)
	for cycle := 0; cycle < directCycles; cycle++ {
		end := start.Add(opt.budget * time.Duration(cycle+1) / directCycles)
		if err := directCycle(ctx, opt.seed, cycle, end, problem, &s, res); err != nil {
			return nil, err
		}
	}
	s.endToEnd(res)
	return res, nil
}

func directCycle(ctx context.Context, seed int64, cycle int, end time.Time, problem mesh.Problem, s *libSamples, res *result) error {
	w, err := comm.NewWorld(directProcs)
	if err != nil {
		return err
	}
	var runErr error
	err = w.RunContext(ctx, func(c *comm.Comm) {
		root := c.Rank() == 0
		fail := func(e error) {
			if root && runErr == nil {
				runErr = e
			}
		}
		l, err := pmat.EvenLayout(c, problem.N())
		if err != nil {
			fail(err)
			return
		}
		localA, _, err := problem.GenerateLocal(l)
		if err != nil {
			fail(err)
			return
		}
		m, err := pmat.NewMat(l, localA)
		if err != nil {
			fail(err)
			return
		}
		b := make([]float64, l.LocalN)
		x := make([]float64, l.LocalN)
		fillRHS(b, l.Start, seed, streamDirect, cycle<<20)

		p0 := pace(c)
		t0 := time.Now()
		sess, err := core.OpenSession("superlu", c, core.SessionOptions{})
		if err != nil {
			fail(err)
			return
		}
		defer sess.Close()
		if err := sess.Setup(l, localA); err != nil {
			fail(err)
			return
		}
		if err := sess.SetupRHS(b, 1); err != nil {
			fail(err)
			return
		}
		r, err := sess.Solve(ctx, x)
		c.Barrier()
		coldWall := time.Since(t0).Seconds() / ((p0 + pace(c)) / 2)
		ok, v := checkSolve(r, err, distResidual(c, m, b, x), directBound)
		if root {
			res.op(ok, v)
		}

		// Warm solves of the same right-hand side, subtracted from the
		// cold wall time so setup_s is the one-time cost alone.
		var warmSame []float64
		for k := 0; k < 5; k++ {
			for i := range x {
				x[i] = 0
			}
			c.Barrier()
			t := time.Now()
			r, err := sess.Solve(ctx, x)
			c.Barrier()
			warmSame = append(warmSame, time.Since(t).Seconds()/pace(c))
			ok, v := checkSolve(r, err, distResidual(c, m, b, x), directBound)
			if root {
				res.op(ok, v)
			}
		}
		if root {
			s.setup = append(s.setup, coldWall-median(warmSame))
			s.cold = append(s.cold, coldWall)
		}

		deadline := end.UnixNano()
		now := func() int64 { return time.Now().UnixNano() }
		for k := 0; continueLoop(c, k == 0, deadline, now); k++ {
			fillRHS(b, l.Start, seed, streamDirect, cycle<<20|(k+1))
			for i := range x {
				x[i] = 0
			}
			c.Barrier()
			ta := time.Now()
			if err := sess.SetupRHS(b, 1); err != nil {
				fail(err)
			}
			c.Barrier()
			tb := time.Now()
			r, err := sess.Solve(ctx, x)
			c.Barrier()
			tc := time.Now()
			p := pace(c)
			ok, v := checkSolve(r, err, distResidual(c, m, b, x), directBound)
			if root {
				res.op(ok, v)
				s.add(cycle, tc.Sub(tb).Seconds()/p, tc.Sub(ta).Seconds()/p)
			}
			if k == 0 {
				c.Barrier()
				if root {
					s.heap = append(s.heap, heapMiB())
				}
				c.Barrier()
			}
		}
	})
	if err != nil {
		return err
	}
	return runErr
}
