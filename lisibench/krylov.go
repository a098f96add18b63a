package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/pmat"
)

// paper-krylov: the paper's Figure-5 problem (§8 5-point convection–
// diffusion operator, 200×200 grid, nnz = 199,200) on 2 ranks. A round
// is a petsc GMRES(30)+ILU solve followed by a trilinos GMRES(30)+
// domain-decomposition ILU solve of the same fresh seeded right-hand
// side at tol 1e-6.
const (
	krylovGrid   = 200
	krylovProcs  = 2
	krylovCycles = 4
	krylovTol    = 1e-6
)

var krylovBackends = []string{"petsc", "trilinos"}

func krylovParams() map[string]string {
	return map[string]string{
		"solver":         "gmres",
		"preconditioner": "ilu",
		"restart":        "30",
		"tol":            fmt.Sprint(krylovTol),
		"maxits":         "20000",
	}
}

// libSamples are the rank-0 measurements of a library workload.
type libSamples struct {
	solve   [][]float64 // warm Solve wall time per operation (s), per cycle
	latency [][]float64 // warm SetupRHS+Solve wall time per operation (s), per cycle
	setup   []float64   // one-time setup per cycle (s)
	cold    []float64   // OpenSession → end of the first real operation (s)
	heap    []float64   // HeapInuse after GC once warm (MiB)
}

// add records one warm operation of the given cycle.
func (s *libSamples) add(cycle int, solve, latency float64) {
	for len(s.solve) <= cycle {
		s.solve = append(s.solve, nil)
		s.latency = append(s.latency, nil)
	}
	s.solve[cycle] = append(s.solve[cycle], solve)
	s.latency[cycle] = append(s.latency[cycle], latency)
}

// endToEnd turns library samples into the end-to-end metrics. Timing
// statistics are taken per cycle and their quiet estimate over the
// cycles reported. Every timing sample is paced (see speed.go).
func (s *libSamples) endToEnd(res *result) {
	ms := func(stat func([]float64) float64) func([]float64) float64 {
		return func(xs []float64) float64 { return 1e3 * stat(xs) }
	}
	set := func(name string, v float64, n int) { res.set(name, v, n) }
	v, n := windowed(s.solve, median)
	set("solve_s", v, n)
	v, n = windowed(s.solve, p99)
	set("solve_p99_s", v, n)
	set("setup_s", quiet(s.setup), len(s.setup))
	set("heap_mb", median(s.heap), len(s.heap))
	v, n = windowed(s.latency, ms(median))
	set("latency_p50_ms", v, n)
	v, n = windowed(s.latency, ms(p99))
	set("latency_p99_ms", v, n)
	// Operations per second of busy time, one closed-loop caller: the
	// reciprocal of the quiet cycles' mean operation time.
	v, n = windowed(s.latency, mean)
	set("max_rate_rps", 1/v, n)
	set("cold_latency_p50_ms", 1e3*quiet(s.cold), len(s.cold))
}

// heapMiB collects garbage and returns the live heap in MiB. The caller
// keeps the other ranks parked in a barrier meanwhile.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

func runKrylov(ctx context.Context, opt options) (*result, error) {
	res := newResult()
	var s libSamples
	start := time.Now()
	problem := mesh.PaperProblem(krylovGrid)
	for cycle := 0; cycle < krylovCycles; cycle++ {
		end := start.Add(opt.budget * time.Duration(cycle+1) / krylovCycles)
		if err := krylovCycle(ctx, opt.seed, cycle, end, problem, &s, res); err != nil {
			return nil, err
		}
	}
	s.endToEnd(res)
	return res, nil
}

// krylovCycle runs one fresh world: open and set up both sessions with a
// zero right-hand side (the Krylov loop then stops at iteration 0, so
// the first Solve does only the lazy setup), then warm rounds on fresh
// seeded right-hand sides until end.
func krylovCycle(ctx context.Context, seed int64, cycle int, end time.Time, problem mesh.Problem, s *libSamples, res *result) error {
	w, err := comm.NewWorld(krylovProcs)
	if err != nil {
		return err
	}
	var runErr error
	bound := iterativeBoundFactor * krylovTol
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

		p0 := pace(c)
		t0 := time.Now()
		sessions := make([]*core.Session, len(krylovBackends))
		for i, name := range krylovBackends {
			sess, err := core.OpenSession(name, c, core.SessionOptions{Params: krylovParams()})
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
			ok, v := checkSolve(r, err, distResidual(c, m, b, x), bound)
			if root {
				res.op(ok, v)
			}
			sessions[i] = sess
		}
		c.Barrier()
		setupWall := time.Since(t0).Seconds() / ((p0 + pace(c)) / 2)

		// The same sessions' warm solves of the same (zero) right-hand
		// side, subtracted so setup_s is the one-time cost alone.
		var warmZero []float64
		for k := 0; k < 3; k++ {
			c.Barrier()
			t := time.Now()
			for _, sess := range sessions {
				if _, err := sess.Solve(ctx, x); err != nil {
					fail(err)
				}
			}
			c.Barrier()
			warmZero = append(warmZero, time.Since(t).Seconds()/pace(c))
		}

		deadline := end.UnixNano()
		now := func() int64 { return time.Now().UnixNano() }
		for round := 0; continueLoop(c, round == 0, deadline, now); round++ {
			fillRHS(b, l.Start, seed, streamKrylov, cycle<<20|round)
			var solveT, latT float64
			pPrev := pace(c)
			for _, sess := range sessions {
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
				// Pace each solve by the mean of the readings taken
				// just before and just after it.
				p := pace(c)
				k := (pPrev + p) / 2
				solveT += tc.Sub(tb).Seconds() / k
				latT += tc.Sub(ta).Seconds() / k
				pPrev = p
				ok, v := checkSolve(r, err, distResidual(c, m, b, x), bound)
				if root {
					res.op(ok, v)
				}
			}
			if round == 0 {
				c.Barrier()
				if root {
					s.heap = append(s.heap, heapMiB())
					s.setup = append(s.setup, setupWall-median(warmZero))
					s.cold = append(s.cold, setupWall+latT)
				}
				c.Barrier()
			}
			if root {
				s.add(cycle, solveT, latT)
			}
		}
	})
	if err != nil {
		return err
	}
	return runErr
}
