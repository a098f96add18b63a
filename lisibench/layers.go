package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/aztec"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/ksp"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/slu"
	"repro/internal/telemetry"
)

// perLayerMetrics are the traced run's metrics (BENCHMARK.json
// "per_layer"). README.md maps each to the end-to-end metric and the
// workload it should move.
var perLayerMetrics = []metricSpec{
	{"core.setup_ms", "ms", "lower"},
	{"core.solve_allocs", "count", "lower"},
	{"core.solve_allocs.petsc", "count", "lower"},
	{"core.attempts_per_solve", "count", "lower"},
	{"port.overhead_s", "s", "lower"},
	{"port.overhead_ci_lo_s", "s", "lower"},
	{"port.overhead_ci_hi_s", "s", "lower"},
	{"port.overhead_pct", "%", "lower"},
	{"port.overhead_pct_ci_lo", "%", "lower"},
	{"port.overhead_pct_ci_hi", "%", "lower"},
	{"port.overhead_s.superlu", "s", "lower"},
	{"phase.port_overhead_s", "s", "lower"},
	{"iterations.petsc", "count", "lower"},
	{"iterations.trilinos", "count", "lower"},
	{"phase.precond_s.petsc", "s", "lower"},
	{"phase.precond_s.trilinos", "s", "lower"},
	{"phase.iterate_s.petsc", "s", "lower"},
	{"phase.iterate_s.trilinos", "s", "lower"},
	{"iterate_ms_per_iter.petsc", "ms", "lower"},
	{"iterate_ms_per_iter.trilinos", "ms", "lower"},
	{"slu.factor_s", "s", "lower"},
	{"slu.trisolve_ms", "ms", "lower"},
	{"pmat.spmv_us", "us", "lower"},
	{"sparse.spmv_us", "us", "lower"},
	{"sparse.spmv_bytes", "B", "lower"},
	{"ksp.pc_apply_us", "us", "lower"},
	{"comm.collectives_per_iter", "count", "lower"},
	{"comm.barriers_per_iter", "count", "lower"},
	{"comm.barrier_wait_frac", "ratio", "lower"},
	{"comm.halo_msgs_per_iter", "count", "lower"},
	{"comm.halo_bytes_per_iter", "B", "lower"},
	{"comm.collectives_per_iter.trilinos", "count", "lower"},
	{"comm.barriers_per_iter.trilinos", "count", "lower"},
	{"comm.collectives_per_solve.superlu", "count", "lower"},
	{"comm.barriers_per_solve.superlu", "count", "lower"},
	{"comm.allreduce1_us", "us", "lower"},
	{"comm.allreduce31_us", "us", "lower"},
	{"comm.allreduce1_us.size1", "us", "lower"},
	{"service.latency_p50_ms", "ms", "lower"},
	{"service.latency_p99_ms", "ms", "lower"},
	{"service.cold_latency_p50_ms", "ms", "lower"},
	{"service.max_rate_rps", "req/s", "higher"},
	{"service.setup_ms", "ms", "lower"},
	{"service.overhead_p50_ms", "ms", "lower"},
	{"service.overhead_p99_ms", "ms", "lower"},
	{"service.solve_ms", "ms", "lower"},
	{"service.reuse_ratio", "ratio", "higher"},
	{"service.batch_rhs_mean", "count", "higher"},
	{"service.shed_frac", "ratio", "lower"},
	{"service.evictions_per_1k", "count", "lower"},
	{"harness.late_ms_p99", "ms", "lower"},
	{"verify.worst_resid_ratio", "ratio", "lower"},
	{"gc.pause_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"self_frac.harness", "ratio", "lower"},
	{"self_frac.service", "ratio", "lower"},
	{"self_frac.core", "ratio", "lower"},
	{"self_frac.native", "ratio", "lower"},
	{"self_frac.pmat", "ratio", "lower"},
	{"self_frac.sparse", "ratio", "lower"},
	{"self_frac.ksp", "ratio", "lower"},
	{"self_frac.comm", "ratio", "lower"},
}

// spanLayers are the layers spans are recorded for: the benchmark's own
// loop (harness), the public calls into service and core, direct calls
// into the native packages (the paper's NonCCA baseline), and the kernel
// and collective probes.
var spanLayers = []string{"harness", "service", "core", "native", "pmat", "sparse", "ksp", "comm"}

// traced is the per-layer suite's state.
type traced struct {
	opt      options
	tr       *tracer
	res      *result
	worst    float64            // largest true residual ÷ bound over checked library solves
	attempts []float64          // SolveResult.Attempts of every library solve
	overhead map[string]float64 // traced ÷ untraced − 1, per workload
}

// check verifies one library solve, feeding failed counts and the
// worst-residual ratio. Collective callers pass the same rel on every
// rank; only rank 0 records.
func (t *traced) check(root bool, r core.SolveResult, err error, rel, bound float64) {
	if !root {
		return
	}
	ok, v := checkSolve(r, err, rel, bound)
	t.res.op(ok, v)
	t.attempts = append(t.attempts, float64(r.Attempts))
	if q := rel / bound; q > t.worst || q != q {
		t.worst = q
	}
}

// runTraced runs the per-layer suite: a fixed amount of traced work on
// the paper-krylov and direct-resolve operators (so exact counts repeat
// for a seed), a traced serve-mixed phase, and the collective probes.
// The workload flag picks which workload's traced-vs-untraced
// comparison is reported as trace.overhead_frac.
func runTraced(ctx context.Context, opt options) (*result, error) {
	t := &traced{opt: opt, tr: newTracer(), res: newResult(), overhead: map[string]float64{}}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	steps := []func(context.Context) error{t.krylov, t.direct, t.serve, t.collectives}
	for _, step := range steps {
		if err := step(ctx); err != nil {
			return nil, err
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	r := t.res
	r.set("gc.pause_frac", float64(m1.PauseTotalNs-m0.PauseTotalNs)/float64(wall.Nanoseconds()), int(m1.NumGC-m0.NumGC))
	r.set("core.attempts_per_solve", mean(t.attempts), len(t.attempts))
	r.set("verify.worst_resid_ratio", t.worst, len(t.attempts))
	r.set("trace.overhead_frac", t.overhead[opt.workload], 1)
	self, total := t.tr.selfTimes()
	for _, l := range spanLayers {
		r.set("self_frac."+l, self[l]/total, len(t.tr.spans))
	}
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", opt.workload, opt.seed))
	if err := t.tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("trace %d spans written to %s\n", len(t.tr.spans), path)
	return r, nil
}

// setRecorder attaches (or, with nil, detaches) a session backend's
// telemetry recorder between solves; the untraced samples run without.
func setRecorder(s *core.Session, rec *telemetry.Recorder) {
	if ins, ok := s.Solver().(core.Instrumented); ok {
		ins.SetRecorder(rec)
	}
}

// commDelta is the communication traffic of one window, summed over the
// ranks (collective). Each rank reads only its own counters, between
// barriers, so the counts are exact.
func commDelta(c *comm.Comm, before, after comm.Stats) comm.Stats {
	d := after.Sub(before)
	sum := func(v int64) int64 { return int64(c.AllReduceInt(int(v), comm.OpSum)) }
	return comm.Stats{
		Sends:          sum(d.Sends),
		BytesSent:      sum(d.BytesSent),
		BarrierEntries: sum(d.BarrierEntries),
		BarrierWait:    time.Duration(sum(int64(d.BarrierWait))),
		Collectives:    sum(d.Collectives),
	}
}

// krylov traces the paper-krylov operator: a cold setup, traced and
// untraced warm rounds, the native (NonCCA) rounds paired with the
// untraced ones for the port overhead, and the kernel probes.
func (t *traced) krylov(ctx context.Context) error {
	const rounds = 3
	problem := mesh.PaperProblem(krylovGrid)
	w, err := comm.NewWorld(krylovProcs)
	if err != nil {
		return err
	}
	bound := iterativeBoundFactor * krylovTol
	var (
		precond            = map[string]float64{}
		iters, iterate     = map[string][]float64{}, map[string][]float64{}
		collPI, barPI      = map[string][]float64{}, map[string][]float64{}
		waitFrac           []float64
		msgsPI, bytesPI    []float64
		portOH, allocs     []float64
		tracedT, untracedT []float64
		nativeT            []float64
		spmv, lspmv, pcApp []float64
		spmvBytes          float64
		runErr             error
	)
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
		span := func(parent int, layer, name string, a, z time.Time) int {
			if !root {
				return 0
			}
			return t.tr.child(parent, layer, name, a, z)
		}
		open := func(parent int, layer, name string) int {
			if !root {
				return 0
			}
			return t.tr.open(parent, layer, name, time.Now())
		}
		closeSpan := func(id int) {
			if root && id > 0 {
				t.tr.close(id, time.Now())
			}
		}

		// Cold setup with a zero right-hand side, fully traced.
		recs := make([]*telemetry.Recorder, len(krylovBackends))
		sessions := make([]*core.Session, len(krylovBackends))
		c.Barrier()
		setupRoot := open(0, "harness", "krylov.setup")
		for i, name := range krylovBackends {
			recs[i] = telemetry.New()
			a := time.Now()
			sess, err := core.OpenSession(name, c, core.SessionOptions{Params: krylovParams(), Recorder: recs[i]})
			if err != nil {
				fail(err)
				return
			}
			defer sess.Close()
			bb := time.Now()
			span(setupRoot, "core", "OpenSession", a, bb)
			if err := sess.Setup(l, localA); err != nil {
				fail(err)
				return
			}
			cc := time.Now()
			span(setupRoot, "core", "Setup", bb, cc)
			if err := sess.SetupRHS(b, 1); err != nil {
				fail(err)
				return
			}
			d := time.Now()
			span(setupRoot, "core", "SetupRHS", cc, d)
			r, err := sess.Solve(ctx, x)
			span(setupRoot, "core", "Solve(first)", d, time.Now())
			t.check(root, r, err, distResidual(c, m, b, x), bound)
			precond[name] = recs[i].PhaseSeconds(telemetry.PhasePrecond)
			sessions[i] = sess
		}
		c.Barrier()
		closeSpan(setupRoot)

		// One CCA round; traced rounds keep the recorders and record
		// spans and per-window communication counters.
		ccaRound := func(traced bool, op int) float64 {
			fillRHS(b, l.Start, t.opt.seed, streamKrylov, 1<<28|op)
			total := 0.0
			roundRoot := 0
			if traced {
				roundRoot = open(0, "harness", "krylov.round")
			}
			var port float64
			for i, sess := range sessions {
				name := krylovBackends[i]
				if traced {
					setRecorder(sess, recs[i])
					recs[i].Reset()
				} else {
					setRecorder(sess, nil)
				}
				for j := range x {
					x[j] = 0
				}
				c.Barrier()
				var ms0 runtime.MemStats
				if traced && root && i == 0 {
					runtime.ReadMemStats(&ms0)
				}
				before := c.Stats()
				ta := time.Now()
				if err := sess.SetupRHS(b, 1); err != nil {
					fail(err)
				}
				tb := time.Now()
				r, err := sess.Solve(ctx, x)
				after := c.Stats()
				c.Barrier()
				tc := time.Now()
				total += tc.Sub(tb).Seconds()
				if traced && root && i == 0 {
					var ms1 runtime.MemStats
					runtime.ReadMemStats(&ms1)
					allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
				}
				t.check(root, r, err, distResidual(c, m, b, x), bound)
				if !traced {
					continue
				}
				d := commDelta(c, before, after)
				span(roundRoot, "core", "SetupRHS", ta, tb)
				span(roundRoot, "core", "Solve", tb, tc)
				if root {
					its := float64(r.Iterations)
					iters[name] = append(iters[name], its)
					it := recs[i].PhaseSeconds(telemetry.PhaseIterate)
					iterate[name] = append(iterate[name], it)
					port += recs[i].PhaseSeconds(telemetry.PhasePortOverhead)
					collPI[name] = append(collPI[name], float64(d.Collectives)/its)
					barPI[name] = append(barPI[name], float64(d.BarrierEntries)/its)
					if i == 0 {
						p := float64(c.Size())
						waitFrac = append(waitFrac, d.BarrierWait.Seconds()/(p*tc.Sub(tb).Seconds()))
						msgsPI = append(msgsPI, float64(d.Sends)/its)
						bytesPI = append(bytesPI, float64(d.BytesSent)/its)
					}
				}
			}
			closeSpan(roundRoot)
			if traced && root {
				portOH = append(portOH, port)
			}
			return total
		}

		// The native packages driven directly, configured as the LISI
		// adapters configure them (the paper's NonCCA path).
		kn := ksp.New(c)
		kn.SetOperators(ksp.NewMat(m))
		if err := kn.SetType(ksp.TypeGMRES); err != nil {
			fail(err)
			return
		}
		if err := kn.SetPCType(ksp.PCILU); err != nil {
			fail(err)
			return
		}
		kn.SetTolerances(krylovTol, -1, -1, 20000)
		if err := kn.SetRestart(30); err != nil {
			fail(err)
			return
		}
		mp, err := aztec.NewMapWithLocal(c, l.LocalN)
		if err != nil {
			fail(err)
			return
		}
		crs := aztec.NewCrsMatrix(mp)
		for lr := 0; lr < l.LocalN; lr++ {
			cols, vals := localA.RowView(lr)
			if err := crs.InsertGlobalValues(l.Start+lr, cols, vals); err != nil {
				fail(err)
				return
			}
		}
		if err := crs.FillComplete(); err != nil {
			fail(err)
			return
		}
		an := aztec.NewSolver(c)
		an.Options()[aztec.AZSolver] = aztec.AZGMRES
		an.Options()[aztec.AZPrecond] = aztec.AZDomDecomp
		an.Options()[aztec.AZKspace] = 30
		an.Options()[aztec.AZMaxIter] = 20000
		an.Params()[aztec.AZTol] = krylovTol
		an.SetUserMatrix(crs)
		nativeRound := func(op int, measured bool) float64 {
			fillRHS(b, l.Start, t.opt.seed, streamKrylov, 1<<28|op)
			total := 0.0
			solves := []func() error{
				func() error { return kn.Solve(b, x) },
				func() error { return an.Solve(x, b) },
			}
			rootSpan := 0
			if measured {
				rootSpan = open(0, "harness", "krylov.native-round")
			}
			for i, solve := range solves {
				for j := range x {
					x[j] = 0
				}
				c.Barrier()
				ta := time.Now()
				err := solve()
				c.Barrier()
				tb := time.Now()
				total += tb.Sub(ta).Seconds()
				rel := distResidual(c, m, b, x)
				if root {
					ok := err == nil && finiteWithin(rel, bound)
					t.res.op(ok, finiteWithin(rel, bound))
				}
				if measured {
					span(rootSpan, "native", []string{"ksp.Solve", "aztec.Solve"}[i], ta, tb)
				}
			}
			closeSpan(rootSpan)
			return total
		}
		nativeRound(0, false) // native setup (PC factorization) out of the pairs

		for k := 0; k < rounds; k++ {
			tt := ccaRound(true, 100+k)
			ut := ccaRound(false, 200+k)
			nt := nativeRound(200+k, true)
			if root {
				tracedT = append(tracedT, tt)
				untracedT = append(untracedT, ut)
				nativeT = append(nativeT, nt)
			}
		}

		// Kernel probes on this operator: distributed SpMV with halo
		// exchange, the local block SpMV, and the ILU apply.
		const reps, blocks = 40, 5
		y := make([]float64, l.LocalN)
		fillRHS(x, l.Start, t.opt.seed, streamKrylov, 1<<29)
		probe := func(layer, name string, fn func()) float64 {
			var per []float64
			for k := 0; k < blocks; k++ {
				c.Barrier()
				a := time.Now()
				for r := 0; r < reps; r++ {
					fn()
				}
				c.Barrier()
				z := time.Now()
				span(0, layer, name, a, z)
				per = append(per, z.Sub(a).Seconds()/reps)
			}
			return median(per)
		}
		apply := probe("pmat", "Mat.Apply", func() { m.Apply(y, x) })
		xg := make([]float64, l.N)
		fillRHS(xg, 0, t.opt.seed, streamKrylov, 1<<29)
		local := probe("sparse", "CSR.MulVec", func() { localA.MulVec(y, xg) })
		pc, err := ksp.NewPC(ksp.PCILU)
		if err != nil {
			fail(err)
			return
		}
		if err := pc.SetUp(ksp.NewMat(m)); err != nil {
			fail(err)
			return
		}
		pcT := probe("ksp", "PC(ilu).Apply", func() { pc.Apply(y, x) })
		if root {
			spmv = append(spmv, apply)
			lspmv = append(lspmv, local)
			pcApp = append(pcApp, pcT)
			nnz, rows := float64(localA.NNZ()), float64(localA.Rows)
			// Computed, not measured: values and column indices, the row
			// pointers, one x load per nonzero and the y stores.
			spmvBytes = nnz*(8+8) + (rows+1)*8 + nnz*8 + rows*8
		}
	})
	if err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	r := t.res
	for _, name := range krylovBackends {
		r.set("iterations."+name, mean(iters[name]), len(iters[name]))
		r.set("phase.precond_s."+name, precond[name], 1)
		r.set("phase.iterate_s."+name, median(iterate[name]), len(iterate[name]))
		r.set("iterate_ms_per_iter."+name, 1e3*median(iterate[name])/mean(iters[name]), len(iterate[name]))
	}
	r.set("comm.collectives_per_iter", median(collPI["petsc"]), len(collPI["petsc"]))
	r.set("comm.barriers_per_iter", median(barPI["petsc"]), len(barPI["petsc"]))
	r.set("comm.collectives_per_iter.trilinos", median(collPI["trilinos"]), len(collPI["trilinos"]))
	r.set("comm.barriers_per_iter.trilinos", median(barPI["trilinos"]), len(barPI["trilinos"]))
	r.set("comm.barrier_wait_frac", median(waitFrac), len(waitFrac))
	r.set("comm.halo_msgs_per_iter", median(msgsPI), len(msgsPI))
	r.set("comm.halo_bytes_per_iter", median(bytesPI), len(bytesPI))
	r.set("phase.port_overhead_s", median(portOH), len(portOH))
	r.set("core.solve_allocs.petsc", median(allocs), len(allocs))

	// The paper's claim: CCA-port round minus native round, paired on the
	// same right-hand side, with percentile-bootstrap 95% intervals.
	diffs := make([]float64, len(untracedT))
	for i := range diffs {
		diffs[i] = untracedT[i] - nativeT[i]
	}
	base := median(untracedT)
	lo, hi := bootstrapCI(diffs, mean, t.opt.seed)
	r.set("port.overhead_s", mean(diffs), len(diffs))
	r.set("port.overhead_ci_lo_s", lo, len(diffs))
	r.set("port.overhead_ci_hi_s", hi, len(diffs))
	r.set("port.overhead_pct", 100*mean(diffs)/base, len(diffs))
	r.set("port.overhead_pct_ci_lo", 100*lo/base, len(diffs))
	r.set("port.overhead_pct_ci_hi", 100*hi/base, len(diffs))
	fmt.Printf("paper-claim CCA-port vs native (GMRES(30)+ILU, petsc then trilinos, n=%d, %d ranks): overhead %.4f s [95%% CI %.4f, %.4f] = %.2f%% [%.2f, %.2f] of solve_s %.4f s over %d paired rounds\n",
		krylovGrid*krylovGrid, krylovProcs, mean(diffs), lo, hi, 100*mean(diffs)/base, 100*lo/base, 100*hi/base, base, len(diffs))
	t.overhead[wlKrylov] = median(tracedT)/median(untracedT) - 1

	r.set("pmat.spmv_us", 1e6*median(spmv), len(spmv))
	r.set("sparse.spmv_us", 1e6*median(lspmv), len(lspmv))
	r.set("sparse.spmv_bytes", spmvBytes, 1)
	r.set("ksp.pc_apply_us", 1e6*median(pcApp), len(pcApp))
	return nil
}

// direct traces the direct-resolve operator: the staging calls, the
// factorization inside the first Solve, warm re-solves in alternating
// traced and untraced blocks, an allocation count, and the native
// superlu-role solver paired with the port for the overhead.
func (t *traced) direct(ctx context.Context) error {
	const blocks, perBlock, allocSolves, pairs = 5, 20, 50, 50
	problem := mesh.PaperProblem(directGrid)
	w, err := comm.NewWorld(directProcs)
	if err != nil {
		return err
	}
	var (
		setupMs, factor     float64
		trisolve, coll, bar []float64
		tracedT, untracedT  []float64
		allocs              float64
		portDiffs           []float64
		runErr              error
	)
	err = w.RunContext(ctx, func(c *comm.Comm) {
		root := c.Rank() == 0
		fail := func(e error) {
			if root && runErr == nil {
				runErr = e
			}
		}
		span := func(parent int, layer, name string, a, z time.Time) int {
			if !root {
				return 0
			}
			return t.tr.child(parent, layer, name, a, z)
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
		fillRHS(b, l.Start, t.opt.seed, streamDirect, 1<<28)

		rec := telemetry.New()
		c.Barrier()
		a := time.Now()
		sess, err := core.OpenSession("superlu", c, core.SessionOptions{Recorder: rec})
		if err != nil {
			fail(err)
			return
		}
		defer sess.Close()
		bb := time.Now()
		if err := sess.Setup(l, localA); err != nil {
			fail(err)
			return
		}
		cc := time.Now()
		if err := sess.SetupRHS(b, 1); err != nil {
			fail(err)
			return
		}
		c.Barrier()
		d := time.Now()
		r, err := sess.Solve(ctx, x)
		c.Barrier()
		e := time.Now()
		t.check(root, r, err, distResidual(c, m, b, x), directBound)
		if root {
			setupMs = 1e3 * d.Sub(a).Seconds()
			factor = rec.PhaseSeconds(telemetry.PhaseSetup)
			id := span(0, "harness", "direct.setup", a, e)
			span(id, "core", "OpenSession", a, bb)
			span(id, "core", "Setup", bb, cc)
			span(id, "core", "SetupRHS", cc, d)
			span(id, "core", "Solve(first)", d, e)
		}

		solve := func(traced bool, op int) float64 {
			fillRHS(b, l.Start, t.opt.seed, streamDirect, 1<<28|op)
			if traced {
				setRecorder(sess, rec)
				rec.Reset()
			} else {
				setRecorder(sess, nil)
			}
			for i := range x {
				x[i] = 0
			}
			c.Barrier()
			before := c.Stats()
			ta := time.Now()
			if err := sess.SetupRHS(b, 1); err != nil {
				fail(err)
			}
			tb := time.Now()
			r, err := sess.Solve(ctx, x)
			after := c.Stats()
			c.Barrier()
			tc := time.Now()
			t.check(root, r, err, distResidual(c, m, b, x), directBound)
			if traced {
				dl := commDelta(c, before, after)
				if root {
					id := span(0, "harness", "direct.solve", ta, tc)
					span(id, "core", "SetupRHS", ta, tb)
					span(id, "core", "Solve", tb, tc)
					trisolve = append(trisolve, rec.PhaseSeconds(telemetry.PhaseIterate))
					coll = append(coll, float64(dl.Collectives))
					bar = append(bar, float64(dl.BarrierEntries))
				}
			}
			return tc.Sub(tb).Seconds()
		}
		op := 1
		for k := 0; k < blocks; k++ {
			for _, traced := range []bool{true, false} {
				for j := 0; j < perBlock; j++ {
					s := solve(traced, op)
					op++
					if !root {
						continue
					}
					if traced {
						tracedT = append(tracedT, s)
					} else {
						untracedT = append(untracedT, s)
					}
				}
			}
		}

		// Allocations of warm untraced solves, both ranks together.
		setRecorder(sess, nil)
		c.Barrier()
		var ms0, ms1 runtime.MemStats
		if root {
			runtime.ReadMemStats(&ms0)
		}
		c.Barrier()
		for k := 0; k < allocSolves; k++ {
			if _, err := sess.Solve(ctx, x); err != nil {
				fail(err)
			}
		}
		c.Barrier()
		if root {
			runtime.ReadMemStats(&ms1)
			allocs = float64(ms1.Mallocs-ms0.Mallocs) / allocSolves
		}
		c.Barrier()

		// The native direct solver on the same operator and right-hand
		// sides, paired solve by solve with the port.
		ds, err := slu.NewDistSolver(m, slu.DefaultOptions())
		if err != nil {
			fail(err)
			return
		}
		for k := 0; k < pairs; k++ {
			port := solve(false, op)
			fillRHS(b, l.Start, t.opt.seed, streamDirect, 1<<28|op)
			op++
			c.Barrier()
			ta := time.Now()
			xn, err := ds.Solve(b)
			c.Barrier()
			tb := time.Now()
			if root {
				span(0, "native", "slu.DistSolver.Solve", ta, tb)
			}
			rel := distResidual(c, m, b, xn)
			if root {
				t.res.op(err == nil && finiteWithin(rel, directBound), finiteWithin(rel, directBound))
				portDiffs = append(portDiffs, port-tb.Sub(ta).Seconds())
			}
		}
	})
	if err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	r := t.res
	r.set("core.setup_ms", setupMs, 1)
	r.set("slu.factor_s", factor, 1)
	r.set("slu.trisolve_ms", 1e3*median(trisolve), len(trisolve))
	r.set("comm.collectives_per_solve.superlu", median(coll), len(coll))
	r.set("comm.barriers_per_solve.superlu", median(bar), len(bar))
	r.set("core.solve_allocs", allocs, allocSolves)
	r.set("port.overhead_s.superlu", median(portDiffs), len(portDiffs))
	t.overhead[wlDirect] = median(tracedT)/median(untracedT) - 1
	return nil
}

// serve runs serve-mixed under the tracer: a service warmed from empty,
// an open-loop phase at the fixed rate with spans around every ServeHTTP
// call, then the closed-loop saturation probe.
func (t *traced) serve(ctx context.Context) error {
	ops, err := newServeOps()
	if err != nil {
		return err
	}
	sch := newScheduler(ops, t.opt.seed)
	svc, h, setup, err := serveSetup(sch, t.res)
	if err != nil {
		return err
	}
	defer drain(svc)
	sched, err := sch.schedule(0, serveRate, max(t.opt.budget/5, 2*time.Second))
	if err != nil {
		return err
	}
	before := svc.Stats()
	out := serveLoad(h, sched, t.tr)
	after := svc.Stats()

	var lat, cold, over, solve, late, batch []float64
	reused, shed := 0, 0
	for _, o := range out {
		t.res.op(o.ok, o.verified)
		lat = append(lat, o.latencyMs())
		late = append(late, 1e3*o.sent.Sub(o.due).Seconds())
		if o.shed {
			shed++
		}
		if !o.ok {
			continue
		}
		over = append(over, 1e3*(o.end.Sub(o.start).Seconds()-o.solveWall))
		solve = append(solve, 1e3*o.solveWall)
		batch = append(batch, float64(max(o.batchNRHS, o.nrhs)))
		if o.reused {
			reused++
		} else {
			cold = append(cold, o.latencyMs())
		}
	}
	goodput, sat, err := saturate(h, sch, 1, serveClients, serveSaturateTime)
	if err != nil {
		return err
	}
	for _, o := range sat {
		t.res.op(o.ok || o.shed, o.verified)
	}

	n := len(out)
	requests := after.Counters["requests"] - before.Counters["requests"]
	evicted := after.Counters["sessions_evicted"] - before.Counters["sessions_evicted"]
	r := t.res
	r.set("service.latency_p50_ms", median(lat), n)
	r.set("service.latency_p99_ms", p99(lat), n)
	r.set("service.cold_latency_p50_ms", median(cold), len(cold))
	r.set("service.max_rate_rps", goodput, len(sat))
	r.set("service.setup_ms", 1e3*setup, 1)
	r.set("service.overhead_p50_ms", median(over), len(over))
	r.set("service.overhead_p99_ms", p99(over), len(over))
	r.set("service.solve_ms", median(solve), len(solve))
	r.set("service.reuse_ratio", float64(reused)/float64(len(over)), len(over))
	r.set("service.batch_rhs_mean", mean(batch), len(batch))
	r.set("service.shed_frac", float64(shed)/float64(n), n)
	r.set("service.evictions_per_1k", 1e3*float64(evicted)/float64(requests), int(requests))
	r.set("harness.late_ms_p99", p99(late), len(late))
	return nil
}

// collectives times the reductions Krylov methods are built on: one
// value and 31 values (a GMRES(30) Gram–Schmidt row) across the 2-rank
// world of the library workloads, and one value on the size-1 world
// every serve-mixed session runs on.
func (t *traced) collectives(ctx context.Context) error {
	const reps, blocks = 2000, 5
	time1 := func(size int, name string, fn func(c *comm.Comm)) (float64, error) {
		w, err := comm.NewWorld(size)
		if err != nil {
			return 0, err
		}
		var per []float64
		err = w.RunContext(ctx, func(c *comm.Comm) {
			for k := 0; k < blocks; k++ {
				c.Barrier()
				a := time.Now()
				for r := 0; r < reps; r++ {
					fn(c)
				}
				c.Barrier()
				z := time.Now()
				if c.Rank() == 0 {
					t.tr.root("comm", name, a, z)
					per = append(per, z.Sub(a).Seconds()/reps)
				}
			}
		})
		return 1e6 * median(per), err
	}
	one := func(c *comm.Comm) { c.AllReduceFloat64(1, comm.OpSum) }
	buf := make([][]float64, 2)
	for i := range buf {
		buf[i] = make([]float64, 31)
	}
	row := func(c *comm.Comm) { c.AllReduceFloat64sInPlace(buf[c.Rank()], comm.OpSum) }
	v1, err := time1(2, "AllReduceFloat64", one)
	if err != nil {
		return err
	}
	v31, err := time1(2, "AllReduceFloat64sInPlace(31)", row)
	if err != nil {
		return err
	}
	s1, err := time1(1, "AllReduceFloat64(size1)", one)
	if err != nil {
		return err
	}
	t.res.set("comm.allreduce1_us", v1, blocks)
	t.res.set("comm.allreduce31_us", v31, blocks)
	t.res.set("comm.allreduce1_us.size1", s1, blocks)
	return nil
}
