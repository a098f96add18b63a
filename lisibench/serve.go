package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/service"
	"repro/internal/sparse"
)

// serve-mixed: open-loop Poisson traffic into the in-process
// service.Service.Handler(), called directly through ServeHTTP (no
// sockets), followed by a closed-loop saturation probe. Every session is
// procs=1. The operator table is fixed; the seed picks right-hand sides,
// the request order, which requests burst, carry several right-hand
// sides, upload a new operator version or ask for the solution back, and
// the arrival times. It runs in the traced suite only (see README.md).
const (
	serveRate         = 300.0 // offered load of the fixed-rate phase (req/s)
	serveLimitP99Ms   = 250.0 // latency limit an answer must meet to count as goodput (ms)
	serveClients      = 8     // closed-loop callers of the saturation probe
	serveSaturateTime = 5 * time.Second
	serveFEMN         = 8 // FEM cube edge: (8−1)³ = 343 unknowns
	serveBurstShare   = 0.2
	serveBurstSize    = 3
	serveMultiShare   = 0.15
	serveUploadShare  = 0.03
	serveVerifyShare  = 0.2
)

func serveConfig() service.Config {
	return service.Config{
		DefaultProcs:     1,
		MaxProcs:         1,
		MaxSessions:      12, // 10 live operators plus stale versions: uploads force evictions
		QueueDepth:       128,
		MaxPending:       512,
		TenantMaxPending: 512,
		MaxBatchRHS:      8,
		MaxNRHS:          4,
	}
}

// serveOp is one pooled operator of the traffic mix.
type serveOp struct {
	tenant, backend, id string
	params              map[string]string
	grid                int  // paper problem on grid×grid, sent as operator.grid_n
	fem                 bool // FEM operator sent as an explicit CSR matrix body
	weight              int  // share of the traffic, in percent
	bound               float64
}

type serveOps struct {
	ops   []serveOp
	grids map[int]*sparse.CSR // paper operators by grid size, for verification
}

func newServeOps() (*serveOps, error) {
	krylov := func(pc string) map[string]string {
		return map[string]string{"solver": "gmres", "preconditioner": pc, "restart": "30", "tol": "1e-8", "maxits": "2000"}
	}
	mg := map[string]string{"grid_n": "15", "tol": "1e-8"}
	it := iterativeBoundFactor * 1e-8
	ops := []serveOp{
		{"t0", "petsc", "heat", krylov("ilu"), 16, false, 20, it},
		{"t1", "petsc", "heat", krylov("ilu"), 16, false, 15, it},
		{"t2", "superlu", "plate", nil, 16, false, 15, directBound},
		{"t0", "superlu", "plate", nil, 16, false, 10, directBound},
		{"t1", "trilinos", "flow", krylov("ilu"), 16, false, 10, it},
		{"t2", "mg", "poisson", mg, 15, false, 10, it},
		{"t0", "petsc", "fem", krylov("ilu"), 0, true, 8, it},
		{"t1", "mg", "poisson", mg, 15, false, 5, it},
		{"t2", "trilinos", "flow", krylov("ilu"), 16, false, 4, it},
		{"t1", "superlu", "plate", nil, 16, false, 3, directBound},
	}
	s := &serveOps{ops: ops, grids: map[int]*sparse.CSR{}}
	for _, op := range ops {
		if op.grid > 0 && s.grids[op.grid] == nil {
			a, _, err := mesh.PaperProblem(op.grid).GenerateGlobal()
			if err != nil {
				return nil, err
			}
			s.grids[op.grid] = a
		}
	}
	return s, nil
}

// femOperator is the FEM operator of a version: a jittered tetrahedral
// Poisson mesh whose jitter depends on the seed and the version, so an
// upload really changes the matrix.
func femOperator(seed int64, version int) (*sparse.CSR, error) {
	a, _, err := mesh.DefaultFEMProblem(serveFEMN, int64(splitmix64(uint64(seed)^uint64(version)<<32)>>1)).GenerateGlobal()
	return a, err
}

// schedReq is one scheduled request with everything needed to check its
// answer.
type schedReq struct {
	at     time.Duration // send time, relative to the phase start
	op     int
	nrhs   int
	verify bool    // asks for the solution and checks its true residual
	bound  float64 // true-residual bound of the operator's backend
	rhs    []float64
	a      *sparse.CSR // the operator, kept only when verify is set
	body   []byte
}

// scheduler builds request schedules. The operator versions it hands
// out persist across the phases of one run, so uploads accumulate.
type scheduler struct {
	ops      *serveOps
	seed     int64
	versions []int
	fem      map[int]*sparse.CSR
	next     int // request counter: the right-hand-side stream index
}

func newScheduler(ops *serveOps, seed int64) *scheduler {
	v := make([]int, len(ops.ops))
	for i := range v {
		v[i] = 1
	}
	return &scheduler{ops: ops, seed: seed, versions: v, fem: map[int]*sparse.CSR{}}
}

// operator returns the matrix of op at version v.
func (s *scheduler) operator(op, v int) (*sparse.CSR, error) {
	o := s.ops.ops[op]
	if !o.fem {
		return s.ops.grids[o.grid], nil
	}
	if a := s.fem[v]; a != nil {
		return a, nil
	}
	a, err := femOperator(s.seed, v)
	if err != nil {
		return nil, err
	}
	s.fem[v] = a
	return a, nil
}

// request builds one request for op at its current version.
func (s *scheduler) request(at time.Duration, op, nrhs int, verify bool) (schedReq, error) {
	o := s.ops.ops[op]
	v := s.versions[op]
	a, err := s.operator(op, v)
	if err != nil {
		return schedReq{}, err
	}
	n := a.Rows
	rhs := make([]float64, n*nrhs)
	fillRHS(rhs, 0, s.seed, streamServeRHS, s.next)
	s.next++
	req := service.SolveRequest{
		Tenant:         o.tenant,
		Backend:        o.backend,
		Params:         o.params,
		Operator:       service.OperatorRef{ID: o.id, Version: v, GridN: o.grid},
		RHS:            rhs,
		NRHS:           nrhs,
		ReturnSolution: verify,
	}
	if o.fem {
		req.Operator.Matrix = &service.MatrixPayload{N: n, RowPtr: a.RowPtr, ColInd: a.ColInd, Vals: a.Vals}
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return schedReq{}, err
	}
	r := schedReq{at: at, op: op, nrhs: nrhs, verify: verify, bound: o.bound, body: body}
	if verify {
		r.rhs, r.a = rhs, a
	}
	return r, nil
}

// warmup returns one request for each of the n most popular operators
// (the table is in popularity order) at its current version.
func (s *scheduler) warmup(n int) ([]schedReq, error) {
	out := make([]schedReq, min(n, len(s.ops.ops)))
	for i := range out {
		r, err := s.request(0, i, 1, true)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// schedule builds an open-loop schedule at the given offered rate over
// dur: Poisson arrival events, each one request or a burst of requests
// for the same operator sent together.
func (s *scheduler) schedule(phase int, rate float64, dur time.Duration) ([]schedReq, error) {
	r := newRNG(s.seed, streamServeArrivals<<8|phase)
	mix := newRNG(s.seed, streamServeMix<<8|phase)
	perEvent := 1 + serveBurstShare*(serveBurstSize-1)
	meanGap := float64(time.Second) * perEvent / rate
	var out []schedReq
	for t := r.exp(meanGap); time.Duration(t) < dur; t += r.exp(meanGap) {
		ev, err := s.event(mix, time.Duration(t))
		if err != nil {
			return nil, err
		}
		out = append(out, ev...)
	}
	return out, nil
}

// event draws the requests of one arrival event: the operator, whether
// it is a burst, and per request an upload (new operator version), the
// right-hand-side count and whether the answer is checked.
func (s *scheduler) event(mix *rng, at time.Duration) ([]schedReq, error) {
	op := s.pick(mix)
	k := 1
	if mix.float() < serveBurstShare {
		k = serveBurstSize
	}
	out := make([]schedReq, 0, k)
	for j := 0; j < k; j++ {
		if mix.float() < serveUploadShare {
			s.versions[op]++
		}
		nrhs := 1
		if mix.float() < serveMultiShare {
			nrhs = 2 + 2*mix.intn(2)
		}
		req, err := s.request(at, op, nrhs, mix.float() < serveVerifyShare)
		if err != nil {
			return nil, err
		}
		out = append(out, req)
	}
	return out, nil
}

func (s *scheduler) pick(r *rng) int {
	x := r.intn(100)
	for i, op := range s.ops.ops {
		if x < op.weight {
			return i
		}
		x -= op.weight
	}
	return len(s.ops.ops) - 1
}

// outcome is what the client saw for one request.
type outcome struct {
	due, sent, start, end time.Time
	ok, verified          bool
	reused                bool
	batchNRHS             int
	solveWall             float64
	nrhs                  int
	shed                  bool
	code                  string // typed error code of a non-200 reply
}

func (o *outcome) latencyMs() float64 { return 1e3 * o.end.Sub(o.due).Seconds() }

// drive sends sched open-loop from one generator goroutine: request i is
// due at start+at and is timed from that due time, so a stall that makes
// the generator late is charged to the requests it delays.
func drive(h http.Handler, sched []schedReq, spans *tracer) []outcome {
	out := make([]outcome, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sched {
		due := start.Add(sched[i].at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(sched[i].body))
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			end := time.Now()
			o := judge(&sched[i], rec.Code, rec.Body.Bytes())
			o.due, o.sent, o.start, o.end = due, sent, t0, end
			out[i] = o
			if spans != nil {
				id := spans.root("harness", "request", due, end)
				call := spans.child(id, "service", "ServeHTTP", t0, end)
				if o.solveWall > 0 {
					// Only the solve's length is known from outside; it is
					// placed at the end of the call it ran inside.
					spans.child(call, "core", "Session.Solve(pooled)", end.Add(-time.Duration(o.solveWall*1e9)), end)
				}
			}
		}(i)
	}
	wg.Wait()
	return out
}

// judge decodes a response and checks it: HTTP 200, a converged typed
// result, a finite reported residual and, for sampled requests, the true
// residual of the returned solution against the operator.
func judge(r *schedReq, code int, body []byte) outcome {
	o := outcome{nrhs: r.nrhs}
	if code != http.StatusOK {
		o.verified = true // nothing was answered, so nothing is wrong
		var e struct {
			Error service.Error `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil {
			o.code = e.Error.Code
			switch e.Error.Code {
			case service.CodeQueueFull, service.CodeOverloaded, service.CodeTenantQuota, service.CodePoolFull:
				o.shed = true
			}
		}
		return o
	}
	var resp service.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return o
	}
	o.reused = resp.SessionReused
	o.batchNRHS = resp.BatchNRHS
	o.solveWall = resp.SolveWallS
	o.verified = finiteWithin(resp.Residual, 1e300)
	if r.verify {
		n := r.a.Rows
		if len(resp.Solution) != n*r.nrhs {
			o.verified = false
		}
		for k := 0; o.verified && k < r.nrhs; k++ {
			rel := globalResidual(r.a, r.rhs[k*n:(k+1)*n], resp.Solution[k*n:(k+1)*n])
			o.verified = finiteWithin(rel, r.bound)
		}
	}
	o.ok = o.verified && resp.Converged && resp.FailReason == core.FailNone.String()
	return o
}

// sendSequential sends requests one at a time (warm-up and setup timing).
func sendSequential(h http.Handler, reqs []schedReq) []outcome {
	out := make([]outcome, len(reqs))
	for i := range reqs {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(reqs[i].body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		end := time.Now()
		o := judge(&reqs[i], rec.Code, rec.Body.Bytes())
		o.due, o.sent, o.start, o.end = t0, t0, t0, end
		out[i] = o
	}
	return out
}

func drain(svc *service.Service) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return svc.Drain(ctx)
}

// serveSetup builds a service and warms its pool: one cold request per
// operator, then the same requests again warm. It returns the service,
// its handler and the one-time setup cost (cold pass − warm pass).
func serveSetup(sch *scheduler, res *result) (*service.Service, http.Handler, float64, error) {
	svc, err := service.New(serveConfig())
	if err != nil {
		return nil, nil, 0, err
	}
	h := svc.Handler()
	// Only as many operators as the pool holds: a sequential pass over
	// more would evict each one just before its warm request.
	reqs, err := sch.warmup(serveConfig().MaxSessions)
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	cold := sendSequential(h, reqs)
	coldWall := time.Since(t0).Seconds()
	t1 := time.Now()
	warm := sendSequential(h, reqs)
	warmWall := time.Since(t1).Seconds()
	for _, o := range append(cold, warm...) {
		res.op(o.ok, o.verified)
	}
	return svc, h, coldWall - warmWall, nil
}

// saturate measures the service's capacity with a closed loop: clients
// callers each send the next arrival event (a burst's requests together)
// as soon as their previous one is answered, for dur. It returns the
// goodput — answers that were correct and within the latency limit, per
// second — and every outcome. Shed requests count as misses of the
// limit; they are load shedding working as designed at saturation.
func saturate(h http.Handler, sch *scheduler, phase, clients int, dur time.Duration) (float64, []outcome, error) {
	mix := newRNG(sch.seed, streamServeMix<<8|phase)
	var mu sync.Mutex // guards sch, mix, outs and firstErr
	var outs []outcome
	var firstErr error
	var wg sync.WaitGroup
	runtime.GC()
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				ev, err := sch.event(mix, 0)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
				got := sendTogether(h, ev)
				mu.Lock()
				outs = append(outs, got...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, nil, firstErr
	}
	// Goodput per one-second window of completions, and the upper
	// quartile over the windows: interference from other guests only
	// removes capacity (see speed.go).
	windows := make([]float64, int(dur/time.Second))
	for _, o := range outs {
		k := int(o.end.Sub(start) / time.Second)
		if k < len(windows) && o.ok && o.latencyMs() <= serveLimitP99Ms {
			windows[k]++
		}
	}
	return percentile(windows, 75), outs, nil
}

// sendTogether sends an event's requests concurrently and waits for all.
func sendTogether(h http.Handler, reqs []schedReq) []outcome {
	out := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = sendSequential(h, reqs[i:i+1])[0]
		}(i)
	}
	wg.Wait()
	return out
}

// serveLoad runs one open-loop phase. It collects garbage first, so the
// previous phase's debt is not charged to this one.
func serveLoad(h http.Handler, sched []schedReq, spans *tracer) []outcome {
	runtime.GC()
	return drive(h, sched, spans)
}
