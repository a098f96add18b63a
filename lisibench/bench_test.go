package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/service"
)

// TestMetricNamesMatchBenchmarkJSON keeps the metrics the program
// reports and the workloads it accepts in step with BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", names, workloads)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the program %v", spec.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the program %v", spec.PerLayer, perLayerMetrics)
	}
}

// TestInputsDependOnlyOnSeed: the same seed gives byte-identical inputs
// and another seed different ones, for every workload.
func TestInputsDependOnlyOnSeed(t *testing.T) {
	for _, w := range []string{wlKrylov, wlDirect, wlServe} {
		a, err := inputDigest(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := inputDigest(w, 7)
		c, _ := inputDigest(w, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs %s", w, a)
		}
	}
}

func TestPercentileOnKnownSamples(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 … 1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{3, 1, 2}, 99); got != 3 {
		t.Errorf("p99 of 3 samples = %v, want the largest, 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of {1,3,5} = %v, want 3", got)
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("empty samples must give NaN so a missing metric is caught")
	}
	lo, hi := bootstrapCI([]float64{2, 2, 2, 2}, mean, 1)
	if lo != 2 || hi != 2 {
		t.Errorf("bootstrap CI of a constant = [%v, %v], want [2, 2]", lo, hi)
	}
	lo, hi = bootstrapCI([]float64{1, 2, 3, 4, 5, 6, 7, 8}, mean, 1)
	if !(lo < 4.5 && 4.5 < hi) {
		t.Errorf("bootstrap CI [%v, %v] misses the sample mean 4.5", lo, hi)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.root("harness", "round", at(0), at(100))
	tr.child(root, "core", "a", at(10), at(40))
	tr.child(root, "core", "b", at(30), at(60)) // overlaps a: covered 10..60
	call := tr.child(root, "service", "c", at(80), at(120))
	tr.child(call, "core", "d", at(90), at(100))
	self, total := tr.selfTimes()
	want := map[string]float64{"harness": 0.030, "core": 0.070, "service": 0.030}
	for layer, w := range want {
		if math.Abs(self[layer]-w) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], w)
		}
	}
	if math.Abs(total-0.1) > 1e-9 {
		t.Errorf("total root time = %v, want 0.1", total)
	}
}

// TestWrongAnswerCountsAsFailed injects a wrong solution into a real
// session solve and checks that it is counted as failed and wrong; a
// NaN residual must fail too, though NaN compares false with the bound.
func TestWrongAnswerCountsAsFailed(t *testing.T) {
	problem := mesh.PaperProblem(12)
	w, err := comm.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	res := newResult()
	err = w.Run(func(c *comm.Comm) {
		l, _ := pmat.EvenLayout(c, problem.N())
		a, b, _ := problem.GenerateLocal(l)
		m, _ := pmat.NewMat(l, a)
		s, err := core.OpenSession("superlu", c, core.SessionOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Close()
		x := make([]float64, l.LocalN)
		if err := s.Setup(l, a); err != nil {
			t.Error(err)
			return
		}
		if err := s.SetupRHS(b, 1); err != nil {
			t.Error(err)
			return
		}
		r, err := s.Solve(context.Background(), x)
		good := distResidual(c, m, b, x)
		x[0] += 1e-3 // the injected wrong answer
		bad := distResidual(c, m, b, x)
		if c.Rank() != 0 {
			return
		}
		res.op(checkSolve(r, err, good, directBound))
		res.op(checkSolve(r, err, bad, directBound))
		res.op(checkSolve(r, err, math.NaN(), directBound))
		res.op(checkSolve(r, err, math.Inf(1), directBound))
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted != 4 || res.failed != 3 || res.wrong != 3 {
		t.Errorf("attempted/failed/wrong = %d/%d/%d, want 4/3/3", res.attempted, res.failed, res.wrong)
	}
}

// TestJudgeChecksReturnedSolution: a served answer whose returned
// solution does not solve the system fails verification.
func TestJudgeChecksReturnedSolution(t *testing.T) {
	ops, err := newServeOps()
	if err != nil {
		t.Fatal(err)
	}
	sch := newScheduler(ops, 3)
	req, err := sch.request(0, 2, 1, true) // superlu operator
	if err != nil {
		t.Fatal(err)
	}
	// An exact answer: pick x and make b = A·x.
	n := req.a.Rows
	x := make([]float64, n)
	fillRHS(x, 0, 3, 99, 0)
	req.a.MulVec(req.rhs, x)
	reply := func(sol []float64) []byte {
		b, _ := json.Marshal(service.SolveResponse{Converged: true, FailReason: core.FailNone.String(), Solution: sol, SessionReused: true})
		return b
	}
	if o := judge(&req, 200, reply(x)); !o.ok || !o.verified {
		t.Fatalf("exact answer judged ok=%t verified=%t", o.ok, o.verified)
	}
	wrong := append([]float64(nil), x...)
	wrong[n/2] += 1
	if o := judge(&req, 200, reply(wrong)); o.ok || o.verified {
		t.Errorf("wrong answer judged ok=%t verified=%t", o.ok, o.verified)
	}
	nan := append([]float64(nil), x...)
	nan[0] = math.NaN()
	if o := judge(&req, 200, reply(nan)); o.ok || o.verified {
		t.Errorf("NaN answer judged ok=%t verified=%t", o.ok, o.verified)
	}
	if o := judge(&req, 200, reply(x[:n-1])); o.ok || o.verified {
		t.Error("short answer passed verification")
	}
	shed, _ := json.Marshal(map[string]any{"error": map[string]any{"code": service.CodeQueueFull}})
	if o := judge(&req, 429, shed); o.ok || !o.shed || !o.verified {
		t.Errorf("shed reply judged ok=%t shed=%t verified=%t", o.ok, o.shed, o.verified)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if code := run([]string{"--workload", "nope", "--seconds", "1"}); code == 0 {
		t.Error("an unknown workload exited 0")
	}
	if _, err := runWorkload(context.Background(), options{workload: "nope"}); err == nil {
		t.Error("runWorkload accepted an unknown workload")
	}
}
