package service_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/service"
)

// TestServiceMatchesDirectSessionBitwise pins one arithmetic for every
// entry point: a 1-rank service solve and a direct core.Session solve of
// the same system must agree bit for bit. grid_n = 50 gives a local
// block of 2,500 rows, long enough that any blocked reduction order
// (one that folds partial sums per block of a couple of thousand
// entries) would diverge from the plain serial sums.
func TestServiceMatchesDirectSessionBitwise(t *testing.T) {
	const gridN = 50
	params := map[string]string{
		"solver": "gmres", "preconditioner": "ilu",
		"tol": "1e-8", "maxits": "2000", "restart": "30",
	}

	svc := newTestService(t, service.Config{})
	req := &service.SolveRequest{
		Tenant: "acme", Backend: "petsc", Params: params,
		Operator:       service.OperatorRef{ID: "grid", Version: 1, GridN: gridN},
		ReturnSolution: true,
	}
	var resp service.SolveResponse
	if serr := svc.Solve(context.Background(), req, &resp); serr != nil {
		t.Fatalf("service solve: %v", serr)
	}
	if !resp.Converged {
		t.Fatalf("service solve did not converge: %+v", resp)
	}

	var direct []float64
	var directIts int
	w, err := comm.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *comm.Comm) {
		l, err := pmat.EvenLayout(c, gridN*gridN)
		if err != nil {
			t.Fatal(err)
		}
		a, _, err := mesh.PaperProblem(gridN).GenerateLocal(l)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.OpenSession("petsc", c, core.SessionOptions{Params: params})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Setup(l, a); err != nil {
			t.Fatal(err)
		}
		b := make([]float64, l.LocalN)
		for i := range b {
			b[i] = 1
		}
		if err := s.SetupRHS(b, 1); err != nil {
			t.Fatal(err)
		}
		direct = make([]float64, l.LocalN)
		res, err := s.Solve(context.Background(), direct)
		if err != nil {
			t.Fatal(err)
		}
		directIts = res.Iterations
	}); err != nil {
		t.Fatal(err)
	}

	if resp.Iterations != directIts {
		t.Fatalf("service took %d iterations, direct session %d", resp.Iterations, directIts)
	}
	if len(resp.Solution) != len(direct) {
		t.Fatalf("service solution has %d entries, direct %d", len(resp.Solution), len(direct))
	}
	differ := 0
	for i := range direct {
		if math.Float64bits(resp.Solution[i]) != math.Float64bits(direct[i]) {
			differ++
		}
	}
	if differ > 0 {
		t.Fatalf("service and direct solutions differ in %d of %d entries", differ, len(direct))
	}
}
