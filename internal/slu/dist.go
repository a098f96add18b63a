package slu

import (
	"errors"
	"fmt"

	"repro/internal/comm"
	"repro/internal/pmat"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// DistSolver is the distributed front end standing in for SuperLU_DIST:
// it accepts a block-row distributed matrix and right-hand side and
// returns the conformally distributed solution. Internally the matrix is
// gathered to rank 0 and factored there — a documented substitution
// (DESIGN.md): the paper uses SuperLU only as one more package behind the
// LISI port, and gather-to-root preserves the call pattern (distributed
// data in, distributed solution out) while keeping the factorization
// serial.
type DistSolver struct {
	layout *pmat.Layout
	f      *LU         // non-nil on rank 0 only
	global *sparse.CSR // non-nil on rank 0 only
	nnz    int
	rec    *telemetry.Recorder

	// Persistent per-solve buffers (steady-state reuse): the gathered
	// rhs and solution (rank 0 only), the scatter views into xGlobal,
	// and the fused {errFlag, residual} status broadcast staging.
	bGlobal []float64
	xGlobal []float64
	parts   [][]float64
	stat    [2]float64
}

// SetRecorder attaches a telemetry recorder: the root triangular solves
// (and refinement) of later Solve calls are timed into PhaseIterate and
// refinement steps are counted. Nil disables instrumentation.
func (d *DistSolver) SetRecorder(r *telemetry.Recorder) { d.rec = r }

// SetFormat is accepted for interface symmetry but is a no-op: the
// direct solver gathers the matrix and factors it at construction, so
// no distributed SpMV kernel survives to re-format. Refinement's
// residuals use the gathered triangular factors, not a pmat product.
func (d *DistSolver) SetFormat(fc sparse.FormatChoice) (pmat.FormatInfo, bool) {
	return pmat.FormatInfo{}, false
}

// NewDistSolver gathers the distributed matrix to rank 0 and factors it
// there (collective). Every rank receives the same success/failure
// outcome.
func NewDistSolver(m *pmat.Mat, opts Options) (*DistSolver, error) {
	l := m.L
	c := l.Comm()
	d := &DistSolver{layout: l}
	// GatherGlobal assembles on every rank; only rank 0 retains it. The
	// assembly cost is dominated by the factorization, and the gather is
	// itself the collective every rank must join.
	global := m.GatherGlobal()
	nnz := -1
	var rootErr error
	if c.Rank() == 0 {
		f, err := Factor(global, opts)
		if err != nil {
			rootErr = err
		} else {
			d.f = f
			d.global = global
			nnz = global.NNZ()
		}
	}
	// One broadcast carries both the outcome (nnz < 0 on failure) and
	// nnz; the error itself is exchanged only on failure.
	if d.nnz = c.BcastInt(0, nnz); d.nnz < 0 {
		return nil, fmt.Errorf("slu: distributed factorization failed: %w", bcastRootError(c, rootErr))
	}
	return d, nil
}

// Factorization exposes the LU factors (nil on ranks other than 0).
func (d *DistSolver) Factorization() *LU { return d.f }

// FillRatio reports nnz(L+U)/nnz(A) (collective).
func (d *DistSolver) FillRatio() float64 {
	c := d.layout.Comm()
	v := 0.0
	if c.Rank() == 0 {
		v = d.f.FillRatio(d.nnz)
	}
	all := c.BcastFloat64s(0, []float64{v})
	return all[0]
}

// Solve solves A·x = b for a conformally distributed right-hand side and
// returns this rank's block of the solution (collective).
func (d *DistSolver) Solve(bLocal []float64) ([]float64, error) {
	l := d.layout
	if len(bLocal) != l.LocalN {
		return nil, fmt.Errorf("slu: DistSolver.Solve: local rhs has length %d, want %d", len(bLocal), l.LocalN)
	}
	x := make([]float64, l.LocalN)
	_, err := d.rootSolveInto(x, bLocal, 0)
	if err != nil {
		return nil, err
	}
	return x, nil
}

// rootSolveInto gathers the rhs at rank 0, solves (with optional
// refinement steps), and scatters the solution into the caller-provided
// xLocal (collective). Returns the refinement residual ∞-norm. Repeated
// calls reuse the gathered-vector buffers and fuse the error flag and
// residual into one broadcast, so the steady state does not allocate; the
// error text itself is only exchanged on failure.
func (d *DistSolver) rootSolveInto(xLocal, bLocal []float64, steps int) (float64, error) {
	l := d.layout
	c := l.Comm()
	d.bGlobal = pmat.GatherInto(l, 0, d.bGlobal, bLocal)
	var rootErr error
	d.stat[0], d.stat[1] = 0, 0
	if c.Rank() == 0 {
		if len(d.xGlobal) != l.N {
			d.xGlobal = make([]float64, l.N)
			// Scatter views into the (re)allocated solution buffer.
			d.parts = make([][]float64, c.Size())
			for r := 0; r < c.Size(); r++ {
				d.parts[r] = d.xGlobal[l.Starts[r]:l.Starts[r+1]]
			}
		}
		stop := d.rec.StartPhase(telemetry.PhaseIterate)
		rootErr = d.f.SolveInto(d.xGlobal, d.bGlobal)
		if rootErr == nil && steps > 0 {
			d.rec.Add("slu.refine_steps", int64(steps))
			d.stat[1], rootErr = d.f.Refine(d.global, d.bGlobal, d.xGlobal, steps)
		}
		stop()
		d.rec.Add("slu.root_solves", 1)
		if rootErr != nil {
			d.stat[0] = 1
		}
	}
	c.BcastFloat64sInto(0, d.stat[:])
	if d.stat[0] != 0 {
		return 0, fmt.Errorf("slu: %w", bcastRootError(c, rootErr))
	}
	c.ScatterVFloat64sInto(0, d.parts, xLocal)
	return d.stat[1], nil
}

// SolveRefined solves like Solve and then applies steps of iterative
// refinement (steps may be 0), returning this rank's solution block and
// the global ∞-norm of the final residual (collective).
func (d *DistSolver) SolveRefined(bLocal []float64, steps int) ([]float64, float64, error) {
	l := d.layout
	if len(bLocal) != l.LocalN {
		return nil, 0, fmt.Errorf("slu: DistSolver.SolveRefined: local rhs has length %d, want %d", len(bLocal), l.LocalN)
	}
	if steps < 0 {
		return nil, 0, fmt.Errorf("slu: DistSolver.SolveRefined: negative step count %d", steps)
	}
	x := make([]float64, l.LocalN)
	res, err := d.rootSolveInto(x, bLocal, steps)
	if err != nil {
		return nil, 0, err
	}
	return x, res, nil
}

// SolveRefinedInto is SolveRefined writing this rank's solution block
// into the caller-provided xLocal; repeated calls do not allocate.
func (d *DistSolver) SolveRefinedInto(xLocal, bLocal []float64, steps int) (float64, error) {
	l := d.layout
	if len(bLocal) != l.LocalN || len(xLocal) != l.LocalN {
		return 0, fmt.Errorf("slu: DistSolver.SolveRefinedInto: local vectors have lengths %d/%d, want %d", len(bLocal), len(xLocal), l.LocalN)
	}
	if steps < 0 {
		return 0, fmt.Errorf("slu: DistSolver.SolveRefinedInto: negative step count %d", steps)
	}
	return d.rootSolveInto(xLocal, bLocal, steps)
}

// rootError is rank 0's failure as every rank reports it: rank 0's
// error text, still wrapping ErrSingular when rank 0's error did, so
// errors.Is classifies the failure identically on all ranks.
type rootError struct {
	text     string
	singular bool
}

func (e *rootError) Error() string { return e.text }

func (e *rootError) Unwrap() error {
	if e.singular {
		return ErrSingular
	}
	return nil
}

// bcastRootError rebuilds rank 0's failure err on every rank
// (collective; err is only read on rank 0): its text, and whether it
// wrapped ErrSingular.
func bcastRootError(c *comm.Comm, err error) error {
	text, singular := "", 0
	if c.Rank() == 0 {
		text = err.Error()
		if errors.Is(err, ErrSingular) {
			singular = 1
		}
	}
	return &rootError{text: c.BcastString(0, text), singular: c.BcastInt(0, singular) == 1}
}
