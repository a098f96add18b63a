package core

import (
	"strconv"

	"repro/internal/cca"
	"repro/internal/pmat"
	"repro/internal/slu"
	"repro/internal/telemetry"
)

// SLUComponent is the LISI solver component backed by the SuperLU-role
// slu direct solver. It demonstrates the generic parameter design
// (§6.5) accommodating direct-solver vocabulary (ordering, pivot
// threshold, equilibration, refinement) while tolerating the common
// iterative keys — a direct solver has no tolerance or iteration limit,
// so those are accepted and recorded as ignored, letting an application
// swap solver components without changing its parameter-setting code.
type SLUComponent struct {
	baseAdapter

	dist     *slu.DistSolver
	builtVer int
}

var _ SparseSolver = (*SLUComponent)(nil)
var _ cca.Component = (*SLUComponent)(nil)

// NewSLUComponent returns an unconfigured component (CCA class
// ClassSLUSolver).
func NewSLUComponent() *SLUComponent {
	return &SLUComponent{baseAdapter: newBaseAdapter("lisi.solver.superlu")}
}

// SetServices implements cca.Component.
func (sc *SLUComponent) SetServices(svc cca.Services) error {
	return sc.baseAdapter.setServices(svc, sc)
}

// ignoredIterativeKeys are accepted for cross-component compatibility but
// have no effect on a direct solve.
var ignoredIterativeKeys = map[string]bool{
	"solver": true, "preconditioner": true, "tol": true,
	"maxits": true, "restart": true,
}

// Set validates and stores a generic parameter.
func (sc *SLUComponent) Set(key, value string) int {
	switch {
	case key == "ordering":
		if _, err := slu.OrderingFromName(value); err != nil {
			return ErrBadArg
		}
	case key == "pivot_threshold":
		if v, err := strconv.ParseFloat(value, 64); err != nil || v <= 0 || v > 1 {
			return ErrBadArg
		}
	case key == "equilibrate":
		if _, err := strconv.ParseBool(value); err != nil {
			return ErrBadArg
		}
	case key == "refine_steps":
		if v, err := strconv.Atoi(value); err != nil || v < 0 {
			return ErrBadArg
		}
	case key == "format":
		// Accepted for seamless component swapping; the direct solver
		// factors at setup, so no SpMV kernel survives to re-format.
		if !validFormat(value) {
			return ErrBadArg
		}
	case ignoredIterativeKeys[key]:
		// Tolerated for seamless component swapping; recorded below.
	default:
		return ErrUnknownKey
	}
	sc.storeParam(key, value)
	return OK
}

// SetInt routes through Set so validation is uniform.
func (sc *SLUComponent) SetInt(key string, value int) int {
	return sc.Set(key, strconv.Itoa(value))
}

// SetBool routes through Set.
func (sc *SLUComponent) SetBool(key string, value bool) int {
	return sc.Set(key, strconv.FormatBool(value))
}

// SetDouble routes through Set.
func (sc *SLUComponent) SetDouble(key string, value float64) int {
	return sc.Set(key, strconv.FormatFloat(value, 'g', -1, 64))
}

// GetAll reports the configuration.
func (sc *SLUComponent) GetAll() string {
	extra := map[string]string{
		"backend":        "slu (SuperLU-role, direct)",
		"matrix_free":    "false",
		"factorizations": strconv.Itoa(sc.factorizations),
	}
	for k := range sc.params {
		if ignoredIterativeKeys[k] {
			extra["ignored."+k] = sc.params[k]
		}
	}
	if sc.dist != nil {
		extra["fill_ratio"] = strconv.FormatFloat(sc.dist.FillRatio(), 'g', 4, 64)
	}
	return sc.getAll(extra)
}

func (sc *SLUComponent) options() slu.Options {
	opts := slu.DefaultOptions()
	if v, ok := sc.params["ordering"]; ok {
		opts.ColPerm, _ = slu.OrderingFromName(v)
	}
	if v, ok := sc.params["pivot_threshold"]; ok {
		opts.PivotThreshold, _ = strconv.ParseFloat(v, 64)
	}
	if v, ok := sc.params["equilibrate"]; ok {
		opts.Equilibrate, _ = strconv.ParseBool(v)
	}
	return opts
}

// Solve implements the LISI solve on the direct backend. The
// factorization is reused across right-hand sides and across Solve calls
// until SetupMatrix changes the matrix — use case §5.2b.
func (sc *SLUComponent) Solve(solution []float64, status []float64, numLocalRow, statusLength int) int {
	if code := sc.solvePrep(solution, status, numLocalRow); code != OK {
		return code
	}
	if sc.mf != nil {
		// A direct factorization needs assembled entries; the paper's
		// matrix-free path only applies to iterative components.
		return ErrUnsupported
	}
	l, err := sc.buildLayout()
	if err != nil {
		return ErrBadArg
	}

	if sc.dist == nil || sc.builtVer != sc.matVer {
		stopSetup := sc.rec.StartPhase(telemetry.PhaseSetup)
		pm, err := pmat.NewMat(l, sc.localA)
		if err != nil {
			stopSetup()
			return ErrBadArg
		}
		d, err := slu.NewDistSolver(pm, sc.options())
		stopSetup()
		if err != nil {
			writeStatus(status, statusLength, 0, 0, false, sc.factorizations, classifySolveError(err))
			return ErrSolveFailed
		}
		sc.dist = d
		sc.builtVer = sc.matVer
		sc.factorizations++
	}
	sc.dist.SetRecorder(sc.rec)
	sc.recordFormat(sc.dist.SetFormat(sc.formatChoice()))

	refineSteps := 0
	if v, ok := sc.params["refine_steps"]; ok {
		refineSteps, _ = strconv.Atoi(v)
	}
	lastRes := 0.0
	for r := 0; r < sc.nRhs; r++ {
		b := sc.rhs[r*numLocalRow : (r+1)*numLocalRow]
		res, err := sc.dist.SolveRefinedInto(solution[r*numLocalRow:(r+1)*numLocalRow], b, refineSteps)
		if err != nil {
			writeStatus(status, statusLength, 0, 0, false, sc.factorizations, classifySolveError(err))
			return ErrSolveFailed
		}
		lastRes = res
	}
	writeStatus(status, statusLength, 0, lastRes, true, sc.factorizations, FailNone)
	return OK
}

func init() {
	Register(BackendInfo{
		Name:  "superlu",
		Class: ClassSLUSolver,
		Kind:  "direct (sparse LU)",
		Doc:   "SuperLU-role `slu` package: distributed LU factorization with reuse across repeated solves",
	}, func() SparseSolver { return NewSLUComponent() })
}
