package slu

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sparse"
)

// ErrSingular reports a structurally or numerically singular matrix:
// an all-zero row or column, or a column with no usable pivot. Factor
// wraps it with the failing row or column.
var ErrSingular = errors.New("slu: matrix is singular")

// Options control the factorization, mirroring SuperLU's driver options.
type Options struct {
	// ColPerm is the fill-reducing column ordering.
	ColPerm Ordering
	// PivotThreshold u ∈ (0,1]: the diagonal entry is kept as pivot when
	// |a_diag| ≥ u·max|a_col| (1.0 = classic partial pivoting,
	// SuperLU's diag_pivot_thresh).
	PivotThreshold float64
	// Equilibrate applies row and column scaling before factorization.
	Equilibrate bool
}

// DefaultOptions mirrors SuperLU's defaults: natural ordering replaced by
// minimum degree, threshold 1.0 (partial pivoting), equilibration on.
func DefaultOptions() Options {
	return Options{ColPerm: OrderMinDegree, PivotThreshold: 1.0, Equilibrate: true}
}

// LU is a sparse factorization P·Dr·A·Dc·Q = L·U produced by Factor.
// L is unit lower triangular and U upper triangular, both stored by
// columns in factor coordinates.
type LU struct {
	n int

	// L in factor row numbering: column k starts with the unit diagonal.
	lPtr  []int
	lRows []int
	lVals []float64
	// U in factor row numbering: column k's diagonal entry is last.
	uPtr  []int
	uRows []int
	uVals []float64

	rowPerm []int     // pinv: original row -> factor row
	colPerm []int     // q: factor column -> original column
	dr, dc  []float64 // equilibration scalings (nil when disabled)

	anorm float64 // 1-norm of the (scaled) matrix, for RCond

	// Lazily allocated scratch so repeated SolveInto/Refine calls do not
	// allocate (steady-state reuse; see docs/PERFORMANCE.md).
	workC, workR, workDx []float64
}

// N returns the order of the factored matrix.
func (f *LU) N() int { return f.n }

// NNZ returns the stored entries in L and U combined.
func (f *LU) NNZ() int { return len(f.lVals) + len(f.uVals) }

// Factor computes the sparse LU factorization of a square CSR matrix
// using the left-looking Gilbert–Peierls algorithm with threshold partial
// pivoting.
func Factor(a *sparse.CSR, opts Options) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("slu: Factor requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if opts.PivotThreshold <= 0 || opts.PivotThreshold > 1 {
		return nil, fmt.Errorf("slu: pivot threshold must be in (0,1], got %g", opts.PivotThreshold)
	}
	n := a.Rows
	if n == 0 {
		return nil, fmt.Errorf("slu: cannot factor an empty matrix")
	}

	f := &LU{n: n}

	work := a
	if opts.Equilibrate {
		var err error
		work, f.dr, f.dc, err = equilibrate(a)
		if err != nil {
			return nil, err
		}
	}
	f.anorm = work.NormOne()

	q, err := ComputeOrdering(work, opts.ColPerm)
	if err != nil {
		return nil, err
	}
	f.colPerm = q

	// Column access to the (scaled) matrix.
	acsc := work.ToCSC()

	f.lPtr = make([]int, n+1)
	f.uPtr = make([]int, n+1)
	pinv := make([]int, n) // original row -> factor row (-1 unpivoted)
	for i := range pinv {
		pinv[i] = -1
	}

	x := make([]float64, n)       // dense accumulator
	pattern := make([]int, 0, 64) // topological pattern of x
	marked := make([]bool, n)
	stack := make([]int, 0, 64)
	pstack := make([]int, 0, 64)

	for k := 0; k < n; k++ {
		col := q[k]
		b0, b1 := acsc.ColPtr[col], acsc.ColPtr[col+1]
		if b0 == b1 {
			return nil, fmt.Errorf("%w: column %d is empty (structurally singular)", ErrSingular, col)
		}

		// ---- Symbolic: reach of the column pattern through L ----
		pattern = pattern[:0]
		for p := b0; p < b1; p++ {
			i := acsc.RowInd[p]
			if marked[i] {
				continue
			}
			// Depth-first search from i over pivoted columns of L,
			// emitting nodes in reverse topological order.
			stack = append(stack[:0], i)
			pstack = append(pstack[:0], 0)
			marked[i] = true
			for len(stack) > 0 {
				top := len(stack) - 1
				node := stack[top]
				J := pinv[node]
				descended := false
				if J >= 0 {
					lo, hi := f.lPtr[J], f.lPtr[J+1]
					for pp := lo + 1 + pstack[top]; pp < hi; pp++ {
						child := f.lRows[pp]
						if !marked[child] {
							pstack[top] = pp - lo // resume point
							stack = append(stack, child)
							pstack = append(pstack, 0)
							marked[child] = true
							descended = true
							break
						}
					}
				}
				if !descended {
					stack = stack[:top]
					pstack = pstack[:top]
					pattern = append(pattern, node)
				}
			}
		}
		// pattern is in reverse topological order; reverse it.
		for i, j := 0, len(pattern)-1; i < j; i, j = i+1, j-1 {
			pattern[i], pattern[j] = pattern[j], pattern[i]
		}

		// ---- Numeric: sparse lower triangular solve ----
		for _, i := range pattern {
			x[i] = 0
		}
		for p := b0; p < b1; p++ {
			x[acsc.RowInd[p]] = acsc.Vals[p]
		}
		for _, i := range pattern {
			J := pinv[i]
			if J < 0 {
				continue
			}
			xi := x[i]
			if xi == 0 {
				continue
			}
			for pp := f.lPtr[J] + 1; pp < f.lPtr[J+1]; pp++ {
				x[f.lRows[pp]] -= f.lVals[pp] * xi
			}
		}

		// ---- Pivot selection among unpivoted rows ----
		pivRow, maxAbs := -1, 0.0
		diagRow := -1
		for _, i := range pattern {
			if pinv[i] >= 0 {
				continue
			}
			if av := math.Abs(x[i]); av > maxAbs {
				maxAbs, pivRow = av, i
			}
			if i == col {
				diagRow = i
			}
		}
		if pivRow < 0 || maxAbs == 0 {
			return nil, fmt.Errorf("%w at column %d (no usable pivot)", ErrSingular, k)
		}
		if diagRow >= 0 && math.Abs(x[diagRow]) >= opts.PivotThreshold*maxAbs {
			pivRow = diagRow // prefer the diagonal under the threshold rule
		}
		pivot := x[pivRow]
		pinv[pivRow] = k

		// ---- Store U(:,k) (factor rows < k, diagonal last) and L(:,k) ----
		for _, i := range pattern {
			if fi := pinv[i]; fi >= 0 && fi < k {
				f.uRows = append(f.uRows, fi)
				f.uVals = append(f.uVals, x[i])
			}
		}
		f.uRows = append(f.uRows, k)
		f.uVals = append(f.uVals, pivot)
		f.uPtr[k+1] = len(f.uRows)

		f.lRows = append(f.lRows, pivRow)
		f.lVals = append(f.lVals, 1.0)
		for _, i := range pattern {
			if pinv[i] < 0 && x[i] != 0 {
				f.lRows = append(f.lRows, i)
				f.lVals = append(f.lVals, x[i]/pivot)
			}
		}
		f.lPtr[k+1] = len(f.lRows)

		for _, i := range pattern {
			marked[i] = false
			x[i] = 0
		}
	}

	// Renumber L's stored rows into factor coordinates so the triangular
	// solves are plain loops.
	for p := range f.lRows {
		f.lRows[p] = pinv[f.lRows[p]]
	}
	f.rowPerm = pinv
	return f, nil
}

// equilibrate computes row scalings dr and column scalings dc that bring
// the largest entry of every row and column of dr·A·dc to about 1, as
// SuperLU's sgsequ does.
func equilibrate(a *sparse.CSR) (*sparse.CSR, []float64, []float64, error) {
	n := a.Rows
	dr := make([]float64, n)
	for i := 0; i < n; i++ {
		_, vals := a.RowView(i)
		m := 0.0
		for _, v := range vals {
			if av := math.Abs(v); av > m {
				m = av
			}
		}
		if m == 0 {
			return nil, nil, nil, fmt.Errorf("%w: equilibrate: row %d is entirely zero", ErrSingular, i)
		}
		dr[i] = 1 / m
	}
	scaled := a.Clone()
	scaled.ScaleRows(dr)
	dc := make([]float64, n)
	colMax := make([]float64, n)
	for i := 0; i < n; i++ {
		cols, vals := scaled.RowView(i)
		for p, j := range cols {
			if av := math.Abs(vals[p]); av > colMax[j] {
				colMax[j] = av
			}
		}
	}
	for j := 0; j < n; j++ {
		if colMax[j] == 0 {
			return nil, nil, nil, fmt.Errorf("%w: equilibrate: column %d is entirely zero", ErrSingular, j)
		}
		dc[j] = 1 / colMax[j]
	}
	for i := 0; i < n; i++ {
		cols, vals := scaled.RowView(i)
		for p, j := range cols {
			vals[p] *= dc[j]
		}
	}
	return scaled, dr, dc, nil
}
