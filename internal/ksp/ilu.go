package ksp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sparse"
)

// ErrZeroPivot reports a zero (or numerically tiny) pivot in an
// incomplete factorization; NewILU0 wraps it with the failing row.
var ErrZeroPivot = errors.New("ksp: ILU0: zero pivot")

// ILU0 holds an incomplete LU factorization with zero fill of a local
// (serial) CSR matrix: L is unit lower triangular, U upper triangular,
// both stored combined in a copy of A's pattern.
type ILU0 struct {
	n       int
	a       *sparse.CSR // combined L\U factors on A's pattern
	diagPos []int       // position of the diagonal entry in each row
}

// NewILU0 factors the local square matrix a with ILU(0). Rows must contain
// a structural diagonal entry; a zero or numerically tiny pivot is an
// error (the same failure SuperLU/PETSc report).
func NewILU0(a *sparse.CSR) (*ILU0, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("ksp: ILU0 requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	f := a.Clone()
	diagPos := make([]int, n)
	pos := make([]int, n) // col -> position in current row, -1 otherwise
	for j := range pos {
		pos[j] = -1
	}
	for i := 0; i < n; i++ {
		lo, hi := f.RowPtr[i], f.RowPtr[i+1]
		diagPos[i] = -1
		for k := lo; k < hi; k++ {
			pos[f.ColInd[k]] = k
			if f.ColInd[k] == i {
				diagPos[i] = k
			}
		}
		if diagPos[i] == -1 {
			clearPos(pos, f, lo, hi)
			return nil, fmt.Errorf("ksp: ILU0: row %d has no structural diagonal", i)
		}
		// Eliminate columns j < i present in row i.
		for k := lo; k < hi; k++ {
			j := f.ColInd[k]
			if j >= i {
				break // columns sorted
			}
			piv := f.Vals[diagPos[j]]
			if math.Abs(piv) < 1e-300 {
				clearPos(pos, f, lo, hi)
				return nil, fmt.Errorf("%w at row %d", ErrZeroPivot, j)
			}
			lij := f.Vals[k] / piv
			f.Vals[k] = lij
			// Subtract lij * U(j, j+1:) restricted to row i's pattern.
			for kk := diagPos[j] + 1; kk < f.RowPtr[j+1]; kk++ {
				if p := pos[f.ColInd[kk]]; p >= 0 {
					f.Vals[p] -= lij * f.Vals[kk]
				}
			}
		}
		if math.Abs(f.Vals[diagPos[i]]) < 1e-300 {
			clearPos(pos, f, lo, hi)
			return nil, fmt.Errorf("%w at row %d", ErrZeroPivot, i)
		}
		clearPos(pos, f, lo, hi)
	}
	return &ILU0{n: n, a: f, diagPos: diagPos}, nil
}

func clearPos(pos []int, f *sparse.CSR, lo, hi int) {
	for k := lo; k < hi; k++ {
		pos[f.ColInd[k]] = -1
	}
}

// Solve computes z = (LU)⁻¹ r. z and r may alias.
func (f *ILU0) Solve(z, r []float64) {
	n := f.n
	if len(z) != n || len(r) != n {
		panic(fmt.Sprintf("ksp: ILU0.Solve: vectors must have length %d", n))
	}
	// Forward: L z = r, L unit lower.
	for i := 0; i < n; i++ {
		s := r[i]
		for k := f.a.RowPtr[i]; k < f.diagPos[i]; k++ {
			s -= f.a.Vals[k] * z[f.a.ColInd[k]]
		}
		z[i] = s
	}
	// Backward: U z = z.
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for k := f.diagPos[i] + 1; k < f.a.RowPtr[i+1]; k++ {
			s -= f.a.Vals[k] * z[f.a.ColInd[k]]
		}
		z[i] = s / f.a.Vals[f.diagPos[i]]
	}
}

// sorSweep performs one forward Gauss–Seidel/SOR sweep on the local block:
// x ← x + ω·D⁻¹(b − A·x) applied row-sequentially.
func sorSweep(a *sparse.CSR, x, b []float64, omega float64) error {
	for i := 0; i < a.Rows; i++ {
		s := b[i]
		var diag float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColInd[k]
			if j == i {
				diag = a.Vals[k]
				continue
			}
			s -= a.Vals[k] * x[j]
		}
		if diag == 0 {
			return fmt.Errorf("ksp: SOR: zero diagonal at local row %d", i)
		}
		x[i] = (1-omega)*x[i] + omega*s/diag
	}
	return nil
}

// sorSweepBackward is the reverse-order sweep used by symmetric SOR.
func sorSweepBackward(a *sparse.CSR, x, b []float64, omega float64) error {
	for i := a.Rows - 1; i >= 0; i-- {
		s := b[i]
		var diag float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColInd[k]
			if j == i {
				diag = a.Vals[k]
				continue
			}
			s -= a.Vals[k] * x[j]
		}
		if diag == 0 {
			return fmt.Errorf("ksp: SOR: zero diagonal at local row %d", i)
		}
		x[i] = (1-omega)*x[i] + omega*s/diag
	}
	return nil
}
