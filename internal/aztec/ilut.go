package aztec

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/sparse"
)

// ErrZeroPivot reports an ILUT pivot that is exactly zero with a zero
// drop tolerance, so no fix-up value exists, or a row that is entirely
// zero; NewILUT wraps it with the failing row.
var ErrZeroPivot = errors.New("aztec: ILUT: zero pivot")

// ILUT is Saad's dual-threshold incomplete LU factorization ILUT(τ,lfil)
// of a local (serial) square matrix: entries smaller than a relative drop
// tolerance are discarded, and each factor row keeps only its largest
// entries up to a fill budget derived from the fill ratio. This is the
// subdomain solve behind the AZDomDecomp preconditioner (AztecOO's
// AZ_ilut), independent of ksp's ILU(0).
type ILUT struct {
	n     int
	lPtr  []int
	lCols []int
	lVals []float64 // unit lower triangle, diagonal implicit
	uPtr  []int
	uCols []int
	uVals []float64 // strict upper triangle
	uDiag []float64
}

type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewILUT factors a with drop tolerance droptol (relative to each row's
// 2-norm) and fill ratio fill (≥ 1 keeps at least the original row
// density in each factor).
func NewILUT(a *sparse.CSR, droptol, fill float64) (*ILUT, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("aztec: ILUT requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if droptol < 0 {
		return nil, fmt.Errorf("aztec: ILUT drop tolerance must be non-negative, got %g", droptol)
	}
	if fill <= 0 {
		return nil, fmt.Errorf("aztec: ILUT fill ratio must be positive, got %g", fill)
	}
	n := a.Rows
	f := &ILUT{
		n:     n,
		lPtr:  make([]int, n+1),
		uPtr:  make([]int, n+1),
		uDiag: make([]float64, n),
	}
	w := make([]float64, n)      // dense accumulator
	inPattern := make([]bool, n) // membership in the current row pattern
	var lower intHeap            // pending lower-part columns
	var patternList []int        // every marked index of the current row

	for i := 0; i < n; i++ {
		cols, vals := a.RowView(i)
		rowNorm := sparse.Norm2(vals)
		if rowNorm == 0 {
			return nil, fmt.Errorf("%w: row %d is entirely zero", ErrZeroPivot, i)
		}
		tau := droptol * rowNorm
		nnzRow := len(cols)
		budget := int(math.Ceil(fill * float64(nnzRow) / 2))
		if budget < 1 {
			budget = 1
		}

		lower = lower[:0]
		patternList = patternList[:0]
		for k, j := range cols {
			w[j] = vals[k]
			inPattern[j] = true
			patternList = append(patternList, j)
			if j < i {
				heap.Push(&lower, j)
			}
		}

		// Eliminate lower-part entries in increasing column order.
		for lower.Len() > 0 {
			k := heap.Pop(&lower).(int)
			lik := w[k] / f.uDiag[k]
			if math.Abs(lik) <= tau {
				w[k] = 0
				inPattern[k] = false
				continue
			}
			w[k] = lik
			for p := f.uPtr[k]; p < f.uPtr[k+1]; p++ {
				j := f.uCols[p]
				if !inPattern[j] {
					inPattern[j] = true
					w[j] = 0
					patternList = append(patternList, j)
					if j < i {
						heap.Push(&lower, j)
					}
				}
				w[j] -= lik * f.uVals[p]
			}
		}

		// Gather surviving entries. Entries dropped during elimination
		// were unmarked but remain in patternList; skip them.
		var lCand, uCand []int
		for _, j := range patternList {
			if !inPattern[j] {
				continue
			}
			switch {
			case j < i:
				if math.Abs(w[j]) > tau {
					lCand = append(lCand, j)
				} else {
					w[j] = 0
					inPattern[j] = false
				}
			case j > i:
				if math.Abs(w[j]) > tau {
					uCand = append(uCand, j)
				} else {
					w[j] = 0
					inPattern[j] = false
				}
			}
		}
		keepLargest(&lCand, w, budget)
		keepLargest(&uCand, w, budget)
		sort.Ints(lCand)
		sort.Ints(uCand)

		for _, j := range lCand {
			f.lCols = append(f.lCols, j)
			f.lVals = append(f.lVals, w[j])
		}
		f.lPtr[i+1] = len(f.lCols)

		diag := w[i]
		if diag == 0 {
			// Saad's fix-up: substitute a small pivot rather than failing,
			// keeping the preconditioner usable for nearly singular rows.
			diag = tau
			if diag == 0 {
				return nil, fmt.Errorf("%w at row %d with zero drop tolerance", ErrZeroPivot, i)
			}
		}
		f.uDiag[i] = diag
		for _, j := range uCand {
			f.uCols = append(f.uCols, j)
			f.uVals = append(f.uVals, w[j])
		}
		f.uPtr[i+1] = len(f.uCols)

		// Reset the accumulator and marks for the next row.
		for _, j := range patternList {
			w[j] = 0
			inPattern[j] = false
		}
	}
	return f, nil
}

// keepLargest truncates cand to its m entries of largest |w| value.
func keepLargest(cand *[]int, w []float64, m int) {
	c := *cand
	if len(c) <= m {
		return
	}
	sort.Slice(c, func(a, b int) bool { return math.Abs(w[c[a]]) > math.Abs(w[c[b]]) })
	for _, j := range c[m:] {
		w[j] = 0
	}
	*cand = c[:m]
}

// Solve computes z = (LU)⁻¹ r; z and r may alias.
func (f *ILUT) Solve(z, r []float64) {
	if len(z) != f.n || len(r) != f.n {
		panic(fmt.Sprintf("aztec: ILUT.Solve: vectors must have length %d", f.n))
	}
	for i := 0; i < f.n; i++ {
		s := r[i]
		for p := f.lPtr[i]; p < f.lPtr[i+1]; p++ {
			s -= f.lVals[p] * z[f.lCols[p]]
		}
		z[i] = s
	}
	for i := f.n - 1; i >= 0; i-- {
		s := z[i]
		for p := f.uPtr[i]; p < f.uPtr[i+1]; p++ {
			s -= f.uVals[p] * z[f.uCols[p]]
		}
		z[i] = s / f.uDiag[i]
	}
}

// NNZ returns the stored entry count of both factors (plus diagonal).
func (f *ILUT) NNZ() int { return len(f.lVals) + len(f.uVals) + f.n }
