// Fixture for the hotalloc analyzer's sparse-substrate rules. The
// package's path ends in "sparse": per-product kernel methods (MulVec,
// MulVecAdd and Apply) are hot contexts outright, and *FromCSR
// converter loops must not make() per iteration.
package sparse

// kern stands in for a format kernel: the analyzer keys off the method
// name and receiver, not the concrete type.
type kern struct {
	rows int
	acc  []float64
	idx  []int
}

// MulVec allocating scratch per product is the canonical kernel
// finding: the steady-state contract runs through this body on every
// SpMV.
func (k *kern) MulVec(y, x []float64) {
	t := make([]float64, k.rows) // want "make\\(\\) inside per-product kernel MulVec allocates on every product"
	copy(y, t)
}

// MulVecAdd growing its own slice reallocates per product even though
// the append sits inside a plain loop, not a solver iteration loop.
func (k *kern) MulVecAdd(y, x []float64) {
	for i := range y {
		k.acc = append(k.acc, x[i]) // want "append growth of k.acc inside per-product kernel MulVecAdd reallocates on every product"
	}
}

// reuseAppend is the supported kernel idiom: appending to acc[:0]
// keeps conversion-time capacity and is not growth.
func (k *kern) Apply(y, x []float64) {
	k.acc = append(k.acc[:0], x...)
	copy(y, k.acc)
}

// bindScratch is not a kernel entry point: allocation in Bind-time
// helpers is exactly where scratch belongs.
func (k *kern) bindScratch() {
	k.acc = make([]float64, k.rows)
}

// badFromCSR makes per row: against a production-sized operator the
// converter turns an O(nnz) pass into allocator churn.
func badFromCSR(rows int, rowPtr []int) [][]float64 {
	out := make([][]float64, rows)
	for i := 0; i < rows; i++ {
		row := make([]float64, rowPtr[i+1]-rowPtr[i]) // want "make\\(\\) inside a loop of converter badFromCSR"
		out[i] = row
	}
	return out
}

// goodFromCSR is the supported two-pass count-then-fill shape: every
// output array is sized up front, loops only fill.
func goodFromCSR(rows int, rowPtr []int, vals []float64) []float64 {
	nnz := rowPtr[rows]
	packed := make([]float64, nnz)
	for i := 0; i < rows; i++ {
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			packed[p] = vals[p]
		}
	}
	return packed
}

// appendWithinCapacityFromCSR: converters may append into preallocated
// capacity — only per-iteration make() is flagged in converter loops.
func appendWithinCapacityFromCSR(rows int, rowPtr []int, vals []float64) []float64 {
	packed := make([]float64, 0, rowPtr[rows])
	for i := 0; i < rows; i++ {
		packed = append(packed, vals[rowPtr[i]:rowPtr[i+1]]...)
	}
	return packed
}

// quiet shows the per-site escape hatch for a deliberate per-product
// allocation inside a kernel method.
type quiet struct{ n int }

func (q quiet) MulVec(y, x []float64) {
	//lisi:ignore hotalloc a fresh snapshot per product is the point of this kernel
	snap := make([]float64, q.n)
	copy(snap, x)
	copy(y, snap)
}
