package ksp

import (
	"math"

	"repro/internal/comm"
	"repro/internal/sparse"
)

// solveWorkspace is the per-KSP scratch that the Krylov methods reuse
// across repeated solves. Vectors are keyed by the local problem size and
// the GMRES arrays additionally by the restart length; a size change
// drops and rebuilds them, so a Session's steady-state solves against an
// unchanged layout allocate nothing here.
type solveWorkspace struct {
	n    int         // length of the vectors in vecs
	vecs [][]float64 // generic per-method scratch, grown on demand

	basisN, basisM int // dimensions the Krylov-basis arrays are sized for
	v              [][]float64
	z              [][]float64 // flexible (FGMRES) directions; built lazily
	h              [][]float64
	g, cs, sn, y   []float64
	hj             []float64 // one Gram–Schmidt pass's projections, staged for its AllReduce

	red [2]float64 // staging for fused reductions
}

// wsVecs returns count persistent length-n scratch vectors. Contents are
// unspecified: every method must fully initialize what it reads (the one
// accumulate-from-zero vector, TFQMR's d, is zeroed explicitly there).
func (k *KSP) wsVecs(n, count int) [][]float64 {
	ws := &k.ws
	if ws.n != n {
		ws.vecs = nil
		ws.n = n
	}
	for len(ws.vecs) < count {
		ws.vecs = append(ws.vecs, make([]float64, n))
	}
	return ws.vecs[:count]
}

// wsKrylov sizes the restarted-GMRES workspace for local size n and
// restart m: basis v (m+1 vectors), Hessenberg h ((m+1)×m), least-squares
// rhs g, Givens cs/sn, back-substitution y and the Gram–Schmidt
// projection staging hj (m+1). With flexible set, the stored
// preconditioned directions z (m vectors) are built too.
func (k *KSP) wsKrylov(n, m int, flexible bool) *solveWorkspace {
	ws := &k.ws
	if ws.basisN != n || ws.basisM != m {
		ws.v = make([][]float64, m+1)
		for i := range ws.v {
			ws.v[i] = make([]float64, n)
		}
		ws.h = make([][]float64, m+1)
		for i := range ws.h {
			ws.h[i] = make([]float64, m)
		}
		ws.g = make([]float64, m+1)
		ws.cs = make([]float64, m)
		ws.sn = make([]float64, m)
		ws.y = make([]float64, m)
		ws.hj = make([]float64, m+1)
		ws.z = nil
		ws.basisN, ws.basisM = n, m
	}
	if flexible && ws.z == nil {
		ws.z = make([][]float64, m)
		for i := range ws.z {
			ws.z[i] = make([]float64, n)
		}
	}
	return ws
}

// fusedNormDot returns (‖a‖₂, a·b) using a single AllReduce of a
// two-element vector. The local contributions and the rank-order fold are
// exactly those of pmat.Norm2 followed by pmat.Dot, so the results are
// bitwise identical to the unfused pair — only the collective count
// changes (see docs/PERFORMANCE.md for the fusion policy).
func (k *KSP) fusedNormDot(a, b []float64) (norm, dot float64) {
	local := sparse.Norm2(a)
	k.ws.red[0] = local * local
	k.ws.red[1] = sparse.Dot(a, b)
	k.c.AllReduceFloat64sInPlace(k.ws.red[:], comm.OpSum)
	return math.Sqrt(k.ws.red[0]), k.ws.red[1]
}

// fusedDot2 returns (a1·b1, a2·b2) with one AllReduce, bitwise identical
// to two consecutive pmat.Dot calls.
func (k *KSP) fusedDot2(a1, b1, a2, b2 []float64) (float64, float64) {
	k.ws.red[0] = sparse.Dot(a1, b1)
	k.ws.red[1] = sparse.Dot(a2, b2)
	k.c.AllReduceFloat64sInPlace(k.ws.red[:], comm.OpSum)
	return k.ws.red[0], k.ws.red[1]
}

// fusedMDot returns the projections x·v[i] for every column of v with
// one AllReduce of a len(v)-element vector, staged in the workspace.
// Each element is bitwise identical to k.dot(x, v[i]): the dots of one
// classical Gram–Schmidt pass are independent, so fusing them is
// neutral.
func (k *KSP) fusedMDot(x []float64, v [][]float64) []float64 {
	h := k.ws.hj[:len(v)]
	sparse.MDot(x, v, h)
	k.c.AllReduceFloat64sInPlace(h, comm.OpSum)
	return h
}
